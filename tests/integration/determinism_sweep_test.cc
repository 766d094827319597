// System-level half of the TaskPool determinism contract: the SAME workload
// run at BMX_THREADS ∈ {1,2,4,8} must produce bit-identical observable
// results — BGC/reclaim wire traffic, oracle verdicts, and every field of an
// explorer result — and a trace recorded under a multi-threaded explorer must
// replay under one thread.  The BGC, reclaim and the oracle run serially on
// the thread that drives their cluster, so the first two pin that the thread
// count never leaks into them; the explorer cases pin the walk fleet, whose
// walks run on pool workers above one thread.
//
// The pool-level half (ordered merge, exactly-once, deterministic exception
// choice) lives in tests/common/task_pool_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/task_pool.h"
#include "src/runtime/cluster.h"
#include "src/runtime/explorer.h"
#include "src/runtime/mutator.h"
#include "src/runtime/oracle.h"
#include "src/runtime/scenarios.h"

namespace bmx {
namespace {

constexpr size_t kSweep[] = {1, 2, 4, 8};

// Restores the pool to the environment's thread count when a test ends, so
// the sweep never leaks its final override into other tests.
struct PoolGuard {
  ~PoolGuard() { TaskPool::SetThreadsForTesting(TaskPool::EnvThreads()); }
};

// Node 0 builds a linked list and replicates it on `replicas` nodes (the
// traffic_fingerprint_test workload shape — duplicated so the two guards
// cannot drift apart silently).
Gaddr BuildList(Cluster* cluster, std::vector<std::unique_ptr<Mutator>>* mutators, BunchId bunch,
                size_t count, size_t replicas) {
  Mutator& owner = *(*mutators)[0];
  Gaddr head = kNullAddr;
  for (size_t i = 0; i < count; ++i) {
    Gaddr node = owner.Alloc(bunch, 2);
    owner.WriteRef(node, 0, head);
    owner.WriteWord(node, 1, i);
    head = node;
  }
  owner.AddRoot(head);
  for (size_t r = 1; r < replicas; ++r) {
    Gaddr cur = head;
    while (cur != kNullAddr) {
      (*mutators)[r]->AcquireRead(cur);
      Gaddr next = (*mutators)[r]->ReadRef(cur, 0);
      (*mutators)[r]->Release(cur);
      cur = next;
    }
    (*mutators)[r]->AddRoot(head);
  }
  cluster->Pump();
  return head;
}

// One full BGC + reclaim cycle on a replicated-list cluster, returning the
// fingerprint of everything that crossed the wire after the build phase.
// Rebuilt from scratch per thread count: no state carries across sweep steps.
std::string BgcCycleFingerprint() {
  Cluster cluster({.num_nodes = 8});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 8; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head = BuildList(&cluster, &mutators, bunch, 200, 4);
  // Unlink a tail suffix so the sweep and reclaim phases have real garbage.
  mutators[0]->AcquireWrite(head);
  mutators[0]->WriteRef(head, 0, kNullAddr);
  mutators[0]->Release(head);
  cluster.Pump();
  cluster.network().ResetStats();

  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  cluster.node(0).gc().ReclaimFromSpaces(bunch);
  cluster.Pump();
  return cluster.network().stats().Fingerprint();
}

TEST(DeterminismSweep, BgcAndReclaimTrafficBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(1);
  const std::string serial = BgcCycleFingerprint();
  EXPECT_FALSE(serial.empty());
  for (size_t threads : kSweep) {
    TaskPool::SetThreadsForTesting(threads);
    EXPECT_EQ(BgcCycleFingerprint(), serial) << "threads=" << threads;
  }
}

TEST(DeterminismSweep, OracleVerdictsIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // The post-GC cluster is consistent, so the interesting assertion is that
  // every sweep step agrees exactly — same verdict vector, element for
  // element — with the serial oracle (non-empty verdicts across thread counts
  // are pinned by ExplorerCanaryResultIdenticalAcrossThreadCounts below).
  auto verdicts = [](size_t threads) {
    TaskPool::SetThreadsForTesting(threads);
    Cluster cluster({.num_nodes = 4});
    std::vector<std::unique_ptr<Mutator>> mutators;
    for (size_t i = 0; i < 4; ++i) {
      mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
    }
    BunchId bunch = cluster.CreateBunch(0);
    BuildList(&cluster, &mutators, bunch, 100, 3);
    cluster.node(0).gc().CollectBunch(bunch);
    cluster.Pump();
    InvariantOracle oracle(&cluster);
    std::vector<std::string> out = oracle.Check();
    std::vector<std::string> stable = oracle.CheckStable();
    out.insert(out.end(), stable.begin(), stable.end());
    return out;
  };
  const std::vector<std::string> serial = verdicts(1);
  for (size_t threads : kSweep) {
    EXPECT_EQ(verdicts(threads), serial) << "threads=" << threads;
  }
}

TEST(DeterminismSweep, ExplorerCleanScenarioResultIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  ExplorerOptions options;
  options.root_seed = 7;
  options.num_walks = 8;
  options.schedule = ScheduleKind::kRandomWalk;
  options.oracle_stride = 2;
  Explorer explorer(options);
  ExplorerScenario scenario = StandardScenarios()[2];  // fig3-invalidate-fanout

  TaskPool::SetThreadsForTesting(1);
  const ExplorationResult serial = explorer.Explore(scenario);
  ASSERT_FALSE(serial.violation_found);
  EXPECT_EQ(serial.runs, options.num_walks);

  for (size_t threads : kSweep) {
    TaskPool::SetThreadsForTesting(threads);
    ExplorationResult got = explorer.Explore(scenario);
    EXPECT_EQ(got.violation_found, serial.violation_found) << "threads=" << threads;
    EXPECT_EQ(got.runs, serial.runs) << "threads=" << threads;
    EXPECT_EQ(got.total_deliveries, serial.total_deliveries) << "threads=" << threads;
    EXPECT_EQ(got.fingerprint, serial.fingerprint) << "threads=" << threads;
  }
}

TEST(DeterminismSweep, ExplorerCanaryResultIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  ExplorerOptions options;
  options.root_seed = 1;
  options.num_walks = 64;
  options.schedule = ScheduleKind::kRandomWalk;
  options.deviation_rate = 0.3;
  options.oracle_stride = 1;
  Explorer explorer(options);
  ExplorerScenario scenario = CanaryReorderScenario();

  TaskPool::SetThreadsForTesting(1);
  const ExplorationResult serial = explorer.Explore(scenario);
  ASSERT_TRUE(serial.violation_found);
  ASSERT_FALSE(serial.violations.empty());

  for (size_t threads : kSweep) {
    TaskPool::SetThreadsForTesting(threads);
    ExplorationResult got = explorer.Explore(scenario);
    // The parallel fold stops at the first violating walk in WALK order, so
    // every field — including which walk violated, its oracle verdicts, its
    // traffic, and the shrink outcome — matches the serial loop exactly.
    EXPECT_EQ(got.violation_found, serial.violation_found) << "threads=" << threads;
    EXPECT_EQ(got.violating_walk_seed, serial.violating_walk_seed) << "threads=" << threads;
    EXPECT_EQ(got.violations, serial.violations) << "threads=" << threads;
    EXPECT_EQ(got.fingerprint, serial.fingerprint) << "threads=" << threads;
    EXPECT_EQ(got.runs, serial.runs) << "threads=" << threads;
    EXPECT_EQ(got.total_deliveries, serial.total_deliveries) << "threads=" << threads;
    EXPECT_EQ(got.trace.decisions.size(), serial.trace.decisions.size())
        << "threads=" << threads;
    EXPECT_EQ(got.shrunk.decisions.size(), serial.shrunk.decisions.size())
        << "threads=" << threads;
  }
}

TEST(DeterminismSweep, TraceRecordedUnderManyThreadsReplaysUnderOne) {
  PoolGuard guard;
  ExplorerOptions options;
  options.root_seed = 1;
  options.num_walks = 64;
  options.schedule = ScheduleKind::kRandomWalk;
  options.deviation_rate = 0.3;
  options.oracle_stride = 1;
  Explorer explorer(options);
  ExplorerScenario scenario = CanaryReorderScenario();

  TaskPool::SetThreadsForTesting(4);
  ExplorationResult parallel = explorer.Explore(scenario);
  ASSERT_TRUE(parallel.violation_found);

  // Trace portability is the debugging story: a violation found by a parallel
  // fleet must reproduce on a serial replay, bit for bit.
  TaskPool::SetThreadsForTesting(1);
  RunResult replay = explorer.Replay(scenario, parallel.trace);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.fingerprint, parallel.fingerprint);
  RunResult shrunk = explorer.Replay(scenario, parallel.shrunk);
  EXPECT_TRUE(shrunk.violated);
}

}  // namespace
}  // namespace bmx
