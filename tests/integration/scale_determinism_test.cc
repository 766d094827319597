// Scale-out determinism contract (PROTOCOLS.md §14):
//
//   * with batching DISABLED the wire is bit-identical to the pre-batching
//     transport — same Fingerprint() whether the policy struct was defaulted
//     or explicitly disabled;
//   * with batching ENABLED the logical protocol traffic (per-kind sent and
//     bytes, per-category sent) is identical to the unbatched run —
//     coalescing changes wire packaging, never what the protocol said;
//   * at a fixed node count and seed, the whole soak stack — fingerprint and
//     invariant / consistency / liveness verdicts — is stable across
//     BMX_THREADS ∈ {1, 2, 4}.
//
// The flush triggers themselves are exercised at the network level in
// tests/net/batch_transport_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/task_pool.h"
#include "src/net/batch.h"
#include "src/runtime/explorer.h"
#include "src/runtime/scenarios.h"
#include "src/workload/soak.h"

namespace bmx {
namespace {

struct PoolGuard {
  ~PoolGuard() { TaskPool::SetThreadsForTesting(TaskPool::EnvThreads()); }
};

SoakOptions SmallSoak(const BatchPolicy& batch) {
  SoakOptions opts;
  opts.num_nodes = 8;
  opts.topology = TopologyKind::kRandomRegular;
  opts.ops = 300;
  opts.batch = batch;
  return opts;
}

// Walks of the soak under all three oracles (by default one deterministic
// FIFO walk); the ExplorationResult carries the fingerprint and every verdict.
ExplorationResult ExploreSoak(const SoakOptions& opts, ScheduleKind schedule = ScheduleKind::kFifo,
                              size_t num_walks = 1, uint64_t root_seed = 5) {
  ExplorerOptions eo;
  eo.root_seed = root_seed;
  eo.num_walks = num_walks;
  eo.schedule = schedule;
  eo.oracle_stride = 64;
  eo.check_consistency = true;
  eo.check_liveness = true;
  Explorer explorer(eo);
  return explorer.Explore(SoakScenario(opts));
}

// The logical-traffic projection of the stats: per-kind (sent, bytes) for
// every kind, plus per-category sent.  Frames never appear (their logical
// counters stay zero), so this is exactly what must match batching on vs off.
std::vector<uint64_t> LogicalTraffic(const NetworkStats& stats) {
  std::vector<uint64_t> out;
  for (size_t k = 0; k < static_cast<size_t>(MsgKind::kMaxKind); ++k) {
    out.push_back(stats.per_kind[k].sent);
    out.push_back(stats.per_kind[k].bytes);
  }
  for (size_t c = 0; c < kNumMsgCategories; ++c) {
    out.push_back(stats.per_category[c].sent);
  }
  return out;
}

// Runs the soak workload directly (no explorer) on a fresh cluster and
// returns its end-of-run stats.
NetworkStats SoakStats(const SoakOptions& opts, uint64_t seed) {
  ExplorerScenario scenario = SoakScenario(opts);
  auto cluster = scenario.make(seed);
  scenario.run(*cluster);
  return cluster->network().stats();
}

TEST(ScaleDeterminism, DisabledPolicyIsBitIdenticalToDefault) {
  SoakOptions defaulted = SmallSoak(BatchPolicy{});
  BatchPolicy off;
  off.enabled = false;
  SoakOptions zeroed = SmallSoak(off);
  NetworkStats a = SoakStats(defaulted, 5);
  NetworkStats b = SoakStats(zeroed, 5);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.batching.frames_sent, 0u);
  EXPECT_EQ(b.batching.frames_sent, 0u);
  EXPECT_EQ(a.wire_messages, b.wire_messages);
}

TEST(ScaleDeterminism, LogicalTrafficIdenticalAcrossFlushPolicies) {
  BatchPolicy off;
  BatchPolicy on;
  on.enabled = true;

  NetworkStats base = SoakStats(SmallSoak(off), 5);
  EXPECT_EQ(base.For(MsgKind::kBatchFrame).sent, 0u);
  NetworkStats got = SoakStats(SmallSoak(on), 5);
  EXPECT_EQ(LogicalTraffic(got), LogicalTraffic(base));
  EXPECT_GT(got.batching.frames_sent, 0u);
  EXPECT_GT(got.batching.batched_payloads, got.batching.frames_sent);
  // Coalescing must actually shrink the wire, not just repackage it.
  EXPECT_LT(got.wire_messages, base.wire_messages);
}

TEST(ScaleDeterminism, SoakVerdictsAndFingerprintStableAcrossThreads) {
  PoolGuard guard;
  for (bool batching : {false, true}) {
    BatchPolicy policy;
    policy.enabled = batching;
    SoakOptions opts = SmallSoak(policy);

    TaskPool::SetThreadsForTesting(1);
    ExplorationResult serial = ExploreSoak(opts);
    EXPECT_FALSE(serial.violation_found)
        << "batching=" << batching << ": " << (serial.violations.empty() ? std::string() : serial.violations[0]);

    TaskPool::SetThreadsForTesting(4);
    ExplorationResult parallel = ExploreSoak(opts);
    EXPECT_EQ(parallel.violation_found, serial.violation_found) << "batching=" << batching;
    EXPECT_EQ(parallel.violations, serial.violations) << "batching=" << batching;
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint) << "batching=" << batching;
    EXPECT_EQ(parallel.total_deliveries, serial.total_deliveries) << "batching=" << batching;
  }

  // A two-walk random-walk fleet: above one thread its walks run on pool
  // workers, which the single FIFO walk above never does.  The history is
  // long enough for forwarding-chain path compression to change traffic, so
  // any thread-count dependence in a walk shows up here.
  SoakOptions walk_opts = SmallSoak(BatchPolicy{});
  walk_opts.ops = 2000;
  TaskPool::SetThreadsForTesting(1);
  ExplorationResult one = ExploreSoak(walk_opts, ScheduleKind::kRandomWalk, /*num_walks=*/2,
                                      /*root_seed=*/2);
  for (size_t threads : {2u, 4u}) {
    TaskPool::SetThreadsForTesting(threads);
    ExplorationResult fleet = ExploreSoak(walk_opts, ScheduleKind::kRandomWalk, /*num_walks=*/2,
                                          /*root_seed=*/2);
    EXPECT_EQ(fleet.violation_found, one.violation_found) << "threads=" << threads;
    EXPECT_EQ(fleet.violations, one.violations) << "threads=" << threads;
    EXPECT_EQ(fleet.fingerprint, one.fingerprint) << "threads=" << threads;
    EXPECT_EQ(fleet.total_deliveries, one.total_deliveries) << "threads=" << threads;
  }
}

// The scaled fig. 1–4 closures replayed with batching on and off: same
// logical traffic, fewer wire messages wherever frames formed.
TEST(ScaleDeterminism, ScaledScenariosLogicalTrafficIdenticalWithBatching) {
  for (size_t nodes : {4u, 16u}) {
    std::vector<ExplorerScenario> off = ScaledScenarios(nodes);
    BatchPolicy policy;
    policy.enabled = true;
    std::vector<ExplorerScenario> on = ScaledScenarios(nodes, policy);
    ASSERT_EQ(off.size(), on.size());
    for (size_t i = 0; i < off.size(); ++i) {
      auto base = off[i].make(7);
      off[i].run(*base);
      auto batched = on[i].make(7);
      on[i].run(*batched);
      EXPECT_EQ(LogicalTraffic(batched->network().stats()),
                LogicalTraffic(base->network().stats()))
          << off[i].name;
      EXPECT_LE(batched->network().stats().wire_messages,
                base->network().stats().wire_messages)
          << off[i].name;
    }
  }
}

}  // namespace
}  // namespace bmx
