// End-to-end tests for the schedule-exploration harness: replay determinism,
// clean standard scenarios, and the full find→record→shrink→replay pipeline
// against the planted canary ordering bug.

#include "src/runtime/explorer.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/task_pool.h"
#include "src/runtime/oracle.h"
#include "src/runtime/scenarios.h"

namespace bmx {
namespace {

// Restores the pool to the environment's thread count when a test ends.
struct PoolGuard {
  ~PoolGuard() { TaskPool::SetThreadsForTesting(TaskPool::EnvThreads()); }
};

// Record a random-walk run of a standard scenario, then replay its trace on a
// fresh cluster: the traffic fingerprint (per-kind sent/delivered/losses/
// bytes/wire bytes) must be bit-identical.
TEST(Explorer, ReplayReproducesRecordedWalkBitIdentically) {
  ExplorerScenario scenario = StandardScenarios()[2];  // fig3-invalidate-fanout

  std::unique_ptr<Cluster> recorded_cluster = scenario.make(1);
  Network& rec_net = recorded_cluster->network();
  rec_net.set_scheduler(std::make_unique<RandomWalkScheduler>(42));
  rec_net.StartRecording();
  scenario.run(*recorded_cluster);
  recorded_cluster->Pump();
  std::string recorded_fp = rec_net.stats().Fingerprint();
  Trace trace = rec_net.TakeRecordedTrace();
  trace.scenario = scenario.name;
  EXPECT_GT(trace.total_decisions, 0u);

  std::unique_ptr<Cluster> replay_cluster = scenario.make(1);
  Network& rep_net = replay_cluster->network();
  rep_net.ReplayFrom(trace);
  scenario.run(*replay_cluster);
  replay_cluster->Pump();

  EXPECT_EQ(recorded_fp, rep_net.stats().Fingerprint());
}

// Every fig. 1–4 closure stays invariant-clean under exploratory schedules —
// the correctness of the protocol does not depend on FIFO delivery.
TEST(Explorer, StandardScenariosAreClean) {
  ExplorerOptions options;
  options.root_seed = 7;
  options.num_walks = 6;
  options.schedule = ScheduleKind::kRandomWalk;
  options.oracle_stride = 2;
  Explorer explorer(options);
  for (const ExplorerScenario& scenario : StandardScenarios()) {
    ExplorationResult result = explorer.Explore(scenario);
    EXPECT_FALSE(result.violation_found)
        << scenario.name << " violated: "
        << (result.violations.empty() ? "" : result.violations.front());
    EXPECT_GT(result.total_deliveries, 0u) << scenario.name << " delivered nothing";
  }
}

TEST(Explorer, StandardScenariosCleanUnderDelayBoundedToo) {
  ExplorerOptions options;
  options.root_seed = 11;
  options.num_walks = 4;
  options.schedule = ScheduleKind::kDelayBounded;
  options.delay_bound = 3;
  options.oracle_stride = 4;
  Explorer explorer(options);
  for (const ExplorerScenario& scenario : StandardScenarios()) {
    ExplorationResult result = explorer.Explore(scenario);
    EXPECT_FALSE(result.violation_found) << scenario.name;
  }
}

// The FIFO schedule is exactly the historical order, under which the canary
// is unreachable: acks converge src-ascending and nothing fires.
TEST(Explorer, CanaryIsSilentUnderFifo) {
  ExplorerOptions options;
  options.schedule = ScheduleKind::kFifo;
  Explorer explorer(options);
  ExplorationResult result = explorer.Explore(CanaryReorderScenario());
  EXPECT_FALSE(result.violation_found);
  EXPECT_EQ(result.runs, 1u) << "FIFO has one schedule; extra walks are pointless";
}

// The pipeline test the harness exists for: the explorer finds the planted
// ordering bug, the recorded trace replays it bit-identically, and the shrunk
// trace still reproduces it with at most 12 decisions.
TEST(Explorer, FindsShrinksAndReplaysTheCanary) {
  ExplorerOptions options;
  options.root_seed = 1;
  options.num_walks = 64;
  options.schedule = ScheduleKind::kRandomWalk;
  options.deviation_rate = 0.3;
  options.oracle_stride = 1;
  options.trace_dir = ::testing::TempDir();
  Explorer explorer(options);

  ExplorerScenario scenario = CanaryReorderScenario();
  ExplorationResult result = explorer.Explore(scenario);
  ASSERT_TRUE(result.violation_found) << "explorer failed to find the planted bug";
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations.front().find("owner"), std::string::npos)
      << "expected a token-uniqueness violation, got: " << result.violations.front();

  // The untouched trace replays the violating run bit-identically.
  RunResult full = explorer.Replay(scenario, result.trace);
  EXPECT_TRUE(full.violated);
  EXPECT_EQ(full.fingerprint, result.fingerprint);

  // The shrunk trace is tiny and still reproduces the violation.
  EXPECT_LE(result.shrunk.decisions.size(), 12u)
      << "shrunk trace kept " << result.shrunk.decisions.size() << " decisions";
  RunResult shrunk = explorer.Replay(scenario, result.shrunk);
  EXPECT_TRUE(shrunk.violated);

  // The violation trace landed on disk and parses back to the shrunk trace.
  ASSERT_FALSE(result.trace_path.empty());
  Trace from_disk;
  ASSERT_TRUE(Trace::ReadFile(result.trace_path, &from_disk));
  EXPECT_EQ(from_disk.decisions.size(), result.shrunk.decisions.size());
  EXPECT_EQ(from_disk.scenario, scenario.name);
  RunResult from_disk_replay = explorer.Replay(scenario, from_disk);
  EXPECT_TRUE(from_disk_replay.violated);
}

// Quiescence-only checking still catches the canary (the corruption is
// persistent), it just cannot narrow the violation index as tightly.
TEST(Explorer, QuiescenceOnlyStrideStillFindsPersistentViolations) {
  ExplorerOptions options;
  options.root_seed = 3;
  options.num_walks = 64;
  options.schedule = ScheduleKind::kRandomWalk;
  options.deviation_rate = 0.3;
  options.oracle_stride = 0;
  Explorer explorer(options);
  ExplorationResult result = explorer.Explore(CanaryReorderScenario());
  EXPECT_TRUE(result.violation_found);
}

// The wall-clock budget gates each walk's start, not a batch of walks: with
// a budget spent before any walk begins, only walk 0 runs, at every thread
// count.
TEST(Explorer, BudgetGatesEveryWalkButTheFirst) {
  PoolGuard guard;
  ExplorerOptions options;
  options.root_seed = 5;
  options.num_walks = 64;
  options.schedule = ScheduleKind::kRandomWalk;
  options.budget_seconds = 1e-9;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    TaskPool::SetThreadsForTesting(threads);
    ExplorationResult result = Explorer(options).Explore(StandardScenarios()[0]);
    EXPECT_FALSE(result.violation_found) << "threads=" << threads;
    EXPECT_EQ(result.runs, 1u) << "threads=" << threads;
    EXPECT_GT(result.total_deliveries, 0u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace bmx
