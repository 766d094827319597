// Liveness oracle tests: the obligation ledger's bookkeeping, the planted
// zombie-grant livelock caught end-to-end through the Explorer (found,
// shrunk, replayed at multiple thread counts), and clean scenarios staying
// clean with liveness checking on — including under gray-failure profiles
// with latency and loss (the excuse rules must not false-positive on slow).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/obligations.h"
#include "src/common/task_pool.h"
#include "src/net/gray_failure.h"
#include "src/runtime/liveness.h"
#include "src/runtime/scenarios.h"

namespace bmx {
namespace {

// Restores the pool thread count on scope exit (mirrors task_pool_test.cc).
struct PoolGuard {
  ~PoolGuard() { TaskPool::SetThreadsForTesting(TaskPool::EnvThreads()); }
};

bool AnyLivenessViolation(const std::vector<std::string>& violations) {
  for (const std::string& v : violations) {
    if (v.find("liveness: ") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// --- ObligationTracker ledger basics ---

TEST(ObligationTracker, DisabledFastPathRecordsNothing) {
  ObligationTracker tracker;
  tracker.Open(ObligationKind::kAcquire, 1, 0);
  EXPECT_EQ(tracker.OpenCount(), 0u);
  EXPECT_FALSE(tracker.IsOpen(ObligationKind::kAcquire, 1, 0));
  tracker.Close(ObligationKind::kAcquire, 1, 0);
  EXPECT_EQ(tracker.retired(), 0u);
}

TEST(ObligationTracker, OpenCloseRetiresAndIsIdempotent) {
  uint64_t clock = 5;
  ObligationTracker tracker;
  tracker.AttachClock(&clock);
  tracker.Enable(/*deadline_ticks=*/100);
  tracker.Open(ObligationKind::kInvalidation, 2, 77);
  clock = 9;
  // Re-open keeps the original opened_at: the oldest promise is the one
  // whose age matters.
  tracker.Open(ObligationKind::kInvalidation, 2, 77);
  ASSERT_EQ(tracker.OpenCount(), 1u);
  std::vector<Obligation> open = tracker.Snapshot();
  EXPECT_EQ(open[0].opened_at, 5u);
  EXPECT_EQ(open[0].deadline, 105u);
  tracker.Close(ObligationKind::kInvalidation, 2, 77);
  EXPECT_EQ(tracker.OpenCount(), 0u);
  EXPECT_EQ(tracker.retired(), 1u);
  // Closing an absent obligation is a no-op, not progress.
  tracker.Close(ObligationKind::kInvalidation, 2, 77);
  EXPECT_EQ(tracker.retired(), 1u);
}

TEST(ObligationTracker, DropNodeRetiresWithoutCountingProgress) {
  uint64_t clock = 0;
  ObligationTracker tracker;
  tracker.AttachClock(&clock);
  tracker.Enable();
  tracker.Open(ObligationKind::kAcquire, 1, 0);
  tracker.Open(ObligationKind::kGcReclaim, 1, 3);
  tracker.Open(ObligationKind::kAcquire, 2, 0);
  tracker.DropNode(1);
  EXPECT_EQ(tracker.OpenCount(), 1u);
  EXPECT_TRUE(tracker.IsOpen(ObligationKind::kAcquire, 2, 0));
  EXPECT_EQ(tracker.retired(), 0u);
}

TEST(ObligationTracker, SnapshotAndDumpAreDeterministic) {
  uint64_t clock = 1;
  ObligationTracker tracker;
  tracker.AttachClock(&clock);
  tracker.Enable();
  tracker.Open(ObligationKind::kRecovery, 2, 0);
  tracker.Open(ObligationKind::kAcquire, 1, 0);
  std::vector<Obligation> open = tracker.Snapshot();
  ASSERT_EQ(open.size(), 2u);
  EXPECT_EQ(open[0].kind, ObligationKind::kAcquire);
  EXPECT_EQ(open[1].kind, ObligationKind::kRecovery);
  std::string dump = tracker.Dump();
  EXPECT_NE(dump.find("kind=acquire node=1"), std::string::npos);
  EXPECT_NE(dump.find("kind=recovery node=2"), std::string::npos);
}

// --- The planted livelock, end to end through the explorer ---

// Under plain FIFO the zombie-swallowed grant leaves an inexcusable acquire
// obligation open at quiescence; only the liveness oracle can see it (the
// invariant oracle and the consistency checker are silent on this run).
TEST(LivenessExplorer, ZombieCanaryCaughtUnderFifo) {
  ExplorerOptions options;
  options.schedule = ScheduleKind::kFifo;
  options.check_liveness = true;
  Explorer explorer(options);
  ExplorationResult result = explorer.Explore(ZombieGrantCanaryScenario());
  ASSERT_TRUE(result.violation_found);
  EXPECT_TRUE(AnyLivenessViolation(result.violations))
      << (result.violations.empty() ? "" : result.violations[0]);
  // The verdict names the stuck obligation and carries the ledger dump.
  EXPECT_NE(result.violations[0].find("kind=acquire"), std::string::npos);
  EXPECT_NE(result.violations[0].find("ledger:"), std::string::npos);
}

// Without liveness checking the same run is silent — the livelock is
// invisible to the safety oracles.
TEST(LivenessExplorer, ZombieCanaryInvisibleWithoutLivenessChecking) {
  ExplorerOptions options;
  options.schedule = ScheduleKind::kFifo;
  Explorer explorer(options);
  ExplorationResult result = explorer.Explore(ZombieGrantCanaryScenario());
  EXPECT_FALSE(result.violation_found)
      << (result.violations.empty() ? "" : result.violations[0]);
}

// Explorer pipeline end to end under random walks: found, shrunk, and the
// shrunk trace replays to the same verdict at 1 and 4 pool threads.
TEST(LivenessExplorer, ZombieCanaryShrinksAndReplaysAcrossThreadCounts) {
  PoolGuard guard;
  ExplorerOptions options;
  options.schedule = ScheduleKind::kRandomWalk;
  options.num_walks = 8;
  options.check_liveness = true;
  Explorer explorer(options);
  ExplorationResult result = explorer.Explore(ZombieGrantCanaryScenario());
  ASSERT_TRUE(result.violation_found);
  EXPECT_TRUE(AnyLivenessViolation(result.violations));
  // Schedule-independent livelock: shrinking strips every recorded deviation.
  EXPECT_TRUE(result.shrunk.decisions.empty())
      << result.shrunk.decisions.size() << " decisions survived shrinking";
  for (size_t threads : {1u, 4u}) {
    TaskPool::SetThreadsForTesting(threads);
    RunResult replay = explorer.Replay(ZombieGrantCanaryScenario(), result.shrunk);
    EXPECT_TRUE(replay.violated) << "threads=" << threads;
    EXPECT_TRUE(AnyLivenessViolation(replay.violations)) << "threads=" << threads;
  }
}

// --- No false positives ---

// fig1-4 and the randomized workload, explored with liveness checking on,
// must stay clean: every obligation is discharged or excused.
TEST(LivenessExplorer, CleanScenariosStayClean) {
  std::vector<ExplorerScenario> scenarios = StandardScenarios();
  scenarios.push_back(HistoryWorkloadScenario());
  for (const ExplorerScenario& scenario : scenarios) {
    ExplorerOptions options;
    options.schedule = ScheduleKind::kRandomWalk;
    options.num_walks = 6;
    options.check_liveness = true;
    Explorer explorer(options);
    ExplorationResult result = explorer.Explore(scenario);
    EXPECT_FALSE(result.violation_found)
        << scenario.name << ": "
        << (result.violations.empty() ? "" : result.violations[0]);
  }
}

// Gray-degraded but not gray-failed: latency and loss slow the run down
// (retransmissions, delayed grants) without killing progress, so liveness
// verdicts would be false positives.
TEST(LivenessExplorer, CleanUnderGrayLatencyAndLoss) {
  GraySpec gray;
  std::string error;
  ASSERT_TRUE(GraySpec::Parse("0->1:lat=3,loss=0.2;1->0:lat=2;2->0:dup=0.25",
                              &gray, &error))
      << error;
  std::vector<ExplorerScenario> scenarios = StandardScenarios();
  scenarios.push_back(HistoryWorkloadScenario());
  for (ExplorerScenario& scenario : scenarios) {
    auto inner = scenario.run;
    scenario.run = [inner, gray](Cluster& c) {
      gray.Apply(&c.network());
      inner(c);
    };
    ExplorerOptions options;
    options.schedule = ScheduleKind::kRandomWalk;
    options.num_walks = 4;
    options.check_liveness = true;
    Explorer explorer(options);
    ExplorationResult result = explorer.Explore(scenario);
    EXPECT_FALSE(result.violation_found)
        << scenario.name << ": "
        << (result.violations.empty() ? "" : result.violations[0]);
  }
}

}  // namespace
}  // namespace bmx
