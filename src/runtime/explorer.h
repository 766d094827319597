// Schedule-exploration harness.
//
// An ExplorerScenario is a closure over one workload: build a fresh cluster,
// drive it, quiesce.  The Explorer runs the scenario many times under an
// exploratory SchedulerPolicy (one recorded decision trace per walk), checks
// the InvariantOracle's stable core after every delivery (configurable
// stride) and the full invariant set at quiescence, and — on a violation —
// minimizes the recorded trace with a delta-debugging shrink so the failing
// schedule replays from a handful of decisions.
//
// Everything here is deterministic: walk k of root seed S is the same run on
// every machine, and Replay() reproduces a recorded run bit-identically
// (pinned by the replay-determinism tests via NetworkStats::Fingerprint).

#ifndef SRC_RUNTIME_EXPLORER_H_
#define SRC_RUNTIME_EXPLORER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/scheduler.h"
#include "src/runtime/cluster.h"

namespace bmx {

// One explorable workload.  `make` builds a fresh cluster seeded from the
// explorer's root seed; `run` drives the workload (synchronous acquires pump
// the network internally, so deliveries — and invariant checks — happen
// throughout).  `run` must tolerate exploratory schedules: an acquire that
// fails under an adversarial interleaving is skipped, not fatal.
struct ExplorerScenario {
  std::string name;
  std::function<std::unique_ptr<Cluster>(uint64_t root_seed)> make;
  std::function<void(Cluster&)> run;
};

enum class ScheduleKind : uint8_t { kFifo, kRandomWalk, kDelayBounded };

struct ExplorerOptions {
  uint64_t root_seed = 1;
  // Walks per scenario; walk k uses DeriveStreamSeed(root_seed + k,
  // kScheduler) so the sequence is reproducible from the root seed alone.
  size_t num_walks = 16;
  ScheduleKind schedule = ScheduleKind::kRandomWalk;
  uint64_t delay_bound = 4;     // kDelayBounded only
  // kRandomWalk only.  Sparse deviations (well below 1.0) keep recorded
  // traces short, which is what lets the shrinker reduce a failing schedule
  // to a handful of decisions.
  double deviation_rate = 0.3;
  // Run the oracle's stable core every `oracle_stride` deliveries; 0 checks
  // only at quiescence (cheaper, but the shrinker loses the early violation
  // index that tail truncation feeds on).
  uint64_t oracle_stride = 1;
  // Wall-clock budget: no walk starts after this many seconds (0 = no
  // limit), except walk 0, which always runs.  Walks already started finish.
  double budget_seconds = 0.0;
  // Upper bound on scenario executions one Shrink() may spend.
  size_t max_shrink_runs = 400;
  // Record per-node client histories (Cluster::EnableHistoryRecording) and
  // run the ConsistencyChecker at quiescence; its violations join the
  // oracle's, prefixed "consistency: ".  Recording is observation-only, so
  // fingerprints — and therefore shrinking and replay — are unaffected.
  bool check_consistency = false;
  // Enable the obligation tracker on the cluster's network and run the
  // LivenessOracle: a windowed no-progress probe after every delivery and a
  // full stalled-obligation check at quiescence; its verdicts join the
  // oracle's, prefixed "liveness: ".  Tracking is observation-only (the
  // tracker never touches the network), so fingerprints — and therefore
  // shrinking and replay — are unaffected.
  bool check_liveness = false;
  // When non-empty, the shrunk trace of a violating walk is written here as
  // "<scenario>-violation.trace".
  std::string trace_dir;
};

// Outcome of a single (re)run of a scenario.
struct RunResult {
  bool violated = false;
  // Mid-run violations are prefixed "mid-run: "; the rest came from the full
  // quiescence check.
  std::vector<std::string> violations;
  // Decision-stream position when the first violation was detected (the
  // stream length of the whole run if none / quiescence-only).  Decisions at
  // or beyond this index cannot have caused the violation — the shrinker's
  // tail truncation rests on that.
  uint64_t first_violation_index = 0;
  uint64_t deliveries = 0;
  std::string fingerprint;  // NetworkStats::Fingerprint() at end of run
};

struct ExplorationResult {
  bool violation_found = false;
  uint64_t violating_walk_seed = 0;
  std::vector<std::string> violations;
  std::string fingerprint;  // violating run's (last clean run's otherwise)
  Trace trace;              // as recorded from the violating walk
  Trace shrunk;             // minimized; equals `trace` if shrinking failed
  std::string trace_path;   // where the shrunk trace was written ("" if not)
  size_t runs = 0;          // scenario executions spent, shrinking included
  uint64_t total_deliveries = 0;
};

class Explorer {
 public:
  explicit Explorer(const ExplorerOptions& options) : options_(options) {}

  // Runs up to num_walks recorded walks of the scenario, stopping at the
  // first violation (which is then shrunk and, if trace_dir is set, written
  // to disk).  A kFifo schedule degenerates to one deterministic walk.
  ExplorationResult Explore(const ExplorerScenario& scenario);

  // Replays a trace against a fresh instance of the scenario.  Bit-identical
  // to the recorded run when the trace is untouched; still deterministic
  // (defaults fill the gaps) when it has been truncated or edited.
  RunResult Replay(const ExplorerScenario& scenario, const Trace& trace);

  // Delta-debugging minimization of a violating trace: tail-truncate at the
  // first violation's decision index, then greedily drop single decisions
  // (newest first) re-replaying after each, to fixpoint or until
  // max_shrink_runs executions.  Returns the input unchanged if it does not
  // reproduce a violation.
  Trace Shrink(const ExplorerScenario& scenario, const Trace& trace,
               size_t* runs_used = nullptr);

 private:
  // Shared engine: one scenario execution, recording (replay == nullptr) or
  // replaying.  `stride` overrides options_.oracle_stride.
  RunResult RunOnce(const ExplorerScenario& scenario, uint64_t walk_seed,
                    const Trace* replay, Trace* recorded, uint64_t stride);

  ExplorerOptions options_;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_EXPLORER_H_
