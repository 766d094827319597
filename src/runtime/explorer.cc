#include "src/runtime/explorer.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/common/task_pool.h"
#include "src/runtime/consistency_checker.h"
#include "src/runtime/liveness.h"
#include "src/runtime/oracle.h"

namespace bmx {

RunResult Explorer::RunOnce(const ExplorerScenario& scenario, uint64_t walk_seed,
                            const Trace* replay, Trace* recorded, uint64_t stride) {
  RunResult result;
  std::unique_ptr<Cluster> cluster = scenario.make(options_.root_seed);
  BMX_CHECK(cluster != nullptr) << "scenario " << scenario.name << " produced no cluster";
  if (options_.check_consistency) {
    cluster->EnableHistoryRecording();
  }
  Network& net = cluster->network();
  if (replay == nullptr) {
    switch (options_.schedule) {
      case ScheduleKind::kFifo:
        net.set_scheduler(std::make_unique<FifoScheduler>());
        break;
      case ScheduleKind::kRandomWalk:
        net.set_scheduler(
            std::make_unique<RandomWalkScheduler>(walk_seed, options_.deviation_rate));
        break;
      case ScheduleKind::kDelayBounded:
        net.set_scheduler(
            std::make_unique<DelayBoundedScheduler>(walk_seed, options_.delay_bound));
        break;
    }
    net.StartRecording();
  } else {
    net.ReplayFrom(*replay);
  }

  InvariantOracle oracle(cluster.get());
  std::unique_ptr<LivenessOracle> liveness;
  if (options_.check_liveness) {
    liveness = std::make_unique<LivenessOracle>(cluster.get());
  }
  bool mid_run_violation = false;
  net.set_delivery_observer([&](const Message&) {
    result.deliveries++;
    if (liveness != nullptr && !mid_run_violation) {
      std::vector<std::string> stalls = liveness->OnDelivery();
      if (!stalls.empty()) {
        mid_run_violation = true;
        result.first_violation_index = net.decisions().next_index();
        for (std::string& v : stalls) {
          result.violations.push_back("mid-run liveness: " + std::move(v));
        }
        return;
      }
    }
    if (mid_run_violation || stride == 0 || result.deliveries % stride != 0) {
      return;
    }
    std::vector<std::string> found = oracle.CheckStable();
    if (!found.empty()) {
      mid_run_violation = true;
      // Everything decided so far has index < next_index(); later decisions
      // cannot have contributed to this violation.
      result.first_violation_index = net.decisions().next_index();
      for (std::string& v : found) {
        result.violations.push_back("mid-run: " + std::move(v));
      }
    }
  });

  scenario.run(*cluster);
  cluster->Pump();
  for (std::string& v : oracle.Check()) {
    result.violations.push_back(std::move(v));
  }
  if (options_.check_consistency && cluster->history() != nullptr) {
    ConsistencyChecker checker(cluster->history(), &cluster->directory());
    for (std::string& v : checker.Check()) {
      result.violations.push_back("consistency: " + std::move(v));
    }
  }
  if (liveness != nullptr) {
    for (std::string& v : liveness->CheckAtQuiescence()) {
      result.violations.push_back("liveness: " + std::move(v));
    }
  }
  result.violated = !result.violations.empty();
  if (!mid_run_violation) {
    result.first_violation_index = net.decisions().next_index();
  }
  result.fingerprint = net.stats().Fingerprint();
  if (recorded != nullptr && replay == nullptr) {
    *recorded = net.TakeRecordedTrace();
    recorded->scenario = scenario.name;
    recorded->walk_seed = walk_seed;
  }
  net.set_delivery_observer(nullptr);
  return result;
}

ExplorationResult Explorer::Explore(const ExplorerScenario& scenario) {
  // Walk fleet: one ParallelFor over every walk, each walk building and
  // driving its own cluster on one thread (the per-thread fault injector and
  // perf counters make that confinement sound).  This is the task pool's
  // only user; everything a walk runs — GC, reclaim, oracles — is serial on
  // that one thread, so a walk's result never depends on the thread count.
  // A walk above the lowest violating walk found so far does not start, nor
  // does any walk but walk 0 once the wall-clock budget is spent.  Results
  // fold in walk order up to the first walk that did not run and stop at the
  // first violating walk, so runs, total_deliveries, fingerprint and the
  // violating seed match a one-thread run bit for bit.
  const auto start = std::chrono::steady_clock::now();
  const size_t walks = options_.schedule == ScheduleKind::kFifo
                           ? 1  // FIFO has exactly one schedule; extra walks repeat it
                           : options_.num_walks;
  auto walk_seed = [&](size_t k) {
    return DeriveStreamSeed(options_.root_seed + k, RngStream::kScheduler);
  };
  struct WalkOutcome {
    bool ran = false;
    RunResult run;
    Trace recorded;  // kept only for a violating walk
  };
  std::vector<WalkOutcome> outcomes(walks);
  std::atomic<size_t> lowest_violation{walks};
  TaskPool::Global().ParallelFor(walks, [&](size_t k) {
    if (k > lowest_violation.load()) {
      return;
    }
    if (k > 0 && options_.budget_seconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() >=
            options_.budget_seconds) {
      return;
    }
    WalkOutcome& outcome = outcomes[k];
    Trace recorded;
    outcome.run = RunOnce(scenario, walk_seed(k), nullptr, &recorded, options_.oracle_stride);
    outcome.ran = true;
    if (outcome.run.violated) {
      outcome.recorded = std::move(recorded);
      size_t lowest = lowest_violation.load();
      while (k < lowest && !lowest_violation.compare_exchange_weak(lowest, k)) {
      }
    }
  });

  ExplorationResult out;
  for (size_t k = 0; k < walks && outcomes[k].ran; ++k) {
    const RunResult& run = outcomes[k].run;
    out.runs++;
    out.total_deliveries += run.deliveries;
    out.fingerprint = run.fingerprint;
    if (!run.violated) {
      continue;
    }
    out.violation_found = true;
    out.violating_walk_seed = walk_seed(k);
    out.violations = run.violations;
    out.trace = std::move(outcomes[k].recorded);
    size_t shrink_runs = 0;
    out.shrunk = Shrink(scenario, out.trace, &shrink_runs);
    out.runs += shrink_runs;
    if (!options_.trace_dir.empty()) {
      out.trace_path = options_.trace_dir + "/" + scenario.name + "-violation.trace";
      out.shrunk.WriteFile(out.trace_path);
    }
    break;
  }
  return out;
}

RunResult Explorer::Replay(const ExplorerScenario& scenario, const Trace& trace) {
  return RunOnce(scenario, trace.walk_seed, &trace, nullptr, options_.oracle_stride);
}

Trace Explorer::Shrink(const ExplorerScenario& scenario, const Trace& trace,
                       size_t* runs_used) {
  size_t runs = 0;
  Trace best = trace;
  // Shrinking needs the earliest violation position, so every replay here
  // checks the stable core at stride 1 regardless of the configured stride.
  RunResult base = RunOnce(scenario, 0, &best, nullptr, 1);
  runs++;
  if (base.violated) {
    // Tail truncation: decisions at or past the first-violation index were
    // resolved after the violation existed and cannot have caused it.
    Trace truncated = best;
    truncated.decisions.clear();
    for (const Decision& d : best.decisions) {
      if (d.index < base.first_violation_index) {
        truncated.decisions.push_back(d);
      }
    }
    truncated.total_decisions = base.first_violation_index;
    if (truncated.decisions.size() < best.decisions.size()) {
      RunResult check = RunOnce(scenario, 0, &truncated, nullptr, 1);
      runs++;
      if (check.violated) {
        best = std::move(truncated);
      }
    } else {
      best.total_decisions = truncated.total_decisions;
    }
    // Greedy single-decision removal, newest first (late deviations are the
    // most likely to be incidental), repeated to fixpoint.
    bool changed = true;
    while (changed && runs < options_.max_shrink_runs) {
      changed = false;
      for (size_t i = best.decisions.size(); i-- > 0;) {
        if (runs >= options_.max_shrink_runs) {
          break;
        }
        Trace candidate = best;
        candidate.decisions.erase(candidate.decisions.begin() +
                                  static_cast<std::ptrdiff_t>(i));
        RunResult attempt = RunOnce(scenario, 0, &candidate, nullptr, 1);
        runs++;
        if (attempt.violated) {
          best = std::move(candidate);
          changed = true;
        }
      }
    }
  }
  if (runs_used != nullptr) {
    *runs_used = runs;
  }
  return best;
}

}  // namespace bmx
