// P2 — explorer walk fleets on the task pool (DESIGN.md §9, EXPERIMENTS.md
// P2).
//
// The explorer's walk fleet is the pool's only user: the fleet runs as one
// fork-join loop, each walk building and driving its own cluster on one
// thread, and everything inside a walk — GC, reclaim, oracles — runs
// serially.  This sweeps BMX_THREADS over one
// fleet shape: random walks of the fig. 1–4 scenarios under the default
// per-delivery oracle stride (bmx_explore's defaults).
//
// The exploration result must be *identical* at every thread count (the
// determinism sweep pins that); this benchmark measures only the wall-clock
// effect.  On a host with fewer cores than threads the extra rows measure
// oversubscription rather than speedup; see EXPERIMENTS.md for numbers.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "src/common/task_pool.h"
#include "src/runtime/explorer.h"
#include "src/runtime/scenarios.h"

namespace bmx {
namespace {

constexpr size_t kWalksPerScenario = 64;

// One fleet: kWalksPerScenario random walks of each fig. 1–4 scenario.
void P2_ExplorerFleet(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  TaskPool::SetThreadsForTesting(threads);
  std::vector<ExplorerScenario> scenarios = StandardScenarios();
  size_t walks = 0;
  for (auto _ : state) {
    walks = 0;
    for (const ExplorerScenario& scenario : scenarios) {
      ExplorerOptions options;
      options.num_walks = kWalksPerScenario;
      options.schedule = ScheduleKind::kRandomWalk;
      Explorer explorer(options);
      ExplorationResult result = explorer.Explore(scenario);
      benchmark::DoNotOptimize(result);
      walks += result.runs;
    }
  }
  TaskPool::SetThreadsForTesting(TaskPool::EnvThreads());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["walks"] = static_cast<double>(walks);
}
BENCHMARK(P2_ExplorerFleet)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bmx

BMX_BENCHMARK_MAIN();
