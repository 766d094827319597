// Deterministic fork-join loop for explorer walk fleets.
//
// In the runtime its one user is Explorer::Explore, which runs its whole
// fleet of independent schedule-exploration walks as one ParallelFor, one
// walk per index.  Each walk builds and drives its own cluster, so the rule
// is "one cluster, one thread": the GC, reclaim, oracle and DSM code a walk
// runs is serial and never shares state with another thread.  Work inside a
// collection is not sharded — the paper costs the BGC in messages, not
// cores, and measured intra-collection sharding lost at every thread count
// (EXPERIMENTS.md §P2).
//
// Determinism contract (pinned by tests/integration/determinism_sweep_test.cc
// and documented in DESIGN.md §9):
//   * loop bodies draw no RNG and read no wall clock;
//   * loop bodies never write shared state — they fill caller-provided
//     per-index slots;
//   * merges happen on the calling thread, in index order.
// The process-wide singletons a walk touches — the perf counters and the
// fault injector — are per thread, and each helper's counters are added to
// the caller's before ParallelFor returns.
//
// Thread-count knob: BMX_THREADS (default: hardware concurrency).  With one
// thread ParallelFor starts no thread and is the plain serial loop.  Nested
// calls also run inline on the calling thread.

#ifndef SRC_COMMON_TASK_POOL_H_
#define SRC_COMMON_TASK_POOL_H_

#include <cstddef>
#include <functional>

namespace bmx {

class TaskPool {
 public:
  // Process-global pool, sized from BMX_THREADS (default: hardware
  // concurrency, minimum 1).
  static TaskPool& Global();

  // Thread count the environment asked for (BMX_THREADS, else hardware
  // concurrency) — independent of any SetThreadsForTesting override, so a
  // thread-count sweep can restore the default when it finishes.
  static size_t EnvThreads();

  // Sets the global pool's thread count.  Testing/bench knob: the
  // determinism sweep and bench_p2_parallel run the same workload at several
  // thread counts in one process.  Must not be called during a ParallelFor.
  static void SetThreadsForTesting(size_t threads);

  // True while the calling thread runs a body of a multi-threaded
  // ParallelFor (nested calls use it to run inline).
  static bool InParallelRegion();

  size_t threads() const { return threads_; }

  // Fork-join loop: runs body(i) for every i in [0, n) and returns when all
  // have run.  The caller and up to threads() - 1 helper threads started for
  // this call each take the next unclaimed index until none is left.  Runs
  // inline (the exact serial loop) when the pool has one thread, when
  // n < 2, or when called from inside a body (nested).
  //
  // Helpers' perf counters are added to the caller's before this returns,
  // so counter totals are independent of the thread count.  Every index
  // runs even after a body throws; the exception of the lowest throwing
  // index is then rethrown here.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  explicit TaskPool(size_t threads) : threads_(threads) {}

  size_t threads_;
};

}  // namespace bmx

#endif  // SRC_COMMON_TASK_POOL_H_
