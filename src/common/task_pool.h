// Deterministic work-stealing task pool for explorer walk fleets.
//
// In the runtime its one user is Explorer::Explore, which runs a batch of
// independent schedule-exploration walks at a time, one walk per task.  Each
// walk builds and drives its own cluster, so the rule is "one cluster, one
// thread": the GC, reclaim, oracle and DSM code a walk runs is serial and
// never shares state with another thread.  Work inside a collection is not
// sharded — the paper costs the BGC in messages, not cores, and measured
// intra-collection sharding lost at every thread count (EXPERIMENTS.md §P2).
//
// Determinism contract (pinned by tests/integration/determinism_sweep_test.cc
// and documented in DESIGN.md §9):
//   * task bodies draw no RNG and read no wall clock;
//   * task bodies never write shared state — they fill caller-provided
//     per-index slots;
//   * merges happen on the submitting thread, in submission order.
// The process-wide singletons a walk touches — the perf counters and the
// fault injector — are per thread, and workers' counters drain into the
// submitter's at the end of each region.
//
// Thread-count knob: BMX_THREADS (default: hardware concurrency).  With one
// thread the pool never spawns a worker and ParallelFor degenerates to the
// plain serial loop.  Nested regions also run inline on the calling thread.

#ifndef SRC_COMMON_TASK_POOL_H_
#define SRC_COMMON_TASK_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/perf_counters.h"

namespace bmx {

class TaskPool {
 public:
  // Process-global pool, sized from BMX_THREADS (default: hardware
  // concurrency, minimum 1).  Workers are spawned lazily on the first
  // parallel region and joined at process exit.
  static TaskPool& Global();

  // Thread count the environment asked for (BMX_THREADS, else hardware
  // concurrency) — independent of any SetThreadsForTesting override, so a
  // thread-count sweep can restore the default when it finishes.
  static size_t EnvThreads();

  // Reconfigures the global pool (joins existing workers, respawns on next
  // use).  Testing/bench knob: the determinism sweep and bench_p2_parallel
  // run the same workload at several thread counts in one process.  Must not
  // be called while a parallel region is running.
  static void SetThreadsForTesting(size_t threads);

  // True while the calling thread executes a chunk of a multi-threaded
  // parallel region (nested regions use it to run inline).
  static bool InParallelRegion();

  explicit TaskPool(size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  size_t threads() const { return threads_; }

  // Fork-join parallel loop: runs body(i) for every i in [0, n); returns when
  // all iterations finished.  Iterations are grouped into chunks distributed
  // round-robin over per-participant deques; an idle participant steals from
  // the tail of other deques.  Runs inline (exact serial loop) when the pool
  // has one thread, when n < 2, or when called from inside a region (nested).
  //
  // Per-thread perf counters accumulated by workers are merged into the
  // submitting thread's counters before this returns, so counter totals are
  // independent of the thread count.  If a body throws, the exception from
  // the lowest-indexed throwing chunk is rethrown here (deterministic choice)
  // after the region drains.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  // Ordered-merge map: out[i] = fn(i), assembled in submission order
  // regardless of execution order.  R must be default-constructible.
  template <typename R, typename Fn>
  std::vector<R> ParallelMap(size_t n, Fn&& fn) {
    std::vector<R> out(n);
    ParallelFor(n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Chunk {
    size_t begin = 0;
    size_t end = 0;  // exclusive
  };
  struct Shard {
    std::mutex mu;
    std::deque<Chunk> chunks;
  };

  void Start();
  void Stop();
  void WorkerLoop(size_t wid);
  // Drains chunks (own shard first, then stealing) until none remain.
  void RunChunks(size_t home_shard);
  bool NextChunk(size_t home_shard, Chunk* out);

  size_t threads_;
  std::vector<std::thread> workers_;                 // threads_ - 1 entries
  std::vector<std::unique_ptr<Shard>> shards_;       // one per participant

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a new region / stop
  std::condition_variable done_cv_;  // submitter waits for workers to retire
  uint64_t region_gen_ = 0;
  size_t workers_done_ = 0;
  bool stop_ = false;
  bool started_ = false;
  const std::function<void(size_t)>* body_ = nullptr;
  PerfCounters region_perf_;           // workers' counters, drained per region
  std::exception_ptr region_error_;
  size_t region_error_index_ = 0;      // chunk begin of the kept error

  std::mutex submit_mu_;  // one region at a time
};

}  // namespace bmx

#endif  // SRC_COMMON_TASK_POOL_H_
