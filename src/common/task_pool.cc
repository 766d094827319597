#include "src/common/task_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "src/common/check.h"

namespace bmx {

namespace {

// Participant state, thread-local so nested ParallelFor calls (an explorer
// started from inside a pool task) detect they are already inside a region
// and run inline.
thread_local bool tl_in_region = false;

size_t ParseThreads() {
  const char* env = std::getenv("BMX_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1 && v <= 256) {
      return static_cast<size_t>(v);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

TaskPool*& GlobalSlot() {
  static TaskPool* pool = new TaskPool(ParseThreads());
  return pool;
}

}  // namespace

TaskPool& TaskPool::Global() { return *GlobalSlot(); }

size_t TaskPool::EnvThreads() { return ParseThreads(); }

void TaskPool::SetThreadsForTesting(size_t threads) {
  BMX_CHECK_GE(threads, 1u);
  TaskPool*& slot = GlobalSlot();
  if (slot->threads() == threads) {
    return;
  }
  delete slot;  // joins workers
  slot = new TaskPool(threads);
}

bool TaskPool::InParallelRegion() { return tl_in_region; }

TaskPool::TaskPool(size_t threads) : threads_(std::max<size_t>(1, threads)) {}

TaskPool::~TaskPool() { Stop(); }

void TaskPool::Start() {
  if (started_ || threads_ == 1) {
    return;
  }
  shards_.clear();
  for (size_t i = 0; i < threads_; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  started_ = true;
}

void TaskPool::Stop() {
  if (!started_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
  workers_.clear();
  shards_.clear();
  stop_ = false;
  started_ = false;
}

void TaskPool::WorkerLoop(size_t wid) {
  uint64_t seen_gen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || region_gen_ != seen_gen; });
      if (stop_) {
        return;
      }
      seen_gen = region_gen_;
    }
    tl_in_region = true;
    RunChunks(wid);
    tl_in_region = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Drain this worker's thread-local counters into the region aggregate;
      // the submitter folds the aggregate into its own counters, so totals
      // are independent of which thread did the counting.
      region_perf_.Add(GlobalPerfCounters());
      GlobalPerfCounters().Reset();
      workers_done_++;
    }
    done_cv_.notify_one();
  }
}

bool TaskPool::NextChunk(size_t home_shard, Chunk* out) {
  {
    Shard& own = *shards_[home_shard];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.chunks.empty()) {
      *out = own.chunks.front();
      own.chunks.pop_front();
      return true;
    }
  }
  // Steal from the tail of other shards, scanning round-robin from the
  // neighbour.  Which victim wins is schedule-dependent; results are not —
  // every chunk writes only per-index slots.
  for (size_t d = 1; d < shards_.size(); ++d) {
    Shard& victim = *shards_[(home_shard + d) % shards_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.chunks.empty()) {
      *out = victim.chunks.back();
      victim.chunks.pop_back();
      GlobalPerfCounters().pool_steals++;
      return true;
    }
  }
  return false;
}

void TaskPool::RunChunks(size_t home_shard) {
  Chunk chunk;
  while (NextChunk(home_shard, &chunk)) {
    GlobalPerfCounters().pool_chunks_executed++;
    try {
      for (size_t i = chunk.begin; i < chunk.end; ++i) {
        (*body_)(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      // Keep the error of the lowest-indexed throwing chunk so the exception
      // the submitter sees does not depend on the steal schedule.
      if (region_error_ == nullptr || chunk.begin < region_error_index_) {
        region_error_ = std::current_exception();
        region_error_index_ = chunk.begin;
      }
    }
  }
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (threads_ == 1 || n == 1 || tl_in_region) {
    // Exact legacy serial path (also the nested-region path): no pool
    // machinery, no flag flips, no counter shuffling.
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  Start();
  GlobalPerfCounters().pool_regions++;

  // Chunking: a few chunks per participant so stealing can balance, but
  // coarse enough that per-chunk overhead stays negligible.
  size_t participants = threads_;
  size_t target_chunks = std::min(n, participants * 4);
  size_t chunk_size = (n + target_chunks - 1) / target_chunks;
  size_t shard = 0;
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    Chunk c{begin, std::min(n, begin + chunk_size)};
    Shard& s = *shards_[shard % shards_.size()];
    std::lock_guard<std::mutex> lock(s.mu);
    s.chunks.push_back(c);
    shard++;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    workers_done_ = 0;
    region_perf_.Reset();
    region_error_ = nullptr;
    region_error_index_ = 0;
    region_gen_++;
  }
  work_cv_.notify_all();

  // The submitter participates with its own shard (the last one).
  tl_in_region = true;
  RunChunks(threads_ - 1);
  tl_in_region = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_done_ == workers_.size(); });
    body_ = nullptr;
    GlobalPerfCounters().Add(region_perf_);
    error = region_error_;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace bmx
