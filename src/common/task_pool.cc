#include "src/common/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/perf_counters.h"

namespace bmx {

namespace {

// Participant state, thread-local so nested ParallelFor calls (an explorer
// started from inside a loop body) detect they are already inside one and
// run inline.
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

}  // namespace

TaskPool& TaskPool::Global() {
  static TaskPool pool(ParseThreads());
  return pool;
}

size_t TaskPool::EnvThreads() { return ParseThreads(); }

void TaskPool::SetThreadsForTesting(size_t threads) {
  BMX_CHECK_GE(threads, 1u);
  Global().threads_ = threads;
}

bool TaskPool::InParallelRegion() { return tl_in_region; }

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (threads_ == 1 || n < 2 || tl_in_region) {
    // The exact serial loop (also the nested path): no thread, no flag, no
    // counter shuffling.
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  const size_t participants = std::min(threads_, n);
  const size_t even_share = (n + participants - 1) / participants;
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  size_t error_index = 0;
  auto participate = [&] {
    tl_in_region = true;
    size_t ran = 0;
    for (size_t i = next++; i < n; i = next++) {
      ran++;
      try {
        body(i);
      } catch (...) {
        // Keep the lowest throwing index's error, so the exception the
        // caller sees does not depend on which thread ran which index.
        std::lock_guard<std::mutex> lock(error_mu);
        if (error == nullptr || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
    tl_in_region = false;
    PerfCounters& perf = GlobalPerfCounters();
    perf.pool_chunks_executed += ran;
    perf.pool_steals += ran > even_share ? ran - even_share : 0;
  };

  // Each helper leaves a copy of its thread-local counters here before it
  // exits; the caller adds them to its own once every helper has joined.
  std::vector<PerfCounters> helper_perf(participants - 1);
  std::vector<std::thread> helpers;
  helpers.reserve(helper_perf.size());
  for (size_t h = 0; h < helper_perf.size(); ++h) {
    try {
      helpers.emplace_back([&, h] {
        participate();
        helper_perf[h] = GlobalPerfCounters();
      });
    } catch (const std::system_error&) {
      break;  // no thread to spare: the participants already started run the rest
    }
  }
  GlobalPerfCounters().pool_regions++;
  participate();
  for (std::thread& helper : helpers) {
    helper.join();
  }
  for (const PerfCounters& perf : helper_perf) {
    GlobalPerfCounters().Add(perf);
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace bmx
