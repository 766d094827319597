// TaskPool unit tests: the determinism contract at the pool level.  The
// system-level half (explorer results and traffic across thread counts)
// lives in tests/integration/determinism_sweep_test.cc.

#include "src/common/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/perf_counters.h"

namespace bmx {
namespace {

// Restores the pool to the environment's thread count when a test ends, so
// test order never leaks a thread-count override.
struct PoolGuard {
  ~PoolGuard() { TaskPool::SetThreadsForTesting(TaskPool::EnvThreads()); }
};

// out[i] = fn(i) through ParallelFor: each body writes only its own slot.
std::vector<uint64_t> FillSlots(size_t n, const std::function<uint64_t(size_t)>& fn) {
  std::vector<uint64_t> out(n);
  TaskPool::Global().ParallelFor(n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

TEST(TaskPoolTest, ParallelForFillsPerIndexSlotsInOrder) {
  PoolGuard guard;
  std::vector<uint64_t> serial;
  for (size_t i = 0; i < 1000; ++i) {
    serial.push_back(i * i + 7);
  }
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    TaskPool::SetThreadsForTesting(threads);
    std::vector<uint64_t> got = FillSlots(1000, [](size_t i) { return i * i + 7; });
    EXPECT_EQ(got, serial) << "threads=" << threads;
  }
}

TEST(TaskPoolTest, EveryIndexRunsExactlyOnce) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  constexpr size_t kN = 513;  // deliberately not a multiple of the thread count
  std::vector<std::atomic<int>> hits(kN);
  TaskPool::Global().ParallelFor(kN, [&](size_t i) { hits[i]++; });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, MultipleThreadsActuallyParticipate) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  TaskPool::Global().ParallelFor(64, [&](size_t) {
    // Each index yields the CPU long enough for the helpers to start and
    // claim indices even on a single-core host; the assertion is >= 2
    // participants, not all 4 (which indices a helper claims is
    // schedule-dependent by design).
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 2u);
}

TEST(TaskPoolTest, SingleThreadRunsInlineWithoutRegionFlag) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(1);
  bool saw_region = false;
  TaskPool::Global().ParallelFor(64, [&](size_t) {
    saw_region = saw_region || TaskPool::InParallelRegion();
  });
  EXPECT_FALSE(saw_region);  // the 1-thread path is the exact serial loop
}

TEST(TaskPoolTest, NestedRegionsRunInline) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  std::vector<uint64_t> outer = FillSlots(8, [](size_t i) {
    EXPECT_TRUE(TaskPool::InParallelRegion());
    // A nested loop must run inline on this thread and still fill its
    // slots in order.
    std::thread::id self = std::this_thread::get_id();
    std::vector<uint64_t> inner = FillSlots(16, [i, self](size_t j) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      return i * 100 + j;
    });
    uint64_t sum = 0;
    for (size_t j = 0; j < inner.size(); ++j) {
      EXPECT_EQ(inner[j], i * 100 + j);
      sum += inner[j];
    }
    return sum;
  });
  for (size_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(outer[i], i * 100 * 16 + 120);
  }
}

TEST(TaskPoolTest, LowestIndexedExceptionWinsDeterministically) {
  PoolGuard guard;
  for (size_t threads : {1u, 4u}) {
    TaskPool::SetThreadsForTesting(threads);
    std::atomic<size_t> ran{0};
    std::string caught;
    try {
      TaskPool::Global().ParallelFor(300, [&](size_t i) {
        ran++;
        if (i % 37 == 5) {  // several indices throw
          throw std::runtime_error("boom@" + std::to_string(i));
        }
      });
      FAIL() << "expected a rethrow (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    if (threads > 1) {
      // A throw does not stop the loop: every index still runs.
      EXPECT_EQ(ran.load(), 300u);
    }
    // The kept exception is the lowest throwing index's, so index 5 wins
    // whichever thread ran which index.
    EXPECT_EQ(caught, "boom@5") << "threads=" << threads;
  }
}

TEST(TaskPoolTest, PerfCounterTotalsIndependentOfThreadCount) {
  PoolGuard guard;
  uint64_t totals[2];
  size_t runs = 0;
  for (size_t threads : {1u, 4u}) {
    TaskPool::SetThreadsForTesting(threads);
    GlobalPerfCounters().Reset();
    TaskPool::Global().ParallelFor(500, [](size_t) { GlobalPerfCounters().objects_walked++; });
    // Helper-side increments must be added to the caller's counters by the
    // time ParallelFor returns.
    totals[runs++] = GlobalPerfCounters().objects_walked;
  }
  EXPECT_EQ(totals[0], 500u);
  EXPECT_EQ(totals[1], 500u);
  // The last call ran on 4 threads: one multi-thread call, 500 indices.
  EXPECT_EQ(GlobalPerfCounters().pool_regions, 1u);
  EXPECT_EQ(GlobalPerfCounters().pool_chunks_executed, 500u);
  // Together the participants run at most 500 - 125 indices beyond their
  // even share of 125.
  EXPECT_LE(GlobalPerfCounters().pool_steals, 375u);
}

TEST(TaskPoolTest, EmptyAndSingletonRegions) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  size_t ran = 0;
  TaskPool::Global().ParallelFor(0, [&](size_t) { ran++; });
  EXPECT_EQ(ran, 0u);
  TaskPool::Global().ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_FALSE(TaskPool::InParallelRegion());  // n==1 runs inline
    ran++;
  });
  EXPECT_EQ(ran, 1u);
}

TEST(TaskPoolTest, ThrowFromHelperThreadRethrowsAndPoolSurvives) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  // The caller dawdles in the low indices so the helpers claim the high
  // ones; a high index then throws — on a helper on most schedules.
  // Whatever thread threw, the exception must surface on the caller and the
  // pool must stay usable.
  std::string caught;
  try {
    TaskPool::Global().ParallelFor(256, [](size_t i) {
      if (i < 8) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      if (i == 200) {
        throw std::runtime_error("helper-boom");
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  EXPECT_EQ(caught, "helper-boom");
  // No region flag leaked: the next call completes.
  std::vector<uint64_t> got = FillSlots(64, [](size_t i) { return i; });
  ASSERT_EQ(got.size(), 64u);
  EXPECT_FALSE(TaskPool::InParallelRegion());
}

TEST(TaskPoolTest, ThrowFromNestedRegionPropagatesThroughWorker) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(4);
  // The nested (inline) loop throws inside an outer index; the outer call
  // must rethrow the lowest outer index's exception, and nothing may
  // deadlock.
  std::string caught;
  try {
    TaskPool::Global().ParallelFor(32, [](size_t i) {
      TaskPool::Global().ParallelFor(16, [i](size_t j) {
        if (i % 4 == 1 && j == 3) {
          throw std::runtime_error("nested@" + std::to_string(i));
        }
      });
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  // Outer index 1 is the lowest that throws, so it wins under every
  // schedule.
  EXPECT_EQ(caught, "nested@1");
  std::vector<uint64_t> got = FillSlots(16, [](size_t i) { return i; });
  ASSERT_EQ(got.size(), 16u);
}

TEST(TaskPoolTest, ResizeAfterFailedRegionsNeverWedges) {
  PoolGuard guard;
  // Interleave throwing calls with reconfiguration: a failed call must
  // leave no state that makes the next call (at the new width) hang or
  // miscount.
  for (size_t threads : {1u, 2u, 4u, 8u, 2u, 4u}) {
    TaskPool::SetThreadsForTesting(threads);
    try {
      TaskPool::Global().ParallelFor(128, [](size_t i) {
        if (i == 64) {
          throw std::runtime_error("resize-boom");
        }
      });
      FAIL() << "expected a rethrow (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "resize-boom") << "threads=" << threads;
    }
    std::vector<uint64_t> got = FillSlots(100, [](size_t i) { return 3 * i; });
    ASSERT_EQ(got.size(), 100u) << "threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], 3 * i) << "threads=" << threads;
    }
  }
}

TEST(TaskPoolTest, SetThreadsForTestingReconfigures) {
  PoolGuard guard;
  TaskPool::SetThreadsForTesting(3);
  EXPECT_EQ(TaskPool::Global().threads(), 3u);
  TaskPool::SetThreadsForTesting(1);
  EXPECT_EQ(TaskPool::Global().threads(), 1u);
  // Back-to-back reconfiguration with work in between must not wedge.
  TaskPool::SetThreadsForTesting(2);
  std::vector<uint64_t> got = FillSlots(32, [](size_t i) { return i + 1; });
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i + 1);
  }
}

}  // namespace
}  // namespace bmx
