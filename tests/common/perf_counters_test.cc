// The perf-counter layer: cheap global counters bumped by the scan kernels,
// lookup tables and piggyback builder, exposed through Cluster::perf().

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/perf_counters.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

TEST(PerfCountersTest, ResetZeroesEverything) {
  PerfCounters& p = GlobalPerfCounters();
  p.slots_scanned = 7;
  p.segment_mru_hits = 9;
  p.piggyback_bytes_saved = 11;
  p.Reset();
  EXPECT_EQ(p.slots_scanned, 0u);
  EXPECT_EQ(p.segment_mru_hits, 0u);
  EXPECT_EQ(p.piggyback_bytes_saved, 0u);
}

// TaskPool::ParallelFor folds its helpers' counters in with Add, so Add
// must sum every field; ForEach, which the bench printout walks, must visit
// every field in declaration order.
TEST(PerfCountersTest, AddSumsEveryField) {
  constexpr size_t kFields = sizeof(PerfCounters) / sizeof(uint64_t);
  static_assert(kFields * sizeof(uint64_t) == sizeof(PerfCounters));
  uint64_t base[kFields];
  uint64_t delta[kFields];
  for (size_t i = 0; i < kFields; ++i) {
    base[i] = 1000 * (i + 1);
    delta[i] = i + 1;
  }
  PerfCounters a;
  PerfCounters b;
  std::memcpy(&a, base, sizeof(a));
  std::memcpy(&b, delta, sizeof(b));
  a.Add(b);
  uint64_t sum[kFields];
  std::memcpy(sum, &a, sizeof(a));
  for (size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(sum[i], base[i] + delta[i]) << "field " << i;
  }
  size_t visited = 0;
  a.ForEach([&](const char* name, uint64_t value) {
    ASSERT_LT(visited, kFields) << name;
    EXPECT_EQ(value, sum[visited]) << name;
    ++visited;
  });
  EXPECT_EQ(visited, kFields);
}

// A BGC round must drive the scan kernels: objects walked via the object-map,
// ref slots visited via the ref-map, and — on a heap with large, sparse
// objects — whole empty words skipped.
TEST(PerfCountersTest, BgcRoundBumpsScanCounters) {
  Cluster cluster({.num_nodes = 1});
  Mutator mutator(&cluster.node(0));
  BunchId bunch = cluster.CreateBunch(0);

  // 256-slot objects with a single ref slot: 3 of the 4 ref-map words per
  // object are empty, so the kernels must report skipped words.
  Gaddr head = kNullAddr;
  for (int i = 0; i < 16; ++i) {
    Gaddr obj = mutator.Alloc(bunch, 256);
    mutator.WriteRef(obj, 0, head);
    mutator.WriteWord(obj, 1, i);
    head = obj;
  }
  mutator.AddRoot(head);

  cluster.perf().Reset();
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();

  const PerfCounters& p = cluster.perf();
  EXPECT_GT(p.objects_walked, 0u);
  EXPECT_GT(p.ref_slots_visited, 0u);
  EXPECT_GT(p.slots_scanned, 0u);
  EXPECT_GT(p.words_skipped, 0u);
  EXPECT_GT(p.segment_probes, 0u);
}

// Slot-granular access to the same object must hit the one-entry MRU cache.
TEST(PerfCountersTest, MruCacheShortCircuitsSegmentLookups) {
  Cluster cluster({.num_nodes = 1});
  Mutator mutator(&cluster.node(0));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr obj = mutator.Alloc(bunch, 64);
  mutator.AddRoot(obj);

  cluster.perf().Reset();
  for (size_t i = 0; i < 64; ++i) {
    mutator.WriteWord(obj, i, i);
  }
  const PerfCounters& p = cluster.perf();
  EXPECT_GT(p.segment_probes, 0u);
  EXPECT_GT(p.segment_mru_hits, 0u);
}

}  // namespace
}  // namespace bmx
