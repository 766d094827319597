// ReplicaStore's one-entry MRU segment cache.
//
// The cache is a plain per-store member (each store is read by the one thread
// that drives its cluster): these tests pin that a dropped segment's cached
// entry is never served again, that two stores sharing a thread never
// cross-hit, that a store born where a dead one lived starts cold, and that
// repeated probes count as MRU hits.

#include <gtest/gtest.h>

#include "src/common/perf_counters.h"
#include "src/mem/replica_store.h"

namespace bmx {
namespace {

TEST(ReplicaStoreMruTest, DropInvalidatesTheCachedEntry) {
  ReplicaStore store;
  store.GetOrCreate(7, /*bunch=*/1);
  ASSERT_NE(store.Find(7), nullptr);  // fill the MRU with segment 7

  store.Drop(7);
  EXPECT_EQ(store.Find(7), nullptr);

  // A fresh image under the same id (a new allocation) must be what Find
  // returns, never the dropped one.
  SegmentImage* fresh = &store.GetOrCreate(7, /*bunch=*/2);
  EXPECT_EQ(store.Find(7), fresh);
  EXPECT_EQ(store.Find(7)->bunch(), 2u);
}

TEST(ReplicaStoreMruTest, InterleavedStoresNeverCrossHit) {
  // Two nodes' stores on one thread, both with a segment id 3 of their own:
  // each store caches its own entry, so alternating Finds must not serve one
  // store's image for the other.
  ReplicaStore a;
  ReplicaStore b;
  SegmentImage* ia = &a.GetOrCreate(3, /*bunch=*/1);
  SegmentImage* ib = &b.GetOrCreate(3, /*bunch=*/2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Find(3), ia);
    EXPECT_EQ(b.Find(3), ib);
  }
  EXPECT_EQ(a.Find(3)->bunch(), 1u);
  EXPECT_EQ(b.Find(3)->bunch(), 2u);
}

TEST(ReplicaStoreMruTest, DyingStoreInvalidatesItsEntries) {
  SegmentImage* stale = nullptr;
  {
    ReplicaStore dying;
    stale = &dying.GetOrCreate(5, /*bunch=*/1);
    EXPECT_EQ(dying.Find(5), stale);  // fill this thread's MRU
  }
  // A different store born at (possibly) the same heap address must not be
  // answered from the dead store's cached entry: a new store starts with an
  // empty cache, so the first Find misses and fills from the live map.
  ReplicaStore reborn;
  SegmentImage* fresh = &reborn.GetOrCreate(5, /*bunch=*/9);
  EXPECT_EQ(reborn.Find(5), fresh);
  EXPECT_EQ(reborn.Find(5)->bunch(), 9u);
}

TEST(ReplicaStoreMruTest, MruHitsStillCountOnTheSerialPath) {
  // The perf-counter contract: repeated same-segment probes short-circuit
  // through the MRU and count as hits.
  ReplicaStore store;
  store.GetOrCreate(2, /*bunch=*/1);
  GlobalPerfCounters().Reset();
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(store.Find(2), nullptr);
  }
  EXPECT_GE(GlobalPerfCounters().segment_mru_hits, 9u);
  GlobalPerfCounters().Reset();
}

}  // namespace
}  // namespace bmx
