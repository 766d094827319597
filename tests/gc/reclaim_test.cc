// From-space reclamation tests (paper §4.5): segments are only freed after
// address-change notices are acknowledged and owners have copied out live
// objects; stale addresses still resolve afterwards.

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/workload/graph_builder.h"

namespace bmx {
namespace {

TEST(Reclaim, SingleNodeFromSpaceIsFreed) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  BunchId b = cluster.CreateBunch(0);
  Gaddr a = m.Alloc(b, 2);
  size_t root = m.AddRoot(a);
  SegmentId original_segment = SegmentOf(a);

  cluster.node(0).gc().CollectBunch(b);
  ASSERT_EQ(cluster.node(0).gc().FromSpacesOf(b).size(), 1u);
  ASSERT_EQ(cluster.node(0).gc().FromSpacesOf(b)[0], original_segment);

  cluster.node(0).gc().ReclaimFromSpaces(b);
  cluster.Pump();
  EXPECT_TRUE(cluster.node(0).gc().ReclaimQuiescent());
  EXPECT_TRUE(cluster.node(0).gc().FromSpacesOf(b).empty());
  EXPECT_FALSE(cluster.node(0).store().HasSegment(original_segment));
  EXPECT_TRUE(cluster.directory().IsRetired(original_segment));
  EXPECT_EQ(cluster.node(0).gc().stats().segments_freed, 1u);

  // The root was fixed up and the object still works.
  Gaddr current = m.Root(root);
  EXPECT_NE(SegmentOf(current), original_segment);
  ASSERT_TRUE(m.AcquireRead(current));
  m.Release(current);
}

TEST(Reclaim, StaleAddressStillResolvesAfterFree) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  BunchId b = cluster.CreateBunch(0);
  Gaddr a = m.Alloc(b, 2);
  m.AddRoot(a);
  cluster.node(0).gc().CollectBunch(b);
  cluster.node(0).gc().ReclaimFromSpaces(b);
  cluster.Pump();

  // `a` points into the freed segment; the stale-forward table resolves it.
  Gaddr resolved = cluster.node(0).dsm().ResolveAddr(a);
  EXPECT_NE(SegmentOf(resolved), SegmentOf(a));
  EXPECT_TRUE(cluster.node(0).store().HeaderOf(resolved) != nullptr);
  EXPECT_TRUE(m.SameObject(a, resolved));
}

TEST(Reclaim, OwnerNotifiesReplicaHoldersExplicitly) {
  Cluster cluster({.num_nodes = 2});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId b = cluster.CreateBunch(0);
  Gaddr a = m0.Alloc(b, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 1, 17);
  m0.Release(a);
  m0.AddRoot(a);
  // Node 1 holds a replica.
  ASSERT_TRUE(m1.AcquireRead(a));
  m1.Release(a);
  m1.AddRoot(a);

  cluster.node(0).gc().CollectBunch(b);
  cluster.network().ResetStats();
  cluster.node(0).gc().ReclaimFromSpaces(b);
  cluster.Pump();
  EXPECT_TRUE(cluster.node(0).gc().ReclaimQuiescent());
  // Explicit address-change message + ack were exchanged (§4.5 is the one
  // place the collector pays dedicated messages).
  EXPECT_EQ(cluster.network().stats().For(MsgKind::kAddressChange).sent, 1u);
  EXPECT_EQ(cluster.network().stats().For(MsgKind::kAddressChangeAck).sent, 1u);

  // Node 1 learned the new location: its replica moved and still reads 17
  // without re-acquiring a token (its read token survived).
  Gaddr at1 = cluster.node(1).dsm().ResolveAddr(a);
  EXPECT_NE(at1, a);
  EXPECT_EQ(m1.ReadWord(at1, 1), 17u);
}

TEST(Reclaim, LiveNonOwnedObjectTriggersCopyRequest) {
  Cluster cluster({.num_nodes = 2});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId b = cluster.CreateBunch(0);

  // Node 0 allocates, node 1 takes ownership away; node 0 keeps a rooted,
  // non-owned replica in what will become its from-space.
  Gaddr a = m0.Alloc(b, 2);
  m0.AddRoot(a);
  ASSERT_TRUE(m1.AcquireWrite(a));
  m1.WriteWord(a, 1, 23);
  m1.Release(a);
  ASSERT_TRUE(m0.AcquireRead(a));
  m0.Release(a);

  // Node 0's BGC: nothing to copy (not owner) — object is scanned in place
  // and the segment is queued as from-space.
  cluster.node(0).gc().CollectBunch(b);
  ASSERT_FALSE(cluster.node(0).gc().FromSpacesOf(b).empty());
  SegmentId seg = SegmentOf(a);

  cluster.network().ResetStats();
  cluster.node(0).gc().ReclaimFromSpaces(b);
  cluster.Pump();
  EXPECT_TRUE(cluster.node(0).gc().ReclaimQuiescent());
  EXPECT_GE(cluster.network().stats().For(MsgKind::kCopyRequest).sent, 1u);
  EXPECT_GE(cluster.network().stats().For(MsgKind::kCopyReply).sent, 1u);
  EXPECT_FALSE(cluster.node(0).store().HasSegment(seg));

  // Node 0's replica moved out of the freed segment and kept its data.
  Gaddr at0 = cluster.node(0).dsm().ResolveAddr(a);
  EXPECT_NE(SegmentOf(at0), seg);
  EXPECT_EQ(m0.ReadWord(at0, 1), 23u);
}

TEST(Reclaim, AcquireByStaleAddressAfterFreeStillRoutes) {
  Cluster cluster({.num_nodes = 3});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Mutator m2(&cluster.node(2));
  BunchId b = cluster.CreateBunch(0);
  Gaddr a = m0.Alloc(b, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 3);
  m0.Release(a);
  m0.AddRoot(a);
  // Node 1 learns the address (via a shared holder object), but never
  // acquires `a` itself.
  Gaddr holder = m0.Alloc(b, 1);
  m0.WriteRef(holder, 0, a);
  ASSERT_TRUE(m1.AcquireRead(holder));
  Gaddr stale = m1.ReadRef(holder, 0);
  m1.Release(holder);
  ASSERT_EQ(stale, a);

  // Node 0 collects and frees the from-space; node 1 was not an interested
  // party for `a` (no replica), so it still holds the stale address.
  cluster.node(0).gc().CollectBunch(b);
  cluster.node(0).gc().ReclaimFromSpaces(b);
  cluster.Pump();
  ASSERT_FALSE(cluster.node(0).store().HasSegment(SegmentOf(a)));

  // Acquiring by the stale address routes to the segment creator, whose
  // stale-forward table redirects to the live copy.
  ASSERT_TRUE(m1.AcquireRead(stale));
  Gaddr fresh = cluster.node(1).dsm().ResolveAddr(stale);
  EXPECT_EQ(m1.ReadWord(fresh, 0), 3u);
  m1.Release(stale);
  (void)m2;
}

TEST(Reclaim, ReclaimWithNothingPendingIsNoop) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  BunchId b = cluster.CreateBunch(0);
  m.Alloc(b, 1);
  cluster.node(0).gc().ReclaimFromSpaces(b);  // no BGC ran: no from-spaces
  EXPECT_TRUE(cluster.node(0).gc().ReclaimQuiescent());
  EXPECT_EQ(cluster.node(0).gc().stats().segments_freed, 0u);
}

TEST(Reclaim, RepeatedCollectAndReclaimCycles) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  BunchId b = cluster.CreateBunch(0);
  Gaddr head = builder.BuildList(b, 50);
  size_t root = m.AddRoot(head);

  for (int round = 0; round < 5; ++round) {
    builder.BuildList(b, 30);  // garbage each round
    cluster.node(0).gc().CollectBunch(b);
    cluster.node(0).gc().ReclaimFromSpaces(b);
    cluster.Pump();
    ASSERT_TRUE(cluster.node(0).gc().ReclaimQuiescent());
  }
  EXPECT_GE(cluster.node(0).gc().stats().segments_freed, 5u);

  // The list survived five moves.
  Gaddr cur = m.Root(root);
  size_t len = 0;
  while (cur != kNullAddr) {
    ASSERT_TRUE(m.AcquireRead(cur));
    Gaddr next = m.ReadRef(cur, 0);
    m.Release(cur);
    cur = next;
    len++;
  }
  EXPECT_EQ(len, 50u);
}

}  // namespace
}  // namespace bmx
