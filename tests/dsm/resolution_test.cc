// Address-resolution and routing machinery tests: the two resolution queries
// (ResolveAddr = newest known address; LocalCopyOf = where this node's bytes
// are), forwarding-chain compression, the directory's location registry, and
// graceful failure for dangling addresses.

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

TEST(Resolution, ResolveFollowsChainsAndCompresses) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = m.Alloc(bunch, 2);
  m.AddRoot(a);
  // Four collections → a four-hop forwarding chain from the original address.
  for (int i = 0; i < 4; ++i) {
    cluster.node(0).gc().CollectBunch(bunch);
  }
  Gaddr fresh = cluster.node(0).dsm().ResolveAddr(a);
  EXPECT_TRUE(cluster.node(0).store().HeaderOf(fresh) != nullptr);
  // Path compression: the original address now forwards directly.
  EXPECT_EQ(cluster.node(0).store().HeaderOf(a)->forward, fresh);
}

TEST(Resolution, LocalCopyPrefersBytesOverCanonical) {
  Cluster cluster({.num_nodes = 2});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 9);
  m0.Release(a);
  ASSERT_TRUE(m1.AcquireRead(a));
  m1.Release(a);
  m1.AddRoot(a);
  m0.AddRoot(a);

  // Owner moves the object; node 1 is not told (no sync).
  cluster.node(0).gc().CollectBunch(bunch);
  Gaddr canonical = cluster.node(0).dsm().ResolveAddr(a);
  ASSERT_NE(canonical, a);

  // Node 1 still has bytes at the old address, so both resolution queries
  // stay local — it has not synchronized, and entry consistency lets it keep
  // computing on its copy.  The directory knows the canonical location.
  EXPECT_EQ(cluster.node(1).dsm().ResolveAddr(a), a);
  EXPECT_EQ(cluster.node(1).dsm().LocalCopyOf(a), a);
  EXPECT_EQ(m1.ReadWord(a, 0), 9u);
  Oid oid = cluster.node(0).store().HeaderOf(canonical)->oid;
  EXPECT_EQ(cluster.directory().CanonicalAddressOf(oid), canonical);
}

TEST(Resolution, DirectoryRegistryTracksOwnershipAndLocation) {
  Cluster cluster({.num_nodes = 2});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = m0.Alloc(bunch, 1);
  Oid oid = cluster.node(0).store().HeaderOf(a)->oid;
  EXPECT_EQ(cluster.directory().OwnerOf(oid), 0u);
  EXPECT_EQ(cluster.directory().CanonicalAddressOf(oid), a);
  EXPECT_EQ(cluster.directory().OidAtAddress(a), oid);

  ASSERT_TRUE(m1.AcquireWrite(a));
  m1.Release(a);
  EXPECT_EQ(cluster.directory().OwnerOf(oid), 1u);

  // The new owner's BGC moves it; both addresses stay resolvable.
  m1.AddRoot(a);
  cluster.node(1).gc().CollectBunch(bunch);
  Gaddr moved = cluster.node(1).dsm().ResolveAddr(a);
  EXPECT_EQ(cluster.directory().CanonicalAddressOf(oid), moved);
  EXPECT_EQ(cluster.directory().OidAtAddress(a), oid);
  EXPECT_EQ(cluster.directory().OidAtAddress(moved), oid);
}

TEST(Resolution, GloballyDeadObjectEntriesRetire) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = m.Alloc(bunch, 1);
  Oid oid = cluster.node(0).store().HeaderOf(a)->oid;
  cluster.node(0).gc().CollectBunch(bunch);  // unrooted: reclaimed
  EXPECT_EQ(cluster.directory().OwnerOf(oid), kInvalidNode);
  EXPECT_EQ(cluster.directory().CanonicalAddressOf(oid), kNullAddr);
}

TEST(Resolution, AcquireOfDeadAddressFailsGracefully) {
  Cluster cluster({.num_nodes = 2});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = m0.Alloc(bunch, 1);
  cluster.node(0).gc().CollectBunch(bunch);  // dead and gone at the owner
  cluster.node(0).gc().ReclaimFromSpaces(bunch);
  cluster.Pump();

  // A remote node clinging to the address gets a clean failure, not a hang
  // or a crash.
  EXPECT_FALSE(m1.AcquireRead(a));
  EXPECT_GT(cluster.node(0).dsm().stats().unroutable_acquires +
                cluster.node(1).dsm().stats().unroutable_acquires,
            0u);
}

TEST(Resolution, SameObjectAcrossDivergedReplicas) {
  Cluster cluster({.num_nodes = 2});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = m0.Alloc(bunch, 1);
  ASSERT_TRUE(m1.AcquireRead(a));
  m1.Release(a);
  m1.AddRoot(a);
  m0.AddRoot(a);
  cluster.node(0).gc().CollectBunch(bunch);
  Gaddr at0 = cluster.node(0).dsm().ResolveAddr(a);
  // Both nodes agree the old and new addresses name the same object.
  EXPECT_TRUE(m0.SameObject(a, at0));
  EXPECT_TRUE(m1.SameObject(a, at0));
}

TEST(Resolution, LiStylePathCompressionOnForwardedWrites) {
  Cluster cluster({.num_nodes = 4});
  std::vector<std::unique_ptr<Mutator>> ms;
  for (int i = 0; i < 4; ++i) {
    ms.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = ms[0]->Alloc(bunch, 1);
  Oid oid = cluster.node(0).store().HeaderOf(a)->oid;
  // Ownership: 0 -> 1 -> 2.  Node 2's request routed through node 0 (the
  // segment creator), whose hint was compressed to the requester — Li-style
  // path compression happens on every forwarded write request.
  ASSERT_TRUE(ms[1]->AcquireWrite(a));
  ms[1]->Release(a);
  ASSERT_TRUE(ms[2]->AcquireWrite(a));
  ms[2]->Release(a);
  EXPECT_EQ(cluster.node(0).dsm().OwnerHint(oid), 2u);

  // Node 3's request routes 0 -> 2 directly (node 0's compressed hint);
  // node 0 re-compresses to the new owner, node 1 is off the path.
  ASSERT_TRUE(ms[3]->AcquireWrite(a));
  ms[3]->Release(a);
  EXPECT_EQ(cluster.node(0).dsm().OwnerHint(oid), 3u);
  EXPECT_EQ(cluster.node(1).dsm().OwnerHint(oid), 2u);
}

}  // namespace
}  // namespace bmx
