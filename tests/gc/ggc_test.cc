// Group-garbage-collector tests (paper §7): intra-site inter-bunch cycles
// are collected because scions whose stubs originate inside the local group
// are not roots; everything else stays conservative.

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/workload/graph_builder.h"

namespace bmx {
namespace {

TEST(Ggc, BgcAloneCannotCollectCrossBunchCycle) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  BunchId b1 = cluster.CreateBunch(0);
  BunchId b2 = cluster.CreateBunch(0);
  builder.BuildCrossBunchCycle({b1, b2});  // unrooted: pure garbage

  // BGCs keep each other's halves alive through the SSPs: no progress.
  for (int i = 0; i < 3; ++i) {
    cluster.node(0).gc().CollectBunch(b1);
    cluster.node(0).gc().CollectBunch(b2);
  }
  EXPECT_EQ(cluster.node(0).gc().stats().objects_reclaimed, 0u);
}

TEST(Ggc, GroupCollectionReclaimsCrossBunchCycle) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  BunchId b1 = cluster.CreateBunch(0);
  BunchId b2 = cluster.CreateBunch(0);
  builder.BuildCrossBunchCycle({b1, b2});

  cluster.node(0).gc().CollectGroup();
  EXPECT_EQ(cluster.node(0).gc().stats().objects_reclaimed, 2u);
  EXPECT_TRUE(cluster.node(0).gc().TablesOf(b1).inter_stubs.empty());
  EXPECT_TRUE(cluster.node(0).gc().TablesOf(b2).inter_stubs.empty());
}

TEST(Ggc, LongCycleAcrossManyBunches) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  std::vector<BunchId> bunches;
  for (int i = 0; i < 6; ++i) {
    bunches.push_back(cluster.CreateBunch(0));
  }
  builder.BuildCrossBunchCycle(bunches);
  cluster.node(0).gc().CollectGroup();
  EXPECT_EQ(cluster.node(0).gc().stats().objects_reclaimed, 6u);
}

TEST(Ggc, RootedCycleSurvivesGroupCollection) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  BunchId b1 = cluster.CreateBunch(0);
  BunchId b2 = cluster.CreateBunch(0);
  auto ring = builder.BuildCrossBunchCycle({b1, b2});
  m.AddRoot(ring[0]);

  cluster.node(0).gc().CollectGroup();
  EXPECT_EQ(cluster.node(0).gc().stats().objects_reclaimed, 0u);
  // Graph is intact after the moves.
  Gaddr first = cluster.node(0).dsm().ResolveAddr(ring[0]);
  ASSERT_TRUE(m.AcquireRead(first));
  Gaddr second = m.ReadRef(first, 0);
  m.Release(first);
  ASSERT_TRUE(m.AcquireRead(second));
  Gaddr back = m.ReadRef(second, 0);
  m.Release(second);
  EXPECT_TRUE(m.SameObject(back, first));
}

TEST(Ggc, ScionFromOutsideGroupIsStillARoot) {
  Cluster cluster({.num_nodes = 2});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId remote_bunch = cluster.CreateBunch(0);  // mapped at node 0
  BunchId local_bunch = cluster.CreateBunch(1);   // mapped at node 1

  // Node 1's object is referenced from node 0 (stub at node 0, scion at
  // node 1): for node 1's GGC the scion's source is a different node, so it
  // remains a root even though local_bunch is inside the group.
  Gaddr target = m1.Alloc(local_bunch, 1);
  Gaddr src = m0.Alloc(remote_bunch, 2);
  m0.AddRoot(src);
  m0.WriteRef(src, 0, target);
  cluster.Pump();
  ASSERT_EQ(cluster.node(1).gc().TablesOf(local_bunch).inter_scions.size(), 1u);

  cluster.node(1).gc().CollectGroup();
  EXPECT_EQ(cluster.node(1).gc().stats().objects_reclaimed, 0u);
}

TEST(Ggc, CrossNodeCycleIsBeyondSingleSiteGgc) {
  // A cycle spanning bunches on *different* nodes cannot be collected by the
  // locality-based heuristic (§7 discusses exactly this limitation).
  Cluster cluster({.num_nodes = 2});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId b0 = cluster.CreateBunch(0);
  BunchId b1 = cluster.CreateBunch(1);

  Gaddr x = m0.Alloc(b0, 1);
  Gaddr y = m1.Alloc(b1, 1);
  // x -> y (created at node 0 after faulting y in), y -> x (at node 1).
  ASSERT_TRUE(m0.AcquireRead(y));
  m0.Release(y);
  m0.WriteRef(x, 0, y);
  ASSERT_TRUE(m1.AcquireRead(x));
  m1.Release(x);
  ASSERT_TRUE(m1.AcquireWrite(y));
  m1.WriteRef(y, 0, x);
  m1.Release(y);
  cluster.Pump();

  for (int i = 0; i < 3; ++i) {
    cluster.node(0).gc().CollectGroup();
    cluster.Pump();
    cluster.node(1).gc().CollectGroup();
    cluster.Pump();
  }
  // Both halves survive (conservative: stubs originate on remote nodes).
  EXPECT_TRUE(cluster.node(0).store().HeaderOf(cluster.node(0).dsm().ResolveAddr(x)) != nullptr);
  EXPECT_TRUE(cluster.node(1).store().HeaderOf(cluster.node(1).dsm().ResolveAddr(y)) != nullptr);
}

TEST(Ggc, MixedLiveAndGarbageAcrossGroup) {
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  BunchId b1 = cluster.CreateBunch(0);
  BunchId b2 = cluster.CreateBunch(0);
  BunchId b3 = cluster.CreateBunch(0);

  auto dead_ring = builder.BuildCrossBunchCycle({b1, b2});
  auto live_ring = builder.BuildCrossBunchCycle({b2, b3});
  m.AddRoot(live_ring[0]);
  Gaddr live_list = builder.BuildList(b1, 10);
  m.AddRoot(live_list);
  builder.BuildList(b3, 5);  // garbage list
  (void)dead_ring;

  cluster.node(0).gc().CollectGroup();
  // Reclaimed: 2 (dead ring) + 5 (garbage list).
  EXPECT_EQ(cluster.node(0).gc().stats().objects_reclaimed, 7u);

  // Live list intact.
  Gaddr head = cluster.node(0).dsm().ResolveAddr(live_list);
  size_t len = 0;
  while (head != kNullAddr) {
    ASSERT_TRUE(m.AcquireRead(head));
    Gaddr next = m.ReadRef(head, 0);
    m.Release(head);
    head = next;
    len++;
  }
  EXPECT_EQ(len, 10u);
}

}  // namespace
}  // namespace bmx
