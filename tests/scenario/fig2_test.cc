// Figure 2 of the paper: zooming into bunch B1 on nodes N1 and N2.
//
// O1, O2, O3 are cached on both nodes; N2 owns O2, N1 owns O1 and O3; O1 and
// O3 both reference O2.  "The BGC on N2 only copies locally-owned live
// objects, that is, O2.  The update of pointers to O2 is represented by
// dashed arrows.  Node N1 has not yet been informed of O2's new address, and
// the local BGC of B1 has not been executed [there]."

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

class Fig2 : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{.num_nodes = 2});
    n1_ = std::make_unique<Mutator>(&cluster_->node(0));  // paper's N1
    n2_ = std::make_unique<Mutator>(&cluster_->node(1));  // paper's N2
    b1_ = cluster_->CreateBunch(0);

    // N1 creates O1 and O3; N2 creates O2.
    o1_ = n1_->Alloc(b1_, 2);
    o3_ = n1_->Alloc(b1_, 2);
    o2_ = n2_->Alloc(b1_, 2);
    ASSERT_TRUE(n2_->AcquireWrite(o2_));
    n2_->WriteWord(o2_, 1, 22);
    n2_->Release(o2_);

    // O1 → O2 and O3 → O2 (created at N1 after faulting O2 in).
    ASSERT_TRUE(n1_->AcquireRead(o2_));
    n1_->Release(o2_);
    n1_->WriteRef(o1_, 0, o2_);
    n1_->WriteRef(o3_, 0, o2_);
    n1_->AddRoot(o1_);
    n1_->AddRoot(o3_);

    // N2 caches O1 and O3 and roots them (they are reachable at N2 too).
    ASSERT_TRUE(n2_->AcquireRead(o1_));
    n2_->Release(o1_);
    ASSERT_TRUE(n2_->AcquireRead(o3_));
    n2_->Release(o3_);
    n2_->AddRoot(o1_);
    n2_->AddRoot(o3_);
    cluster_->Pump();
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Mutator> n1_, n2_;
  BunchId b1_ = kInvalidBunch;
  Gaddr o1_ = kNullAddr, o2_ = kNullAddr, o3_ = kNullAddr;
};

TEST_F(Fig2, BgcAtN2CopiesOnlyO2) {
  cluster_->node(1).gc().CollectBunch(b1_);
  const GcStats& stats = cluster_->node(1).gc().stats();
  EXPECT_EQ(stats.objects_copied, 1u);   // O2
  EXPECT_EQ(stats.objects_scanned, 2u);  // O1 and O3, not owned at N2
  EXPECT_EQ(stats.objects_reclaimed, 0u);

  // O2 moved at N2; a forwarding header remains in from-space.
  Gaddr o2_at_n2 = cluster_->node(1).dsm().ResolveAddr(o2_);
  EXPECT_NE(o2_at_n2, o2_);
  EXPECT_TRUE(cluster_->node(1).store().HeaderOf(o2_)->forwarded());

  // Dashed arrows: pointers inside O1 and O3 updated *at N2 only*, without
  // acquiring O1's or O3's write token.
  Gaddr o1_at_n2 = cluster_->node(1).dsm().ResolveAddr(o1_);
  Gaddr o3_at_n2 = cluster_->node(1).dsm().ResolveAddr(o3_);
  EXPECT_EQ(cluster_->node(1).store().ReadSlot(o1_at_n2, 0), o2_at_n2);
  EXPECT_EQ(cluster_->node(1).store().ReadSlot(o3_at_n2, 0), o2_at_n2);
  EXPECT_EQ(cluster_->node(1).dsm().GcTokenAcquires(), 0u);

  // N1 has not been informed: its copies still point at the old address, and
  // its mutator continues to work correctly on them.
  Gaddr o1_at_n1 = cluster_->node(0).dsm().ResolveAddr(o1_);
  EXPECT_EQ(cluster_->node(0).store().ReadSlot(o1_at_n1, 0), o2_);
  EXPECT_EQ(n1_->ReadWord(o2_, 1), 22u);
}

TEST_F(Fig2, FromSpaceNotFullyReusableWhileO1O3Remain) {
  SegmentId from_space = SegmentOf(o2_);
  cluster_->node(1).gc().CollectBunch(b1_);
  // O1 and O3 (live, not owned) remain in N2's from-space copies; the
  // segments stay queued rather than freed.
  auto from_spaces = cluster_->node(1).gc().FromSpacesOf(b1_);
  EXPECT_FALSE(from_spaces.empty());
  EXPECT_TRUE(cluster_->node(1).store().HasSegment(from_space));
}

TEST_F(Fig2, Section45ReclaimFreesTheFromSpace) {
  cluster_->node(1).gc().CollectBunch(b1_);
  // §4.5 walkthrough: N2 informs N1 of O2's new address, asks N1 (the owner)
  // to copy O1 and O3, updates its local references, then frees the segment.
  cluster_->network().ResetStats();
  cluster_->node(1).gc().ReclaimFromSpaces(b1_);
  cluster_->Pump();
  ASSERT_TRUE(cluster_->node(1).gc().ReclaimQuiescent());
  EXPECT_GE(cluster_->network().stats().For(MsgKind::kCopyRequest).sent, 2u);  // O1 and O3
  EXPECT_GE(cluster_->network().stats().For(MsgKind::kAddressChange).sent, 1u);

  for (SegmentId seg : std::vector<SegmentId>{SegmentOf(o1_), SegmentOf(o2_)}) {
    EXPECT_FALSE(cluster_->node(1).store().HasSegment(seg));
  }
  // Everything still reachable and correct on both nodes.
  Gaddr o1_now = cluster_->node(1).dsm().ResolveAddr(o1_);
  ASSERT_TRUE(cluster_->node(1).store().HeaderOf(o1_now) != nullptr);
  EXPECT_EQ(n1_->ReadWord(o2_, 1), 22u);
}

// The figure's underlying mechanism — one write token migrating node to node,
// each incarnation writing through it — generalized to an N-node walk.  At
// every scale the final owner is unique, holds the last round's value, and
// every previous incarnation's token is gone.
class Fig2Scale : public ::testing::TestWithParam<size_t> {};

TEST_P(Fig2Scale, TokenWalksAllNodesAndEndsUnique) {
  size_t n = GetParam();
  Cluster cluster({.num_nodes = n});
  std::vector<std::unique_ptr<Mutator>> muts;
  for (NodeId id = 0; id < n; ++id) {
    muts.push_back(std::make_unique<Mutator>(&cluster.node(id)));
  }
  BunchId b = cluster.CreateBunch(0);
  Gaddr obj = muts[0]->Alloc(b, 2);
  muts[0]->AddRoot(obj);
  cluster.Pump();
  for (uint64_t round = 1; round <= n; ++round) {
    Mutator& m = *muts[round % n];
    ASSERT_TRUE(m.AcquireWrite(obj)) << "round " << round;
    m.WriteWord(obj, 1, round);
    m.Release(obj);
    cluster.Pump();
  }
  // Round N wrapped back to node 0: it owns the token and sees the last
  // stamp; every other node's write token is gone.
  Oid oid = cluster.node(0).store().HeaderOf(cluster.node(0).dsm().ResolveAddr(obj))->oid;
  EXPECT_TRUE(cluster.node(0).dsm().IsLocallyOwned(oid));
  ASSERT_TRUE(muts[0]->AcquireRead(obj));
  EXPECT_EQ(muts[0]->ReadWord(obj, 1), n);
  muts[0]->Release(obj);
  for (NodeId id = 1; id < n; ++id) {
    EXPECT_FALSE(cluster.node(id).dsm().IsLocallyOwned(oid)) << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Scale, Fig2Scale, ::testing::Values(4, 8, 16, 64),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bmx
