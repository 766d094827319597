// Figure 1 of the paper, reproduced as an executable configuration.
//
// "Bunch B1 is mapped on nodes N1 and N2, and bunch B2 is mapped only on N3."
// Object O3 is cached on N1 and N2; the inter-bunch reference O3→O5 was
// created at N2 while N2 owned O3 (so the single inter-bunch stub lives at
// N2, with the matching scion at N3); O3's write token then moved to N1,
// creating the intra-bunch SSP from N1 (stub) to N2 (scion).  "In spite of
// being unreachable by the mutator at N2, object O3 must be kept alive at
// this node."

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

class Fig1 : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{.num_nodes = 3});
    n1_ = std::make_unique<Mutator>(&cluster_->node(0));  // paper's N1
    n2_ = std::make_unique<Mutator>(&cluster_->node(1));  // paper's N2
    n3_ = std::make_unique<Mutator>(&cluster_->node(2));  // paper's N3
    b1_ = cluster_->CreateBunch(1);  // B1, first touched on N2
    b2_ = cluster_->CreateBunch(2);  // B2, mapped only on N3

    // O5 lives in B2 on N3.
    o5_ = n3_->Alloc(b2_, 1);
    n3_->AddRoot(o5_);

    // N2 creates O3 in B1 and the inter-bunch reference O3→O5.  B2 is not
    // mapped at N2, so a scion-message flies to N3.
    o3_ = n2_->Alloc(b1_, 2);
    n2_->WriteRef(o3_, 0, o5_);
    cluster_->Pump();

    // O3's write token moves from N2 to N1 (invariant 3 builds the intra
    // SSP); N1's mutator keeps O3 in its local root.
    ASSERT_TRUE(n1_->AcquireWrite(o3_));
    n1_->Release(o3_);
    n1_->AddRoot(o3_);
    cluster_->Pump();
  }

  Oid OidOf(Node& node, Gaddr addr) {
    return node.store().HeaderOf(node.dsm().ResolveAddr(addr))->oid;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Mutator> n1_, n2_, n3_;
  BunchId b1_ = kInvalidBunch, b2_ = kInvalidBunch;
  Gaddr o3_ = kNullAddr, o5_ = kNullAddr;
};

TEST_F(Fig1, StubAndScionTablesMatchTheFigure) {
  // Single inter-bunch stub for O3→O5, held at N2 (where the reference was
  // created) — not replicated to N1 even though O3 is cached there.
  auto n2_tables = cluster_->node(1).gc().TablesOf(b1_);
  ASSERT_EQ(n2_tables.inter_stubs.size(), 1u);
  EXPECT_EQ(n2_tables.inter_stubs[0].target_bunch, b2_);
  EXPECT_EQ(n2_tables.inter_stubs[0].scion_node, 2u);
  EXPECT_TRUE(cluster_->node(0).gc().TablesOf(b1_).inter_stubs.empty());

  // Matching inter-bunch scion at N3 in B2.
  auto n3_tables = cluster_->node(2).gc().TablesOf(b2_);
  ASSERT_EQ(n3_tables.inter_scions.size(), 1u);
  EXPECT_EQ(n3_tables.inter_scions[0].stub_id, n2_tables.inter_stubs[0].id);
  EXPECT_EQ(n3_tables.inter_scions[0].src_node, 1u);
  EXPECT_EQ(n3_tables.inter_scions[0].src_bunch, b1_);

  // Intra-bunch SSP: stub at N1 (new owner), scion at N2 (old owner), in the
  // opposite direction of the ownerPtr N2→N1.
  auto n1_tables = cluster_->node(0).gc().TablesOf(b1_);
  ASSERT_EQ(n1_tables.intra_stubs.size(), 1u);
  EXPECT_EQ(n1_tables.intra_stubs[0].scion_node, 1u);
  auto n2_intra = cluster_->node(1).gc().TablesOf(b1_).intra_scions;
  ASSERT_EQ(n2_intra.size(), 1u);
  EXPECT_EQ(n2_intra[0].stub_node, 0u);
}

TEST_F(Fig1, TokenStatesMatchTheFigure) {
  Oid o3 = OidOf(cluster_->node(0), o3_);
  Oid o5 = OidOf(cluster_->node(2), o5_);
  // N1 holds O3's write token and is its owner ('w', 'o').
  EXPECT_TRUE(cluster_->node(0).dsm().IsLocallyOwned(o3));
  EXPECT_EQ(cluster_->node(0).dsm().StateOf(o3), TokenState::kWrite);
  // N2's copy of O3 is inconsistent ('i').
  EXPECT_FALSE(cluster_->node(1).dsm().IsLocallyOwned(o3));
  EXPECT_EQ(cluster_->node(1).dsm().StateOf(o3), TokenState::kNone);
  EXPECT_EQ(cluster_->node(1).dsm().OwnerHint(o3), 0u);
  // N3 owns O5.
  EXPECT_TRUE(cluster_->node(2).dsm().IsLocallyOwned(o5));
}

TEST_F(Fig1, O3SurvivesAtN2WithoutAnyMutatorRoot) {
  // BGC of B1 at N2: no mutator root there, but the intra-bunch scion keeps
  // O3 alive (it anchors the inter-bunch stub that keeps O5 alive).
  cluster_->node(1).gc().CollectBunch(b1_);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_reclaimed, 0u);
  EXPECT_EQ(cluster_->node(1).gc().TablesOf(b1_).inter_stubs.size(), 1u);
  // And the weak-only replica contributed no exiting ownerPtr (§6.2): the
  // entering entry for N2 at N1 must not have been *added* by the BGC.
  cluster_->Pump();
  // O5 stays alive at N3 through the whole chain.
  cluster_->node(2).gc().CollectBunch(b2_);
  EXPECT_EQ(cluster_->node(2).gc().stats().objects_reclaimed, 0u);
}

// The figure generalized to N nodes: an inter-bunch chain o_0 → ... →
// o_{N-1} with one bunch per node, every link crossing a bunch boundary, and
// the head's write token migrated away from the chain's only interior root.
// The figure's claim must hold at every scale: per-bunch collections reclaim
// nothing, and every link keeps its stub/scion pair.
class Fig1Scale : public ::testing::TestWithParam<size_t> {};

TEST_P(Fig1Scale, InterBunchChainSurvivesPerBunchCollections) {
  size_t n = GetParam();
  Cluster cluster({.num_nodes = n});
  std::vector<std::unique_ptr<Mutator>> muts;
  std::vector<BunchId> bunches;
  std::vector<Gaddr> objs;
  for (NodeId id = 0; id < n; ++id) {
    muts.push_back(std::make_unique<Mutator>(&cluster.node(id)));
    bunches.push_back(cluster.CreateBunch(id));
    objs.push_back(muts[id]->Alloc(bunches[id], 2));
  }
  muts[n - 1]->AddRoot(objs[n - 1]);
  for (size_t i = 0; i + 1 < n; ++i) {
    muts[i]->WriteRef(objs[i], 0, objs[i + 1]);
  }
  cluster.Pump();
  // As in the figure, the head's token moves (here: to node 1) and the new
  // owner holds the only root for the head of the chain.
  ASSERT_TRUE(muts[1]->AcquireWrite(objs[0]));
  muts[1]->Release(objs[0]);
  muts[1]->AddRoot(objs[0]);
  cluster.Pump();
  for (NodeId id = 0; id < n; ++id) {
    cluster.node(id).gc().CollectBunch(bunches[id]);
    cluster.Pump();
    EXPECT_EQ(cluster.node(id).gc().stats().objects_reclaimed, 0u) << "node " << id;
  }
  // Every link left exactly one inter-bunch stub at its creator and one
  // scion at its target bunch.
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(cluster.node(i).gc().TablesOf(bunches[i]).inter_stubs.size(), 1u)
        << "link " << i;
    EXPECT_EQ(cluster.node(i + 1).gc().TablesOf(bunches[i + 1]).inter_scions.size(), 1u)
        << "link " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Scale, Fig1Scale, ::testing::Values(4, 8, 16, 64),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST_F(Fig1, ChainCollapsesOnceN1DropsO3) {
  // Remove the only mutator reference to O3 (at N1) and run the cascade:
  // O3 dies at N1 → intra stub dropped → intra scion cleaned at N2 → O3 and
  // its inter stub die at N2 → scion cleaned at N3 → O5 dies at N3.
  n1_->ClearRoot(0);
  n3_->ClearRoot(0);  // drop N3's own root on O5 as well
  // The chain unwinds over alternating collections: N2's BGC first reports
  // no exiting ownerPtr for its weak-only replica (pruning N1's entering
  // entry), then N1 reclaims O3 and drops the intra stub, then N2 reclaims
  // its replica and drops the inter stub, and finally N3 reclaims O5.
  for (int round = 0; round < 4; ++round) {
    cluster_->node(1).gc().CollectBunch(b1_);
    cluster_->Pump();
    cluster_->node(0).gc().CollectBunch(b1_);
    cluster_->Pump();
  }
  cluster_->node(2).gc().CollectBunch(b2_);
  EXPECT_GE(cluster_->node(2).gc().stats().objects_reclaimed, 1u);
}

}  // namespace
}  // namespace bmx
