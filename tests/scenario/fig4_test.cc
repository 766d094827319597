// Figure 4 of the paper: "O1 is cached on nodes N1, N2, and N3 and is
// reachable from a single mutator in N1."  N2 is the owner; N3 is a previous
// owner holding inter-bunch stubs, kept alive by the intra-bunch SSP
// (stub at N2 → scion at N3); ownerPtr runs N3 → N2.
//
// §6.2 walks through the deletion: the BGC at N3 omits the exiting ownerPtr
// for O1 (reachable only via the intra-bunch scion), breaking the cycle
//   O1@N2 → intra SSP → O1@N3 → ownerPtr → O1@N2;
// then N1 drops its reference and the whole chain unwinds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

class Fig4 : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{.num_nodes = 3});
    n1_ = std::make_unique<Mutator>(&cluster_->node(0));  // paper's N1
    n2_ = std::make_unique<Mutator>(&cluster_->node(1));  // paper's N2
    n3_ = std::make_unique<Mutator>(&cluster_->node(2));  // paper's N3
    b_ = cluster_->CreateBunch(2);
    other_ = cluster_->CreateBunch(2);

    // N3 creates O1 and gives it an inter-bunch reference (so N3 holds an
    // inter-bunch stub for O1 — the reason its replica must stay alive).
    o1_ = n3_->Alloc(b_, 2);
    Gaddr out = n3_->Alloc(other_, 1);
    n3_->AddRoot(out);
    n3_->WriteRef(o1_, 0, out);

    // Ownership moves to N2 (invariant 3: intra stub at N2, scion at N3).
    ASSERT_TRUE(n2_->AcquireWrite(o1_));
    n2_->Release(o1_);

    // N1 caches O1; it holds the single mutator reference in the system.
    ASSERT_TRUE(n1_->AcquireRead(o1_));
    n1_->Release(o1_);
    root_ = n1_->AddRoot(o1_);
    cluster_->Pump();

    oid_ = cluster_->node(0).store().HeaderOf(cluster_->node(0).dsm().ResolveAddr(o1_))->oid;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Mutator> n1_, n2_, n3_;
  BunchId b_ = kInvalidBunch, other_ = kInvalidBunch;
  Gaddr o1_ = kNullAddr;
  size_t root_ = 0;
  Oid oid_ = kNullOid;
};

TEST_F(Fig4, ConfigurationMatchesTheFigure) {
  // O1 cached on all three nodes.
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_TRUE(
        cluster_->node(n).store().HeaderOf(cluster_->node(n).dsm().ResolveAddr(o1_)) != nullptr);
  }
  // N2 owns; N3's ownerPtr exits toward N2; intra SSP N2 (stub) → N3 (scion).
  EXPECT_TRUE(cluster_->node(1).dsm().IsLocallyOwned(oid_));
  EXPECT_EQ(cluster_->node(2).dsm().OwnerHint(oid_), 1u);
  auto n2_tables = cluster_->node(1).gc().TablesOf(b_);
  ASSERT_EQ(n2_tables.intra_stubs.size(), 1u);
  EXPECT_EQ(n2_tables.intra_stubs[0].scion_node, 2u);
  auto n3_tables = cluster_->node(2).gc().TablesOf(b_);
  ASSERT_EQ(n3_tables.intra_scions.size(), 1u);
  EXPECT_EQ(n3_tables.intra_scions[0].stub_node, 1u);
  ASSERT_EQ(n3_tables.inter_stubs.size(), 1u);
}

TEST_F(Fig4, BgcAtN3OmitsExitingOwnerPtrBreakingTheCycle) {
  // Before: N2's entering set contains both N1 and N3.
  ASSERT_TRUE(cluster_->node(1).dsm().EnteringFor(b_).count(oid_) > 0);
  ASSERT_TRUE(cluster_->node(1).dsm().EnteringFor(b_).at(oid_).count(2) > 0);

  // "the new set of exiting ownerPtrs will not include the one from N3 to
  // N2, because O1 is not reachable from the mutator at N3 ... the scion
  // cleaner at N2 deletes the entering ownerPtr for N3."
  cluster_->node(2).gc().CollectBunch(b_);
  cluster_->Pump();
  // O1 survived at N3 (intra scion) but contributed no exiting ownerPtr.
  EXPECT_EQ(cluster_->node(2).gc().stats().objects_reclaimed, 0u);
  const auto& entering = cluster_->node(1).dsm().EnteringFor(b_);
  ASSERT_TRUE(entering.count(oid_) > 0);
  EXPECT_FALSE(entering.at(oid_).count(2) > 0);
  // "The BGC running on N2 considers O1 alive because of the entering
  // ownerPtr, which originates at N1."
  EXPECT_TRUE(entering.at(oid_).count(0) > 0);
  cluster_->node(1).gc().CollectBunch(b_);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_reclaimed, 0u);
}

TEST_F(Fig4, FullDeletionCascade) {
  // Step 0 of §6.2: N3's BGC drops its exiting ownerPtr (weak-only replica).
  cluster_->node(2).gc().CollectBunch(b_);
  cluster_->Pump();

  // "imagine that O1 becomes unreachable at N1 ... a BGC is executed on N1.
  // Object O1 can be reclaimed at N1, and the ownerPtr from N1 to N2 will
  // not be part of the new set."
  n1_->ClearRoot(root_);
  cluster_->node(0).gc().CollectBunch(b_);
  cluster_->Pump();
  EXPECT_GE(cluster_->node(0).gc().stats().objects_reclaimed, 1u);
  EXPECT_EQ(cluster_->node(1).dsm().EnteringFor(b_).count(oid_), 0u);

  // "during the next execution of B's BGC at N2, object O1 is no longer
  // reachable, which in turn will drop the intra-bunch stub pointing to O1
  // at N3 from the new stub table."
  cluster_->node(1).gc().CollectBunch(b_);
  cluster_->Pump();
  EXPECT_GE(cluster_->node(1).gc().stats().objects_reclaimed, 1u);
  EXPECT_TRUE(cluster_->node(1).gc().TablesOf(b_).intra_stubs.empty());
  EXPECT_TRUE(cluster_->node(2).gc().TablesOf(b_).intra_scions.empty());

  // "when N3 ... runs its own BGC on B, object O1 will no longer be
  // reachable on N3 either, and will also be garbage collected there."
  cluster_->node(2).gc().CollectBunch(b_);
  EXPECT_GE(cluster_->node(2).gc().stats().objects_reclaimed, 1u);
  EXPECT_TRUE(cluster_->node(2).gc().TablesOf(b_).inter_stubs.empty());
}

// Reclaim-vs-replica generalized to N nodes: the head of a two-object chain
// is replicated on every non-owner, the owner unlinks the tail and collects.
// The unlinked tail is reclaimed while every replica of the head survives
// untouched — the owner's BGC must not interfere with any of the N-1 read
// tokens.
class Fig4Scale : public ::testing::TestWithParam<size_t> {};

TEST_P(Fig4Scale, ReclaimDoesNotDisturbAnyReplica) {
  size_t n = GetParam();
  Cluster cluster({.num_nodes = n});
  std::vector<std::unique_ptr<Mutator>> muts;
  for (NodeId id = 0; id < n; ++id) {
    muts.push_back(std::make_unique<Mutator>(&cluster.node(id)));
  }
  BunchId b = cluster.CreateBunch(0);
  Gaddr head = muts[0]->Alloc(b, 2);
  muts[0]->AddRoot(head);
  muts[0]->WriteWord(head, 1, 11);
  Gaddr tail = muts[0]->Alloc(b, 2);
  muts[0]->WriteRef(head, 0, tail);
  cluster.Pump();
  for (NodeId id = 1; id < n; ++id) {
    ASSERT_TRUE(muts[id]->AcquireRead(head)) << "node " << id;
    muts[id]->Release(head);
  }
  cluster.Pump();
  ASSERT_TRUE(muts[0]->AcquireWrite(head));
  muts[0]->WriteRef(head, 0, kNullAddr);
  muts[0]->Release(head);
  cluster.Pump();
  cluster.node(0).gc().CollectBunch(b);
  cluster.Pump();
  EXPECT_GE(cluster.node(0).gc().stats().objects_reclaimed, 1u);
  // The head upgrade invalidated each replica once; the collection itself
  // added nothing, and every reader still resolves and reads the head.
  for (NodeId id = 1; id < n; ++id) {
    EXPECT_EQ(cluster.node(id).dsm().stats().read_copies_invalidated, 1u) << "node " << id;
    Gaddr cur = cluster.node(id).dsm().ResolveAddr(head);
    ASSERT_TRUE(muts[id]->AcquireRead(cur)) << "node " << id;
    EXPECT_EQ(muts[id]->ReadWord(cur, 1), 11u);
    muts[id]->Release(cur);
  }
}

INSTANTIATE_TEST_SUITE_P(Scale, Fig4Scale, ::testing::Values(4, 8, 16, 64),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bmx
