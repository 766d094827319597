// Figure 3 of the paper: the operations executed to satisfy the §5
// invariants before a write-token acquire completes.  O1 (owned by N1)
// references O2; N2 requests O1's write token.  Cases:
//   (a) nothing copied anywhere → no special operation;
//   (b) O1 and/or O2 copied at N1 → new locations piggybacked on the grant
//       and processed at N2 before the application resumes;
//   (c) combinations of (a)/(b);
//   (d) O2 copied at N2 before the acquire → on receiving O1, N2 updates the
//       references inside O1 to point into to-space directly;
// plus invariant 2 (forwarding to read-token grantees) and invariant 3
// (intra-bunch SSP creation before the grant completes).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

class Fig3 : public ::testing::Test {
 protected:
  void Build(size_t nodes, CopySetMode mode = CopySetMode::kCentralized) {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{.num_nodes = nodes,
                                                        .copyset_mode = mode});
    for (size_t i = 0; i < nodes; ++i) {
      mutators_.push_back(std::make_unique<Mutator>(&cluster_->node(i)));
    }
    b_ = cluster_->CreateBunch(0);
    // N1 (node 0) owns O1 and O2; O1 → O2.
    o1_ = mutators_[0]->Alloc(b_, 2);
    o2_ = mutators_[0]->Alloc(b_, 2);
    mutators_[0]->WriteRef(o1_, 0, o2_);
    mutators_[0]->WriteWord(o2_, 1, 42);
    mutators_[0]->AddRoot(o1_);
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Mutator>> mutators_;
  BunchId b_ = kInvalidBunch;
  Gaddr o1_ = kNullAddr, o2_ = kNullAddr;
};

TEST_F(Fig3, CaseA_NoCopiesNoSpecialOperation) {
  Build(2);
  cluster_->network().ResetStats();
  ASSERT_TRUE(mutators_[1]->AcquireWrite(o1_));
  mutators_[1]->Release(o1_);
  // The grant carried no address updates.
  EXPECT_EQ(cluster_->node(0).dsm().stats().piggyback_updates_sent, 0u);
}

TEST_F(Fig3, CaseB_NewLocationsPiggybackedOnGrant) {
  Build(2);
  // BGC at N1 copies O1 and O2.
  cluster_->node(0).gc().CollectBunch(b_);
  ASSERT_EQ(cluster_->node(0).gc().stats().objects_copied, 2u);
  Gaddr o1_new = cluster_->node(0).dsm().ResolveAddr(o1_);
  Gaddr o2_new = cluster_->node(0).dsm().ResolveAddr(o2_);

  // N2 acquires O1 by its OLD address; invariant 1 must deliver both new
  // locations with the grant, before the application returns.
  ASSERT_TRUE(mutators_[1]->AcquireWrite(o1_));
  EXPECT_GE(cluster_->node(0).dsm().stats().piggyback_updates_sent, 2u);
  EXPECT_EQ(cluster_->node(1).dsm().ResolveAddr(o1_), o1_new);
  EXPECT_EQ(cluster_->node(1).dsm().ResolveAddr(o2_), o2_new);
  // O1's reference slot is valid at N2: it names an address N2 can resolve.
  Gaddr slot = mutators_[1]->ReadRef(o1_, 0);
  EXPECT_TRUE(mutators_[1]->SameObject(slot, o2_));
  mutators_[1]->Release(o1_);
}

TEST_F(Fig3, CaseD_ReferencesIntoLocalToSpaceRewrittenOnGrant) {
  Build(2);
  // Move O2's ownership to N2, which then copies it with its own BGC.
  ASSERT_TRUE(mutators_[1]->AcquireWrite(o2_));
  mutators_[1]->Release(o2_);
  mutators_[1]->AddRoot(o2_);
  cluster_->node(1).gc().CollectBunch(b_);
  Gaddr o2_at_n2 = cluster_->node(1).dsm().ResolveAddr(o2_);
  ASSERT_NE(o2_at_n2, o2_);

  // N2 now acquires O1 from N1.  N1's copy of O1 still points at O2's old
  // address; on receipt, N2 rewrites the reference to its to-space copy.
  ASSERT_TRUE(mutators_[1]->AcquireWrite(o1_));
  Gaddr o1_at_n2 = cluster_->node(1).dsm().ResolveAddr(o1_);
  EXPECT_EQ(cluster_->node(1).store().ReadSlot(o1_at_n2, 0), o2_at_n2);
  mutators_[1]->Release(o1_);
}

TEST_F(Fig3, Invariant2_NewLocationsForwardedToCopySet) {
  Build(3, CopySetMode::kDistributed);
  // Move O1 and O2 to node 1 (the future collector/owner).
  ASSERT_TRUE(mutators_[1]->AcquireWrite(o1_));
  mutators_[1]->Release(o1_);
  ASSERT_TRUE(mutators_[1]->AcquireWrite(o2_));
  mutators_[1]->Release(o2_);
  mutators_[1]->AddRoot(o1_);

  // Copy-set tree for O2: owner node1 -> reader node0 -> reader node2.
  // (Node 2's request routes to the segment creator, node 0, which holds a
  // read token and grants from its copy in distributed mode.)
  ASSERT_TRUE(mutators_[0]->AcquireRead(o2_));
  mutators_[0]->Release(o2_);
  ASSERT_TRUE(mutators_[2]->AcquireRead(o2_));
  mutators_[2]->Release(o2_);
  Oid o2_oid = cluster_->node(0).store().HeaderOf(cluster_->node(0).dsm().ResolveAddr(o2_))->oid;
  ASSERT_EQ(cluster_->node(2).dsm().OwnerHint(o2_oid), 0u);

  // The owner's BGC moves O2; no replica is invalidated (read tokens live).
  cluster_->node(1).gc().CollectBunch(b_);
  Gaddr o2_new = cluster_->node(1).dsm().ResolveAddr(o2_);
  ASSERT_NE(o2_new, o2_);

  // Node 0 synchronizes with the owner on O1 (which references O2): the
  // grant's invariant-1 piggyback tells node 0 where O2 went, and node 0 —
  // holding node 2 in its copy-set for O2 — must forward the news
  // (invariant 2), even though node 2 never talks to the owner.
  uint64_t pushes_before = cluster_->node(0).dsm().stats().pushes_sent;
  ASSERT_TRUE(mutators_[0]->AcquireRead(o1_));
  mutators_[0]->Release(o1_);
  cluster_->Pump();
  EXPECT_GT(cluster_->node(0).dsm().stats().pushes_sent, pushes_before);
  EXPECT_EQ(cluster_->node(2).dsm().ResolveAddr(o2_), o2_new);
}

TEST_F(Fig3, Invariant3_IntraSspCreatedBeforeWriteGrantCompletes) {
  Build(2);
  BunchId other = cluster_->CreateBunch(0);
  // Give O1 an inter-bunch stub at N1.
  Gaddr out = mutators_[0]->Alloc(other, 1);
  mutators_[0]->AddRoot(out);
  mutators_[0]->WriteRef(o1_, 1, out);
  ASSERT_EQ(cluster_->node(0).gc().TablesOf(b_).inter_stubs.size(), 1u);

  // N2 takes O1's write token: by the time the acquire returns, the intra
  // SSP must exist — scion at N1 (old owner), stub at N2 (new owner).
  ASSERT_TRUE(mutators_[1]->AcquireWrite(o1_));
  auto n1_tables = cluster_->node(0).gc().TablesOf(b_);
  auto n2_tables = cluster_->node(1).gc().TablesOf(b_);
  ASSERT_EQ(n1_tables.intra_scions.size(), 1u);
  EXPECT_EQ(n1_tables.intra_scions[0].stub_node, 1u);
  ASSERT_EQ(n2_tables.intra_stubs.size(), 1u);
  EXPECT_EQ(n2_tables.intra_stubs[0].scion_node, 0u);
  mutators_[1]->Release(o1_);
}

TEST_F(Fig3, NoIntraSspWhenOldOwnerHoldsNoStubs) {
  Build(2);
  ASSERT_TRUE(mutators_[1]->AcquireWrite(o2_));  // O2 has no stubs anywhere
  mutators_[1]->Release(o2_);
  EXPECT_TRUE(cluster_->node(0).gc().TablesOf(b_).intra_scions.empty());
  EXPECT_TRUE(cluster_->node(1).gc().TablesOf(b_).intra_stubs.empty());
}

// Invalidation fan-out generalized to N nodes: N-1 readers replicate the
// object, the owner's write upgrade revokes every replica, and every reader's
// next acquire re-faults the new value.
class Fig3Scale : public ::testing::TestWithParam<size_t> {};

TEST_P(Fig3Scale, WriteUpgradeInvalidatesAllReplicas) {
  size_t n = GetParam();
  Cluster cluster({.num_nodes = n});
  std::vector<std::unique_ptr<Mutator>> muts;
  for (NodeId id = 0; id < n; ++id) {
    muts.push_back(std::make_unique<Mutator>(&cluster.node(id)));
  }
  BunchId b = cluster.CreateBunch(0);
  Gaddr a = muts[0]->Alloc(b, 1);
  muts[0]->AddRoot(a);
  muts[0]->WriteWord(a, 0, 1);
  cluster.Pump();
  for (NodeId id = 1; id < n; ++id) {
    ASSERT_TRUE(muts[id]->AcquireRead(a)) << "node " << id;
    EXPECT_EQ(muts[id]->ReadWord(a, 0), 1u);
    muts[id]->Release(a);
  }
  cluster.Pump();
  ASSERT_TRUE(muts[0]->AcquireWrite(a));
  muts[0]->WriteWord(a, 0, 7);
  muts[0]->Release(a);
  cluster.Pump();
  // Every one of the N-1 replicas was invalidated, and every reader observes
  // the new value on its next (re-faulting) acquire.
  for (NodeId id = 1; id < n; ++id) {
    EXPECT_EQ(cluster.node(id).dsm().stats().read_copies_invalidated, 1u) << "node " << id;
    ASSERT_TRUE(muts[id]->AcquireRead(a)) << "node " << id;
    EXPECT_EQ(muts[id]->ReadWord(a, 0), 7u);
    muts[id]->Release(a);
  }
}

INSTANTIATE_TEST_SUITE_P(Scale, Fig3Scale, ::testing::Values(4, 8, 16, 64),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bmx
