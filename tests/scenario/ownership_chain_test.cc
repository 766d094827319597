// Ownership chains: an object transferred through several owners, each old
// owner holding an intra-bunch SSP link toward the previous one (the
// forwarding-link chain §3.2 describes), and the whole chain unwinding when
// the object finally dies.

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

class OwnershipChain : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{.num_nodes = 4});
    for (int i = 0; i < 4; ++i) {
      mutators_.push_back(std::make_unique<Mutator>(&cluster_->node(i)));
    }
    b_ = cluster_->CreateBunch(0);
    other_ = cluster_->CreateBunch(0);
    // Node 0 creates the object and the inter-bunch reference out of it, so
    // node 0 forever holds the inter-bunch stub.
    obj_ = mutators_[0]->Alloc(b_, 2);
    out_ = mutators_[0]->Alloc(other_, 1);
    mutators_[0]->AddRoot(out_);
    mutators_[0]->WriteRef(obj_, 0, out_);

    // Ownership walks 0 -> 1 -> 2 -> 3.  Each transfer from a node holding a
    // stub (inter at 0; intra at 1 and 2) creates the next intra SSP link.
    for (int n = 1; n <= 3; ++n) {
      ASSERT_TRUE(mutators_[n]->AcquireWrite(obj_));
      mutators_[n]->Release(obj_);
    }
    mutators_[3]->AddRoot(obj_);
    cluster_->Pump();
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Mutator>> mutators_;
  BunchId b_ = kInvalidBunch, other_ = kInvalidBunch;
  Gaddr obj_ = kNullAddr, out_ = kNullAddr;
};

TEST_F(OwnershipChain, ChainOfIntraSspLinksExists) {
  // stub@3 -> scion@2, stub@2 -> scion@1, stub@1 -> scion@0: three links.
  for (int n = 1; n <= 3; ++n) {
    auto tables = cluster_->node(n).gc().TablesOf(b_);
    ASSERT_EQ(tables.intra_stubs.size(), 1u) << "node " << n;
    EXPECT_EQ(tables.intra_stubs[0].scion_node, static_cast<NodeId>(n - 1)) << "node " << n;
  }
  for (int n = 0; n <= 2; ++n) {
    auto tables = cluster_->node(n).gc().TablesOf(b_);
    ASSERT_EQ(tables.intra_scions.size(), 1u) << "node " << n;
    EXPECT_EQ(tables.intra_scions[0].stub_node, static_cast<NodeId>(n + 1)) << "node " << n;
  }
  // The single inter-bunch stub still sits at node 0.
  EXPECT_EQ(cluster_->node(0).gc().TablesOf(b_).inter_stubs.size(), 1u);
}

TEST_F(OwnershipChain, ChainKeepsStubHolderAliveThroughCollections) {
  // Repeated collections everywhere: every link's replica survives, because
  // each intra scion is a (weak) root and each live replica re-emits its
  // intra stub.
  for (int round = 0; round < 3; ++round) {
    for (int n = 0; n < 4; ++n) {
      cluster_->node(n).gc().CollectBunch(b_);
      cluster_->Pump();
    }
  }
  for (int n = 0; n < 4; ++n) {
    Gaddr local = cluster_->node(n).dsm().LocalCopyOf(obj_);
    EXPECT_TRUE(cluster_->node(n).store().HeaderOf(local) != nullptr) << "node " << n;
  }
  // And the inter-bunch target is still protected.
  cluster_->node(0).gc().CollectBunch(other_);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_reclaimed, 0u);
}

TEST_F(OwnershipChain, WholeChainUnwindsOnDeath) {
  mutators_[3]->ClearRoot(0);
  // The cascade takes one table round per link: owner dies first, then each
  // previous owner in turn as its intra scion is cleaned.
  for (int round = 0; round < 6; ++round) {
    for (int n = 3; n >= 0; --n) {
      cluster_->node(n).gc().CollectBunch(b_);
      cluster_->Pump();
    }
  }
  uint64_t reclaimed = 0;
  for (int n = 0; n < 4; ++n) {
    reclaimed += cluster_->node(n).gc().stats().objects_reclaimed;
    EXPECT_TRUE(cluster_->node(n).gc().TablesOf(b_).intra_stubs.empty()) << "node " << n;
    EXPECT_TRUE(cluster_->node(n).gc().TablesOf(b_).intra_scions.empty()) << "node " << n;
  }
  EXPECT_GE(reclaimed, 4u);  // all four replicas of obj
  // With the last stub gone, the inter-bunch target dies too.
  mutators_[0]->ClearRoot(0);  // drop node 0's own root on `out`
  cluster_->node(0).gc().CollectBunch(other_);
  EXPECT_GE(cluster_->node(0).gc().stats().objects_reclaimed, 1u);
}

}  // namespace
}  // namespace bmx
