// Ownership-transfer policy tests (§3.2): the paper's intra-bunch SSPs vs
// the rejected alternative of replicating inter-bunch SSPs at every new
// owner.  Both must preserve liveness; the difference is the message and
// memory bill, which the ablation benchmark quantifies.

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

struct PolicyRig {
  PolicyRig(TransferPolicy policy, size_t nodes = 3) : cluster({.num_nodes = nodes}) {
    for (size_t i = 0; i < nodes; ++i) {
      cluster.node(i).gc().set_transfer_policy(policy);
      mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
    }
    b = cluster.CreateBunch(0);
    other = cluster.CreateBunch(0);
    // Node 0 creates obj with an inter-bunch reference out of it.
    obj = mutators[0]->Alloc(b, 2);
    out = mutators[0]->Alloc(other, 1);
    mutators[0]->AddRoot(out);
    mutators[0]->WriteRef(obj, 0, out);
  }
  Cluster cluster;
  std::vector<std::unique_ptr<Mutator>> mutators;
  BunchId b = kInvalidBunch, other = kInvalidBunch;
  Gaddr obj = kNullAddr, out = kNullAddr;
};

TEST(TransferPolicy, IntraSspCreatesOneLink) {
  PolicyRig rig(TransferPolicy::kIntraSsp);
  ASSERT_TRUE(rig.mutators[1]->AcquireWrite(rig.obj));
  rig.mutators[1]->Release(rig.obj);
  // One intra SSP; the inter stub stays where it was created; NO new scion
  // messages flowed.
  EXPECT_EQ(rig.cluster.node(0).gc().TablesOf(rig.b).intra_scions.size(), 1u);
  EXPECT_EQ(rig.cluster.node(1).gc().TablesOf(rig.b).intra_stubs.size(), 1u);
  EXPECT_EQ(rig.cluster.node(1).gc().TablesOf(rig.b).inter_stubs.size(), 0u);
  EXPECT_EQ(rig.cluster.node(1).gc().stats().scion_messages_sent, 0u);
}

TEST(TransferPolicy, ReplicateCopiesInterStubs) {
  PolicyRig rig(TransferPolicy::kReplicateInterSsp);
  ASSERT_TRUE(rig.mutators[1]->AcquireWrite(rig.obj));
  rig.mutators[1]->Release(rig.obj);
  rig.cluster.Pump();
  // The new owner holds its own copy of the inter stub; no intra SSP exists.
  EXPECT_EQ(rig.cluster.node(1).gc().TablesOf(rig.b).inter_stubs.size(), 1u);
  EXPECT_TRUE(rig.cluster.node(1).gc().TablesOf(rig.b).intra_stubs.empty());
  EXPECT_TRUE(rig.cluster.node(0).gc().TablesOf(rig.b).intra_scions.empty());
  // A second scion now guards the target (one per stub copy): the extra
  // memory the paper's design avoids.
  size_t scions = rig.cluster.node(0).gc().TablesOf(rig.other).inter_scions.size() +
                  rig.cluster.node(1).gc().TablesOf(rig.other).inter_scions.size();
  EXPECT_EQ(scions, 2u);
}

TEST(TransferPolicy, BothPoliciesKeepTargetAlive) {
  for (TransferPolicy policy : {TransferPolicy::kIntraSsp, TransferPolicy::kReplicateInterSsp}) {
    PolicyRig rig(policy);
    ASSERT_TRUE(rig.mutators[1]->AcquireWrite(rig.obj));
    rig.mutators[1]->Release(rig.obj);
    rig.mutators[1]->AddRoot(rig.obj);
    rig.cluster.Pump();
    // Collect everywhere a few times: the target must survive as long as the
    // (moved) object still references it.
    for (int round = 0; round < 3; ++round) {
      for (NodeId n = 0; n < 3; ++n) {
        rig.cluster.node(n).gc().CollectBunch(rig.b);
        rig.cluster.Pump();
        rig.cluster.node(n).gc().CollectBunch(rig.other);
        rig.cluster.Pump();
      }
    }
    Gaddr out_now = rig.cluster.node(0).dsm().ResolveAddr(rig.out);
    EXPECT_TRUE(rig.cluster.node(0).store().HeaderOf(out_now) != nullptr)
        << "policy " << static_cast<int>(policy);
  }
}

TEST(TransferPolicy, BothPoliciesReclaimOnceDead) {
  for (TransferPolicy policy : {TransferPolicy::kIntraSsp, TransferPolicy::kReplicateInterSsp}) {
    PolicyRig rig(policy);
    ASSERT_TRUE(rig.mutators[1]->AcquireWrite(rig.obj));
    rig.mutators[1]->Release(rig.obj);
    size_t root = rig.mutators[1]->AddRoot(rig.obj);
    rig.cluster.Pump();
    // Drop the object everywhere; the inter-bunch stub(s) must die with it
    // and the target must eventually be reclaimed (it has no mutator root —
    // drop node 0's root on it too).
    rig.mutators[0]->ClearRoot(0);
    rig.mutators[1]->ClearRoot(root);
    bool reclaimed = false;
    for (int round = 0; round < 6 && !reclaimed; ++round) {
      for (NodeId n = 0; n < 3; ++n) {
        rig.cluster.node(n).gc().CollectGroup();
        rig.cluster.Pump();
      }
      reclaimed = rig.cluster.node(0).gc().stats().objects_reclaimed +
                      rig.cluster.node(1).gc().stats().objects_reclaimed >=
                  2;
    }
    EXPECT_TRUE(reclaimed) << "policy " << static_cast<int>(policy);
  }
}

TEST(TransferPolicy, ReplicationCostGrowsWithStubCount) {
  // The quantitative §3.2 argument: with S inter-bunch references, the
  // replicate policy ships S stubs per transfer (scion-messages when targets
  // are remote); the intra-SSP policy ships exactly one link regardless.
  constexpr size_t kStubs = 5;
  for (TransferPolicy policy : {TransferPolicy::kIntraSsp, TransferPolicy::kReplicateInterSsp}) {
    Cluster cluster({.num_nodes = 2});
    for (NodeId n = 0; n < 2; ++n) {
      cluster.node(n).gc().set_transfer_policy(policy);
    }
    Mutator m0(&cluster.node(0));
    Mutator m1(&cluster.node(1));
    BunchId b = cluster.CreateBunch(0);
    BunchId other = cluster.CreateBunch(0);
    Gaddr obj = m0.Alloc(b, kStubs);
    for (size_t i = 0; i < kStubs; ++i) {
      Gaddr out = m0.Alloc(other, 1);
      m0.AddRoot(out);
      m0.WriteRef(obj, i, out);
    }
    ASSERT_TRUE(m1.AcquireWrite(obj));
    m1.Release(obj);
    cluster.Pump();
    size_t new_owner_stubs = cluster.node(1).gc().TablesOf(b).inter_stubs.size() +
                             cluster.node(1).gc().TablesOf(b).intra_stubs.size();
    if (policy == TransferPolicy::kIntraSsp) {
      EXPECT_EQ(new_owner_stubs, 1u);  // one intra link
    } else {
      EXPECT_EQ(new_owner_stubs, kStubs);  // S replicated stubs
    }
  }
}

}  // namespace
}  // namespace bmx
