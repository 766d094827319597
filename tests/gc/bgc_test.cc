// Bunch-garbage-collection semantics (paper §4): copy-vs-scan by ownership,
// non-destructive copies, local reference updates without tokens, table
// rebuild rules, exiting-ownerPtr emission (with the §6.2 weak-root
// exception), and replica independence.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

Oid OidOf(Node& node, Gaddr addr) {
  return node.store().HeaderOf(node.dsm().ResolveAddr(addr))->oid;
}

class BgcTest : public ::testing::Test {
 protected:
  void Build(size_t nodes) {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{.num_nodes = nodes});
    for (size_t i = 0; i < nodes; ++i) {
      mutators_.push_back(std::make_unique<Mutator>(&cluster_->node(i)));
    }
  }
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Mutator>> mutators_;
};

TEST_F(BgcTest, NonOwnedObjectsAreScannedNotCopied) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 2);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->WriteWord(a, 0, 1);
  mutators_[0]->Release(a);
  mutators_[0]->AddRoot(a);

  // Node 1 caches a and roots it: non-owned replica.
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  mutators_[1]->AddRoot(a);

  cluster_->node(1).gc().CollectBunch(b);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_copied, 0u);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_scanned, 1u);
  // Address unchanged at node 1.
  EXPECT_EQ(cluster_->node(1).dsm().ResolveAddr(a), a);
}

TEST_F(BgcTest, CopyIsNonDestructive) {
  Build(1);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 2);
  mutators_[0]->WriteWord(a, 1, 99);
  mutators_[0]->AddRoot(a);
  cluster_->node(0).gc().CollectBunch(b);

  // Old location keeps a forwarding header AND the old data (O'Toole-style).
  const ObjectHeader* old_header = cluster_->node(0).store().HeaderOf(a);
  ASSERT_TRUE(old_header->forwarded());
  EXPECT_EQ(cluster_->node(0).store().ReadSlot(a, 1), 99u);
  Gaddr fresh = old_header->forward;
  EXPECT_EQ(cluster_->node(0).store().ReadSlot(fresh, 1), 99u);
}

TEST_F(BgcTest, LocalReferencesUpdatedWithoutTokens) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  // Node 0 owns `target`; node 1 owns `holder` which references target.
  Gaddr target = mutators_[0]->Alloc(b, 1);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(target));
  mutators_[0]->WriteWord(target, 0, 5);
  mutators_[0]->Release(target);
  mutators_[0]->AddRoot(target);

  ASSERT_TRUE(mutators_[1]->AcquireRead(target));
  mutators_[1]->Release(target);
  Gaddr holder = mutators_[1]->Alloc(b, 1);
  mutators_[1]->WriteRef(holder, 0, target);
  mutators_[1]->AddRoot(holder);

  // Transfer holder's bytes to node 0 (so node 0's BGC sees the reference).
  ASSERT_TRUE(mutators_[0]->AcquireRead(holder));
  mutators_[0]->Release(holder);
  mutators_[0]->AddRoot(holder);

  cluster_->node(0).dsm().ResetStats();
  cluster_->node(0).gc().CollectBunch(b);
  // target (owned) was copied; holder (not owned) merely scanned, but its
  // local copy's reference slot was updated to the new address — with zero
  // token traffic (§4.4).
  Gaddr new_target = cluster_->node(0).dsm().ResolveAddr(target);
  ASSERT_NE(new_target, target);
  Gaddr holder_local = cluster_->node(0).dsm().ResolveAddr(holder);
  EXPECT_EQ(cluster_->node(0).store().ReadSlot(holder_local, 0), new_target);
  EXPECT_EQ(cluster_->node(0).dsm().GcTokenAcquires(), 0u);
  // Node 1's copy still holds the old address — replicas legitimately
  // diverge (§4.2) until they synchronize.
  Gaddr holder_at_1 = cluster_->node(1).dsm().ResolveAddr(holder);
  EXPECT_EQ(cluster_->node(1).store().ReadSlot(holder_at_1, 0), target);
}

TEST_F(BgcTest, DeadStubDroppedAfterOverwrite) {
  Build(1);
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = mutators_[0]->Alloc(b1, 2);
  Gaddr t1 = mutators_[0]->Alloc(b2, 1);
  Gaddr t2 = mutators_[0]->Alloc(b2, 1);
  mutators_[0]->AddRoot(src);
  mutators_[0]->AddRoot(t1);  // keep t1 alive independently
  mutators_[0]->AddRoot(t2);
  mutators_[0]->WriteRef(src, 0, t1);
  mutators_[0]->WriteRef(src, 0, t2);
  ASSERT_EQ(cluster_->node(0).gc().TablesOf(b1).inter_stubs.size(), 2u);

  cluster_->node(0).gc().CollectBunch(b1);
  auto stubs = cluster_->node(0).gc().TablesOf(b1).inter_stubs;
  ASSERT_EQ(stubs.size(), 1u);
  EXPECT_TRUE(cluster_->node(0).gc().SameObject(stubs[0].target_addr, t2));
  // The cleaner (local) also dropped t1's scion.
  auto scions = cluster_->node(0).gc().TablesOf(b2).inter_scions;
  ASSERT_EQ(scions.size(), 1u);
  EXPECT_EQ(scions[0].stub_id, stubs[0].id);
}

TEST_F(BgcTest, StubOfDeadSourceObjectDropped) {
  Build(1);
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = mutators_[0]->Alloc(b1, 2);
  Gaddr dst = mutators_[0]->Alloc(b2, 1);
  mutators_[0]->WriteRef(src, 0, dst);  // src never rooted: garbage
  ASSERT_EQ(cluster_->node(0).gc().TablesOf(b1).inter_stubs.size(), 1u);

  cluster_->node(0).gc().CollectBunch(b1);
  EXPECT_TRUE(cluster_->node(0).gc().TablesOf(b1).inter_stubs.empty());
  // Cascades: scion gone, so a b2 collection reclaims dst.
  cluster_->node(0).gc().CollectBunch(b2);
  EXPECT_GE(cluster_->node(0).gc().stats().objects_reclaimed, 2u);
}

TEST_F(BgcTest, ScionKeepsObjectAliveWithoutMutatorRoot) {
  Build(1);
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = mutators_[0]->Alloc(b1, 2);
  Gaddr dst = mutators_[0]->Alloc(b2, 1);
  mutators_[0]->AddRoot(src);
  mutators_[0]->WriteRef(src, 0, dst);

  // dst has no mutator root; only the inter-bunch scion keeps it alive.
  cluster_->node(0).gc().CollectBunch(b2);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_reclaimed, 0u);
  Gaddr dst_now = cluster_->node(0).dsm().ResolveAddr(dst);
  EXPECT_TRUE(cluster_->node(0).store().HeaderOf(dst_now) != nullptr);
}

TEST_F(BgcTest, EnteringOwnerPtrIsARoot) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 1);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->Release(a);
  // Node 1 holds a replica (rooted there); node 0 has NO local root.
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  mutators_[1]->AddRoot(a);

  cluster_->node(0).gc().CollectBunch(b);
  // Alive at node 0 purely via the entering ownerPtr from node 1.
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_reclaimed, 0u);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_copied, 1u);
}

TEST_F(BgcTest, ExitingOwnerPtrEmittedForStrongNonOwned) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 1);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->Release(a);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  mutators_[1]->AddRoot(a);
  Oid oid = OidOf(cluster_->node(1), a);

  // Node 1's BGC emits an exiting ownerPtr; node 0 keeps its entering entry.
  cluster_->node(1).gc().CollectBunch(b);
  cluster_->Pump();
  const auto& entering = cluster_->node(0).dsm().EnteringFor(b);
  ASSERT_TRUE(entering.count(oid) > 0);
  EXPECT_TRUE(entering.at(oid).count(1) > 0);

  // Drop the root at node 1: next BGC's table omits the exiting ownerPtr and
  // the cleaner at node 0 prunes the entering entry.
  mutators_[1]->ClearRoot(0);
  cluster_->node(1).gc().CollectBunch(b);
  cluster_->Pump();
  EXPECT_EQ(cluster_->node(0).dsm().EnteringFor(b).count(oid), 0u);
}

TEST_F(BgcTest, SegmentOverflowGrowsBunch) {
  Build(1);
  BunchId b = cluster_->CreateBunch(0);
  // Allocate more than one segment's worth of objects.
  size_t per_object = ObjectFootprintBytes(16);
  size_t count = kSegmentBytes / per_object + 10;
  Gaddr last = kNullAddr;
  for (size_t i = 0; i < count; ++i) {
    last = mutators_[0]->Alloc(b, 16);
  }
  ASSERT_NE(last, kNullAddr);
  EXPECT_GE(cluster_->directory().SegmentsOfBunch(b).size(), 2u);
}

// The trace's liveness record across segments and mark-word boundaries:
// LiveObjects' order (strong ascending, then weak-only), exact copy and
// reclaim counts, and the weak-only object's missing exiting entry.
TEST_F(BgcTest, LivenessAcrossSegmentsAndWordBoundaries) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  BunchId other = cluster_->CreateBunch(0);
  Mutator& m0 = *mutators_[0];

  // `weak` sits lowest in the bunch.  Its inter-bunch reference gives node 0
  // a stub, so the ownership transfer leaves node 0 an intra-bunch scion: the
  // object's only root there.
  Gaddr weak = m0.Alloc(b, 2);
  m0.WriteRef(weak, 0, m0.Alloc(other, 1));
  ASSERT_TRUE(mutators_[1]->AcquireWrite(weak));
  mutators_[1]->Release(weak);
  ASSERT_EQ(cluster_->node(0).gc().TablesOf(b).intra_scions.size(), 1u);
  Oid weak_oid = OidOf(cluster_->node(1), weak);

  // Live objects alternate with garbage until the bunch spills into a second
  // segment; every object in a segment's last mark word is live.  The live
  // ones form one rooted list carrying their index in slot 1.
  auto slot_of = [](Gaddr addr) { return OffsetInSegment(addr) / kSlotBytes; };
  const SegmentId first_segment = SegmentOf(weak);
  std::vector<Gaddr> live;
  size_t garbage = 0;
  size_t root = 0;
  for (size_t i = 0; live.empty() || SegmentOf(live.back()) == first_segment ||
                     slot_of(live.back()) < 256;
       ++i) {
    Gaddr obj = m0.Alloc(b, 2);
    if (i % 2 == 1 && slot_of(obj) < kSlotsPerSegment - 64) {
      garbage++;
      continue;
    }
    m0.WriteWord(obj, 1, live.size());
    if (live.empty()) {
      root = m0.AddRoot(obj);
    } else {
      m0.WriteRef(live.back(), 0, obj);
    }
    live.push_back(obj);
  }
  bool straddles_word = false;
  bool in_last_word = false;
  for (size_t k = 1; k < live.size(); ++k) {
    straddles_word |= SegmentOf(live[k]) == SegmentOf(live[k - 1]) &&
                      slot_of(live[k]) / 64 != slot_of(live[k - 1]) / 64;
    in_last_word |= slot_of(live[k]) >= kSlotsPerSegment - 64;
  }
  ASSERT_TRUE(straddles_word);
  ASSERT_TRUE(in_last_word);

  std::vector<Gaddr> expected = live;
  std::sort(expected.begin(), expected.end());
  expected.push_back(weak);
  EXPECT_EQ(cluster_->node(0).gc().LiveObjects(b), expected);

  cluster_->node(0).gc().CollectBunch(b);
  cluster_->Pump();
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_copied, live.size());
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_reclaimed, garbage);
  Gaddr cur = m0.Root(root);
  for (size_t k = 0; k < live.size(); ++k) {
    ASSERT_NE(cur, kNullAddr);
    EXPECT_TRUE(m0.SameObject(cur, live[k]));
    ASSERT_TRUE(m0.AcquireRead(cur));
    EXPECT_EQ(m0.ReadWord(cur, 1), k);
    Gaddr next = m0.ReadRef(cur, 0);
    m0.Release(cur);
    cur = next;
  }
  EXPECT_EQ(cur, kNullAddr);
  // The weak-only replica survives but reports no exiting ownerPtr, so its
  // owner registers no entering entry from node 0 (§6.2).
  EXPECT_TRUE(cluster_->node(0).store().HeaderOf(cluster_->node(0).dsm().ResolveAddr(weak)) !=
              nullptr);
  const auto& entering = cluster_->node(1).dsm().EnteringFor(b);
  EXPECT_TRUE(entering.count(weak_oid) == 0 || entering.at(weak_oid).count(0) == 0);
}

TEST_F(BgcTest, MultipleCollectionsChainForwarders) {
  Build(1);
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = mutators_[0]->Alloc(b, 2);
  mutators_[0]->WriteWord(a, 1, 31);
  size_t root = mutators_[0]->AddRoot(a);
  for (int i = 0; i < 4; ++i) {
    cluster_->node(0).gc().CollectBunch(b);
  }
  Gaddr current = mutators_[0]->Root(root);
  EXPECT_TRUE(mutators_[0]->SameObject(current, a));
  ASSERT_TRUE(mutators_[0]->AcquireRead(current));
  EXPECT_EQ(mutators_[0]->ReadWord(current, 1), 31u);
  mutators_[0]->Release(current);
  // Old address still resolves through the chain.
  EXPECT_EQ(cluster_->node(0).dsm().ResolveAddr(a), cluster_->node(0).dsm().ResolveAddr(current));
}

TEST_F(BgcTest, IndependentCollectionOfReplicas) {
  Build(2);
  BunchId b = cluster_->CreateBunch(0);
  // Each node owns half the objects of the shared bunch.
  Gaddr a0 = mutators_[0]->Alloc(b, 2);
  mutators_[0]->AddRoot(a0);
  Gaddr a1 = mutators_[1]->Alloc(b, 2);
  mutators_[1]->AddRoot(a1);
  // Cross-cache: each node replicates the other's object.
  ASSERT_TRUE(mutators_[0]->AcquireRead(a1));
  mutators_[0]->Release(a1);
  mutators_[0]->AddRoot(a1);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a0));
  mutators_[1]->Release(a0);
  mutators_[1]->AddRoot(a0);

  // Collect both replicas independently; each copies only what it owns.
  cluster_->node(0).gc().CollectBunch(b);
  cluster_->node(1).gc().CollectBunch(b);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_copied, 1u);
  EXPECT_EQ(cluster_->node(0).gc().stats().objects_scanned, 1u);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_copied, 1u);
  EXPECT_EQ(cluster_->node(1).gc().stats().objects_scanned, 1u);
  // The same object now legitimately lives at different addresses on the two
  // nodes (§4.2): node 0 moved a0, node 1 still has it at the old address.
  EXPECT_NE(cluster_->node(0).dsm().ResolveAddr(a0), cluster_->node(1).dsm().ResolveAddr(a0));
  cluster_->Pump();
  // Node 1 still holds a valid read token for a0, so re-acquiring is a local
  // fast path — NOT a synchronization point; addresses stay divergent.
  ASSERT_TRUE(mutators_[1]->AcquireRead(a0));
  mutators_[1]->Release(a0);
  EXPECT_NE(cluster_->node(0).dsm().ResolveAddr(a0), cluster_->node(1).dsm().ResolveAddr(a0));
  // Force a real synchronization: the owner upgrades (invalidating node 1's
  // token); node 1's next acquire is remote and invariant 1 reconciles the
  // addresses (§5).
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a0));
  mutators_[0]->Release(a0);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a0));
  mutators_[1]->Release(a0);
  EXPECT_EQ(cluster_->node(0).dsm().ResolveAddr(a0), cluster_->node(1).dsm().ResolveAddr(a0));
}

}  // namespace
}  // namespace bmx
