// Entry-consistency protocol tests (paper §2.2, §5): token fast paths,
// ownership transfer along ownerPtr chains, invalidation (including deferral
// inside critical sections), distributed copy-sets and the invariant-2
// new-location forwarding, entering/exiting ownerPtr bookkeeping.

#include <gtest/gtest.h>

#include "src/common/perf_counters.h"
#include "src/common/retry.h"
#include "src/dsm/piggyback.h"
#include "src/gc/payloads.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

Oid OidOf(Node& node, Gaddr addr) {
  Gaddr resolved = node.dsm().ResolveAddr(addr);
  return node.store().HeaderOf(resolved)->oid;
}

class DsmTest : public ::testing::Test {
 protected:
  void Build(size_t nodes, CopySetMode mode = CopySetMode::kCentralized) {
    cluster_ = std::make_unique<Cluster>(
        ClusterOptions{.num_nodes = nodes, .copyset_mode = mode});
    for (size_t i = 0; i < nodes; ++i) {
      mutators_.push_back(std::make_unique<Mutator>(&cluster_->node(i)));
    }
    bunch_ = cluster_->CreateBunch(0);
  }

  Gaddr AllocAt(NodeId node, uint32_t slots = 2) { return mutators_[node]->Alloc(bunch_, slots); }

  // From now on, keeps the address updates of every grant delivered, in
  // delivery order.
  void RecordGrants() {
    cluster_->network().set_delivery_observer([this](const Message& msg) {
      if (msg.payload->kind() == MsgKind::kGrant) {
        grants_.push_back(static_cast<const GrantPayload&>(*msg.payload).piggyback.updates);
      }
    });
  }

  // One read critical section of `node` on `addr`.
  void Read(NodeId node, Gaddr addr) {
    ASSERT_TRUE(mutators_[node]->AcquireRead(addr));
    mutators_[node]->Release(addr);
  }
  // One write critical section: at the owner, it invalidates every reader.
  void Write(NodeId node, Gaddr addr) {
    ASSERT_TRUE(mutators_[node]->AcquireWrite(addr));
    mutators_[node]->Release(addr);
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Mutator>> mutators_;
  BunchId bunch_ = kInvalidBunch;
  std::vector<std::vector<AddressUpdate>> grants_;
};

TEST_F(DsmTest, CreatorOwnsNewObject) {
  Build(2);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  EXPECT_TRUE(cluster_->node(0).dsm().IsLocallyOwned(oid));
  EXPECT_EQ(cluster_->node(0).dsm().StateOf(oid), TokenState::kWrite);
  EXPECT_FALSE(cluster_->node(1).dsm().Knows(oid));
}

// Invariant-1 piggybacks ship move chains: one update per address the object
// has left, each aimed straight at its latest address.
TEST_F(DsmTest, MoveChainShipsOneUpdatePerOldAddress) {
  Build(1);
  Gaddr a = AllocAt(0);
  mutators_[0]->AddRoot(a);
  DsmNode& dsm = cluster_->node(0).dsm();
  Oid oid = OidOf(cluster_->node(0), a);
  std::vector<Gaddr> addrs = {a};
  for (int i = 0; i < 3; ++i) {
    cluster_->node(0).gc().CollectBunch(bunch_);
    addrs.push_back(dsm.ResolveAddr(a));
  }
  std::vector<AddressUpdate> updates = dsm.BuildInvariant1Updates(oid, /*dst=*/1);
  ASSERT_EQ(updates.size(), 3u);
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i].oid, oid);
    EXPECT_EQ(updates[i].bunch, bunch_);
    EXPECT_EQ(updates[i].old_addr, addrs[i]);
    EXPECT_EQ(updates[i].new_addr, addrs.back());
  }
}

TEST_F(DsmTest, RepeatedReferentShipsItsChainOnce) {
  Build(1);
  Gaddr holder = AllocAt(0, 3);
  Gaddr target = AllocAt(0);
  mutators_[0]->WriteRef(holder, 0, target);
  mutators_[0]->WriteRef(holder, 2, target);
  mutators_[0]->AddRoot(holder);
  for (int i = 0; i < 2; ++i) {
    cluster_->node(0).gc().CollectBunch(bunch_);
  }
  Oid holder_oid = OidOf(cluster_->node(0), holder);
  Oid target_oid = OidOf(cluster_->node(0), target);

  cluster_->perf().Reset();
  std::vector<AddressUpdate> updates =
      cluster_->node(0).dsm().BuildInvariant1Updates(holder_oid, /*dst=*/1);
  // The holder's two moves, then the target's two, shipped once.
  ASSERT_EQ(updates.size(), 4u);
  EXPECT_EQ(updates[0].oid, holder_oid);
  EXPECT_EQ(updates[1].oid, holder_oid);
  EXPECT_EQ(updates[2].oid, target_oid);
  EXPECT_EQ(updates[3].oid, target_oid);
  // The second slot's copy of the chain is counted as coalesced.
  EXPECT_EQ(cluster_->perf().piggyback_updates_coalesced, 2u);
  EXPECT_EQ(cluster_->perf().piggyback_bytes_saved, 2 * kAddressUpdateWireBytes);
}

TEST_F(DsmTest, LocalMoveFromAKnownAddressMovesOnlyTheLatest) {
  Build(1);
  Gaddr a = AllocAt(0);
  mutators_[0]->AddRoot(a);
  DsmNode& dsm = cluster_->node(0).dsm();
  Oid oid = OidOf(cluster_->node(0), a);
  cluster_->node(0).gc().CollectBunch(bunch_);
  Gaddr moved = dsm.ResolveAddr(a);
  ASSERT_NE(moved, a);
  // Bookkeeping only: a second move away from `a`, to an address with no
  // bytes, must not add a second entry for `a`.
  Gaddr elsewhere = moved + 16 * kSlotBytes;
  dsm.RecordLocalMove(oid, a, elsewhere, bunch_);
  std::vector<AddressUpdate> updates = dsm.BuildInvariant1Updates(oid, /*dst=*/1);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].old_addr, a);
  EXPECT_EQ(updates[0].new_addr, elsewhere);
}

// A peer is sent each chain entry once: a re-grant after no new move carries
// nothing, and one more move carries one update, from the address the peer
// was last sent to the new latest.
TEST_F(DsmTest, RegrantShipsOnlyTheMovesThePeerHasNotBeenSent) {
  Build(2);
  Gaddr a = AllocAt(0);
  mutators_[0]->AddRoot(a);
  DsmNode& owner = cluster_->node(0).dsm();
  for (int i = 0; i < 2; ++i) {
    cluster_->node(0).gc().CollectBunch(bunch_);
  }
  RecordGrants();
  Read(1, a);
  Write(0, a);  // pulls node 1's copy, so its next read is granted again
  Read(1, a);
  ASSERT_EQ(grants_.size(), 2u);
  EXPECT_EQ(grants_[0].size(), 2u);
  EXPECT_TRUE(grants_[1].empty());

  Gaddr previous = owner.ResolveAddr(a);
  Write(0, a);
  cluster_->node(0).gc().CollectBunch(bunch_);
  Gaddr latest = owner.ResolveAddr(a);
  ASSERT_NE(latest, previous);
  Read(1, a);
  ASSERT_EQ(grants_.size(), 3u);
  ASSERT_EQ(grants_[2].size(), 1u);
  EXPECT_EQ(grants_[2][0].old_addr, previous);
  EXPECT_EQ(grants_[2][0].new_addr, latest);
}

// What a peer was sent dies with its incarnation: a restarted reader is sent
// the whole chain again.
TEST_F(DsmTest, RestartedPeerIsSentTheWholeChainAgain) {
  Build(2);
  Gaddr a = AllocAt(0);
  mutators_[0]->AddRoot(a);
  for (int i = 0; i < 2; ++i) {
    cluster_->node(0).gc().CollectBunch(bunch_);
  }
  RecordGrants();
  Read(1, a);
  mutators_[1].reset();  // a Mutator must not outlive its node
  cluster_->CrashNode(1);
  mutators_[1] = std::make_unique<Mutator>(&cluster_->RestartNode(1));
  Read(1, a);
  ASSERT_EQ(grants_.size(), 2u);
  EXPECT_EQ(grants_[0].size(), 2u);
  EXPECT_EQ(grants_[1].size(), 2u);
}

// A local move away from an address the chain already holds changes only the
// latest address; a peer that had the chain is sent all of it again, re-aimed.
TEST_F(DsmTest, LocalMoveFromAKnownAddressReaimsTheWholeChain) {
  Build(1);
  Gaddr a = AllocAt(0);
  mutators_[0]->AddRoot(a);
  DsmNode& dsm = cluster_->node(0).dsm();
  Oid oid = OidOf(cluster_->node(0), a);
  for (int i = 0; i < 2; ++i) {
    cluster_->node(0).gc().CollectBunch(bunch_);
  }
  ASSERT_EQ(dsm.BuildInvariant1Updates(oid, /*dst=*/1).size(), 2u);
  ASSERT_TRUE(dsm.BuildInvariant1Updates(oid, /*dst=*/1).empty());
  // Bookkeeping only, as in LocalMoveFromAKnownAddressMovesOnlyTheLatest.
  Gaddr elsewhere = dsm.ResolveAddr(a) + 16 * kSlotBytes;
  dsm.RecordLocalMove(oid, a, elsewhere, bunch_);
  std::vector<AddressUpdate> updates = dsm.BuildInvariant1Updates(oid, /*dst=*/1);
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_EQ(updates[0].old_addr, a);
  for (const AddressUpdate& update : updates) {
    EXPECT_EQ(update.new_addr, elsewhere);
  }
}

// A node that learned a chain one delta at a time holds all of it, and sends
// all of it to a peer it has sent nothing.
TEST_F(DsmTest, ChainLearnedInDeltasShipsWholeToANewPeer) {
  Build(3);
  Gaddr a = AllocAt(0);
  mutators_[0]->AddRoot(a);
  DsmNode& creator = cluster_->node(0).dsm();
  cluster_->node(0).gc().CollectBunch(bunch_);
  Gaddr first = creator.ResolveAddr(a);
  RecordGrants();
  Read(1, a);
  Write(0, a);
  cluster_->node(0).gc().CollectBunch(bunch_);
  Gaddr second = creator.ResolveAddr(a);
  Read(1, a);
  Write(1, a);  // node 1 takes ownership, and with it the granting
  Read(2, a);
  ASSERT_EQ(grants_.size(), 4u);
  EXPECT_EQ(grants_[0].size(), 1u);  // a -> first
  ASSERT_EQ(grants_[1].size(), 1u);  // first -> second: the delta
  EXPECT_EQ(grants_[1][0].old_addr, first);
  EXPECT_TRUE(grants_[2].empty());  // node 1 has every entry
  ASSERT_EQ(grants_[3].size(), 2u);  // node 1 to node 2: the whole chain
  EXPECT_EQ(grants_[3][0].old_addr, a);
  EXPECT_EQ(grants_[3][1].old_addr, first);
  EXPECT_EQ(grants_[3][0].new_addr, second);
  EXPECT_EQ(grants_[3][1].new_addr, second);
}

TEST_F(DsmTest, LocalAcquireNeedsNoMessages) {
  Build(2);
  Gaddr a = AllocAt(0);
  cluster_->network().ResetStats();
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->Release(a);
  ASSERT_TRUE(mutators_[0]->AcquireRead(a));
  mutators_[0]->Release(a);
  EXPECT_EQ(cluster_->network().stats().TotalSent(), 0u);
}

TEST_F(DsmTest, ReadGrantDowngradesOwnerAndTracksCopyset) {
  Build(2);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  EXPECT_EQ(cluster_->node(0).dsm().StateOf(oid), TokenState::kRead);
  EXPECT_EQ(cluster_->node(1).dsm().StateOf(oid), TokenState::kRead);
  EXPECT_TRUE(cluster_->node(0).dsm().IsLocallyOwned(oid));
  EXPECT_FALSE(cluster_->node(1).dsm().IsLocallyOwned(oid));
  EXPECT_EQ(cluster_->node(1).dsm().OwnerHint(oid), 0u);
  // Entering ownerPtr registered at the owner.
  const auto& entering = cluster_->node(0).dsm().EnteringFor(bunch_);
  ASSERT_TRUE(entering.count(oid) > 0);
  EXPECT_TRUE(entering.at(oid).count(1) > 0);
}

TEST_F(DsmTest, OwnerWriteUpgradeInvalidatesReaders) {
  Build(3);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  ASSERT_TRUE(mutators_[2]->AcquireRead(a));
  mutators_[2]->Release(a);

  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->WriteWord(a, 0, 77);
  mutators_[0]->Release(a);

  EXPECT_EQ(cluster_->node(1).dsm().StateOf(oid), TokenState::kNone);
  EXPECT_EQ(cluster_->node(2).dsm().StateOf(oid), TokenState::kNone);
  EXPECT_EQ(cluster_->node(0).dsm().StateOf(oid), TokenState::kWrite);
  EXPECT_EQ(cluster_->node(1).dsm().stats().read_copies_invalidated, 1u);

  // Readers re-acquire and see the new value.
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  EXPECT_EQ(mutators_[1]->ReadWord(a, 0), 77u);
  mutators_[1]->Release(a);
}

TEST_F(DsmTest, OwnershipTransferMovesEnteringSet) {
  Build(3);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  ASSERT_TRUE(mutators_[2]->AcquireRead(a));
  mutators_[2]->Release(a);

  ASSERT_TRUE(mutators_[1]->AcquireWrite(a));
  mutators_[1]->Release(a);

  EXPECT_TRUE(cluster_->node(1).dsm().IsLocallyOwned(oid));
  EXPECT_FALSE(cluster_->node(0).dsm().IsLocallyOwned(oid));
  EXPECT_EQ(cluster_->node(0).dsm().OwnerHint(oid), 1u);

  // The new owner's entering set covers the old owner and the old reader.
  const auto& entering = cluster_->node(1).dsm().EnteringFor(bunch_);
  ASSERT_TRUE(entering.count(oid) > 0);
  EXPECT_TRUE(entering.at(oid).count(0) > 0);
  EXPECT_TRUE(entering.at(oid).count(2) > 0);
  EXPECT_FALSE(entering.at(oid).count(1) > 0);
  // The old owner's entering entry is gone.
  EXPECT_EQ(cluster_->node(0).dsm().EnteringFor(bunch_).count(oid), 0u);
}

TEST_F(DsmTest, RequestsForwardAlongOwnerPtrChain) {
  Build(4);
  Gaddr a = AllocAt(0);
  // Ownership walks 0 -> 1 -> 2.
  ASSERT_TRUE(mutators_[1]->AcquireWrite(a));
  mutators_[1]->Release(a);
  ASSERT_TRUE(mutators_[2]->AcquireWrite(a));
  mutators_[2]->Release(a);
  // Node 3 asks node 0 (segment creator fallback); the request must chain
  // through the stale ownerPtrs to node 2.
  ASSERT_TRUE(mutators_[3]->AcquireWrite(a));
  mutators_[3]->WriteWord(a, 0, 5);
  mutators_[3]->Release(a);
  Oid oid = OidOf(cluster_->node(3), a);
  EXPECT_TRUE(cluster_->node(3).dsm().IsLocallyOwned(oid));
}

TEST_F(DsmTest, WriteDataTravelsWithToken) {
  Build(2);
  Gaddr a = AllocAt(0);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->WriteWord(a, 0, 123);
  mutators_[0]->WriteWord(a, 1, 456);
  mutators_[0]->Release(a);
  ASSERT_TRUE(mutators_[1]->AcquireWrite(a));
  EXPECT_EQ(mutators_[1]->ReadWord(a, 0), 123u);
  EXPECT_EQ(mutators_[1]->ReadWord(a, 1), 456u);
  mutators_[1]->Release(a);
}

TEST_F(DsmTest, InvalidationDeferredWhileReaderInCriticalSection) {
  Build(2);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));  // node 1 enters CS and stays

  // Node 0 wants exclusivity; the invalidation of node 1 must wait for its
  // release (entry consistency honors the critical section), so the upgrade
  // cannot complete yet.
  EXPECT_FALSE(mutators_[0]->AcquireWrite(a));
  EXPECT_EQ(cluster_->node(1).dsm().StateOf(oid), TokenState::kRead);

  mutators_[1]->Release(a);
  cluster_->Pump();
  EXPECT_EQ(cluster_->node(1).dsm().StateOf(oid), TokenState::kNone);
  EXPECT_EQ(cluster_->node(0).dsm().StateOf(oid), TokenState::kWrite);
}

TEST_F(DsmTest, RemoteWriteRequestDeferredWhileOwnerHolds) {
  Build(2);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));  // owner in CS

  cluster_->node(1).dsm().BeginAcquire(a, /*write=*/true);
  cluster_->Pump();
  EXPECT_FALSE(cluster_->node(1).dsm().IsLocallyOwned(oid));

  mutators_[0]->Release(a);
  cluster_->Pump();
  EXPECT_TRUE(cluster_->node(1).dsm().IsLocallyOwned(oid));
  EXPECT_EQ(cluster_->node(1).dsm().StateOf(oid), TokenState::kWrite);
}

TEST_F(DsmTest, DistributedModeReadTokenFromReader) {
  Build(3, CopySetMode::kDistributed);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);

  // Node 2 sends its request to node 0 (creator), which owns the object and
  // grants directly; to exercise reader-granting, route the request at node 1
  // explicitly via BeginAcquire on an address... instead, transfer ownership
  // away from the creator so the creator is a mere reader.
  ASSERT_TRUE(mutators_[1]->AcquireWrite(a));
  mutators_[1]->Release(a);
  ASSERT_TRUE(mutators_[0]->AcquireRead(a));
  mutators_[0]->Release(a);
  // Now: node 1 owns; node 0 (creator) holds a read token.  Node 2's request
  // goes to node 0 first, which in distributed mode grants from its copy.
  cluster_->network().ResetStats();
  ASSERT_TRUE(mutators_[2]->AcquireRead(a));
  mutators_[2]->Release(a);
  EXPECT_EQ(cluster_->node(2).dsm().StateOf(oid), TokenState::kRead);
  // The granter was node 0, so node 2's ownerPtr points at node 0 (Li-style
  // probable owner), not at the true owner.
  EXPECT_EQ(cluster_->node(2).dsm().OwnerHint(oid), 0u);
  // And no forwarding hop was needed: exactly one request, one grant.
  EXPECT_EQ(cluster_->network().stats().For(MsgKind::kAcquireRequest).sent, 1u);
  EXPECT_EQ(cluster_->network().stats().For(MsgKind::kGrant).sent, 1u);
}

TEST_F(DsmTest, DistributedModeInvalidationFloodsTree) {
  Build(3, CopySetMode::kDistributed);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  // Build a grant tree: owner(0) -> reader(1) -> reader(2).
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  ASSERT_TRUE(mutators_[1]->AcquireWrite(a));
  mutators_[1]->Release(a);
  ASSERT_TRUE(mutators_[0]->AcquireRead(a));
  mutators_[0]->Release(a);
  ASSERT_TRUE(mutators_[2]->AcquireRead(a));  // granted by node 0
  mutators_[2]->Release(a);

  // Owner (node 1) upgrades: both node 0 and its grantee node 2 must drop.
  ASSERT_TRUE(mutators_[1]->AcquireWrite(a));
  mutators_[1]->Release(a);
  EXPECT_EQ(cluster_->node(0).dsm().StateOf(oid), TokenState::kNone);
  EXPECT_EQ(cluster_->node(2).dsm().StateOf(oid), TokenState::kNone);
}

// Invariant-2 forwarding sends a copy-set child only what this node has not
// sent it: news the child already has from here costs no push.
TEST_F(DsmTest, ForwardingToAChildThatHasEveryEntrySendsNoPush) {
  Build(4, CopySetMode::kDistributed);
  Gaddr o1 = AllocAt(0);
  Gaddr o2 = AllocAt(0);
  mutators_[0]->WriteRef(o1, 0, o2);
  // Node 1 owns both; node 0 reads O2 from it and grants it on to node 2.
  Write(1, o1);
  Write(1, o2);
  mutators_[1]->AddRoot(o1);
  Read(0, o2);
  Read(2, o2);
  Oid o2_oid = OidOf(cluster_->node(0), o2);
  ASSERT_EQ(cluster_->node(2).dsm().OwnerHint(o2_oid), 0u);

  // The owner moves O2.  Node 0 learns it from O1's grant and forwards it.
  cluster_->node(1).gc().CollectBunch(bunch_);
  const DsmStats& forwarder = cluster_->node(0).dsm().stats();
  uint64_t pushes = forwarder.pushes_sent;
  Read(0, o1);
  cluster_->Pump();
  ASSERT_EQ(forwarder.pushes_sent, pushes + 1);

  // Node 3 reads O2 and takes O1, so its grant of O1 to node 0 carries O2's
  // chain once more: node 2 already has all of it from node 0.
  Read(3, o2);
  Write(3, o1);
  Read(0, o1);
  cluster_->Pump();
  EXPECT_EQ(forwarder.pushes_sent, pushes + 1);
  EXPECT_EQ(cluster_->node(2).dsm().ResolveAddr(o2), cluster_->node(1).dsm().ResolveAddr(o2));
}

TEST_F(DsmTest, EnteringPruneRemovesSource) {
  Build(2);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  ASSERT_TRUE(cluster_->node(0).dsm().EnteringFor(bunch_).count(oid) > 0);
  cluster_->node(0).dsm().PruneEntering(bunch_, oid, 1);
  EXPECT_EQ(cluster_->node(0).dsm().EnteringFor(bunch_).count(oid), 0u);
}

TEST_F(DsmTest, StrictModeRejectsUntokenedWrite) {
  Build(2);
  Gaddr a = AllocAt(0);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));  // read token only
  mutators_[1]->Release(a);
  EXPECT_DEATH(mutators_[1]->WriteWord(a, 0, 1), "entry consistency violation");
}

TEST_F(DsmTest, StrictModeRejectsUntokenedRead) {
  Build(2);
  Gaddr a = AllocAt(0);
  Oid oid = OidOf(cluster_->node(0), a);
  ASSERT_TRUE(mutators_[1]->AcquireRead(a));
  mutators_[1]->Release(a);
  // Invalidate node 1's copy by upgrading at the owner.
  ASSERT_TRUE(mutators_[0]->AcquireWrite(a));
  mutators_[0]->Release(a);
  ASSERT_EQ(cluster_->node(1).dsm().StateOf(oid), TokenState::kNone);
  EXPECT_DEATH(mutators_[1]->ReadWord(a, 0), "entry consistency violation");
}

// A grant carries at most kMaxPiggybackUpdates address updates; the rest of
// the requester's unsent move-chain entries follow off the critical path in
// one round-0 AddressChange.
TEST_F(DsmTest, PiggybackOverflowSpillsTheTailAsOneAddressChange) {
  constexpr size_t kChildren = 300;
  Build(2);
  Gaddr root = AllocAt(0, static_cast<uint32_t>(kChildren));
  mutators_[0]->AddRoot(root);
  for (size_t i = 0; i < kChildren; ++i) {
    mutators_[0]->WriteRef(root, i, AllocAt(0, 1));
  }
  cluster_->node(0).gc().CollectBunch(bunch_);  // 301 one-entry move chains

  size_t spill_messages = 0;
  size_t spilled_updates = 0;
  cluster_->network().set_delivery_observer([&](const Message& msg) {
    if (msg.payload->kind() != MsgKind::kAddressChange) {
      return;
    }
    const auto& change = static_cast<const AddressChangePayload&>(*msg.payload);
    if (change.round == 0) {
      spill_messages++;
      spilled_updates += change.updates.size();
    }
  });
  const uint64_t updates_before = cluster_->node(0).dsm().stats().piggyback_updates_sent;
  const uint64_t spills_before = GlobalPerfCounters().piggyback_overflow_spills;
  Read(1, root);
  cluster_->Pump();
  EXPECT_EQ(cluster_->node(0).dsm().stats().piggyback_updates_sent - updates_before,
            kMaxPiggybackUpdates);
  EXPECT_EQ(spill_messages, 1u);
  EXPECT_EQ(spilled_updates, kChildren + 1 - kMaxPiggybackUpdates);
  EXPECT_EQ(GlobalPerfCounters().piggyback_overflow_spills - spills_before, 1u);
}

// The acquire driver's circuit breaker: kAttemptBudget timeouts per call
// toward a crashed owner, kBreakerThreshold in a row open the breaker, and an
// open breaker refuses the acquire before anything is sent.  After the
// cooldown one half-open probe goes out; once the owner is back, an acquire
// succeeds and the breaker closes again.
TEST_F(DsmTest, OpenBreakerFailsFastWithoutSending) {
  Build(2);
  Gaddr a = AllocAt(0);
  Gaddr b = AllocAt(0);
  mutators_[0]->AddRoot(a);
  mutators_[0]->AddRoot(b);
  cluster_->node(0).CheckpointBunch(bunch_);
  mutators_[0].reset();  // a mutator must not outlive its node
  cluster_->CrashNode(0);

  const DsmStats& stats = cluster_->node(1).dsm().stats();
  const NetworkStats::PerKind& requests =
      cluster_->network().stats().For(MsgKind::kAcquireRequest);
  for (uint64_t call = 1; call <= 2; ++call) {
    EXPECT_FALSE(mutators_[1]->AcquireRead(a));
    EXPECT_EQ(stats.acquire_timeouts, 3 * call);
    EXPECT_EQ(requests.sent, 3 * call);
  }
  EXPECT_EQ(stats.breaker_fast_fails, 0u);

  // The sixth timeout opened the breaker: refused up front, nothing sent.
  EXPECT_FALSE(mutators_[1]->AcquireRead(a));
  EXPECT_EQ(stats.breaker_fast_fails, 1u);
  EXPECT_EQ(stats.acquire_timeouts, 6u);
  EXPECT_EQ(requests.sent, 6u);

  // Cooldown over: one half-open probe, which times out and re-opens the
  // breaker, so the retry fails fast.
  cluster_->network().AdvanceClock(RetryPolicy::kBreakerCooldownTicks);
  EXPECT_FALSE(mutators_[1]->AcquireRead(a));
  EXPECT_EQ(requests.sent, 7u);
  EXPECT_EQ(stats.acquire_timeouts, 7u);
  EXPECT_EQ(stats.breaker_fast_fails, 2u);

  // A restarted owner is tried at once, whatever its breaker says.
  cluster_->RestartNode(0).recovery().RunRecovery();
  Read(1, a);

  // The success closed the breaker: the next outage gets the full attempt
  // budget again instead of a fast fail.
  cluster_->CrashNode(0);
  EXPECT_FALSE(mutators_[1]->AcquireRead(b));
  EXPECT_EQ(stats.acquire_timeouts, 10u);
  EXPECT_EQ(stats.breaker_fast_fails, 2u);
}

TEST_F(DsmTest, GcAcquireAttributionIsSeparate) {
  Build(2);
  Gaddr a = AllocAt(0);
  ASSERT_TRUE(cluster_->node(1).dsm().AcquireWrite(a, /*for_gc=*/true));
  cluster_->node(1).dsm().Release(a);
  EXPECT_EQ(cluster_->node(1).dsm().GcTokenAcquires(), 1u);
  EXPECT_EQ(cluster_->node(1).dsm().stats().app_write_acquires, 0u);
}

}  // namespace
}  // namespace bmx
