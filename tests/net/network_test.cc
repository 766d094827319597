#include "src/net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/gc/payloads.h"

namespace bmx {
namespace {

// Minimal test payloads: one reliable, one unreliable.
struct ReliableProbe : public Payload {
  uint64_t value = 0;
  MsgKind kind() const override { return MsgKind::kAddressChange; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override { return 8; }
};

struct UnreliableProbe : public Payload {
  uint64_t value = 0;
  MsgKind kind() const override { return MsgKind::kReachabilityTable; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override { return 8; }
  bool reliable() const override { return false; }
};

// A kind whose category used to be wrong under the hard-coded kind→category
// switch (RcIncrement fell through to the GC-background default); the stats
// must follow what the payload itself declares.
struct ForegroundProbe : public Payload {
  MsgKind kind() const override { return MsgKind::kRcIncrement; }
  MsgCategory category() const override { return MsgCategory::kGcForeground; }
  size_t WireSize() const override { return 24; }
  bool reliable() const override { return false; }
};

class Recorder : public MessageHandler {
 public:
  void HandleMessage(const Message& msg) override {
    received.push_back(msg);
    if (reply_to != kInvalidNode && network != nullptr && !replied) {
      replied = true;
      network->Send(msg.dst, reply_to, std::make_shared<ReliableProbe>());
    }
  }
  std::vector<Message> received;
  Network* network = nullptr;
  NodeId reply_to = kInvalidNode;
  bool replied = false;
};

uint64_t ValueOf(const Message& msg) {
  return static_cast<const ReliableProbe&>(*msg.payload).value;
}

TEST(Network, DeliversInFifoOrderPerChannel) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  for (uint64_t i = 0; i < 10; ++i) {
    auto p = std::make_shared<ReliableProbe>();
    p->value = i;
    net.Send(0, 1, std::move(p));
  }
  net.RunUntilIdle();
  ASSERT_EQ(r.received.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ValueOf(r.received[i]), i);
    EXPECT_EQ(r.received[i].seq, i);
  }
}

TEST(Network, HandlerChainsDrainCompletely) {
  Network net(1);
  Recorder a;
  Recorder b;
  a.network = &net;
  a.reply_to = 2;
  net.RegisterNode(1, &a);
  net.RegisterNode(2, &b);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.RunUntilIdle();
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(net.Idle());
}

TEST(Network, ReliablePayloadsNeverDropped) {
  Network net(99);
  Recorder r;
  net.RegisterNode(1, &r);
  net.set_loss_rate(1.0);  // datagram loss does not touch the reliable class
  for (int i = 0; i < 50; ++i) {
    net.Send(0, 1, std::make_shared<ReliableProbe>());
  }
  net.RunUntilIdle();
  EXPECT_EQ(r.received.size(), 50u);
  EXPECT_EQ(net.UnackedCount(), 0u);
}

TEST(Network, UnreliablePayloadsDropAtConfiguredRate) {
  Network net(99);
  Recorder r;
  net.RegisterNode(1, &r);
  net.set_loss_rate(0.5);
  for (int i = 0; i < 400; ++i) {
    net.Send(0, 1, std::make_shared<UnreliableProbe>());
  }
  net.RunUntilIdle();
  // Statistically ~200; accept a broad band (deterministic for the seed).
  EXPECT_GT(r.received.size(), 120u);
  EXPECT_LT(r.received.size(), 280u);
  EXPECT_EQ(net.stats().For(MsgKind::kReachabilityTable).dropped +
                net.stats().For(MsgKind::kReachabilityTable).delivered,
            400u);
}

TEST(Network, ReliableTransmissionLossIsMaskedByRetransmission) {
  Network net(42);
  Recorder r;
  net.RegisterNode(1, &r);
  net.set_reliable_loss_rate(0.5);
  for (uint64_t i = 0; i < 20; ++i) {
    auto p = std::make_shared<ReliableProbe>();
    p->value = i;
    net.Send(0, 1, std::move(p));
  }
  net.RunUntilIdle();
  ASSERT_EQ(r.received.size(), 20u);
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(ValueOf(r.received[i]), i);  // still exactly-once, in order
  }
  EXPECT_GT(net.stats().For(MsgKind::kAddressChange).lost_transmissions, 0u);
  EXPECT_GT(net.stats().TotalRetransmits(), 0u);
  EXPECT_EQ(net.UnackedCount(), 0u);
}

TEST(Network, LostAcksForceSuppressedRetransmissions) {
  Network net(42);
  Recorder r;
  net.RegisterNode(1, &r);
  net.set_ack_loss_rate(0.5);
  for (uint64_t i = 0; i < 20; ++i) {
    auto p = std::make_shared<ReliableProbe>();
    p->value = i;
    net.Send(0, 1, std::move(p));
  }
  net.RunUntilIdle();
  ASSERT_EQ(r.received.size(), 20u);  // duplicates never reach the handler
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(ValueOf(r.received[i]), i);
  }
  EXPECT_GT(net.stats().TotalRetransmits(), 0u);
  EXPECT_GT(net.stats().TotalDupSuppressed(), 0u);
  EXPECT_EQ(net.UnackedCount(), 0u);
}

TEST(Network, RetransmitBackoffIsExponential) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  net.ForceDropReliableTransmissions(3);
  net.Send(0, 1, std::make_shared<ReliableProbe>());

  EXPECT_TRUE(net.DeliverOne());  // first transmission, force-dropped
  EXPECT_TRUE(r.received.empty());

  std::vector<uint64_t> fire_times;
  while (r.received.empty()) {
    if (!net.DeliverOne()) {
      ASSERT_TRUE(net.FireRetransmitTimers());
      fire_times.push_back(net.now());
    }
  }
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], 8u);  // base timeout
  // Each retry waits twice as long as the previous one.
  EXPECT_EQ(fire_times[2] - fire_times[1], 2 * (fire_times[1] - fire_times[0]));
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).retransmits, 3u);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).lost_transmissions, 3u);
  EXPECT_EQ(r.received.size(), 1u);
  net.RunUntilIdle();
  EXPECT_EQ(net.UnackedCount(), 0u);
}

TEST(Network, DuplicateSuppressionOnlyAffectsReliable) {
  Network net(7);
  Recorder r;
  net.RegisterNode(1, &r);
  net.set_duplication_rate(1.0);
  net.Send(0, 1, std::make_shared<UnreliableProbe>());
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.RunUntilIdle();
  // The unreliable duplicate reaches the handler (datagram semantics, §6.1
  // tables are designed to tolerate it); the reliable one is suppressed.
  EXPECT_EQ(r.received.size(), 3u);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).dup_suppressed, 1u);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).delivered, 1u);
}

TEST(Network, DuplicatesKeepOriginalSeqAndCountWireBytes) {
  Network net(7);
  Recorder r;
  net.RegisterNode(1, &r);
  net.set_duplication_rate(1.0);
  net.Send(0, 1, std::make_shared<UnreliableProbe>());
  net.RunUntilIdle();
  ASSERT_EQ(r.received.size(), 2u);
  // Both wire copies are the SAME message: receivers can dedup on seq.
  EXPECT_EQ(r.received[0].seq, r.received[1].seq);
  const auto& pk = net.stats().For(MsgKind::kReachabilityTable);
  EXPECT_EQ(pk.sent, 1u);
  EXPECT_EQ(pk.duplicated, 1u);
  EXPECT_EQ(pk.bytes, 8u);        // logical traffic
  EXPECT_EQ(pk.wire_bytes, 16u);  // what the wire actually carried
}

TEST(Network, ReorderingPerturbsDatagramsButNotReliableStream) {
  Network net(3);
  Recorder r;
  net.RegisterNode(1, &r);
  net.set_reorder_rate(1.0);
  for (uint64_t i = 0; i < 3; ++i) {
    auto p = std::make_shared<UnreliableProbe>();
    p->value = i;
    net.Send(0, 1, std::move(p));
  }
  net.RunUntilIdle();
  ASSERT_EQ(r.received.size(), 3u);
  bool in_order = true;
  for (uint64_t i = 0; i < 3; ++i) {
    in_order = in_order &&
               static_cast<const UnreliableProbe&>(*r.received[i].payload).value == i;
  }
  EXPECT_FALSE(in_order);
  EXPECT_GT(net.stats().For(MsgKind::kReachabilityTable).reordered, 0u);

  r.received.clear();
  for (uint64_t i = 0; i < 5; ++i) {
    auto p = std::make_shared<ReliableProbe>();
    p->value = i;
    net.Send(0, 1, std::move(p));
  }
  net.RunUntilIdle();
  ASSERT_EQ(r.received.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ValueOf(r.received[i]), i);  // reassembled in rel_seq order
  }
}

TEST(Network, StatsAccounting) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.Send(0, 1, std::make_shared<UnreliableProbe>());
  net.RunUntilIdle();
  EXPECT_EQ(net.stats().TotalSent(), 2u);
  EXPECT_EQ(net.stats().TotalBytes(), 16u);
  EXPECT_EQ(net.stats().TotalWireBytes(), 16u);  // fault-free: wire == logical
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).sent, 1u);
  EXPECT_EQ(net.stats().SentInCategory(MsgCategory::kGcBackground), 2u);
  EXPECT_EQ(net.stats().SentInCategory(MsgCategory::kDsm), 0u);
  net.ResetStats();
  EXPECT_EQ(net.stats().TotalSent(), 0u);
}

TEST(Network, CategoryAccountingFollowsThePayload) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  net.Send(0, 1, std::make_shared<ForegroundProbe>());
  net.RunUntilIdle();
  // kRcIncrement used to be misfiled under the background default by the
  // hard-coded switch; the payload says foreground, so the stats must too.
  EXPECT_EQ(net.stats().SentInCategory(MsgCategory::kGcForeground), 1u);
  EXPECT_EQ(net.stats().BytesInCategory(MsgCategory::kGcForeground), 24u);
  EXPECT_EQ(net.stats().SentInCategory(MsgCategory::kGcBackground), 0u);
}

TEST(Network, DisconnectParksReliableAndDropsTheRest) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  net.Send(0, 1, std::make_shared<ReliableProbe>());    // parked for redelivery
  net.Send(0, 1, std::make_shared<UnreliableProbe>());  // lost with the node
  net.Send(1, 0, std::make_shared<ReliableProbe>());    // dies with the sender
  net.DisconnectNode(1);
  net.RunUntilIdle();
  EXPECT_TRUE(r.received.empty());
  EXPECT_TRUE(net.Idle());
  EXPECT_EQ(net.HeldCount(), 1u);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).parked, 1u);
}

TEST(Network, ReliableToUnregisteredNodeIsHeldNotLost) {
  Network net(1);
  net.Send(0, 9, std::make_shared<ReliableProbe>());
  net.RunUntilIdle();
  EXPECT_TRUE(net.Idle());  // parked traffic does not prevent quiescence
  EXPECT_EQ(net.HeldCount(), 1u);
}

TEST(Network, RedeliveryAfterReconnectIsFifoAndDeduplicated) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  for (uint64_t i = 0; i < 3; ++i) {
    auto p = std::make_shared<ReliableProbe>();
    p->value = i;
    net.Send(0, 1, std::move(p));
  }
  net.RunUntilIdle();
  net.DisconnectNode(1);
  for (uint64_t i = 3; i < 6; ++i) {
    auto p = std::make_shared<ReliableProbe>();
    p->value = i;
    net.Send(0, 1, std::move(p));
  }
  net.RunUntilIdle();  // quiesces; the three new payloads are parked
  EXPECT_EQ(net.HeldCount(), 3u);

  Recorder fresh;
  net.RegisterNode(1, &fresh);
  net.RunUntilIdle();
  ASSERT_EQ(fresh.received.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ValueOf(fresh.received[i]), i + 3);  // original FIFO order
    // Sequence reset: the new incarnation starts from seq 0, no discontinuity
    // from the five messages the dead incarnation consumed.
    EXPECT_EQ(fresh.received[i].seq, i);
  }
  EXPECT_EQ(net.stats().TotalRedelivered(), 3u);
  EXPECT_EQ(net.HeldCount(), 0u);
  EXPECT_EQ(net.UnackedCount(), 0u);
}

TEST(Network, PartitionHoldsReliableTrafficUntilHealed) {
  Network net(1);
  Recorder a;
  Recorder b;
  net.RegisterNode(1, &a);
  net.RegisterNode(2, &b);
  net.PartitionNodes(1, 2);
  EXPECT_TRUE(net.Partitioned(2, 1));  // symmetric

  net.Send(1, 2, std::make_shared<ReliableProbe>());
  net.Send(1, 2, std::make_shared<UnreliableProbe>());
  net.Send(0, 1, std::make_shared<ReliableProbe>());  // unrelated channel flows
  net.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(net.UnackedCount(), 1u);  // reliable waits out the partition
  EXPECT_EQ(net.stats().For(MsgKind::kReachabilityTable).dropped, 1u);

  net.HealPartition(1, 2);
  net.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_GT(net.stats().For(MsgKind::kAddressChange).retransmits, 0u);
  EXPECT_EQ(net.UnackedCount(), 0u);
}

TEST(Network, DeliverOneReturnsFalseWhenEmpty) {
  Network net(1);
  EXPECT_FALSE(net.DeliverOne());
}

TEST(Network, VirtualClockAdvancesPerConsumedMessage) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  EXPECT_EQ(net.now(), 0u);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.DeliverOne();
  EXPECT_EQ(net.now(), 1u);
  net.AdvanceClock(10);
  EXPECT_EQ(net.now(), 11u);
  net.RunUntilIdle();
  EXPECT_EQ(net.now(), 12u);
}

TEST(Network, PendingCountTracksQueue) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  EXPECT_EQ(net.PendingCount(), 2u);
  net.DeliverOne();
  EXPECT_EQ(net.PendingCount(), 1u);
  net.RunUntilIdle();
  EXPECT_EQ(net.PendingCount(), 0u);
}

// --- Quiescence regressions: RunUntilIdle must drain every live retransmit
// --- timer toward a reachable peer, yet terminate when the peer is down.

TEST(Network, QuiescencePumpsLossyReachableChannelToCompletion) {
  // Several forced losses plus lossy acks: the payloads are still owed to a
  // reachable peer, so RunUntilIdle must keep firing timers until every one
  // is delivered and acked — returning early would strand live timers.
  Network net(5);
  Recorder r;
  net.RegisterNode(1, &r);
  net.set_ack_loss_rate(0.5);
  net.ForceDropReliableTransmissions(3);
  for (uint64_t i = 0; i < 4; ++i) {
    auto p = std::make_shared<ReliableProbe>();
    p->value = i;
    net.Send(0, 1, std::move(p));
  }
  net.RunUntilIdle();
  EXPECT_EQ(r.received.size(), 4u);
  EXPECT_EQ(net.UnackedCount(), 0u);
  EXPECT_EQ(net.ReachableUnackedCount(), 0u);
}

TEST(Network, QuiescenceDuringPartitionParksInsteadOfSpinning) {
  Network net(5);
  Recorder r;
  net.RegisterNode(1, &r);
  net.PartitionNodes(0, 1);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  // The peer is unreachable: RunUntilIdle must terminate (not retransmit
  // forever into the partition) with the payload parked, not lost.
  net.RunUntilIdle();
  EXPECT_EQ(r.received.size(), 0u);
  EXPECT_EQ(net.UnackedCount(), 1u);
  EXPECT_EQ(net.ReachableUnackedCount(), 0u);
  // Healing re-arms the timer; the very next pump delivers.
  net.HealPartition(0, 1);
  EXPECT_EQ(net.ReachableUnackedCount(), 1u);
  net.RunUntilIdle();
  EXPECT_EQ(r.received.size(), 1u);
  EXPECT_EQ(net.UnackedCount(), 0u);
}

TEST(Network, QuiescenceWithPermanentlyDownPeerTerminates) {
  Network net(5);
  net.Send(0, 9, std::make_shared<ReliableProbe>());  // node 9 never attaches
  net.RunUntilIdle();
  EXPECT_EQ(net.HeldCount(), 1u);  // parked for a future incarnation
  EXPECT_EQ(net.ReachableUnackedCount(), 0u);
}

// --- Stats regressions: parked counts payloads (not wire copies), and the
// --- per-category ledger counts each logical send exactly once.

TEST(Network, ParkedCountsPayloadsNotWireCopies) {
  // Duplication gives the parked payload two wire copies; both reach the
  // missing destination, but the payload parks (and counts) once.
  Network net(5);
  net.set_duplication_rate(1.0);
  net.Send(0, 9, std::make_shared<ReliableProbe>());
  net.RunUntilIdle();
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).duplicated, 1u);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).parked, 1u);
  EXPECT_EQ(net.UnackedCount(), 1u);
}

TEST(Network, ParkedCountsOncePerDownPeriod) {
  Network net(5);
  Recorder r;
  net.RegisterNode(1, &r);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.DisconnectNode(1);  // parks the undelivered payload: 1
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).parked, 1u);
  // A wire copy arriving at the dead destination must not re-count it.
  net.RunUntilIdle();
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).parked, 1u);
  // The next incarnation's redelivery resets the flag: a second down period
  // parks (and counts) the payload again.
  Recorder reborn;
  net.RegisterNode(1, &reborn);
  net.DisconnectNode(1);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).parked, 2u);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).redelivered, 1u);
}

TEST(Network, CategoryLedgerCountsLogicalSendsOnceAcrossParkAndRedeliver) {
  Network net(5);
  net.Send(0, 9, std::make_shared<ReliableProbe>());
  net.RunUntilIdle();
  EXPECT_EQ(net.stats().SentInCategory(MsgCategory::kGcBackground), 1u);
  EXPECT_EQ(net.stats().BytesInCategory(MsgCategory::kGcBackground), 8u);

  Recorder r;
  net.RegisterNode(9, &r);  // replays the parked payload
  net.RunUntilIdle();
  EXPECT_EQ(r.received.size(), 1u);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).redelivered, 1u);
  // The redelivery is wire traffic, not a new logical send: the category
  // ledger still shows exactly one send, while wire bytes cover both copies.
  EXPECT_EQ(net.stats().SentInCategory(MsgCategory::kGcBackground), 1u);
  EXPECT_EQ(net.stats().BytesInCategory(MsgCategory::kGcBackground), 8u);
  EXPECT_GE(net.stats().ForCategory(MsgCategory::kGcBackground).wire_bytes, 16u);
}

// --- Gray failures: per-link profiles, zombie links, bounded quiescence ---

// Zombie stats pin the accounting convention: a swallowed dispatch is a wire
// event and a transport success (acked — so no retransmissions), but never a
// logical delivery.  Mirrors the parked/redelivered convention.
TEST(Network, ZombieLinkStatsPinned) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  LinkProfile zombie;
  zombie.zombie = true;
  net.InstallLinkProfile(0, 1, zombie);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.RunUntilIdle();
  const auto& pk = net.stats().For(MsgKind::kAddressChange);
  EXPECT_EQ(pk.sent, 1u);
  EXPECT_EQ(pk.delivered, 0u);
  EXPECT_EQ(pk.zombie_dropped, 1u);
  EXPECT_EQ(pk.retransmits, 0u);  // transport acked: the sender is satisfied
  EXPECT_EQ(pk.bytes, 8u);
  EXPECT_EQ(pk.wire_bytes, 8u);
  EXPECT_EQ(net.UnackedCount(), 0u);
  EXPECT_TRUE(r.received.empty());
}

// A duplicated wire copy of a zombie-dropped reliable payload still hits the
// receiver-side dedup (the transport fully runs): one zombie drop, one
// suppression, zero deliveries.
TEST(Network, ZombieTransportStillDeduplicates) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  LinkProfile zombie;
  zombie.zombie = true;
  zombie.duplication_rate = 1.0;
  net.InstallLinkProfile(0, 1, zombie);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.RunUntilIdle();
  const auto& pk = net.stats().For(MsgKind::kAddressChange);
  EXPECT_EQ(pk.duplicated, 1u);
  EXPECT_EQ(pk.zombie_dropped, 1u);
  EXPECT_EQ(pk.dup_suppressed, 1u);
  EXPECT_EQ(pk.delivered, 0u);
  EXPECT_EQ(pk.wire_bytes, 16u);  // both copies crossed the wire
  EXPECT_TRUE(r.received.empty());
}

// SetZombieNode covers every inbound link of the node.
TEST(Network, ZombieNodeSwallowsAllInboundDispatch) {
  Network net(1);
  Recorder r;
  net.RegisterNode(2, &r);
  net.SetZombieNode(2, true);
  net.Send(0, 2, std::make_shared<ReliableProbe>());
  net.Send(1, 2, std::make_shared<UnreliableProbe>());
  net.RunUntilIdle();
  EXPECT_TRUE(r.received.empty());
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).zombie_dropped, 1u);
  EXPECT_EQ(net.stats().For(MsgKind::kReachabilityTable).zombie_dropped, 1u);
  net.SetZombieNode(2, false);
  net.Send(0, 2, std::make_shared<ReliableProbe>());
  net.RunUntilIdle();
  EXPECT_EQ(r.received.size(), 1u);
}

// The category mask scopes the gray failure: DSM traffic dies, GC-background
// traffic still dispatches.
TEST(Network, ZombieCategoryMaskIsSelective) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  LinkProfile zombie;
  zombie.zombie = true;
  zombie.zombie_categories = {{true, false, false}};  // kDsm only
  net.InstallLinkProfile(0, 1, zombie);
  net.Send(0, 1, std::make_shared<ReliableProbe>());  // kGcBackground: passes
  net.RunUntilIdle();
  EXPECT_EQ(r.received.size(), 1u);
  EXPECT_EQ(net.stats().For(MsgKind::kAddressChange).zombie_dropped, 0u);
}

// Directional latency delays readiness without reordering a channel, and the
// virtual clock jumps to the earliest ready time instead of spinning.
TEST(Network, LinkLatencyDelaysDeliveryAndAdvancesClock) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  LinkProfile slow;
  slow.latency_ticks = 50;
  net.InstallLinkProfile(0, 1, slow);
  auto late = std::make_shared<ReliableProbe>();
  late->value = 7;
  net.Send(0, 1, std::move(late));  // ready at 50
  auto prompt = std::make_shared<ReliableProbe>();
  prompt->value = 8;
  net.Send(2, 1, std::move(prompt));  // ready immediately
  net.RunUntilIdle();
  ASSERT_EQ(r.received.size(), 2u);
  EXPECT_EQ(ValueOf(r.received[0]), 8u);  // the un-delayed link goes first
  EXPECT_EQ(ValueOf(r.received[1]), 7u);
  EXPECT_GE(net.now(), 50u);
}

// Per-link loss overrides the global knob for that link only, and the
// overridden draws come from a dedicated per-link stream (installing the
// profile must not perturb other links' fault sequences).
TEST(Network, PerLinkLossOverridesGlobalKnob) {
  Network net(99);
  Recorder r;
  net.RegisterNode(1, &r);
  LinkProfile lossy;
  lossy.loss_rate = 1.0 - 1e-9;  // rates must stay below 1; effectively all
  net.InstallLinkProfile(0, 1, lossy);
  for (int i = 0; i < 50; ++i) {
    net.Send(0, 1, std::make_shared<UnreliableProbe>());  // doomed link
    net.Send(2, 1, std::make_shared<UnreliableProbe>());  // clean link
  }
  net.RunUntilIdle();
  EXPECT_EQ(r.received.size(), 50u);  // every survivor came over 2→1
  for (const Message& m : r.received) {
    EXPECT_EQ(m.src, 2u);
  }
  EXPECT_EQ(net.stats().For(MsgKind::kReachabilityTable).dropped, 50u);
}

// With no profile installed the fingerprint must be bit-identical to a run
// without the profile table ever consulted — installing and clearing a
// profile on an unrelated link must also leave other links untouched.
TEST(Network, FingerprintNeutralWithoutProfiles) {
  auto drive = [](Network& net) {
    Recorder r;
    net.RegisterNode(1, &r);
    net.set_loss_rate(0.3);
    net.set_reliable_loss_rate(0.2);
    for (int i = 0; i < 40; ++i) {
      net.Send(0, 1, std::make_shared<ReliableProbe>());
      net.Send(0, 1, std::make_shared<UnreliableProbe>());
    }
    net.RunUntilIdle();
    return net.stats().Fingerprint();
  };
  Network plain(7);
  Network probed(7);
  LinkProfile unrelated;
  unrelated.loss_rate = 0.9;
  probed.InstallLinkProfile(5, 6, unrelated);  // never carries traffic
  probed.ClearLinkProfile(5, 6);
  EXPECT_EQ(drive(plain), drive(probed));
}

// An intentional livelock (two handlers ping-ponging forever) trips the step
// bound with a diagnostic instead of hanging the harness.
TEST(Network, RunUntilIdleBoundedFlagsNonQuiescence) {
  struct Echo : public MessageHandler {
    Network* net = nullptr;
    void HandleMessage(const Message& msg) override {
      net->Send(msg.dst, msg.src, std::make_shared<ReliableProbe>());
    }
  };
  Network net(1);
  Echo a;
  Echo b;
  a.net = &net;
  b.net = &net;
  net.RegisterNode(1, &a);
  net.RegisterNode(2, &b);
  net.Send(1, 2, std::make_shared<ReliableProbe>());
  std::string diagnostic;
  EXPECT_FALSE(net.RunUntilIdleBounded(500, &diagnostic));
  EXPECT_NE(diagnostic.find("pending="), std::string::npos) << diagnostic;
}

TEST(Network, RunUntilIdleBoundedPassesQuiescentRuns) {
  Network net(1);
  Recorder r;
  net.RegisterNode(1, &r);
  for (int i = 0; i < 10; ++i) {
    net.Send(0, 1, std::make_shared<ReliableProbe>());
  }
  std::string diagnostic;
  EXPECT_TRUE(net.RunUntilIdleBounded(100000, &diagnostic));
  EXPECT_TRUE(diagnostic.empty());
  EXPECT_EQ(r.received.size(), 10u);
}

// A sender that crashes leaves its copies to a down node queued, stamped with
// its dead epoch, and no unacked entry behind them.  The node's restart purges
// those copies and leaves the channel with no traffic at all, so the channel
// must also leave the busy-channel index (ReachableUnackedCount checks that).
TEST(Network, RestartPurgesCopiesOfACrashedSender) {
  Network net(1);
  Recorder sender;
  Recorder receiver;
  net.RegisterNode(0, &sender);
  net.RegisterNode(1, &receiver);
  net.DisconnectNode(1);
  net.Send(0, 1, std::make_shared<ReliableProbe>());
  net.DisconnectNode(0);
  EXPECT_EQ(net.PendingCount(), 1u);
  EXPECT_EQ(net.UnackedCount(), 0u);

  Recorder reborn;
  net.RegisterNode(1, &reborn);
  EXPECT_EQ(net.PendingCount(), 0u);
  EXPECT_EQ(net.ReachableUnackedCount(), 0u);
  EXPECT_FALSE(net.DeliverOne());
  net.RunUntilIdle();
  EXPECT_TRUE(reborn.received.empty());
}

// A reliable request the coalescing layer never batches (so DropParked may
// drop it); the receiver answers each one with a batchable reliable reply.
struct RequestProbe : public Payload {
  MsgKind kind() const override { return MsgKind::kAcquireRequest; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override { return 16; }
};

class Responder : public MessageHandler {
 public:
  explicit Responder(Network* net) : net_(net) {}
  void HandleMessage(const Message& msg) override {
    if (msg.payload->kind() == MsgKind::kAcquireRequest) {
      net_->Send(msg.dst, msg.src, std::make_shared<ReliableProbe>());
    }
  }

 private:
  Network* net_;
};

// The delivery pick, the retransmit timers and the quiescence count walk only
// the channels holding queued or unacked traffic.  A seeded random schedule of
// every step that changes a queue or an unacked map checks that walk against
// the full scans after each step: DeliverOne finds work exactly when the
// network was not idle, and with no partition up the reachable unacked count
// is everything unacked minus what is held for down nodes.
TEST(Network, BusyChannelIndexAgreesWithFullScans) {
  constexpr NodeId kNodes = 5;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Network net(seed);
    net.set_batch_policy(BatchPolicy{.enabled = true});
    net.set_loss_rate(0.1);
    net.set_duplication_rate(0.1);
    net.set_reorder_rate(0.2);
    net.set_reliable_loss_rate(0.2);
    net.set_ack_loss_rate(0.2);
    std::vector<Responder> handlers(kNodes, Responder(&net));
    for (NodeId n = 0; n < kNodes; ++n) {
      net.RegisterNode(n, &handlers[n]);
    }
    std::set<std::pair<NodeId, NodeId>> partitions;
    Rng rng(DeriveStreamSeed(seed, RngStream::kWorkload));
    for (int step = 0; step < 3000; ++step) {
      NodeId a = static_cast<NodeId>(rng.Below(kNodes));
      NodeId b = static_cast<NodeId>((a + 1 + rng.Below(kNodes - 1)) % kNodes);
      switch (rng.Below(12)) {
        case 0:
        case 1:
          net.Send(a, b, std::make_shared<ReliableProbe>());
          break;
        case 2:
          net.Send(a, b, std::make_shared<RequestProbe>());
          break;
        case 3:
          net.Send(a, b, std::make_shared<UnreliableProbe>());
          break;
        case 4:
          net.FireRetransmitTimers();
          break;
        case 5:
          net.PartitionNodes(a, b);
          partitions.insert({std::min(a, b), std::max(a, b)});
          break;
        case 6:
          if (!partitions.empty()) {
            net.HealPartition(partitions.begin()->first, partitions.begin()->second);
            partitions.erase(partitions.begin());
          }
          break;
        case 7:
          net.DisconnectNode(a);
          break;
        case 8:
          net.RegisterNode(a, &handlers[a]);
          break;
        case 9:
          net.DropParked(a, b, MsgKind::kAcquireRequest);
          break;
        case 10: {
          LinkProfile slow;
          slow.latency_ticks = 1 + rng.Below(8);
          net.InstallLinkProfile(a, b, slow);
          break;
        }
        case 11:
          net.ClearLinkProfile(a, b);
          break;
      }
      bool busy = !net.Idle();
      ASSERT_EQ(net.DeliverOne(), busy) << "step " << step;
      if (partitions.empty()) {
        ASSERT_EQ(net.ReachableUnackedCount(), net.UnackedCount() - net.HeldCount())
            << "step " << step;
      }
    }
    for (const auto& [a, b] : partitions) {
      net.HealPartition(a, b);
    }
    for (NodeId n = 0; n < kNodes; ++n) {
      net.RegisterNode(n, &handlers[n]);
    }
    net.RunUntilIdle();
    EXPECT_EQ(net.UnackedCount(), 0u);
  }
}

}  // namespace
}  // namespace bmx
