// Wire-format accounting tests: the benchmarks' byte counters are only as
// good as each payload's WireSize, and reliability classes decide what fault
// injection may touch.

#include <gtest/gtest.h>

#include "src/baselines/payloads.h"
#include "src/dsm/payloads.h"
#include "src/gc/payloads.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/runtime/recovery.h"

namespace bmx {
namespace {

TEST(Payloads, DsmKindsAndCategories) {
  AcquireRequestPayload acquire;
  EXPECT_EQ(acquire.kind(), MsgKind::kAcquireRequest);
  EXPECT_EQ(acquire.category(), MsgCategory::kDsm);
  EXPECT_TRUE(acquire.reliable());
  acquire.for_gc = true;
  EXPECT_EQ(acquire.category(), MsgCategory::kGcForeground);

  GrantPayload grant;
  EXPECT_EQ(grant.kind(), MsgKind::kGrant);
  EXPECT_TRUE(grant.reliable());

  InvalidatePayload inval;
  EXPECT_EQ(inval.kind(), MsgKind::kInvalidate);
  ObjectPushPayload push;
  EXPECT_EQ(push.kind(), MsgKind::kObjectPush);
}

TEST(Payloads, GrantWireSizeScalesWithObject) {
  GrantPayload small;
  GrantPayload big;
  big.object.slots.resize(100);
  big.object.slot_is_ref.resize(100);
  EXPECT_GT(big.WireSize(), small.WireSize() + 100 * kSlotBytes - 1);
}

// The byte model of every payload that carries an object image, pinned for
// one 5-slot object: grants charge no header bytes; copy replies and recovery
// reply entries charge kHeaderBytes.
TEST(Payloads, ObjectImageWireSizes) {
  ObjectImage object;
  object.header.size_slots = 5;
  object.slots.assign(5, 0);
  object.slot_is_ref.assign(5, 0);
  EXPECT_EQ(object.SlotWireBytes(), 45u);

  GrantPayload grant;
  grant.object = object;
  EXPECT_EQ(grant.WireSize(), 85u);  // 40 + 5 * 8 + 5

  CopyReplyPayload copy_reply;
  copy_reply.object = object;
  EXPECT_EQ(copy_reply.WireSize(), 93u);

  RecoveredReplicaEntry entry;
  entry.has_bytes = true;
  entry.object = object;
  RecoveryReplyPayload recovery_reply;
  recovery_reply.replicas.push_back(entry);
  EXPECT_EQ(recovery_reply.WireSize(), 101u);  // 8 + 24 + 24 + 5 * 8 + 5
}

// A captured image installs on another node with its slots and ref bits, and
// as a live object even when captured from a forwarder.
TEST(Payloads, CapturedImageInstallsOnAnotherNode) {
  Cluster cluster({.num_nodes = 2});
  Mutator mutator(&cluster.node(0));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr target = mutator.Alloc(bunch, 1);
  Gaddr obj = mutator.Alloc(bunch, 5);
  mutator.AddRoot(obj);
  mutator.WriteWord(obj, 0, 42);
  mutator.WriteRef(obj, 3, target);
  // The BGC copies the object away, leaving its old bytes behind a forwarder.
  cluster.node(0).gc().CollectBunch(bunch);
  ASSERT_TRUE(cluster.node(0).store().HeaderOf(obj)->forwarded());

  ObjectImage image = cluster.node(0).store().CaptureObject(obj);
  EXPECT_EQ(image.addr, obj);
  EXPECT_TRUE(image.header.forwarded());
  ASSERT_EQ(image.slots.size(), 5u);
  EXPECT_EQ(image.slots[0], 42u);
  EXPECT_EQ(image.slots[3], target);
  EXPECT_EQ(image.slot_is_ref, (std::vector<uint8_t>{0, 0, 0, 1, 0}));

  Node& peer = cluster.node(1);
  peer.dsm().InstallObjectBytes(image.header.oid, bunch, image);
  ASSERT_TRUE(peer.store().HeaderOf(obj) != nullptr);
  const ObjectHeader* installed = peer.store().HeaderOf(obj);
  EXPECT_FALSE(installed->forwarded());
  EXPECT_EQ(installed->forward, kNullAddr);
  EXPECT_EQ(installed->oid, image.header.oid);
  EXPECT_EQ(installed->size_slots, 5u);
  for (size_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(peer.store().ReadSlot(obj, slot), image.slots[slot]);
    EXPECT_EQ(peer.store().SlotIsRef(obj, slot), slot == 3);
  }
  EXPECT_EQ(peer.store().AddrOfOid(image.header.oid), obj);
}

TEST(Payloads, PiggybackWireSize) {
  Piggyback pb;
  EXPECT_TRUE(pb.Empty());
  EXPECT_EQ(pb.WireSize(), 0u);
  pb.updates.push_back(AddressUpdate{});
  pb.intra_ssp_requests.push_back(IntraSspRequest{});
  pb.replicated_stubs.push_back(InterStubTemplate{});
  EXPECT_FALSE(pb.Empty());
  EXPECT_EQ(pb.WireSize(), 28u + 16u + 28u);
}

TEST(Payloads, GcBackgroundTrafficIsMarked) {
  ScionMessagePayload scion;
  EXPECT_EQ(scion.category(), MsgCategory::kGcBackground);
  EXPECT_TRUE(scion.reliable());  // scion creation must not be lost

  ReachabilityTablePayload table;
  EXPECT_EQ(table.category(), MsgCategory::kGcBackground);
  EXPECT_FALSE(table.reliable());  // idempotent full state tolerates loss

  CopyRequestPayload copy_request;
  EXPECT_TRUE(copy_request.reliable());
  AddressChangePayload change;
  EXPECT_TRUE(change.reliable());
}

TEST(Payloads, TableWireSizeCountsAllEntryKinds) {
  ReachabilityTablePayload table;
  size_t base = table.WireSize();
  table.inter_stub_ids.push_back(1);
  table.intra_stub_oids.push_back(2);
  table.exiting_oids.push_back(3);
  table.exiting_addrs.push_back(4);
  EXPECT_EQ(table.WireSize(), base + 4 * 8);
}

TEST(Payloads, BaselineKindsAreForegroundOrUnreliable) {
  StrongUpdatePayload strong;
  EXPECT_EQ(strong.category(), MsgCategory::kGcForeground);
  EXPECT_TRUE(strong.reliable());

  StwStopPayload stop;
  EXPECT_EQ(stop.category(), MsgCategory::kGcForeground);

  RcIncrementPayload inc;
  RcDecrementPayload dec;
  EXPECT_FALSE(inc.reliable());  // the fragility §6.1 argues against
  EXPECT_FALSE(dec.reliable());
  EXPECT_EQ(inc.category(), MsgCategory::kGcBackground);
}

TEST(Payloads, EveryKindHasAName) {
  for (uint8_t k = 0; k < static_cast<uint8_t>(MsgKind::kMaxKind); ++k) {
    EXPECT_STRNE(MsgKindName(static_cast<MsgKind>(k)), "Unknown");
  }
}

}  // namespace
}  // namespace bmx
