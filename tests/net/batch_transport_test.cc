// The coalescing layer of the transport (src/net/batch.h, PROTOCOLS.md §14)
// driven directly on a Network at the constant flush caps: every flush
// trigger — full by entry count and by bytes, deadline (including
// DeliverOne's clock jump when nothing else is queued), ordering, quiescence
// and a crash — plus the frame byte model, DropParked's reach, and batches
// caught by a node crash.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/batch.h"
#include "src/net/network.h"

namespace bmx {
namespace {

// A batchable control payload of a chosen wire size.
struct ControlProbe : public Payload {
  ControlProbe(size_t size, uint64_t value) : size(size), value(value) {}
  MsgKind kind() const override { return MsgKind::kInvalidate; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override { return size; }
  size_t size;
  uint64_t value;
};

// Batchable background traffic of another category.
struct ScionProbe : public Payload {
  explicit ScionProbe(size_t size) : size(size) {}
  MsgKind kind() const override { return MsgKind::kScionMessage; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override { return size; }
  size_t size;
};

// Never batchable: acquire requests gate mutator progress.
struct AcquireProbe : public Payload {
  MsgKind kind() const override { return MsgKind::kAcquireRequest; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override { return 16; }
};

class Recorder : public MessageHandler {
 public:
  void HandleMessage(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

uint64_t ValueOf(const Message& msg) {
  return static_cast<const ControlProbe&>(*msg.payload).value;
}

std::shared_ptr<const Payload> Control(uint64_t value, size_t size = 8) {
  return std::make_shared<ControlProbe>(size, value);
}

// A network with batching on and handlers for nodes 0..n-1.
struct BatchedNet {
  explicit BatchedNet(size_t n) : handlers(n) {
    net.set_batch_policy(BatchPolicy{.enabled = true});
    for (size_t i = 0; i < n; ++i) {
      net.RegisterNode(static_cast<NodeId>(i), &handlers[i]);
    }
  }
  const NetworkStats::Batching& batching() const { return net.stats().batching; }
  Network net{1};
  std::vector<Recorder> handlers;
};

TEST(BatchTransport, FullByEntryCountFlushesAtTheCap) {
  BatchedNet b(2);
  for (uint64_t i = 0; i + 1 < kBatchMaxEntries; ++i) {
    b.net.Send(0, 1, Control(i));
  }
  EXPECT_EQ(b.net.PendingBatchedCount(), kBatchMaxEntries - 1);
  EXPECT_EQ(b.net.PendingCount(), 0u);
  EXPECT_FALSE(b.net.Idle());
  EXPECT_EQ(b.batching().frames_sent, 0u);

  b.net.Send(0, 1, Control(kBatchMaxEntries - 1));
  EXPECT_EQ(b.net.PendingBatchedCount(), 0u);
  EXPECT_EQ(b.net.PendingCount(), 1u);  // one frame on the wire
  EXPECT_EQ(b.batching().flush_full, 1u);
  EXPECT_EQ(b.batching().frames_sent, 1u);
  EXPECT_EQ(b.batching().batched_payloads, kBatchMaxEntries);

  b.net.RunUntilIdle();
  const std::vector<Message>& got = b.handlers[1].received;
  ASSERT_EQ(got.size(), kBatchMaxEntries);
  for (uint64_t i = 0; i < kBatchMaxEntries; ++i) {
    EXPECT_EQ(ValueOf(got[i]), i);
    EXPECT_EQ(got[i].seq, i);  // each entry keeps its logical wire identity
  }
  EXPECT_EQ(b.batching().frames_delivered, 1u);
  EXPECT_EQ(b.net.stats().For(MsgKind::kBatchFrame).delivered, 1u);
  EXPECT_EQ(b.net.stats().For(MsgKind::kInvalidate).delivered, kBatchMaxEntries);
  EXPECT_EQ(b.batching().flush_deadline, 0u);
}

TEST(BatchTransport, FullByBytesFlushesAtTheCap) {
  // Largest batchable payloads: the byte cap seals the batch before the
  // entry cap can.
  constexpr size_t kPerFrame = kBatchMaxBytes / kBatchableSizeLimit;
  static_assert(kPerFrame < kBatchMaxEntries);
  BatchedNet b(2);
  for (uint64_t i = 0; i + 1 < kPerFrame; ++i) {
    b.net.Send(0, 1, Control(i, kBatchableSizeLimit));
  }
  EXPECT_EQ(b.batching().flush_full, 0u);
  EXPECT_EQ(b.net.PendingBatchedCount(), kPerFrame - 1);
  b.net.Send(0, 1, Control(kPerFrame - 1, kBatchableSizeLimit));
  EXPECT_EQ(b.batching().flush_full, 1u);
  EXPECT_EQ(b.net.PendingBatchedCount(), 0u);

  b.net.RunUntilIdle();
  ASSERT_EQ(b.handlers[1].received.size(), kPerFrame);
  EXPECT_EQ(b.batching().frames_sent, 1u);
}

TEST(BatchTransport, DeadlineFlushesWhileOtherTrafficFlows) {
  BatchedNet b(4);
  b.net.Send(0, 1, Control(7));  // opens a batch with deadline kBatchDeadlineTicks
  for (int i = 0; i < 8; ++i) {
    b.net.Send(2, 3, std::make_shared<AcquireProbe>());
  }
  // Every DeliverOne before the deadline consumes unbatched 2->3 traffic.
  for (uint64_t t = 0; t < kBatchDeadlineTicks; ++t) {
    ASSERT_TRUE(b.net.DeliverOne());
  }
  EXPECT_EQ(b.net.now(), kBatchDeadlineTicks);
  EXPECT_EQ(b.net.PendingBatchedCount(), 1u);
  EXPECT_TRUE(b.handlers[1].received.empty());
  EXPECT_EQ(b.handlers[3].received.size(), kBatchDeadlineTicks);

  // At the deadline the batch flushes before the pick; FIFO then takes the
  // lower channel, 0->1.
  ASSERT_TRUE(b.net.DeliverOne());
  EXPECT_EQ(b.batching().flush_deadline, 1u);
  EXPECT_EQ(b.net.PendingBatchedCount(), 0u);
  ASSERT_EQ(b.handlers[1].received.size(), 1u);
  EXPECT_EQ(ValueOf(b.handlers[1].received[0]), 7u);
}

TEST(BatchTransport, DeadlineClockJumpsWhenNothingElseIsQueued) {
  BatchedNet b(2);
  b.net.Send(0, 1, Control(3));
  EXPECT_EQ(b.net.PendingCount(), 0u);
  // Nothing is on the wire, so a synchronous waiter pumping DeliverOne must
  // not starve: the clock jumps to the deadline, the batch flushes, and the
  // frame is consumed in the same step.
  ASSERT_TRUE(b.net.DeliverOne());
  EXPECT_EQ(b.net.now(), kBatchDeadlineTicks + 1);
  EXPECT_EQ(b.batching().flush_deadline, 1u);
  ASSERT_EQ(b.handlers[1].received.size(), 1u);
  EXPECT_EQ(ValueOf(b.handlers[1].received[0]), 3u);
  EXPECT_FALSE(b.net.DeliverOne());
}

TEST(BatchTransport, UnbatchableSendFlushesFirstAndKeepsOrder) {
  BatchedNet b(2);
  b.net.Send(0, 1, Control(0));
  b.net.Send(0, 1, Control(1));
  b.net.Send(0, 1, std::make_shared<AcquireProbe>());
  EXPECT_EQ(b.batching().flush_ordering, 1u);
  EXPECT_EQ(b.net.PendingBatchedCount(), 0u);
  // Over the size limit, a batchable kind travels unbatched; with no batch
  // pending on the channel there is nothing to flush.
  b.net.Send(0, 1, Control(3, kBatchableSizeLimit + 1));
  EXPECT_EQ(b.batching().flush_ordering, 1u);
  EXPECT_EQ(b.batching().batched_payloads, 2u);

  b.net.RunUntilIdle();
  const std::vector<Message>& got = b.handlers[1].received;
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(ValueOf(got[0]), 0u);
  EXPECT_EQ(ValueOf(got[1]), 1u);
  EXPECT_EQ(got[2].payload->kind(), MsgKind::kAcquireRequest);
  EXPECT_EQ(ValueOf(got[3]), 3u);
  EXPECT_EQ(b.batching().frames_sent, 1u);
}

TEST(BatchTransport, QuiescenceLeavesNoBatchPending) {
  BatchedNet b(4);
  b.net.Send(0, 1, Control(1));
  b.net.Send(2, 1, Control(2));
  b.net.Send(3, 0, Control(3));
  EXPECT_FALSE(b.net.Idle());
  b.net.RunUntilIdle();
  EXPECT_TRUE(b.net.Idle());
  EXPECT_EQ(b.net.PendingBatchedCount(), 0u);
  EXPECT_EQ(b.handlers[1].received.size(), 2u);
  EXPECT_EQ(b.handlers[0].received.size(), 1u);
  // The idle drain reaches every batch through the deadline clock jump, one
  // flush per channel; the crash trigger never ran.
  EXPECT_EQ(b.batching().flush_deadline, 3u);
  EXPECT_EQ(b.batching().flush_quiesce, 0u);
  EXPECT_EQ(b.batching().frames_sent, 3u);
}

TEST(BatchTransport, FrameWireSizeIsTheEncodedImageSize) {
  const size_t kSizes[] = {1, 8, 37, kBatchableSizeLimit};
  std::vector<BatchedMessage> entries;
  std::vector<BatchWireEntry> wire;
  for (size_t size : kSizes) {
    std::shared_ptr<const Payload> p = std::make_shared<ScionProbe>(size);
    wire.push_back(BatchWireEntry{static_cast<uint8_t>(p->kind()),
                                  static_cast<uint8_t>(p->category()),
                                  std::vector<uint8_t>(size, 0)});
    entries.push_back(BatchedMessage{entries.size(), std::move(p)});
  }
  const size_t image_size = EncodeBatchFrame(wire).size();
  BatchFramePayload frame(entries);
  EXPECT_EQ(frame.WireSize(), image_size);
  EXPECT_EQ(frame.category(), MsgCategory::kGcBackground);

  // On the wire: the frame carries exactly that many bytes; its entries
  // count logical bytes only.
  BatchedNet b(2);
  size_t logical = 0;
  for (size_t size : kSizes) {
    b.net.Send(0, 1, std::make_shared<ScionProbe>(size));
    logical += size;
  }
  b.net.RunUntilIdle();
  const NetworkStats& stats = b.net.stats();
  EXPECT_EQ(stats.batching.frames_sent, 1u);
  EXPECT_EQ(stats.For(MsgKind::kBatchFrame).wire_bytes, image_size);
  EXPECT_EQ(stats.For(MsgKind::kBatchFrame).sent, 0u);
  EXPECT_EQ(stats.For(MsgKind::kScionMessage).bytes, logical);
  EXPECT_EQ(stats.For(MsgKind::kScionMessage).wire_bytes, 0u);
  EXPECT_EQ(stats.ForCategory(MsgCategory::kGcBackground).wire_bytes, image_size);
}

TEST(BatchTransport, DropParkedAcquireRequestLeavesPendingBatchIntact) {
  BatchedNet b(2);
  b.net.DisconnectNode(1);
  b.net.Send(0, 1, std::make_shared<AcquireProbe>());  // parks toward node 1
  b.net.Send(0, 1, Control(5));                        // coalesces behind it
  EXPECT_EQ(b.net.PendingBatchedCount(), 1u);

  EXPECT_EQ(b.net.DropParked(0, 1, MsgKind::kAcquireRequest), 1u);
  EXPECT_EQ(b.net.PendingBatchedCount(), 1u);
  EXPECT_EQ(b.net.UnackedCount(), 0u);

  b.net.RegisterNode(1, &b.handlers[1]);
  b.net.RunUntilIdle();
  const std::vector<Message>& got = b.handlers[1].received;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(ValueOf(got[0]), 5u);
  EXPECT_EQ(b.net.stats().For(MsgKind::kAcquireRequest).delivered, 0u);
}

TEST(BatchTransport, DropParkedRejectsBatchableKinds) {
  BatchedNet b(2);
  EXPECT_DEATH(b.net.DropParked(0, 1, MsgKind::kInvalidate), "batchable");
}

TEST(BatchTransport, CrashDropsOutboundBatchesAndParksInboundOnes) {
  BatchedNet b(3);
  b.net.Send(0, 1, Control(10));  // from the node about to crash
  b.net.Send(2, 0, Control(20));  // to it
  EXPECT_EQ(b.net.PendingBatchedCount(), 2u);

  b.net.DisconnectNode(0);
  EXPECT_EQ(b.net.PendingBatchedCount(), 0u);
  EXPECT_EQ(b.batching().flush_quiesce, 1u);  // only the batch toward node 0
  EXPECT_EQ(b.batching().frames_sent, 1u);

  b.net.RunUntilIdle();
  EXPECT_TRUE(b.handlers[1].received.empty());
  EXPECT_EQ(b.net.HeldCount(), 1u);
  EXPECT_EQ(b.net.stats().For(MsgKind::kBatchFrame).parked, 1u);

  b.net.RegisterNode(0, &b.handlers[0]);
  EXPECT_EQ(b.net.stats().For(MsgKind::kBatchFrame).redelivered, 1u);
  b.net.RunUntilIdle();
  ASSERT_EQ(b.handlers[0].received.size(), 1u);
  EXPECT_EQ(ValueOf(b.handlers[0].received[0]), 20u);
  EXPECT_EQ(b.net.HeldCount(), 0u);
  EXPECT_TRUE(b.handlers[1].received.empty());
}

}  // namespace
}  // namespace bmx
