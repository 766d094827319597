#include "src/net/network.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/common/fault_injector.h"
#include "src/common/perf_counters.h"
#include "src/common/retry.h"
#include "src/runtime/history.h"

namespace bmx {

namespace {

// RunUntilIdle's step cap; exceeding it is a fatal diagnostic (the network
// dump plus any open obligations) instead of an unbounded spin.
constexpr uint64_t kQuiesceBudget = 50'000'000;

}  // namespace

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kAcquireRequest:
      return "AcquireRequest";
    case MsgKind::kGrant:
      return "Grant";
    case MsgKind::kInvalidate:
      return "Invalidate";
    case MsgKind::kInvalidateAck:
      return "InvalidateAck";
    case MsgKind::kObjectPush:
      return "ObjectPush";
    case MsgKind::kScionMessage:
      return "ScionMessage";
    case MsgKind::kReachabilityTable:
      return "ReachabilityTable";
    case MsgKind::kCopyRequest:
      return "CopyRequest";
    case MsgKind::kCopyReply:
      return "CopyReply";
    case MsgKind::kAddressChange:
      return "AddressChange";
    case MsgKind::kAddressChangeAck:
      return "AddressChangeAck";
    case MsgKind::kStwStop:
      return "StwStop";
    case MsgKind::kStwRootsReply:
      return "StwRootsReply";
    case MsgKind::kStwRelocate:
      return "StwRelocate";
    case MsgKind::kStwResume:
      return "StwResume";
    case MsgKind::kRcIncrement:
      return "RcIncrement";
    case MsgKind::kRcDecrement:
      return "RcDecrement";
    case MsgKind::kStrongUpdate:
      return "StrongUpdate";
    case MsgKind::kStrongUpdateAck:
      return "StrongUpdateAck";
    case MsgKind::kRecoveryQuery:
      return "RecoveryQuery";
    case MsgKind::kRecoveryReply:
      return "RecoveryReply";
    case MsgKind::kBatchFrame:
      return "BatchFrame";
    case MsgKind::kMaxKind:
      break;
  }
  return "Unknown";
}

uint64_t NetworkStats::TotalSent() const {
  uint64_t n = 0;
  for (const auto& pk : per_kind) {
    n += pk.sent;
  }
  return n;
}

uint64_t NetworkStats::TotalBytes() const {
  uint64_t n = 0;
  for (const auto& pk : per_kind) {
    n += pk.bytes;
  }
  return n;
}

uint64_t NetworkStats::TotalWireBytes() const {
  uint64_t n = 0;
  for (const auto& pk : per_kind) {
    n += pk.wire_bytes;
  }
  return n;
}

uint64_t NetworkStats::TotalRetransmits() const {
  uint64_t n = 0;
  for (const auto& pk : per_kind) {
    n += pk.retransmits;
  }
  return n;
}

uint64_t NetworkStats::TotalDupSuppressed() const {
  uint64_t n = 0;
  for (const auto& pk : per_kind) {
    n += pk.dup_suppressed;
  }
  return n;
}

uint64_t NetworkStats::TotalRedelivered() const {
  uint64_t n = 0;
  for (const auto& pk : per_kind) {
    n += pk.redelivered;
  }
  return n;
}

uint64_t NetworkStats::SentInCategory(MsgCategory category) const {
  return ForCategory(category).sent;
}

uint64_t NetworkStats::BytesInCategory(MsgCategory category) const {
  return ForCategory(category).bytes;
}

std::string NetworkStats::Fingerprint() const {
  std::string out;
  for (size_t k = 0; k < per_kind.size(); ++k) {
    const PerKind& pk = per_kind[k];
    if (pk.sent == 0 && pk.delivered == 0 && pk.wire_bytes == 0) {
      continue;
    }
    out += MsgKindName(static_cast<MsgKind>(k));
    out += ':';
    out += std::to_string(pk.sent);
    out += ':';
    out += std::to_string(pk.delivered);
    out += ':';
    out += std::to_string(pk.dropped);
    out += ':';
    out += std::to_string(pk.retransmits);
    out += ':';
    out += std::to_string(pk.dup_suppressed);
    out += ':';
    out += std::to_string(pk.bytes);
    out += ':';
    out += std::to_string(pk.wire_bytes);
    out += '\n';
  }
  return out;
}

Network::Network(uint64_t seed)
    : root_seed_(seed),
      loss_rng_(DeriveStreamSeed(seed, RngStream::kUnreliableLoss)),
      dup_rng_(DeriveStreamSeed(seed, RngStream::kDuplication)),
      reorder_rng_(DeriveStreamSeed(seed, RngStream::kReorder)),
      rel_loss_rng_(DeriveStreamSeed(seed, RngStream::kReliableLoss)),
      ack_loss_rng_(DeriveStreamSeed(seed, RngStream::kAckLoss)),
      scheduler_(std::make_unique<FifoScheduler>()) {
  obligations_.AttachClock(&now_);
}

Network::~Network() { DetachFaultGate(); }

void Network::set_reliable_loss_rate(double p) {
  BMX_CHECK_LT(p, 1.0) << "a reliable channel that loses every transmission cannot terminate";
  reliable_loss_rate_ = p;
}

void Network::set_ack_loss_rate(double p) {
  BMX_CHECK_LT(p, 1.0) << "a channel that loses every ack cannot terminate";
  ack_loss_rate_ = p;
}

namespace {
// Decorrelates per-link fault streams from the global families and from each
// other: both endpoints are mixed into the root seed before the usual
// per-purpose split, so two links (and the two directions of one pair) own
// independent sequences.
uint64_t LinkStreamSeed(uint64_t root, NodeId src, NodeId dst, RngStream stream) {
  uint64_t salt = (static_cast<uint64_t>(src) + 1) * 0x9e3779b97f4a7c15ull ^
                  (static_cast<uint64_t>(dst) + 1) * 0xbf58476d1ce4e5b9ull;
  return DeriveStreamSeed(root ^ salt, stream);
}
}  // namespace

void Network::InstallLinkProfile(NodeId src, NodeId dst, const LinkProfile& profile) {
  BMX_CHECK_NE(src, dst);
  if (profile.loss_rate >= 0) {
    // The per-link rate also governs reliable transmissions on the link.
    BMX_CHECK_LT(profile.loss_rate, 1.0)
        << "a link that loses every transmission cannot terminate";
  }
  LinkState state{profile, Rng(LinkStreamSeed(root_seed_, src, dst, RngStream::kLinkLoss)),
                  Rng(LinkStreamSeed(root_seed_, src, dst, RngStream::kLinkDuplication)),
                  Rng(LinkStreamSeed(root_seed_, src, dst, RngStream::kLinkReliableLoss))};
  link_profiles_.insert_or_assign(ChannelKey{src, dst}, std::move(state));
  any_link_latency_ = false;
  for (const auto& [key, ls] : link_profiles_) {
    any_link_latency_ |= ls.profile.latency_ticks > 0;
  }
}

void Network::ClearLinkProfile(NodeId src, NodeId dst) {
  link_profiles_.erase(ChannelKey{src, dst});
  any_link_latency_ = false;
  for (const auto& [key, ls] : link_profiles_) {
    any_link_latency_ |= ls.profile.latency_ticks > 0;
  }
}

const LinkProfile* Network::FindLinkProfile(NodeId src, NodeId dst) const {
  if (link_profiles_.empty()) {
    return nullptr;
  }
  auto it = link_profiles_.find(ChannelKey{src, dst});
  return it == link_profiles_.end() ? nullptr : &it->second.profile;
}

bool Network::DrawLinkFault(DecisionPoint point, const ChannelKey& key, double rate, Rng* rng) {
  // An installed LinkProfile substitutes its own (rate, stream) pair at the
  // existing decision point; the decision-stream shape is unchanged, so
  // record/replay covers gray-failure runs for free.  The table is empty in
  // the common case, kept to one branch.
  auto it = link_profiles_.empty() ? link_profiles_.end() : link_profiles_.find(key);
  if (it != link_profiles_.end()) {
    LinkState& link = it->second;
    bool dup = point == DecisionPoint::kDuplication;
    double link_rate = dup ? link.profile.duplication_rate : link.profile.loss_rate;
    if (link_rate >= 0) {
      rate = link_rate;
      rng = dup ? &link.dup_rng
                : point == DecisionPoint::kReliableLoss ? &link.rel_loss_rng : &link.loss_rng;
    }
  }
  return DrawChance(point, rate, rng);
}

void Network::SetZombieNode(NodeId node, bool zombie) {
  if (zombie) {
    zombie_nodes_.insert(node);
  } else {
    zombie_nodes_.erase(node);
  }
}

uint64_t Network::ReadyAt(const ChannelKey& key) const {
  if (!any_link_latency_) {
    return 0;
  }
  auto it = link_profiles_.find(key);
  if (it == link_profiles_.end()) {
    return 0;
  }
  return now_ + it->second.profile.latency_ticks;
}

bool Network::ZombieDrop(const ChannelKey& key, const Message& msg) const {
  if (zombie_nodes_.count(msg.dst) > 0) {
    return true;
  }
  if (link_profiles_.empty()) {
    return false;
  }
  auto it = link_profiles_.find(key);
  if (it == link_profiles_.end() || !it->second.profile.zombie) {
    return false;
  }
  return it->second.profile.zombie_categories[static_cast<size_t>(msg.payload->category())];
}

bool Network::HasTrafficTouching(NodeId node) const {
  for (const auto& [key, channel] : channels_) {
    if (key.first != node && key.second != node) {
      continue;
    }
    if (!channel.queue.empty() || !channel.unacked.empty() || !channel.stashed.empty()) {
      return true;
    }
  }
  // Payloads still coalescing are in-flight traffic too: a deadline or
  // crash flush will put them on the wire without new protocol action,
  // so the liveness oracle must keep excusing obligations waiting on them.
  for (const auto& [key, batch] : pending_batches_) {
    if (key.first == node || key.second == node) {
      return true;
    }
  }
  return false;
}

std::string Network::DebugDump() const {
  std::string out = "network @tick " + std::to_string(now_) +
                    ": pending=" + std::to_string(pending_) +
                    " unacked=" + std::to_string(UnackedCount()) +
                    " reachable_unacked=" + std::to_string(ReachableUnackedCount()) + "\n";
  for (const auto& [key, channel] : channels_) {
    if (channel.queue.empty() && channel.unacked.empty() && channel.stashed.empty()) {
      continue;
    }
    out += "  ch " + std::to_string(key.first) + "->" + std::to_string(key.second) + ":";
    if (!channel.queue.empty()) {
      const Message& head = channel.queue.front();
      out += " queue=" + std::to_string(channel.queue.size());
      out += " head=";
      out += MsgKindName(head.payload->kind());
      if (head.ready_at > now_) {
        out += " head_ready_at=" + std::to_string(head.ready_at);
      }
    }
    if (!channel.unacked.empty()) {
      uint64_t earliest = UINT64_MAX;
      for (const auto& [rel_seq, entry] : channel.unacked) {
        earliest = std::min(earliest, entry.next_retry);
      }
      out += " unacked=" + std::to_string(channel.unacked.size());
      if (ReachableChannel(key)) {
        out += " next_retry=" + std::to_string(earliest);
      } else {
        out += " (parked)";
      }
    }
    if (!channel.stashed.empty()) {
      out += " stashed=" + std::to_string(channel.stashed.size());
    }
    out += "\n";
  }
  for (const auto& [key, batch] : pending_batches_) {
    out += "  batch " + std::to_string(key.first) + "->" + std::to_string(key.second) +
           ": entries=" + std::to_string(batch.entries.size()) +
           " bytes=" + std::to_string(batch.bytes) +
           " deadline=" + std::to_string(batch.deadline) + "\n";
  }
  if (obligations_.enabled() && obligations_.OpenCount() > 0) {
    out += obligations_.Dump();
  }
  return out;
}

void Network::set_scheduler(std::unique_ptr<SchedulerPolicy> scheduler) {
  scheduler_ = scheduler ? std::move(scheduler) : std::make_unique<FifoScheduler>();
}

void Network::StartRecording() {
  decisions_.StartRecording();
  decisions_.mutable_trace()->root_seed = root_seed_;
  decisions_.mutable_trace()->scheduler = scheduler_->name();
  AttachFaultGate();
}

Trace Network::TakeRecordedTrace() {
  DetachFaultGate();
  return decisions_.TakeTrace();
}

void Network::ReplayFrom(const Trace& trace) {
  decisions_.StartReplay(trace);
  AttachFaultGate();
}

void Network::AttachFaultGate() {
  if (fault_gate_attached_) {
    return;
  }
  FaultInjector::Global().set_fire_gate(this, [this](const char*, NodeId) {
    return decisions_.Resolve(DecisionPoint::kFaultFire, 1, [] { return uint64_t{1}; }) != 0;
  });
  fault_gate_attached_ = true;
}

void Network::DetachFaultGate() {
  if (!fault_gate_attached_) {
    return;
  }
  FaultInjector::Global().ClearFireGate(this);
  fault_gate_attached_ = false;
}

bool Network::DrawChance(DecisionPoint point, double rate, Rng* rng) {
  if (rate <= 0) {
    return false;  // the draw point does not exist: no decision index consumed
  }
  return decisions_.Resolve(point, 0,
                            [&] { return rng->Chance(rate) ? uint64_t{1} : uint64_t{0}; }) != 0;
}

void Network::PartitionNodes(NodeId a, NodeId b) {
  BMX_CHECK_NE(a, b);
  partitions_.insert({std::min(a, b), std::max(a, b)});
}

void Network::HealPartition(NodeId a, NodeId b) {
  partitions_.erase({std::min(a, b), std::max(a, b)});
  // Re-arm every payload that was waiting out the partition so the next pump
  // retransmits immediately instead of sleeping through residual backoff.
  for (const ChannelKey& key : {ChannelKey{a, b}, ChannelKey{b, a}}) {
    auto it = channels_.find(key);
    if (it == channels_.end()) {
      continue;
    }
    for (auto& [rel_seq, entry] : it->second.unacked) {
      entry.next_retry = now_;
    }
  }
}

bool Network::Partitioned(NodeId a, NodeId b) const {
  return !partitions_.empty() && partitions_.count({std::min(a, b), std::max(a, b)}) > 0;
}

bool Network::ReachableChannel(const ChannelKey& key) const {
  return handlers_.count(key.second) > 0 && !Partitioned(key.first, key.second);
}

void Network::CountWireCopy(const Payload& payload) {
  size_t size = payload.WireSize();
  stats_.For(payload.kind()).wire_bytes += size;
  stats_.ForCategory(payload.category()).wire_bytes += size;
}

void Network::CountParked(Channel* channel, const Message& msg) {
  auto it = channel->unacked.find(msg.rel_seq);
  if (it == channel->unacked.end() || it->second.parked_counted) {
    // Already retired, or already counted for this down period — a duplicated
    // wire copy reaching a dead destination must not park the payload twice.
    return;
  }
  it->second.parked_counted = true;
  stats_.For(msg.payload->kind()).parked++;
}

uint64_t Network::IncarnationOf(NodeId node) const {
  auto it = incarnation_.find(node);
  return it == incarnation_.end() ? 0 : it->second;
}

void Network::RegisterNode(NodeId node, MessageHandler* handler) {
  BMX_CHECK(handler != nullptr);
  bool fresh_incarnation = handlers_.count(node) == 0;
  handlers_[node] = handler;
  if (!fresh_incarnation) {
    return;  // handler swap on a live node: channels keep flowing untouched
  }
  incarnation_[node]++;  // first registration = epoch 1; each rebirth advances
  // A newly attached incarnation starts every inbound channel from sequence
  // zero and receives exactly the reliable traffic parked for it while it was
  // down.  The unacked map is keyed by the original rel_seq, so iteration
  // order is the original FIFO order and each payload appears exactly once;
  // queued wire copies addressed to the dead incarnation are superseded by
  // the replay and purged (their rel_seqs belong to the old numbering).
  for (auto& [key, channel] : channels_) {
    if (key.second != node) {
      continue;
    }
    for (auto it = channel.queue.begin(); it != channel.queue.end();) {
      if (it->payload->reliable()) {
        it = channel.queue.erase(it);
        pending_--;
      } else {
        ++it;
      }
    }
    channel.stashed.clear();
    channel.next_seq = 0;
    channel.next_rel_seq = 0;
    channel.expected_rel_seq = 0;
    std::map<uint64_t, RetxEntry> held;
    held.swap(channel.unacked);
    for (auto& [old_rel_seq, entry] : held) {
      // The replay is a fresh transmission by a live sender to the node's new
      // incarnation: re-stamped with both current epochs (or the copy would
      // be rejected as addressed to the dead one) and a fresh unacked entry,
      // whose parked_counted starts clear — if this incarnation dies too, the
      // payload parks (and counts) again for the new down period.
      stats_.For(entry.msg.payload->kind()).redelivered++;
      CountWireCopy(*entry.msg.payload);
      channel.queue.push_back(Stamp(key, &channel, entry.msg.payload));
      pending_++;
      stats_.wire_messages++;
    }
    Refile(key, &channel);
  }
}

void Network::Enqueue(Channel* channel, Message msg) {
  bool reorder = !channel->queue.empty() &&
                 DrawChance(DecisionPoint::kReorder, reorder_rate_, &reorder_rng_);
  if (reorder) {
    stats_.For(msg.payload->kind()).reordered++;
    channel->queue.insert(channel->queue.end() - 1, std::move(msg));
  } else {
    channel->queue.push_back(std::move(msg));
  }
  pending_++;
  stats_.wire_messages++;
}

void Network::Send(NodeId src, NodeId dst, std::shared_ptr<const Payload> payload) {
  BMX_CHECK(payload != nullptr);
  BMX_CHECK_NE(src, dst);
  if (incarnation_.count(src) > 0 && handlers_.count(src) == 0) {
    // A crashed node cannot emit traffic.  Lingering call frames of the dead
    // incarnation (a test-driven operation interrupted by a fault signal, a
    // teardown path) may still reach Send before the node object is torn
    // down; the wire never sees their messages.  Nodes the network has never
    // registered are exempt — raw-harness tests drive Send directly.
    return;
  }
  auto& pk = stats_.For(payload->kind());
  auto& pc = stats_.ForCategory(payload->category());
  size_t size = payload->WireSize();
  pk.sent++;
  pk.bytes += size;
  pc.sent++;
  pc.bytes += size;
  if (batch_policy_.enabled) {
    // Coalescing layer: small control payloads buffer into the channel's
    // pending batch (logical stats above are final — the frame, not the
    // payload, will be the wire copy).  A non-batchable send flushes the
    // channel's batch first, so the reliable stream keeps the exact send
    // order — a grant can never overtake the invalidations sent before it.
    if (Batchable(*payload)) {
      AppendToBatch(src, dst, std::move(payload));
      return;
    }
    FlushBatchFor({src, dst}, &stats_.batching.flush_ordering);
  }
  if (!payload->reliable() &&
      DrawLinkFault(DecisionPoint::kUnreliableLoss, {src, dst}, loss_rate_, &loss_rng_)) {
    CountWireCopy(*payload);  // a lost datagram still crossed the wire
    pk.dropped++;
    return;
  }
  uint64_t seq = Transmit({src, dst}, std::move(payload));
  // Causality observation for the consistency checker: one snapshot per
  // logical send, keyed by wire identity.  Duplicates and retransmissions
  // reuse the key; redelivery re-stamps (and is not re-reported — crash-free
  // consistency runs never take that path).
  if (history_ != nullptr) {
    history_->OnSend(src, dst, seq);
  }
}

Message Network::Stamp(const ChannelKey& key, Channel* channel,
                       std::shared_ptr<const Payload> payload) {
  Message msg;
  msg.src = key.first;
  msg.dst = key.second;
  msg.seq = channel->next_seq++;
  msg.rel_seq = payload->reliable() ? channel->next_rel_seq++ : 0;
  msg.src_epoch = IncarnationOf(key.first);
  msg.dst_epoch = IncarnationOf(key.second);
  msg.ready_at = ReadyAt(key);
  msg.payload = std::move(payload);
  if (msg.payload->reliable()) {
    RetxEntry entry;
    entry.msg = msg;
    entry.next_retry = now_ + RetryPolicy::BackoffFor(0);
    channel->unacked.emplace(msg.rel_seq, std::move(entry));
  }
  return msg;
}

uint64_t Network::Transmit(const ChannelKey& key, std::shared_ptr<const Payload> payload) {
  Channel& channel = channels_[key];
  Message msg = Stamp(key, &channel, std::move(payload));
  CountWireCopy(*msg.payload);
  if (DrawLinkFault(DecisionPoint::kDuplication, key, duplication_rate_, &dup_rng_)) {
    // The duplicate is a second wire copy of the SAME message: it keeps the
    // original seq/rel_seq (that is what receiver-side dedup keys on) and its
    // bytes count as real traffic.
    stats_.For(msg.payload->kind()).duplicated++;
    CountWireCopy(*msg.payload);
    Enqueue(&channel, msg);
  }
  uint64_t seq = msg.seq;
  Enqueue(&channel, std::move(msg));
  Refile(key, &channel);
  return seq;
}

void Network::set_batch_policy(const BatchPolicy& policy) {
  BMX_CHECK_EQ(pending_batched_, 0u)
      << "set the batch policy before any batchable traffic is pending";
  batch_policy_ = policy;
}

bool Network::Batchable(const Payload& payload) const {
  return BatchableMsgKind(payload.kind()) && payload.reliable() &&
         payload.WireSize() <= kBatchableSizeLimit;
}

void Network::AppendToBatch(NodeId src, NodeId dst, std::shared_ptr<const Payload> payload) {
  Channel& channel = channels_[{src, dst}];
  BatchedMessage entry;
  // The logical message keeps its own wire-sequence identity: the history
  // recorder snapshots causality *now* (at the logical send), and the unpack
  // path restores the same seq so the delivery joins this snapshot — batching
  // coarsens the wire, never the observed causality.
  entry.seq = channel.next_seq++;
  entry.payload = std::move(payload);
  if (history_ != nullptr) {
    history_->OnSend(src, dst, entry.seq);
  }
  PendingBatch& batch = pending_batches_[{src, dst}];
  if (batch.entries.empty()) {
    batch.deadline = now_ + kBatchDeadlineTicks;
  }
  batch.bytes += entry.payload->WireSize();
  batch.entries.push_back(std::move(entry));
  pending_batched_++;
  stats_.batching.batched_payloads++;
  if (batch.entries.size() >= kBatchMaxEntries || batch.bytes >= kBatchMaxBytes) {
    FlushBatchFor({src, dst}, &stats_.batching.flush_full);
  }
}

void Network::FlushBatchFor(const ChannelKey& key, uint64_t* trigger_counter) {
  auto it = pending_batches_.find(key);
  if (it == pending_batches_.end()) {
    return;
  }
  (*trigger_counter)++;
  std::vector<BatchedMessage> entries = std::move(it->second.entries);
  pending_batches_.erase(it);
  pending_batched_ -= entries.size();
  stats_.batching.frames_sent++;
  // The frame is a reliable payload like any other — duplication draws,
  // in-flight loss, retransmission, dedup, parking and redelivery all apply
  // to it, at the same decision points, so record/replay covers batched runs
  // unchanged.
  Transmit(key, std::make_shared<BatchFramePayload>(std::move(entries)));
}

void Network::FlushDueBatches() {
  // Collect first: flushing erases map entries, which must not race the
  // iteration.
  std::vector<ChannelKey> due;
  for (const auto& [key, batch] : pending_batches_) {
    if (batch.deadline <= now_) {
      due.push_back(key);
    }
  }
  for (const ChannelKey& key : due) {
    FlushBatchFor(key, &stats_.batching.flush_deadline);
  }
}

bool Network::DispatchReliable(const ChannelKey& key, MessageHandler* handler,
                               const Message& msg) {
  if (msg.payload->kind() != MsgKind::kBatchFrame) {
    return DeliverLogical(key, handler, msg);
  }
  // Batch frame: each logical message dispatches in send order under the
  // wire identity it was given at its logical send.
  stats_.For(MsgKind::kBatchFrame).delivered++;
  stats_.batching.frames_delivered++;
  for (const BatchedMessage& e : static_cast<const BatchFramePayload&>(*msg.payload).entries()) {
    Message inner = msg;
    inner.seq = e.seq;
    inner.payload = e.payload;
    if (!DeliverLogical(key, handler, inner)) {
      return false;  // crashed mid-frame: the rest died with the incarnation
    }
  }
  return true;
}

bool Network::DeliverLogical(const ChannelKey& key, MessageHandler* handler,
                             const Message& msg) {
  if (ZombieDrop(key, msg)) {
    // Zombie link/peer: the transport completed (acked, deduplicated,
    // reassembled) but dispatch is silently swallowed — a wire event, not a
    // delivery (mirroring the parked/redelivered accounting convention).
    stats_.For(msg.payload->kind()).zombie_dropped++;
    GlobalPerfCounters().zombie_dropped_msgs++;
    return true;
  }
  stats_.For(msg.payload->kind()).delivered++;
  // Join before the handler runs: messages the handler sends must carry the
  // sender's post-join clock, or causality through a relay is lost.
  if (history_ != nullptr) {
    history_->OnDeliver(msg.src, msg.dst, msg.seq);
  }
  if (!Dispatch(handler, msg)) {
    return false;
  }
  if (delivery_observer_) {
    delivery_observer_(msg);
  }
  return true;
}

void Network::AckReliable(const ChannelKey& key, Channel* channel, uint64_t rel_seq) {
  auto it = channel->unacked.find(rel_seq);
  if (it == channel->unacked.end()) {
    return;  // already acked (e.g. first copy of a duplicate)
  }
  if (DrawChance(DecisionPoint::kAckLoss, ack_loss_rate_, &ack_loss_rng_)) {
    // Ack lost in flight: the sender will retransmit and the receiver will
    // suppress the duplicate.
    return;
  }
  channel->unacked.erase(it);
  Refile(key, channel);
}

void Network::Refile(const ChannelKey& key, Channel* channel) {
  bool busy = !channel->queue.empty() || !channel->unacked.empty();
  if (busy == channel->filed) {
    return;
  }
  channel->filed = busy;
  auto it = std::lower_bound(busy_.begin(), busy_.end(), key,
                             [](const auto& entry, const ChannelKey& k) { return entry.first < k; });
  if (busy) {
    busy_.emplace(it, key, channel);
  } else {
    busy_.erase(it);
  }
}

bool Network::StaleEpoch(const Message& msg) const {
  if (msg.src_epoch != 0 && msg.src_epoch != IncarnationOf(msg.src)) {
    return true;  // emitted by a previous life of the sender
  }
  if (msg.dst_epoch != 0 && msg.dst_epoch != IncarnationOf(msg.dst)) {
    return true;  // addressed to a previous life of the receiver
  }
  return false;
}

bool Network::Dispatch(MessageHandler* handler, const Message& msg) {
  try {
    handler->HandleMessage(msg);
    return true;
  } catch (const NodeCrashSignal& signal) {
    BMX_CHECK(crash_listener_ != nullptr)
        << "fault site " << signal.site << " crashed node " << signal.node
        << " with no crash listener installed";
    crash_listener_(signal.node);
    return false;
  }
}

Network::Channel* Network::PickDeliveryChannel(ChannelKey* key_out) {
  // Latency-inflated links (any_link_latency_) hold a channel's head back
  // until its ready_at tick; when every queued copy is still in flight, the
  // event-driven virtual clock jumps to the earliest readiness and the scan
  // repeats.  Without latency profiles the loop exits on its first pass with
  // the historical behavior (ready_at is never consulted).
  for (;;) {
    uint64_t earliest_ready = UINT64_MAX;
    if (decisions_.mode() == DecisionLog::Mode::kLive && scheduler_->IsFifo()) {
      // Historical zero-overhead path: live FIFO consumes no decision indices
      // and builds no candidate list.
      for (const auto& [key, channel] : busy_) {
        if (channel->queue.empty()) {
          continue;
        }
        uint64_t ready_at = any_link_latency_ ? channel->queue.front().ready_at : 0;
        if (ready_at <= now_) {
          *key_out = key;
          return channel;
        }
        earliest_ready = std::min(earliest_ready, ready_at);
      }
    } else {
      std::vector<ChannelCandidate> candidates;
      std::vector<std::pair<ChannelKey, Channel*>> backing;
      for (const auto& [key, channel] : busy_) {
        if (channel->queue.empty()) {
          continue;
        }
        uint64_t ready_at = any_link_latency_ ? channel->queue.front().ready_at : 0;
        if (ready_at > now_) {
          // Still in flight: not a legal candidate, so it consumes no
          // decision index and latency composes with record/replay.
          earliest_ready = std::min(earliest_ready, ready_at);
          continue;
        }
        ChannelCandidate c;
        c.src = key.first;
        c.dst = key.second;
        c.head_kind = channel->queue.front().payload->kind();
        c.queue_len = channel->queue.size();
        c.deferred = channel->deferred;
        candidates.push_back(c);
        backing.emplace_back(key, channel);
      }
      if (!candidates.empty()) {
        size_t pick = 0;
        if (candidates.size() > 1) {
          // A single candidate is no choice at all: it consumes no decision
          // index, which keeps traces sparse and shrinkable.
          uint64_t resolved = decisions_.Resolve(DecisionPoint::kDeliverPick, 0, [&] {
            return static_cast<uint64_t>(scheduler_->Pick(candidates));
          });
          // Clamp out-of-range picks (an edited/shrunk trace may index a
          // candidate list that no longer exists at that width) so replay
          // stays total.
          pick = static_cast<size_t>(std::min<uint64_t>(resolved, candidates.size() - 1));
        }
        for (size_t i = 0; i < backing.size(); ++i) {
          backing[i].second->deferred = (i == pick) ? 0 : backing[i].second->deferred + 1;
        }
        *key_out = backing[pick].first;
        return backing[pick].second;
      }
    }
    if (earliest_ready == UINT64_MAX) {
      return nullptr;
    }
    now_ = earliest_ready;
  }
}

bool Network::DeliverOne() {
  if (!pending_batches_.empty()) {
    // Deadline trigger: batches older than deadline_ticks flush before the
    // next pick, bounding how long coalescing can delay a control message.
    // The map is empty whenever batching is off — zero cost on that path.
    FlushDueBatches();
  }
  ChannelKey key;
  Channel* picked = PickDeliveryChannel(&key);
  if (picked == nullptr && !pending_batches_.empty()) {
    // Nothing on the wire but batches still pending: the event-driven clock
    // jumps to the earliest deadline, exactly as PickDeliveryChannel does for
    // latency-held copies.  Without this a synchronous waiter (acquire loops
    // pump the network while idle) would starve behind its own batched
    // request.
    uint64_t earliest = UINT64_MAX;
    for (const auto& [k, batch] : pending_batches_) {
      earliest = std::min(earliest, batch.deadline);
    }
    if (now_ < earliest) {
      now_ = earliest;
    }
    FlushDueBatches();
    picked = PickDeliveryChannel(&key);
  }
  if (picked == nullptr) {
    return false;
  }
  Channel& channel = *picked;
  Message msg = std::move(channel.queue.front());
  channel.queue.pop_front();
  Refile(key, &channel);
  pending_--;
  now_++;  // every consumed wire copy costs one tick of virtual time
  auto& pk = stats_.For(msg.payload->kind());
  bool reliable = msg.payload->reliable();

  if (StaleEpoch(msg)) {
    // The sender (or addressee) of this wire copy has died since it was
    // emitted: the copy belongs to a previous incarnation and must not
    // reach a handler.  Reliable copies carry no retransmission obligation
    // here — the dead sender's unacked state died with it.
    pk.epoch_rejected++;
    GlobalPerfCounters().epoch_rejected_msgs++;
    return true;
  }
  if (force_drop_reliable_ > 0 && reliable) {
    force_drop_reliable_--;
    pk.lost_transmissions++;
    return true;  // entry stays unacked; the timer will retransmit
  }
  if (Partitioned(key.first, key.second)) {
    if (reliable) {
      pk.lost_transmissions++;  // waits in unacked until the partition heals
    } else {
      pk.dropped++;
    }
    return true;
  }
  auto handler = handlers_.find(msg.dst);
  if (handler == handlers_.end()) {
    if (reliable) {
      // Destination crashed or never attached: hold for redelivery.  The
      // unacked entry *is* the parked copy; it is counted once per down
      // period no matter how many wire copies arrive here.
      CountParked(&channel, msg);
    } else {
      pk.dropped++;
    }
    return true;
  }
  if (reliable) {
    if (DrawLinkFault(DecisionPoint::kReliableLoss, key, reliable_loss_rate_, &rel_loss_rng_)) {
      pk.lost_transmissions++;
      return true;
    }
    if (msg.rel_seq < channel.expected_rel_seq || channel.stashed.count(msg.rel_seq) > 0) {
      // Duplicate (network duplication, retransmission after a lost ack, or
      // a second copy of a stashed message): suppress, but re-ack so the
      // sender stops retransmitting.
      pk.dup_suppressed++;
      AckReliable(key, &channel, msg.rel_seq);
      return true;
    }
    AckReliable(key, &channel, msg.rel_seq);
    if (msg.rel_seq > channel.expected_rel_seq) {
      // Out of order (an earlier reliable payload is still in flight):
      // stash until the gap fills.  Not a delivery yet.
      channel.stashed.emplace(msg.rel_seq, std::move(msg));
      return true;
    }
    channel.expected_rel_seq++;
    // The gap this message filled may release stashed successors.  They were
    // already received and acked, so they must NOT re-enter the queue (where
    // loss faults apply); collect them now — before the handler runs and can
    // mutate channel state — and deliver them inline, in order.
    std::vector<Message> ready;
    while (!channel.stashed.empty() &&
           channel.stashed.begin()->first == channel.expected_rel_seq) {
      ready.push_back(std::move(channel.stashed.begin()->second));
      channel.stashed.erase(channel.stashed.begin());
      channel.expected_rel_seq++;
    }
    if (!DispatchReliable(key, handler->second, msg)) {
      return true;  // destination crashed processing this delivery
    }
    for (Message& released : ready) {
      auto h = handlers_.find(released.dst);
      if (h == handlers_.end()) {
        break;  // destination crashed mid-delivery; volatile state is gone
      }
      if (!DispatchReliable(key, h->second, released)) {
        return true;  // crashed on a released successor; the rest die too
      }
    }
    return true;
  }

  DeliverLogical(key, handler->second, msg);
  return true;
}

bool Network::FireRetransmitTimers() {
  uint64_t earliest = UINT64_MAX;
  for (const auto& [key, channel] : busy_) {
    if (channel->unacked.empty() || !ReachableChannel(key)) {
      continue;
    }
    for (const auto& [rel_seq, entry] : channel->unacked) {
      earliest = std::min(earliest, entry.next_retry);
    }
  }
  if (earliest == UINT64_MAX) {
    return false;
  }
  if (now_ < earliest) {
    now_ = earliest;  // event-driven virtual time: jump to the next deadline
  }
  // The re-queue below needs no Refile: a channel with unacked entries is
  // already filed.
  bool fired = false;
  for (const auto& [key, channel] : busy_) {
    if (channel->unacked.empty() || !ReachableChannel(key)) {
      continue;
    }
    for (auto& [rel_seq, entry] : channel->unacked) {
      if (entry.next_retry > now_) {
        continue;
      }
      entry.attempts++;
      // Exponential, capped: bit-identical to the legacy
      // base << min(attempts, 16) shift.
      entry.next_retry = now_ + RetryPolicy::BackoffFor(entry.attempts);
      stats_.For(entry.msg.payload->kind()).retransmits++;
      CountWireCopy(*entry.msg.payload);
      Message copy = entry.msg;
      copy.ready_at = ReadyAt(key);
      channel->queue.push_back(std::move(copy));
      pending_++;
      stats_.wire_messages++;
      fired = true;
    }
  }
  return fired;
}

bool Network::DrainUntilIdle(uint64_t budget, std::string* diagnostic) {
  for (;;) {
    // DeliverOne returns false only with nothing queued and nothing
    // coalescing (a pending batch is flushed by its deadline clock jump), so
    // the network never reports idle with a batch unsent.
    if (!DeliverOne() && !FireRetransmitTimers()) {
      return true;
    }
    if (budget == 0) {
      if (diagnostic != nullptr) {
        *diagnostic = DebugDump();
      }
      return false;
    }
    budget--;
  }
}

void Network::RunUntilIdle() {
  // The budget guards against a protocol that ping-pongs forever; no
  // legitimate workload in this repository approaches it.  On
  // overrun the failure carries the pending-state dump — per-channel queues,
  // unacked entries with live timers, and any open obligations — instead of
  // spinning silently.
  std::string diagnostic;
  if (!DrainUntilIdle(kQuiesceBudget, &diagnostic)) {
    BMX_CHECK(false) << "network failed to quiesce within " << kQuiesceBudget << " steps\n"
                     << diagnostic;
  }
  // Quiescence contract: the loop above may only stop when every unacked
  // reliable payload is addressed to a down or partitioned peer (parked).  A
  // payload on a reachable channel always has a live retransmit timer, and
  // FireRetransmitTimers advances the clock to it — returning with one still
  // pending would silently drop the delivery guarantee.
  BMX_CHECK_EQ(ReachableUnackedCount(), 0u)
      << "RunUntilIdle returned with live retransmit obligations";
  // And nothing is queued: a queued channel missing from busy_ would have
  // made DeliverOne report idle too early.
  BMX_CHECK(Idle()) << "RunUntilIdle returned with " << pending_ << " wire copies queued";
}

bool Network::RunUntilIdleBounded(uint64_t max_steps, std::string* diagnostic) {
  if (!DrainUntilIdle(max_steps, diagnostic)) {
    return false;
  }
  BMX_CHECK_EQ(ReachableUnackedCount(), 0u)
      << "RunUntilIdle returned with live retransmit obligations";
  BMX_CHECK(Idle()) << "RunUntilIdle returned with " << pending_ << " wire copies queued";
  return true;
}

bool Network::Idle() const { return pending_ == 0 && pending_batched_ == 0; }

size_t Network::PendingCount() const { return pending_; }

size_t Network::UnackedCount() const {
  size_t n = 0;
  for (const auto& [key, channel] : channels_) {
    n += channel.unacked.size();
  }
  return n;
}

size_t Network::HeldCount() const {
  size_t n = 0;
  for (const auto& [key, channel] : channels_) {
    if (handlers_.count(key.second) == 0) {
      n += channel.unacked.size();
    }
  }
  return n;
}

size_t Network::ReachableUnackedCount() const {
  size_t n = 0;
  for (const auto& [key, channel] : busy_) {
    BMX_CHECK(!channel->queue.empty() || !channel->unacked.empty())
        << "idle channel " << key.first << "->" << key.second << " left in the busy index";
    if (ReachableChannel(key)) {
      n += channel->unacked.size();
    }
  }
  return n;
}

size_t Network::DropParked(NodeId src, NodeId dst, MsgKind kind) {
  // A batchable kind could also sit in a pending batch or inside a sealed
  // frame, which this function does not search.
  BMX_CHECK(!BatchableMsgKind(kind)) << "DropParked of batchable kind " << MsgKindName(kind);
  auto it = channels_.find({src, dst});
  if (it == channels_.end()) {
    return 0;
  }
  size_t dropped = 0;
  Channel& channel = it->second;
  for (auto u = channel.unacked.begin(); u != channel.unacked.end();) {
    if (u->second.msg.payload->kind() == kind) {
      // Also remove any wire copies of this payload still awaiting delivery,
      // or a future incarnation of dst would see a retransmission of a
      // payload the sender no longer stands behind.
      uint64_t rel_seq = u->first;
      for (auto q = channel.queue.begin(); q != channel.queue.end();) {
        if (q->payload->reliable() && q->rel_seq == rel_seq &&
            q->payload->kind() == kind) {
          pending_--;
          q = channel.queue.erase(q);
        } else {
          ++q;
        }
      }
      u = channel.unacked.erase(u);
      dropped++;
    } else {
      ++u;
    }
  }
  Refile(it->first, &channel);
  return dropped;
}

void Network::DisconnectNode(NodeId node) {
  if (!pending_batches_.empty()) {
    // The crash catches coalescing buffers mid-flight: batches FROM the node
    // die with its volatile state (they never reached the wire); batches TO
    // it flush now, so the frames park in the senders' unacked buffers and
    // replay to the next incarnation like any reliable payload (counted as
    // flush_quiesce).
    std::vector<ChannelKey> to_node;
    for (auto it = pending_batches_.begin(); it != pending_batches_.end();) {
      if (it->first.first == node) {
        pending_batched_ -= it->second.entries.size();
        it = pending_batches_.erase(it);
      } else {
        if (it->first.second == node) {
          to_node.push_back(it->first);
        }
        ++it;
      }
    }
    for (const ChannelKey& key : to_node) {
      FlushBatchFor(key, &stats_.batching.flush_quiesce);
    }
  }
  handlers_.erase(node);
  if (incarnation_.count(node) > 0) {
    // The life that stamped its epoch on in-flight copies is over; advancing
    // the epoch *now* (not at re-registration) is what rejects those copies
    // at delivery even before any successor attaches.
    incarnation_[node]++;
  }
  for (auto it = channels_.begin(); it != channels_.end();) {
    Channel& channel = it->second;
    bool to_node = it->first.second == node;
    bool from_node = it->first.first == node;
    if (!to_node && !from_node) {
      ++it;
      continue;
    }
    if (to_node) {
      // Copies headed to the crashed node can no longer be received.
      // Reliable payloads TO the node survive in the unacked buffer (parked
      // for redelivery); queued unreliable copies are lost.
      for (const Message& msg : channel.queue) {
        if (!msg.payload->reliable()) {
          stats_.For(msg.payload->kind()).dropped++;
        }
      }
      pending_ -= channel.queue.size();
      channel.queue.clear();
      for (auto& [rel_seq, entry] : channel.unacked) {
        // Each payload parks once per down period; a copy that already hit
        // the dead destination in DeliverOne was counted there.
        if (!entry.parked_counted) {
          entry.parked_counted = true;
          stats_.For(entry.msg.payload->kind()).parked++;
        }
      }
    } else {
      // A crash cannot recall wire copies the node already emitted: queued
      // traffic FROM it stays in flight, stamped with the dead incarnation's
      // epoch, and is rejected at delivery.  The sender-side retransmission
      // state dies with the node's volatile memory.
      channel.unacked.clear();
    }
    // Receiver-side reassembly state of the dead incarnation's stream is
    // meaningless to its successor either way.
    channel.stashed.clear();
    // Re-registration semantics: sequences RESET.  The next incarnation of
    // the node starts every channel from seq zero (both directions), so it
    // can never observe a discontinuity from its predecessor's traffic.
    channel.next_seq = 0;
    channel.next_rel_seq = 0;
    channel.expected_rel_seq = 0;
    Refile(it->first, &channel);
    if (channel.unacked.empty() && channel.queue.empty()) {
      it = channels_.erase(it);  // prune empty channels
    } else {
      ++it;
    }
  }
}

}  // namespace bmx
