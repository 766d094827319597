// Deterministic simulated network: FIFO point-to-point channels, per-kind and
// per-category statistics, seeded fault injection (loss, duplication,
// reordering, transient partitions, node crashes), a reliable-delivery layer
// for payloads that declare reliable() == true, and a pluggable delivery
// scheduler with decision-stream record/replay for systematic schedule
// exploration.
//
// The simulation is single-threaded and event-driven: Send() enqueues,
// RunUntilIdle() drains every channel in a deterministic order, invoking the
// destination node's handler for each delivery.  Handlers may send further
// messages; delivery continues until the network is quiescent.
//
// Nondeterminism model (see src/net/scheduler.h and docs/PROTOCOLS.md §11):
// every nondeterministic choice — which channel delivers next, each fault
// draw, whether an armed crash-point fires — flows through one DecisionLog.
// The default FifoScheduler preserves the historical drain order bit-for-bit;
// alternative SchedulerPolicy implementations explore other legal
// interleavings, and ReplayFrom(Trace) reproduces a recorded run exactly.
//
// Delivery classes (see docs/PROTOCOLS.md, "Delivery guarantees and fault
// model"):
//
//   * reliable() payloads get exactly-once, per-channel FIFO delivery.  Each
//     transmission can be lost (reliable_loss_rate, partitions) and its
//     transport ack can be lost (ack_loss_rate); a virtual clock drives
//     timeout-based retransmission with exponential backoff, and the receiver
//     suppresses duplicates / reassembles order keyed on the original
//     reliable sequence number.  Traffic addressed to a disconnected node is
//     held in the sender's unacked buffer and replayed, FIFO and
//     deduplicated, when the node re-registers.
//   * unreliable payloads are datagrams: loss_rate, duplication_rate and
//     reorder_rate apply, duplicates reach the handler (carrying the original
//     seq so receivers *can* dedup), and nothing is ever retransmitted.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/obligations.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/net/batch.h"
#include "src/net/message.h"
#include "src/net/scheduler.h"

namespace bmx {

class HistoryRecorder;

// Gray-failure profile for one directed link (src → dst).  Uninstalled links
// behave exactly as before — the profile table is consulted only when
// non-empty, and per-link fault draws come from dedicated RNG streams
// (kLinkLoss/kLinkDuplication/kLinkReliableLoss mixed with the link
// endpoints), so installing a profile on one link never perturbs the draw
// sequences of the global knobs or of other links.
struct LinkProfile {
  // Every wire copy on the link becomes deliverable only latency_ticks after
  // it is enqueued (directional: the reverse link is unaffected).
  uint64_t latency_ticks = 0;
  // Per-link overrides of the global loss knobs; negative = inherit.  The
  // loss rate applies to both delivery classes of the link: datagram loss for
  // unreliable payloads, in-flight transmission loss (masked by
  // retransmission) for reliable ones.
  double loss_rate = -1.0;
  double duplication_rate = -1.0;
  // Zombie link: the destination stays transport-alive (acks, dedup,
  // reassembly all run) but payload dispatch is silently swallowed for the
  // selected categories — the gray failure where a peer looks healthy to the
  // transport and dead to the protocol.
  bool zombie = false;
  std::array<bool, kNumMsgCategories> zombie_categories{{true, true, true}};
};

class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void HandleMessage(const Message& msg) = 0;
};

struct NetworkStats {
  struct PerKind {
    uint64_t sent = 0;        // logical sends (duplicates/retransmits excluded)
    uint64_t delivered = 0;   // handed to a handler exactly once each
    uint64_t dropped = 0;     // app-visible losses (unreliable class only)
    uint64_t duplicated = 0;  // extra wire copies injected by duplication faults
    uint64_t bytes = 0;       // wire bytes of logical sends
    // bytes plus every duplicate, retransmission and redelivery copy — the
    // traffic a real wire would carry under the configured fault mix.
    uint64_t wire_bytes = 0;
    uint64_t lost_transmissions = 0;  // reliable copies lost in flight/partition
    uint64_t retransmits = 0;         // timer-driven resends of unacked payloads
    uint64_t dup_suppressed = 0;      // receiver-side dedup hits (reliable stream)
    uint64_t reordered = 0;           // sends perturbed by reordering injection
    // Reliable payloads held for a down node.  Counted once per payload per
    // down period — never per wire copy, so a duplicated transmission that
    // reaches a dead destination twice still parks a single payload.
    uint64_t parked = 0;
    uint64_t redelivered = 0;         // parked payloads replayed on re-register
    // Wire copies rejected at delivery because an endpoint's incarnation
    // epoch advanced after they were emitted (crash recovery).
    uint64_t epoch_rejected = 0;
    // Dispatches swallowed by a zombie link/peer: the transport completed
    // (acked, deduplicated, counted as wire bytes) but no handler ran.
    // Mirrors the parked/redelivered convention — a zombie drop is a wire
    // event, never a logical send, and `delivered` does not count it.
    uint64_t zombie_dropped = 0;
  };
  // Category is recorded from each payload at Send time (a single kind can
  // span categories, e.g. acquire requests issued for a baseline collector).
  // sent/bytes count logical sends exactly once: retransmissions, duplicates
  // and post-reconnect redeliveries only ever add to wire_bytes.
  struct PerCategory {
    uint64_t sent = 0;
    uint64_t bytes = 0;
    uint64_t wire_bytes = 0;
  };

  // Coalescing-layer accounting (src/net/batch.h).  Frames appear in per_kind
  // under kBatchFrame with wire-side numbers only (delivered, wire_bytes,
  // retransmits, ...): logical sent/bytes stay zero for frames so every
  // "logical traffic" query — TotalSent, TotalBytes, per-category sent —
  // reports identical values with batching on or off.
  struct Batching {
    uint64_t frames_sent = 0;        // frames flushed onto the wire
    uint64_t frames_delivered = 0;   // frames unpacked at a destination
    uint64_t batched_payloads = 0;   // logical messages that rode in a frame
    uint64_t flush_full = 0;         // entry- or byte-cap flushes
    uint64_t flush_deadline = 0;     // age-bound flushes (kBatchDeadlineTicks)
    uint64_t flush_ordering = 0;     // non-batchable send forced the flush
    uint64_t flush_quiesce = 0;      // destination crashed (DisconnectNode)
  };

  std::array<PerKind, static_cast<size_t>(MsgKind::kMaxKind)> per_kind;
  std::array<PerCategory, kNumMsgCategories> per_category;
  Batching batching;
  // Wire copies enqueued on any channel: logical sends (or frames, when
  // batching coalesces), duplicates, retransmissions and post-reconnect
  // redeliveries.  The scale benchmarks report this as the message count a
  // real wire would carry.
  uint64_t wire_messages = 0;

  PerKind& For(MsgKind kind) { return per_kind[static_cast<size_t>(kind)]; }
  const PerKind& For(MsgKind kind) const { return per_kind[static_cast<size_t>(kind)]; }
  PerCategory& ForCategory(MsgCategory c) { return per_category[static_cast<size_t>(c)]; }
  const PerCategory& ForCategory(MsgCategory c) const {
    return per_category[static_cast<size_t>(c)];
  }

  uint64_t TotalSent() const;
  uint64_t TotalBytes() const;
  uint64_t TotalWireBytes() const;
  uint64_t TotalRetransmits() const;
  uint64_t TotalDupSuppressed() const;
  uint64_t TotalRedelivered() const;
  uint64_t SentInCategory(MsgCategory category) const;
  uint64_t BytesInCategory(MsgCategory category) const;

  // Canonical per-kind traffic fingerprint, one line per kind with traffic:
  // "Kind:sent:delivered:dropped:retransmits:dup_suppressed:bytes:wire\n".
  // Bit-identical across a record/replay pair; the explorer and the replay-
  // determinism tests pin it.
  std::string Fingerprint() const;
};

class Network {
 public:
  // The seed is a root: each independent random-decision family (loss,
  // duplication, reorder, reliable loss, ack loss) draws from its own stream
  // derived via DeriveStreamSeed, so configuring one fault knob never
  // perturbs another family's sequence.
  explicit Network(uint64_t seed = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Attaches (or re-attaches) a node.  Re-registration after DisconnectNode
  // starts every channel touching the node from sequence number zero — a
  // recovered node never observes a seq discontinuity — and replays reliable
  // traffic that was parked for the node while it was down (FIFO per channel,
  // deduplicated, re-stamped with fresh sequence numbers).
  void RegisterNode(NodeId node, MessageHandler* handler);

  // Enqueues a message for FIFO delivery on the (src, dst) channel.  Fault
  // injection applies per delivery class (see header comment).
  void Send(NodeId src, NodeId dst, std::shared_ptr<const Payload> payload);

  // Consumes the head of the scheduler-chosen non-empty channel: delivers it,
  // or spends it on a fault (loss, duplicate suppression, reassembly stash,
  // parking).  Each consumed message advances the virtual clock by one tick.
  // Returns false if nothing was pending.
  bool DeliverOne();

  // Retransmits every due unacked reliable payload whose destination is
  // reachable (registered, not partitioned), first advancing the virtual
  // clock to the earliest deadline if none is due yet.  Returns false if
  // there was nothing eligible to retransmit.
  bool FireRetransmitTimers();

  // Drains all channels; handlers may enqueue more work, which is also
  // drained, and unacked reliable payloads are retransmitted (advancing the
  // virtual clock past their backoff deadlines) until every reachable
  // destination has acked.  Guarded against runaway protocols by a delivery
  // budget.  Reliable traffic to disconnected or partitioned nodes stays
  // parked and does not prevent quiescence.  Postcondition (checked): no
  // unacked payload with a live retransmit timer remains on a reachable
  // channel — quiescence leaves pending state only where the peer is down or
  // partitioned, bounded by the parked-payload buffers.
  void RunUntilIdle();

  // Non-fatal variant of RunUntilIdle for probing suspected livelocks: stops
  // after max_steps deliveries/timer firings and returns false, filling
  // *diagnostic (if non-null) with the pending-obligation dump that the fatal
  // path would have printed.  Returns true on quiescence (postcondition
  // checked as in RunUntilIdle).
  bool RunUntilIdleBounded(uint64_t max_steps, std::string* diagnostic);

  // Per-channel pending state: queue depths and head readiness, unacked
  // entries with their earliest retransmit deadline, reassembly stashes —
  // the dump a quiescence-budget failure or a liveness verdict attaches.
  std::string DebugDump() const;

  bool Idle() const;
  size_t PendingCount() const;
  // Unacked reliable payloads (in flight, awaiting ack, or parked).
  size_t UnackedCount() const;
  // Unacked reliable payloads whose destination is currently unregistered;
  // these are replayed when the destination re-registers.
  size_t HeldCount() const;
  // Unacked reliable payloads whose destination is registered and not
  // partitioned — payloads RunUntilIdle still owes a retransmission.  Zero at
  // quiescence; the quiescence regression tests pin both edges.
  size_t ReachableUnackedCount() const;

  // --- Virtual clock (ticks; one tick per consumed message). ---
  uint64_t now() const { return now_; }
  void AdvanceClock(uint64_t ticks) { now_ += ticks; }

  // --- Gray-failure injection (see LinkProfile). ---
  void InstallLinkProfile(NodeId src, NodeId dst, const LinkProfile& profile);
  void ClearLinkProfile(NodeId src, NodeId dst);
  const LinkProfile* FindLinkProfile(NodeId src, NodeId dst) const;
  // Node-level zombie: every inbound link of the node drops dispatch for all
  // categories (transport stays alive).  Orthogonal to per-link profiles.
  void SetZombieNode(NodeId node, bool zombie);

  // --- Progress obligations (liveness oracle ledger). ---
  // Disabled unless something calls obligations().Enable(); protocol layers
  // Open/Close through this accessor and the LivenessOracle reads it.  The
  // tracker is observation-only: no wire byte, stat or decision changes.
  ObligationTracker& obligations() { return obligations_; }
  const ObligationTracker& obligations() const { return obligations_; }

  // True while any queued wire copy, unacked reliable payload or reassembly
  // stash touches `node` as sender or receiver — i.e. progress involving the
  // node may still arrive without new action.  The liveness oracle uses this
  // to excuse obligations that are merely waiting on in-flight traffic.
  bool HasTrafficTouching(NodeId node) const;

  // --- Delivery scheduling & decision record/replay. ---
  // Installs the policy choosing which channel delivers next.  The default
  // FifoScheduler preserves the historical drain order bit-for-bit; nullptr
  // restores it.
  void set_scheduler(std::unique_ptr<SchedulerPolicy> scheduler);
  SchedulerPolicy& scheduler() { return *scheduler_; }
  const DecisionLog& decisions() const { return decisions_; }

  // Starts recording every non-default decision into a trace.  Begin on a
  // fresh network (before any Send) so trace indices cover the whole run.
  void StartRecording();
  // Stops recording and returns the trace (scenario/seed metadata filled by
  // the caller; scheduler name is stamped here).
  Trace TakeRecordedTrace();
  // Replays a recorded decision stream: recorded indices override each
  // choice, everything else takes the deterministic default, and no Rng or
  // SchedulerPolicy is consulted.  A fresh network replaying the trace of a
  // recorded run reproduces it bit-identically (same deliveries, same stats
  // fingerprint).  Truncated or edited traces still replay deterministically.
  void ReplayFrom(const Trace& trace);

  // Invoked after every message handed to a handler (not for drops, parks or
  // suppressed duplicates).  The explorer hooks invariant checks here.
  void set_delivery_observer(std::function<void(const Message&)> observer) {
    delivery_observer_ = std::move(observer);
  }

  // --- Client-history recording (consistency checker). ---
  // When set, the network reports message causality out of band — each
  // logical send, and each delivery *before* the handler runs so sends the
  // handler emits inherit the joined clock.  Pure observation: no wire byte,
  // stat, or decision index changes, so traffic fingerprints and recorded
  // traces stay bit-identical with or without a recorder (pinned by
  // tests/runtime/consistency_test.cc).  Null disables (one branch per
  // send/delivery).
  void set_history_recorder(HistoryRecorder* recorder) { history_ = recorder; }
  HistoryRecorder* history_recorder() const { return history_; }

  // --- Fault injection. ---
  // Loss probability applied to unreliable payloads (app-visible loss).
  void set_loss_rate(double p) { loss_rate_ = p; }
  // Duplication probability.  Unreliable duplicates reach the handler;
  // reliable duplicates are suppressed by the receiver (and counted).
  void set_duplication_rate(double p) { duplication_rate_ = p; }
  // Probability that a send is enqueued one slot early, perturbing channel
  // order.  The reliable stream is reassembled in order at the receiver;
  // unreliable payloads arrive out of order.
  void set_reorder_rate(double p) { reorder_rate_ = p; }
  // Probability that a single transmission of a reliable payload is lost in
  // flight (masked by retransmission).  Must be < 1.0 or delivery could
  // never terminate.
  void set_reliable_loss_rate(double p);
  // Probability that the transport ack for a delivered reliable payload is
  // lost, forcing a retransmission the receiver then suppresses.  Must be
  // < 1.0.
  void set_ack_loss_rate(double p);
  // Deterministically loses the next n reliable transmissions (testing hook
  // for retransmission/backoff behavior).
  void ForceDropReliableTransmissions(size_t n) { force_drop_reliable_ += n; }

  // Transient partition between a and b (both directions): unreliable
  // traffic is dropped, reliable traffic waits in the unacked buffer and
  // flows after HealPartition.
  void PartitionNodes(NodeId a, NodeId b);
  void HealPartition(NodeId a, NodeId b);
  bool Partitioned(NodeId a, NodeId b) const;

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  // Simulates a node crash: the handler is unregistered, queued unreliable
  // traffic to the node is dropped, and unacked reliable traffic to the node
  // is parked for redelivery.  Wire copies already in flight FROM the node
  // are not recalled — a real crash cannot chase packets — but they carry the
  // dead incarnation's epoch and are rejected at delivery.  All channel
  // sequence state touching the node is reset; empty channels are pruned.
  void DisconnectNode(NodeId node);

  // True while the node has a registered handler (i.e. is not crashed or
  // disconnected).  The DSM layer uses this to distinguish "my request is
  // deferred at a live peer" from "my request is parked toward a dead one".
  bool NodeAttached(NodeId node) const { return handlers_.count(node) > 0; }

  // --- Batched control-message transport (src/net/batch.h, §14). ---
  // Installs the coalescing policy.  Disabled (the default) is the pinned
  // baseline: every code path below is a single `enabled` branch away from
  // the historical transport, and the fingerprint tests hold it bit-identical.
  // Must be set before any batchable traffic is pending.
  void set_batch_policy(const BatchPolicy& policy);
  // Logical messages currently coalescing (not yet flushed into a frame).
  size_t PendingBatchedCount() const { return pending_batched_; }

  // Drops parked/unacked reliable payloads of one kind from the (src, dst)
  // channel, plus any queued wire copies of them.  Used when the sender
  // abandons a request addressed to a crashed node: without this, the request
  // would be replayed to the node's next incarnation even though the caller
  // already gave up on it (and possibly reissued it elsewhere).  Returns the
  // number of payloads dropped.  The kind must not be batchable (checked):
  // payloads inside pending batches and frames are out of its reach.
  size_t DropParked(NodeId src, NodeId dst, MsgKind kind);

  // --- Incarnation epochs. ---
  // Every registered node has an incarnation number (first registration = 1);
  // re-registration after DisconnectNode advances it.  Send() stamps both
  // endpoints' epochs on the message, and DeliverOne() rejects wire copies
  // whose stamped epoch no longer matches — the transport-level filter that
  // makes a previous life's grants, acks and piggybacks inert.  Nodes never
  // seen by RegisterNode have epoch 0 and are exempt (test harnesses).
  uint64_t IncarnationOf(NodeId node) const;

  // Invoked (if set) when a handler throws NodeCrashSignal mid-delivery: the
  // cluster converts the signal into a node crash (DisconnectNode + deferred
  // teardown of the node object).  The listener runs after the victim's stack
  // has unwound; it must not destroy the handler object synchronously if the
  // victim's own frames may still be live below RunUntilIdle.
  void set_crash_listener(std::function<void(NodeId)> listener) {
    crash_listener_ = std::move(listener);
  }

 private:
  using ChannelKey = std::pair<NodeId, NodeId>;

  struct RetxEntry {
    Message msg;
    uint32_t attempts = 0;  // retransmissions so far (not counting the send)
    uint64_t next_retry = 0;
    // True once the payload was counted in the `parked` stat for the current
    // down period of its destination; cleared when the payload is redelivered
    // to a fresh incarnation.  Guards against double-counting a payload whose
    // wire copies reach a dead destination more than once (duplication).
    bool parked_counted = false;
  };

  struct Channel {
    std::deque<Message> queue;  // wire copies awaiting a delivery attempt
    uint64_t next_seq = 0;
    uint64_t next_rel_seq = 0;
    // Receiver state for the reliable stream.
    uint64_t expected_rel_seq = 0;
    std::map<uint64_t, Message> stashed;  // out-of-order reliable arrivals
    // Sender state: every un-acked reliable payload, keyed by rel_seq.  Also
    // serves as the redelivery queue while the destination is disconnected.
    std::map<uint64_t, RetxEntry> unacked;
    // Consecutive scheduler picks this channel had a pending head but was
    // passed over; DelayBoundedScheduler bounds reordering with it.
    uint64_t deferred = 0;
  };

  // Per-link gray-failure state: the profile plus dedicated fault-draw
  // streams, derived lazily from link-mixed stream seeds at install time.
  struct LinkState {
    LinkProfile profile;
    Rng loss_rng;
    Rng dup_rng;
    Rng rel_loss_rng;
  };

  // One per-channel coalescing buffer (batching enabled only); flushed into a
  // BatchFramePayload by the full, deadline, ordering or crash triggers.
  struct PendingBatch {
    std::vector<BatchedMessage> entries;
    size_t bytes = 0;     // sum of entry payload wire sizes
    uint64_t deadline = 0;  // flush no later than this virtual-clock tick
  };

  // Stamps a new wire copy of `payload` on the channel (next seq and, if
  // reliable, next rel_seq; both endpoints' current epochs; link latency) and
  // opens a reliable payload's unacked entry.  Nothing is enqueued.
  Message Stamp(const ChannelKey& key, Channel* channel, std::shared_ptr<const Payload> payload);
  // Puts a new wire copy of `payload` on the channel — Stamp, wire-byte
  // accounting, the duplication draw, Enqueue — for both a logical send and a
  // flushed frame.  Returns the copy's seq.
  uint64_t Transmit(const ChannelKey& key, std::shared_ptr<const Payload> payload);
  void Enqueue(Channel* channel, Message msg);
  // Transport-level ack for a received reliable payload (subject to ack
  // loss).  Returns true if the sender's unacked entry was retired.
  void AckReliable(Channel* channel, uint64_t rel_seq);
  bool ReachableChannel(const ChannelKey& key) const;
  void CountWireCopy(const Payload& payload);
  // True if the wire copy was emitted by or addressed to an incarnation that
  // is no longer current (counted in epoch_rejected_msgs by the caller).
  bool StaleEpoch(const Message& msg) const;
  // Delivers to a handler, converting a thrown NodeCrashSignal into a crash
  // via the crash listener.  Returns false if the handler crashed.
  bool Dispatch(MessageHandler* handler, const Message& msg);
  // One fault draw routed through the decision stream: live/record modes
  // consult the per-purpose rng, replay consults the trace.  A rate of zero
  // consumes no decision index (the draw point does not exist).
  bool DrawChance(DecisionPoint point, double rate, Rng* rng);
  // DrawChance for a loss or duplication fault on one link: the global knob
  // (rate, rng) unless the link's profile overrides that rate.
  bool DrawLinkFault(DecisionPoint point, const ChannelKey& key, double rate, Rng* rng);
  // Chooses the channel DeliverOne consumes from (scheduler + decision
  // stream); returns nullptr when every queue is empty.
  Channel* PickDeliveryChannel(ChannelKey* key_out);
  // Marks the payload behind a wire copy as parked, exactly once per down
  // period (see RetxEntry::parked_counted).
  void CountParked(Channel* channel, const Message& msg);
  // Routes armed crash-point firings through the decision stream while this
  // network records or replays (see FaultInjector::set_fire_gate).
  void AttachFaultGate();
  void DetachFaultGate();
  // Virtual-clock tick at which a wire copy enqueued now on `key` becomes
  // deliverable (0 unless the link inflates latency).
  uint64_t ReadyAt(const ChannelKey& key) const;
  // True if this delivery must be swallowed by a zombie link/peer.
  bool ZombieDrop(const ChannelKey& key, const Message& msg) const;
  // Shared drain loop behind RunUntilIdle/RunUntilIdleBounded; false when the
  // step budget ran out (diagnostic filled if requested).
  bool DrainUntilIdle(uint64_t budget, std::string* diagnostic);

  // --- Coalescing layer internals (all no-ops while batching is off). ---
  // True when the payload may ride a batch frame under the current policy.
  bool Batchable(const Payload& payload) const;
  // Buffers one logical send into the channel's pending batch (logical stats
  // were already taken by Send); flushes on the size caps.
  void AppendToBatch(NodeId src, NodeId dst, std::shared_ptr<const Payload> payload);
  // Packs the channel's pending batch, if any, into one frame and transmits
  // it, counting the flush in *trigger_counter.
  void FlushBatchFor(const ChannelKey& key, uint64_t* trigger_counter);
  // Flushes every batch whose deadline has passed (start of DeliverOne).
  void FlushDueBatches();
  // Hands one in-order reliable delivery to the destination: a batch frame
  // unpacks into one logical delivery per entry; anything else is one logical
  // delivery.  Returns false if the destination crashed mid-dispatch.
  bool DispatchReliable(const ChannelKey& key, MessageHandler* handler, const Message& msg);
  // The logical delivery step of every payload: swallowed by a zombie
  // link/peer, or counted as delivered, joined into the history, dispatched
  // and shown to the delivery observer.  Returns false if the handler crashed.
  bool DeliverLogical(const ChannelKey& key, MessageHandler* handler, const Message& msg);

  uint64_t root_seed_;
  // One independent stream per random-decision family (satellite of the
  // determinism model: toggling one fault knob never perturbs another
  // family's draw sequence).
  Rng loss_rng_;
  Rng dup_rng_;
  Rng reorder_rng_;
  Rng rel_loss_rng_;
  Rng ack_loss_rng_;
  std::unique_ptr<SchedulerPolicy> scheduler_;
  DecisionLog decisions_;
  std::function<void(const Message&)> delivery_observer_;
  HistoryRecorder* history_ = nullptr;
  bool fault_gate_attached_ = false;
  uint64_t now_ = 0;
  // Gray-failure state.  any_link_latency_ lets the scheduler skip the
  // readiness scan entirely when no installed profile inflates latency.
  std::map<ChannelKey, LinkState> link_profiles_;
  std::set<NodeId> zombie_nodes_;
  bool any_link_latency_ = false;
  ObligationTracker obligations_;
  double loss_rate_ = 0.0;
  double duplication_rate_ = 0.0;
  double reorder_rate_ = 0.0;
  double reliable_loss_rate_ = 0.0;
  double ack_loss_rate_ = 0.0;
  size_t force_drop_reliable_ = 0;
  std::map<NodeId, MessageHandler*> handlers_;
  // Incarnation number per node ever registered (see IncarnationOf).
  std::map<NodeId, uint64_t> incarnation_;
  std::function<void(NodeId)> crash_listener_;
  // std::map keeps channel iteration order deterministic.
  std::map<ChannelKey, Channel> channels_;
  std::set<ChannelKey> partitions_;  // stored as (min, max)
  NetworkStats stats_;
  size_t pending_ = 0;
  // Coalescing layer (batching enabled only).  std::map for deterministic
  // flush order; pending_batched_ mirrors the total entry count so Idle()
  // and the liveness oracle see buffered-but-unflushed traffic.
  BatchPolicy batch_policy_;
  std::map<ChannelKey, PendingBatch> pending_batches_;
  size_t pending_batched_ = 0;
};

}  // namespace bmx

#endif  // SRC_NET_NETWORK_H_
