// Wire-format registry for the simulated network.
//
// The network layer is transport only: it moves opaque payloads between nodes
// over FIFO point-to-point channels.  Like a port registry, the full set of
// message kinds used by the upper layers (DSM protocol, garbage collector,
// baseline collectors) is enumerated here so that traffic can be classified
// and accounted per kind — the paper's cost claims are stated in terms of
// which messages exist at all ("no extra message is used", §3.2/§4.4).

#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/types.h"

namespace bmx {

enum class MsgKind : uint8_t {
  // --- Entry-consistency DSM protocol (paper §2.2, §5). ---
  kAcquireRequest,    // read or write token request, routed along ownerPtrs
  kGrant,             // token grant: object bytes + GC piggyback payload
  kInvalidate,        // owner invalidating read copies before a write grant
  kInvalidateAck,
  kObjectPush,        // move-chain entries forwarded down a copy-set (invariant 2)

  // --- Garbage collector (paper §3-§6). ---
  kScionMessage,      // create an inter-bunch scion at target bunch (§3.2)
  kReachabilityTable, // new stub table + exiting ownerPtrs after a BGC (§4.3/§6)
  kCopyRequest,       // from-space reclaim: ask owner to copy a live object (§4.5)
  kCopyReply,
  kAddressChange,     // from-space reclaim: explicit new-location notice (§4.5)
  kAddressChangeAck,

  // --- Baseline collectors (paper §9 comparators). ---
  kStwStop,           // stop-the-world barrier
  kStwRootsReply,
  kStwRelocate,       // new global object map broadcast
  kStwResume,
  kRcIncrement,       // Bevan-style reference counting
  kRcDecrement,
  kStrongUpdate,      // strong-consistency collector: eager address update
  kStrongUpdateAck,

  // --- Crash recovery (RecoveryManager reconciliation). ---
  kRecoveryQuery,     // restarted node asks peers about tokens/scions/tables
  kRecoveryReply,

  // --- Batched transport (src/net/batch.h, PROTOCOLS.md §14). ---
  kBatchFrame,        // coalesced small control messages, one wire frame

  kMaxKind,  // sentinel, keep last
};

const char* MsgKindName(MsgKind kind);

// Traffic categories used by the statistics and by the paper's accounting:
// the GC design claim is that GC information rides on application-driven
// consistency messages (piggyback) or flows in the background.
enum class MsgCategory : uint8_t {
  kDsm,           // consistency-protocol traffic driven by applications
  kGcBackground,  // GC traffic that applications never wait for
  kGcForeground,  // GC traffic a baseline collector makes applications wait for
};

// Number of entries in MsgCategory, for per-category accounting tables.
inline constexpr size_t kNumMsgCategories = 3;

// Base class for typed message payloads.  Payloads are in-process structs; a
// payload reports the size it would occupy on a real wire so experiments can
// account bytes (piggyback bytes vs. dedicated messages).
class Payload {
 public:
  virtual ~Payload() = default;
  virtual MsgKind kind() const = 0;
  virtual MsgCategory category() const = 0;
  virtual size_t WireSize() const = 0;
  // Reliable payloads get transport guarantees from the simulated network:
  // ack/retransmit with backoff, receiver-side duplicate suppression, in-order
  // delivery, and redelivery after the destination reconnects — exactly-once
  // FIFO semantics.  Unreliable payloads are datagrams: fault injection may
  // lose, duplicate or reorder them, and the handler sees whatever arrives.
  // The paper's GC tables are designed for the unreliable class (idempotent
  // full state, §6.1); the DSM protocol itself assumes reliable delivery.
  virtual bool reliable() const { return true; }
};

struct Message {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  uint64_t seq = 0;  // per-channel wire sequence number, stamped by Network
  // Position in the channel's *reliable* stream (only meaningful when
  // payload->reliable()); the receiver uses it for duplicate suppression and
  // in-order reassembly.  Duplicates and retransmissions keep the original
  // rel_seq — that is what makes them recognizable.
  uint64_t rel_seq = 0;
  // Incarnation epochs of the endpoints at Send time (Network stamps them;
  // 0 = endpoint with no incarnation history, exempt from epoch checks).  A
  // node's epoch advances when a fresh incarnation re-registers after a
  // crash, so wire copies emitted by a previous life — grants, acks,
  // piggybacked updates already in flight when the sender died — carry a
  // stale src_epoch and are rejected at delivery instead of reaching a
  // handler that can no longer trust them.
  uint64_t src_epoch = 0;
  uint64_t dst_epoch = 0;
  // Earliest virtual-clock tick at which this wire copy may be delivered.
  // 0 (the default) means "immediately"; only links with a latency-inflating
  // LinkProfile stamp anything else, so the common path never consults it.
  uint64_t ready_at = 0;
  std::shared_ptr<const Payload> payload;
};

}  // namespace bmx

#endif  // SRC_NET_MESSAGE_H_
