// Message payloads of the garbage collector.
//
// GC traffic never blocks applications: scion-messages and reachability
// tables flow in the background (paper §6.1), and the reachability tables are
// *idempotent* — full state, not increments — so they survive loss and
// duplication without a reliable transport, needing only FIFO per channel,
// which the version number provides.

#ifndef SRC_GC_PAYLOADS_H_
#define SRC_GC_PAYLOADS_H_

#include <vector>

#include "src/common/types.h"
#include "src/dsm/piggyback.h"
#include "src/mem/object.h"
#include "src/net/message.h"

namespace bmx {

// "Create the scion for the inter-bunch reference I just created" (§3.2).
// Sent when the target bunch is not mapped at the creating node.
struct ScionMessagePayload : public Payload {
  NodeId src_node = kInvalidNode;
  BunchId src_bunch = kInvalidBunch;
  uint64_t stub_id = 0;
  Gaddr target_addr = kNullAddr;
  BunchId target_bunch = kInvalidBunch;

  MsgKind kind() const override { return MsgKind::kScionMessage; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override { return 28; }
};

// The reconstructed reachability information a BGC ships to scion cleaners
// (§4.3, §6.1): which stubs (inter and intra) survived, and which exiting
// ownerPtrs remain — everything the destination needs to delete scions and
// entering ownerPtrs that nothing references any more.  Content is filtered
// per destination (only entries whose scion / ownerPtr lives there).
struct ReachabilityTablePayload : public Payload {
  NodeId src_node = kInvalidNode;
  BunchId bunch = kInvalidBunch;
  uint64_t version = 0;  // FIFO guard: stale tables must not delete scions

  std::vector<uint64_t> inter_stub_ids;  // surviving inter stubs with scion at dst
  std::vector<Oid> intra_stub_oids;      // surviving intra stubs with scion at dst
  std::vector<Oid> exiting_oids;         // oids we still hold non-owned live replicas of
  std::vector<Gaddr> exiting_addrs;      // address-based exiting entries (dangling refs)

  MsgKind kind() const override { return MsgKind::kReachabilityTable; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override {
    return 20 + 8 * (inter_stub_ids.size() + intra_stub_oids.size() + exiting_oids.size() +
                     exiting_addrs.size());
  }
  // Idempotent full-state tables tolerate loss and duplication (§6.1).
  bool reliable() const override { return false; }
};

// From-space reclamation (§4.5): ask the owner of a live, non-locally-owned
// object still sitting in our from-space to copy it out.
struct CopyRequestPayload : public Payload {
  uint64_t round = 0;  // correlates with the requester's reclamation round
  NodeId requester = kInvalidNode;  // survives ownerPtr forwarding
  uint32_t hops = 0;
  Oid oid = kNullOid;
  Gaddr addr = kNullAddr;  // where the requester's replica currently sits
  // Segments the requester is about to free: the owner must not place the
  // relocated copy in any of them.
  std::vector<SegmentId> freeing;
  MsgKind kind() const override { return MsgKind::kCopyRequest; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override { return 20 + 4 * freeing.size(); }
};

struct CopyReplyPayload : public Payload {
  uint64_t round = 0;
  Oid oid = kNullOid;
  BunchId bunch = kInvalidBunch;
  ObjectImage object;  // the owner's copy, at its new address
  MsgKind kind() const override { return MsgKind::kCopyReply; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override { return 24 + kHeaderBytes + object.SlotWireBytes(); }
};

// From-space reclamation: explicit new-location notices for nodes that would
// otherwise learn lazily.  Ack'ed so the sender knows when the from-space
// segment can be reused ("Once the local node receives the replies to the
// above messages, the from-space segment can be fully reused or freed").
struct AddressChangePayload : public Payload {
  uint64_t round = 0;
  std::vector<AddressUpdate> updates;
  MsgKind kind() const override { return MsgKind::kAddressChange; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override { return 8 + updates.size() * kAddressUpdateWireBytes; }
};

struct AddressChangeAckPayload : public Payload {
  uint64_t round = 0;
  MsgKind kind() const override { return MsgKind::kAddressChangeAck; }
  MsgCategory category() const override { return MsgCategory::kGcBackground; }
  size_t WireSize() const override { return 8; }
};

}  // namespace bmx

#endif  // SRC_GC_PAYLOADS_H_
