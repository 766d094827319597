// Message payloads of the entry-consistency protocol (paper §2.2, §5).

#ifndef SRC_DSM_PAYLOADS_H_
#define SRC_DSM_PAYLOADS_H_

#include <set>
#include <vector>

#include "src/common/types.h"
#include "src/dsm/piggyback.h"
#include "src/mem/object.h"
#include "src/net/message.h"

namespace bmx {

// Token request, routed along ownerPtr forwarding chains (Li & Hudak style,
// paper §2.2).  Identity is the *address*: the receiving node resolves its
// local forwarding headers to find the object, exactly as the paper's
// address-based model requires.
struct AcquireRequestPayload : public Payload {
  Gaddr addr = kNullAddr;
  bool write = false;
  NodeId requester = kInvalidNode;  // original requester, preserved across forwards
  uint32_t hops = 0;
  bool for_gc = false;  // set only by baseline collectors (ours never acquires)

  MsgKind kind() const override { return MsgKind::kAcquireRequest; }
  MsgCategory category() const override {
    return for_gc ? MsgCategory::kGcForeground : MsgCategory::kDsm;
  }
  size_t WireSize() const override { return 24; }
};

// Token grant.  Carries the object's bytes, its current address at the
// granter, the GC piggyback (invariants 1 and 3 of §5), and — for write
// grants — the entering-ownerPtr set that moves with ownership.
struct GrantPayload : public Payload {
  // Denied grants answer unroutable requests (the object no longer exists);
  // they carry no object and fail the requester's acquire.
  bool denied = false;
  Oid oid = kNullOid;
  BunchId bunch = kInvalidBunch;
  bool write = false;
  NodeId granter_owner_hint = kInvalidNode;  // probable owner after this grant
  // object.addr is the object's current (possibly post-GC) address.
  ObjectImage object;
  std::set<NodeId> entering_transfer;  // write grants: entering ownerPtr set
  Piggyback piggyback;
  bool for_gc = false;

  MsgKind kind() const override { return MsgKind::kGrant; }
  MsgCategory category() const override {
    return for_gc ? MsgCategory::kGcForeground : MsgCategory::kDsm;
  }
  size_t WireSize() const override {
    return 40 + object.SlotWireBytes() + entering_transfer.size() * 4 + piggyback.WireSize();
  }
};

struct InvalidatePayload : public Payload {
  Oid oid = kNullOid;
  MsgKind kind() const override { return MsgKind::kInvalidate; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override { return 12; }
};

struct InvalidateAckPayload : public Payload {
  Oid oid = kNullOid;
  MsgKind kind() const override { return MsgKind::kInvalidateAck; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override { return 12; }
};

// New-location information forwarded down a copy-set without a token transfer
// (invariant 2 of §5): the move-chain entries the receiver has not been sent.
struct ObjectPushPayload : public Payload {
  Piggyback piggyback;

  MsgKind kind() const override { return MsgKind::kObjectPush; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override { return 24 + piggyback.WireSize(); }
};

}  // namespace bmx

#endif  // SRC_DSM_PAYLOADS_H_
