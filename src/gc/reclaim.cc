// From-space reclamation (paper §4.5).
//
// After a BGC, a from-space segment may still hold (a) forwarding headers for
// objects we copied and (b) live objects we do not own.  Before the segment
// can be reused or freed we must (a) tell every node that might still use the
// old addresses about the changes — the owner already knows who: the nodes
// its entering ownerPtrs originate from — and (b) ask the owners of the live
// non-owned objects to copy them out.  These are the only explicit messages
// the whole collector ever sends; they flow in the background and
// applications never wait on them.

#include <set>

#include "src/common/check.h"
#include "src/common/fault_injector.h"
#include "src/gc/gc_engine.h"

namespace bmx {

void GcEngine::ReclaimFromSpaces(BunchId bunch) {
  BunchState& state = StateOf(bunch);
  if (state.from_spaces.empty()) {
    return;
  }
  uint64_t round = next_reclaim_round_++;
  PendingReclaim pending;
  pending.bunch = bunch;
  pending.segments = state.from_spaces;
  stats_.reclaim_rounds++;
  // Crash here and the round dies with the node; the from-spaces simply wait
  // for the next life's reclamation pass.
  FAULT_POINT("reclaim.round.pre_notices", id_);

  std::map<NodeId, std::vector<AddressUpdate>> notices;
  auto notify_interested = [&](const AddressUpdate& update) {
    // §4.5: "the list of nodes where an object's reference must be updated is
    // already kept in the object's owner node ... nodes from where the set of
    // entering ownerPtrs originate."
    const auto& entering = dsm_->EnteringFor(bunch);
    auto it = entering.find(update.oid);
    if (it != entering.end()) {
      for (NodeId node : it->second) {
        if (node != id_) {
          notices[node].push_back(update);
        }
      }
    }
    if (!dsm_->IsLocallyOwned(update.oid)) {
      NodeId owner = dsm_->OwnerHint(update.oid);
      if (owner != kInvalidNode && owner != id_) {
        notices[owner].push_back(update);
      }
    }
  };

  for (SegmentId seg : pending.segments) {
    SegmentImage* image = store_->Find(seg);
    if (image == nullptr) {
      continue;
    }
    std::vector<std::pair<Gaddr, ObjectHeader*>> objects;
    image->ForEachObject(
        [&](Gaddr addr, ObjectHeader& header) { objects.emplace_back(addr, &header); });
    for (auto [addr, header] : objects) {
      Oid oid = header->oid;
      if (header->forwarded()) {
        notify_interested(AddressUpdate{oid, bunch, addr, dsm_->ResolveAddr(addr)});
        continue;
      }
      // Orphaned stale copy (the canonical local copy lives elsewhere after
      // out-of-order updates): demote it to a plain forwarder.
      Gaddr canonical = dsm_->ResolveOid(oid);
      if (canonical != addr && store_->HeaderOf(canonical) != nullptr) {
        header->flags |= kObjFlagForwarded;
        header->forward = canonical;
        continue;
      }
      if (dsm_->IsLocallyOwned(oid)) {
        // We own it but it still sits in from-space (e.g. ownership arrived
        // after the BGC and the grant installed it at the old address):
        // relocate it ourselves.
        std::set<SegmentId> avoid(pending.segments.begin(), pending.segments.end());
        Gaddr new_addr = RelocateOwned(bunch, addr, header, avoid);
        notify_interested(AddressUpdate{oid, bunch, addr, new_addr});
        continue;
      }
      // Live object owned elsewhere: ask its owner to copy it (§4.5).  A
      // replica without local token bookkeeping is routed through the
      // directory's registry; if nobody owns the object it is globally dead
      // and the bytes can go.
      NodeId owner = dsm_->OwnerHint(oid);
      if (owner == kInvalidNode || owner == id_) {
        owner = directory_->OwnerOf(oid);
      }
      if (owner == kInvalidNode || owner == id_) {
        image->EraseObject(addr);
        continue;
      }
      auto request = std::make_shared<CopyRequestPayload>();
      request->round = round;
      request->requester = id_;
      request->oid = oid;
      request->addr = addr;
      request->freeing = pending.segments;
      network_->Send(id_, owner, std::move(request));
      stats_.copy_requests_sent++;
      pending.outstanding++;
    }
  }

  for (auto& [node, updates] : notices) {
    auto change = std::make_shared<AddressChangePayload>();
    change->round = round;
    change->updates = std::move(updates);
    network_->Send(id_, node, std::move(change));
    stats_.address_change_messages++;
    pending.outstanding++;
  }

  pending_reclaims_[round] = std::move(pending);
  network_->obligations().Open(ObligationKind::kGcReclaim, id_, round);
  FinishReclaimIfDone(round);
}

void GcEngine::HandleCopyRequest(const Message& msg) {
  const auto& request = static_cast<const CopyRequestPayload&>(*msg.payload);
  if (!dsm_->IsLocallyOwned(request.oid)) {
    // Ownership moved on; forward along the ownerPtr chain like any request.
    // If this node already dropped its token bookkeeping (replica swept),
    // fall back to address-based routing through the tombstones.
    NodeId owner = dsm_->OwnerHint(request.oid);
    if (owner == kInvalidNode || owner == id_ || request.hops >= 8) {
      // Bounded-hop rescue through the BMX-server's owner registry.
      NodeId authoritative = directory_->OwnerOf(request.oid);
      if (authoritative != kInvalidNode && authoritative != id_) {
        owner = authoritative;
      } else if (owner == kInvalidNode || owner == id_) {
        owner = dsm_->ProbableOwnerForAddr(request.addr);
      }
    }
    if (owner == kInvalidNode || owner == id_) {
      // No route to an owner: the object's ownership record died with a
      // crashed node (or this is a replayed request for an object we have
      // since dropped).  The requester's round completes via its outstanding
      // counter only when a reply arrives, so drop the request and let the
      // reclaim round's deferral path handle the segment.
      return;
    }
    auto forwarded = std::make_shared<CopyRequestPayload>(request);
    forwarded->hops = request.hops + 1;
    BMX_CHECK_LT(forwarded->hops, 64u) << "copy request routing loop for oid " << request.oid;
    network_->Send(id_, owner, std::move(forwarded));
    return;
  }
  BunchId bunch = dsm_->BunchOf(request.oid);
  Gaddr current = dsm_->ResolveOid(request.oid);
  std::set<SegmentId> avoid(request.freeing.begin(), request.freeing.end());
  avoid.insert(SegmentOf(request.addr));
  if (avoid.count(SegmentOf(current)) > 0) {
    // Our copy also still lives in a segment being freed: move it now.
    ObjectHeader* header = store_->HeaderOf(current);
    BMX_CHECK(header != nullptr) << "owned object " << request.oid << " has no header at "
                                 << current;
    current = RelocateOwned(bunch, current, header, avoid);
  }

  // Crash here and the requester's round never completes on its own; its
  // acquire-side timeout machinery does not apply, but the parked request is
  // redelivered to this node's next incarnation, which answers it then.
  FAULT_POINT("reclaim.copy.pre_reply", id_);
  auto reply = std::make_shared<CopyReplyPayload>();
  reply->round = request.round;
  reply->oid = request.oid;
  reply->bunch = bunch;
  reply->object = store_->CaptureObject(current);
  network_->Send(id_, request.requester, std::move(reply));
}

void GcEngine::HandleCopyReply(const Message& msg) {
  const auto& reply = static_cast<const CopyReplyPayload&>(*msg.payload);
  // Installs the owner's bytes at the new address and leaves a forwarding
  // header at our old replica of the object.
  dsm_->InstallObjectBytes(reply.oid, reply.bunch, reply.object);
  OnAddressUpdate(AddressUpdate{reply.oid, reply.bunch, kNullAddr, reply.object.addr});
  auto it = pending_reclaims_.find(reply.round);
  if (it == pending_reclaims_.end() || it->second.outstanding == 0) {
    // Replayed or stale reply (e.g. redelivered after this node restarted and
    // forgot the round): the bytes above were still worth installing — the
    // payload is idempotent full state — but there is no round to credit.
    return;
  }
  it->second.outstanding--;
  FinishReclaimIfDone(reply.round);
}

void GcEngine::HandleAddressChange(const Message& msg) {
  const auto& change = static_cast<const AddressChangePayload&>(*msg.payload);
  dsm_->ApplyAddressUpdates(change.updates, msg.src);
  auto ack = std::make_shared<AddressChangeAckPayload>();
  ack->round = change.round;
  network_->Send(id_, msg.src, std::move(ack));
}

void GcEngine::HandleAddressChangeAck(const Message& msg) {
  const auto& ack = static_cast<const AddressChangeAckPayload&>(*msg.payload);
  auto it = pending_reclaims_.find(ack.round);
  if (it == pending_reclaims_.end() || it->second.outstanding == 0) {
    return;  // stray ack for a round this incarnation already finished/forgot
  }
  it->second.outstanding--;
  FinishReclaimIfDone(ack.round);
}

void GcEngine::FinishReclaimIfDone(uint64_t round) {
  auto it = pending_reclaims_.find(round);
  if (it == pending_reclaims_.end() || it->second.outstanding > 0) {
    return;
  }
  PendingReclaim pending = std::move(it->second);
  pending_reclaims_.erase(it);
  network_->obligations().Close(ObligationKind::kGcReclaim, id_, round);

  std::set<SegmentId> all(pending.segments.begin(), pending.segments.end());
  std::set<SegmentId> deferred;

  // Classify what is left in each segment at the end of the round.  Objects
  // can have *landed* here while the acks were in flight (piggybacked
  // installs race with the round): owned leftovers relocate now; live
  // non-owned leftovers make the paper's call — "the from-space segment
  // might not be fully reused nor freed" (§4.5) — and defer the segment to
  // the next reclamation round.
  for (SegmentId seg : pending.segments) {
    SegmentImage* image = store_->Find(seg);
    if (image == nullptr) {
      continue;
    }
    std::vector<std::pair<Gaddr, ObjectHeader*>> leftovers;
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (header.forwarded()) {
        dsm_->AddStaleForward(addr, header.forward);
      } else {
        leftovers.emplace_back(addr, &header);
      }
    });
    for (auto [addr, header] : leftovers) {
      Oid oid = header->oid;
      Gaddr canonical = dsm_->ResolveOid(oid);
      if (canonical != addr && store_->HeaderOf(canonical) != nullptr) {
        // Orphaned stale copy; the real object lives elsewhere locally.
        dsm_->AddStaleForward(addr, canonical);
        continue;
      }
      if (dsm_->IsLocallyOwned(oid)) {
        // The forwarding header goes with the segment; the stale-forward
        // record keeps the old address resolving after the free.
        dsm_->AddStaleForward(addr, RelocateOwned(pending.bunch, addr, header, all));
        continue;
      }
      if (directory_->OwnerOf(oid) == kInvalidNode) {
        // Globally dead (reclaimed at its owner): the bytes can go.
        image->EraseObject(addr);
        continue;
      }
      deferred.insert(seg);
    }
  }

  std::set<SegmentId> freeing;
  for (SegmentId seg : all) {
    if (deferred.count(seg) == 0) {
      freeing.insert(seg);
    }
  }

  // Update every local reference (any bunch) and root that still points into
  // the segments actually being freed.
  for (SegmentId seg : store_->AllSegments()) {
    if (freeing.count(seg) > 0) {
      continue;
    }
    SegmentImage* image = store_->Find(seg);
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (header.forwarded()) {
        return;
      }
      image->ForEachRefSlotOf(addr, header.size_slots, [&](size_t slot, uint64_t value) {
        if (value == kNullAddr || freeing.count(SegmentOf(value)) == 0) {
          return;
        }
        Gaddr resolved = dsm_->ResolveAddr(value);
        if (freeing.count(SegmentOf(resolved)) > 0) {
          // Unresolvable references into the freed segment can only occur in
          // stale local copies (entry consistency permits them) whose target
          // died; the slot is unreachable data, so leave it.  Any future
          // acquire refreshes the containing object's bytes from its owner.
          return;
        }
        store_->WriteSlot(addr, slot, resolved);
        stats_.refs_updated_locally++;
      });
    });
  }
  for (RootProvider* provider : root_providers_) {
    for (Gaddr* slot : provider->RootSlots()) {
      if (*slot != kNullAddr && freeing.count(SegmentOf(*slot)) > 0) {
        *slot = dsm_->ResolveAddr(*slot);
      }
    }
  }

  // Deferred segments stay queued for the next round; freed ones go.
  BunchState& state = StateOf(pending.bunch);
  std::vector<SegmentId> remaining;
  for (SegmentId seg : state.from_spaces) {
    if (freeing.count(seg) == 0) {
      remaining.push_back(seg);
    }
  }
  state.from_spaces = std::move(remaining);

  // Crash between deciding to free and dropping the segments: the next life
  // re-checkpoints whatever the manifest still names, so a half-freed
  // from-space either comes back whole or was already retired in the
  // directory — never a torn mixture.
  FAULT_POINT("reclaim.finish.pre_free", id_);
  for (SegmentId seg : freeing) {
    store_->Drop(seg);
    if (directory_->SegmentCreator(seg) == id_ && !directory_->IsRetired(seg)) {
      directory_->RetireSegment(seg);
    }
    stats_.segments_freed++;
  }
}

}  // namespace bmx
