#include "src/dsm/dsm_node.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/fault_injector.h"
#include "src/gc/payloads.h"
#include "src/runtime/history.h"

namespace bmx {

const std::map<Oid, std::set<NodeId>> DsmNode::kNoEntering;

DsmNode::DsmNode(NodeId id, Network* network, SegmentDirectory* directory, ReplicaStore* store,
                 CopySetMode mode)
    : id_(id), network_(network), directory_(directory), store_(store), mode_(mode) {
  BMX_CHECK(network_ != nullptr && directory_ != nullptr && store_ != nullptr);
}

Gaddr DsmNode::ResolveAddr(Gaddr addr) const {
  // Forwarding chains grow by one hop per collection that moves the object;
  // path compression (pointer jumping, as any real forwarding implementation
  // does) keeps resolution O(1) amortized and chains short.
  std::vector<Gaddr> visited;
  Gaddr current = addr;
  for (int hops = 0; hops < 1024; ++hops) {
    Gaddr next = current;
    // One in-heap forwarding hop at a time so every waypoint is recorded.
    if (store_->HasObjectAt(current)) {
      const ObjectHeader* header = store_->HeaderOf(current);
      if (header->forwarded()) {
        next = header->forward;
      }
    }
    if (next == current) {
      auto it = stale_forward_.find(current);
      if (it != stale_forward_.end()) {
        next = it->second;
      }
    }
    if (next == current && !store_->HasObjectAt(current)) {
      // Local chain exhausted without bytes: jump forward to the directory's
      // canonical address (backstop for eroded local chains; resolution must
      // stay monotonic toward newer addresses).
      Oid oid = directory_->OidAtAddress(current);
      if (oid != kNullOid) {
        Gaddr canonical = directory_->CanonicalAddressOf(oid);
        if (canonical != kNullAddr && canonical != current) {
          next = canonical;
        }
      }
    }
    if (next == current) {
      // Fixed point: compress everything we walked through.  Compression only
      // shortens chains toward the same fixed point, but it is not invisible:
      // a shortened chain can change what later resolutions and reclaims see
      // once waypoint segments are freed, and with it the traffic of a long
      // history.  So it runs on every call, whatever the thread count; the
      // one thread that drives this node's cluster is its only reader.
      for (Gaddr waypoint : visited) {
        if (store_->HasObjectAt(waypoint)) {
          ObjectHeader* header = store_->HeaderOf(waypoint);
          if (header->forwarded()) {
            header->forward = current;
            continue;
          }
        }
        auto it = stale_forward_.find(waypoint);
        if (it != stale_forward_.end()) {
          it->second = current;
        }
      }
      return current;
    }
    for (Gaddr seen : visited) {
      if (seen == next) {
        // Cycle in stale-forward records (conflicting out-of-order updates):
        // break at the current fixed point; the DSM protocol will supply
        // fresh bytes at the next synchronization anyway.
        return current;
      }
    }
    visited.push_back(current);
    current = next;
  }
  BMX_CHECK(false) << "forwarding chain too long at addr " << addr;
  return current;
}

Gaddr DsmNode::ResolveOid(Oid oid) const {
  Gaddr addr = store_->AddrOfOid(oid);
  return addr == kNullAddr ? kNullAddr : ResolveAddr(addr);
}

Gaddr DsmNode::LocalCopyOf(Gaddr addr) const {
  Gaddr resolved = ResolveAddr(addr);
  if (store_->HasObjectAt(resolved)) {
    return resolved;
  }
  // No bytes at the newest known address: fall back to wherever this node's
  // own replica sits (possibly an older address — entry consistency permits
  // reading it while a token is held).
  Oid oid = OidAt(addr);
  if (oid != kNullOid) {
    Gaddr local = store_->AddrOfOid(oid);
    if (local != kNullAddr) {
      Gaddr local_resolved = store_->ResolveForward(local);
      if (store_->HasObjectAt(local_resolved)) {
        return local_resolved;
      }
    }
  }
  return resolved;
}

void DsmNode::AddStaleForward(Gaddr old_addr, Gaddr new_addr) {
  if (old_addr != new_addr) {
    stale_forward_[old_addr] = new_addr;
  }
}

void DsmNode::AddStaleRouting(Gaddr addr, NodeId owner_hint) {
  if (owner_hint != kInvalidNode && owner_hint != id_) {
    stale_routing_[addr] = owner_hint;
  }
}

Oid DsmNode::OidAt(Gaddr addr) const {
  Gaddr resolved = ResolveAddr(addr);
  if (store_->HasObjectAt(resolved)) {
    return store_->HeaderOf(resolved)->oid;
  }
  // Local resolution exhausted: the directory knows every address the object
  // ever occupied (DESIGN.md — the page-based original resolves this through
  // its own mapped pages).
  Oid oid = directory_->OidAtAddress(resolved);
  if (oid == kNullOid) {
    oid = directory_->OidAtAddress(addr);
  }
  return oid;
}

NodeId DsmNode::ProbableOwnerForAddr(Gaddr addr) const {
  Oid oid = OidAt(addr);
  if (oid != kNullOid) {
    const TokenInfo* t = FindToken(oid);
    if (t != nullptr && t->owner_hint != kInvalidNode) {
      return t->owner_hint;
    }
  }
  auto routing = stale_routing_.find(ResolveAddr(addr));
  if (routing != stale_routing_.end()) {
    return routing->second;
  }
  NodeId creator = directory_->SegmentCreator(SegmentOf(addr));
  if (creator != id_) {
    return creator;
  }
  // Last resort: the directory's authoritative owner (never the fast path —
  // requests normally route through the paper's ownerPtr/creator mechanisms,
  // which in distributed copy-set mode lets nearby readers serve them).
  if (oid != kNullOid) {
    NodeId authoritative = directory_->OwnerOf(oid);
    if (authoritative != kInvalidNode) {
      return authoritative;
    }
  }
  return creator;
}

void DsmNode::BeginAcquire(Gaddr addr, bool write, bool for_gc) {
  BMX_CHECK(!wait_active_) << "node " << id_ << ": one outstanding acquire at a time";
  wait_active_ = true;
  wait_complete_ = false;
  wait_addr_ = addr;
  NodeId target = ProbableOwnerForAddr(addr);
  if (target == id_) {
    Oid oid = OidAt(addr);
    if (oid != kNullOid) {
      NodeId authoritative = directory_->OwnerOf(oid);
      if (authoritative != kInvalidNode && authoritative != id_) {
        target = authoritative;
      }
    }
  }
  if (target == id_ || target == kInvalidNode) {
    // No route anywhere: the object was reclaimed at its owner and every
    // registry entry is gone.  The address is dangling; fail the acquire.
    stats_.unroutable_acquires++;
    EndAcquireWait(false);
    return;
  }
  if (!network_->NodeAttached(target) && !acquire_retry_.AllowAttempt(target, network_->now())) {
    // Fail fast: the first hop is down and its breaker is open, so nothing
    // is sent and no obligation opens.
    stats_.breaker_fast_fails++;
    EndAcquireWait(false);
    return;
  }
  auto req = std::make_shared<AcquireRequestPayload>();
  req->addr = ResolveAddr(addr);
  req->write = write;
  req->requester = id_;
  req->for_gc = for_gc;
  wait_target_ = target;
  // The acquire is now a progress obligation: someone must eventually grant,
  // deny or defer-then-serve it.  Opened only once a request actually goes
  // out (the unroutable path above fails synchronously).
  network_->obligations().Open(ObligationKind::kAcquire, id_, 0);
  FAULT_POINT("dsm.acquire.pre_send", id_);
  network_->Send(id_, target, std::move(req));
}

void DsmNode::EndAcquireWait(bool completed) {
  network_->obligations().Close(ObligationKind::kAcquire, id_, 0);
  wait_active_ = false;
  wait_complete_ = completed;
  wait_addr_ = kNullAddr;
}

bool DsmNode::CompleteAcquire(Gaddr addr, bool write, bool for_gc) {
  // The unified RetryPolicy carries the legacy 3-attempt bound as its budget;
  // the per-peer circuit breaker only ever short-circuits attempts toward a
  // first hop that is BOTH detached and recently timing out (BeginAcquire
  // then fails fast), so a restarted peer is always tried immediately.
  for (uint32_t attempt = 1;; ++attempt) {
    BeginAcquire(addr, write, for_gc);
    if (!wait_active_) {
      return wait_complete_;  // completed locally, unroutable or failed fast
    }
    network_->RunUntilIdle();
    if (!wait_active_) {
      if (wait_complete_) {
        acquire_retry_.RecordSuccess(wait_target_);
      }
      return wait_complete_;
    }
    // The network quiesced with the acquire still open.  If the first hop is
    // alive, the request was delivered and deferred there (a remote holder is
    // inside a critical section): keep the wait pending — it completes on a
    // later pump, the pre-crash contract.  If the first hop crashed, the
    // request is parked toward a dead node: the virtual-clock deadline has
    // effectively expired, so withdraw it and retry along a fresh route (the
    // directory may name a recovered or different owner by now).
    if (network_->NodeAttached(wait_target_)) {
      return false;
    }
    stats_.acquire_timeouts++;
    acquire_retry_.RecordFailure(wait_target_, network_->now());
    network_->DropParked(id_, wait_target_, MsgKind::kAcquireRequest);
    EndAcquireWait(false);
    if (RetryPolicy::Exhausted(attempt)) {
      return false;  // fail cleanly: every route leads to a dead node
    }
  }
}

bool DsmNode::HasPendingWorkFor(NodeId requester) const {
  for (const auto& [oid, grant] : pending_grants_) {
    if (grant.requester == requester) {
      return true;
    }
  }
  for (const auto& [oid, msgs] : deferred_) {
    for (const Message& msg : msgs) {
      if (msg.payload->kind() != MsgKind::kAcquireRequest) {
        continue;
      }
      if (static_cast<const AcquireRequestPayload&>(*msg.payload).requester == requester) {
        return true;
      }
    }
  }
  return false;
}

bool DsmNode::AcquireRead(Gaddr addr, bool for_gc) {
  if (for_gc) {
    stats_.gc_read_acquires++;
  } else {
    stats_.app_read_acquires++;
  }
  Gaddr resolved = ResolveAddr(addr);
  Oid oid = OidAt(resolved);
  if (oid != kNullOid) {
    TokenInfo& t = InfoOf(oid);
    // Fast path requires both a cached token AND local bytes: a from-space
    // reclamation may have dropped the replica while the token stayed
    // cached, in which case the object must be re-fetched.
    if (t.state != TokenState::kNone && store_->HasObjectAt(LocalCopyOf(resolved))) {
      t.held = true;
      return true;
    }
  }
  stats_.remote_acquires++;
  return CompleteAcquire(resolved, /*write=*/false, for_gc);
}

bool DsmNode::AcquireWrite(Gaddr addr, bool for_gc) {
  if (for_gc) {
    stats_.gc_write_acquires++;
  } else {
    stats_.app_write_acquires++;
  }
  Gaddr resolved = ResolveAddr(addr);
  Oid oid = OidAt(resolved);
  if (oid != kNullOid) {
    TokenInfo& t = InfoOf(oid);
    if (t.owner) {
      if (t.state == TokenState::kWrite && t.copyset.empty()) {
        t.held = true;
        return true;
      }
      BMX_CHECK(!t.held) << "release before upgrading a held token (node " << id_ << ")";
      // Owner re-acquiring exclusivity: invalidate outstanding read copies,
      // then upgrade in place.  No ownership transfer.
      wait_active_ = true;
      wait_complete_ = false;
      pending_grants_[oid] = PendingGrant{id_, for_gc};
      StartInvalidation(oid, kInvalidNode);
      TryFinishInvalidation(oid);
      network_->RunUntilIdle();
      return wait_complete_;
    }
    BMX_CHECK(!(t.state == TokenState::kRead && t.held))
        << "release the read token before acquiring for write (node " << id_ << ")";
  }
  stats_.remote_acquires++;
  return CompleteAcquire(resolved, /*write=*/true, for_gc);
}

void DsmNode::Release(Gaddr addr) {
  Oid oid = OidAt(addr);
  BMX_CHECK_NE(oid, kNullOid) << "release of unknown object at " << addr;
  TokenInfo& t = InfoOf(oid);
  t.held = false;
  TryFinishInvalidation(oid);
  Redispatch(oid);
}

void DsmNode::RegisterNewObject(Oid oid, Gaddr addr, BunchId bunch) {
  directory_->RecordOwner(oid, id_);
  directory_->RecordObjectAddress(oid, addr);
  TokenInfo& t = InfoOf(oid);
  t.state = TokenState::kWrite;
  t.owner = true;
  t.held = false;
  t.bunch = bunch;
  store_->SetAddrOfOid(oid, addr);
}

void DsmNode::AdoptRecoveredObject(Oid oid, Gaddr addr, BunchId bunch, bool owned,
                                   NodeId owner_hint) {
  TokenInfo& t = InfoOf(oid);
  t.bunch = bunch;
  t.held = false;
  if (owned) {
    // Ownership-of-record survives the crash; tokens do not.  Reclaiming the
    // write token is safe because any read copies granted by the previous
    // life are reconciled into the copy-set before mutators run again.
    directory_->RecordOwner(oid, id_);
    directory_->RecordObjectAddress(oid, addr);
    t.state = TokenState::kWrite;
    t.owner = true;
    t.owner_hint = kInvalidNode;
  } else {
    // Recovered bytes of a remotely owned object: keep them as a stale
    // replica (entry consistency permits reading them only under a token,
    // which the next acquire fetches fresh).
    t.state = TokenState::kNone;
    t.owner = false;
    t.owner_hint = owner_hint;
  }
  store_->SetAddrOfOid(oid, addr);
}

void DsmNode::RestoreReaderReplica(Oid oid, NodeId reader, bool reader_has_token) {
  if (reader == id_) {
    return;
  }
  TokenInfo* t = FindToken(oid);
  if (t == nullptr || !t->owner) {
    return;  // contested away, or the peer's view is stale — nothing to track
  }
  entering_[t->bunch][oid].insert(reader);
  if (reader_has_token) {
    t->copyset.insert(reader);
    if (t->state == TokenState::kWrite) {
      t->state = TokenState::kRead;  // readers exist again: no exclusivity
    }
  }
}

std::vector<TokenSnapshot> DsmNode::SnapshotTokens() const {
  std::vector<TokenSnapshot> out;
  out.reserve(tokens_.size());
  for (const auto& [oid, t] : tokens_) {
    TokenSnapshot snap;
    snap.oid = oid;
    snap.state = t.state;
    snap.owner = t.owner;
    snap.held = t.held;
    snap.owner_hint = t.owner_hint;
    snap.bunch = t.bunch;
    snap.copyset.assign(t.copyset.begin(), t.copyset.end());
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const TokenSnapshot& a, const TokenSnapshot& b) { return a.oid < b.oid; });
  return out;
}

void DsmNode::RecordLocalMove(Oid oid, Gaddr old_addr, Gaddr new_addr, BunchId bunch) {
  MoveChain& chain = move_history_[oid];
  chain.Add(bunch, old_addr, new_addr);
  // The owner's own move is the present, even away from an address the chain
  // already holds.
  chain.latest = new_addr;
  store_->SetAddrOfOid(oid, new_addr);
  // Only owners move objects; the new location is the canonical one.
  directory_->RecordObjectAddress(oid, new_addr);
  RecordGcFlip(oid, old_addr, new_addr);
}

void DsmNode::RecordGcFlip(Oid oid, Gaddr old_addr, Gaddr new_addr) {
  if (HistoryRecorder* recorder = network_->history_recorder()) {
    HistoryEvent event;
    event.op = HistoryOp::kGcFlip;
    event.oid = oid;
    event.old_addr = old_addr;
    event.new_addr = new_addr;
    recorder->Record(id_, std::move(event));
  }
}

bool DsmNode::IsLocallyOwned(Oid oid) const {
  const TokenInfo* t = FindToken(oid);
  return t != nullptr && t->owner;
}

TokenState DsmNode::StateOf(Oid oid) const {
  const TokenInfo* t = FindToken(oid);
  return t == nullptr ? TokenState::kNone : t->state;
}

bool DsmNode::IsHeld(Oid oid) const {
  const TokenInfo* t = FindToken(oid);
  return t != nullptr && t->held;
}

NodeId DsmNode::OwnerHint(Oid oid) const {
  const TokenInfo* t = FindToken(oid);
  if (t == nullptr) {
    return kInvalidNode;
  }
  return t->owner ? id_ : t->owner_hint;
}

BunchId DsmNode::BunchOf(Oid oid) const {
  const TokenInfo* t = FindToken(oid);
  return t == nullptr ? kInvalidBunch : t->bunch;
}

const std::map<Oid, std::set<NodeId>>& DsmNode::EnteringFor(BunchId bunch) const {
  auto it = entering_.find(bunch);
  return it == entering_.end() ? kNoEntering : it->second;
}

void DsmNode::PruneEntering(BunchId bunch, Oid oid, NodeId from) {
  auto bit = entering_.find(bunch);
  if (bit == entering_.end()) {
    return;
  }
  auto oit = bit->second.find(oid);
  if (oit == bit->second.end()) {
    return;
  }
  oit->second.erase(from);
  if (oit->second.empty()) {
    bit->second.erase(oit);
  }
}

void DsmNode::AddEntering(BunchId bunch, Oid oid, NodeId from) {
  if (from != id_) {
    entering_[bunch][oid].insert(from);
  }
}

void DsmNode::ForgetObject(Oid oid) {
  auto it = tokens_.find(oid);
  if (it != tokens_.end()) {
    entering_[it->second.bunch].erase(oid);
    tokens_.erase(it);
  }
  move_history_.erase(oid);
  store_->ForgetOid(oid);
}

size_t DsmNode::AppendUnsentMoves(Oid oid, NodeId dst, std::vector<AddressUpdate>* out) {
  auto it = move_history_.find(oid);
  if (it == move_history_.end()) {
    return 0;
  }
  MoveChain& chain = it->second;
  // Channels are reliable and FIFO within an incarnation, so what was sent
  // to this incarnation of `dst` has reached it or will before anything
  // sent now; a restarted `dst` starts with no marks.
  const uint64_t incarnation = network_->IncarnationOf(dst);
  auto mark = std::find_if(chain.sent.begin(), chain.sent.end(),
                           [&](const SentMark& m) { return m.peer == dst; });
  if (mark == chain.sent.end()) {
    mark = chain.sent.insert(chain.sent.end(), SentMark{dst, incarnation});
  } else if (mark->incarnation != incarnation) {
    *mark = SentMark{dst, incarnation};
  }
  size_t first = mark->entries;
  if (mark->latest != chain.latest &&
      std::find(chain.old_addrs.begin() + first, chain.old_addrs.end(), mark->latest) ==
          chain.old_addrs.end()) {
    // What `dst` has leads to an address no new entry leaves: the latest
    // changed without one (a local move away from an address the chain
    // already holds), or `dst` has nothing yet.  Re-aim the whole chain.
    first = 0;
  }
  // One hop per stale address: each one aims straight at the latest.
  for (size_t i = first; i < chain.old_addrs.size(); ++i) {
    out->push_back(AddressUpdate{oid, chain.bunch, chain.old_addrs[i], chain.latest});
  }
  mark->entries = chain.old_addrs.size();
  mark->latest = chain.latest;
  return first;
}

std::vector<AddressUpdate> DsmNode::BuildInvariant1Updates(Oid oid, NodeId dst) {
  std::vector<AddressUpdate> out;
  size_t left_out = 0;
  // The object's own moves...
  left_out += AppendUnsentMoves(oid, dst, &out);
  // ...plus moves of every object it directly references (§5, invariant 1:
  // "the new locations of the object being acquired and of every object
  // directly referenced from it").
  // A referent reached again (a second slot, or the object itself) finds its
  // chain marked sent and adds nothing: each chain ships once per grant.
  Gaddr addr = store_->AddrOfOid(oid);
  if (addr != kNullAddr && store_->HasObjectAt(addr)) {
    const ObjectHeader* header = store_->HeaderOf(addr);
    store_->ForEachRefSlot(addr, header->size_slots, [&](size_t, uint64_t target) {
      if (target == kNullAddr) {
        return;
      }
      Gaddr resolved = ResolveAddr(target);
      if (store_->HasObjectAt(resolved)) {
        left_out += AppendUnsentMoves(store_->HeaderOf(resolved)->oid, dst, &out);
      }
    });
  }
  auto& perf = GlobalPerfCounters();
  perf.piggyback_updates_coalesced += left_out;
  perf.piggyback_bytes_saved += left_out * kAddressUpdateWireBytes;
  return out;
}

void DsmNode::SpillPiggybackOverflow(std::vector<AddressUpdate>* updates, NodeId dst) {
  if (updates->size() <= kMaxPiggybackUpdates) {
    return;
  }
  // The consistency reply stays bounded; the tail still reaches the requester
  // off the critical path, as a background address-change notice.  Round 0 is
  // never a live reclamation round, so the eventual ack is ignored.
  auto spill = std::make_shared<AddressChangePayload>();
  spill->round = 0;
  spill->updates.assign(updates->begin() + kMaxPiggybackUpdates, updates->end());
  updates->resize(kMaxPiggybackUpdates);
  GlobalPerfCounters().piggyback_overflow_spills++;
  network_->Send(id_, dst, std::move(spill));
}

void DsmNode::HandleMessage(const Message& msg) {
  switch (msg.payload->kind()) {
    case MsgKind::kAcquireRequest:
      HandleAcquire(msg);
      break;
    case MsgKind::kGrant:
      HandleGrant(msg);
      break;
    case MsgKind::kInvalidate:
      HandleInvalidate(msg);
      break;
    case MsgKind::kInvalidateAck:
      HandleInvalidateAck(msg);
      break;
    case MsgKind::kObjectPush:
      HandlePush(msg);
      break;
    default:
      BMX_CHECK(false) << "DsmNode got unexpected message kind "
                       << MsgKindName(msg.payload->kind());
  }
}

void DsmNode::HandleAcquire(const Message& msg) {
  const auto& req = static_cast<const AcquireRequestPayload&>(*msg.payload);
  BMX_CHECK_LT(req.hops, 64u) << "ownerPtr forwarding chain too long";

  Oid oid = OidAt(req.addr);

  auto forward_to = [&](NodeId next) {
    // Stale hint graphs can point back at us or run long; the BMX-server's
    // owner registry is the rescue (standing in for the bounded-chain
    // guarantee per-message path compression gives real Li-Hudak).
    if ((next == id_ || next == kInvalidNode || req.hops >= 8) && oid != kNullOid) {
      NodeId authoritative = directory_->OwnerOf(oid);
      if (authoritative != kInvalidNode && authoritative != id_) {
        next = authoritative;
      }
    }
    if (next == id_ || next == kInvalidNode) {
      // Dead end: the object no longer exists anywhere we can name.  Deny
      // the request so the requester's acquire completes as a failure.
      stats_.unroutable_acquires++;
      auto denial = std::make_shared<GrantPayload>();
      denial->denied = true;
      denial->write = req.write;
      network_->Send(id_, req.requester, std::move(denial));
      return;
    }
    auto fwd = std::make_shared<AcquireRequestPayload>(req);
    fwd->hops = req.hops + 1;
    network_->Send(id_, next, std::move(fwd));
  };

  if (oid == kNullOid) {
    // We know nothing about this object locally: try the routing tombstones
    // left when a dead local replica was swept, then fall back to the
    // creator of the segment the address lies in.
    auto routing = stale_routing_.find(ResolveAddr(req.addr));
    if (routing != stale_routing_.end()) {
      forward_to(routing->second);
      return;
    }
    forward_to(directory_->SegmentCreator(SegmentOf(req.addr)));
    return;
  }
  TokenInfo& t = InfoOf(oid);

  if (req.write) {
    if (!t.owner) {
      NodeId next = t.owner_hint != kInvalidNode ? t.owner_hint : ProbableOwnerForAddr(req.addr);
      forward_to(next);
      // Li-style path compression: the requester is about to become the
      // owner, so every node on the forwarding path re-points its hint.
      t.owner_hint = req.requester;
      return;
    }
    if (t.held || pending_grants_.count(oid) > 0 || invalidations_.count(oid) > 0) {
      Defer(oid, msg);
      return;
    }
    StartWriteGrant(oid, req.requester, req.for_gc);
    return;
  }

  // Read request.  A reader may only grant from its copy if it still has the
  // bytes (a reclamation round can have dropped them while the token stayed
  // cached).
  Gaddr reader_bytes = LocalCopyOf(req.addr);
  bool can_grant = t.owner || (mode_ == CopySetMode::kDistributed &&
                               t.state != TokenState::kNone &&
                               store_->HasObjectAt(reader_bytes));
  if (!can_grant) {
    NodeId next = t.owner_hint != kInvalidNode ? t.owner_hint : ProbableOwnerForAddr(req.addr);
    forward_to(next);
    return;
  }
  if ((t.held && t.state == TokenState::kWrite) || pending_grants_.count(oid) > 0 ||
      invalidations_.count(oid) > 0) {
    Defer(oid, msg);
    return;
  }
  SendReadGrant(oid, req.requester, req.for_gc, reader_bytes);
}

void DsmNode::StartWriteGrant(Oid oid, NodeId requester, bool for_gc) {
  pending_grants_[oid] = PendingGrant{requester, for_gc};
  network_->obligations().Open(ObligationKind::kPendingGrant, id_, oid);
  StartInvalidation(oid, kInvalidNode);
  TryFinishInvalidation(oid);
}

void DsmNode::StartInvalidation(Oid oid, NodeId parent) {
  TokenInfo& t = InfoOf(oid);
  if (stale_skip_reader_ != kInvalidNode && t.copyset.erase(stale_skip_reader_) > 0) {
    // Planted consistency bug (PlantStaleReadBugForTesting): drop one reader
    // from the fan-out.  It keeps its read token and stale bytes, and the
    // write proceeds without ever learning about it.  One-shot.
    stale_skip_reader_ = kInvalidNode;
  }
  InvalProgress progress;
  progress.parent = parent;
  progress.awaiting = t.copyset.size();
  invalidations_[oid] = progress;
  network_->obligations().Open(ObligationKind::kInvalidation, id_, oid);
  for (NodeId child : t.copyset) {
    auto inval = std::make_shared<InvalidatePayload>();
    inval->oid = oid;
    network_->Send(id_, child, std::move(inval));
    stats_.invalidations_sent++;
  }
}

void DsmNode::TryFinishInvalidation(Oid oid) {
  auto it = invalidations_.find(oid);
  if (it == invalidations_.end()) {
    return;
  }
  if (it->second.awaiting > 0) {
    return;
  }
  TokenInfo& t = InfoOf(oid);
  bool initiated_here = it->second.parent == kInvalidNode;
  if (!initiated_here && t.held) {
    // A mutator is inside a critical section on our read copy; entry
    // consistency lets it finish before the copy is pulled (ack on release).
    return;
  }
  NodeId parent = it->second.parent;
  invalidations_.erase(it);
  network_->obligations().Close(ObligationKind::kInvalidation, id_, oid);
  t.copyset.clear();
  if (!initiated_here) {
    if (t.state != TokenState::kNone) {
      t.state = TokenState::kNone;
      stats_.read_copies_invalidated++;
    }
    auto ack = std::make_shared<InvalidateAckPayload>();
    ack->oid = oid;
    // Crash here and the owner waits on an ack from a dead reader; the ack
    // arrives from this node's next incarnation (stray-ack tolerant path).
    FAULT_POINT("dsm.invalidate.pre_ack", id_);
    network_->Send(id_, parent, std::move(ack));
    return;
  }
  FinishWriteGrant(oid);
}

void DsmNode::FinishWriteGrant(Oid oid) {
  auto pg_it = pending_grants_.find(oid);
  BMX_CHECK(pg_it != pending_grants_.end());
  PendingGrant pg = pg_it->second;
  pending_grants_.erase(pg_it);
  network_->obligations().Close(ObligationKind::kPendingGrant, id_, oid);

  TokenInfo& t = InfoOf(oid);
  if (pg.requester == id_) {
    // Local upgrade: owner regained exclusivity.
    t.state = TokenState::kWrite;
    t.held = true;
    EndAcquireWait(true);
    Redispatch(oid);
    return;
  }

  auto grant = std::make_shared<GrantPayload>();
  grant->oid = oid;
  grant->bunch = t.bunch;
  grant->write = true;
  grant->for_gc = pg.for_gc;
  grant->granter_owner_hint = id_;
  grant->object = CaptureLocalCopy(oid);

  // The entering-ownerPtr set moves with ownership: the new owner must know
  // every node holding a non-owned replica — that is also the list of nodes
  // whose references need updating after a GC (§4.5).
  auto& entering = entering_[t.bunch][oid];
  entering.erase(pg.requester);
  entering.insert(id_);  // we keep a (now inconsistent) replica
  grant->entering_transfer = entering;
  entering_[t.bunch].erase(oid);

  grant->piggyback.updates = BuildInvariant1Updates(oid, pg.requester);
  if (gc_hooks_ != nullptr) {
    gc_hooks_->PrepareOwnershipTransfer(oid, t.bunch, pg.requester, &grant->piggyback);
  }
  SpillPiggybackOverflow(&grant->piggyback.updates, pg.requester);
  stats_.piggyback_updates_sent += grant->piggyback.updates.size();
  stats_.piggyback_ssp_requests_sent += grant->piggyback.intra_ssp_requests.size();

  t.owner = false;
  t.state = TokenState::kNone;
  t.owner_hint = pg.requester;
  NodeId requester = pg.requester;
  stats_.grants_sent++;
  // Crash here and the token is in limbo: the owner-of-record (directory)
  // still names this node, so recovery re-takes ownership from the
  // checkpoint and the requester's retry finds it.
  FAULT_POINT("dsm.grant.pre_send", id_);
  network_->Send(id_, requester, std::move(grant));
  Redispatch(oid);
}

void DsmNode::SendReadGrant(Oid oid, NodeId requester, bool for_gc, Gaddr byte_addr) {
  TokenInfo& t = InfoOf(oid);
  if (t.owner && t.state == TokenState::kWrite) {
    t.state = TokenState::kRead;  // write token downgrades while readers exist
  }
  t.copyset.insert(requester);
  entering_[t.bunch][oid].insert(requester);

  auto grant = std::make_shared<GrantPayload>();
  grant->oid = oid;
  grant->bunch = t.bunch;
  grant->write = false;
  grant->for_gc = for_gc;
  grant->granter_owner_hint = id_;
  grant->object = CaptureLocalCopy(oid, byte_addr);
  grant->piggyback.updates = BuildInvariant1Updates(oid, requester);
  SpillPiggybackOverflow(&grant->piggyback.updates, requester);
  stats_.piggyback_updates_sent += grant->piggyback.updates.size();
  stats_.grants_sent++;
  network_->Send(id_, requester, std::move(grant));
}

ObjectImage DsmNode::CaptureLocalCopy(Oid oid, Gaddr byte_addr) const {
  Gaddr resolved = kNullAddr;
  if (byte_addr != kNullAddr && store_->HasObjectAt(byte_addr)) {
    resolved = byte_addr;
  } else {
    Gaddr addr = store_->AddrOfOid(oid);
    BMX_CHECK_NE(addr, kNullAddr) << "granting object " << oid << " without local data";
    resolved = LocalCopyOf(addr);
  }
  // Cycle-broken resolution can stop on a mid-chain forwarder; follow the
  // in-heap chain to the actual bytes.
  resolved = store_->ResolveForward(resolved);
  BMX_CHECK(store_->HasObjectAt(resolved)) << "granting object " << oid << " without bytes";
  ObjectImage object = store_->CaptureObject(resolved);
  BMX_CHECK(!object.header.forwarded());
  return object;
}

void DsmNode::HandleGrant(const Message& msg) {
  const auto& grant = static_cast<const GrantPayload&>(*msg.payload);
  if (grant.denied) {
    if (wait_active_) {
      // The object is gone everywhere: the acquire fails (dangling address).
      EndAcquireWait(false);
    }
    // A denial with no acquire in flight is a replayed/stale grant (e.g.
    // redelivered to a restarted incarnation of this node): nothing to fail.
    return;
  }
  const ObjectImage& object = grant.object;
  InstallObjectBytes(grant.oid, grant.bunch, object);
  TokenInfo& t = InfoOf(grant.oid);
  t.bunch = grant.bunch;
  if (grant.write) {
    directory_->RecordOwner(grant.oid, id_);
    t.state = TokenState::kWrite;
    t.owner = true;
    t.held = true;
    t.owner_hint = kInvalidNode;
    t.copyset.clear();
    entering_[grant.bunch][grant.oid] = grant.entering_transfer;
    if (grant.entering_transfer.empty()) {
      entering_[grant.bunch].erase(grant.oid);
    }
  } else {
    t.state = TokenState::kRead;
    t.owner = false;
    t.owner_hint = grant.granter_owner_hint;
    t.held = true;
  }
  // Crash here and the requester dies as the owner-of-record of an object
  // whose bytes it never checkpointed; peers' recovery replies resupply them.
  FAULT_POINT("dsm.grant.post_install", id_);
  ApplyPiggyback(grant.piggyback, msg.src);
  // Figure 3, case (d): if an object referenced by the granted object was
  // copied to to-space *here* before the acquire, rewrite the incoming
  // references to point at the to-space copy directly.
  for (size_t i = 0; i < object.header.size_slots; ++i) {
    if (i >= object.slot_is_ref.size() || object.slot_is_ref[i] == 0) {
      continue;
    }
    Gaddr value = store_->ReadSlot(object.addr, i);
    if (value == kNullAddr) {
      continue;
    }
    Gaddr resolved = ResolveAddr(value);
    if (resolved != value) {
      store_->WriteSlot(object.addr, i, resolved);
    }
  }
  // Invariant 1: the address the acquire named must be valid here — bridge
  // it to the granted location if local resolution cannot reach it yet.
  if (wait_active_ && wait_addr_ != kNullAddr) {
    Gaddr reached = ResolveAddr(wait_addr_);
    if (reached != object.addr && !store_->HasObjectAt(reached)) {
      AddStaleForward(reached, object.addr);
    }
  }
  // Only an in-flight acquire completes a wait; a stale or redelivered grant
  // (crash-recovery replay to a fresh incarnation) still installed usable
  // bytes above but must not fabricate a completed acquire.
  if (wait_active_) {
    EndAcquireWait(true);
  }
  Redispatch(grant.oid);
}

void DsmNode::HandleInvalidate(const Message& msg) {
  Oid oid = static_cast<const InvalidatePayload&>(*msg.payload).oid;
  const TokenInfo* t = FindToken(oid);
  if (t == nullptr || (t->state == TokenState::kNone && t->copyset.empty())) {
    // Nothing to pull: no copy here and none granted onward — or every trace
    // of the object is already gone (replica swept), and acking must not
    // resurrect a hintless token entry.
    auto ack = std::make_shared<InvalidateAckPayload>();
    ack->oid = oid;
    network_->Send(id_, msg.src, std::move(ack));
    return;
  }
  StartInvalidation(oid, msg.src);
  TryFinishInvalidation(oid);
}

void DsmNode::HandleInvalidateAck(const Message& msg) {
  const auto& ack = static_cast<const InvalidateAckPayload&>(*msg.payload);
  auto it = invalidations_.find(ack.oid);
  if (it == invalidations_.end() || it->second.awaiting == 0) {
    // Stray ack: the invalidation already completed, or this incarnation of
    // the node never started one (the ack was redelivered after a restart).
    return;
  }
  if (canary_victim_ != kNullOid) {
    // Planted ordering bug (explorer canary): acks arriving in decreasing
    // src order — a cross-channel reordering no FIFO schedule produces —
    // corrupt the token table by usurping ownership of the victim object.
    if (canary_last_ack_src_ != kInvalidNode && msg.src < canary_last_ack_src_) {
      TokenInfo& victim = InfoOf(canary_victim_);
      victim.owner = true;
      victim.state = TokenState::kWrite;
    }
    canary_last_ack_src_ = msg.src;
  }
  it->second.awaiting--;
  TryFinishInvalidation(ack.oid);
}

void DsmNode::HandlePush(const Message& msg) {
  const auto& push = static_cast<const ObjectPushPayload&>(*msg.payload);
  FAULT_POINT("dsm.push.pre_apply", id_);
  ApplyPiggyback(push.piggyback, msg.src);
}

void DsmNode::ApplyPiggyback(const Piggyback& piggyback, NodeId from) {
  ApplyAddressUpdates(piggyback.updates, from);
  if (gc_hooks_ != nullptr) {
    for (const IntraSspRequest& request : piggyback.intra_ssp_requests) {
      gc_hooks_->CreateIntraStub(request);
    }
    for (const InterStubTemplate& stub_template : piggyback.replicated_stubs) {
      gc_hooks_->InstallReplicatedStub(stub_template);
    }
  }
}

void DsmNode::InstallObjectBytes(Oid oid, BunchId bunch, const ObjectImage& object) {
  // Receiving bytes of a bunch's object makes this node a replica holder:
  // reachability tables and eager-update broadcasts must reach it.
  directory_->NoteMapped(bunch, id_);
  const Gaddr addr = object.addr;
  SegmentImage& image = store_->GetOrCreate(SegmentOf(addr), bunch);
  ObjectHeader h = object.header;
  h.flags &= ~kObjFlagForwarded;
  h.forward = kNullAddr;
  image.InstallObject(addr, h, object.slots.empty() ? nullptr : object.slots.data());
  size_t first_slot = image.SlotIndexOf(addr);
  for (size_t i = 0; i < object.slot_is_ref.size(); ++i) {
    if (object.slot_is_ref[i] != 0) {
      image.ref_map().Set(first_slot + i);
    } else {
      image.ref_map().Clear(first_slot + i);
    }
  }
  // If we previously knew the object at a different address, leave a local
  // forwarding header there so stale local references still resolve.
  Gaddr prior = store_->AddrOfOid(oid);
  if (prior != kNullAddr && prior != addr && store_->HasObjectAt(prior)) {
    ObjectHeader* old_header = store_->HeaderOf(prior);
    if (!old_header->forwarded()) {
      old_header->flags |= kObjFlagForwarded;
      old_header->forward = addr;
    }
  }
  store_->SetAddrOfOid(oid, addr);
}

void DsmNode::ApplyAddressUpdates(const std::vector<AddressUpdate>& updates, NodeId from) {
  for (const AddressUpdate& update : updates) {
    ApplyOneAddressUpdate(update);
  }
  // Invariant 2: a node that receives new-location information forwards it to
  // every node in its local copy-set for the object — the part of its chain
  // that node has not been sent, so a child that has it all gets no push
  // (and a second update about the same object adds nothing).
  std::map<NodeId, std::vector<AddressUpdate>> fanout;
  for (const AddressUpdate& update : updates) {
    const TokenInfo* t = FindToken(update.oid);
    if (t == nullptr) {
      continue;
    }
    for (NodeId child : t->copyset) {
      if (child != from) {
        AppendUnsentMoves(update.oid, child, &fanout[child]);
      }
    }
  }
  for (auto& [child, list] : fanout) {
    if (list.empty()) {
      continue;
    }
    auto push = std::make_shared<ObjectPushPayload>();
    push->piggyback.updates = std::move(list);
    stats_.pushes_sent++;
    network_->Send(id_, child, std::move(push));
  }
}

void DsmNode::ApplyOneAddressUpdate(const AddressUpdate& update) {
  // An object's moves are scattered across its successive owners; every node
  // that hears of a move remembers it, so the full address chain accumulates
  // along ownership transfers and future grants can resolve arbitrarily old
  // addresses (invariant 1 for requesters that synchronized long ago).
  if (move_history_[update.oid].Add(update.bunch, update.old_addr, update.new_addr)) {
    // First time this node learns of the move: a client-observable flip.
    RecordGcFlip(update.oid, update.old_addr, update.new_addr);
  }
  // An owner is authoritative for its own objects' locations: updates about
  // them are echoes of old moves and must not disturb the oid map or bytes —
  // but old *addresses* must still resolve to the canonical copy here.
  if (IsLocallyOwned(update.oid)) {
    Gaddr canonical = store_->AddrOfOid(update.oid);
    if (canonical != kNullAddr) {
      Gaddr from = ResolveAddr(update.old_addr);
      Gaddr to = ResolveAddr(canonical);
      if (from != to && !store_->HasObjectAt(from)) {
        AddStaleForward(from, to);
      }
    }
    return;
  }
  // Updates can arrive out of order (different senders know different
  // prefixes of the object's move history).  The directory's canonical
  // address is the authoritative present: byte relocation and the oid map
  // always aim there, so a stale echo can never resurrect old state — it
  // merely contributes an address-resolution edge.
  Gaddr target = ResolveAddr(update.new_addr);
  Gaddr dir_canonical = directory_->CanonicalAddressOf(update.oid);
  if (dir_canonical != kNullAddr) {
    target = dir_canonical;
  }
  Gaddr known = store_->AddrOfOid(update.oid);
  if (known != kNullAddr && ResolveAddr(known) == target) {
    // Already current — but still make sure the old *address* resolves here,
    // so stale addresses read from other objects keep working.
    if (ResolveAddr(update.old_addr) != target &&
        !store_->HasObjectAt(ResolveAddr(update.old_addr))) {
      AddStaleForward(update.old_addr, target);
    }
    return;
  }
  stats_.address_updates_applied++;
  Gaddr src = store_->ResolveForward(update.old_addr);
  if (src != target && store_->HasObjectAt(src)) {
    // We hold a local replica at the old location: relocate our bytes (the
    // data stays whatever the consistency protocol last told us — possibly
    // stale, which entry consistency permits) and leave a forwarding header.
    store_->GetOrCreate(SegmentOf(target), update.bunch);
    store_->CopyObjectBytes(src, target);
    ObjectHeader* old_header = store_->HeaderOf(src);
    old_header->flags |= kObjFlagForwarded;
    old_header->forward = target;
    store_->SetAddrOfOid(update.oid, target);
  } else if (src != target) {
    // No local bytes at the old address: remember the mapping so the stale
    // address still resolves on this node.  The oid map is left alone — it
    // tracks where this node's *bytes* are (the directory tracks canonical
    // locations), and repointing it at a byte-less address would hide our
    // own replica from the local tracer.
    AddStaleForward(src, target);
  }
  if (TokenInfo* t = FindToken(update.oid)) {
    t->bunch = update.bunch;
  }
  if (gc_hooks_ != nullptr) {
    gc_hooks_->OnAddressUpdate(update);
  }
}

void DsmNode::Defer(Oid oid, const Message& msg) { deferred_[oid].push_back(msg); }

void DsmNode::Redispatch(Oid oid) {
  auto it = deferred_.find(oid);
  if (it == deferred_.end()) {
    return;
  }
  std::vector<Message> queue = std::move(it->second);
  deferred_.erase(it);
  for (const Message& msg : queue) {
    HandleMessage(msg);
  }
}

}  // namespace bmx
