#include "src/gc/gc_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/fault_injector.h"

namespace bmx {

GcEngine::GcEngine(NodeId id, Network* network, SegmentDirectory* directory, ReplicaStore* store,
                   DsmNode* dsm)
    : id_(id), network_(network), directory_(directory), store_(store), dsm_(dsm) {
  BMX_CHECK(network_ != nullptr && directory_ != nullptr && store_ != nullptr && dsm_ != nullptr);
  dsm_->set_gc_hooks(this);
}

GcEngine::BunchState& GcEngine::StateOf(BunchId bunch) {
  auto it = bunches_.find(bunch);
  if (it == bunches_.end()) {
    RegisterBunchReplica(bunch);
    it = bunches_.find(bunch);
  }
  return it->second;
}

const GcEngine::BunchState* GcEngine::FindState(BunchId bunch) const {
  auto it = bunches_.find(bunch);
  return it == bunches_.end() ? nullptr : &it->second;
}

void GcEngine::RegisterBunchReplica(BunchId bunch) {
  if (bunches_.count(bunch) > 0) {
    return;
  }
  BMX_CHECK(directory_->BunchExists(bunch)) << "mapping unknown bunch " << bunch;
  BunchState state;
  state.id = bunch;
  bunches_.emplace(bunch, std::move(state));
  directory_->NoteMapped(bunch, id_);
}

void GcEngine::AddRootProvider(RootProvider* provider) {
  BMX_CHECK(provider != nullptr);
  root_providers_.push_back(provider);
}

void GcEngine::RemoveRootProvider(RootProvider* provider) {
  root_providers_.erase(std::remove(root_providers_.begin(), root_providers_.end(), provider),
                        root_providers_.end());
}

Gaddr GcEngine::Allocate(BunchId bunch, uint32_t size_slots) {
  Oid oid = directory_->NextOid();
  Gaddr addr = AllocateInBunch(bunch, oid, size_slots, /*avoid=*/{});
  dsm_->RegisterNewObject(oid, addr, bunch);
  // Crash here and the directory names a dead node as owner of an object
  // that was never checkpointed; recovery must drop the vacuous ownership.
  FAULT_POINT("gc.alloc.post_register", id_);
  return addr;
}

Gaddr GcEngine::AllocateInBunch(BunchId bunch, Oid oid, uint32_t size_slots,
                                const std::set<SegmentId>& avoid) {
  BunchState& state = StateOf(bunch);
  if (state.alloc_segment != kInvalidSegment && avoid.count(state.alloc_segment) == 0) {
    SegmentImage* image = store_->Find(state.alloc_segment);
    BMX_CHECK(image != nullptr);
    Gaddr addr = image->Allocate(oid, size_slots);
    if (addr != kNullAddr) {
      return addr;
    }
  }
  // Grow the bunch — this is why segments are grouped into bunches at all
  // (§2.1).
  state.alloc_segment = directory_->AllocateSegment(bunch, id_);
  Gaddr addr = store_->GetOrCreate(state.alloc_segment, bunch).Allocate(oid, size_slots);
  BMX_CHECK_NE(addr, kNullAddr) << "object larger than a segment";
  return addr;
}

Gaddr GcEngine::RelocateOwned(BunchId bunch, Gaddr addr, ObjectHeader* header,
                              const std::set<SegmentId>& avoid) {
  Oid oid = header->oid;
  Gaddr new_addr = AllocateInBunch(bunch, oid, header->size_slots, avoid);
  store_->CopyObjectBytes(addr, new_addr);
  // Non-destructive copy: the old data stays intact behind a forwarding
  // header (O'Toole-style, §4.1), deleted only at from-space reclamation.
  header->flags |= kObjFlagForwarded;
  header->forward = new_addr;
  dsm_->RecordLocalMove(oid, addr, new_addr, bunch);
  OnAddressUpdate(AddressUpdate{oid, bunch, addr, new_addr});
  stats_.objects_copied++;
  return new_addr;
}

void GcEngine::WriteRef(Gaddr obj_addr, size_t slot, Gaddr target) {
  stats_.barrier_writes++;
  Gaddr obj = dsm_->LocalCopyOf(obj_addr);
  BMX_CHECK(store_->HasObjectAt(obj)) << "WriteRef to unmapped object at " << obj_addr;
  const ObjectHeader* header = store_->HeaderOf(obj);
  BMX_CHECK_LT(slot, header->size_slots);
  store_->WriteSlot(obj, slot, target);
  store_->SetSlotIsRef(obj, slot, target != kNullAddr);
  if (target == kNullAddr) {
    return;
  }
  // Write barrier proper (§3.2): detect creation of an inter-bunch reference
  // and construct the SSP immediately.
  BunchId src_bunch = directory_->BunchOfSegment(SegmentOf(obj));
  BunchId dst_bunch = directory_->BunchOfSegment(SegmentOf(dsm_->ResolveAddr(target)));
  if (src_bunch != dst_bunch) {
    stats_.barrier_inter_bunch++;
    CreateInterSsp(obj, slot, target);
  }
}

void GcEngine::WriteWord(Gaddr obj_addr, size_t slot, uint64_t value) {
  stats_.barrier_writes++;
  Gaddr obj = dsm_->LocalCopyOf(obj_addr);
  BMX_CHECK(store_->HasObjectAt(obj)) << "WriteWord to unmapped object at " << obj_addr;
  const ObjectHeader* header = store_->HeaderOf(obj);
  BMX_CHECK_LT(slot, header->size_slots);
  store_->WriteSlot(obj, slot, value);
  store_->SetSlotIsRef(obj, slot, false);
}

uint64_t GcEngine::ReadSlot(Gaddr obj_addr, size_t slot) const {
  Gaddr obj = dsm_->LocalCopyOf(obj_addr);
  BMX_CHECK(store_->HasObjectAt(obj)) << "read of unmapped object at " << obj_addr;
  return store_->ReadSlot(obj, slot);
}

bool GcEngine::SlotIsRef(Gaddr obj_addr, size_t slot) const {
  Gaddr obj = dsm_->LocalCopyOf(obj_addr);
  BMX_CHECK(store_->HasObjectAt(obj));
  return store_->SlotIsRef(obj, slot);
}

bool GcEngine::SameObject(Gaddr a, Gaddr b) const {
  if (a == b) {
    return true;
  }
  if (a == kNullAddr || b == kNullAddr) {
    return false;
  }
  Gaddr ra = dsm_->ResolveAddr(a);
  Gaddr rb = dsm_->ResolveAddr(b);
  if (ra == rb) {
    return true;
  }
  // Different final addresses can still be the same object when this node has
  // not caught up on one of the chains; compare identities, using the
  // directory's address book when local bytes are missing on one side.
  auto identify = [&](Gaddr resolved, Gaddr original) -> Oid {
    if (store_->HasObjectAt(resolved)) {
      return store_->HeaderOf(resolved)->oid;
    }
    Oid oid = directory_->OidAtAddress(resolved);
    return oid != kNullOid ? oid : directory_->OidAtAddress(original);
  };
  Oid oa = identify(ra, a);
  Oid ob = identify(rb, b);
  return oa != kNullOid && oa == ob;
}

void GcEngine::CreateInterSsp(Gaddr src_obj, size_t slot, Gaddr target) {
  Oid src_oid = store_->HeaderOf(src_obj)->oid;
  BunchId src_bunch = directory_->BunchOfSegment(SegmentOf(src_obj));
  Gaddr target_resolved = dsm_->ResolveAddr(target);
  BunchId target_bunch = directory_->BunchOfSegment(SegmentOf(target_resolved));
  InstallInterStub(src_oid, static_cast<uint32_t>(slot), src_bunch, target_resolved,
                   target_bunch);
}

void GcEngine::InstallInterStub(Oid src_oid, uint32_t slot, BunchId src_bunch, Gaddr target_addr,
                                BunchId target_bunch) {
  BunchState& state = StateOf(src_bunch);
  // One SSP per live reference is enough; re-storing the same target into the
  // same slot, or replicating a stub twice, must not grow the tables.
  for (const InterStub& existing : state.inter_stubs) {
    if (existing.src_oid == src_oid && existing.slot == slot &&
        dsm_->ResolveAddr(existing.target_addr) == target_addr) {
      return;
    }
  }
  InterStub stub;
  stub.id = next_stub_id_++;
  stub.src_oid = src_oid;
  stub.slot = slot;
  stub.src_bunch = src_bunch;
  stub.target_addr = target_addr;
  stub.target_bunch = target_bunch;

  if (store_->HasObjectAt(target_addr)) {
    // Both bunches present locally: stub and scion are created locally (§3.2).
    stub.scion_node = id_;
    BunchState& target_state = StateOf(target_bunch);
    InterScion scion;
    scion.stub_id = stub.id;
    scion.src_node = id_;
    scion.src_bunch = src_bunch;
    scion.target_addr = target_addr;
    target_state.inter_scions.push_back(scion);
    stats_.inter_scions_created++;
  } else {
    // Target bunch not mapped locally: a scion-message informs a node that
    // holds the target's bytes (the creator of its segment).
    NodeId dest = directory_->SegmentCreator(SegmentOf(target_addr));
    BMX_CHECK_NE(dest, id_) << "target bytes missing at their creator";
    stub.scion_node = dest;
    auto msg = std::make_shared<ScionMessagePayload>();
    msg->src_node = id_;
    msg->src_bunch = src_bunch;
    msg->stub_id = stub.id;
    msg->target_addr = target_addr;
    msg->target_bunch = target_bunch;
    // Crash here and the stub exists in no checkpoint while the scion was
    // never requested — the reference is rebuilt from the recovered heap.
    FAULT_POINT("gc.scion.pre_send", id_);
    network_->Send(id_, dest, std::move(msg));
    stats_.scion_messages_sent++;
  }
  state.inter_stubs.push_back(stub);
  state.table_destinations.insert(stub.scion_node);
  stats_.inter_stubs_created++;
}

void GcEngine::PrepareOwnershipTransfer(Oid oid, BunchId bunch, NodeId new_owner,
                                        Piggyback* piggyback) {
  const BunchState* state = FindState(bunch);
  if (state == nullptr) {
    return;
  }
  bool holds_inter_stub = false;
  for (const InterStub& stub : state->inter_stubs) {
    if (stub.src_oid == oid) {
      holds_inter_stub = true;
      break;
    }
  }
  bool holds_intra_stub = false;
  for (const IntraStub& stub : state->intra_stubs) {
    if (stub.oid == oid) {
      holds_intra_stub = true;
      break;
    }
  }
  if (!holds_inter_stub && !holds_intra_stub) {
    return;
  }

  if (transfer_policy_ == TransferPolicy::kReplicateInterSsp && !holds_intra_stub) {
    // Ablation policy (§3.2's rejected alternative): ship copies of every
    // inter-bunch stub; each copy costs the new owner a fresh SSP — and,
    // when the target bunch is remote, a scion-message.
    for (const InterStub& stub : state->inter_stubs) {
      if (stub.src_oid != oid) {
        continue;
      }
      InterStubTemplate stub_template;
      stub_template.src_oid = stub.src_oid;
      stub_template.slot = stub.slot;
      stub_template.src_bunch = stub.src_bunch;
      stub_template.target_addr = dsm_->ResolveAddr(stub.target_addr);
      stub_template.target_bunch = stub.target_bunch;
      piggyback->replicated_stubs.push_back(stub_template);
    }
    return;
  }

  // Invariant 3 (§5), the paper's design: create the intra-bunch scion
  // locally *before* the write grant leaves, and ask the new owner to create
  // the matching stub (idempotent there, even if we were already linked).
  AddIntraScion(oid, bunch, new_owner);
  IntraSspRequest request;
  request.oid = oid;
  request.bunch = bunch;
  request.scion_node = id_;
  piggyback->intra_ssp_requests.push_back(request);
}

void GcEngine::AddIntraScion(Oid oid, BunchId bunch, NodeId stub_node) {
  BunchState& state = StateOf(bunch);
  for (const IntraScion& scion : state.intra_scions) {
    if (scion.oid == oid && scion.stub_node == stub_node) {
      return;
    }
  }
  IntraScion scion;
  scion.oid = oid;
  scion.bunch = bunch;
  scion.stub_node = stub_node;
  state.intra_scions.push_back(scion);
  stats_.intra_scions_created++;
}

void GcEngine::InstallReplicatedStub(const InterStubTemplate& stub_template) {
  InstallInterStub(stub_template.src_oid, stub_template.slot, stub_template.src_bunch,
                   dsm_->ResolveAddr(stub_template.target_addr), stub_template.target_bunch);
}

void GcEngine::CreateIntraStub(const IntraSspRequest& request) {
  BunchState& state = StateOf(request.bunch);
  for (const IntraStub& stub : state.intra_stubs) {
    if (stub.oid == request.oid && stub.scion_node == request.scion_node) {
      return;
    }
  }
  IntraStub stub;
  stub.oid = request.oid;
  stub.bunch = request.bunch;
  stub.scion_node = request.scion_node;
  state.intra_stubs.push_back(stub);
  state.table_destinations.insert(stub.scion_node);
  stats_.intra_stubs_created++;
}

void GcEngine::OnAddressUpdate(const AddressUpdate& update) {
  // Refresh recorded target addresses so stub/scion matching stays exact even
  // after the old address's forwarding header is gone.
  for (auto& [bunch, state] : bunches_) {
    for (InterStub& stub : state.inter_stubs) {
      if (stub.target_addr == update.old_addr) {
        stub.target_addr = update.new_addr;
      }
    }
    for (InterScion& scion : state.inter_scions) {
      if (scion.target_addr == update.old_addr) {
        scion.target_addr = update.new_addr;
      }
    }
  }
}

void GcEngine::HandleMessage(const Message& msg) {
  switch (msg.payload->kind()) {
    case MsgKind::kScionMessage:
      HandleScionMessage(msg);
      break;
    case MsgKind::kReachabilityTable:
      HandleReachabilityTable(msg);
      break;
    case MsgKind::kCopyRequest:
      HandleCopyRequest(msg);
      break;
    case MsgKind::kCopyReply:
      HandleCopyReply(msg);
      break;
    case MsgKind::kAddressChange:
      HandleAddressChange(msg);
      break;
    case MsgKind::kAddressChangeAck:
      HandleAddressChangeAck(msg);
      break;
    default:
      BMX_CHECK(false) << "GcEngine got unexpected message kind "
                       << MsgKindName(msg.payload->kind());
  }
}

void GcEngine::HandleScionMessage(const Message& msg) {
  const auto& req = static_cast<const ScionMessagePayload&>(*msg.payload);
  AddInterScion(req.src_node, req.stub_id, req.src_bunch, req.target_addr, req.target_bunch);
}

void GcEngine::AddInterScion(NodeId src_node, uint64_t stub_id, BunchId src_bunch,
                             Gaddr target_addr, BunchId target_bunch) {
  BunchState& state = StateOf(target_bunch);
  for (const InterScion& scion : state.inter_scions) {
    if (scion.stub_id == stub_id && scion.src_node == src_node) {
      return;  // duplicate
    }
  }
  InterScion scion;
  scion.stub_id = stub_id;
  scion.src_node = src_node;
  scion.src_bunch = src_bunch;
  scion.target_addr = dsm_->ResolveAddr(target_addr);
  state.inter_scions.push_back(scion);
  stats_.inter_scions_created++;
}

GcEngine::BunchTables GcEngine::TablesOf(BunchId bunch) const {
  BunchTables tables;
  const BunchState* state = FindState(bunch);
  if (state != nullptr) {
    tables.inter_stubs = state->inter_stubs;
    tables.intra_stubs = state->intra_stubs;
    tables.inter_scions = state->inter_scions;
    tables.intra_scions = state->intra_scions;
  }
  return tables;
}

std::vector<SegmentId> GcEngine::FromSpacesOf(BunchId bunch) const {
  const BunchState* state = FindState(bunch);
  return state == nullptr ? std::vector<SegmentId>{} : state->from_spaces;
}

GcEngine::HeapReport GcEngine::ReportOf(BunchId bunch) {
  HeapReport report;
  TraceResult live = Trace({bunch}, /*exclude_intra_group_scions=*/false);
  for (SegmentId seg : store_->SegmentsOfBunch(bunch)) {
    SegmentImage* image = store_->Find(seg);
    report.segments++;
    report.allocated_bytes += image->allocated_bytes();
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      size_t footprint = ObjectFootprintBytes(header.size_slots);
      if (header.forwarded()) {
        report.forwarders++;
        report.forwarder_bytes += footprint;
        return;
      }
      if (live.Live(addr)) {
        report.live_objects++;
        report.live_bytes += footprint;
      }
    });
  }
  return report;
}

std::vector<Gaddr> GcEngine::LiveObjects(BunchId bunch) {
  TraceResult live = Trace({bunch}, /*exclude_intra_group_scions=*/false);
  std::vector<Gaddr> out;
  auto append = [&out](Gaddr addr) { out.push_back(addr); };
  live.strong.ForEach(append);
  live.weak_only.ForEach(append);
  return out;
}

void GcEngine::NoteRecoveringPeer(NodeId peer) {
  recovering_peers_.insert(peer);
  network_->obligations().Open(ObligationKind::kRetention, id_, peer);
  // The restarted node's table_version counters begin again at 1; without
  // this reset every table from its new life would be rejected as stale and
  // its scions (and our entering entries from it) could never be cleaned.
  for (auto it = table_version_seen_.begin(); it != table_version_seen_.end();) {
    it = it->first.first == peer ? table_version_seen_.erase(it) : ++it;
  }
}

void GcEngine::ClearRecoveringPeer(NodeId peer) {
  recovering_peers_.erase(peer);
  network_->obligations().Close(ObligationKind::kRetention, id_, peer);
}

void GcEngine::RebuildSspsFromHeap(BunchId bunch) {
  // The stub table of the previous life is gone (stubs are volatile); the
  // recovered heap is the ground truth for which cross-bunch references this
  // node is responsible for keeping alive.
  for (SegmentId seg : store_->SegmentsOfBunch(bunch)) {
    SegmentImage* image = store_->Find(seg);
    if (image == nullptr) {
      continue;
    }
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (header.forwarded()) {
        return;
      }
      store_->ForEachRefSlot(addr, header.size_slots, [&](size_t slot, uint64_t target) {
        if (target == kNullAddr) {
          return;
        }
        Gaddr resolved = dsm_->ResolveAddr(target);
        BunchId target_bunch = directory_->BunchOfSegment(SegmentOf(resolved));
        if (target_bunch == bunch || target_bunch == kInvalidBunch) {
          return;
        }
        if (!store_->HasObjectAt(resolved) &&
            directory_->SegmentCreator(SegmentOf(resolved)) == id_) {
          // The reference survived in the checkpoint but its target did not:
          // we are the creator-of-record and hold no bytes, so there is no
          // node a scion-message could protect it at.  The reference is
          // dangling; leave it to fail at the next acquire.
          return;
        }
        CreateInterSsp(addr, slot, resolved);
      });
    });
  }
}

std::vector<BunchId> GcEngine::ReplicaBunches() const {
  std::vector<BunchId> out;
  out.reserve(bunches_.size());
  for (const auto& [bunch, state] : bunches_) {
    out.push_back(bunch);
  }
  return out;  // bunches_ is an ordered map: already sorted
}

size_t GcEngine::LiveBytesOf(BunchId bunch) {
  TraceResult live = Trace({bunch}, /*exclude_intra_group_scions=*/false);
  size_t bytes = 0;
  auto account = [&](Gaddr addr) {
    if (store_->HasObjectAt(addr)) {
      bytes += ObjectFootprintBytes(store_->HeaderOf(addr)->size_slots);
    }
  };
  live.strong.ForEach(account);
  live.weak_only.ForEach(account);
  return bytes;
}

}  // namespace bmx
