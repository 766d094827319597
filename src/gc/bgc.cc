// Bunch garbage collection (paper §4) and group garbage collection (§7).
//
// Both run entirely node-locally over the same core: trace → copy owned live
// objects → update local references → sweep → rebuild tables → ship tables in
// the background.  The collector acquires no token at any point; non-owned
// objects are scanned wherever (and however stale) their local bytes are.

#include <algorithm>

#include "src/common/check.h"
#include "src/common/fault_injector.h"
#include "src/gc/gc_engine.h"

namespace bmx {

void GcEngine::CollectBunch(BunchId bunch) {
  stats_.bgc_runs++;
  Collect({bunch}, /*exclude_intra_group_scions=*/false);
}

void GcEngine::CollectGroup() {
  // Locality-based grouping heuristic (§7): collect every bunch currently in
  // memory at this site, avoiding disk I/O.
  std::vector<BunchId> group;
  group.reserve(bunches_.size());
  for (const auto& [bunch, state] : bunches_) {
    group.push_back(bunch);
  }
  CollectGroup(group);
}

void GcEngine::CollectGroup(const std::vector<BunchId>& group) {
  stats_.ggc_runs++;
  Collect(group, /*exclude_intra_group_scions=*/true);
}

void GcEngine::Collect(const std::vector<BunchId>& group, bool exclude_intra_group_scions) {
  for (BunchId bunch : group) {
    // The replica state must exist before tracing: scion tables and entering
    // ownerPtrs are roots even on a node that never allocated in the bunch.
    StateOf(bunch);
  }
  if (cleaner_mode_ == CleanerMode::kDeferred) {
    // §6.1: accumulated reachability tables are processed at the start of the
    // next local collection, refreshing the scion roots first.
    ProcessDeferredTables();
  }
  FAULT_POINT("bgc.collect.pre_trace", id_);
  TraceResult live = Trace(group, exclude_intra_group_scions);
  for (BunchId bunch : group) {
    CopyOwnedLive(bunch, &live);
  }
  UpdateLocalReferences(group, live);
  for (BunchId bunch : group) {
    SweepDead(bunch, live);
  }
  for (BunchId bunch : group) {
    RebuildTables(bunch, live);
  }
  // Crash here and the heap is flipped (objects moved, stubs rebuilt) but no
  // peer has heard: their scions and entering entries go stale-conservative
  // until this node's next life re-announces its tables.
  FAULT_POINT("bgc.flip.pre_publish", id_);
  for (BunchId bunch : group) {
    SendReachabilityTables(bunch);
  }
  FAULT_POINT("bgc.tables.post_send", id_);
}

void GcEngine::MarkFrom(Gaddr root, const std::set<BunchId>& group, MarkSet* marked,
                        std::set<Gaddr>* dangling) {
  std::vector<Gaddr> worklist;
  worklist.push_back(dsm_->LocalCopyOf(root));
  while (!worklist.empty()) {
    Gaddr addr = worklist.back();
    worklist.pop_back();
    if (addr == kNullAddr) {
      continue;
    }
    // References leaving the group are not traced: the SSP machinery keeps
    // their targets alive (that isolation is what makes independent bunch
    // collection possible, §3).
    if (group.count(directory_->BunchOfSegment(SegmentOf(addr))) == 0) {
      continue;
    }
    const ObjectHeader* header = store_->HeaderOf(addr);
    if (header == nullptr) {
      // In-group reference with no local bytes: record it so the owner keeps
      // the target alive (address-based exiting entry).
      if (dangling != nullptr) {
        dangling->insert(addr);
      }
      continue;
    }
    if (!marked->Insert(addr)) {
      continue;
    }
    // Word-level ref-map kernel: non-reference slots never touched, empty
    // 64-slot runs skipped in one instruction.
    store_->ForEachRefSlot(addr, header->size_slots, [&](size_t, uint64_t value) {
      if (value != kNullAddr) {
        // Scan through this node's own byte copies (possibly stale — §4.2's
        // conservative scanning); only targets with no local bytes at all
        // become dangling, address-based exiting entries.
        worklist.push_back(dsm_->LocalCopyOf(value));
      }
    });
  }
}

GcEngine::TraceResult GcEngine::Trace(const std::vector<BunchId>& group,
                                      bool exclude_intra_group_scions) {
  std::set<BunchId> gset(group.begin(), group.end());
  TraceResult result;

  // --- Strong roots: mutator stacks, inter-bunch scions, entering ownerPtrs
  // --- (§4.1).  For a group collection, inter-bunch scions whose stub
  // --- originates inside the local group are NOT roots — that is what lets
  // --- the GGC collect intra-site inter-bunch cycles (§7).
  for (RootProvider* provider : root_providers_) {
    for (Gaddr* slot : provider->RootSlots()) {
      if (*slot != kNullAddr) {
        MarkFrom(*slot, gset, &result.strong, &result.dangling);
      }
    }
  }
  for (BunchId bunch : group) {
    const BunchState* state = FindState(bunch);
    if (state != nullptr) {
      for (const InterScion& scion : state->inter_scions) {
        if (exclude_intra_group_scions && scion.src_node == id_ &&
            gset.count(scion.src_bunch) > 0) {
          continue;
        }
        MarkFrom(scion.target_addr, gset, &result.strong, &result.dangling);
      }
    }
    for (const auto& [oid, sources] : dsm_->EnteringFor(bunch)) {
      Gaddr addr = store_->AddrOfOid(oid);
      if (addr != kNullAddr) {
        MarkFrom(addr, gset, &result.strong, &result.dangling);
      }
    }
  }

  // --- Weak roots: intra-bunch scions (§6.2).  Objects reachable only from
  // --- these stay alive but emit no exiting ownerPtr.
  MarkSet weak;
  for (BunchId bunch : group) {
    const BunchState* state = FindState(bunch);
    if (state == nullptr) {
      continue;
    }
    for (const IntraScion& scion : state->intra_scions) {
      Gaddr addr = store_->AddrOfOid(scion.oid);
      if (addr != kNullAddr) {
        // Weak trace: dangling refs deliberately NOT recorded (§6.2 — weak
        // reachability must not emit exiting entries).
        MarkFrom(addr, gset, &weak, nullptr);
      }
    }
  }
  weak.ForEach([&](Gaddr addr) {
    if (!result.strong.Contains(addr)) {
      result.weak_only.Insert(addr);
    }
  });
  return result;
}

void GcEngine::CopyOwnedLive(BunchId bunch, TraceResult* live) {
  BunchState& state = StateOf(bunch);
  std::vector<SegmentId> old_segments = store_->SegmentsOfBunch(bunch);
  // Every segment the bunch has now flips to from-space, so copies land in a
  // fresh to-space.
  std::set<SegmentId> flipping(old_segments.begin(), old_segments.end());

  for (SegmentId seg : old_segments) {
    SegmentImage* image = store_->Find(seg);
    BMX_CHECK(image != nullptr);
    std::vector<std::pair<Gaddr, ObjectHeader*>> objects;
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (!header.forwarded()) {
        objects.emplace_back(addr, &header);
      }
    });
    for (auto [addr, header] : objects) {
      if (!live->Live(addr)) {
        continue;
      }
      Oid oid = header->oid;
      if (!dsm_->IsLocallyOwned(oid)) {
        // §4.2: objects not locally owned are simply scanned; copying them
        // would require synchronizing the copy-set.
        stats_.objects_scanned++;
        continue;
      }
      Gaddr new_addr = RelocateOwned(bunch, addr, header, flipping);
      if (live->strong.Contains(addr)) {
        live->strong.Insert(new_addr);
      } else {
        live->weak_only.Insert(new_addr);
      }
      stats_.bytes_copied += ObjectFootprintBytes(header->size_slots);
    }
  }

  if (!old_segments.empty() && (state.alloc_segment == kInvalidSegment ||
                                flipping.count(state.alloc_segment) > 0)) {
    // Nothing was copied (e.g. a replica that owns no object), but the flip
    // still happens: old segments become from-space so §4.5 reclamation can
    // eventually free them; allocation continues in a fresh to-space.
    state.alloc_segment = directory_->AllocateSegment(bunch, id_);
    store_->GetOrCreate(state.alloc_segment, bunch);
  }
  for (SegmentId seg : old_segments) {
    if (std::find(state.from_spaces.begin(), state.from_spaces.end(), seg) ==
        state.from_spaces.end()) {
      state.from_spaces.push_back(seg);
    }
  }
}

void GcEngine::UpdateLocalReferences(const std::vector<BunchId>& group, const TraceResult& live) {
  // §4.4: references to copied objects are updated in place, in every live
  // local object — owned or not — without acquiring any token: the change is
  // visible only locally and does not affect other nodes' copies.
  for (BunchId bunch : group) {
    for (SegmentId seg : store_->SegmentsOfBunch(bunch)) {
      SegmentImage* image = store_->Find(seg);
      image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
        if (header.forwarded() || !live.Live(addr)) {
          return;
        }
        image->ForEachRefSlotOf(addr, header.size_slots, [&](size_t slot, uint64_t value) {
          if (value == kNullAddr) {
            return;
          }
          Gaddr resolved = dsm_->LocalCopyOf(value);
          if (resolved != value && store_->HeaderOf(resolved) != nullptr) {
            // Rewrite only toward addresses whose bytes this node holds;
            // pointing a slot at a byte-less canonical address would sever
            // the local trace (the paper's page-mapped replicas can always
            // read what they point at).
            store_->WriteSlot(addr, slot, resolved);
            stats_.refs_updated_locally++;
          }
        });
      });
    }
  }
  for (RootProvider* provider : root_providers_) {
    for (Gaddr* slot : provider->RootSlots()) {
      if (*slot != kNullAddr) {
        *slot = dsm_->ResolveAddr(*slot);
      }
    }
  }
}

void GcEngine::SweepDead(BunchId bunch, const TraceResult& live) {
  for (SegmentId seg : store_->SegmentsOfBunch(bunch)) {
    SegmentImage* image = store_->Find(seg);
    std::vector<std::pair<Gaddr, const ObjectHeader*>> dead;
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (!header.forwarded() && !live.Live(addr)) {
        dead.emplace_back(addr, &header);
      }
    });
    for (auto [addr, header] : dead) {
      stats_.objects_reclaimed++;
      stats_.bytes_reclaimed += ObjectFootprintBytes(header->size_slots);
      Oid oid = header->oid;
      // Out-of-order address updates can leave an *orphaned* old replica of
      // an object whose canonical local copy lives elsewhere.  Sweeping the
      // orphan must not destroy the object's token state: erase the bytes,
      // leave a stale-forward to the canonical copy, and move on.
      Gaddr canonical_resolved = dsm_->ResolveOid(oid);
      if (canonical_resolved != addr && store_->HeaderOf(canonical_resolved) != nullptr) {
        image->EraseObject(addr);
        dsm_->AddStaleForward(addr, canonical_resolved);
        continue;
      }
      if (canonical_resolved != kNullAddr && canonical_resolved != addr) {
        // The oid map chased a stale update past the real bytes: repair it.
        store_->SetAddrOfOid(oid, addr);
      }
      if (!dsm_->IsLocallyOwned(oid)) {
        // The object may live on at its owner; this node might still be the
        // routing fallback for its address (we created the segment), so keep
        // a probable-owner tombstone.
        dsm_->AddStaleRouting(addr, dsm_->OwnerHint(oid));
      } else {
        // Dead at its owner: dead globally.  Retire the directory entries.
        directory_->ForgetObjectAddresses(oid);
      }
      image->EraseObject(addr);
      dsm_->ForgetObject(oid);
    }
  }
}

void GcEngine::RebuildTables(BunchId bunch, const TraceResult& live) {
  BunchState& state = StateOf(bunch);

  // Inter-bunch stubs survive while the (live) source object still contains
  // the reference the stub describes (§4.3).  Stubs exist only where the
  // reference was *created*, so a pure filter of the old table is complete.
  std::vector<InterStub> inter;
  for (InterStub stub : state.inter_stubs) {
    Gaddr src = dsm_->ResolveOid(stub.src_oid);
    if (src == kNullAddr || !live.Live(src)) {
      continue;
    }
    const ObjectHeader* header = store_->HeaderOf(src);
    BMX_CHECK(header != nullptr) << "live stub source " << stub.src_oid << " has no header at "
                                 << src;
    if (stub.slot >= header->size_slots || !store_->SlotIsRef(src, stub.slot)) {
      continue;
    }
    Gaddr value = store_->ReadSlot(src, stub.slot);
    if (value == kNullAddr || dsm_->ResolveAddr(value) != dsm_->ResolveAddr(stub.target_addr)) {
      continue;  // overwritten; the barrier created a fresh stub for the new target
    }
    stub.target_addr = dsm_->ResolveAddr(stub.target_addr);
    inter.push_back(stub);
  }
  state.inter_stubs = std::move(inter);

  // Intra-bunch stubs survive while the object is live locally — including
  // live only through an intra-bunch scion, which is what keeps ownership
  // chains (new owner → older owner → oldest stub holder) connected.
  std::vector<IntraStub> intra;
  for (const IntraStub& stub : state.intra_stubs) {
    Gaddr addr = dsm_->ResolveOid(stub.oid);
    if (addr != kNullAddr && live.Live(addr)) {
      intra.push_back(stub);
    }
  }
  state.intra_stubs = std::move(intra);

  // Exiting ownerPtrs: one per live *strongly reachable* non-owned local
  // replica.  Objects reachable only via an intra-bunch scion are omitted —
  // §6.2's cycle breaker.
  state.exiting.clear();
  state.exiting_addrs.clear();
  for (Gaddr addr : live.dangling) {
    if (directory_->BunchOfSegment(SegmentOf(addr)) == bunch) {
      state.exiting_addrs.push_back(addr);
    }
  }
  for (SegmentId seg : store_->SegmentsOfBunch(bunch)) {
    SegmentImage* image = store_->Find(seg);
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (header.forwarded() || !live.strong.Contains(addr)) {
        return;
      }
      if (dsm_->IsLocallyOwned(header.oid)) {
        return;
      }
      // Every live, strongly reachable, non-owned replica contributes an
      // exiting ownerPtr — even when local token bookkeeping is gone (the
      // bytes may have arrived through a stale-copy relocation): omitting it
      // would let the owner's scion cleaner prune our entering entry and the
      // owner's BGC reclaim a live object.
      NodeId owner = dsm_->OwnerHint(header.oid);
      if (owner == kInvalidNode) {
        owner = dsm_->ProbableOwnerForAddr(addr);
      }
      if (owner != kInvalidNode && owner != id_) {
        state.exiting.emplace_back(header.oid, owner);
      }
    });
  }
}

void GcEngine::SendReachabilityTables(BunchId bunch) {
  BunchState& state = StateOf(bunch);
  state.table_version++;

  ReachabilityTablePayload content;
  content.src_node = id_;
  content.bunch = bunch;
  content.version = state.table_version;
  for (const InterStub& stub : state.inter_stubs) {
    content.inter_stub_ids.push_back(stub.id);
  }
  for (const IntraStub& stub : state.intra_stubs) {
    content.intra_stub_oids.push_back(stub.oid);
  }
  for (const auto& [oid, owner] : state.exiting) {
    content.exiting_oids.push_back(oid);
  }
  content.exiting_addrs = state.exiting_addrs;

  // Destinations: every other replica of the bunch, every node holding a
  // scion matching a stub of the *old or reconstructed* stub table (§4.1),
  // and the owners our exiting ownerPtrs point at.  The accumulated set only
  // grows; a node that stopped mattering merely receives an idempotent table
  // that deletes nothing.
  for (const InterStub& stub : state.inter_stubs) {
    state.table_destinations.insert(stub.scion_node);
  }
  for (const IntraStub& stub : state.intra_stubs) {
    state.table_destinations.insert(stub.scion_node);
  }
  for (const auto& [oid, owner] : state.exiting) {
    state.table_destinations.insert(owner);
  }
  for (Gaddr addr : state.exiting_addrs) {
    NodeId hop = dsm_->ProbableOwnerForAddr(addr);
    if (hop != kInvalidNode && hop != id_) {
      state.table_destinations.insert(hop);
    }
  }
  std::set<NodeId> destinations = state.table_destinations;
  for (NodeId node : directory_->MappersOf(bunch)) {
    destinations.insert(node);
  }
  destinations.erase(id_);

  for (NodeId dest : destinations) {
    auto payload = std::make_shared<ReachabilityTablePayload>(content);
    network_->Send(id_, dest, std::move(payload));
    stats_.table_messages_sent++;
  }

  // The per-node scion cleaner also consumes locally produced tables: a stub
  // and its scion can live on the same node (both bunches mapped locally).
  ApplyReachabilityTable(content);
}

}  // namespace bmx
