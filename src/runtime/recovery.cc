#include "src/runtime/recovery.h"

#include <map>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/common/perf_counters.h"

namespace bmx {

RecoveryManager::RecoveryManager(NodeId id, Network* network, SegmentDirectory* directory,
                                 ReplicaStore* store, DsmNode* dsm, GcEngine* gc,
                                 PersistenceManager* persistence)
    : id_(id),
      network_(network),
      directory_(directory),
      store_(store),
      dsm_(dsm),
      gc_(gc),
      persistence_(persistence) {}

std::set<NodeId> RecoveryManager::PeerSet() const {
  std::set<NodeId> peers;
  for (BunchId bunch : directory_->AllBunches()) {
    for (NodeId node : directory_->MappersOf(bunch)) {
      if (node != id_) {
        peers.insert(node);
      }
    }
  }
  return peers;
}

void RecoveryManager::RunRecovery() {
  GlobalPerfCounters().recoveries++;
  network_->obligations().Open(ObligationKind::kRecovery, id_, 0);
  persistence_->Recover();

  // --- 1. Reload every checkpointed segment the manifest names. ---
  recovered_bunches_.clear();
  std::set<BunchId> bunches;
  std::vector<std::pair<SegmentId, BunchId>> loaded;
  for (const auto& [seg, bunch] : persistence_->Manifest()) {
    if (directory_->IsRetired(seg)) {
      continue;  // reclaimed before the crash; the tombstone outranks the file
    }
    SegmentImage& image = store_->GetOrCreate(seg, bunch);
    if (!persistence_->LoadSegment(&image)) {
      continue;
    }
    bunches.insert(bunch);
    loaded.emplace_back(seg, bunch);
  }
  for (BunchId bunch : bunches) {
    gc_->RegisterBunchReplica(bunch);
    recovered_bunches_.push_back(bunch);
  }

  // --- 2. Re-adopt objects.  An oid can have several non-forwarded copies
  // across recovered segments (old and new copies checkpointed by different
  // transactions); prefer the copy the directory calls canonical, else the
  // one in the newest segment.
  struct Candidate {
    Gaddr addr = kNullAddr;
    BunchId bunch = kInvalidBunch;
    SegmentId seg = kInvalidSegment;
  };
  std::map<Oid, Candidate> best;  // ordered: adoption order reaches the wire
  for (const auto& [seg, bunch] : loaded) {
    SegmentImage* image = store_->Find(seg);
    BunchId b = bunch;
    SegmentId s = seg;
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (header.forwarded()) {
        return;  // ResolveAddr chases the in-heap forwarder when needed
      }
      Candidate cand{addr, b, s};
      auto [it, inserted] = best.emplace(header.oid, cand);
      if (inserted) {
        return;
      }
      Gaddr canonical = directory_->CanonicalAddressOf(header.oid);
      if (addr == canonical || (it->second.addr != canonical && s > it->second.seg)) {
        it->second = cand;
      }
    });
  }
  claimed_.clear();
  for (const auto& [oid, cand] : best) {
    NodeId owner_of_record = directory_->OwnerOf(oid);
    // kInvalidNode: the object was reclaimed or its owner record was lost —
    // re-own conservatively; the peer reconciliation demotes us if contested.
    bool owned = owner_of_record == id_ || owner_of_record == kInvalidNode;
    dsm_->AdoptRecoveredObject(oid, cand.addr, cand.bunch, owned, owner_of_record);
    if (owned) {
      claimed_.push_back(oid);
    }
  }

  // --- 3. The volatile stub tables died with the previous life; the heap is
  // ground truth for outgoing cross-bunch references.
  for (BunchId bunch : recovered_bunches_) {
    gc_->RebuildSspsFromHeap(bunch);
  }

  // --- 4. Reconcile with surviving peers. ---
  std::set<NodeId> peers = PeerSet();
  auto& perf = GlobalPerfCounters();
  for (NodeId peer : peers) {
    auto query = std::make_shared<RecoveryQueryPayload>();
    query->phase = RecoveryPhase::kStart;
    query->bunches = recovered_bunches_;
    query->claimed_oids = claimed_;
    perf.recovery_query_bytes += query->WireSize();
    network_->Send(id_, peer, std::move(query));
  }
  network_->RunUntilIdle();

  // --- 5. Vacuous ownership: owned on paper, bytes nowhere.  Happens when a
  // registered allocation never reached a checkpoint and no peer was ever
  // granted a copy; keeping the record would route acquires into a void.
  for (Oid oid : directory_->OwnedBy(id_)) {
    if (store_->HeaderOf(dsm_->ResolveOid(oid)) != nullptr) {
      continue;
    }
    directory_->ForgetObjectAddresses(oid);  // also forgets the owner record
    dsm_->ForgetObject(oid);
    store_->ForgetOid(oid);
  }

  // --- 6. Done: peers lift conservative scion retention. ---
  for (NodeId peer : peers) {
    auto done = std::make_shared<RecoveryQueryPayload>();
    done->phase = RecoveryPhase::kComplete;
    perf.recovery_query_bytes += done->WireSize();
    network_->Send(id_, peer, std::move(done));
  }
  network_->RunUntilIdle();
  network_->obligations().Close(ObligationKind::kRecovery, id_, 0);
}

void RecoveryManager::HandleMessage(const Message& msg) {
  switch (msg.payload->kind()) {
    case MsgKind::kRecoveryQuery:
      HandleQuery(msg);
      return;
    case MsgKind::kRecoveryReply:
      HandleReply(msg);
      return;
    default:
      BMX_CHECK(false) << "recovery manager got " << MsgKindName(msg.payload->kind());
  }
}

void RecoveryManager::HandleQuery(const Message& msg) {
  const auto& query = static_cast<const RecoveryQueryPayload&>(*msg.payload);
  NodeId peer = msg.src;
  if (query.phase == RecoveryPhase::kComplete) {
    gc_->ClearRecoveringPeer(peer);
    return;
  }
  gc_->NoteRecoveringPeer(peer);

  std::set<Oid> claimed(query.claimed_oids.begin(), query.claimed_oids.end());
  auto reply = std::make_shared<RecoveryReplyPayload>();

  for (const TokenSnapshot& t : dsm_->SnapshotTokens()) {
    if (t.owner && claimed.count(t.oid) > 0) {
      // Both sides claim ownership; the live token outranks the checkpoint.
      reply->contested.push_back(t.oid);
      continue;
    }
    if (directory_->OwnerOf(t.oid) != peer) {
      continue;
    }
    RecoveredReplicaEntry e;
    e.oid = t.oid;
    e.bunch = t.bunch;
    e.has_token = t.state != TokenState::kNone;
    Gaddr resolved = dsm_->ResolveOid(t.oid);
    const ObjectHeader* header = store_->HeaderOf(resolved);
    if (header != nullptr && !header->forwarded()) {
      e.has_bytes = true;
      e.object = store_->CaptureObject(resolved);
    }
    if (e.has_bytes || e.has_token) {
      reply->replicas.push_back(std::move(e));
    }
  }

  // SSP halves whose other half died with the peer's previous life.
  for (BunchId bunch : gc_->ReplicaBunches()) {
    GcEngine::BunchTables tables = gc_->TablesOf(bunch);
    for (const InterStub& stub : tables.inter_stubs) {
      if (stub.scion_node == peer) {
        reply->inter_scions.push_back(
            {stub.id, stub.src_bunch, stub.target_addr, stub.target_bunch});
      }
    }
    for (const IntraStub& stub : tables.intra_stubs) {
      if (stub.scion_node == peer) {
        reply->intra_scions.push_back({stub.oid, stub.bunch});
      }
    }
    for (const IntraScion& scion : tables.intra_scions) {
      if (scion.stub_node == peer) {
        reply->intra_stubs.push_back({scion.oid, scion.bunch});
      }
    }
  }

  GlobalPerfCounters().recovery_query_bytes += reply->WireSize();
  network_->Send(id_, peer, std::move(reply));
}

void RecoveryManager::HandleReply(const Message& msg) {
  const auto& reply = static_cast<const RecoveryReplyPayload&>(*msg.payload);
  NodeId peer = msg.src;

  for (Oid oid : reply.contested) {
    // Our checkpointed ownership claim predates a transfer to the peer:
    // demote the recovered copy to a tokenless replica.
    directory_->RecordOwner(oid, peer);
    dsm_->AdoptRecoveredObject(oid, store_->AddrOfOid(oid), dsm_->BunchOf(oid),
                               /*owned=*/false, peer);
  }

  for (const RecoveredReplicaEntry& e : reply.replicas) {
    if (directory_->OwnerOf(e.oid) != id_) {
      continue;  // demoted by a contested entry from another peer
    }
    bool have_bytes = store_->HeaderOf(dsm_->ResolveOid(e.oid)) != nullptr;
    if (!have_bytes && e.has_bytes) {
      // The peer's copy resupplies an owned object our checkpoint predates.
      gc_->RegisterBunchReplica(e.bunch);
      dsm_->InstallObjectBytes(e.oid, e.bunch, e.object);
      dsm_->AdoptRecoveredObject(e.oid, e.object.addr, e.bunch, /*owned=*/true, kInvalidNode);
    }
    if (dsm_->IsLocallyOwned(e.oid)) {
      dsm_->RestoreReaderReplica(e.oid, peer, e.has_token);
    }
  }

  for (const InterScionRestore& r : reply.inter_scions) {
    gc_->AddInterScion(peer, r.stub_id, r.src_bunch, r.target_addr, r.target_bunch);
  }
  for (const IntraRestore& r : reply.intra_scions) {
    gc_->AddIntraScion(r.oid, r.bunch, peer);
  }
  for (const IntraRestore& r : reply.intra_stubs) {
    gc_->CreateIntraStub(IntraSspRequest{r.oid, r.bunch, peer});
  }
}

}  // namespace bmx
