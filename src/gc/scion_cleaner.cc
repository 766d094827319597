// Scion cleaner (paper §6): consumes the reachability tables produced by
// remote BGCs and deletes local scions and entering ownerPtrs that no
// surviving stub or exiting ownerPtr justifies.  Tables are idempotent full
// state; a per-(source, bunch) version number rejects stale or duplicated
// tables (the FIFO requirement of §6.1 — a stale stub table matched against
// newer scions could delete a scion erroneously).

#include <set>

#include "src/common/check.h"
#include "src/common/fault_injector.h"
#include "src/gc/gc_engine.h"

namespace bmx {

void GcEngine::HandleReachabilityTable(const Message& msg) {
  const auto& table = static_cast<const ReachabilityTablePayload&>(*msg.payload);
  if (cleaner_mode_ == CleanerMode::kDeferred) {
    // §6.1: "messages can be accumulated and their processing can be
    // postponed until the start of the next local BGC."
    deferred_tables_.push_back(table);
    stats_.tables_deferred++;
    return;
  }
  ApplyReachabilityTable(table);
}

void GcEngine::ProcessDeferredTables() {
  std::vector<ReachabilityTablePayload> tables = std::move(deferred_tables_);
  deferred_tables_.clear();
  for (const ReachabilityTablePayload& table : tables) {
    ApplyReachabilityTable(table);
  }
}

void GcEngine::ApplyReachabilityTable(const ReachabilityTablePayload& table) {
  FAULT_POINT("cleaner.table.pre_apply", id_);
  auto key = std::make_pair(table.src_node, table.bunch);
  auto seen = table_version_seen_.find(key);
  if (seen != table_version_seen_.end() && table.version <= seen->second) {
    stats_.tables_ignored_stale++;
    return;
  }
  bool src_recovering = recovering_peers_.count(table.src_node) > 0;
  if (!src_recovering) {
    table_version_seen_[key] = table.version;
  }
  stats_.tables_processed++;

  std::set<uint64_t> stub_ids(table.inter_stub_ids.begin(), table.inter_stub_ids.end());
  std::set<Oid> intra_oids(table.intra_stub_oids.begin(), table.intra_stub_oids.end());
  std::set<Oid> exiting(table.exiting_oids.begin(), table.exiting_oids.end());
  // Address-based exiting entries (dangling references at the sender) are
  // translated to oids through the directory's address book first — local
  // resolution can be behind, and a failed translation would wrongly count
  // as an omission and prune a live object's entering entry.
  for (Gaddr addr : table.exiting_addrs) {
    Oid oid = directory_->OidAtAddress(addr);
    if (oid == kNullOid) {
      Gaddr resolved = dsm_->ResolveAddr(addr);
      oid = directory_->OidAtAddress(resolved);
      const ObjectHeader* header = oid == kNullOid ? store_->HeaderOf(resolved) : nullptr;
      if (header != nullptr) {
        oid = header->oid;
      }
    }
    if (oid != kNullOid) {
      exiting.insert(oid);
    }
  }

  // Conservative retention while the sender's bunch is mid-recovery: its new
  // life may still be rebuilding stubs from the recovered heap, so a table
  // from it must not delete anything yet.  Additions (entering registration)
  // are still safe — and necessary, or the owner could miss fresh interest.
  if (src_recovering) {
    for (Oid oid : exiting) {
      if (dsm_->IsLocallyOwned(oid)) {
        dsm_->AddEntering(table.bunch, oid, table.src_node);
      }
    }
    return;
  }

  // Inter-bunch scions matching stubs of (src_node, bunch) may live in any
  // local bunch (the scion sits with the *target* bunch).
  for (auto& [bunch, state] : bunches_) {
    std::vector<InterScion> kept;
    kept.reserve(state.inter_scions.size());
    for (const InterScion& scion : state.inter_scions) {
      if (scion.src_node == table.src_node && scion.src_bunch == table.bunch &&
          stub_ids.count(scion.stub_id) == 0) {
        stats_.inter_scions_deleted++;
        continue;
      }
      kept.push_back(scion);
    }
    state.inter_scions = std::move(kept);
  }

  // Intra-bunch scions live in the same bunch as their stub.
  auto it = bunches_.find(table.bunch);
  if (it != bunches_.end()) {
    std::vector<IntraScion> kept;
    kept.reserve(it->second.intra_scions.size());
    for (const IntraScion& scion : it->second.intra_scions) {
      if (scion.stub_node == table.src_node && intra_oids.count(scion.oid) == 0) {
        stats_.intra_scions_deleted++;
        continue;
      }
      kept.push_back(scion);
    }
    it->second.intra_scions = std::move(kept);
  }

  // Entering ownerPtrs from the table's sender are synchronized with the
  // sender's full exiting list: entries it no longer reports are pruned, and
  // entries for objects we own are (re)registered — a replica can reference
  // an object it never token-acquired, so the table is how the owner learns
  // of that interest.
  for (Oid oid : exiting) {
    if (dsm_->IsLocallyOwned(oid)) {
      dsm_->AddEntering(table.bunch, oid, table.src_node);
    }
  }
  std::vector<Oid> to_prune;
  for (const auto& [oid, sources] : dsm_->EnteringFor(table.bunch)) {
    if (sources.count(table.src_node) > 0 && exiting.count(oid) == 0) {
      to_prune.push_back(oid);
    }
  }
  for (Oid oid : to_prune) {
    dsm_->PruneEntering(table.bunch, oid, table.src_node);
    stats_.entering_pruned++;
  }
}

}  // namespace bmx
