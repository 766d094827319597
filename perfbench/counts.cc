#include "perfbench/counts.h"

#include "src/common/perf_counters.h"
#include "src/dsm/dsm_node.h"
#include "src/gc/gc_stats.h"
#include "src/rvm/disk.h"
#include "src/rvm/rvm.h"

namespace perfbench {
namespace {

// Field lists of the stats structs.  Each struct is all uint64_t, so the
// static_asserts below break the build when a field is added there but not
// here.
#define PB_DSM_FIELDS(X)                                                                     \
  X(app_read_acquires) X(app_write_acquires) X(gc_read_acquires) X(gc_write_acquires)       \
  X(remote_acquires) X(grants_sent) X(invalidations_sent) X(read_copies_invalidated)        \
  X(piggyback_updates_sent) X(piggyback_ssp_requests_sent) X(address_updates_applied)       \
  X(pushes_sent) X(unroutable_acquires) X(acquire_timeouts) X(breaker_fast_fails)

#define PB_GC_FIELDS(X)                                                                      \
  X(bgc_runs) X(ggc_runs) X(objects_copied) X(objects_scanned) X(objects_reclaimed)         \
  X(bytes_copied) X(bytes_reclaimed) X(refs_updated_locally) X(barrier_writes)              \
  X(barrier_inter_bunch) X(inter_stubs_created) X(intra_stubs_created)                      \
  X(inter_scions_created) X(intra_scions_created) X(inter_scions_deleted)                   \
  X(intra_scions_deleted) X(entering_pruned) X(scion_messages_sent) X(table_messages_sent)  \
  X(tables_processed) X(tables_ignored_stale) X(tables_deferred) X(reclaim_rounds)          \
  X(copy_requests_sent) X(address_change_messages) X(segments_freed)

#define PB_RVM_FIELDS(X)                                                       \
  X(transactions_committed) X(transactions_aborted) X(log_records) X(log_bytes) \
  X(truncations) X(recovered_transactions)

#define PB_DISK_FIELDS(X) X(writes) X(bytes_written) X(reads) X(bytes_read)

#define PB_PERF_FIELDS(X)                                                                    \
  X(slots_scanned) X(words_skipped) X(objects_walked) X(ref_slots_visited)                  \
  X(segment_probes) X(segment_mru_hits) X(oid_probes) X(directory_probes) X(token_probes)   \
  X(piggyback_updates_coalesced) X(piggyback_bytes_saved) X(piggyback_overflow_spills)      \
  X(recoveries) X(epoch_rejected_msgs) X(fault_points_hit) X(recovery_query_bytes)          \
  X(pool_regions) X(pool_chunks_executed) X(pool_steals) X(history_events_recorded)         \
  X(consistency_checks_run) X(consistency_violations) X(zombie_dropped_msgs)                \
  X(obligations_opened) X(obligations_retired) X(liveness_checks_run)                      \
  X(liveness_violations)

#define PB_COUNT_ONE(field) +1
static_assert(sizeof(bmx::DsmStats) == 8 * (0 PB_DSM_FIELDS(PB_COUNT_ONE)));
static_assert(sizeof(bmx::GcStats) == 8 * (0 PB_GC_FIELDS(PB_COUNT_ONE)));
static_assert(sizeof(bmx::RvmStats) == 8 * (0 PB_RVM_FIELDS(PB_COUNT_ONE)));
static_assert(sizeof(bmx::DiskStats) == 8 * (0 PB_DISK_FIELDS(PB_COUNT_ONE)));
static_assert(sizeof(bmx::PerfCounters) == 8 * (0 PB_PERF_FIELDS(PB_COUNT_ONE)));
#undef PB_COUNT_ONE

}  // namespace

Counts Snapshot(bmx::Cluster& cluster) {
  Counts out;
  for (bmx::NodeId id = 0; id < cluster.size(); ++id) {
    if (!cluster.IsAlive(id)) {
      continue;
    }
    bmx::Node& node = cluster.node(id);
    const bmx::DsmStats& dsm = node.dsm().stats();
    const bmx::GcStats& gc = node.gc().stats();
    const bmx::RvmStats& rvm = node.persistence().rvm().stats();
#define PB_ADD(prefix, source, field) out[prefix #field] += source.field;
#define PB_DSM(field) PB_ADD("dsm.", dsm, field)
#define PB_GC(field) PB_ADD("gc.", gc, field)
#define PB_RVM(field) PB_ADD("rvm.", rvm, field)
    PB_DSM_FIELDS(PB_DSM)
    PB_GC_FIELDS(PB_GC)
    PB_RVM_FIELDS(PB_RVM)
  }
  const bmx::DiskStats& disk = cluster.disk().stats();
  const bmx::PerfCounters& perf = bmx::GlobalPerfCounters();
#define PB_DISK(field) PB_ADD("disk.", disk, field)
#define PB_PERF(field) PB_ADD("perf.", perf, field)
  PB_DISK_FIELDS(PB_DISK)
  PB_PERF_FIELDS(PB_PERF)
#undef PB_PERF
#undef PB_DISK
#undef PB_RVM
#undef PB_GC
#undef PB_DSM
#undef PB_ADD

  const bmx::NetworkStats& net = cluster.network().stats();
  uint64_t delivered = 0;
  uint64_t lost = 0;
  for (const bmx::NetworkStats::PerKind& pk : net.per_kind) {
    delivered += pk.delivered;
    lost += pk.lost_transmissions;
  }
  out["net.wire_messages"] = net.wire_messages;
  out["net.wire_bytes"] = net.TotalWireBytes();
  out["net.logical_msgs"] = net.TotalSent();
  out["net.logical_bytes"] = net.TotalBytes();
  out["net.delivered"] = delivered;
  out["net.dsm_msgs"] = net.SentInCategory(bmx::MsgCategory::kDsm);
  out["net.dsm_bytes"] = net.BytesInCategory(bmx::MsgCategory::kDsm);
  out["net.gc_bg_msgs"] = net.SentInCategory(bmx::MsgCategory::kGcBackground);
  out["net.gc_bg_bytes"] = net.BytesInCategory(bmx::MsgCategory::kGcBackground);
  out["net.gc_fg_msgs"] = net.SentInCategory(bmx::MsgCategory::kGcForeground);
  out["net.retransmits"] = net.TotalRetransmits();
  out["net.dup_suppressed"] = net.TotalDupSuppressed();
  out["net.lost_transmissions"] = lost;
  out["net.frames_sent"] = net.batching.frames_sent;
  out["net.batched_payloads"] = net.batching.batched_payloads;
  out["net.ticks"] = cluster.network().now();
  return out;
}

Counts Diff(const Counts& later, const Counts& earlier) {
  Counts out = later;
  for (const auto& [key, value] : earlier) {
    out[key] -= value;
  }
  return out;
}

void Accumulate(Counts* into, const Counts& add) {
  for (const auto& [key, value] : add) {
    (*into)[key] += value;
  }
}

uint64_t Get(const Counts& counts, const std::string& key) {
  auto it = counts.find(key);
  return it == counts.end() ? 0 : it->second;
}

bool SchedulingDependent(const std::string& key) {
  return key == "perf.segment_mru_hits" || key.rfind("perf.pool_", 0) == 0;
}

}  // namespace perfbench
