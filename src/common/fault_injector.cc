#include "src/common/fault_injector.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/perf_counters.h"

namespace bmx {

FaultInjector& FaultInjector::Global() {
  // One injector per thread.  Every cluster is confined to a single thread —
  // the main thread for ordinary tests, one TaskPool thread per explorer walk —
  // so armed schedules, hit counts and the network's fire gate stay with the
  // thread that owns the cluster and concurrent walks never clobber each
  // other's gates.
  static thread_local FaultInjector injector;
  return injector;
}

const std::vector<const char*>& FaultInjector::AllSites() {
  // Canonical crash-point table.  One entry per protocol step whose
  // interruption exercises a distinct recovery obligation; the crash-point
  // sweep runs every one of them.
  static const std::vector<const char*> sites = {
      // DSM consistency protocol (dsm_node.cc).
      "dsm.acquire.pre_send",      // requester dies with the request unsent
      "dsm.grant.pre_send",        // owner dies after relinquishing, before the grant
      "dsm.grant.post_install",    // requester dies right after adopting the token
      "dsm.invalidate.pre_ack",    // reader dies between invalidation and its ack
      "dsm.push.pre_apply",        // replica holder dies before applying a push
      // Bunch garbage collector (gc_engine.cc, bgc.cc).
      "gc.alloc.post_register",    // allocator dies after registering a fresh oid
      "gc.scion.pre_send",         // stub created, scion-message not yet sent
      "bgc.collect.pre_trace",     // BGC dies before tracing starts
      "bgc.flip.pre_publish",      // heap flipped, reachability tables unsent
      "bgc.tables.post_send",      // tables sent, from-space still unreclaimed
      // Scion cleaner (scion_cleaner.cc).
      "cleaner.table.pre_apply",   // cleaner dies before applying a table
      // From-space reclamation (reclaim.cc).
      "reclaim.round.pre_notices", // round opened, notices unsent
      "reclaim.copy.pre_reply",    // owner dies before answering a copy request
      "reclaim.finish.pre_free",   // round complete, segments not yet freed
      // Stable storage (persistence.cc, rvm.cc).
      "persist.checkpoint.pre_commit",
      "persist.checkpoint.post_commit",
      "rvm.commit.pre_log",        // undo applied in memory, no redo on disk
      "rvm.commit.pre_marker",     // redo records written, commit marker missing
      "rvm.truncate.pre_reset",    // log replayed into segments, not yet reset
  };
  return sites;
}

namespace {

bool KnownSite(const char* site) {
  const auto& sites = FaultInjector::AllSites();
  return std::any_of(sites.begin(), sites.end(),
                     [site](const char* s) { return std::string(s) == site; });
}

}  // namespace

void FaultInjector::Hit(const char* site, NodeId node) {
  GlobalPerfCounters().fault_points_hit++;
  if (armed_.empty() && !recording_) {
    return;  // fast path: injection disabled
  }
  BMX_CHECK(KnownSite(site)) << "fault site not in canonical table: " << site;
  if (recording_) {
    hits_[{site, node}]++;
  }
  auto it = armed_.find({site, node});
  if (it == armed_.end()) {
    return;
  }
  if (++it->second.hits >= it->second.kth_hit) {
    if (fire_gate_ && !fire_gate_(site, node)) {
      // The decision stream suppressed this firing; the schedule stays armed
      // and is consulted again at the site's next hit.
      return;
    }
    armed_.erase(it);  // one-shot: the node is about to die
    throw NodeCrashSignal{node, site};
  }
}

void FaultInjector::set_fire_gate(const void* owner,
                                  std::function<bool(const char*, NodeId)> gate) {
  gate_owner_ = owner;
  fire_gate_ = std::move(gate);
}

void FaultInjector::ClearFireGate(const void* owner) {
  if (gate_owner_ != owner) {
    return;  // a successor installed its own gate; leave it alone
  }
  gate_owner_ = nullptr;
  fire_gate_ = nullptr;
}

void FaultInjector::Arm(const std::string& site, NodeId node, uint64_t kth_hit) {
  BMX_CHECK(KnownSite(site.c_str())) << "cannot arm unknown fault site: " << site;
  BMX_CHECK_GE(kth_hit, 1u);
  armed_[{site, node}] = Schedule{kth_hit, 0};
}

void FaultInjector::Reset() {
  armed_.clear();
  hits_.clear();
  recording_ = false;
}

void FaultInjector::set_recording(bool on) { recording_ = on; }

uint64_t FaultInjector::HitCount(const std::string& site, NodeId node) const {
  auto it = hits_.find({site, node});
  return it == hits_.end() ? 0 : it->second;
}

uint64_t FaultInjector::HitCount(const std::string& site) const {
  uint64_t n = 0;
  for (const auto& [key, count] : hits_) {
    if (key.first == site) {
      n += count;
    }
  }
  return n;
}

}  // namespace bmx
