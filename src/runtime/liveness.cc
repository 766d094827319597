#include "src/runtime/liveness.h"

#include <sstream>

#include "src/common/perf_counters.h"
#include "src/dsm/dsm_node.h"
#include "src/net/network.h"

namespace bmx {

namespace {

// Deliveries between mid-run progress probes.
constexpr uint64_t kWindow = 512;

}  // namespace

LivenessOracle::LivenessOracle(Cluster* cluster) : cluster_(cluster) {
  cluster_->network().obligations().Enable();
  retired_at_last_probe_ = cluster_->network().obligations().retired();
}

bool LivenessOracle::Excused(const Obligation& ob,
                             const std::vector<Obligation>& open) const {
  Network& net = cluster_->network();
  if (!cluster_->IsAlive(ob.node)) {
    return true;  // dead nodes owe nothing (DropNode races with this check)
  }
  if (net.HasTrafficTouching(ob.node)) {
    return true;  // progress may still be in flight or parked for redelivery
  }
  switch (ob.kind) {
    case ObligationKind::kAcquire: {
      DsmNode& dsm = cluster_->node(ob.node).dsm();
      NodeId target = dsm.AcquireTarget();
      if (target != kInvalidNode && !net.NodeAttached(target)) {
        return true;  // waiting on a crashed peer; the retry driver gives up
      }
      for (size_t id = 0; id < cluster_->size(); ++id) {
        NodeId peer = static_cast<NodeId>(id);
        if (peer == ob.node || !cluster_->IsAlive(peer)) {
          continue;
        }
        if (cluster_->node(peer).dsm().HasPendingWorkFor(ob.node)) {
          return true;  // deferred or parked at a live peer: legal stall
        }
      }
      return false;
    }
    case ObligationKind::kInvalidation: {
      Oid oid = static_cast<Oid>(ob.key);
      for (size_t id = 0; id < cluster_->size(); ++id) {
        NodeId peer = static_cast<NodeId>(id);
        if (peer == ob.node || !cluster_->IsAlive(peer)) {
          continue;
        }
        if (cluster_->node(peer).dsm().IsHeld(oid)) {
          return true;  // a live holder's ack legitimately awaits release
        }
      }
      for (const Obligation& other : open) {
        if (other.kind == ObligationKind::kInvalidation && other.key == ob.key &&
            other.node != ob.node) {
          return true;  // chained fan-out: the other leg carries the promise
        }
      }
      return false;
    }
    case ObligationKind::kPendingGrant: {
      for (const Obligation& other : open) {
        if (other.kind == ObligationKind::kInvalidation && other.node == ob.node &&
            other.key == ob.key) {
          return true;  // parked exactly behind our own fan-out
        }
      }
      return false;
    }
    case ObligationKind::kGcReclaim: {
      for (size_t id = 0; id < cluster_->size(); ++id) {
        if (!cluster_->IsAlive(static_cast<NodeId>(id))) {
          return true;  // conservative §4.5 deferral while a peer is down
        }
      }
      for (const Obligation& other : open) {
        if (other.kind == ObligationKind::kRecovery) {
          return true;
        }
      }
      return false;
    }
    case ObligationKind::kRecovery:
      return false;  // generic excuses only: recovery drives its own traffic
    case ObligationKind::kRetention: {
      NodeId peer = static_cast<NodeId>(ob.key);
      if (!cluster_->IsAlive(peer)) {
        return true;  // retention is *for* the downed peer
      }
      for (const Obligation& other : open) {
        if (other.kind == ObligationKind::kRecovery && other.node == peer) {
          return true;  // peer is back but still reconciling
        }
      }
      return false;
    }
  }
  return false;
}

std::vector<std::string> LivenessOracle::CollectVerdicts(bool require_overdue,
                                                         const char* what) {
  GlobalPerfCounters().liveness_checks_run++;
  Network& net = cluster_->network();
  std::vector<Obligation> open = net.obligations().Snapshot();
  std::vector<std::string> out;
  for (const Obligation& ob : open) {
    if (require_overdue && net.now() < ob.deadline) {
      continue;
    }
    if (Excused(ob, open)) {
      continue;
    }
    std::ostringstream verdict;
    verdict << what << ": obligation kind=" << ObligationKindName(ob.kind)
            << " node=" << ob.node << " key=" << ob.key << " opened_at=" << ob.opened_at
            << " now=" << net.now() << " retired=" << net.obligations().retired()
            << "\nledger:\n"
            << net.obligations().Dump();
    out.push_back(verdict.str());
  }
  GlobalPerfCounters().liveness_violations += out.size();
  return out;
}

std::vector<std::string> LivenessOracle::OnDelivery() {
  deliveries_++;
  if (deliveries_ % kWindow != 0) {
    return {};
  }
  uint64_t retired = cluster_->network().obligations().retired();
  bool progressed = retired != retired_at_last_probe_;
  retired_at_last_probe_ = retired;
  if (progressed) {
    return {};
  }
  return CollectVerdicts(/*require_overdue=*/true, "no progress");
}

std::vector<std::string> LivenessOracle::CheckAtQuiescence() {
  return CollectVerdicts(/*require_overdue=*/false, "stalled at quiescence");
}

}  // namespace bmx
