// Cluster-wide liveness oracle (paper §8 progress goals): interrogates the
// network's obligation ledger (src/common/obligations.h) and decides whether
// an open obligation is a stall or merely slow.
//
// A no-progress verdict is only issued when no protocol rule *excuses* the
// obligation.  The excuse rules encode the legitimate quiescent states of the
// BMX protocols — without them a naive age check would flag healthy runs:
//
//   * generic — the owing node is dead (its promises died with it), or the
//     network still carries traffic touching the node (queued, unacked or
//     stashed messages mean progress may yet arrive, e.g. reliable payloads
//     parked for a crashed peer);
//   * acquire — the wait target detached (crash; the retry driver gives up
//     on its own), or some live node holds pending work for the requester
//     (a deferred request or parked grant: deferral behind an orphaned token
//     holder is a legal permanent state, mutators that lost an acquire never
//     release late grants);
//   * invalidation — a live peer still holds a token for the oid (its ack
//     legitimately waits on mutator release), or a chained invalidation for
//     the same oid is open elsewhere;
//   * pending grant — the write grant is parked exactly while the node's own
//     invalidation fan-out for the oid is open;
//   * gc reclaim — a dead node or an armed recovery anywhere freezes
//     reclamation conservatively (§4.5 deferral);
//   * retention — additive scion retention persists while the recovering
//     peer is down or its recovery is still armed.
//
// Mid-run, the oracle samples every 512 deliveries and flags only when a
// whole window retired nothing AND an inexcusable obligation is past its
// deadline.  At quiescence every open, inexcusable obligation is a verdict
// regardless of age (nothing further can discharge it).  Verdicts carry the
// full obligation dump so a violating trace is diagnosable offline.

#ifndef SRC_RUNTIME_LIVENESS_H_
#define SRC_RUNTIME_LIVENESS_H_

#include <string>
#include <vector>

#include "src/common/obligations.h"
#include "src/runtime/cluster.h"

namespace bmx {

class LivenessOracle {
 public:
  // Enables the network's obligation tracker with its default deadline,
  // ObligationTracker::kDefaultDeadlineTicks: generous relative to
  // retransmit backoff, so lossy-link runs do not false-positive.
  explicit LivenessOracle(Cluster* cluster);

  // Call after every delivery.  Returns verdicts (usually empty) once per
  // elapsed window; cheap (two counter compares) on all other deliveries.
  std::vector<std::string> OnDelivery();

  // Call at network quiescence: every open, inexcusable obligation is a
  // verdict — no traffic remains to discharge it.
  std::vector<std::string> CheckAtQuiescence();

 private:
  // True when a protocol rule explains why `ob` can stay open without the
  // cluster being stuck.  `open` is the full deterministic snapshot (rules
  // cross-reference sibling obligations).
  bool Excused(const Obligation& ob, const std::vector<Obligation>& open) const;
  std::vector<std::string> CollectVerdicts(bool require_overdue, const char* what);

  Cluster* cluster_;
  uint64_t deliveries_ = 0;
  uint64_t retired_at_last_probe_ = 0;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_LIVENESS_H_
