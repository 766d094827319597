// Cluster-wide invariant oracle for the crash-point sweep (and any test that
// wants a whole-system safety audit at quiescence).  Checks the §5-derived
// invariants across every *live* node:
//
//   1. token uniqueness — at most one owner per oid; a write token excludes
//      every other token for that oid;
//   2. ownership-of-record is real — if the directory names a live owner, that
//      node's token table agrees and its canonical copy has bytes;
//   3. cached tokens are accounted — a live non-owner token appears in some
//      live node's copy-set for the oid;
//   4. no dangling stub — every inter/intra-bunch stub has its matching scion
//      at the scion node (orphan scions are fine: conservative slack retired
//      by the next reachability table, never a safety problem);
//   5. reachable-implies-not-reclaimed — a reference slot of an owned live
//      object either resolves to bytes, or its target is an acknowledged
//      dangling address (no owner of record anywhere).  What must never
//      happen is a live owner of record without resolvable bytes.
//
// The oracle is read-only and runs at network quiescence (Pump first).  It
// returns human-readable violation strings; an empty vector means the cluster
// state is consistent.

#ifndef SRC_RUNTIME_ORACLE_H_
#define SRC_RUNTIME_ORACLE_H_

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/runtime/cluster.h"

namespace bmx {

class InvariantOracle {
 public:
  explicit InvariantOracle(Cluster* cluster) : cluster_(cluster) {}

  // Runs every invariant family; returns all violations found (empty = ok).
  std::vector<std::string> Check();

  // The subset of invariants that must hold at EVERY instant, not just at
  // quiescence: token uniqueness (1).  Families 2–5 have legal transient
  // windows while protocol messages are in flight (the granter clears its
  // owner bit before the grant reaches the requester's directory; a stub
  // exists before its scion message arrives), so the schedule explorer checks
  // this stable core after every delivery and the full set only at
  // quiescence.
  std::vector<std::string> CheckStable();

 private:
  void CheckTokens(std::vector<std::string>* out);
  void CheckTokenUniqueness(std::vector<std::string>* out);
  void CheckSsps(std::vector<std::string>* out);
  void CheckReachability(std::vector<std::string>* out);

  std::vector<NodeId> LiveNodes() const;

  Cluster* cluster_;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_ORACLE_H_
