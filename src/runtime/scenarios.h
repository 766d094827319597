// Canonical scenario closures for the schedule explorer: the paper's
// figure 1–4 situations, reduced to self-contained workloads the Explorer can
// re-execute under arbitrary delivery schedules.  Each closure builds its own
// cluster and tolerates adversarial interleavings (a failed acquire skips the
// dependent operations instead of faulting), so every schedule the explorer
// can produce is a legal run to check invariants over.

#ifndef SRC_RUNTIME_SCENARIOS_H_
#define SRC_RUNTIME_SCENARIOS_H_

#include <vector>

#include "src/runtime/explorer.h"

namespace bmx {

// The fig. 1–4 closures, in figure order:
//   fig1-ssp-chain          — inter+intra SSP chain kept alive across bunches
//   fig2-token-migration    — a write token circulating over three nodes
//   fig3-invalidate-fanout  — one writer invalidating two replica readers
//   fig4-reclaim-churn      — allocation, unlinking and bunch collection
std::vector<ExplorerScenario> StandardScenarios();

// The same four shapes generalized to N-node clusters (N >= 2), named with an
// "@N" suffix (e.g. "fig3-invalidate-fanout@16"): fig1 becomes an N-bunch
// inter-bunch chain with the head's token migrating, fig2 walks the write
// token around all N nodes, fig3 fans invalidations out to N-1 replicas, and
// fig4 replicates the head on every non-owner before the unlink-and-collect.
// At N == 3 these drive the same protocol paths as StandardScenarios, whose
// fig2 and fig3 entries are these closures; its fig1 and fig4 are smaller
// three-node shapes the fingerprint tests pin.  `batch` configures the
// cluster's transport coalescing — default off, the pinned baseline.
std::vector<ExplorerScenario> ScaledScenarios(size_t num_nodes,
                                              const BatchPolicy& batch = {});

// The planted-ordering-bug workload (see
// DsmNode::PlantCanaryReorderBugForTesting): fig3's invalidation fan-out with
// the canary armed at the writer.  Under FIFO the acks converge in increasing
// src order and nothing happens; exploratory schedules can invert them, which
// corrupts the token table into a uniqueness violation the oracle flags.
// Used by tests and CI to prove the find→record→shrink→replay pipeline works.
ExplorerScenario CanaryReorderScenario();

// The planted-consistency-bug workload (see
// DsmNode::PlantStaleReadBugForTesting): fig3's shape with the bug armed at
// the owner before its write upgrade, so node 1's replica is never
// invalidated.  Node 1's next acquire hits the cached-token fast path — no
// messages, no causal edge from the writer — and reads stale bytes inside a
// critical section concurrent with the writer's.  Only the ConsistencyChecker
// sees it as a consistency violation (run with check_consistency on); the
// schedule does not matter, so any walk finds it and shrinking collapses the
// trace to (near) nothing.
ExplorerScenario StaleReadCanaryScenario();

// The planted-livelock workload: fig2's shape with a zombie profile installed
// on the owner→requester link before the requester's acquire, so the grant is
// transport-acked but never dispatched.  The requester's acquire obligation
// stays open with no excuse — the target is alive and attached, no traffic
// remains, and the owner holds no deferred work for it — which is exactly the
// gray failure the LivenessOracle exists to flag (run with check_liveness
// on).  The schedule does not matter, so any walk finds it and shrinking
// collapses the trace to (near) nothing.  Used by tests and CI to prove the
// liveness find→record→shrink→replay pipeline works.
ExplorerScenario ZombieGrantCanaryScenario();

// Knobs of the randomized mutator workload below.  Every field is part of the
// scenario's identity: the op sequence is a pure function of (knobs, cluster
// seed), independent of the delivery schedule — acquires that fail under an
// adversarial schedule consume their draws anyway and skip only the accesses.
struct HistoryWorkloadOptions {
  size_t num_nodes = 3;
  size_t objects = 4;          // object fan-out (each on creator j % num_nodes)
  size_t ops = 48;             // critical sections attempted
  double write_fraction = 0.45;  // P(section is a write section)
  double extra_op_chance = 0.35;  // P(another access inside the section)
  double gc_chance = 0.12;     // P(an op is a bunch collection instead)
};

// A seeded random mutator mix — acquire/release brackets of random mode over
// a shared object set, word and ref writes, re-reads, and GC pressure — for
// exercising the ConsistencyChecker on histories with real contention.  Knobs
// scale node count, fan-out, acquire density and GC pressure.
ExplorerScenario HistoryWorkloadScenario(const HistoryWorkloadOptions& options = {});

}  // namespace bmx

#endif  // SRC_RUNTIME_SCENARIOS_H_
