// Cheap monotonic hot-path counters (paper §8's efficiency mechanisms made
// observable): how many heap slots the scan kernels visited, how many whole
// 64-slot words they skipped in one instruction, how often the lookup tables
// were probed and how often the one-entry MRU cache short-circuited them,
// what the piggyback coalescer saved on the wire, and what the task pool did.
//
// The counters are *per-thread*: a plain `++` on a thread-local is the only
// instrumentation cost the hot paths can afford, and it stays race-free when
// explorer walks run on TaskPool helper threads (each walk's cluster lives on
// one thread).  TaskPool::ParallelFor adds each helper's counters to the
// caller's before it returns, so the totals a bench or test reads on its own
// thread are complete and independent of the thread count.  (The
// scheduling-dependent pool_steals is a diagnostic, not part of the
// determinism contract.)  Benchmarks print them
// (bench_util.h) and reset them per measurement; tests assert on them.

#ifndef SRC_COMMON_PERF_COUNTERS_H_
#define SRC_COMMON_PERF_COUNTERS_H_

#include <cstdint>

namespace bmx {

struct PerfCounters {
  // Scan kernels (bitmap word-level iteration).
  uint64_t slots_scanned = 0;       // set bits actually visited by a kernel
  uint64_t words_skipped = 0;       // all-zero 64-slot words skipped whole
  uint64_t objects_walked = 0;      // objects visited via object-map iteration
  uint64_t ref_slots_visited = 0;   // reference slots visited via ref-map kernels

  // Lookup structures.
  uint64_t segment_probes = 0;      // ReplicaStore segment-table lookups
  uint64_t segment_mru_hits = 0;    // ...answered by the one-entry MRU cache
  uint64_t oid_probes = 0;          // ReplicaStore oid→address lookups
  uint64_t directory_probes = 0;    // SegmentDirectory flat-table lookups
  uint64_t token_probes = 0;        // DsmNode token-table lookups

  // Piggyback coalescing.
  uint64_t piggyback_updates_coalesced = 0;  // AddressUpdate entries dropped
  uint64_t piggyback_bytes_saved = 0;        // wire bytes those entries cost
  uint64_t piggyback_overflow_spills = 0;    // caps hit: tail sent in background

  // Crash recovery and fault injection.
  uint64_t recoveries = 0;            // RecoveryManager runs completed
  uint64_t epoch_rejected_msgs = 0;   // messages dropped as stale-incarnation
  uint64_t fault_points_hit = 0;      // FAULT_POINT sites executed
  uint64_t recovery_query_bytes = 0;  // wire bytes of recovery query/reply traffic

  // Task pool (deterministic parallel runtime).
  uint64_t pool_regions = 0;          // multi-threaded ParallelFor calls
  uint64_t pool_chunks_executed = 0;  // indices those calls ran
  // Indices a participant ran beyond its even share, ceil(n / participants).
  uint64_t pool_steals = 0;

  // Client-history recording and consistency verdicts.
  uint64_t history_events_recorded = 0;  // client-observable events recorded
  uint64_t consistency_checks_run = 0;   // ConsistencyChecker::Check() calls
  uint64_t consistency_violations = 0;   // violations those checks reported

  // Gray-failure injection and liveness tracking.
  uint64_t zombie_dropped_msgs = 0;    // dispatches swallowed by a zombie link/peer
  uint64_t obligations_opened = 0;     // progress obligations registered
  uint64_t obligations_retired = 0;    // ...discharged before a verdict
  uint64_t liveness_checks_run = 0;    // LivenessOracle evaluations
  uint64_t liveness_violations = 0;    // no-progress verdicts reported

  void Reset() { *this = PerfCounters{}; }

  // Field-wise accumulation; TaskPool::ParallelFor uses it to add its
  // helpers' counters to the caller's.
  void Add(const PerfCounters& o) {
    slots_scanned += o.slots_scanned;
    words_skipped += o.words_skipped;
    objects_walked += o.objects_walked;
    ref_slots_visited += o.ref_slots_visited;
    segment_probes += o.segment_probes;
    segment_mru_hits += o.segment_mru_hits;
    oid_probes += o.oid_probes;
    directory_probes += o.directory_probes;
    token_probes += o.token_probes;
    piggyback_updates_coalesced += o.piggyback_updates_coalesced;
    piggyback_bytes_saved += o.piggyback_bytes_saved;
    piggyback_overflow_spills += o.piggyback_overflow_spills;
    recoveries += o.recoveries;
    epoch_rejected_msgs += o.epoch_rejected_msgs;
    fault_points_hit += o.fault_points_hit;
    recovery_query_bytes += o.recovery_query_bytes;
    pool_regions += o.pool_regions;
    pool_chunks_executed += o.pool_chunks_executed;
    pool_steals += o.pool_steals;
    history_events_recorded += o.history_events_recorded;
    consistency_checks_run += o.consistency_checks_run;
    consistency_violations += o.consistency_violations;
    zombie_dropped_msgs += o.zombie_dropped_msgs;
    obligations_opened += o.obligations_opened;
    obligations_retired += o.obligations_retired;
    liveness_checks_run += o.liveness_checks_run;
    liveness_violations += o.liveness_violations;
  }
};

// Per-thread instance.  Header-inline so every layer (bitmap, mem, dsm, gc)
// can bump counters without a link-time dependency.  On the main thread this
// holds the process totals (TaskPool helpers' counters are added to it).
inline PerfCounters& GlobalPerfCounters() {
  static thread_local PerfCounters counters;
  return counters;
}

}  // namespace bmx

#endif  // SRC_COMMON_PERF_COUNTERS_H_
