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

// Every counter, in declaration order, as X(name).  The struct, Add and
// ForEach are generated from this one list.
#define BMX_PERF_COUNTERS(X)                                                  \
  /* Scan kernels (bitmap word-level iteration). */                           \
  X(slots_scanned)      /* set bits actually visited by a kernel */           \
  X(words_skipped)      /* all-zero 64-slot words skipped whole */            \
  X(objects_walked)     /* objects visited via object-map iteration */        \
  X(ref_slots_visited)  /* reference slots visited via ref-map kernels */     \
                                                                              \
  /* Lookup structures. */                                                    \
  X(segment_probes)     /* ReplicaStore segment-table lookups */              \
  X(segment_mru_hits)   /* ...answered by the one-entry MRU cache */          \
  X(oid_probes)         /* ReplicaStore oid→address lookups */                \
  X(directory_probes)   /* SegmentDirectory flat-table lookups */             \
  X(token_probes)       /* DsmNode token-table lookups */                     \
                                                                              \
  /* Piggyback coalescing. */                                                 \
  X(piggyback_updates_coalesced)  /* AddressUpdate entries dropped */         \
  X(piggyback_bytes_saved)        /* wire bytes those entries cost */         \
  X(piggyback_overflow_spills)    /* caps hit: tail sent in background */     \
                                                                              \
  /* Crash recovery and fault injection. */                                   \
  X(recoveries)            /* RecoveryManager runs completed */               \
  X(epoch_rejected_msgs)   /* messages dropped as stale-incarnation */        \
  X(fault_points_hit)      /* FAULT_POINT sites executed */                   \
  X(recovery_query_bytes)  /* wire bytes of recovery query/reply traffic */   \
                                                                              \
  /* Task pool (deterministic parallel runtime). */                           \
  X(pool_regions)          /* multi-threaded ParallelFor calls */             \
  X(pool_chunks_executed)  /* indices those calls ran */                      \
  /* Indices a participant ran beyond its even share, */                      \
  /* ceil(n / participants). */                                               \
  X(pool_steals)                                                              \
                                                                              \
  /* Client-history recording and consistency verdicts. */                    \
  X(history_events_recorded)  /* client-observable events recorded */         \
  X(consistency_checks_run)   /* ConsistencyChecker::Check() calls */         \
  X(consistency_violations)   /* violations those checks reported */          \
                                                                              \
  /* Gray-failure injection and liveness tracking. */                         \
  X(zombie_dropped_msgs)   /* dispatches swallowed by a zombie link/peer */   \
  X(obligations_opened)    /* progress obligations registered */              \
  X(obligations_retired)   /* ...discharged before a verdict */               \
  X(liveness_checks_run)   /* LivenessOracle evaluations */                   \
  X(liveness_violations)   /* no-progress verdicts reported */

struct PerfCounters {
#define BMX_PERF_DECLARE(name) uint64_t name = 0;
  BMX_PERF_COUNTERS(BMX_PERF_DECLARE)
#undef BMX_PERF_DECLARE

  void Reset() { *this = PerfCounters{}; }

  // Field-wise accumulation; TaskPool::ParallelFor uses it to add its
  // helpers' counters to the caller's.
  void Add(const PerfCounters& o) {
#define BMX_PERF_ADD(name) name += o.name;
    BMX_PERF_COUNTERS(BMX_PERF_ADD)
#undef BMX_PERF_ADD
  }

  // Calls fn(name, value) for every counter, in declaration order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
#define BMX_PERF_VISIT(name) fn(#name, name);
    BMX_PERF_COUNTERS(BMX_PERF_VISIT)
#undef BMX_PERF_VISIT
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
