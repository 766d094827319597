// The benchmark's three workloads.  Each Run*Rep builds a fresh cluster from
// the seed, sets it up, runs its fixed timed phase and checks its gates; the
// runner (main.cc) repeats reps for the run's wall-clock budget.  Reps of one
// seed are identical work, so every count they report must match exactly.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/counts.h"
#include "perfbench/probe.h"
#include "src/workload/soak.h"

namespace perfbench {

// What one rep measured.  Vectors hold one sample per rep for soak and heap,
// one per walk for verify.
struct RepResult {
  std::vector<double> setup_s;          // cluster construction -> first timed op
  std::vector<double> setup_cluster_s;  // cluster construction alone
  std::vector<double> setup_populate_s; // population + replication
  double timed_s = 0;                   // wall time of the timed phase
  uint64_t ops = 0;                     // ops attempted in the timed phase
  uint64_t failed = 0;                  // ...of which failed (see README.md)
  std::vector<uint64_t> acquire_ticks;  // virtual ticks per acquire call
  std::vector<double> gc_pause_us;      // wall time per CollectBunch/CollectGroup
  // The runner moves each rep's pauses here before merging it into a cycle:
  // pause percentiles are taken per rep.
  std::vector<std::vector<double>> gc_pause_us_per_rep;
  Counts counts;                        // layer counters over the timed phase

  // Footprint, sampled after the timed phase (one sample per rep or walk).
  std::vector<double> heap_bytes_per_live_byte;
  std::vector<double> ssp_entries_per_live_object;
  std::vector<double> segments_mapped;

  // verify only.
  uint64_t walks = 0;
  double walk_make_s = 0;      // sum over walks of the make closure
  double walk_closure_s = 0;   // sum over walks of make + run closures
  uint64_t latency_delayed = 0;  // deliveries held back by link latency

  // Traced reps only: every span recorded.
  std::vector<Span> spans;

  // Correctness gates that tripped; a run with any exits non-zero.
  std::vector<std::string> gate_failures;
};

struct SoakShape {
  bmx::SoakOptions mix;    // node count, topology, population, op mix
  size_t warmup_ops = 0;   // untimed ops at the start of the same op stream
};

struct HeapShape {
  size_t nodes = 4;          // ring
  size_t lists = 128;        // lists per node
  size_t list_length = 8;    // 3-slot objects per list
  size_t shared_lists = 8;   // lists whose heads the ring neighbour replicates
  size_t replaced_per_round = 2;  // private lists each node replaces per round
  size_t warmup_rounds = 2;
  size_t rounds = 16;        // timed rounds
};

struct VerifyShape {
  SoakShape walk;            // the soak loop each walk runs
  size_t walks = 4;
  uint64_t oracle_stride = 16;
  std::string gray_spec;
};

// Which checkers a verify rep runs (the traced run turns each off in turn to
// measure its share).
struct VerifyCheckers {
  bool oracle = true;       // stride-16 stable-core checks during the walk
  bool consistency = true;  // history recording + ConsistencyChecker
  bool liveness = true;     // obligation ledger + LivenessOracle
};

// Every workload builds its clusters from this seed, so the topology and the
// network's own random streams are part of the workload's definition.  The
// run's --seed seeds the op stream (and, on verify, the walk schedules): a
// seed changes the inputs, not the system they run on.
inline constexpr uint64_t kClusterSeed = 1;

RepResult RunSoakRep(uint64_t seed, const SoakShape& shape, bool tracing);
RepResult RunHeapRep(uint64_t seed, const HeapShape& shape, bool tracing);
RepResult RunVerifyRep(uint64_t seed, const VerifyShape& shape, bool tracing,
                       const VerifyCheckers& checkers);

// A gray spec whose links carry no traffic would make verify silently
// fault-free: every fault class the spec injects must have fired in `rep`'s
// timed phase.  Returns one gate failure per class that did not.
std::vector<std::string> FaultCoverageGaps(const RepResult& rep);

// Helpers shared by the workloads (workload.cc).

// Runs the invariant oracle and the paper's no-GC-token / no-foreground-
// message gates on a quiescent cluster; appends failures to `out`.
void CheckClusterGates(bmx::Cluster& cluster, bool run_oracle, std::vector<std::string>* out);

// Samples the footprint metrics of every node's own bunch into `rep`.
// ReportOf runs a full trace per bunch, so callers do this outside the timed
// phase.
void SampleFootprint(bmx::Cluster& cluster, const std::vector<bmx::BunchId>& own_bunch,
                     RepResult* rep);

// Runs a timed phase of `units` ops (or rounds) through `run(begin, end)` in
// up to eight chunks, drains the network at the end, and samples the
// footprint after each chunk with the clock stopped.  Adds the phase's layer
// counters (sampling excluded) to rep->counts; returns the timed seconds.
double TimedPhase(bmx::Cluster& cluster, Probe& probe, size_t units,
                  const std::function<void(size_t begin, size_t end)>& run,
                  const std::vector<bmx::BunchId>& own_bunch, RepResult* rep);

// Adds `from` to `into`: samples appended, counts and times summed.  Folds
// walks into a verify rep and the reps of one cycle into one result.
void Merge(RepResult* into, RepResult&& from);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
