// Turns the reps of one run into the benchmark's metrics: the end-to-end set
// (untraced runs) and the per-layer set (traced runs).  README.md defines
// every metric and the end-to-end metric each per-layer one should move.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workload.h"

namespace perfbench {

struct Metric {
  Metric(std::string name, double value, std::string unit, std::string note = "")
      : name(std::move(name)), value(value), unit(std::move(unit)), note(std::move(note)) {}

  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed in the header only (percentile, sample count)
};

// Count-derived end-to-end metrics of one rep: identical for every rep of a
// seed, so they are also what the determinism checks compare.
std::vector<Metric> CountMetrics(const RepResult& rep);

// All end-to-end metrics over the untraced cycles of a run (each cycle is
// one rep per op stream, merged).
std::vector<Metric> EndToEndMetrics(const std::vector<RepResult>& cycles);

// The reps a traced run makes.  `traced` ran with spans on and every
// checker; `untraced` is the same work with spans off (tracing overhead);
// the no_* vectors are traced verify reps with one checker off (checker
// shares), empty for soak and heap.
struct TracedRun {
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<RepResult> no_oracle;
  std::vector<RepResult> no_consistency;
  std::vector<RepResult> no_liveness;
  size_t threads = 1;  // task-pool threads the walks ran on
};

std::vector<Metric> PerLayerMetrics(const TracedRun& run);

// One line per span kind: count, total and self time over the timed wall
// time of a traced rep (self = duration minus direct children).
std::vector<std::string> SelfTimeTable(const RepResult& rep);

// Writes spans as Chrome trace-event JSON.
bool WriteTraceFile(const std::string& path, const std::vector<Span>& spans);

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
