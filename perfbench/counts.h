// Named snapshots of every layer's public counters.
//
// A snapshot sums DsmStats, GcStats and RvmStats over a cluster's live nodes
// and adds the cluster's NetworkStats, DiskStats, virtual clock and the
// calling thread's PerfCounters, each under a "<layer>.<field>" key.  The
// difference of two snapshots is what one phase of a run did; the metrics and
// the determinism checks are computed from such differences.

#ifndef PERFBENCH_COUNTS_H_
#define PERFBENCH_COUNTS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/runtime/cluster.h"

namespace perfbench {

using Counts = std::map<std::string, uint64_t>;

Counts Snapshot(bmx::Cluster& cluster);

// later - earlier, key by key (every counter is monotonic within a run).
Counts Diff(const Counts& later, const Counts& earlier);

void Accumulate(Counts* into, const Counts& add);

// Zero for keys the snapshot never wrote.
uint64_t Get(const Counts& counts, const std::string& key);

// True for counters whose value depends on thread scheduling (MRU hits and
// pool activity; see src/common/perf_counters.h).  The determinism checks
// skip them.
bool SchedulingDependent(const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_COUNTS_H_
