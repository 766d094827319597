#include "perfbench/workload.h"

#include <algorithm>

#include "perfbench/soak_loop.h"
#include "src/runtime/oracle.h"

namespace perfbench {

void CheckClusterGates(bmx::Cluster& cluster, bool run_oracle, std::vector<std::string>* out) {
  cluster.Pump();
  if (run_oracle) {
    bmx::InvariantOracle oracle(&cluster);
    for (const std::string& v : oracle.Check()) {
      out->push_back("invariant oracle: " + v);
    }
  }
  // Paper §8: the collector never takes a token and never makes a mutator
  // wait on a message of its own.
  for (bmx::NodeId id = 0; id < cluster.size(); ++id) {
    if (cluster.IsAlive(id) && cluster.node(id).dsm().GcTokenAcquires() != 0) {
      out->push_back("node " + std::to_string(id) + " acquired tokens on behalf of GC");
    }
  }
  if (cluster.network().stats().SentInCategory(bmx::MsgCategory::kGcForeground) != 0) {
    out->push_back("foreground GC messages were sent");
  }
}

void SampleFootprint(bmx::Cluster& cluster, const std::vector<bmx::BunchId>& own_bunch,
                     RepResult* rep) {
  uint64_t allocated = 0;
  uint64_t live = 0;
  uint64_t live_objects = 0;
  uint64_t ssp_entries = 0;
  uint64_t segments = 0;
  for (bmx::NodeId id = 0; id < cluster.size(); ++id) {
    bmx::Node& node = cluster.node(id);
    bmx::GcEngine::HeapReport report = node.gc().ReportOf(own_bunch[id]);
    allocated += report.allocated_bytes;
    live += report.live_bytes;
    live_objects += report.live_objects;
    for (bmx::BunchId bunch : node.gc().ReplicaBunches()) {
      bmx::GcEngine::BunchTables tables = node.gc().TablesOf(bunch);
      ssp_entries += tables.inter_stubs.size() + tables.intra_stubs.size() +
                     tables.inter_scions.size() + tables.intra_scions.size();
      for (const auto& [oid, holders] : node.dsm().EnteringFor(bunch)) {
        ssp_entries += holders.size();
      }
    }
    segments += node.store().AllSegments().size();
  }
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  rep->heap_bytes_per_live_byte.push_back(ratio(allocated, live));
  rep->ssp_entries_per_live_object.push_back(ratio(ssp_entries, live_objects));
  rep->segments_mapped.push_back(static_cast<double>(segments));
}

// Footprint samples per timed phase.  One end-of-phase sample of a small
// heap swings with whichever collections happened last; the mean of several
// does not.
constexpr size_t kFootprintSamples = 8;

double TimedPhase(bmx::Cluster& cluster, Probe& probe, size_t units,
                  const std::function<void(size_t begin, size_t end)>& run,
                  const std::vector<bmx::BunchId>& own_bunch, RepResult* rep) {
  double timed_s = 0;
  size_t chunks = std::min(units, kFootprintSamples);
  for (size_t i = 0; i < chunks; ++i) {
    Counts before = Snapshot(cluster);
    Clock::time_point start = Clock::now();
    probe.set_timed(true);
    run(units * i / chunks, units * (i + 1) / chunks);
    if (i + 1 == chunks) {
      // Drain what the last ops sent: their messages belong to the phase.
      probe.Call(SpanKind::kPump, [&] { cluster.Pump(); });
    }
    probe.set_timed(false);
    timed_s += Seconds(start, Clock::now());
    Accumulate(&rep->counts, Diff(Snapshot(cluster), before));
    probe.Call(SpanKind::kFootprint, [&] { SampleFootprint(cluster, own_bunch, rep); });
  }
  return timed_s;
}

void Merge(RepResult* into, RepResult&& from) {
  auto append = [](auto* to, const auto& samples) {
    to->insert(to->end(), samples.begin(), samples.end());
  };
  append(&into->setup_s, from.setup_s);
  append(&into->setup_cluster_s, from.setup_cluster_s);
  append(&into->setup_populate_s, from.setup_populate_s);
  append(&into->acquire_ticks, from.acquire_ticks);
  append(&into->gc_pause_us, from.gc_pause_us);
  append(&into->gc_pause_us_per_rep, from.gc_pause_us_per_rep);
  append(&into->heap_bytes_per_live_byte, from.heap_bytes_per_live_byte);
  append(&into->ssp_entries_per_live_object, from.ssp_entries_per_live_object);
  append(&into->segments_mapped, from.segments_mapped);
  append(&into->gate_failures, from.gate_failures);
  into->timed_s += from.timed_s;
  into->ops += from.ops;
  into->failed += from.failed;
  Accumulate(&into->counts, from.counts);
  into->walks += from.walks;
  into->walk_make_s += from.walk_make_s;
  into->walk_closure_s += from.walk_closure_s;
  into->latency_delayed += from.latency_delayed;
  uint32_t offset = static_cast<uint32_t>(into->spans.size());
  for (Span& span : from.spans) {
    span.parent += span.parent == 0 ? 0 : offset;
    into->spans.push_back(span);
  }
}

RepResult RunSoakRep(uint64_t seed, const SoakShape& shape, bool tracing) {
  RepResult rep;
  Probe probe(tracing);
  Clock::time_point start = Clock::now();
  bmx::Cluster cluster(bmx::ClusterOptions{.num_nodes = shape.mix.num_nodes,
                                           .seed = kClusterSeed,
                                           .topology = shape.mix.topology,
                                           .topology_degree = shape.mix.topology_degree,
                                           .batch = shape.mix.batch});
  Clock::time_point built = Clock::now();
  SoakLoop loop(&cluster, shape.mix, &probe, seed);
  loop.Populate();
  Clock::time_point populated = Clock::now();
  loop.Run(shape.warmup_ops, nullptr);
  rep.setup_s.push_back(Seconds(start, Clock::now()));
  rep.setup_cluster_s.push_back(Seconds(start, built));
  rep.setup_populate_s.push_back(Seconds(built, populated));

  rep.timed_s = TimedPhase(
      cluster, probe, shape.mix.ops,
      [&](size_t begin, size_t end) { loop.Run(end - begin, &rep); }, loop.bunches(), &rep);
  CheckClusterGates(cluster, /*run_oracle=*/true, &rep.gate_failures);
  rep.spans = std::move(probe.spans());
  return rep;
}

}  // namespace perfbench
