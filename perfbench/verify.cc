// The `verify` workload: the CI scale-sweep shape.  The soak loop runs as an
// ExplorerScenario on a batched cluster under a gray-failure spec, with the
// invariant oracle, the consistency checker and the liveness oracle, one fresh
// cluster per walk and the walk fleet on the task pool.

#include <atomic>
#include <memory>
#include <mutex>

#include "perfbench/soak_loop.h"
#include "perfbench/workload.h"
#include "src/common/check.h"
#include "src/net/gray_failure.h"
#include "src/runtime/explorer.h"

namespace perfbench {
namespace {

// Counts deliveries that came over a link with latency, then hands the
// message to the node.  The link's profile decides, not Message::ready_at:
// once any link has latency the network stamps ready_at on every profiled
// link's copies, latency 0 included.  Installed by re-registering a live
// node's handler, which Network::RegisterNode treats as a plain handler swap:
// channels, sequence numbers and epochs are untouched.
class LatencyCounter : public bmx::MessageHandler {
 public:
  LatencyCounter(bmx::Node* node, const bmx::Network* net) : node_(node), net_(net) {}

  void HandleMessage(const bmx::Message& msg) override {
    const bmx::LinkProfile* link = net_->FindLinkProfile(msg.src, msg.dst);
    if (link != nullptr && link->latency_ticks > 0) {
      delayed_++;
    }
    node_->HandleMessage(msg);
  }

  uint64_t delayed() const { return delayed_; }

 private:
  bmx::Node* node_;
  const bmx::Network* net_;
  uint64_t delayed_ = 0;
};

// The explorer calls make and then run on the same pool thread, so the make
// closure leaves its timings here for the run closure of the same walk.
struct MakeTiming {
  Clock::time_point start;
  Clock::time_point end;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};
thread_local MakeTiming tl_make;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next++;
  return index;
}

}  // namespace

RepResult RunVerifyRep(uint64_t seed, const VerifyShape& shape, bool tracing,
                       const VerifyCheckers& checkers) {
  bmx::GraySpec gray;
  std::string error;
  BMX_CHECK(bmx::GraySpec::Parse(shape.gray_spec, &gray, &error)) << error;
  const bmx::SoakOptions& mix = shape.walk.mix;

  RepResult rep;
  std::mutex mu;  // guards rep while walks run on pool threads
  bmx::ExplorerScenario scenario;
  scenario.name = "verify";
  scenario.make = [&](uint64_t /*root_seed*/) {
    tl_make.start = Clock::now();
    tl_make.start_ns = TraceNow();
    auto cluster = std::make_unique<bmx::Cluster>(
        bmx::ClusterOptions{.num_nodes = mix.num_nodes,
                            .seed = kClusterSeed,
                            .topology = mix.topology,
                            .topology_degree = mix.topology_degree,
                            .batch = mix.batch});
    tl_make.end = Clock::now();
    tl_make.end_ns = TraceNow();
    return cluster;
  };
  scenario.run = [&](bmx::Cluster& c) {
    RepResult walk;
    Probe probe(tracing, ThreadIndex());
    if (tracing) {
      probe.spans().push_back(
          Span{SpanKind::kWalkMake, false, 0, ThreadIndex(), tl_make.start_ns, tl_make.end_ns});
    }
    uint32_t run_span = probe.Open(SpanKind::kWalkRun);
    Clock::time_point run_start = Clock::now();
    gray.Apply(&c.network());
    std::vector<std::unique_ptr<LatencyCounter>> counters;
    for (bmx::NodeId id = 0; id < c.size(); ++id) {
      counters.push_back(std::make_unique<LatencyCounter>(&c.node(id), &c.network()));
      c.network().RegisterNode(id, counters.back().get());
    }
    {
      SoakLoop loop(&c, mix, &probe, seed);
      loop.Populate();
      Clock::time_point populated = Clock::now();
      loop.Run(shape.walk.warmup_ops, nullptr);
      walk.setup_s.push_back(Seconds(tl_make.start, Clock::now()));
      walk.setup_cluster_s.push_back(Seconds(tl_make.start, tl_make.end));
      walk.setup_populate_s.push_back(Seconds(run_start, populated));
      // The footprint samples run inside the Explore call that ops_per_s
      // divides by; the traced run's footprint spans give their share.
      walk.timed_s = TimedPhase(
          c, probe, mix.ops, [&](size_t begin, size_t end) { loop.Run(end - begin, &walk); },
          loop.bunches(), &walk);
    }
    for (bmx::NodeId id = 0; id < c.size(); ++id) {
      walk.latency_delayed += counters[id]->delayed();
      c.network().RegisterNode(id, &c.node(id));
    }
    // The explorer runs the invariant oracle itself; its verdict is checked
    // after Explore returns.
    CheckClusterGates(c, /*run_oracle=*/false, &walk.gate_failures);
    probe.Close(run_span);
    walk.walk_make_s = Seconds(tl_make.start, tl_make.end);
    walk.walk_closure_s = walk.walk_make_s + Seconds(run_start, Clock::now());
    walk.spans = std::move(probe.spans());
    walk.walks = 1;
    std::lock_guard<std::mutex> lock(mu);
    Merge(&rep, std::move(walk));
  };

  bmx::ExplorerOptions options;
  options.root_seed = seed;
  options.num_walks = shape.walks;
  options.schedule = bmx::ScheduleKind::kRandomWalk;
  options.oracle_stride = checkers.oracle ? shape.oracle_stride : 0;
  options.check_consistency = checkers.consistency;
  options.check_liveness = checkers.liveness;
  options.max_shrink_runs = 0;  // a violation fails the run; shrinking only costs time
  bmx::Explorer explorer(options);
  // Steals happen between walks and are drained into this thread's counters
  // when the pool region ends, so they are counted here, not per walk.
  uint64_t steals_before = bmx::GlobalPerfCounters().pool_steals;
  int64_t start_ns = TraceNow();
  bmx::ExplorationResult result = explorer.Explore(scenario);
  int64_t end_ns = TraceNow();
  rep.timed_s = static_cast<double>(end_ns - start_ns) * 1e-9;  // walks' own phases overlap
  rep.counts["perf.pool_steals"] = bmx::GlobalPerfCounters().pool_steals - steals_before;
  if (tracing) {
    // The Explore call is the timed phase; the walks on every thread nest
    // under it.  Its self time is the explorer's own work (quiescence checks)
    // plus pool idle time.
    for (Span& span : rep.spans) {
      span.parent = span.parent == 0 ? 1 : span.parent + 1;
    }
    rep.spans.insert(rep.spans.begin(),
                     Span{SpanKind::kExplore, true, 0, ThreadIndex(), start_ns, end_ns});
  }

  for (const std::string& v : result.violations) {
    rep.gate_failures.push_back("explorer verdict: " + v);
  }
  if (rep.walks != shape.walks) {
    rep.gate_failures.push_back("explorer ran " + std::to_string(rep.walks) + " of " +
                                std::to_string(shape.walks) + " walks");
  }
  return rep;
}

std::vector<std::string> FaultCoverageGaps(const RepResult& rep) {
  const std::pair<const char*, uint64_t> faults[] = {
      {"retransmits", Get(rep.counts, "net.retransmits")},
      {"dup_suppressed", Get(rep.counts, "net.dup_suppressed")},
      {"lost_transmissions", Get(rep.counts, "net.lost_transmissions")},
      {"latency_delayed", rep.latency_delayed}};
  std::vector<std::string> gaps;
  for (const auto& [name, count] : faults) {
    if (count == 0) {
      gaps.push_back(std::string("fault coverage: no ") + name + " in the timed phase");
    }
  }
  return gaps;
}

}  // namespace perfbench
