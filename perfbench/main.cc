// The repo benchmark's workload runner.
//
//   perfbench --workload soak|heap|verify --seed N --seconds S --trace 0|1
//             [--counts-out FILE] [--trace-out FILE]
//
// Runs reps of one workload (a fresh cluster built from the seed, set up,
// then a fixed timed phase) until S seconds have passed, checks every rep's
// correctness gates and that all reps of the seed did identical work, and
// prints a header of '#' lines followed by one JSON line with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).  --seconds 0 runs
// exactly one cycle.  --counts-out writes the first cycle's count-derived
// metrics and counter deltas as JSON; --trace-out writes the last traced
// rep's spans as Chrome trace-event JSON.  A tripped gate exits 1 and prints
// no metrics.  See README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/report.h"
#include "perfbench/workload.h"
#include "src/common/task_pool.h"
#include "src/runtime/topology.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string counts_out;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload soak|heap|verify --seed N "
               "--seconds S --trace 0|1 [--counts-out FILE] [--trace-out FILE]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--counts-out") {
      args.counts_out = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload != "soak" && args.workload != "heap" && args.workload != "verify") {
    Usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// Workload sizes.  The run length is fixed work per rep, so every count is a
// function of the seed alone; README.md gives the sizing rationale.
SoakShape SoakSize() {
  SoakShape s;
  s.mix.num_nodes = 16;
  s.mix.topology = bmx::TopologyKind::kRandomRegular;
  s.mix.topology_degree = 4;
  s.mix.objects_per_node = 3;
  s.mix.ops = 20000;
  s.warmup_ops = 2000;
  return s;
}

VerifyShape VerifySize() {
  VerifyShape v;
  v.walk = SoakSize();
  v.walk.mix.batch.enabled = true;
  v.walk.mix.ops = 4000;
  v.walk.warmup_ops = 256;
  v.walks = 4;
  v.gray_spec = "0->1:lat=3,loss=0.2;1->0:lat=2;2->0:dup=0.25";
  return v;
}

// A run's seed names kStreams op streams, one rep each per cycle: averaging
// over several streams keeps one stream's history from deciding the figures.
constexpr size_t kStreams = 4;
uint64_t StreamSeed(uint64_t seed, size_t stream) { return seed * kStreams + stream; }

void PrintHeader(const Args& args, size_t threads) {
  std::printf(
      "# perfbench workload=%s seed=%llu (op streams %llu..%llu) BMX_THREADS=%zu seconds=%g "
      "trace=%d\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(StreamSeed(args.seed, 0)),
      static_cast<unsigned long long>(StreamSeed(args.seed, kStreams - 1)), threads, args.seconds,
      args.trace ? 1 : 0);
  if (args.workload == "heap") {
    HeapShape h;
    std::printf(
        "# sizes: nodes=%zu topology=ring lists_per_node=%zu list_length=%zu slots=3 "
        "shared_lists=%zu replaced_per_round=%zu warmup_rounds=%zu timed_rounds=%zu "
        "schedule=fifo batching=off checkers=none\n",
        h.nodes, h.lists, h.list_length, h.shared_lists, h.replaced_per_round, h.warmup_rounds,
        h.rounds);
    return;
  }
  bool verify = args.workload == "verify";
  SoakShape s = verify ? VerifySize().walk : SoakSize();
  std::printf(
      "# sizes: nodes=%zu topology=%s degree=%zu objects_per_node=%zu warmup_ops=%zu "
      "timed_ops=%zu pump_interval=%zu batching=%s\n",
      s.mix.num_nodes, bmx::TopologyKindName(s.mix.topology), s.mix.topology_degree,
      s.mix.objects_per_node, s.warmup_ops, s.mix.ops, s.mix.pump_interval,
      s.mix.batch.enabled ? "on" : "off");
  if (verify) {
    VerifyShape v = VerifySize();
    std::printf(
        "# walks_per_rep=%zu schedule=random-walk oracle_stride=%llu consistency=on "
        "liveness=on gray=\"%s\"\n",
        v.walks, static_cast<unsigned long long>(v.oracle_stride), v.gray_spec.c_str());
  } else {
    std::printf("# schedule=fifo checkers=none\n");
  }
}

// Everything about a rep that must be identical for every rep of one seed.
std::string Signature(const RepResult& rep) {
  std::ostringstream sig;
  sig << rep.ops << '/' << rep.failed << '/' << rep.latency_delayed;
  for (const auto& [key, value] : rep.counts) {
    if (!SchedulingDependent(key)) {
      sig << ';' << key << '=' << value;
    }
  }
  // Walks finish in any order on the pool, so sample order is not part of it.
  std::vector<uint64_t> ticks = rep.acquire_ticks;
  std::sort(ticks.begin(), ticks.end());
  for (uint64_t t : ticks) {
    sig << ',' << t;
  }
  std::vector<double> heap = rep.heap_bytes_per_live_byte;
  std::sort(heap.begin(), heap.end());
  for (double h : heap) {
    sig << ':' << h;
  }
  return sig.str();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("# %-38s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  (", m.note.empty() ? "" : (m.note + ")").c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Prints every gate failure; true if there was one.
bool GatesFailed(const std::vector<std::string>& failures) {
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", failure.c_str());
  }
  return !failures.empty();
}

bool WriteCounts(const std::string& path, const RepResult& rep) {
  std::ofstream out(path);
  out << "{\"metrics\": {";
  std::vector<Metric> metrics = CountMetrics(rep);
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "\"" : ", \"") << metrics[i].name << "\": " << JsonNumber(metrics[i].value);
  }
  out << "}, \"counts\": {";
  bool first = true;
  for (const auto& [key, value] : rep.counts) {
    if (!SchedulingDependent(key)) {
      out << (first ? "\"" : ", \"") << key << "\": " << value;
      first = false;
    }
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  // The walk fleet is the one place the pool pays (verify); the in-GC and
  // oracle regions are no faster with more threads, so soak and heap run
  // serially.  Must be set before anything touches the global pool.
  const char* threads = args.workload == "verify" ? "2" : "1";
  setenv("BMX_THREADS", threads, /*overwrite=*/1);
  size_t pool_threads = bmx::TaskPool::Global().threads();
  PrintHeader(args, pool_threads);

  using RepFn = std::function<RepResult(uint64_t seed, bool tracing, const VerifyCheckers&)>;
  RepFn run_rep;
  if (args.workload == "soak") {
    SoakShape shape = SoakSize();
    run_rep = [=](uint64_t seed, bool tracing, const VerifyCheckers&) {
      return RunSoakRep(seed, shape, tracing);
    };
  } else if (args.workload == "heap") {
    HeapShape shape;
    run_rep = [=](uint64_t seed, bool tracing, const VerifyCheckers&) {
      return RunHeapRep(seed, shape, tracing);
    };
  } else {
    VerifyShape shape = VerifySize();
    run_rep = [=](uint64_t seed, bool tracing, const VerifyCheckers& checkers) {
      return RunVerifyRep(seed, shape, tracing, checkers);
    };
  }

  // A cycle runs one rep of each of the seed's kStreams op streams per
  // configuration and merges them; cycles repeat until the budget is spent
  // (at least one).  An untraced run has one configuration; a traced one also
  // measures tracing overhead and, on verify, each checker's share.
  struct Config {
    bool tracing;
    VerifyCheckers checkers;
    std::vector<RepResult>* cycles;
  };
  std::vector<RepResult> untraced;
  TracedRun traced_run;
  traced_run.threads = pool_threads;
  std::vector<Config> configs = {{false, {}, &untraced}};
  if (args.trace) {
    configs = {{false, {}, &traced_run.untraced}, {true, {}, &traced_run.traced}};
    if (args.workload == "verify") {
      configs.push_back({true, {.oracle = false}, &traced_run.no_oracle});
      configs.push_back({true, {.consistency = false}, &traced_run.no_consistency});
      configs.push_back({true, {.liveness = false}, &traced_run.no_liveness});
    }
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Span> last_traced;  // the trace file holds one rep's spans
  Clock::time_point start = Clock::now();
  // The process's first rep pays for growing the heap (page faults on every
  // fresh segment image); later reps reuse that memory.  Run one untimed so
  // every measured cycle sees the same warm process.
  if (GatesFailed(run_rep(StreamSeed(args.seed, 0), false, {}).gate_failures)) {
    return 1;
  }
  do {
    for (Config& config : configs) {
      RepResult cycle;
      for (size_t k = 0; k < kStreams; ++k) {
        RepResult rep = run_rep(StreamSeed(args.seed, k), config.tracing, config.checkers);
        if (GatesFailed(rep.gate_failures)) {
          return 1;
        }
        attempted += rep.ops;
        failed += rep.failed;
        rep.gc_pause_us_per_rep = {std::exchange(rep.gc_pause_us, {})};
        if (config.cycles == &traced_run.traced) {
          last_traced = rep.spans;
        } else {
          rep.spans.clear();  // only the all-checkers spans are reported
        }
        Merge(&cycle, std::move(rep));
      }
      std::vector<RepResult>& cycles = *config.cycles;
      if (!cycles.empty() && Signature(cycle) != Signature(cycles.front())) {
        std::fprintf(stderr, "perfbench: cycle %zu of seed %llu did different work than cycle 0\n",
                     cycles.size(), static_cast<unsigned long long>(args.seed));
        return 1;
      }
      cycles.push_back(std::move(cycle));
    }
  } while (Seconds(start, Clock::now()) < args.seconds);

  const RepResult& first = args.trace ? traced_run.traced.front() : untraced.front();
  if (args.trace && Signature(first) != Signature(traced_run.untraced.front())) {
    std::fprintf(stderr, "perfbench: tracing changed the work done\n");
    return 1;
  }
  if (args.workload == "verify") {
    if (GatesFailed(FaultCoverageGaps(first))) {
      return 1;
    }
    std::printf(
        "# faults in the timed phase: retransmits=%llu dup_suppressed=%llu "
        "lost_transmissions=%llu latency_delayed=%llu (of %llu wire messages)\n",
        static_cast<unsigned long long>(Get(first.counts, "net.retransmits")),
        static_cast<unsigned long long>(Get(first.counts, "net.dup_suppressed")),
        static_cast<unsigned long long>(Get(first.counts, "net.lost_transmissions")),
        static_cast<unsigned long long>(first.latency_delayed),
        static_cast<unsigned long long>(Get(first.counts, "net.wire_messages")));
  }
  if (!args.counts_out.empty() && !WriteCounts(args.counts_out, first)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.counts_out.c_str());
    return 1;
  }
  if (!args.trace) {
    std::printf("# cycles=%zu of %zu streams; ops/s per cycle:", untraced.size(), kStreams);
    for (const RepResult& cycle : untraced) {
      std::printf(" %.0f", cycle.ops / cycle.timed_s);
    }
    std::printf("\n");
    PrintResult(EndToEndMetrics(untraced), attempted, failed);
    return 0;
  }
  std::printf("# cycles of %zu streams: untraced=%zu traced=%zu\n", kStreams,
              traced_run.untraced.size(), traced_run.traced.size());
  for (const std::string& line : SelfTimeTable(traced_run.traced.back())) {
    std::printf("# self time, last traced cycle: %s\n", line.c_str());
  }
  if (!args.trace_out.empty() && !WriteTraceFile(args.trace_out, last_traced)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  PrintResult(PerLayerMetrics(traced_run), attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
