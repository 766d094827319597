#include "perfbench/report.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Nearest-rank percentile, pct in (0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(pct * static_cast<double>(samples.size()) / 100.0 - 1e-9);
  size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }

// The highest of p99/p95/p90/p75 with at least ten samples beyond it, else
// p50.
double TailPercentileFor(size_t samples) {
  for (double pct : {99.0, 95.0, 90.0, 75.0}) {
    double rank = std::ceil(pct * static_cast<double>(samples) / 100.0 - 1e-9);
    if (static_cast<double>(samples) - rank >= 10) {
      return pct;
    }
  }
  return 50;
}

// Sums in sorted order: verify's walks append their samples in whatever order
// the pool finishes them, and the mean must not depend on it to the last bit.
double Mean(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0
                         : std::accumulate(samples.begin(), samples.end(), 0.0) /
                               static_cast<double>(samples.size());
}

std::string Format(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// "p95 of 800 samples, 40 beyond".
std::string TailNote(double pct, size_t samples) {
  size_t rank = static_cast<size_t>(std::ceil(pct * static_cast<double>(samples) / 100.0 - 1e-9));
  return Format("p%g of %g samples, %g beyond", pct, static_cast<double>(samples),
                static_cast<double>(samples - std::min(rank, samples)));
}

// Wall-clock sums over one traced rep's timed spans.
struct LayerTimes {
  double busy[static_cast<size_t>(SpanKind::kCount)] = {};
  std::vector<double> acquire_us;
  std::vector<double> pump_us;
};

LayerTimes Summarize(const RepResult& rep) {
  LayerTimes t;
  for (const Span& span : rep.spans) {
    if (!span.timed) {
      continue;
    }
    double d = span.Duration();
    t.busy[static_cast<size_t>(span.kind)] += d;
    if (span.kind == SpanKind::kAcquire) {
      t.acquire_us.push_back(d * 1e6);
    } else if (span.kind == SpanKind::kPump) {
      t.pump_us.push_back(d * 1e6);
    }
  }
  return t;
}

using Intervals = std::vector<std::pair<int64_t, int64_t>>;

// Length of the union of `intervals`, counting only what lies after `from`.
int64_t UnionNs(Intervals intervals, int64_t from) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = from;
  for (const auto& [begin, end] : intervals) {
    int64_t start = std::max(begin, reach);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

// Whether a span lies in the wall time ops_per_s divides by: on soak and heap
// the timed phases; on verify the whole Explore call, so a walk's set-up,
// warm-up and footprint sample count too.
bool InTimedWall(const Span& span, bool explored) { return span.timed || explored; }

// Share of the timed wall time that layer calls cover: per thread, the union
// of the layer spans' intervals, summed over threads and divided by timed_s
// times the threads that ran walks.  The op and walk-run wrappers are not
// layer calls and neither is the Explore call around them, so the workload
// loop's own work and, on verify, the explorer's post-walk checks, cluster
// teardown and pool idle time count as uncovered.
double SpanCoverage(const RepResult& cycle, size_t threads) {
  bool explored = cycle.walks > 0;
  std::map<uint32_t, Intervals> by_thread;
  for (const Span& span : cycle.spans) {
    bool wrapper = span.kind == SpanKind::kOp || span.kind == SpanKind::kExplore ||
                   span.kind == SpanKind::kWalkRun;
    if (!wrapper && InTimedWall(span, explored)) {
      by_thread[span.thread].emplace_back(span.start_ns, span.end_ns);
    }
  }
  int64_t covered_ns = 0;
  for (auto& [thread, intervals] : by_thread) {
    covered_ns += UnionNs(std::move(intervals), INT64_MIN);
  }
  double capacity_s = cycle.timed_s * static_cast<double>(explored ? threads : 1);
  return Ratio(static_cast<double>(covered_ns) * 1e-9, capacity_s);
}

// Median over reps of a per-rep value.
template <typename Fn>
double MedianOver(const std::vector<RepResult>& reps, Fn&& fn) {
  std::vector<double> values;
  for (const RepResult& rep : reps) {
    values.push_back(fn(rep));
  }
  return Median(values);
}

}  // namespace

std::vector<Metric> CountMetrics(const RepResult& rep) {
  double ops = static_cast<double>(rep.ops);
  std::vector<double> ticks(rep.acquire_ticks.begin(), rep.acquire_ticks.end());
  double tail = TailPercentileFor(ticks.size());
  return {
      {"op_ok_frac", 1.0 - Ratio(static_cast<double>(rep.failed), ops), "ratio",
       Format("%g of %g ops failed", static_cast<double>(rep.failed), ops)},
      {"acquire_p50_ticks", Percentile(ticks, 50), "ticks", TailNote(50, ticks.size())},
      {"acquire_tail_ticks", Percentile(ticks, tail), "ticks", TailNote(tail, ticks.size())},
      {"wire_msgs_per_op", Ratio(static_cast<double>(Get(rep.counts, "net.wire_messages")), ops),
       "msgs/op", ""},
      {"wire_bytes_per_op", Ratio(static_cast<double>(Get(rep.counts, "net.wire_bytes")), ops),
       "B/op", ""},
      {"heap_bytes_per_live_byte", Mean(rep.heap_bytes_per_live_byte), "ratio",
       Format("mean of %g samples", static_cast<double>(rep.heap_bytes_per_live_byte.size()))},
  };
}

std::vector<Metric> EndToEndMetrics(const std::vector<RepResult>& cycles) {
  std::vector<double> setup;
  std::vector<std::vector<double>> pauses;  // per rep, over every cycle
  for (const RepResult& cycle : cycles) {
    setup.insert(setup.end(), cycle.setup_s.begin(), cycle.setup_s.end());
    pauses.insert(pauses.end(), cycle.gc_pause_us_per_rep.begin(), cycle.gc_pause_us_per_rep.end());
  }
  // One tail percentile for every rep: the highest the smallest rep allows.
  size_t min_pauses = SIZE_MAX;
  for (const std::vector<double>& rep : cycles.front().gc_pause_us_per_rep) {
    min_pauses = std::min(min_pauses, rep.size());
  }
  double pause_tail = TailPercentileFor(min_pauses);
  std::vector<double> pause_p50;
  std::vector<double> pause_tails;
  for (const std::vector<double>& rep : pauses) {
    pause_p50.push_back(Percentile(rep, 50));
    pause_tails.push_back(Percentile(rep, pause_tail));
  }
  double cycles_n = static_cast<double>(cycles.size());
  double reps_n = static_cast<double>(pauses.size());
  std::vector<Metric> out = {
      {"setup_s", Median(setup), "s", Format("median of %g set-ups", setup.size())},
      {"ops_per_s",
       MedianOver(cycles, [](const RepResult& c) { return c.ops / c.timed_s; }), "1/s",
       Format("median of %g cycles of %g ops", cycles_n, static_cast<double>(cycles.front().ops))},
  };
  for (Metric& m : CountMetrics(cycles.front())) {
    out.push_back(std::move(m));
  }
  out.push_back({"gc_pause_p50_us", Median(pause_p50), "us",
                 TailNote(50, min_pauses) + Format(" or more per rep; median of %g reps", reps_n)});
  out.push_back({"gc_pause_tail_us", Median(pause_tails), "us",
                 TailNote(pause_tail, min_pauses) +
                     Format(" or more per rep; median of %g reps", reps_n)});
  out.push_back({"peak_rss_mb", PeakRssMb(), "MB", "VmHWM of the run's process"});
  return out;
}

std::vector<Metric> PerLayerMetrics(const TracedRun& run) {
  const RepResult& first = run.traced.front();
  const Counts& c = first.counts;
  double ops = static_cast<double>(first.ops);
  auto count = [&](const char* key) { return static_cast<double>(Get(c, key)); };
  auto per_op = [&](const char* key) { return Ratio(count(key), ops); };
  // Span sums per traced cycle, and the median over cycles of one of them.
  std::vector<LayerTimes> times;
  for (const RepResult& cycle : run.traced) {
    times.push_back(Summarize(cycle));
  }
  auto median_times = [&](auto&& fn) {
    std::vector<double> values;
    for (size_t i = 0; i < times.size(); ++i) {
      values.push_back(fn(times[i], run.traced[i]));
    }
    return Median(values);
  };
  auto busy = [&](SpanKind kind) {
    return median_times(
        [&](const LayerTimes& t, const RepResult&) { return t.busy[static_cast<size_t>(kind)]; });
  };
  auto span_us = [&](std::vector<double> LayerTimes::*samples, double pct) {
    return median_times(
        [&](const LayerTimes& t, const RepResult&) { return Percentile(t.*samples, pct); });
  };
  auto setup = [&](std::vector<double> RepResult::*field) {
    std::vector<double> all;
    for (const RepResult& rep : run.untraced) {
      all.insert(all.end(), (rep.*field).begin(), (rep.*field).end());
    }
    return Median(all);
  };
  auto rate = [](const RepResult& r) { return r.ops / r.timed_s; };
  // Share of the traced walk time a checker costs: the all-checkers wall time
  // minus the wall time with that checker off.
  auto share = [&](const std::vector<RepResult>& without) {
    if (without.empty()) {
      return 0.0;
    }
    auto wall = [](const RepResult& r) { return r.timed_s; };
    double all = MedianOver(run.traced, wall);
    return Ratio(all - MedianOver(without, wall), all);
  };
  double threads = static_cast<double>(run.threads);
  bool explored = first.walks > 0;
  double collections = count("gc.bgc_runs") + count("gc.ggc_runs");
  double acquires = count("dsm.app_read_acquires") + count("dsm.app_write_acquires");
  double grants = count("dsm.grants_sent");
  double reclaim_rounds = count("gc.reclaim_rounds");
  double tables = count("gc.tables_processed") + count("gc.tables_ignored_stale");

  return {
      // runtime
      {"runtime.setup_cluster_s", setup(&RepResult::setup_cluster_s), "s"},
      {"runtime.setup_populate_s", setup(&RepResult::setup_populate_s), "s"},
      {"runtime.acquire_busy_s", busy(SpanKind::kAcquire), "s"},
      {"runtime.acquire_p50_us", span_us(&LayerTimes::acquire_us, 50), "us"},
      {"runtime.acquire_p99_us", span_us(&LayerTimes::acquire_us, 99), "us"},
      {"runtime.release_busy_s", busy(SpanKind::kRelease), "s"},
      {"runtime.access_busy_s", busy(SpanKind::kAccess), "s"},
      {"runtime.alloc_busy_s", busy(SpanKind::kAlloc), "s"},
      {"runtime.walk_make_s",
       MedianOver(run.traced, [](const RepResult& r) { return r.walk_make_s; }), "s"},
      {"runtime.explore_other_s",
       explored ? MedianOver(run.traced,
                             [&](const RepResult& r) {
                               return r.timed_s * threads - r.walk_closure_s;
                             })
                : 0.0,
       "s"},
      {"runtime.history_events_per_op", per_op("perf.history_events_recorded"), "events/op"},
      {"runtime.obligations_per_op", per_op("perf.obligations_opened"), "count/op"},
      {"runtime.oracle_share", share(run.no_oracle), "ratio"},
      {"runtime.consistency_share", share(run.no_consistency), "ratio"},
      {"runtime.liveness_share", share(run.no_liveness), "ratio"},
      // net
      {"net.pump_busy_s", busy(SpanKind::kPump), "s"},
      {"net.pump_p99_us", span_us(&LayerTimes::pump_us, 99), "us"},
      {"net.deliveries_per_op", per_op("net.delivered"), "msgs/op"},
      {"net.logical_msgs_per_op", per_op("net.logical_msgs"), "msgs/op"},
      {"net.dsm_msgs_per_op", per_op("net.dsm_msgs"), "msgs/op"},
      {"net.gc_bg_msgs_per_op", per_op("net.gc_bg_msgs"), "msgs/op"},
      {"net.dsm_bytes_per_op", per_op("net.dsm_bytes"), "B/op"},
      {"net.gc_bg_bytes_per_op", per_op("net.gc_bg_bytes"), "B/op"},
      {"net.ticks_per_op", per_op("net.ticks"), "ticks/op"},
      {"net.retransmits_per_op", per_op("net.retransmits"), "msgs/op"},
      {"net.dup_suppressed_per_op", per_op("net.dup_suppressed"), "msgs/op"},
      {"net.lost_transmissions_per_op", per_op("net.lost_transmissions"), "msgs/op"},
      {"net.latency_delayed_per_op", Ratio(static_cast<double>(first.latency_delayed), ops),
       "msgs/op"},
      {"net.frames_per_op", per_op("net.frames_sent"), "frames/op"},
      {"net.payloads_per_frame", Ratio(count("net.batched_payloads"), count("net.frames_sent")),
       "msgs/frame"},
      // dsm
      {"dsm.remote_acquire_frac", Ratio(count("dsm.remote_acquires"), acquires), "ratio"},
      {"dsm.grants_per_op", per_op("dsm.grants_sent"), "count/op"},
      {"dsm.invalidations_per_op", per_op("dsm.invalidations_sent"), "count/op"},
      {"dsm.piggyback_updates_per_grant", Ratio(count("dsm.piggyback_updates_sent"), grants),
       "updates/grant"},
      {"dsm.piggyback_coalesced_per_grant",
       Ratio(count("perf.piggyback_updates_coalesced"), grants), "updates/grant"},
      {"dsm.piggyback_spills_per_op", per_op("perf.piggyback_overflow_spills"), "count/op"},
      {"dsm.address_updates_applied_per_op", per_op("dsm.address_updates_applied"), "count/op"},
      {"dsm.failed_acquires_per_op",
       Ratio(count("dsm.unroutable_acquires") + count("dsm.acquire_timeouts") +
                 count("dsm.breaker_fast_fails"),
             ops),
       "count/op"},
      // gc
      {"gc.bgc_busy_s", busy(SpanKind::kBgc), "s"},
      {"gc.ggc_busy_s", busy(SpanKind::kGgc), "s"},
      {"gc.reclaim_busy_s", busy(SpanKind::kReclaim), "s"},
      {"gc.objects_copied_per_collection", Ratio(count("gc.objects_copied"), collections),
       "objects"},
      {"gc.objects_reclaimed_per_collection", Ratio(count("gc.objects_reclaimed"), collections),
       "objects"},
      {"gc.bytes_reclaimed_per_byte_copied",
       Ratio(count("gc.bytes_reclaimed"), count("gc.bytes_copied")), "ratio"},
      {"gc.scion_msgs_per_op", per_op("gc.scion_messages_sent"), "msgs/op"},
      {"gc.table_msgs_per_op", per_op("gc.table_messages_sent"), "msgs/op"},
      {"gc.stale_table_frac", Ratio(count("gc.tables_ignored_stale"), tables), "ratio"},
      {"gc.copy_requests_per_reclaim", Ratio(count("gc.copy_requests_sent"), reclaim_rounds),
       "msgs/round"},
      {"gc.segments_freed_per_reclaim", Ratio(count("gc.segments_freed"), reclaim_rounds),
       "segs/round"},
      {"gc.ssp_entries_per_live_object", Mean(first.ssp_entries_per_live_object),
       "entries/object"},
      // mem
      {"mem.segments_mapped", Mean(first.segments_mapped), "count"},
      {"mem.segment_mru_hit_frac",
       Ratio(count("perf.segment_mru_hits"), count("perf.segment_probes")), "ratio"},
      {"mem.segment_probes_per_op", per_op("perf.segment_probes"), "probes/op"},
      {"mem.oid_probes_per_op", per_op("perf.oid_probes"), "probes/op"},
      {"mem.token_probes_per_op", per_op("perf.token_probes"), "probes/op"},
      {"mem.directory_probes_per_op", per_op("perf.directory_probes"), "probes/op"},
      {"mem.objects_walked_per_collection", Ratio(count("perf.objects_walked"), collections),
       "objects"},
      {"mem.words_skipped_per_slot_scanned",
       Ratio(count("perf.words_skipped"), count("perf.slots_scanned")), "ratio"},
      // rvm
      {"rvm.checkpoint_busy_s", busy(SpanKind::kCheckpoint), "s"},
      {"rvm.log_bytes_per_checkpoint",
       Ratio(count("rvm.log_bytes"), count("rvm.transactions_committed")), "B"},
      {"rvm.disk_bytes_written_per_op", per_op("disk.bytes_written"), "B/op"},
      // common
      {"common.pool_steals_per_walk",
       Ratio(count("perf.pool_steals"), static_cast<double>(first.walks)), "count/walk"},
      // the benchmark's own tracing
      {"bench.span_coverage",
       MedianOver(run.traced, [&](const RepResult& r) { return SpanCoverage(r, run.threads); }),
       "ratio"},
      {"bench.trace_overhead_frac",
       1.0 - Ratio(MedianOver(run.traced, rate), MedianOver(run.untraced, rate)), "ratio"},
  };
}

std::vector<std::string> SelfTimeTable(const RepResult& rep) {
  // Self time is a span's duration minus the part of it its children cover;
  // children may overlap (verify's walks run on two threads), so the covered
  // part is the union of their intervals.
  std::vector<Intervals> children(rep.spans.size());
  for (const Span& span : rep.spans) {
    if (span.parent != 0) {
      children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
    }
  }
  constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);
  size_t counts[kKinds] = {};
  double total[kKinds] = {};
  double self[kKinds] = {};
  bool explored = rep.walks > 0;
  for (size_t i = 0; i < rep.spans.size(); ++i) {
    const Span& span = rep.spans[i];
    if (!InTimedWall(span, explored)) {
      continue;
    }
    int64_t covered_ns = UnionNs(std::move(children[i]), span.start_ns);
    size_t k = static_cast<size_t>(span.kind);
    counts[k]++;
    total[k] += span.Duration();
    self[k] += span.Duration() - static_cast<double>(covered_ns) * 1e-9;
  }
  std::vector<std::string> lines;
  for (size_t k = 0; k < kKinds; ++k) {
    if (counts[k] > 0) {
      lines.push_back(std::string(SpanKindName(static_cast<SpanKind>(k))) +
                      Format(": spans=%g total_s=%.6f self_s=%.6f",
                             static_cast<double>(counts[k]), total[k], self[k]));
    }
  }
  return lines;
}

bool WriteTraceFile(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << SpanKindName(s.kind)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"ts\":" << s.start_ns / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0 << ",\"args\":{\"id\":" << i + 1
        << ",\"parent\":" << s.parent << ",\"timed\":" << (s.timed ? "true" : "false") << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
