// Call probes for the benchmark's workloads.
//
// Every call a workload makes into a simulator layer goes through
// Probe::Call.  With tracing off that is the plain call and nothing else; with
// tracing on it also records one span: which layer boundary was crossed, wall
// start and end, and the enclosing span.  Op spans (one per workload op, or
// one per heap round step) are the parents, so the layer spans of one op share
// its id.  Spans stay in memory until the run ends.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The layer boundaries the benchmark times from outside.  Names are printed by
// SpanKindName; the per-layer metric table in README.md maps each to a layer.
enum class SpanKind : uint8_t {
  kOp,          // one workload op / heap round step: parent of the rows below
  kAcquire,     // runtime: Mutator::AcquireRead/AcquireWrite
  kRelease,     // runtime: Mutator::Release
  kAccess,      // runtime: Mutator::ReadRef/ReadWord/WriteRef/WriteWord
  kAlloc,       // runtime: Mutator::Alloc
  kPump,        // net: Cluster::Pump
  kBgc,         // gc: GcEngine::CollectBunch
  kGgc,         // gc: GcEngine::CollectGroup
  kReclaim,     // gc: GcEngine::ReclaimFromSpaces
  kCheckpoint,  // rvm: Node::CheckpointBunch + PersistenceManager::TruncateLog
  kFootprint,   // gc/mem: a footprint sample (GcEngine::ReportOf + TablesOf,
                // DsmNode::EnteringFor, ReplicaStore::AllSegments)
  kExplore,     // verify: Explorer::Explore, parent of the walks on every thread
  kWalkMake,    // verify: the scenario's make closure (cluster construction)
  kWalkRun,     // verify: the scenario's run closure (setup + ops)
  kCount,
};

inline const char* SpanKindName(SpanKind kind) {
  static constexpr const char* kNames[] = {
      "op",        "acquire",  "release", "access",    "alloc",   "pump",
      "bgc",       "ggc",      "reclaim", "checkpoint", "footprint", "explore",
      "walk_make", "walk_run"};
  static_assert(std::size(kNames) == static_cast<size_t>(SpanKind::kCount));
  return kNames[static_cast<size_t>(kind)];
}

struct Span {
  SpanKind kind = SpanKind::kOp;
  bool timed = false;   // opened during a timed phase (warm-up spans are not)
  uint32_t parent = 0;  // 1-based index of the enclosing span; 0 = none
  uint32_t thread = 0;  // thread that ran it (verify runs walks on two)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double Duration() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

// Nanoseconds since the process-wide trace epoch (the first call).
inline int64_t TraceNow() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

class Probe {
 public:
  explicit Probe(bool tracing, uint32_t thread = 0) : tracing_(tracing), thread_(thread) {}

  // Marks the spans opened from now on as part of the timed phase.
  void set_timed(bool timed) { timed_ = timed; }

  // Opens a span that later calls nest under; returns its id for Close.
  uint32_t Open(SpanKind kind) {
    if (!tracing_) {
      return 0;
    }
    spans_.push_back(Span{kind, timed_, open_, thread_, TraceNow(), 0});
    open_ = static_cast<uint32_t>(spans_.size());
    return open_;
  }
  void Close(uint32_t id) {
    if (id == 0) {
      return;
    }
    Span& span = spans_[id - 1];
    span.end_ns = TraceNow();
    open_ = span.parent;
  }

  template <typename F>
  auto Call(SpanKind kind, F&& f) -> decltype(f()) {
    if (!tracing_) {
      return f();
    }
    uint32_t id = Open(kind);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      Close(id);
    } else {
      auto result = f();
      Close(id);
      return result;
    }
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  bool tracing_;
  bool timed_ = false;
  uint32_t thread_;
  uint32_t open_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
