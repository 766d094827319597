// Client-observable history recording for the consistency checker.
//
// Every oracle so far (InvariantOracle, crash sweeps, traffic fingerprints)
// audits *internal* heap/token state.  This layer records what the mutators
// actually see — the values reads return, the writes issued, the
// acquire/release brackets, and GC address-flip observations — tagged with
// vector clocks derived from the existing message causality, so any schedule
// the Explorer produces can be checked against the paper's entry-consistency
// contract at the client boundary (ConsistencyChecker, §2.2).
//
// Causality is derived entirely *out of band*: the network reports each
// logical send and each first delivery to the recorder, which maintains one
// vector clock per node and a (src, dst, seq)-keyed snapshot of the sender's
// clock at send time.  No wire byte changes and no decision index is
// consumed, so pinned traffic fingerprints and recorded traces are
// bit-identical with recording on or off (pinned by consistency_test).
//
// Overhead when disabled: a null-pointer check per hooked operation (the
// recorder pointer lives on the Network; clusters attach one only when
// EnableHistoryRecording() is called).
//
// Determinism: recording happens on the thread driving the cluster.  Every
// recorded path is single-threaded per cluster — mutator calls, message
// dispatch, and the BGC's serial copy phase (bgc.cc keeps the copy loop in
// segment order precisely so to-space addresses are schedule-independent) —
// so the recorder needs no locking, and explorer walk fleets are safe because
// each walk's cluster (and therefore its recorder) is confined to one pool
// thread.
//
// The recording methods are header-inline: the hook sites live in bmx_net and
// bmx_dsm, which sit *below* bmx_runtime in the library graph and must not
// need link-time symbols from it.

#ifndef SRC_RUNTIME_HISTORY_H_
#define SRC_RUNTIME_HISTORY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/perf_counters.h"
#include "src/common/types.h"

namespace bmx {

// One kind of client-observable event.
enum class HistoryOp : uint8_t {
  kAlloc,         // object created (creator holds the write token implicitly)
  kAcquireRead,   // read token obtained (recorded after success)
  kAcquireWrite,  // write token obtained (recorded after success)
  kRelease,       // token released (recorded before the protocol release)
  kRead,          // slot read: value is what the mutator saw
  kWrite,         // slot write: value is what the mutator stored
  kGcFlip,        // GC address change applied locally (old_addr -> new_addr)
};

// Vector clock over the cluster's nodes: vc[n] counts node n's local events
// (client events, GC flips, sends, deliveries).
using VectorClock = std::vector<uint64_t>;

// a happens-before-or-equals b (component-wise <=).
bool VcLeq(const VectorClock& a, const VectorClock& b);
// Neither VcLeq(a, b) nor VcLeq(b, a): concurrent.
bool VcConcurrent(const VectorClock& a, const VectorClock& b);

struct HistoryEvent {
  HistoryOp op = HistoryOp::kRead;
  Oid oid = kNullOid;
  uint32_t slot = 0;
  uint64_t value = 0;   // kRead/kWrite: the slot value; kAlloc: size in slots
  bool is_ref = false;  // kRead/kWrite: the value is a Gaddr (canonicalize)
  Gaddr old_addr = kNullAddr;  // kGcFlip only
  Gaddr new_addr = kNullAddr;  // kGcFlip only
  VectorClock vc;  // snapshot taken after this event's local tick
};

class HistoryRecorder {
 public:
  explicit HistoryRecorder(size_t num_nodes)
      : histories_(num_nodes), clocks_(num_nodes, VectorClock(num_nodes, 0)) {
    BMX_CHECK_GT(num_nodes, 0u);
  }

  // Records one client-observable event on `node`'s history: ticks the node's
  // clock and stamps the event with the post-tick snapshot.
  void Record(NodeId node, HistoryEvent event) {
    BMX_CHECK_LT(node, clocks_.size());
    VectorClock& vc = clocks_[node];
    vc[node]++;
    event.vc = vc;
    histories_[node].push_back(std::move(event));
    GlobalPerfCounters().history_events_recorded++;
  }

  // Message causality, reported by the Network out of band.  OnSend snapshots
  // the sender's clock under the wire identity (src, dst, seq); OnDeliver —
  // invoked before the receiving handler runs, so handler-emitted sends
  // inherit the joined clock — joins that snapshot into the receiver's clock.
  // Both tolerate duplicate wire copies (same key, max-join is idempotent)
  // and traffic outside the cluster's node range (raw harnesses).
  void OnSend(NodeId src, NodeId dst, uint64_t seq) {
    if (src >= clocks_.size() || dst >= clocks_.size()) {
      return;
    }
    VectorClock& vc = clocks_[src];
    vc[src]++;
    in_flight_[{src, dst, seq}] = vc;
  }

  void OnDeliver(NodeId src, NodeId dst, uint64_t seq) {
    if (src >= clocks_.size() || dst >= clocks_.size()) {
      return;
    }
    auto it = in_flight_.find({src, dst, seq});
    if (it == in_flight_.end()) {
      return;  // e.g. redelivery after RegisterNode re-stamped the seq
    }
    VectorClock& vc = clocks_[dst];
    const VectorClock& snap = it->second;
    for (size_t i = 0; i < vc.size(); ++i) {
      vc[i] = std::max(vc[i], snap[i]);
    }
    vc[dst]++;
  }

  size_t num_nodes() const { return clocks_.size(); }

  const std::vector<HistoryEvent>& HistoryOf(NodeId node) const {
    BMX_CHECK_LT(node, histories_.size());
    return histories_[node];
  }

  const VectorClock& ClockOf(NodeId node) const {
    BMX_CHECK_LT(node, clocks_.size());
    return clocks_[node];
  }

  size_t TotalEvents() const {
    size_t total = 0;
    for (const auto& h : histories_) {
      total += h.size();
    }
    return total;
  }

 private:
  std::vector<std::vector<HistoryEvent>> histories_;  // one per node
  std::vector<VectorClock> clocks_;                   // one per node
  // Sender-clock snapshot per logical send, keyed by wire identity.  Entries
  // are kept (not erased on delivery): retransmitted and duplicated copies of
  // the same payload re-join the same snapshot, which is a no-op.
  std::map<std::tuple<NodeId, NodeId, uint64_t>, VectorClock> in_flight_;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_HISTORY_H_
