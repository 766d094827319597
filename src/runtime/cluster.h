// The whole simulated BMX deployment: a network, the shared segment
// directory (the BMX-server role), a shared stable store, and N nodes.

#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/common/perf_counters.h"
#include "src/common/types.h"
#include "src/mem/directory.h"
#include "src/net/batch.h"
#include "src/net/network.h"
#include "src/runtime/history.h"
#include "src/runtime/node.h"
#include "src/runtime/topology.h"
#include "src/rvm/disk.h"

namespace bmx {

struct ClusterOptions {
  size_t num_nodes = 2;
  CopySetMode copyset_mode = CopySetMode::kCentralized;
  CleanerMode cleaner_mode = CleanerMode::kImmediate;
  uint64_t seed = 1;
  // Workload-sharing topology (src/runtime/topology.h).  The protocol stays
  // any-to-any; scenario and soak drivers read cluster.topology() to decide
  // which peers share objects.  kFull reproduces the historical behavior.
  TopologyKind topology = TopologyKind::kFull;
  size_t topology_degree = 4;  // random-regular only
  // Batched control-message transport (src/net/batch.h); disabled by default
  // — the unbatched wire is the pinned-fingerprint baseline.
  BatchPolicy batch = {};
};

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options = {});

  size_t size() const { return nodes_.size(); }
  // Root seed this cluster was built with; seeded workload generators derive
  // their streams from it (DeriveStreamSeed) so runs reproduce from the seed.
  uint64_t seed() const { return options_.seed; }
  Node& node(NodeId id);
  Network& network() { return network_; }
  SegmentDirectory& directory() { return directory_; }
  Disk& disk() { return disk_; }
  // The sharing structure this cluster was built with (who shares objects
  // with whom); generated deterministically from the options at construction.
  const Topology& topology() const { return topology_; }

  // Attaches a client-history recorder to the network (idempotent).  Call
  // before driving any traffic so vector clocks cover the whole run; the
  // ConsistencyChecker consumes history() at quiescence.  Recording is pure
  // observation — traffic fingerprints are unchanged (see Network).
  void EnableHistoryRecording();
  // The attached recorder, or nullptr when recording was never enabled.
  HistoryRecorder* history() { return history_.get(); }
  // Hot-path counters (scan kernels, lookup tables, piggyback coalescing,
  // pool calls/steals).  Thread-local — each TaskPool helper thread counts
  // into its own block, which ParallelFor adds to the caller's before it
  // returns, so the totals read here are complete and independent of
  // BMX_THREADS.  Benches reset them per run and print them.
  PerfCounters& perf() { return GlobalPerfCounters(); }

  BunchId CreateBunch(NodeId creator);

  // Drains all in-flight messages, including timeout-driven retransmissions
  // of reliable payloads (the network's virtual clock advances as needed).
  void Pump() { network_.RunUntilIdle(); }

  // Transient network partition between two live nodes (both directions).
  // Unreliable traffic between them is dropped; reliable traffic waits in the
  // sender's retransmission buffer and flows once the partition heals.
  void PartitionNodes(NodeId a, NodeId b) { network_.PartitionNodes(a, b); }
  void HealPartition(NodeId a, NodeId b) { network_.HealPartition(a, b); }

  // Simulates a node crash: volatile state is discarded, in-flight traffic
  // from the node is dropped, unreliable traffic to it is lost, and reliable
  // traffic to it is parked in each sender's retransmission buffer.  Stable
  // storage (the shared Disk) survives.  Also invoked by the network's crash
  // listener when a fault-injection site fires inside a message handler; in
  // that case the victim's frames may still be live below the network's
  // dispatch loop, so the Node object is parked in zombies_ instead of being
  // destroyed (deferred teardown — freed when the Cluster dies).
  void CrashNode(NodeId id);
  // True while the node has live volatile state (not crashed).
  bool IsAlive(NodeId id) const { return id < nodes_.size() && nodes_[id] != nullptr; }
  // Brings a crashed node back with empty volatile state; reliable traffic
  // parked while it was down is replayed to the new incarnation (FIFO per
  // sender, deduplicated).  Callers recover segments through
  // node.persistence().
  Node& RestartNode(NodeId id);

 private:
  ClusterOptions options_;
  Network network_;
  Topology topology_;
  SegmentDirectory directory_;
  Disk disk_;
  // Declared after network_: the network holds a raw pointer but never
  // touches it during destruction.
  std::unique_ptr<HistoryRecorder> history_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Crashed Node objects whose destruction is deferred (see CrashNode).
  std::vector<std::unique_ptr<Node>> zombies_;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_CLUSTER_H_
