// The `heap` workload: a small ring whose nodes keep ~1k live objects each
// and churn them every round, so collection, sweep, the scion cleaner, reclaim
// and checkpointing do the work and acquires are rare.  See README.md for the
// round structure and why it was chosen.

#include <memory>
#include <vector>

#include "perfbench/workload.h"
#include "src/common/rng.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace perfbench {
namespace {

using bmx::Gaddr;
using bmx::NodeId;

constexpr uint32_t kSlots = 3;  // next pointer, word, scratch reference

class HeapWorkload {
 public:
  HeapWorkload(bmx::Cluster* cluster, const HeapShape& shape, Probe* probe, uint64_t seed)
      : cluster_(cluster),
        shape_(shape),
        probe_(probe),
        rng_(bmx::DeriveStreamSeed(seed, bmx::RngStream::kWorkload)) {}

  void Populate();
  // One round: every node, in order, churns and collects (see README.md).
  void Round(size_t round, RepResult* rep);
  // Walks every node's lists and every replicated head; appends failures.
  void CheckIntegrity(std::vector<std::string>* failures);

  const std::vector<bmx::BunchId>& bunches() const { return bunch_; }

 private:
  NodeId Neighbour(NodeId id) const { return static_cast<NodeId>((id + 1) % shape_.nodes); }
  NodeId Upstream(NodeId id) const {
    return static_cast<NodeId>((id + shape_.nodes - 1) % shape_.nodes);
  }

  // Mutator calls.  Each Alloc, slot write and acquire is one op.
  Gaddr Alloc(NodeId id, RepResult* rep);
  void WriteRef(NodeId id, Gaddr obj, size_t slot, Gaddr target, RepResult* rep);
  void WriteWord(NodeId id, Gaddr obj, size_t slot, uint64_t value, RepResult* rep);
  bool Acquire(NodeId id, Gaddr obj, bool write, RepResult* rep);
  void Release(NodeId id, Gaddr obj) {
    probe_->Call(SpanKind::kRelease, [&] { mutators_[id]->Release(obj); });
  }

  // A fresh list_length list owned by `id`; its head's scratch slot points at
  // one of the upstream node's shared heads, which `id` replicates.
  Gaddr BuildList(NodeId id, RepResult* rep);
  // Points the list's root at a fresh list; the old one becomes garbage.
  void ReplaceList(NodeId id, size_t list, RepResult* rep);
  // Owner write-upgrades shared head k, then the neighbour re-reads it.
  void TouchShared(NodeId id, size_t k, RepResult* rep);
  void Collect(NodeId id, bool group, RepResult* rep);
  void Pump() {
    probe_->Call(SpanKind::kPump, [&] { cluster_->Pump(); });
  }

  bmx::Cluster* cluster_;
  HeapShape shape_;
  Probe* probe_;
  bmx::Rng rng_;
  std::vector<std::unique_ptr<bmx::Mutator>> mutators_;
  std::vector<bmx::BunchId> bunch_;
  // list_root_[id][l]: root index of list l in node id's mutator; lists
  // [0, shared_lists) are the shared ones.
  std::vector<std::vector<size_t>> list_root_;
  // replica_root_[id][k]: root index, in node id's mutator, of the upstream
  // node's shared head k.
  std::vector<std::vector<size_t>> replica_root_;
  // head_value_[id][l]: the word slot-1 of list l's head must hold.
  std::vector<std::vector<uint64_t>> head_value_;
  uint64_t next_value_ = 1000;
};

Gaddr HeapWorkload::Alloc(NodeId id, RepResult* rep) {
  if (rep != nullptr) {
    rep->ops++;
  }
  return probe_->Call(SpanKind::kAlloc, [&] { return mutators_[id]->Alloc(bunch_[id], kSlots); });
}

void HeapWorkload::WriteRef(NodeId id, Gaddr obj, size_t slot, Gaddr target, RepResult* rep) {
  if (rep != nullptr) {
    rep->ops++;
  }
  probe_->Call(SpanKind::kAccess, [&] { mutators_[id]->WriteRef(obj, slot, target); });
}

void HeapWorkload::WriteWord(NodeId id, Gaddr obj, size_t slot, uint64_t value, RepResult* rep) {
  if (rep != nullptr) {
    rep->ops++;
  }
  probe_->Call(SpanKind::kAccess, [&] { mutators_[id]->WriteWord(obj, slot, value); });
}

bool HeapWorkload::Acquire(NodeId id, Gaddr obj, bool write, RepResult* rep) {
  bmx::Mutator& m = *mutators_[id];
  uint64_t ticks_before = cluster_->network().now();
  bool ok = probe_->Call(SpanKind::kAcquire,
                         [&] { return write ? m.AcquireWrite(obj) : m.AcquireRead(obj); });
  if (rep != nullptr) {
    rep->ops++;
    rep->failed += ok ? 0 : 1;
    rep->acquire_ticks.push_back(cluster_->network().now() - ticks_before);
  }
  return ok;
}

Gaddr HeapWorkload::BuildList(NodeId id, RepResult* rep) {
  Gaddr head = bmx::kNullAddr;
  for (size_t i = 0; i < shape_.list_length; ++i) {
    Gaddr obj = Alloc(id, rep);
    WriteRef(id, obj, 0, head, rep);
    WriteWord(id, obj, 1, shape_.list_length - i, rep);
    head = obj;
  }
  if (!replica_root_[id].empty()) {
    size_t k = rng_.Below(replica_root_[id].size());
    WriteRef(id, head, 2, mutators_[id]->Root(replica_root_[id][k]), rep);
  }
  return head;
}

void HeapWorkload::Populate() {
  size_t n = shape_.nodes;
  list_root_.assign(n, {});
  replica_root_.assign(n, {});
  head_value_.assign(n, std::vector<uint64_t>(shape_.lists, 1));
  for (NodeId id = 0; id < n; ++id) {
    mutators_.push_back(std::make_unique<bmx::Mutator>(&cluster_->node(id)));
    bunch_.push_back(cluster_->CreateBunch(id));
  }
  for (NodeId id = 0; id < n; ++id) {
    for (size_t l = 0; l < shape_.lists; ++l) {
      list_root_[id].push_back(mutators_[id]->AddRoot(BuildList(id, nullptr)));
    }
  }
  // Replication: each node's neighbour faults in and roots its shared heads.
  for (NodeId id = 0; id < n; ++id) {
    NodeId reader = Neighbour(id);
    for (size_t k = 0; k < shape_.shared_lists; ++k) {
      Gaddr head = mutators_[id]->Root(list_root_[id][k]);
      Acquire(reader, head, /*write=*/false, nullptr);
      replica_root_[reader].push_back(mutators_[reader]->AddRoot(head));
      Release(reader, head);
    }
  }
  cluster_->Pump();
}

void HeapWorkload::ReplaceList(NodeId id, size_t list, RepResult* rep) {
  Gaddr head = BuildList(id, rep);
  mutators_[id]->SetRoot(list_root_[id][list], head);
  head_value_[id][list] = 1;
  if (list >= shape_.shared_lists) {
    return;
  }
  // A shared list: the neighbour swaps its replica root too, so the old list
  // dies only through the scion cleaner (distributed garbage).
  NodeId reader = Neighbour(id);
  if (Acquire(reader, head, /*write=*/false, rep)) {
    mutators_[reader]->SetRoot(replica_root_[reader][list], head);
    Release(reader, head);
  }
}

void HeapWorkload::TouchShared(NodeId id, size_t k, RepResult* rep) {
  Gaddr head = mutators_[id]->Root(list_root_[id][k]);
  if (!Acquire(id, head, /*write=*/true, rep)) {
    return;
  }
  uint64_t value = next_value_++;
  WriteWord(id, head, 1, value, rep);
  head_value_[id][k] = value;
  Release(id, head);
  // The re-read is a remote grant carrying invariant-1 address updates for
  // whatever the owner's collections moved since the last one.
  NodeId reader = Neighbour(id);
  Gaddr replica = mutators_[reader]->Root(replica_root_[reader][k]);
  if (Acquire(reader, replica, /*write=*/false, rep)) {
    Release(reader, replica);
  }
}

void HeapWorkload::Collect(NodeId id, bool group, RepResult* rep) {
  bmx::GcEngine& gc = cluster_->node(id).gc();
  Clock::time_point start = Clock::now();
  if (group) {
    probe_->Call(SpanKind::kGgc, [&] { gc.CollectGroup(); });
  } else {
    probe_->Call(SpanKind::kBgc, [&] { gc.CollectBunch(bunch_[id]); });
  }
  if (rep != nullptr) {
    rep->gc_pause_us.push_back(Seconds(start, Clock::now()) * 1e6);
  }
}

void HeapWorkload::Round(size_t round, RepResult* rep) {
  bool maintenance = round % 4 == 3;
  for (NodeId id = 0; id < shape_.nodes; ++id) {
    uint32_t step = probe_->Open(SpanKind::kOp);
    size_t private_lists = shape_.lists - shape_.shared_lists;
    for (size_t i = 0; i < shape_.replaced_per_round; ++i) {
      ReplaceList(id, shape_.shared_lists + rng_.Below(private_lists), rep);
    }
    for (size_t k = 0; k < shape_.shared_lists; ++k) {
      TouchShared(id, k, rep);
    }
    bmx::GcEngine& gc = cluster_->node(id).gc();
    Collect(id, /*group=*/false, rep);
    Pump();
    probe_->Call(SpanKind::kReclaim, [&] { gc.ReclaimFromSpaces(bunch_[id]); });
    Pump();
    if (maintenance) {
      ReplaceList(id, rng_.Below(shape_.shared_lists), rep);
      Collect(id, /*group=*/true, rep);
      Pump();
      bmx::Node& node = cluster_->node(id);
      probe_->Call(SpanKind::kCheckpoint, [&] {
        node.CheckpointBunch(bunch_[id]);
        node.persistence().TruncateLog();
      });
    }
    probe_->Close(step);
  }
}

void HeapWorkload::CheckIntegrity(std::vector<std::string>* failures) {
  auto fail = [&](NodeId id, size_t list, const std::string& what) {
    failures->push_back("heap integrity: node " + std::to_string(id) + " list " +
                        std::to_string(list) + ": " + what);
  };
  for (NodeId id = 0; id < shape_.nodes; ++id) {
    bmx::Mutator& m = *mutators_[id];
    for (size_t l = 0; l < shape_.lists; ++l) {
      Gaddr cur = m.Root(list_root_[id][l]);
      size_t length = 0;
      while (cur != bmx::kNullAddr && length <= shape_.list_length) {
        if (!m.AcquireRead(cur)) {
          fail(id, l, "read acquire denied");
          break;
        }
        uint64_t want = length == 0 ? head_value_[id][l] : length + 1;
        if (m.ReadWord(cur, 1) != want) {
          fail(id, l, "wrong word at position " + std::to_string(length));
        }
        Gaddr next = m.ReadRef(cur, 0);
        m.Release(cur);
        cur = next;
        length++;
      }
      if (length != shape_.list_length) {
        fail(id, l, "length " + std::to_string(length));
      }
    }
    NodeId upstream = Upstream(id);
    for (size_t k = 0; k < replica_root_[id].size(); ++k) {
      Gaddr replica = m.Root(replica_root_[id][k]);
      if (!m.AcquireRead(replica)) {
        fail(upstream, k, "replica read denied at node " + std::to_string(id));
        continue;
      }
      if (m.ReadWord(replica, 1) != head_value_[upstream][k]) {
        fail(upstream, k, "stale replica at node " + std::to_string(id));
      }
      m.Release(replica);
    }
  }
}

}  // namespace

RepResult RunHeapRep(uint64_t seed, const HeapShape& shape, bool tracing) {
  RepResult rep;
  Probe probe(tracing);
  Clock::time_point start = Clock::now();
  bmx::ClusterOptions options;
  options.num_nodes = shape.nodes;
  options.seed = kClusterSeed;
  options.topology = bmx::TopologyKind::kRing;
  bmx::Cluster cluster(options);
  Clock::time_point built = Clock::now();
  HeapWorkload heap(&cluster, shape, &probe, seed);
  heap.Populate();
  Clock::time_point populated = Clock::now();
  for (size_t r = 0; r < shape.warmup_rounds; ++r) {
    heap.Round(r, nullptr);
  }
  rep.setup_s.push_back(Seconds(start, Clock::now()));
  rep.setup_cluster_s.push_back(Seconds(start, built));
  rep.setup_populate_s.push_back(Seconds(built, populated));

  rep.timed_s = TimedPhase(
      cluster, probe, shape.rounds,
      [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          heap.Round(shape.warmup_rounds + r, &rep);
        }
      },
      heap.bunches(), &rep);
  CheckClusterGates(cluster, /*run_oracle=*/true, &rep.gate_failures);
  heap.CheckIntegrity(&rep.gate_failures);
  rep.spans = std::move(probe.spans());
  return rep;
}

}  // namespace perfbench
