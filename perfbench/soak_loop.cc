#include "perfbench/soak_loop.h"

#include "src/workload/graph_builder.h"

namespace perfbench {

using bmx::Gaddr;
using bmx::NodeId;

SoakLoop::SoakLoop(bmx::Cluster* cluster, const bmx::SoakOptions& mix, Probe* probe,
                   uint64_t seed)
    : cluster_(cluster),
      mix_(mix),
      probe_(probe),
      rng_(bmx::DeriveStreamSeed(seed, bmx::RngStream::kSoak)) {}

void SoakLoop::Populate() {
  size_t n = cluster_->size();
  objs_.assign(n, {});
  for (NodeId id = 0; id < n; ++id) {
    mutators_.push_back(std::make_unique<bmx::Mutator>(&cluster_->node(id)));
    bunches_.push_back(cluster_->CreateBunch(id));
  }
  for (NodeId id = 0; id < n; ++id) {
    bmx::GraphBuilder builder(cluster_, mutators_[id].get());
    Gaddr cur = builder.BuildList(bunches_[id], mix_.objects_per_node, 3);
    mutators_[id]->AddRoot(cur);
    while (cur != bmx::kNullAddr) {
      objs_[id].push_back(cur);
      cur = mutators_[id]->ReadRef(cur, 0);
    }
  }
  cluster_->Pump();
}

void SoakLoop::Collect(NodeId actor, RepResult* rep) {
  Clock::time_point start = Clock::now();
  probe_->Call(SpanKind::kBgc, [&] { cluster_->node(actor).gc().CollectBunch(bunches_[actor]); });
  if (rep != nullptr) {
    rep->gc_pause_us.push_back(Seconds(start, Clock::now()) * 1e6);
  }
}

void SoakLoop::Run(size_t steps, RepResult* rep) {
  const bmx::Topology& topo = cluster_->topology();
  bmx::Network& net = cluster_->network();
  size_t n = cluster_->size();
  auto pump = [&] { probe_->Call(SpanKind::kPump, [&] { cluster_->Pump(); }); };
  for (size_t s = 0; s < steps; ++s, ++step_) {
    uint32_t op = probe_->Open(SpanKind::kOp);
    if (rep != nullptr) {
      rep->ops++;
    }
    // The whole step is drawn before touching the cluster, exactly as in
    // SoakScenario, so the stream depends only on the seed.
    NodeId actor = static_cast<NodeId>(rng_.Below(n));
    if (rng_.Chance(mix_.gc_chance)) {
      Collect(actor, rep);
      pump();
      probe_->Close(op);
      continue;
    }
    if (rng_.Chance(mix_.reclaim_chance)) {
      probe_->Call(SpanKind::kReclaim,
                   [&] { cluster_->node(actor).gc().ReclaimFromSpaces(bunches_[actor]); });
      pump();
      probe_->Close(op);
      continue;
    }
    NodeId owner = rng_.Chance(0.5) ? actor : topo.NeighborOf(actor, rng_.Next());
    size_t j = rng_.Below(mix_.objects_per_node);
    bool write_mode = rng_.Chance(mix_.write_fraction);
    struct PlannedAccess {
      bool is_ref;
      uint32_t slot;
      uint64_t word;
      NodeId ref_owner;
      size_t ref_index;
    };
    std::vector<PlannedAccess> plan;
    do {
      PlannedAccess a{};
      if (write_mode) {
        a.is_ref = rng_.Chance(mix_.cross_ref_chance);
        a.slot = a.is_ref ? 2u : 1u;
        a.word = rng_.Below(1000);
        a.ref_owner = topo.NeighborOf(owner, rng_.Next());
        a.ref_index = rng_.Below(mix_.objects_per_node);
      } else {
        a.is_ref = rng_.Chance(0.4);
        a.slot = a.is_ref ? (rng_.Chance(0.5) ? 0u : 2u) : 1u;
      }
      plan.push_back(a);
    } while (rng_.Chance(mix_.extra_op_chance));

    if (cluster_->node(actor).dsm().AcquireInFlight()) {
      // An earlier denied acquire is still parked on this node: the step is
      // skipped, which counts as a failed op.
      if (rep != nullptr) {
        rep->failed++;
      }
      probe_->Close(op);
      continue;
    }
    Gaddr target = objs_[owner][j];
    bmx::Mutator& m = *mutators_[actor];
    uint64_t ticks_before = net.now();
    bool ok = probe_->Call(SpanKind::kAcquire, [&] {
      return write_mode ? m.AcquireWrite(target) : m.AcquireRead(target);
    });
    if (rep != nullptr) {
      rep->acquire_ticks.push_back(net.now() - ticks_before);
      rep->failed += ok ? 0 : 1;
    }
    if (!ok) {
      probe_->Close(op);
      continue;
    }
    for (const PlannedAccess& a : plan) {
      probe_->Call(SpanKind::kAccess, [&] {
        if (write_mode) {
          if (a.is_ref) {
            m.WriteRef(target, a.slot, objs_[a.ref_owner][a.ref_index]);
          } else {
            m.WriteWord(target, a.slot, a.word);
          }
        } else if (a.is_ref) {
          (void)m.ReadRef(target, a.slot);
        } else {
          (void)m.ReadWord(target, a.slot);
        }
      });
    }
    probe_->Call(SpanKind::kRelease, [&] { m.Release(target); });
    if (mix_.pump_interval > 0 && (step_ + 1) % mix_.pump_interval == 0) {
      pump();
    }
    probe_->Close(op);
  }
}

}  // namespace perfbench
