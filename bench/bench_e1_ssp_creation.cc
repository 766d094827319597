// E1 — SSP creation cost (Figure 1 + §3.2).
//
// Series: write-barrier cost per reference store for (a) intra-bunch stores
// (barrier fires, no SSP), (b) inter-bunch stores with the target bunch
// mapped locally (stub + scion created locally), (c) inter-bunch stores to an
// unmapped target bunch (stub locally + scion-message).  Counter
// `scion_msgs` confirms messages appear only in case (c).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace bmx {
namespace {

void E1_IntraBunchStore(benchmark::State& state) {
  BenchRig rig(2);
  BunchId bunch = rig.cluster.CreateBunch(0);
  Mutator& m = *rig.mutators[0];
  Gaddr src = m.Alloc(bunch, 2);
  Gaddr dst = m.Alloc(bunch, 1);
  for (auto _ : state) {
    m.WriteRef(src, 0, dst);
  }
  state.counters["scion_msgs"] =
      static_cast<double>(rig.cluster.node(0).gc().stats().scion_messages_sent);
  state.counters["stubs"] =
      static_cast<double>(rig.cluster.node(0).gc().stats().inter_stubs_created);
}
BENCHMARK(E1_IntraBunchStore);

void E1_InterBunchStore_TargetMapped(benchmark::State& state) {
  BenchRig rig(2);
  BunchId b1 = rig.cluster.CreateBunch(0);
  BunchId b2 = rig.cluster.CreateBunch(0);
  Mutator& m = *rig.mutators[0];
  Gaddr src = m.Alloc(b1, 2);
  Gaddr dst = m.Alloc(b2, 1);
  for (auto _ : state) {
    m.WriteRef(src, 0, dst);  // first iteration creates the SSP; rest dedupe
  }
  state.counters["scion_msgs"] =
      static_cast<double>(rig.cluster.node(0).gc().stats().scion_messages_sent);
  state.counters["stubs"] =
      static_cast<double>(rig.cluster.node(0).gc().stats().inter_stubs_created);
}
BENCHMARK(E1_InterBunchStore_TargetMapped);

void E1_InterBunchStore_FreshSsp(benchmark::State& state) {
  // Every store creates a brand-new SSP (distinct target objects).
  BenchRig rig(2);
  BunchId b1 = rig.cluster.CreateBunch(0);
  BunchId b2 = rig.cluster.CreateBunch(0);
  Mutator& m = *rig.mutators[0];
  Gaddr src = m.Alloc(b1, 2);
  std::vector<Gaddr> targets;
  targets.reserve(state.max_iterations);
  for (size_t i = 0; i < static_cast<size_t>(state.max_iterations); ++i) {
    targets.push_back(m.Alloc(b2, 1));
  }
  size_t i = 0;
  for (auto _ : state) {
    m.WriteRef(src, 0, targets[i++]);
  }
  state.counters["stubs_per_store"] =
      static_cast<double>(rig.cluster.node(0).gc().stats().inter_stubs_created) /
      static_cast<double>(state.iterations());
}
BENCHMARK(E1_InterBunchStore_FreshSsp);

void E1_InterBunchStore_RemoteTarget(benchmark::State& state) {
  // Target bunch mapped only at node 1: each fresh SSP costs a scion-message.
  BenchRig rig(2);
  BunchId b1 = rig.cluster.CreateBunch(0);
  BunchId b2 = rig.cluster.CreateBunch(1);
  Mutator& m0 = *rig.mutators[0];
  Mutator& m1 = *rig.mutators[1];
  Gaddr src = m0.Alloc(b1, 2);
  std::vector<Gaddr> targets;
  targets.reserve(state.max_iterations);
  for (size_t i = 0; i < static_cast<size_t>(state.max_iterations); ++i) {
    targets.push_back(m1.Alloc(b2, 1));
  }
  size_t i = 0;
  for (auto _ : state) {
    m0.WriteRef(src, 0, targets[i++]);
  }
  state.counters["scion_msgs"] =
      static_cast<double>(rig.cluster.node(0).gc().stats().scion_messages_sent);
  state.counters["scion_msgs_per_store"] =
      static_cast<double>(rig.cluster.node(0).gc().stats().scion_messages_sent) /
      static_cast<double>(state.iterations());
  rig.cluster.Pump();
}
BENCHMARK(E1_InterBunchStore_RemoteTarget);

}  // namespace
}  // namespace bmx

BMX_BENCHMARK_MAIN();
