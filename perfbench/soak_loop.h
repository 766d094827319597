// The soak op mix of src/workload/soak.cc, re-driven step by step so each
// call into the cluster can be timed.  It draws the same plans and makes the
// same calls in the same order as SoakScenario; only the op stream's seed is
// passed in rather than derived from the cluster's.  `soak` runs it on one
// long-lived cluster, `verify` inside explorer walks.

#ifndef PERFBENCH_SOAK_LOOP_H_
#define PERFBENCH_SOAK_LOOP_H_

#include <memory>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/workload.h"
#include "src/common/rng.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/workload/soak.h"

namespace perfbench {

class SoakLoop {
 public:
  // `seed` seeds the op stream; the cluster's own seed fixes the topology.
  SoakLoop(bmx::Cluster* cluster, const bmx::SoakOptions& mix, Probe* probe, uint64_t seed);

  // One bunch per node holding a list of mix.objects_per_node 3-slot objects,
  // rooted by the node's mutator.
  void Populate();

  // Runs the next `steps` ops of the stream.  With `rep` set the ops are
  // timed ones: they are counted and their samples recorded there.
  void Run(size_t steps, RepResult* rep);

  const std::vector<bmx::BunchId>& bunches() const { return bunches_; }

 private:
  void Collect(bmx::NodeId actor, RepResult* rep);

  bmx::Cluster* cluster_;
  bmx::SoakOptions mix_;
  Probe* probe_;
  bmx::Rng rng_;
  size_t step_ = 0;  // index in the whole stream (warm-up included)
  std::vector<std::unique_ptr<bmx::Mutator>> mutators_;
  std::vector<bmx::BunchId> bunches_;
  std::vector<std::vector<bmx::Gaddr>> objs_;  // objs_[owner][j], head first
};

}  // namespace perfbench

#endif  // PERFBENCH_SOAK_LOOP_H_
