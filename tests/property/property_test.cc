// Property-based sweeps (TEST_P) over the collector's two fundamental
// properties:
//
//   * SOUNDNESS — no live object is ever reclaimed: after any sequence of
//     collections/reclamations, everything reachable from roots is intact;
//   * COMPLETENESS — all garbage is eventually reclaimed: after the graph is
//     cut, enough collection rounds reduce live bytes to the live set.
//
// Plus structural invariants: every inter-bunch stub has a matching scion,
// forwarding never cycles, and object maps never overlap.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/workload/graph_builder.h"

namespace bmx {
namespace {

// --- Soundness over random graphs, single node, repeated GC+reclaim. ---

struct GraphParams {
  size_t objects;
  size_t out_degree;
  uint64_t seed;
};

class RandomGraphTest : public ::testing::TestWithParam<GraphParams> {};

TEST_P(RandomGraphTest, EveryReachableObjectSurvivesRepeatedCollection) {
  const GraphParams& p = GetParam();
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  Rng rng(p.seed);
  BunchId bunch = cluster.CreateBunch(0);

  auto objects = builder.BuildRandomGraph(bunch, p.objects, p.out_degree, &rng);
  // Tag every object so payload corruption is detectable.
  for (size_t i = 0; i < objects.size(); ++i) {
    m.WriteWord(objects[i], p.out_degree, 7000 + i);
  }
  m.AddRoot(objects[0]);
  // Extra garbage mixed in.
  builder.BuildList(bunch, 40);

  for (int round = 0; round < 4; ++round) {
    cluster.node(0).gc().CollectBunch(bunch);
    cluster.node(0).gc().ReclaimFromSpaces(bunch);
    cluster.Pump();
    ASSERT_TRUE(cluster.node(0).gc().ReclaimQuiescent());
  }
  EXPECT_GE(cluster.node(0).gc().stats().objects_reclaimed, 40u);

  // Walk the spine; every object answers with its tag.
  Gaddr cur = cluster.node(0).dsm().ResolveAddr(objects[0]);
  for (size_t i = 0; i < p.objects; ++i) {
    ASSERT_TRUE(m.AcquireRead(cur)) << "object " << i;
    EXPECT_EQ(m.ReadWord(cur, p.out_degree), 7000 + i);
    Gaddr next = m.ReadRef(cur, 0);
    m.Release(cur);
    cur = next;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomGraphTest,
                         ::testing::Values(GraphParams{10, 2, 11}, GraphParams{30, 2, 12},
                                           GraphParams{30, 4, 13}, GraphParams{60, 3, 14},
                                           GraphParams{100, 2, 15}, GraphParams{100, 5, 16},
                                           GraphParams{200, 3, 17}),
                         [](const ::testing::TestParamInfo<GraphParams>& info) {
                           return "o" + std::to_string(info.param.objects) + "_d" +
                                  std::to_string(info.param.out_degree) + "_s" +
                                  std::to_string(info.param.seed);
                         });

// --- Completeness: cutting the graph eventually reclaims everything. ---

class CompletenessTest : public ::testing::TestWithParam<GraphParams> {};

TEST_P(CompletenessTest, CutGarbageIsFullyReclaimed) {
  const GraphParams& p = GetParam();
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  Rng rng(p.seed);
  BunchId bunch = cluster.CreateBunch(0);

  auto objects = builder.BuildRandomGraph(bunch, p.objects, p.out_degree, &rng);
  size_t root = m.AddRoot(objects[0]);
  cluster.node(0).gc().CollectBunch(bunch);
  size_t live_before = cluster.node(0).gc().LiveBytesOf(bunch);
  EXPECT_GT(live_before, 0u);

  // Cut everything.
  m.ClearRoot(root);
  cluster.node(0).gc().CollectBunch(bunch);
  EXPECT_EQ(cluster.node(0).gc().LiveBytesOf(bunch), 0u);
  EXPECT_GE(cluster.node(0).gc().stats().objects_reclaimed, p.objects);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompletenessTest,
                         ::testing::Values(GraphParams{20, 2, 21}, GraphParams{50, 3, 22},
                                           GraphParams{120, 4, 23}),
                         [](const ::testing::TestParamInfo<GraphParams>& info) {
                           return "o" + std::to_string(info.param.objects) + "_s" +
                                  std::to_string(info.param.seed);
                         });

// --- Distributed completeness with message loss on GC traffic. ---

struct LossParams {
  double loss;
  uint64_t seed;
};

class LossyCascadeTest : public ::testing::TestWithParam<LossParams> {};

TEST_P(LossyCascadeTest, DeathCascadeCompletesDespiteLoss) {
  const LossParams& p = GetParam();
  Cluster cluster({.num_nodes = 2, .seed = p.seed});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  BunchId b1 = cluster.CreateBunch(0);
  BunchId b2 = cluster.CreateBunch(1);

  Gaddr target = m1.Alloc(b2, 1);
  Gaddr src = m0.Alloc(b1, 2);
  m0.AddRoot(src);
  m0.WriteRef(src, 0, target);
  cluster.Pump();
  m0.WriteRef(src, 0, kNullAddr);

  cluster.network().set_loss_rate(p.loss);
  // Idempotent full-state tables mean enough rounds always converge.
  bool reclaimed = false;
  for (int round = 0; round < 40 && !reclaimed; ++round) {
    cluster.node(0).gc().CollectBunch(b1);
    cluster.Pump();
    cluster.node(1).gc().CollectBunch(b2);
    cluster.Pump();
    reclaimed = cluster.node(1).gc().stats().objects_reclaimed > 0;
  }
  EXPECT_TRUE(reclaimed) << "cascade never completed at loss " << p.loss;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LossyCascadeTest,
                         ::testing::Values(LossParams{0.0, 31}, LossParams{0.1, 32},
                                           LossParams{0.3, 33}, LossParams{0.5, 34},
                                           LossParams{0.7, 35}),
                         [](const ::testing::TestParamInfo<LossParams>& info) {
                           return "loss" + std::to_string(int(info.param.loss * 100)) + "_s" +
                                  std::to_string(info.param.seed);
                         });

// --- Structural invariants under random multi-bunch workloads. ---

class InvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvariantTest, StubsScionsAndMapsStayConsistent) {
  Cluster cluster({.num_nodes = 2, .seed = GetParam()});
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Rng rng(GetParam());
  std::vector<BunchId> bunches = {cluster.CreateBunch(0), cluster.CreateBunch(0),
                                  cluster.CreateBunch(1)};

  std::vector<Gaddr> all;
  for (BunchId b : bunches) {
    Mutator& owner = (cluster.directory().BunchCreator(b) == 0) ? m0 : m1;
    for (int i = 0; i < 6; ++i) {
      Gaddr obj = owner.Alloc(b, 3);
      owner.AddRoot(obj);
      all.push_back(obj);
    }
  }
  cluster.Pump();
  // Random cross-bunch writes from the owning side.
  for (int i = 0; i < 60; ++i) {
    Gaddr src = all[rng.Below(all.size())];
    Gaddr dst = all[rng.Below(all.size())];
    NodeId owner_node = cluster.directory().BunchCreator(
        cluster.directory().BunchOfSegment(SegmentOf(src)));
    Mutator& m = owner_node == 0 ? m0 : m1;
    Node& node = cluster.node(owner_node);
    Gaddr local = node.dsm().ResolveAddr(src);
    if (node.store().HeaderOf(local) == nullptr) {
      continue;
    }
    m.WriteRef(src, rng.Below(2), dst);
    cluster.Pump();
  }
  for (BunchId b : bunches) {
    cluster.node(0).gc().CollectBunch(b);
    cluster.Pump();
    cluster.node(1).gc().CollectBunch(b);
    cluster.Pump();
  }

  // Invariant: every surviving inter-bunch stub has a matching scion at its
  // recorded scion node.
  for (NodeId n = 0; n < 2; ++n) {
    for (BunchId b : bunches) {
      for (const InterStub& stub : cluster.node(n).gc().TablesOf(b).inter_stubs) {
        bool found = false;
        auto tables = cluster.node(stub.scion_node).gc().TablesOf(stub.target_bunch);
        for (const InterScion& scion : tables.inter_scions) {
          if (scion.stub_id == stub.id && scion.src_node == n) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << "stub " << stub.id << " at node " << n << " has no scion";
      }
    }
  }

  // Invariant: forwarding chains terminate (ResolveAddr bounds internally;
  // just exercise it on every address we ever saw).
  for (Gaddr addr : all) {
    cluster.node(0).dsm().ResolveAddr(addr);
    cluster.node(1).dsm().ResolveAddr(addr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantTest, ::testing::Values(41, 42, 43, 44, 45, 46));

}  // namespace
}  // namespace bmx
