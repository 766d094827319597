#include "src/runtime/scenarios.h"

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/mutator.h"

namespace bmx {

namespace {

std::unique_ptr<Cluster> ThreeNodes(uint64_t root_seed) {
  return std::make_unique<Cluster>(ClusterOptions{.num_nodes = 3, .seed = root_seed});
}

// Figure 1: bunch B1 on N1/N2, bunch B2 on N3 only; the inter-bunch reference
// O3→O5 is created at N2, then O3's write token moves to N1, building the
// intra-bunch SSP.  Collections at N2 and N3 must reclaim nothing.
void RunFig1(Cluster& c) {
  Mutator n1(&c.node(0));
  Mutator n2(&c.node(1));
  Mutator n3(&c.node(2));
  BunchId b1 = c.CreateBunch(1);
  BunchId b2 = c.CreateBunch(2);
  Gaddr o5 = n3.Alloc(b2, 1);
  n3.AddRoot(o5);
  Gaddr o3 = n2.Alloc(b1, 2);
  n2.WriteRef(o3, 0, o5);
  c.Pump();
  if (n1.AcquireWrite(o3)) {
    n1.Release(o3);
    n1.AddRoot(o3);
  }
  c.Pump();
  c.node(1).gc().CollectBunch(b1);
  c.Pump();
  c.node(2).gc().CollectBunch(b2);
  c.Pump();
}

// Figure 4: allocate a two-object chain, replicate the head, unlink the tail
// and collect — reclamation must not race the replica's invalidation.
void RunFig4(Cluster& c) {
  Mutator m0(&c.node(0));
  Mutator m1(&c.node(1));
  BunchId b = c.CreateBunch(0);
  Gaddr head = m0.Alloc(b, 2);
  m0.AddRoot(head);
  Gaddr tail = m0.Alloc(b, 2);
  m0.WriteRef(head, 0, tail);
  c.Pump();
  if (m1.AcquireRead(head)) {
    m1.Release(head);
  }
  c.Pump();
  if (m0.AcquireWrite(head)) {
    m0.WriteRef(head, 0, kNullAddr);
    m0.Release(head);
  }
  c.node(0).gc().CollectBunch(b);
  c.Pump();
}

// --- N-node generalizations of the four shapes (ScaledScenarios) ---

// Fig. 1 at N nodes: every node owns one bunch with one object; the chain
// o_0 → o_1 → ... → o_{N-1} crosses a bunch boundary at every link, so each
// edge needs a scion/SSP to survive the per-bunch collections.  The head's
// write token then migrates (node 1 acquires and roots it) before every bunch
// is collected in turn — nothing may be reclaimed.
void RunFig1Scaled(Cluster& c) {
  size_t n = c.size();
  std::vector<std::unique_ptr<Mutator>> muts;
  std::vector<BunchId> bunches;
  std::vector<Gaddr> objs;
  for (NodeId id = 0; id < n; ++id) {
    muts.push_back(std::make_unique<Mutator>(&c.node(id)));
    bunches.push_back(c.CreateBunch(id));
    objs.push_back(muts.back()->Alloc(bunches.back(), 2));
  }
  muts[n - 1]->AddRoot(objs[n - 1]);
  for (size_t i = 0; i + 1 < n; ++i) {
    muts[i]->WriteRef(objs[i], 0, objs[i + 1]);
  }
  c.Pump();
  if (muts[1 % n]->AcquireWrite(objs[0])) {
    muts[1 % n]->Release(objs[0]);
    muts[1 % n]->AddRoot(objs[0]);
  }
  c.Pump();
  for (NodeId id = 0; id < n; ++id) {
    c.node(id).gc().CollectBunch(bunches[id]);
    c.Pump();
  }
}

// Fig. 2 at N nodes: one object's write token walks the whole ring once,
// every incarnation writing a round stamp through it.  StandardScenarios runs
// it at N = 3.
void RunFig2Scaled(Cluster& c) {
  size_t n = c.size();
  std::vector<std::unique_ptr<Mutator>> muts;
  for (NodeId id = 0; id < n; ++id) {
    muts.push_back(std::make_unique<Mutator>(&c.node(id)));
  }
  BunchId b = c.CreateBunch(0);
  Gaddr obj = muts[0]->Alloc(b, 2);
  muts[0]->AddRoot(obj);
  c.Pump();
  for (uint64_t round = 1; round <= n; ++round) {
    Mutator& m = *muts[round % n];
    if (m.AcquireWrite(obj)) {
      m.WriteWord(obj, 1, round);
      m.Release(obj);
    }
    c.Pump();
  }
}

// Fig. 3 at N nodes: N-1 readers replicate the object, then the owner's write
// upgrade fans invalidations out to all of them and the acks race back.
// StandardScenarios runs it at N = 3.
void RunFig3Scaled(Cluster& c) {
  size_t n = c.size();
  std::vector<std::unique_ptr<Mutator>> muts;
  for (NodeId id = 0; id < n; ++id) {
    muts.push_back(std::make_unique<Mutator>(&c.node(id)));
  }
  BunchId b = c.CreateBunch(0);
  Gaddr a = muts[0]->Alloc(b, 1);
  muts[0]->AddRoot(a);
  c.Pump();
  for (NodeId id = 1; id < n; ++id) {
    if (muts[id]->AcquireRead(a)) {
      muts[id]->Release(a);
    }
  }
  c.Pump();
  if (muts[0]->AcquireWrite(a)) {
    muts[0]->WriteWord(a, 0, 7);
    muts[0]->Release(a);
  }
  c.Pump();
}

// Fig. 4 at N nodes: the head of a two-object chain is replicated on every
// non-owner before the owner unlinks the tail and collects — reclamation must
// not race any of the N-1 replica invalidations.
void RunFig4Scaled(Cluster& c) {
  size_t n = c.size();
  std::vector<std::unique_ptr<Mutator>> muts;
  for (NodeId id = 0; id < n; ++id) {
    muts.push_back(std::make_unique<Mutator>(&c.node(id)));
  }
  BunchId b = c.CreateBunch(0);
  Gaddr head = muts[0]->Alloc(b, 2);
  muts[0]->AddRoot(head);
  Gaddr tail = muts[0]->Alloc(b, 2);
  muts[0]->WriteRef(head, 0, tail);
  c.Pump();
  for (NodeId id = 1; id < n; ++id) {
    if (muts[id]->AcquireRead(head)) {
      muts[id]->Release(head);
    }
  }
  c.Pump();
  if (muts[0]->AcquireWrite(head)) {
    muts[0]->WriteRef(head, 0, kNullAddr);
    muts[0]->Release(head);
  }
  c.node(0).gc().CollectBunch(b);
  c.Pump();
}

}  // namespace

std::vector<ExplorerScenario> StandardScenarios() {
  return {
      {"fig1-ssp-chain", ThreeNodes, RunFig1},
      {"fig2-token-migration", ThreeNodes, RunFig2Scaled},
      {"fig3-invalidate-fanout", ThreeNodes, RunFig3Scaled},
      {"fig4-reclaim-churn", ThreeNodes, RunFig4},
  };
}

std::vector<ExplorerScenario> ScaledScenarios(size_t num_nodes, const BatchPolicy& batch) {
  auto make = [num_nodes, batch](uint64_t root_seed) {
    return std::make_unique<Cluster>(ClusterOptions{
        .num_nodes = num_nodes, .seed = root_seed, .batch = batch});
  };
  std::string suffix = "@";
  suffix += std::to_string(num_nodes);
  return {
      {"fig1-ssp-chain" + suffix, make, RunFig1Scaled},
      {"fig2-token-migration" + suffix, make, RunFig2Scaled},
      {"fig3-invalidate-fanout" + suffix, make, RunFig3Scaled},
      {"fig4-reclaim-churn" + suffix, make, RunFig4Scaled},
  };
}

ExplorerScenario CanaryReorderScenario() {
  ExplorerScenario scenario;
  scenario.name = "canary-invalidate-reorder";
  scenario.make = ThreeNodes;
  scenario.run = [](Cluster& c) {
    Mutator m0(&c.node(0));
    Mutator m1(&c.node(1));
    Mutator m2(&c.node(2));
    BunchId b = c.CreateBunch(0);
    // The victim: owned by node 1 the whole run.  The canary corrupts node
    // 0's token table into claiming it, so there must be a legitimate owner
    // for the uniqueness check to collide with.
    Gaddr victim = m1.Alloc(b, 1);
    m1.AddRoot(victim);
    // The contended object: owned by node 0, replicated to nodes 1 and 2.
    Gaddr a = m0.Alloc(b, 1);
    m0.AddRoot(a);
    c.Pump();
    if (m1.AcquireRead(a)) {
      m1.Release(a);
    }
    if (m2.AcquireRead(a)) {
      m2.Release(a);
    }
    c.Pump();
    c.node(0).dsm().PlantCanaryReorderBugForTesting(c.node(1).dsm().OidAt(victim));
    // Re-acquiring the write token invalidates both replicas; the two acks
    // race back on different channels.  FIFO delivers them src-ascending
    // (channel (1,0) precedes (2,0)); any schedule that inverts them trips
    // the canary.
    if (m0.AcquireWrite(a)) {
      m0.WriteWord(a, 0, 7);
      m0.Release(a);
    }
    c.Pump();
  };
  return scenario;
}

ExplorerScenario StaleReadCanaryScenario() {
  ExplorerScenario scenario;
  scenario.name = "canary-stale-read";
  scenario.make = ThreeNodes;
  scenario.run = [](Cluster& c) {
    Mutator m0(&c.node(0));
    Mutator m1(&c.node(1));
    Mutator m2(&c.node(2));
    BunchId b = c.CreateBunch(0);
    Gaddr a = m0.Alloc(b, 1);
    m0.AddRoot(a);
    m0.WriteWord(a, 0, 1);
    c.Pump();
    // Both readers replicate the object and read the initial value.
    if (m1.AcquireRead(a)) {
      (void)m1.ReadWord(a, 0);
      m1.Release(a);
    }
    if (m2.AcquireRead(a)) {
      (void)m2.ReadWord(a, 0);
      m2.Release(a);
    }
    c.Pump();
    // The bug: the owner's next invalidation fan-out skips node 1, so node
    // 1's replica and read token survive the write upgrade.
    c.node(0).dsm().PlantStaleReadBugForTesting(1);
    if (m0.AcquireWrite(a)) {
      m0.WriteWord(a, 0, 7);
      m0.Release(a);
    }
    c.Pump();
    // Node 1 re-enters on the cached-token fast path: no messages, no causal
    // edge from the writer, stale bytes.  The checker flags the two critical
    // sections as concurrent-with-a-writer.
    if (m1.AcquireRead(a)) {
      (void)m1.ReadWord(a, 0);
      m1.Release(a);
    }
    c.Pump();
  };
  return scenario;
}

ExplorerScenario ZombieGrantCanaryScenario() {
  ExplorerScenario scenario;
  scenario.name = "canary-zombie-grant";
  scenario.make = ThreeNodes;
  scenario.run = [](Cluster& c) {
    Mutator m0(&c.node(0));
    Mutator m1(&c.node(1));
    BunchId b = c.CreateBunch(0);
    Gaddr a = m0.Alloc(b, 1);
    m0.AddRoot(a);
    c.Pump();
    // The gray failure: node 1 looks transport-healthy to node 0 (acks flow,
    // retransmission never fires) but every payload 0→1 is swallowed before
    // dispatch.  Installed inside the closure so recorded traces replay under
    // the same profile.
    LinkProfile zombie;
    zombie.zombie = true;
    c.network().InstallLinkProfile(0, 1, zombie);
    // The acquire reaches node 0 and is granted — the grant dies on the
    // zombie link, so the requester waits forever on a promise nothing can
    // discharge.  The acquire returns false (the network quiesced without
    // completion); its obligation stays open for the oracle.
    if (m1.AcquireRead(a)) {
      m1.Release(a);
    }
    c.Pump();
  };
  return scenario;
}

ExplorerScenario HistoryWorkloadScenario(const HistoryWorkloadOptions& options) {
  ExplorerScenario scenario;
  scenario.name = "history-workload";
  HistoryWorkloadOptions opts = options;
  scenario.make = [opts](uint64_t root_seed) {
    return std::make_unique<Cluster>(ClusterOptions{
        .num_nodes = static_cast<uint32_t>(opts.num_nodes), .seed = root_seed});
  };
  scenario.run = [opts](Cluster& c) {
    Rng rng(DeriveStreamSeed(c.seed(), RngStream::kWorkload));
    std::vector<std::unique_ptr<Mutator>> mutators;
    std::vector<BunchId> bunches;
    for (NodeId n = 0; n < opts.num_nodes; ++n) {
      mutators.push_back(std::make_unique<Mutator>(&c.node(n)));
      bunches.push_back(c.CreateBunch(n));
    }
    // Objects round-robin across creators; 3 slots each: [0] a creator-
    // initialized word (legally unbracketed — creators allocate with the
    // write token), [1] the contended word, [2] a reference slot.
    std::vector<Gaddr> objs(opts.objects);
    for (size_t j = 0; j < opts.objects; ++j) {
      NodeId creator = static_cast<NodeId>(j % opts.num_nodes);
      objs[j] = mutators[creator]->Alloc(bunches[creator], 3);
      mutators[creator]->AddRoot(objs[j]);
      mutators[creator]->WriteWord(objs[j], 0, j + 1);
    }
    for (size_t j = 0; j + 1 < opts.objects; ++j) {
      NodeId creator = static_cast<NodeId>(j % opts.num_nodes);
      mutators[creator]->WriteRef(objs[j], 2, objs[j + 1]);
    }
    c.Pump();
    for (size_t i = 0; i < opts.ops; ++i) {
      if (rng.Chance(opts.gc_chance)) {
        NodeId n = static_cast<NodeId>(rng.Below(opts.num_nodes));
        c.node(n).gc().CollectBunch(bunches[n]);
        c.Pump();
        continue;
      }
      NodeId n = static_cast<NodeId>(rng.Below(opts.num_nodes));
      size_t j = rng.Below(opts.objects);
      bool write_mode = rng.Chance(opts.write_fraction);
      // The whole access plan is drawn before touching the cluster, so the
      // rng stream advances identically even when the acquire is skipped or
      // denied under an adversarial schedule.
      struct PlannedAccess {
        bool is_ref;
        uint32_t slot;
        uint64_t arg;
      };
      std::vector<PlannedAccess> plan;
      do {
        PlannedAccess a;
        if (write_mode) {
          a.is_ref = rng.Chance(0.3);
          a.slot = a.is_ref ? 2u : 1u;
          a.arg = a.is_ref ? rng.Below(opts.objects) : rng.Below(1000);
        } else {
          a.is_ref = rng.Chance(0.5);
          a.slot = a.is_ref ? 2u : static_cast<uint32_t>(rng.Below(2));
          a.arg = 0;
        }
        plan.push_back(a);
      } while (rng.Chance(opts.extra_op_chance));
      if (c.node(n).dsm().AcquireInFlight()) {
        continue;  // an earlier denied acquire is still parked on this node
      }
      Mutator& m = *mutators[n];
      bool ok = write_mode ? m.AcquireWrite(objs[j]) : m.AcquireRead(objs[j]);
      if (!ok) {
        continue;
      }
      for (const PlannedAccess& a : plan) {
        if (write_mode) {
          if (a.is_ref) {
            m.WriteRef(objs[j], a.slot, objs[a.arg]);
          } else {
            m.WriteWord(objs[j], a.slot, a.arg);
          }
        } else {
          if (a.is_ref) {
            (void)m.ReadRef(objs[j], a.slot);
          } else {
            (void)m.ReadWord(objs[j], a.slot);
          }
        }
      }
      m.Release(objs[j]);
    }
    c.Pump();
  };
  return scenario;
}

}  // namespace bmx
