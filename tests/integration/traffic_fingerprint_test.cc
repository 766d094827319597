// Traffic-consistency guard for performance work: the per-MsgKind message
// counts and wire bytes of three deterministic workloads (shaped like the E2,
// E5 and E9 benchmarks) are pinned to the values the seed implementation
// produced.  Any hot-path optimisation — scan kernels, lookup-table changes,
// piggyback coalescing — must leave this fingerprint bit-identical: the
// paper's efficiency claim is that GC information costs no *extra* protocol
// traffic, so a speedup that changes the traffic is a protocol change, not an
// optimisation.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/baselines/baseline_agent.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

struct KindCount {
  MsgKind kind;
  uint64_t sent;
  uint64_t bytes;
};

std::string Fingerprint(const NetworkStats& stats) {
  std::string out;
  for (size_t k = 0; k < static_cast<size_t>(MsgKind::kMaxKind); ++k) {
    const auto& pk = stats.per_kind[k];
    if (pk.sent == 0) {
      continue;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "%s:%llu:%llu\n", MsgKindName(static_cast<MsgKind>(k)),
                  static_cast<unsigned long long>(pk.sent),
                  static_cast<unsigned long long>(pk.bytes));
    out += line;
  }
  return out;
}

// Node 0 builds a linked list and replicates it on `replicas` nodes, exactly
// like BenchRig::BuildReplicatedList (duplicated here so the bench harness
// and this guard cannot drift apart silently — the shapes are pinned).
Gaddr BuildList(Cluster* cluster, std::vector<std::unique_ptr<Mutator>>* mutators, BunchId bunch,
                size_t count, size_t replicas) {
  Mutator& owner = *(*mutators)[0];
  Gaddr head = kNullAddr;
  for (size_t i = 0; i < count; ++i) {
    Gaddr node = owner.Alloc(bunch, 2);
    owner.WriteRef(node, 0, head);
    owner.WriteWord(node, 1, i);
    head = node;
  }
  owner.AddRoot(head);
  for (size_t r = 1; r < replicas; ++r) {
    Gaddr cur = head;
    while (cur != kNullAddr) {
      (*mutators)[r]->AcquireRead(cur);
      Gaddr next = (*mutators)[r]->ReadRef(cur, 0);
      (*mutators)[r]->Release(cur);
      cur = next;
    }
    (*mutators)[r]->AddRoot(head);
  }
  cluster->Pump();
  return head;
}

TEST(TrafficFingerprint, E2ReplicatedBgc) {
  Cluster cluster({.num_nodes = 8});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 8; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  BuildList(&cluster, &mutators, bunch, 200, 4);
  cluster.network().ResetStats();

  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "ReachabilityTable:3:60\n");
}

TEST(TrafficFingerprint, E5StrandedReclaim) {
  Cluster cluster({.num_nodes = 2});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 2; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  std::vector<Gaddr> objs;
  for (size_t i = 0; i < 64; ++i) {
    Gaddr o = mutators[0]->Alloc(bunch, 2);
    mutators[0]->AddRoot(o);
    objs.push_back(o);
  }
  for (Gaddr o : objs) {
    mutators[1]->AcquireWrite(o);
    mutators[1]->Release(o);
    mutators[0]->AcquireRead(o);
    mutators[0]->Release(o);
  }
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  cluster.network().ResetStats();

  cluster.node(0).gc().ReclaimFromSpaces(bunch);
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "CopyRequest:64:1536\n"
            "CopyReply:64:4224\n");
}

TEST(TrafficFingerprint, E9FlipPause) {
  Cluster cluster({.num_nodes = 3});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 3; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  BuildList(&cluster, &mutators, bunch, 512, 3);
  cluster.network().ResetStats();

  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "ReachabilityTable:2:40\n");
}

// Full-cycle variant: acquires after a BGC carry invariant-1 piggybacks, the
// richest traffic the optimisation pass touches.  Each list grant ships the
// next object's one-entry chain; the granted object's own chain already
// reached the reader as the previous grant's referent.
TEST(TrafficFingerprint, PostGcAcquireRound) {
  Cluster cluster({.num_nodes = 4});
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 4; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head = BuildList(&cluster, &mutators, bunch, 100, 2);
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  cluster.network().ResetStats();

  // Node 2 (never saw the bunch) walks the list; node 1 re-walks through its
  // stale addresses; node 3 write-acquires a few heads (ownership transfer).
  for (size_t r : {2u, 1u}) {
    Gaddr cur = head;
    while (cur != kNullAddr) {
      ASSERT_TRUE(mutators[r]->AcquireRead(cur));
      Gaddr next = mutators[r]->ReadRef(cur, 0);
      mutators[r]->Release(cur);
      cur = next;
    }
  }
  Gaddr cur = head;
  for (int i = 0; i < 8 && cur != kNullAddr; ++i) {
    ASSERT_TRUE(mutators[3]->AcquireWrite(cur));
    Gaddr next = mutators[3]->ReadRef(cur, 0);
    mutators[3]->Release(cur);
    cur = next;
  }
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "AcquireRequest:108:2592\n"
            "Grant:108:9412\n"
            "Invalidate:16:192\n"
            "InvalidateAck:16:192\n");
}

// Obligation tracking is pure observation: the acquire-round workload with
// the liveness ledger enabled must produce the identical pinned fingerprint
// (and the tracker must actually have seen traffic, so the guard is not
// vacuous).
TEST(TrafficFingerprint, PostGcAcquireRoundUnchangedByLivenessTracking) {
  Cluster cluster({.num_nodes = 4});
  cluster.network().obligations().Enable();
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < 4; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head = BuildList(&cluster, &mutators, bunch, 100, 2);
  cluster.node(0).gc().CollectBunch(bunch);
  cluster.Pump();
  cluster.network().ResetStats();

  for (size_t r : {2u, 1u}) {
    Gaddr cur = head;
    while (cur != kNullAddr) {
      ASSERT_TRUE(mutators[r]->AcquireRead(cur));
      Gaddr next = mutators[r]->ReadRef(cur, 0);
      mutators[r]->Release(cur);
      cur = next;
    }
  }
  Gaddr cur = head;
  for (int i = 0; i < 8 && cur != kNullAddr; ++i) {
    ASSERT_TRUE(mutators[3]->AcquireWrite(cur));
    Gaddr next = mutators[3]->ReadRef(cur, 0);
    mutators[3]->Release(cur);
    cur = next;
  }
  cluster.Pump();

  EXPECT_EQ(Fingerprint(cluster.network().stats()),
            "AcquireRequest:108:2592\n"
            "Grant:108:9412\n"
            "Invalidate:16:192\n"
            "InvalidateAck:16:192\n");
  EXPECT_GT(cluster.network().obligations().retired(), 0u);
  EXPECT_EQ(cluster.network().obligations().OpenCount(), 0u);
}

}  // namespace
}  // namespace bmx
