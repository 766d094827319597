// Persistence and crash recovery (paper §2.1/§8 plus docs/PROTOCOLS.md
// "Crash recovery & fault model"): segments are backed by files through RVM; a
// checkpointed bunch survives a node crash; objects not reachable from the
// persistent root are not kept (persistence by reachability).  A restarted
// node runs RecoveryManager::RunRecovery() end to end — log replay, manifest
// reload, object re-adoption, SSP rebuild and peer reconciliation.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/perf_counters.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/runtime/oracle.h"
#include "src/runtime/persistence.h"
#include "src/workload/graph_builder.h"
#include "tests/mem/resident_pages.h"

namespace bmx {
namespace {

TEST(Recovery, CheckpointedBunchSurvivesCrash) {
  Cluster cluster({.num_nodes = 1});
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr head;
  {
    Mutator m(&cluster.node(0));
    GraphBuilder builder(&cluster, &m);
    head = builder.BuildList(bunch, 25);
    m.AddRoot(head);
    cluster.node(0).CheckpointBunch(bunch);
  }

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  EXPECT_EQ(fresh.recovery().RecoveredBunches(), std::vector<BunchId>{bunch});

  // The whole list is intact.
  Mutator m(&fresh);
  Gaddr cur = head;
  size_t len = 0;
  while (cur != kNullAddr) {
    ASSERT_TRUE(m.AcquireRead(cur));
    EXPECT_EQ(m.ReadWord(cur, 1), len + 1);
    Gaddr next = m.ReadRef(cur, 0);
    m.Release(cur);
    cur = next;
    len++;
  }
  EXPECT_EQ(len, 25u);
}

TEST(Recovery, LoadRejectsAnObjectPastTheCursor) {
  Disk disk;
  PersistenceManager persistence(&disk, /*node=*/0);
  SegmentImage image(/*id=*/4, /*bunch=*/1);
  ASSERT_NE(image.Allocate(/*oid=*/1, /*size_slots=*/2), kNullAddr);
  persistence.CheckpointSegments({&image});
  persistence.TruncateLog();  // applies the log to the data and meta files
  SegmentImage loaded(4, 1);
  ASSERT_TRUE(persistence.LoadSegment(&loaded));
  EXPECT_EQ(loaded.allocated_bytes(), image.allocated_bytes());

  // The meta file opens with the little-endian cursor.  Reset it to an empty
  // segment's, so the object's header bit lies past it, then past the end.
  SegmentImage corrupt(4, 1);
  const uint8_t empty_cursor[8] = {kSlotBytes};
  disk.Write("seg_4.meta", 0, empty_cursor, sizeof empty_cursor);
  EXPECT_DEATH(persistence.LoadSegment(&corrupt), "object past cursor");
  const uint8_t cursor_past_end[8] = {0, 0, 0, 0, 1};  // 2^32
  disk.Write("seg_4.meta", 0, cursor_past_end, sizeof cursor_past_end);
  EXPECT_DEATH(persistence.LoadSegment(&corrupt), "corrupt segment meta for 4: cursor");
}

TEST(Recovery, LoadRejectsAReferencePastTheCursor) {
  Disk disk;
  PersistenceManager persistence(&disk, /*node=*/0);
  SegmentImage image(/*id=*/4, /*bunch=*/1);
  ASSERT_NE(image.Allocate(/*oid=*/1, /*size_slots=*/2), kNullAddr);
  persistence.CheckpointSegments({&image});
  persistence.TruncateLog();

  // The meta file holds the cursor, the bunch, then the object-map and the
  // ref-map as a whole segment's words each.  Set the ref-map bit of the last
  // slot below the cursor, which loads, then of the slot at the cursor.
  const size_t ref_map_at = 16 + kSlotsPerSegment / 8;
  const size_t cursor_slot = image.allocated_bytes() / kSlotBytes;
  ASSERT_LT(cursor_slot, 64u);
  auto write_ref_word = [&](uint64_t word) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(word >> (i * 8));
    }
    disk.Write("seg_4.meta", ref_map_at, bytes, sizeof bytes);
  };
  write_ref_word(uint64_t{1} << (cursor_slot - 1));
  SegmentImage loaded(4, 1);
  ASSERT_TRUE(persistence.LoadSegment(&loaded));
  EXPECT_TRUE(loaded.ref_map().Test(cursor_slot - 1));

  write_ref_word(uint64_t{1} << cursor_slot);
  SegmentImage corrupt(4, 1);
  EXPECT_DEATH(persistence.LoadSegment(&corrupt), "reference past cursor");
}

TEST(Recovery, CheckpointLogsOnlyWhatTheSegmentHolds) {
  Disk disk;
  PersistenceManager persistence(&disk, /*node=*/0);
  SegmentImage image(/*id=*/4, /*bunch=*/1);
  Gaddr obj = image.Allocate(/*oid=*/1, /*size_slots=*/3);
  ASSERT_NE(obj, kNullAddr);
  *image.SlotPtr(obj, 0) = 0x1234;
  *image.SlotPtr(obj, 2) = SegmentBase(7) + 64;
  image.ref_map().Set(image.SlotIndexOf(obj) + 2);
  persistence.CheckpointSegments({&image});
  // A one-object segment logs its prefix, not the whole kSegmentBytes.
  EXPECT_LT(persistence.rvm().stats().log_bytes, kSegmentBytes / 16);

  persistence.TruncateLog();
  SegmentImage loaded(4, 1);
  const uint64_t read_before = disk.stats().bytes_read;
  ASSERT_TRUE(persistence.LoadSegment(&loaded));
  // The load reads the meta file and the bytes below the cursor, so the
  // loaded image commits no more pages than the original.
  EXPECT_LT(disk.stats().bytes_read - read_before, kSegmentBytes / 16);
  EXPECT_LE(ResidentPages(loaded), 1u);
  ASSERT_EQ(loaded.allocated_bytes(), image.allocated_bytes());
  EXPECT_EQ(std::memcmp(loaded.bytes(), image.bytes(), image.allocated_bytes()), 0);
  EXPECT_EQ(loaded.object_map().words(), image.object_map().words());
  EXPECT_EQ(loaded.ref_map().words(), image.ref_map().words());
}

TEST(Recovery, UncheckpointedChangesAreLost) {
  Cluster cluster({.num_nodes = 1});
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr obj;
  {
    Mutator m(&cluster.node(0));
    obj = m.Alloc(bunch, 2);
    m.WriteWord(obj, 0, 111);
    cluster.node(0).CheckpointBunch(bunch);
    // Post-checkpoint mutation, never persisted.
    m.WriteWord(obj, 0, 222);
  }
  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  Mutator m(&fresh);
  ASSERT_TRUE(m.AcquireRead(obj));
  EXPECT_EQ(m.ReadWord(obj, 0), 111u);  // checkpointed value, not 222
  m.Release(obj);
}

TEST(Recovery, PersistenceByReachability) {
  // Only objects reachable from the persistent root should reach disk: run a
  // BGC (reclaiming garbage) before checkpointing, then compare live bytes.
  Cluster cluster({.num_nodes = 1});
  Mutator m(&cluster.node(0));
  GraphBuilder builder(&cluster, &m);
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr persistent_root = builder.BuildList(bunch, 10);
  m.AddRoot(persistent_root);
  builder.BuildList(bunch, 100);  // unreachable: must not be persisted

  cluster.node(0).gc().CollectBunch(bunch);
  cluster.node(0).gc().ReclaimFromSpaces(bunch);
  cluster.Pump();
  cluster.node(0).CheckpointBunch(bunch);

  // Everything persisted fits in the to-space segment; the garbage (100
  // objects) was reclaimed before hitting the disk.
  size_t live = cluster.node(0).gc().LiveBytesOf(bunch);
  EXPECT_LE(live, 10 * ObjectFootprintBytes(2) + ObjectFootprintBytes(2));
  // Disk holds only the collected segments (from-space files were never
  // written for this bunch because the checkpoint ran after reclamation).
  size_t data_files = 0;
  for (const auto& name : cluster.disk().ListFiles()) {
    if (name.find(".data") != std::string::npos) {
      data_files++;
    }
  }
  EXPECT_EQ(data_files, cluster.node(0).store().SegmentsOfBunch(bunch).size());
}

TEST(Recovery, CheckpointTwiceKeepsLatest) {
  Cluster cluster({.num_nodes = 1});
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr obj;
  {
    Mutator m(&cluster.node(0));
    obj = m.Alloc(bunch, 1);
    m.WriteWord(obj, 0, 1);
    cluster.node(0).CheckpointBunch(bunch);
    m.WriteWord(obj, 0, 2);
    cluster.node(0).CheckpointBunch(bunch);
  }
  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  Mutator m(&fresh);
  ASSERT_TRUE(m.AcquireRead(obj));
  EXPECT_EQ(m.ReadWord(obj, 0), 2u);
  m.Release(obj);
}

TEST(Recovery, SurvivingNodesContinueAfterPeerCrash) {
  Cluster cluster({.num_nodes = 3});
  Mutator m0(&cluster.node(0));
  Mutator m2(&cluster.node(2));
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 5);
  m0.Release(a);
  m0.AddRoot(a);

  cluster.CrashNode(1);
  // Node 2 can still fault the object in from its owner.
  ASSERT_TRUE(m2.AcquireRead(a));
  EXPECT_EQ(m2.ReadWord(a, 0), 5u);
  m2.Release(a);
}

TEST(Recovery, PeerReconciliationRestoresReadersAndCopySets) {
  // Node 0 owns an object, node 1 holds a read token.  Node 0 crashes and
  // recovers; the reconciliation must re-learn node 1's replica (copy-set +
  // entering ownerPtr) so invalidation still reaches it on the next write.
  Cluster cluster({.num_nodes = 2});
  cluster.perf() = PerfCounters{};
  BunchId bunch = cluster.CreateBunch(0);
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 5);
  m0.Release(a);
  m0.AddRoot(a);
  cluster.node(0).CheckpointBunch(bunch);
  ASSERT_TRUE(m1.AcquireRead(a));
  EXPECT_EQ(m1.ReadWord(a, 0), 5u);
  m1.Release(a);
  cluster.Pump();

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  EXPECT_GE(cluster.perf().recoveries, 1u);
  EXPECT_GT(cluster.perf().recovery_query_bytes, 0u);

  // Node 1's read token survived and is accounted again.
  Oid oid = cluster.directory().OidAtAddress(a);
  ASSERT_NE(oid, kNullOid);
  EXPECT_EQ(cluster.node(1).dsm().StateOf(oid), TokenState::kRead);

  // A fresh write at the recovered owner must invalidate node 1's copy.
  Mutator m0b(&fresh);
  ASSERT_TRUE(m0b.AcquireWrite(a));
  m0b.WriteWord(a, 0, 6);
  m0b.Release(a);
  cluster.Pump();
  ASSERT_TRUE(m1.AcquireRead(a));
  EXPECT_EQ(m1.ReadWord(a, 0), 6u);
  m1.Release(a);

  InvariantOracle oracle(&cluster);
  EXPECT_TRUE(oracle.Check().empty());
}

TEST(Recovery, OwnershipTransferredBeforeCrashIsNotReclaimed) {
  // Node 0 creates and checkpoints an object, then node 1 write-acquires it
  // (ownership moves).  Node 0 crashes and recovers: its checkpointed claim
  // is stale — the directory names node 1, so node 0 must come back as a
  // tokenless replica, not a second owner.
  Cluster cluster({.num_nodes = 2});
  BunchId bunch = cluster.CreateBunch(0);
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 7);
  m0.Release(a);
  m0.AddRoot(a);
  cluster.node(0).CheckpointBunch(bunch);

  ASSERT_TRUE(m1.AcquireWrite(a));
  m1.WriteWord(a, 0, 8);
  m1.Release(a);
  m1.AddRoot(a);
  cluster.Pump();

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();

  Oid oid = cluster.directory().OidAtAddress(a);
  ASSERT_NE(oid, kNullOid);
  EXPECT_FALSE(fresh.dsm().IsLocallyOwned(oid));
  EXPECT_EQ(cluster.directory().OwnerOf(oid), 1u);
  InvariantOracle oracle(&cluster);
  std::vector<std::string> violations = oracle.Check();
  EXPECT_TRUE(violations.empty()) << violations.front();

  // The recovered replica re-acquires through the real owner and sees the
  // latest committed value.
  Mutator m0b(&fresh);
  ASSERT_TRUE(m0b.AcquireRead(a));
  EXPECT_EQ(m0b.ReadWord(a, 0), 8u);
  m0b.Release(a);
}

TEST(Recovery, VacuousOwnershipIsForgotten) {
  // An allocation that never reached a checkpoint dies with the node: after
  // recovery the directory must not keep routing acquires to an owner with
  // no bytes.
  Cluster cluster({.num_nodes = 2});
  BunchId bunch = cluster.CreateBunch(0);
  Gaddr a;
  {
    Mutator m0(&cluster.node(0));
    a = m0.Alloc(bunch, 2);
    // No checkpoint: the object exists only in volatile state.
  }
  Oid oid = cluster.directory().OidAtAddress(a);
  ASSERT_NE(oid, kNullOid);
  ASSERT_EQ(cluster.directory().OwnerOf(oid), 0u);

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();

  EXPECT_EQ(cluster.directory().OwnerOf(oid), kInvalidNode);
  InvariantOracle oracle(&cluster);
  EXPECT_TRUE(oracle.Check().empty());

  // Acquiring the dangling address fails cleanly instead of wedging.
  Mutator m1(&cluster.node(1));
  EXPECT_FALSE(m1.AcquireRead(a));
}

TEST(Recovery, InterBunchSspsSurviveScionNodeCrash) {
  // Node 1 holds an inter-bunch stub whose scion lives on node 0.  Node 0
  // crashes and recovers: reconciliation must recreate the scion (from node
  // 1's surviving stub), or node 0's next BGC could reclaim a remotely
  // referenced object.
  Cluster cluster({.num_nodes = 2});
  BunchId b0 = cluster.CreateBunch(0);
  BunchId b1 = cluster.CreateBunch(1);
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Gaddr target = m0.Alloc(b0, 2);
  ASSERT_TRUE(m0.AcquireWrite(target));
  m0.WriteWord(target, 0, 9);
  m0.Release(target);
  cluster.node(0).CheckpointBunch(b0);

  Gaddr holder = m1.Alloc(b1, 2);
  m1.AddRoot(holder);
  ASSERT_TRUE(m1.AcquireWrite(holder));
  m1.WriteRef(holder, 0, target);  // cross-bunch: stub at 1, scion at 0
  m1.Release(holder);
  cluster.Pump();

  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();

  // The scion is back; a BGC at node 0 with no local root for `target` must
  // keep it alive (the scion is the root).
  fresh.gc().CollectBunch(b0);
  cluster.Pump();
  ASSERT_TRUE(m1.AcquireRead(holder));
  Gaddr ref = m1.ReadRef(holder, 0);
  m1.Release(holder);
  Mutator m0b(&fresh);
  ASSERT_TRUE(m0b.AcquireRead(ref));
  EXPECT_EQ(m0b.ReadWord(ref, 0), 9u);
  m0b.Release(ref);

  InvariantOracle oracle(&cluster);
  std::vector<std::string> violations = oracle.Check();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(Recovery, StaleWireCopiesFromPreviousLifeAreRejected) {
  // Epoch filtering: wire copies emitted by a node's previous life must not
  // reach handlers after the node recovers.
  Cluster cluster({.num_nodes = 2});
  cluster.perf() = PerfCounters{};
  BunchId bunch = cluster.CreateBunch(0);
  Mutator m0(&cluster.node(0));
  Mutator m1(&cluster.node(1));
  Gaddr a = m0.Alloc(bunch, 2);
  ASSERT_TRUE(m0.AcquireWrite(a));
  m0.WriteWord(a, 0, 1);
  m0.Release(a);
  m0.AddRoot(a);
  cluster.node(0).CheckpointBunch(bunch);

  // Leave a grant from node 0 in flight, then crash node 0 before delivery.
  m1.AcquireRead(a);  // may complete: the pump delivers everything
  cluster.node(1).dsm().BeginAcquire(a, /*write=*/true);
  // The acquire request is now queued toward node 0; deliver it so node 0
  // emits a grant, then crash node 0 with the grant still on the wire.
  while (cluster.network().DeliverOne()) {
    if (cluster.network().stats().For(MsgKind::kGrant).sent > 1) {
      break;
    }
  }
  cluster.CrashNode(0);
  Node& fresh = cluster.RestartNode(0);
  fresh.recovery().RunRecovery();
  cluster.Pump();
  EXPECT_EQ(cluster.network().stats().For(MsgKind::kGrant).delivered,
            cluster.network().stats().For(MsgKind::kGrant).sent -
                cluster.network().stats().For(MsgKind::kGrant).epoch_rejected);
}

}  // namespace
}  // namespace bmx
