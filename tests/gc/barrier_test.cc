// Write-barrier and SSP-creation tests (paper §3.1, §3.2).

#include <gtest/gtest.h>

#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"

namespace bmx {
namespace {

class BarrierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{.num_nodes = 2});
    m0_ = std::make_unique<Mutator>(&cluster_->node(0));
    m1_ = std::make_unique<Mutator>(&cluster_->node(1));
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Mutator> m0_;
  std::unique_ptr<Mutator> m1_;
};

TEST_F(BarrierTest, IntraBunchReferenceCreatesNoSsp) {
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = m0_->Alloc(b, 2);
  Gaddr c = m0_->Alloc(b, 2);
  m0_->WriteRef(a, 0, c);
  auto tables = cluster_->node(0).gc().TablesOf(b);
  EXPECT_TRUE(tables.inter_stubs.empty());
  EXPECT_TRUE(tables.inter_scions.empty());
  EXPECT_EQ(cluster_->node(0).gc().stats().barrier_writes, 1u);
  EXPECT_EQ(cluster_->node(0).gc().stats().barrier_inter_bunch, 0u);
}

TEST_F(BarrierTest, RepeatedSameStoreDoesNotDuplicateSsp) {
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = m0_->Alloc(b1, 2);
  Gaddr dst = m0_->Alloc(b2, 1);
  m0_->WriteRef(src, 0, dst);
  m0_->WriteRef(src, 0, dst);
  m0_->WriteRef(src, 0, dst);
  auto tables = cluster_->node(0).gc().TablesOf(b1);
  EXPECT_EQ(tables.inter_stubs.size(), 1u);
  EXPECT_EQ(cluster_->node(0).gc().TablesOf(b2).inter_scions.size(), 1u);
}

TEST_F(BarrierTest, OverwriteWithDifferentTargetCreatesSecondStub) {
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = m0_->Alloc(b1, 2);
  Gaddr t1 = m0_->Alloc(b2, 1);
  Gaddr t2 = m0_->Alloc(b2, 1);
  m0_->WriteRef(src, 0, t1);
  m0_->WriteRef(src, 0, t2);
  // Both stubs exist until the next BGC filters the dead one (§4.3).
  EXPECT_EQ(cluster_->node(0).gc().TablesOf(b1).inter_stubs.size(), 2u);
}

TEST_F(BarrierTest, RemoteTargetBunchTriggersScionMessage) {
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(1);
  // Target object lives only at node 1 (bunch b2 unmapped at node 0).
  Gaddr target = m1_->Alloc(b2, 1);

  Gaddr src = m0_->Alloc(b1, 2);
  m0_->WriteRef(src, 0, target);
  EXPECT_EQ(cluster_->node(0).gc().stats().scion_messages_sent, 1u);
  // Stub exists immediately; scion appears at node 1 after delivery.
  auto stubs = cluster_->node(0).gc().TablesOf(b1).inter_stubs;
  ASSERT_EQ(stubs.size(), 1u);
  EXPECT_EQ(stubs[0].scion_node, 1u);
  EXPECT_TRUE(cluster_->node(1).gc().TablesOf(b2).inter_scions.empty());
  cluster_->Pump();
  auto scions = cluster_->node(1).gc().TablesOf(b2).inter_scions;
  ASSERT_EQ(scions.size(), 1u);
  EXPECT_EQ(scions[0].stub_id, stubs[0].id);
  EXPECT_EQ(scions[0].src_node, 0u);
  EXPECT_EQ(scions[0].src_bunch, b1);
}

TEST_F(BarrierTest, DuplicateScionMessageIsIdempotent) {
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(1);
  Gaddr target = m1_->Alloc(b2, 1);
  Gaddr src = m0_->Alloc(b1, 2);
  m0_->WriteRef(src, 0, target);
  cluster_->Pump();
  // Re-deliver the same scion message by hand.
  auto stubs = cluster_->node(0).gc().TablesOf(b1).inter_stubs;
  ASSERT_EQ(stubs.size(), 1u);
  auto dup = std::make_shared<ScionMessagePayload>();
  dup->src_node = 0;
  dup->src_bunch = b1;
  dup->stub_id = stubs[0].id;
  dup->target_addr = stubs[0].target_addr;
  dup->target_bunch = b2;
  cluster_->network().Send(0, 1, std::move(dup));
  cluster_->Pump();
  EXPECT_EQ(cluster_->node(1).gc().TablesOf(b2).inter_scions.size(), 1u);
}

TEST_F(BarrierTest, NullStoreClearsSlotWithoutSsp) {
  BunchId b1 = cluster_->CreateBunch(0);
  BunchId b2 = cluster_->CreateBunch(0);
  Gaddr src = m0_->Alloc(b1, 2);
  Gaddr dst = m0_->Alloc(b2, 1);
  m0_->WriteRef(src, 0, dst);
  m0_->WriteRef(src, 0, kNullAddr);
  EXPECT_EQ(m0_->ReadRef(src, 0), kNullAddr);
  EXPECT_EQ(cluster_->node(0).gc().stats().barrier_inter_bunch, 1u);
}

TEST_F(BarrierTest, WriteWordClearsRefBit) {
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = m0_->Alloc(b, 2);
  Gaddr c = m0_->Alloc(b, 1);
  m0_->WriteRef(a, 0, c);
  EXPECT_TRUE(cluster_->node(0).gc().SlotIsRef(a, 0));
  m0_->WriteWord(a, 0, 12345);
  EXPECT_FALSE(cluster_->node(0).gc().SlotIsRef(a, 0));
}

TEST_F(BarrierTest, SameObjectSeesThroughForwarders) {
  BunchId b = cluster_->CreateBunch(0);
  Gaddr a = m0_->Alloc(b, 2);
  m0_->AddRoot(a);
  cluster_->node(0).gc().CollectBunch(b);
  Gaddr moved = cluster_->node(0).dsm().ResolveAddr(a);
  ASSERT_NE(moved, a);
  EXPECT_TRUE(m0_->SameObject(a, moved));
  EXPECT_FALSE(m0_->SameObject(a, kNullAddr));
  Gaddr other = m0_->Alloc(b, 1);
  EXPECT_FALSE(m0_->SameObject(a, other));
}

}  // namespace
}  // namespace bmx
