#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/mem/directory.h"
#include "src/mem/replica_store.h"
#include "src/mem/segment.h"
#include "tests/mem/resident_pages.h"

namespace bmx {
namespace {

TEST(SegmentImage, AllocateLaysOutHeaderAndData) {
  SegmentImage seg(3, 1);
  Gaddr a = seg.Allocate(/*oid=*/77, /*size_slots=*/4);
  ASSERT_NE(a, kNullAddr);
  EXPECT_EQ(SegmentOf(a), 3u);
  const ObjectHeader* h = seg.HeaderOf(a);
  EXPECT_EQ(h->oid, 77u);
  EXPECT_EQ(h->size_slots, 4u);
  EXPECT_FALSE(h->forwarded());
  // Object-map bit sits at the header slot.
  size_t header_slot = (OffsetInSegment(a) - kHeaderBytes) / kSlotBytes;
  EXPECT_TRUE(seg.object_map().Test(header_slot));
}

TEST(SegmentImage, AllocationsDoNotOverlap) {
  SegmentImage seg(1, 1);
  Gaddr a = seg.Allocate(1, 2);
  Gaddr b = seg.Allocate(2, 2);
  EXPECT_GE(b, a + 2 * kSlotBytes + kHeaderBytes);
}

TEST(SegmentImage, AllocateFailsWhenFull) {
  SegmentImage seg(1, 1);
  uint32_t big = static_cast<uint32_t>(kSlotsPerSegment / 2);
  EXPECT_NE(seg.Allocate(1, big), kNullAddr);
  EXPECT_EQ(seg.Allocate(2, big), kNullAddr);  // second does not fit
}

TEST(SegmentImage, ForEachObjectVisitsInAddressOrder) {
  SegmentImage seg(1, 1);
  Gaddr a = seg.Allocate(1, 1);
  Gaddr b = seg.Allocate(2, 3);
  Gaddr c = seg.Allocate(3, 2);
  std::vector<Gaddr> seen;
  seg.ForEachObject([&](Gaddr addr, ObjectHeader&) { seen.push_back(addr); });
  EXPECT_EQ(seen, (std::vector<Gaddr>{a, b, c}));
}

TEST(SegmentImage, InstallAndEraseObject) {
  SegmentImage src(1, 1);
  SegmentImage dst(2, 1);
  Gaddr a = src.Allocate(5, 2);
  *src.SlotPtr(a, 0) = 111;
  *src.SlotPtr(a, 1) = 222;

  Gaddr target = MakeAddr(2, 1024 + kHeaderBytes);
  dst.InstallObject(target, *src.HeaderOf(a), src.SlotPtr(a, 0));
  EXPECT_EQ(*dst.SlotPtr(target, 0), 111u);
  EXPECT_EQ(*dst.SlotPtr(target, 1), 222u);
  EXPECT_EQ(dst.HeaderOf(target)->oid, 5u);

  dst.EraseObject(target);
  size_t header_slot = (OffsetInSegment(target) - kHeaderBytes) / kSlotBytes;
  EXPECT_FALSE(dst.object_map().Test(header_slot));
}

TEST(SegmentImage, UntouchedPagesAreNotCommitted) {
  SegmentImage seg(3, 1);
  ASSERT_NE(seg.Allocate(/*oid=*/1, /*size_slots=*/3), kNullAddr);
  EXPECT_LE(ResidentPages(seg), 1u);
}

TEST(SegmentImage, ForEachObjectFindsAnObjectInstalledPastTheCursor) {
  SegmentImage replica(2, 1);
  ObjectHeader header;
  header.oid = 9;
  header.size_slots = 2;
  const uint64_t slots[2] = {7, 8};
  const Gaddr far = MakeAddr(2, 128 * 1024 + kHeaderBytes);
  replica.InstallObject(far, header, slots);

  std::vector<Gaddr> seen;
  replica.ForEachObject([&](Gaddr addr, ObjectHeader& h) {
    EXPECT_EQ(h.oid, 9u);
    seen.push_back(addr);
  });
  EXPECT_EQ(seen, std::vector<Gaddr>{far});

  replica.EraseObject(far);
  seen.clear();
  replica.ForEachObject([&](Gaddr addr, ObjectHeader&) { seen.push_back(addr); });
  EXPECT_TRUE(seen.empty());
}

TEST(Directory, IdsAndMembership) {
  SegmentDirectory dir;
  BunchId b1 = dir.CreateBunch(0);
  BunchId b2 = dir.CreateBunch(1);
  EXPECT_NE(b1, b2);
  EXPECT_EQ(dir.BunchCreator(b1), 0u);
  EXPECT_EQ(dir.BunchCreator(b2), 1u);

  SegmentId s1 = dir.AllocateSegment(b1, 0);
  SegmentId s2 = dir.AllocateSegment(b1, 1);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(dir.BunchOfSegment(s1), b1);
  EXPECT_EQ(dir.SegmentCreator(s2), 1u);
  EXPECT_EQ(dir.SegmentsOfBunch(b1).size(), 2u);
  EXPECT_TRUE(dir.SegmentsOfBunch(b2).empty());
}

TEST(Directory, OidsAreUnique) {
  SegmentDirectory dir;
  Oid a = dir.NextOid();
  Oid b = dir.NextOid();
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNullOid);
}

TEST(Directory, RetiredSegmentsKeepLookupsWorking) {
  SegmentDirectory dir;
  BunchId b = dir.CreateBunch(0);
  SegmentId s = dir.AllocateSegment(b, 0);
  dir.RetireSegment(s);
  EXPECT_TRUE(dir.IsRetired(s));
  EXPECT_EQ(dir.BunchOfSegment(s), b);  // tombstone still answers
  EXPECT_EQ(dir.SegmentCreator(s), 0u);
  EXPECT_TRUE(dir.SegmentsOfBunch(b).empty());
}

TEST(Directory, MapperRegistry) {
  SegmentDirectory dir;
  BunchId b = dir.CreateBunch(0);
  dir.NoteMapped(b, 0);
  dir.NoteMapped(b, 2);
  EXPECT_TRUE(dir.IsMappedAt(b, 0));
  EXPECT_FALSE(dir.IsMappedAt(b, 1));
  EXPECT_EQ(dir.MappersOf(b).size(), 2u);
  dir.NoteUnmapped(b, 0);
  EXPECT_FALSE(dir.IsMappedAt(b, 0));
}

TEST(Directory, ForgetClearsEveryAddressOfTheOid) {
  SegmentDirectory dir;
  const Oid oid = 5;
  const std::vector<Gaddr> addrs = {MakeAddr(1, 64), MakeAddr(2, 64), MakeAddr(3, 128)};
  dir.RecordOwner(oid, 2);
  for (Gaddr addr : addrs) {
    dir.RecordObjectAddress(oid, addr);
  }
  EXPECT_EQ(dir.OidAtAddress(addrs[0]), oid);
  EXPECT_EQ(dir.CanonicalAddressOf(oid), addrs[2]);

  dir.ForgetObjectAddresses(oid);
  for (Gaddr addr : addrs) {
    EXPECT_EQ(dir.OidAtAddress(addr), kNullOid);
  }
  EXPECT_EQ(dir.CanonicalAddressOf(oid), kNullAddr);
  EXPECT_EQ(dir.OwnerOf(oid), kInvalidNode);
  EXPECT_TRUE(dir.OwnedBy(2).empty());
}

TEST(Directory, ForgetKeepsAnotherOidsAddresses) {
  SegmentDirectory dir;
  const Gaddr a = MakeAddr(1, 64);
  const Gaddr b = MakeAddr(1, 128);
  const Gaddr c = MakeAddr(2, 64);
  dir.RecordOwner(5, 0);
  dir.RecordOwner(6, 1);
  dir.RecordObjectAddress(5, a);
  dir.RecordObjectAddress(6, b);
  dir.RecordObjectAddress(6, c);

  dir.ForgetObjectAddresses(5);
  EXPECT_EQ(dir.OidAtAddress(a), kNullOid);
  EXPECT_EQ(dir.OidAtAddress(b), 6u);
  EXPECT_EQ(dir.OidAtAddress(c), 6u);
  EXPECT_EQ(dir.CanonicalAddressOf(6), c);
  EXPECT_EQ(dir.OwnerOf(6), 1u);
}

TEST(Directory, AddressReRecordedForAnotherOidSurvivesTheForget) {
  // A recovered node whose allocation cursor was reset can place a new
  // object at an address a dead one once held.
  SegmentDirectory dir;
  const Gaddr reused = MakeAddr(1, 64);
  const Gaddr moved = MakeAddr(2, 64);
  dir.RecordObjectAddress(5, reused);
  dir.RecordObjectAddress(5, moved);
  dir.RecordObjectAddress(6, reused);

  dir.ForgetObjectAddresses(5);
  EXPECT_EQ(dir.OidAtAddress(reused), 6u);
  EXPECT_EQ(dir.OidAtAddress(moved), kNullOid);
  EXPECT_EQ(dir.CanonicalAddressOf(6), reused);
}

TEST(ReplicaStore, ForwardingResolution) {
  ReplicaStore store;
  SegmentDirectory dir;
  BunchId b = dir.CreateBunch(0);
  SegmentId s = dir.AllocateSegment(b, 0);
  SegmentImage& img = store.GetOrCreate(s, b);
  Gaddr a1 = img.Allocate(1, 2);
  Gaddr a2 = img.Allocate(1, 2);
  EXPECT_EQ(store.ResolveForward(a1), a1);
  ObjectHeader* h = store.HeaderOf(a1);
  h->flags |= kObjFlagForwarded;
  h->forward = a2;
  EXPECT_EQ(store.ResolveForward(a1), a2);
}

TEST(ReplicaStore, ResolveThroughChain) {
  ReplicaStore store;
  SegmentDirectory dir;
  BunchId b = dir.CreateBunch(0);
  SegmentId s = dir.AllocateSegment(b, 0);
  SegmentImage& img = store.GetOrCreate(s, b);
  Gaddr a1 = img.Allocate(1, 1);
  Gaddr a2 = img.Allocate(1, 1);
  Gaddr a3 = img.Allocate(1, 1);
  store.HeaderOf(a1)->flags |= kObjFlagForwarded;
  store.HeaderOf(a1)->forward = a2;
  store.HeaderOf(a2)->flags |= kObjFlagForwarded;
  store.HeaderOf(a2)->forward = a3;
  EXPECT_EQ(store.ResolveForward(a1), a3);
}

TEST(ReplicaStore, ResolveOfUnmappedAddressIsIdentity) {
  ReplicaStore store;
  Gaddr somewhere = MakeAddr(55, 4096);
  EXPECT_EQ(store.ResolveForward(somewhere), somewhere);
  EXPECT_FALSE(store.HasObjectAt(somewhere));
}

TEST(ReplicaStore, SlotAndRefBitAccess) {
  ReplicaStore store;
  SegmentImage& img = store.GetOrCreate(4, 1);
  Gaddr a = img.Allocate(9, 3);
  store.WriteSlot(a, 0, 0xDEAD);
  store.SetSlotIsRef(a, 0, true);
  EXPECT_EQ(store.ReadSlot(a, 0), 0xDEADu);
  EXPECT_TRUE(store.SlotIsRef(a, 0));
  EXPECT_FALSE(store.SlotIsRef(a, 1));
  store.SetSlotIsRef(a, 0, false);
  EXPECT_FALSE(store.SlotIsRef(a, 0));
}

TEST(ReplicaStore, CopyObjectBytesCarriesRefMap) {
  ReplicaStore store;
  SegmentImage& img = store.GetOrCreate(4, 1);
  store.GetOrCreate(5, 1);
  Gaddr a = img.Allocate(9, 2);
  store.WriteSlot(a, 0, 123);
  store.SetSlotIsRef(a, 0, true);
  store.WriteSlot(a, 1, 456);

  Gaddr target = MakeAddr(5, 512 + kHeaderBytes);
  store.CopyObjectBytes(a, target);
  EXPECT_EQ(store.ReadSlot(target, 0), 123u);
  EXPECT_TRUE(store.SlotIsRef(target, 0));
  EXPECT_FALSE(store.SlotIsRef(target, 1));
  EXPECT_EQ(store.HeaderOf(target)->oid, 9u);
  EXPECT_FALSE(store.HeaderOf(target)->forwarded());
}

TEST(ReplicaStore, OidAddressMap) {
  ReplicaStore store;
  EXPECT_EQ(store.AddrOfOid(42), kNullAddr);
  store.SetAddrOfOid(42, 1000);
  EXPECT_EQ(store.AddrOfOid(42), 1000u);
  store.ForgetOid(42);
  EXPECT_EQ(store.AddrOfOid(42), kNullAddr);
}

TEST(ReplicaStore, SegmentsOfBunchFilters) {
  ReplicaStore store;
  store.GetOrCreate(1, 10);
  store.GetOrCreate(2, 10);
  store.GetOrCreate(3, 11);
  EXPECT_EQ(store.SegmentsOfBunch(10).size(), 2u);
  EXPECT_EQ(store.SegmentsOfBunch(11).size(), 1u);
  EXPECT_EQ(store.AllSegments().size(), 3u);
  store.Drop(2);
  EXPECT_EQ(store.SegmentsOfBunch(10).size(), 1u);
}

}  // namespace
}  // namespace bmx
