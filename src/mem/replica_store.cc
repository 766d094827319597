#include "src/mem/replica_store.h"

#include <algorithm>

#include "src/common/check.h"

namespace bmx {

SegmentImage& ReplicaStore::GetOrCreate(SegmentId seg, BunchId bunch) {
  auto it = segments_.find(seg);
  if (it == segments_.end()) {
    it = segments_.emplace(seg, std::make_unique<SegmentImage>(seg, bunch)).first;
  }
  return *it->second;
}

void ReplicaStore::Drop(SegmentId seg) {
  if (mru_ != nullptr && mru_->id() == seg) {
    mru_ = nullptr;  // never leave the MRU cache dangling
  }
  segments_.erase(seg);
}

ObjectHeader* ReplicaStore::HeaderOf(Gaddr obj_addr) {
  SegmentImage* image = SegmentFor(obj_addr);
  return image == nullptr ? nullptr : image->HeaderOf(obj_addr);
}

const ObjectHeader* ReplicaStore::HeaderOf(Gaddr obj_addr) const {
  return const_cast<ReplicaStore*>(this)->HeaderOf(obj_addr);
}

Gaddr ReplicaStore::ResolveForward(Gaddr addr) const {
  Gaddr current = addr;
  // A forwarding chain can have several hops if the object moved more than
  // once before this node caught up; bounded by hop budget as a safety net.
  for (int hops = 0; hops < 64; ++hops) {
    // HeaderOf confirms a header in the object-map: a stale address into
    // reused space is not chased.
    const ObjectHeader* header = HeaderOf(current);
    if (header == nullptr || !header->forwarded()) {
      return current;
    }
    current = header->forward;
  }
  BMX_CHECK(false) << "forwarding chain too long at addr " << addr;
  return current;
}

uint64_t ReplicaStore::ReadSlot(Gaddr obj_addr, size_t slot) const {
  const SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr) << "segment unmapped for addr " << obj_addr;
  return *const_cast<SegmentImage*>(image)->SlotPtr(obj_addr, slot);
}

void ReplicaStore::WriteSlot(Gaddr obj_addr, size_t slot, uint64_t value) {
  SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr) << "segment unmapped for addr " << obj_addr;
  *image->SlotPtr(obj_addr, slot) = value;
}

bool ReplicaStore::SlotIsRef(Gaddr obj_addr, size_t slot) const {
  const SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr);
  return image->ref_map().Test(image->SlotIndexOf(obj_addr) + slot);
}

void ReplicaStore::SetSlotIsRef(Gaddr obj_addr, size_t slot, bool is_ref) {
  SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr);
  size_t bit = image->SlotIndexOf(obj_addr) + slot;
  if (is_ref) {
    image->ref_map().Set(bit);
  } else {
    image->ref_map().Clear(bit);
  }
}

ObjectImage ReplicaStore::CaptureObject(Gaddr obj_addr) const {
  const SegmentImage* image = SegmentFor(obj_addr);
  BMX_CHECK(image != nullptr) << "segment unmapped for addr " << obj_addr;
  const ObjectHeader* header = image->HeaderOf(obj_addr);
  BMX_CHECK(header != nullptr) << "no object to capture at " << obj_addr;
  ObjectImage out;
  out.addr = obj_addr;
  out.header = *header;
  const uint32_t size = out.header.size_slots;
  // Bulk-copy the slots, then mark ref slots straight off the ref-map words.
  // A slotless object has no slot to point at: its data address may be the
  // cursor.
  if (size > 0) {
    const uint64_t* src = const_cast<SegmentImage*>(image)->SlotPtr(obj_addr, 0);
    out.slots.assign(src, src + size);
  }
  out.slot_is_ref.assign(size, 0);
  image->ForEachRefSlotOf(obj_addr, size,
                          [&](size_t slot, uint64_t) { out.slot_is_ref[slot] = 1; });
  return out;
}

Gaddr ReplicaStore::AddrOfOid(Oid oid) const {
  GlobalPerfCounters().oid_probes++;
  auto it = oid_addr_.find(oid);
  return it == oid_addr_.end() ? kNullAddr : it->second;
}

void ReplicaStore::SetAddrOfOid(Oid oid, Gaddr addr) { oid_addr_[oid] = addr; }

void ReplicaStore::ForgetOid(Oid oid) { oid_addr_.erase(oid); }

std::vector<SegmentId> ReplicaStore::SegmentsOfBunch(BunchId bunch) const {
  std::vector<SegmentId> out;
  for (const auto& [id, image] : segments_) {
    if (image->bunch() == bunch) {
      out.push_back(id);
    }
  }
  // The backing table is unordered; callers (GC scans, persistence) depend on
  // ascending segment order for determinism.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SegmentId> ReplicaStore::AllSegments() const {
  std::vector<SegmentId> out;
  out.reserve(segments_.size());
  for (const auto& [id, image] : segments_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ReplicaStore::CopyObjectBytes(Gaddr from_addr, Gaddr to_addr) {
  SegmentImage* src = SegmentFor(from_addr);
  SegmentImage* dst = SegmentFor(to_addr);
  BMX_CHECK(src != nullptr && dst != nullptr);
  const ObjectHeader* src_header = src->HeaderOf(from_addr);
  BMX_CHECK(src_header != nullptr) << "no object to copy at " << from_addr;
  ObjectHeader copy = *src_header;
  copy.flags &= ~kObjFlagForwarded;
  copy.forward = kNullAddr;
  dst->InstallObject(to_addr, copy,
                     copy.size_slots > 0 ? src->SlotPtr(from_addr, 0) : nullptr);
  // Reference-map bits travel with the object: clear the destination range,
  // then set only the bits the source ref-map has (word-level scan).
  size_t src_first = src->SlotIndexOf(from_addr);
  size_t dst_first = dst->SlotIndexOf(to_addr);
  for (size_t i = 0; i < copy.size_slots; ++i) {
    dst->ref_map().Clear(dst_first + i);
  }
  src->ref_map().ForEachSetInRange(src_first, src_first + copy.size_slots, [&](size_t bit) {
    dst->ref_map().Set(dst_first + (bit - src_first));
  });
}

}  // namespace bmx
