#include "src/mem/segment.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

namespace bmx {

namespace {

// kSegmentBytes of zeroed memory whose pages the kernel commits on first
// write.  NORESERVE: the untouched rest is not charged to the commit limit.
uint8_t* MapSegmentBytes(SegmentId id) {
  void* p = mmap(nullptr, kSegmentBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  BMX_CHECK(p != MAP_FAILED) << "mmap of segment " << id << " failed, errno " << errno;
  // A transparent huge page would commit 2 MiB for one write; advisory only.
  madvise(p, kSegmentBytes, MADV_NOHUGEPAGE);
  return static_cast<uint8_t*>(p);
}

}  // namespace

SegmentImage::SegmentImage(SegmentId id, BunchId bunch)
    : id_(id),
      bunch_(bunch),
      bytes_(MapSegmentBytes(id)),
      object_map_(kSlotsPerSegment),
      ref_map_(kSlotsPerSegment) {}

SegmentImage::~SegmentImage() { munmap(bytes_, kSegmentBytes); }

Gaddr SegmentImage::Allocate(Oid oid, uint32_t size_slots) {
  size_t footprint = ObjectFootprintBytes(size_slots);
  if (cursor_ + footprint > kSegmentBytes) {
    return kNullAddr;
  }
  size_t header_off = cursor_;
  cursor_ += footprint;

  auto* header = reinterpret_cast<ObjectHeader*>(bytes_ + header_off);
  header->oid = oid;
  header->size_slots = size_slots;
  header->flags = 0;
  header->forward = kNullAddr;
  std::memset(bytes_ + header_off + kHeaderBytes, 0, size_t{size_slots} * kSlotBytes);

  object_map_.Set(header_off / kSlotBytes);
  return base() + header_off + kHeaderBytes;
}

void SegmentImage::InstallObject(Gaddr obj_addr, const ObjectHeader& header,
                                 const uint64_t* slots) {
  size_t data_off = OffsetInSegment(obj_addr);
  BMX_CHECK_GE(data_off, kHeaderBytes);
  size_t header_off = data_off - kHeaderBytes;
  BMX_CHECK_LE(data_off + size_t{header.size_slots} * kSlotBytes, kSegmentBytes);

  std::memcpy(bytes_ + header_off, &header, kHeaderBytes);
  if (header.size_slots > 0 && slots != nullptr) {
    std::memcpy(bytes_ + data_off, slots, size_t{header.size_slots} * kSlotBytes);
  }
  object_map_.Set(header_off / kSlotBytes);
  // Track the high-water mark so a replica image that later becomes a copy
  // source knows its extent.
  size_t end = data_off + size_t{header.size_slots} * kSlotBytes;
  if (end > cursor_) {
    cursor_ = end;
  }
}

void SegmentImage::EraseObject(Gaddr obj_addr) {
  size_t data_off = OffsetInSegment(obj_addr);
  BMX_CHECK_GE(data_off, kHeaderBytes);
  size_t header_off = data_off - kHeaderBytes;
  auto* header = reinterpret_cast<ObjectHeader*>(bytes_ + header_off);
  size_t first_slot = data_off / kSlotBytes;
  for (size_t i = 0; i < header->size_slots; ++i) {
    ref_map_.Clear(first_slot + i);
  }
  object_map_.Clear(header_off / kSlotBytes);
  std::memset(bytes_ + header_off, 0, ObjectFootprintBytes(header->size_slots));
}

}  // namespace bmx
