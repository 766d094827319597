#include "src/mem/segment.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

namespace bmx {

namespace {

// Mappings released by this thread's images, each zeroed and holding at most
// one resident page.  Destroyed at thread exit, after which `spares_gone`
// (trivially destructible, so still readable) sends releases to munmap.
thread_local bool spares_gone = false;

struct SpareMappings {
  std::vector<uint8_t*> maps;
  ~SpareMappings() {
    for (uint8_t* p : maps) {
      ASAN_UNPOISON_MEMORY_REGION(p, kSegmentBytes);
      munmap(p, kSegmentBytes);
    }
    spares_gone = true;
  }
};

thread_local SpareMappings spares;

// kSegmentBytes of zeroed memory: a spare when the thread has one, else a
// fresh mapping whose pages the kernel commits on first write.  NORESERVE:
// the untouched rest is not charged to the commit limit.
uint8_t* TakeSegmentBytes(SegmentId id) {
  if (!spares_gone && !spares.maps.empty()) {
    uint8_t* p = spares.maps.back();
    spares.maps.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(p, kSegmentBytes);
    return p;
  }
  void* p = mmap(nullptr, kSegmentBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  BMX_CHECK(p != MAP_FAILED) << "mmap of segment " << id << " failed, errno " << errno;
  // A transparent huge page would commit 2 MiB for one write; advisory only.
  madvise(p, kSegmentBytes, MADV_NOHUGEPAGE);
  return static_cast<uint8_t*>(p);
}

// Returns the mapping of an image whose writes all lie below `cursor` to the
// thread's spares: the first page is zeroed in place, the written pages past
// it go back to the kernel and read as zero again.  A stale pointer into the
// spare is a use-after-poison under ASan.
void ReleaseSegmentBytes(uint8_t* p, size_t cursor) {
  if (spares_gone) {
    munmap(p, kSegmentBytes);
    return;
  }
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::memset(p, 0, std::min(cursor, page));
  if (cursor > page) {
    const size_t written_end = (cursor + page - 1) / page * page;
    BMX_CHECK(madvise(p + page, written_end - page, MADV_DONTNEED) == 0)
        << "madvise of a released segment failed, errno " << errno;
  }
  ASAN_POISON_MEMORY_REGION(p, kSegmentBytes);
  spares.maps.push_back(p);
}

}  // namespace

SegmentImage::SegmentImage(SegmentId id, BunchId bunch)
    : id_(id), bunch_(bunch), bytes_(TakeSegmentBytes(id)) {
  GrowMapsToCursor();
}

SegmentImage::~SegmentImage() { ReleaseSegmentBytes(bytes_, cursor_); }

void SegmentImage::set_allocated_bytes(size_t cursor) {
  // Never down: the release zeroes only what lies below the cursor.
  BMX_CHECK_GE(cursor, cursor_);
  cursor_ = cursor;
  GrowMapsToCursor();
}

void SegmentImage::GrowMapsToCursor() {
  object_map_.GrowTo(cursor_ / kSlotBytes);
  ref_map_.GrowTo(cursor_ / kSlotBytes);
}

Gaddr SegmentImage::Allocate(Oid oid, uint32_t size_slots) {
  size_t footprint = ObjectFootprintBytes(size_slots);
  if (cursor_ + footprint > kSegmentBytes) {
    return kNullAddr;
  }
  size_t header_off = cursor_;
  cursor_ += footprint;
  GrowMapsToCursor();

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
  // Track the high-water mark so a replica image that later becomes a copy
  // source knows its extent.
  size_t end = data_off + size_t{header.size_slots} * kSlotBytes;
  if (end > cursor_) {
    cursor_ = end;
    GrowMapsToCursor();
  }
  object_map_.Set(header_off / kSlotBytes);
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
