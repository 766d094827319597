// One node's image of a globally addressed segment.
//
// "A segment is a set of contiguous virtual memory pages with a constant
// size. BMX ensures that segments have non-overlapping addresses." (§2.1)
//
// Segment contents are described by two bit arrays (paper §8): the object-map
// (a set bit marks the slot where an object's header starts) and the
// reference-map (a set bit marks a slot that holds a pointer).  Both have one
// bit per 8-byte slot.
//
// Like the prototype's mapped pages, an image's bytes are an anonymous private
// mapping of the whole segment: the kernel commits a zeroed page only where
// the program writes, so a nearly empty segment costs about one page.  The
// maps cover only the slots below the allocation cursor and grow with it, so
// they too cost what the image holds.
//
// Replicas map and drop images at collection rate (every BGC evacuates into
// fresh to-space segments), so a dropped image's mapping is not unmapped but
// kept on its thread's list of spares for the next image.  Every byte an
// image writes lies below its cursor (SlotPtr checks it), so on release the
// first page is zeroed below the cursor and the written pages past it are
// handed back to the kernel: a spare holds at most one resident page, zeroed,
// and a reused image is byte for byte a fresh one.  Dense to-spaces therefore
// still fault their pages in on reuse; keeping them would let a spare that
// comes back as a sparse replica hold memory it never uses.  A thread's list
// never holds more spares than the most images the thread held at once.

#ifndef SRC_MEM_SEGMENT_H_
#define SRC_MEM_SEGMENT_H_

#include <cstddef>
#include <cstdint>

#include "src/common/bitmap.h"
#include "src/common/types.h"
#include "src/mem/object.h"

namespace bmx {

class SegmentImage {
 public:
  SegmentImage(SegmentId id, BunchId bunch);
  ~SegmentImage();
  SegmentImage(const SegmentImage&) = delete;
  SegmentImage& operator=(const SegmentImage&) = delete;

  SegmentId id() const { return id_; }
  BunchId bunch() const { return bunch_; }
  Gaddr base() const { return SegmentBase(id_); }

  // The kSegmentBytes of the image; stable for the image's lifetime.
  uint8_t* bytes() { return bytes_; }
  const uint8_t* bytes() const { return bytes_; }

  Bitmap& object_map() { return object_map_; }
  const Bitmap& object_map() const { return object_map_; }
  Bitmap& ref_map() { return ref_map_; }
  const Bitmap& ref_map() const { return ref_map_; }

  // Header of the object whose data starts at `obj_addr`, or nullptr unless
  // the object-map confirms a header just below it (§8).  Forwarders count:
  // their headers stay in the map.  A slot inside an object's data, an erased
  // object, the segment's first slot and anything at or past the cursor,
  // where the map ends, hold no object.
  ObjectHeader* HeaderOf(Gaddr obj_addr) {
    size_t off = OffsetInSegment(obj_addr);
    if (off < kHeaderBytes) {
      return nullptr;
    }
    size_t header_slot = (off - kHeaderBytes) / kSlotBytes;
    if (header_slot >= object_map_.size() || !object_map_.Test(header_slot)) {
      return nullptr;
    }
    return reinterpret_cast<ObjectHeader*>(bytes_ + off - kHeaderBytes);
  }
  const ObjectHeader* HeaderOf(Gaddr obj_addr) const {
    return const_cast<SegmentImage*>(this)->HeaderOf(obj_addr);
  }

  // Every slot lies below the cursor: a released image is zeroed only there.
  uint64_t* SlotPtr(Gaddr obj_addr, size_t slot) {
    size_t off = OffsetInSegment(obj_addr) + slot * kSlotBytes;
    BMX_CHECK_LT(off, cursor_);
    return reinterpret_cast<uint64_t*>(bytes_ + off);
  }

  size_t SlotIndexOf(Gaddr addr) const { return OffsetInSegment(addr) / kSlotBytes; }

  // Bump allocation (only the node that created the segment allocates into
  // it; other replicas receive bytes through the DSM/GC protocols).  Returns
  // the new object's data address, or kNullAddr if the segment is full.
  Gaddr Allocate(Oid oid, uint32_t size_slots);

  // Installs object bytes at a specific address (replica side: a copy pushed
  // by the owner, or an address-update application).  Marks the object-map.
  void InstallObject(Gaddr obj_addr, const ObjectHeader& header, const uint64_t* slots);

  // Removes the object starting at obj_addr from the object-map and zeroes
  // its ref-map bits.  Used when dropping a local replica of an object.
  void EraseObject(Gaddr obj_addr);

  // The allocation cursor: every object header lies below it, because
  // Allocate and InstallObject move it past each object they place.
  size_t allocated_bytes() const { return cursor_; }
  // For recovery into a fresh image: restore the allocation cursor saved at
  // checkpoint time; the maps grow to cover the slots below it.
  void set_allocated_bytes(size_t cursor);

  // Iterates object data addresses present in this image, in address order.
  // Word-level scan of the object-map below the cursor: empty 64-slot runs
  // cost one load, and the unused tail of the segment costs nothing.
  // Visitor signature: void(Gaddr obj_addr, ObjectHeader& header).
  template <typename Fn>
  void ForEachObject(Fn&& fn) {
    auto& perf = GlobalPerfCounters();
    perf.words_skipped += object_map_.ForEachSetInRange(0, cursor_ / kSlotBytes, [&](size_t bit) {
      perf.objects_walked++;
      size_t header_off = bit * kSlotBytes;
      auto* header = reinterpret_cast<ObjectHeader*>(bytes_ + header_off);
      Gaddr obj_addr = base() + header_off + kHeaderBytes;
      fn(obj_addr, *header);
    });
  }

  // Scan kernel: visits only the *reference* slots of the object whose data
  // starts at `obj_addr`, straight off the ref-map words — a sparse ref-map
  // costs one load per 64 slots instead of one Test per slot.
  // Visitor signature: void(size_t slot, uint64_t value).
  template <typename Fn>
  void ForEachRefSlotOf(Gaddr obj_addr, uint32_t size_slots, Fn&& fn) const {
    const size_t first = SlotIndexOf(obj_addr);
    auto& perf = GlobalPerfCounters();
    perf.slots_scanned += size_slots;
    perf.words_skipped += ref_map_.ForEachSetInRange(first, first + size_slots, [&](size_t bit) {
      perf.ref_slots_visited++;
      const uint64_t* p =
          reinterpret_cast<const uint64_t*>(bytes_ + bit * kSlotBytes);
      fn(bit - first, *p);
    });
  }

 private:
  // Grows both maps to one bit per slot below the cursor.
  void GrowMapsToCursor();

  SegmentId id_;
  BunchId bunch_;
  uint8_t* bytes_;  // kSegmentBytes of private anonymous mapping
  Bitmap object_map_;  // one bit per slot below the cursor
  Bitmap ref_map_;     // likewise
  size_t cursor_ = kSlotBytes;  // slot 0 unused so no object sits at offset 0
};

}  // namespace bmx

#endif  // SRC_MEM_SEGMENT_H_
