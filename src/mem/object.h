// On-heap object layout.
//
// "The object ... consists of a contiguous sequence of bytes ... Each object
// has an header that precedes the object's data, which includes system
// information such as the object's size." (paper §2.1)
//
// An object is addressed by the global address of its first data slot; the
// header occupies the three slots immediately before it.  When a BGC copies
// an object to to-space it writes a forwarding pointer into the header left
// in from-space (paper §4.2); the header is the only part of the old copy
// that stays meaningful.

#ifndef SRC_MEM_OBJECT_H_
#define SRC_MEM_OBJECT_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace bmx {

inline constexpr uint32_t kObjFlagForwarded = 1u << 0;
// Marks the designated persistent root object (persistence by reachability,
// paper §1/§2.1).
inline constexpr uint32_t kObjFlagPersistentRoot = 1u << 1;

struct ObjectHeader {
  Oid oid = kNullOid;         // stable internal id (DESIGN.md §4)
  uint32_t size_slots = 0;    // number of 8-byte data slots
  uint32_t flags = 0;
  Gaddr forward = kNullAddr;  // new location, valid when kObjFlagForwarded

  bool forwarded() const { return (flags & kObjFlagForwarded) != 0; }
};

static_assert(sizeof(ObjectHeader) == 24, "header must be exactly three slots");

inline constexpr size_t kHeaderSlots = sizeof(ObjectHeader) / kSlotBytes;
inline constexpr size_t kHeaderBytes = sizeof(ObjectHeader);

// Total footprint of an object with `size_slots` data slots.
constexpr size_t ObjectFootprintBytes(uint32_t size_slots) {
  return kHeaderBytes + size_t{size_slots} * kSlotBytes;
}

// One object's bytes as a message carries them (grants, pushes, from-space
// copy replies, recovery replies): the sender's address for it, its header,
// its data slots and which of those hold references.
struct ObjectImage {
  Gaddr addr = kNullAddr;
  ObjectHeader header;
  std::vector<uint64_t> slots;
  std::vector<uint8_t> slot_is_ref;

  // Wire bytes of the slots and their ref bits.  The header is charged by
  // the payload that ships it: grants do not charge it, every other
  // object-carrying payload charges kHeaderBytes.
  size_t SlotWireBytes() const { return slots.size() * kSlotBytes + slot_is_ref.size(); }
};

}  // namespace bmx

#endif  // SRC_MEM_OBJECT_H_
