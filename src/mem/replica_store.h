// Per-node heap: the set of segment images this node has mapped, plus the
// node's view of where each object currently lives.
//
// Different nodes legitimately see the same object at different addresses
// after an asynchronous BGC (paper §4.2): the old address keeps a forwarding
// header until every reference is updated.  ResolveForward() implements the
// local half of that contract; the oid→address table is this node's lazily
// updated knowledge of new locations (fed by piggybacked address updates).
//
// Hot-path layout: both tables are open-addressing hash maps (protocol
// behaviour never depends on their iteration order — SegmentsOfBunch /
// AllSegments sort their output), and SegmentFor carries a one-entry MRU
// cache because slot-granular callers (ReadSlot/WriteSlot/SlotIsRef) probe
// the same segment dozens of times in a row.  The cache is a plain member:
// a store belongs to one node of one cluster, and every cluster is driven by
// exactly one thread, so no two threads ever read a store at once.

#ifndef SRC_MEM_REPLICA_STORE_H_
#define SRC_MEM_REPLICA_STORE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/perf_counters.h"
#include "src/common/types.h"
#include "src/mem/object.h"
#include "src/mem/segment.h"

namespace bmx {

class ReplicaStore {
 public:
  bool HasSegment(SegmentId seg) const { return segments_.count(seg) > 0; }

  SegmentImage* Find(SegmentId seg) {
    GlobalPerfCounters().segment_probes++;
    if (mru_ != nullptr && mru_->id() == seg) {
      GlobalPerfCounters().segment_mru_hits++;
      return mru_;
    }
    auto it = segments_.find(seg);
    if (it == segments_.end()) {
      return nullptr;
    }
    mru_ = it->second.get();
    return mru_;
  }
  const SegmentImage* Find(SegmentId seg) const {
    return const_cast<ReplicaStore*>(this)->Find(seg);
  }

  SegmentImage& GetOrCreate(SegmentId seg, BunchId bunch);
  void Drop(SegmentId seg);

  // Segment image containing `addr`, or nullptr if unmapped locally.
  SegmentImage* SegmentFor(Gaddr addr) { return Find(SegmentOf(addr)); }
  const SegmentImage* SegmentFor(Gaddr addr) const { return Find(SegmentOf(addr)); }

  // Header of the object at `obj_addr`; nullptr when its segment is unmapped.
  ObjectHeader* HeaderOf(Gaddr obj_addr);
  const ObjectHeader* HeaderOf(Gaddr obj_addr) const;

  // Follows locally visible forwarding headers to the most current address
  // this node knows for the object nominally at `addr`.
  Gaddr ResolveForward(Gaddr addr) const;

  // True if a mapped segment's object-map confirms an object header for data
  // address `addr` (forwarders count: their headers stay in the object-map).
  bool HasObjectAt(Gaddr addr) const;

  // Raw slot access (no barrier, no token check — callers layer those).
  uint64_t ReadSlot(Gaddr obj_addr, size_t slot) const;
  void WriteSlot(Gaddr obj_addr, size_t slot, uint64_t value);
  bool SlotIsRef(Gaddr obj_addr, size_t slot) const;
  void SetSlotIsRef(Gaddr obj_addr, size_t slot, bool is_ref);

  // Scan kernel: one segment lookup for the whole object, then a word-level
  // ref-map walk.  Replaces per-slot SlotIsRef+ReadSlot loops on the GC and
  // grant-fill hot paths.  Visitor signature: void(size_t slot, uint64_t value).
  template <typename Fn>
  void ForEachRefSlot(Gaddr obj_addr, uint32_t size_slots, Fn&& fn) const {
    const SegmentImage* image = SegmentFor(obj_addr);
    BMX_CHECK(image != nullptr) << "segment unmapped for addr " << obj_addr;
    image->ForEachRefSlotOf(obj_addr, size_slots, static_cast<Fn&&>(fn));
  }

  // This node's current address for an object id; kNullAddr when unknown.
  Gaddr AddrOfOid(Oid oid) const;
  void SetAddrOfOid(Oid oid, Gaddr addr);
  void ForgetOid(Oid oid);

  std::vector<SegmentId> SegmentsOfBunch(BunchId bunch) const;
  std::vector<SegmentId> AllSegments() const;

  // Copies the full object (header + slots + ref-map bits) from a mapped
  // source address to a destination address whose segment must be mapped.
  void CopyObjectBytes(Gaddr from_addr, Gaddr to_addr);

 private:
  std::unordered_map<SegmentId, std::unique_ptr<SegmentImage>> segments_;
  std::unordered_map<Oid, Gaddr> oid_addr_;
  mutable SegmentImage* mru_ = nullptr;  // last segment Find() returned
};

}  // namespace bmx

#endif  // SRC_MEM_REPLICA_STORE_H_
