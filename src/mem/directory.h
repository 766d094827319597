// Global segment directory — the role the BMX-server plays in the prototype
// (paper §8): "A BMX-server runs on every node in the system and provides
// basic services, such as allocation of non-overlapping segments."
//
// The directory is the authority for: fresh segment addresses, fresh bunch
// ids, fresh object ids, segment→bunch membership, the creator node of each
// segment/bunch, and which nodes currently have each bunch mapped.  In a real
// deployment this state is itself replicated between the per-node servers;
// here it is a single shared structure, which the simulation may consult
// without message cost only for operations the paper assigns to the local
// BMX-server.

#ifndef SRC_MEM_DIRECTORY_H_
#define SRC_MEM_DIRECTORY_H_

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/perf_counters.h"
#include "src/common/types.h"

namespace bmx {

class SegmentDirectory {
 public:
  SegmentDirectory() = default;

  BunchId CreateBunch(NodeId creator);
  SegmentId AllocateSegment(BunchId bunch, NodeId creator);
  Oid NextOid() { return next_oid_++; }

  bool BunchExists(BunchId bunch) const { return bunch >= 1 && bunch < bunches_.size(); }
  BunchId BunchOfSegment(SegmentId seg) const;
  NodeId SegmentCreator(SegmentId seg) const;
  NodeId BunchCreator(BunchId bunch) const;
  const std::vector<SegmentId>& SegmentsOfBunch(BunchId bunch) const;

  // Removes a segment from its bunch (after from-space reclamation frees it,
  // paper §4.5).  The address range is never reissued; a tombstone keeps
  // bunch/creator lookups working for nodes still holding stale images.
  void RetireSegment(SegmentId seg);
  bool IsRetired(SegmentId seg) const;

  // Authoritative object-location/owner registry — the BMX-server's
  // knowledge.  In the paper's page-based DSM every node of a mapped bunch
  // can resolve any address through its own (possibly stale) pages; this
  // byte-lazy simulation instead lets per-node resolution state erode, so
  // the directory keeps the ground truth as a routing *backstop*.  The
  // per-node mechanisms — in-heap forwarders, piggybacked address updates,
  // ownerPtr chains with Li-style compression — remain the fast path and are
  // what the tests and benchmarks measure.
  void RecordOwner(Oid oid, NodeId owner) { owners_[oid] = owner; }
  NodeId OwnerOf(Oid oid) const {
    GlobalPerfCounters().directory_probes++;
    auto it = owners_.find(oid);
    return it == owners_.end() ? kInvalidNode : it->second;
  }
  // Sorted list of every oid whose owner of record is `node`.  Recovery uses
  // it to enumerate a restarted node's ownership claims and forget vacuous
  // ones (owned on paper, bytes nowhere — e.g. an allocation that never
  // reached a checkpoint).
  std::vector<Oid> OwnedBy(NodeId node) const {
    std::vector<Oid> out;
    for (const auto& [oid, owner] : owners_) {
      if (owner == node) {
        out.push_back(oid);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Every global address an object has ever occupied maps to its oid; the
  // oid maps to its current canonical address (owner's copy).
  void RecordObjectAddress(Oid oid, Gaddr addr) {
    ObjectAddresses& entry = addresses_[oid];
    entry.canonical = addr;
    auto [it, inserted] = addr_to_oid_.try_emplace(addr, oid);
    if (inserted || it->second != oid) {
      it->second = oid;
      entry.recorded.push_back(addr);
    }
  }
  Oid OidAtAddress(Gaddr addr) const {
    GlobalPerfCounters().directory_probes++;
    auto it = addr_to_oid_.find(addr);
    return it == addr_to_oid_.end() ? kNullOid : it->second;
  }
  Gaddr CanonicalAddressOf(Oid oid) const {
    GlobalPerfCounters().directory_probes++;
    auto it = addresses_.find(oid);
    return it == addresses_.end() ? kNullAddr : it->second.canonical;
  }
  // Called when an object is reclaimed at its owner (globally dead).  Visits
  // only the oid's own addresses; one since re-recorded for another oid keeps
  // that oid.
  void ForgetObjectAddresses(Oid oid) {
    if (auto entry = addresses_.find(oid); entry != addresses_.end()) {
      for (Gaddr addr : entry->second.recorded) {
        auto it = addr_to_oid_.find(addr);
        if (it != addr_to_oid_.end() && it->second == oid) {
          addr_to_oid_.erase(it);
        }
      }
      addresses_.erase(entry);
    }
    owners_.erase(oid);
  }

  void NoteMapped(BunchId bunch, NodeId node);
  void NoteUnmapped(BunchId bunch, NodeId node);
  const std::set<NodeId>& MappersOf(BunchId bunch) const;
  bool IsMappedAt(BunchId bunch, NodeId node) const;

  std::vector<BunchId> AllBunches() const;

 private:
  struct BunchInfo {
    NodeId creator = kInvalidNode;
    std::vector<SegmentId> segments;
    std::set<NodeId> mappers;
  };
  struct SegmentInfo {
    BunchId bunch = kInvalidBunch;
    NodeId creator = kInvalidNode;
    bool retired = false;
  };
  // An oid's canonical address and the addresses recorded for it: an
  // address is listed each time addr_to_oid_ starts naming this oid there.
  struct ObjectAddresses {
    Gaddr canonical = kNullAddr;
    std::vector<Gaddr> recorded;
  };

  const SegmentInfo& SegmentAt(SegmentId seg) const;

  Oid next_oid_ = 1;
  // Bunch/segment ids are issued densely starting at 1 (segment 0 reserved so
  // global address 0 is never a valid slot), so the registries are flat
  // vectors indexed by id — slot 0 of each is an unused sentinel.  Neither
  // bunches nor segments are ever deleted (retirement is a tombstone flag).
  std::vector<BunchInfo> bunches_{1};
  std::vector<SegmentInfo> segments_{1};
  std::unordered_map<Oid, NodeId> owners_;
  std::unordered_map<Gaddr, Oid> addr_to_oid_;
  std::unordered_map<Oid, ObjectAddresses> addresses_;
};

}  // namespace bmx

#endif  // SRC_MEM_DIRECTORY_H_
