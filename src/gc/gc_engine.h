// Per-node garbage collection engine: the paper's three sub-algorithms plus
// the write barrier and the from-space reclamation protocol.
//
//   * BGC (§4): copying collection of one local bunch replica, independent of
//     other bunches and of other replicas of the same bunch.  Copies only
//     locally-owned live objects (non-destructively, O'Toole-style: the old
//     copy keeps a forwarding header); merely scans non-owned live objects,
//     even if their data is inconsistent — scanning an old version is merely
//     conservative.  Rebuilds the stub table and the exiting-ownerPtr list,
//     then ships them to scion cleaners in the background.  Never acquires a
//     token, never blocks an application.
//   * Scion cleaner (§6): consumes reachability tables from other nodes and
//     deletes inter/intra-bunch scions and entering ownerPtrs that no
//     surviving stub or exiting ownerPtr justifies.
//   * GGC (§7): collects a *group* of locally mapped bunches at once; scions
//     whose stub originates inside the local group are not roots, so
//     intra-site inter-bunch garbage cycles collapse.
//   * From-space reclamation (§4.5): the only GC path that uses explicit
//     messages — address-change notices plus copy requests to owners of live
//     objects still parked in the segment being freed.
//
// The engine implements DsmGcHooks so the DSM layer can maintain invariant 3
// (intra-bunch SSP creation on ownership transfer) and keep SSP target
// addresses fresh as address updates arrive.

#ifndef SRC_GC_GC_ENGINE_H_
#define SRC_GC_GC_ENGINE_H_

#include <map>
#include <set>
#include <vector>

#include "src/common/bitmap.h"
#include "src/common/types.h"
#include "src/dsm/dsm_node.h"
#include "src/dsm/gc_hooks.h"
#include "src/gc/gc_stats.h"
#include "src/gc/payloads.h"
#include "src/gc/ssp.h"
#include "src/mem/directory.h"
#include "src/mem/replica_store.h"
#include "src/net/network.h"

namespace bmx {

// Supplies (and lets the collector update) the local mutator roots — "the
// local root includes mutator stacks" (Figure 1).
class RootProvider {
 public:
  virtual ~RootProvider() = default;
  virtual std::vector<Gaddr*> RootSlots() = 0;
};

// When the scion cleaner processes incoming reachability tables.
enum class CleanerMode {
  kImmediate,  // on receipt
  kDeferred,   // accumulated; processed at the start of the next local BGC (§6.1)
};

// What invariant 3 ships with an ownership transfer (§3.2).  The paper
// chooses intra-bunch SSPs "in order to reduce the number of scion messages
// and the amount of memory consumed for GC purposes"; the alternative is
// implemented so the ablation benchmark can quantify that argument.
enum class TransferPolicy {
  kIntraSsp,            // the paper's design: one intra-bunch SSP link
  kReplicateInterSsp,   // copy every inter-bunch stub to the new owner
};

class GcEngine : public DsmGcHooks, public MessageHandler {
 public:
  GcEngine(NodeId id, Network* network, SegmentDirectory* directory, ReplicaStore* store,
           DsmNode* dsm);

  NodeId id() const { return id_; }
  void set_cleaner_mode(CleanerMode mode) { cleaner_mode_ = mode; }
  void set_transfer_policy(TransferPolicy policy) { transfer_policy_ = policy; }

  // --- Bunch replica lifecycle ---
  void RegisterBunchReplica(BunchId bunch);

  void AddRootProvider(RootProvider* provider);
  void RemoveRootProvider(RootProvider* provider);

  // --- Allocation ---
  // Allocates an object with `size_slots` data slots in `bunch`; the creating
  // node owns it (write token).  Grows the bunch by a fresh segment on
  // overflow (bunches exist precisely because one segment is not flexible
  // enough for that, §2.1).
  Gaddr Allocate(BunchId bunch, uint32_t size_slots);

  // --- Mutator heap access (write barrier, §3.2) ---
  // Stores `target` into reference slot `slot` of the object at `obj_addr`.
  // Detects inter-bunch reference creation and builds the SSP: locally if the
  // target's bytes are present, else via a scion-message.
  void WriteRef(Gaddr obj_addr, size_t slot, Gaddr target);
  // Stores a scalar; clears the slot's reference bit.
  void WriteWord(Gaddr obj_addr, size_t slot, uint64_t value);
  uint64_t ReadSlot(Gaddr obj_addr, size_t slot) const;
  bool SlotIsRef(Gaddr obj_addr, size_t slot) const;

  // Pointer comparison that accounts for forwarding pointers (§4.2, §8: "a
  // special operation is provided to perform pointer comparison").
  bool SameObject(Gaddr a, Gaddr b) const;
  // The most current local address for `addr` (follows in-heap forwarders and
  // stale-forward records for freed from-space segments).
  Gaddr Canonical(Gaddr addr) const { return dsm_->ResolveAddr(addr); }

  // --- Collections ---
  // Bunch garbage collection of the local replica of `bunch`.
  void CollectBunch(BunchId bunch);
  // Group collection over every bunch currently mapped at this node
  // (locality-based grouping heuristic, §7), or an explicit group.
  void CollectGroup();
  void CollectGroup(const std::vector<BunchId>& group);

  // --- From-space reclamation (§4.5) ---
  // Frees every from-space segment this node's BGCs have retired for `bunch`.
  // Sends address-change notices and copy requests; the network must be
  // pumped until idle for the acks to arrive, after which the segments are
  // dropped (and retired globally if we created them).
  void ReclaimFromSpaces(BunchId bunch);
  // True when no reclaim round is still waiting for acks.
  bool ReclaimQuiescent() const { return pending_reclaims_.empty(); }

  // --- Scion cleaner (§6) ---
  void ProcessDeferredTables();

  // --- Crash recovery (RecoveryManager and its peers) ---
  // Peer side: `peer` restarted and is reconciling.  Its table-version
  // counters restart at 1, so the staleness filter for it is reset; until
  // ClearRecoveringPeer, tables claiming to come from it are applied
  // additively only (no scion/entering deletions — conservative retention
  // while the owner bunch is mid-recovery).
  void NoteRecoveringPeer(NodeId peer);
  void ClearRecoveringPeer(NodeId peer);
  // Recovering side: rebuilds the inter-bunch SSPs of `bunch` from the
  // recovered heap (fresh stub ids; scions recreated locally or by
  // scion-message).  The previous life's scions at peers become conservative
  // slack until the first post-recovery reachability table retires them.
  void RebuildSspsFromHeap(BunchId bunch);
  // Adds the scion half of an SSP unless it is already there: for a received
  // scion-message (inter), for an outgoing ownership transfer (intra), and
  // when a recovering node re-adopts scions whose stubs peers still hold.
  void AddInterScion(NodeId src_node, uint64_t stub_id, BunchId src_bunch, Gaddr target_addr,
                     BunchId target_bunch);
  void AddIntraScion(Oid oid, BunchId bunch, NodeId stub_node);
  // Bunches this node holds a replica of (sorted; recovery query content).
  std::vector<BunchId> ReplicaBunches() const;

  // --- DsmGcHooks ---
  void PrepareOwnershipTransfer(Oid oid, BunchId bunch, NodeId new_owner,
                                Piggyback* piggyback) override;
  void CreateIntraStub(const IntraSspRequest& request) override;
  void InstallReplicatedStub(const InterStubTemplate& stub_template) override;
  void OnAddressUpdate(const AddressUpdate& update) override;

  // --- MessageHandler (GC message kinds only; runtime::Node routes) ---
  void HandleMessage(const Message& msg) override;

  // --- Introspection for tests / benches ---
  struct BunchTables {
    std::vector<InterStub> inter_stubs;
    std::vector<IntraStub> intra_stubs;
    std::vector<InterScion> inter_scions;
    std::vector<IntraScion> intra_scions;
  };
  BunchTables TablesOf(BunchId bunch) const;

  // Heap accounting for one bunch replica: live objects/bytes, forwarding
  // headers awaiting from-space reclamation, and dead (reclaimable) bytes.
  struct HeapReport {
    size_t segments = 0;
    size_t allocated_bytes = 0;
    size_t live_objects = 0;
    size_t live_bytes = 0;
    size_t forwarders = 0;
    size_t forwarder_bytes = 0;
    double Utilization() const {
      return allocated_bytes == 0 ? 1.0
                                  : static_cast<double>(live_bytes) /
                                        static_cast<double>(allocated_bytes);
    }
  };
  HeapReport ReportOf(BunchId bunch);

  std::vector<SegmentId> FromSpacesOf(BunchId bunch) const;
  // Live bytes (headers + data of live objects) in the local replica.
  size_t LiveBytesOf(BunchId bunch);
  // Canonical addresses of all live local objects of `bunch`: the strongly
  // reachable ones in ascending address order, then the weak-only ones in
  // ascending order.  Shared with the baseline collectors so every collector
  // agrees on liveness and only the consistency strategy differs; StrongCopy
  // allocates its to-space in this order.
  std::vector<Gaddr> LiveObjects(BunchId bunch);

  const GcStats& stats() const { return stats_; }
  void ResetStats() { stats_ = GcStats{}; }

 private:
  struct BunchState {
    BunchId id = kInvalidBunch;
    std::vector<InterStub> inter_stubs;
    std::vector<IntraStub> intra_stubs;
    std::vector<InterScion> inter_scions;
    std::vector<IntraScion> intra_scions;
    SegmentId alloc_segment = kInvalidSegment;
    std::vector<SegmentId> from_spaces;  // retired by BGC, awaiting reclamation
    uint64_t table_version = 0;
    // Every node that ever held a scion matching one of our stubs or was the
    // target of one of our exiting ownerPtrs.  Tables go to destinations of
    // both the old and the reconstructed stub tables (§4.1), so this set only
    // grows; stale destinations just receive idempotent no-op tables.
    std::set<NodeId> table_destinations;
    // Exiting ownerPtrs rebuilt by the last collection: live, strongly
    // reachable, non-owned local replicas and their probable owners (§4.3).
    std::vector<std::pair<Oid, NodeId>> exiting;
    // Address-based exiting entries for dangling references (no local bytes,
    // so the oid is unknown here; the owner translates).
    std::vector<Gaddr> exiting_addrs;
  };

  // A trace's liveness record: per-segment mark words, one bit per slot,
  // indexed by the slot of an object's data address like the object-map
  // (§8).  Only segments the trace marks in get words, and each grows only
  // up to its highest marked slot, so a trace pays for its marks and not for
  // the segment size.
  class MarkSet {
   public:
    // Marks `addr`; false if it was already marked.
    bool Insert(Gaddr addr) {
      Bitmap& marks = segments_[SegmentOf(addr)];
      const size_t bit = OffsetInSegment(addr) / kSlotBytes;
      marks.GrowTo(bit + 1);
      if (marks.Test(bit)) {
        return false;
      }
      marks.Set(bit);
      return true;
    }
    bool Contains(Gaddr addr) const {
      auto it = segments_.find(SegmentOf(addr));
      if (it == segments_.end()) {
        return false;
      }
      const size_t bit = OffsetInSegment(addr) / kSlotBytes;
      return bit < it->second.size() && it->second.Test(bit);
    }
    // Visits every marked address in ascending order.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (const auto& [seg, marks] : segments_) {
        marks.ForEachSet([&](size_t bit) { fn(MakeAddr(seg, bit * kSlotBytes)); });
      }
    }

   private:
    std::map<SegmentId, Bitmap> segments_;
  };

  struct TraceResult {
    // Canonical (forward-resolved) addresses of live local objects.
    MarkSet strong;
    MarkSet weak_only;  // reachable only via intra-bunch scions (§6.2)
    // Strongly reachable references to addresses with no local bytes.  The
    // paper's page-based DSM always has (possibly stale) bytes for a mapped
    // bunch; in this byte-lazy model such edges must still keep their remote
    // targets alive, so they are reported address-based in the reachability
    // tables.
    std::set<Gaddr> dangling;
    bool Live(Gaddr addr) const { return strong.Contains(addr) || weak_only.Contains(addr); }
  };

  struct PendingReclaim {
    BunchId bunch = kInvalidBunch;
    std::vector<SegmentId> segments;
    size_t outstanding = 0;  // acks + copy replies still due
  };

  BunchState& StateOf(BunchId bunch);
  const BunchState* FindState(BunchId bunch) const;

  // Shared collection core: BGC is a group of one; the GGC excludes scions
  // originating inside the local group from the root set.
  void Collect(const std::vector<BunchId>& group, bool exclude_intra_group_scions);
  TraceResult Trace(const std::vector<BunchId>& group, bool exclude_intra_group_scions);
  // Marks reachable local objects; `dangling` (nullable) collects in-group
  // references whose bytes are absent locally.
  void MarkFrom(Gaddr root, const std::set<BunchId>& group, MarkSet* marked,
                std::set<Gaddr>* dangling);
  void CopyOwnedLive(BunchId bunch, TraceResult* live);
  void UpdateLocalReferences(const std::vector<BunchId>& group, const TraceResult& live);
  void SweepDead(BunchId bunch, const TraceResult& live);
  void RebuildTables(BunchId bunch, const TraceResult& live);
  void SendReachabilityTables(BunchId bunch);

  void CreateInterSsp(Gaddr src_obj, size_t slot, Gaddr target);
  // Creates an inter-bunch stub (fresh id) for the given descriptor and the
  // matching scion (locally or via scion-message), unless an equivalent stub
  // exists.  `target_addr` must be resolved.  Shared by the write barrier and
  // the replicate-on-transfer ablation policy.
  void InstallInterStub(Oid src_oid, uint32_t slot, BunchId src_bunch, Gaddr target_addr,
                        BunchId target_bunch);
  // Space for an object in the bunch's current allocation segment.  Grows
  // the bunch by a fresh segment on overflow, on first use, or when the
  // current segment is in `avoid` (from-spaces being flipped or freed).
  Gaddr AllocateInBunch(BunchId bunch, Oid oid, uint32_t size_slots,
                        const std::set<SegmentId>& avoid);
  // Copies the locally owned object at `addr` (whose header the caller has
  // in hand) to fresh space outside `avoid`, turns the old header into a
  // forwarder, records the move for invariant 1 and refreshes SSP target
  // addresses.  Returns the new address.
  Gaddr RelocateOwned(BunchId bunch, Gaddr addr, ObjectHeader* header,
                      const std::set<SegmentId>& avoid);
  void HandleScionMessage(const Message& msg);
  void HandleReachabilityTable(const Message& msg);
  void ApplyReachabilityTable(const ReachabilityTablePayload& table);
  void HandleCopyRequest(const Message& msg);
  void HandleCopyReply(const Message& msg);
  void HandleAddressChange(const Message& msg);
  void HandleAddressChangeAck(const Message& msg);
  void FinishReclaimIfDone(uint64_t round);

  NodeId id_;
  Network* network_;
  SegmentDirectory* directory_;
  ReplicaStore* store_;
  DsmNode* dsm_;
  CleanerMode cleaner_mode_ = CleanerMode::kImmediate;
  TransferPolicy transfer_policy_ = TransferPolicy::kIntraSsp;

  std::map<BunchId, BunchState> bunches_;
  std::vector<RootProvider*> root_providers_;
  uint64_t next_stub_id_ = 1;

  // FIFO/staleness filter for incoming reachability tables, per (src, bunch).
  std::map<std::pair<NodeId, BunchId>, uint64_t> table_version_seen_;
  std::vector<ReachabilityTablePayload> deferred_tables_;
  // Peers mid-recovery: their tables are applied additively (no deletions)
  // until the peer's RecoveryManager signals completion.
  std::set<NodeId> recovering_peers_;

  uint64_t next_reclaim_round_ = 1;
  std::map<uint64_t, PendingReclaim> pending_reclaims_;

  GcStats stats_;
};

}  // namespace bmx

#endif  // SRC_GC_GC_ENGINE_H_
