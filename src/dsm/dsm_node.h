// Per-node engine of the entry-consistency protocol (paper §2.2):
//
//   * multiple readers / single writer, per object;
//   * read and write tokens obtained by acquire, freed by release;
//   * every object has an owner — the node holding, or the last node to have
//     held, the write token; write tokens can only be obtained from the
//     owner, read tokens from any node already holding one (distributed
//     copy-set mode) or from the owner (centralized mode, the prototype
//     simplification of §8);
//   * ownerPtr forwarding chains route requests to the probable owner
//     (Li & Hudak's dynamic distributed manager).
//
// The engine also maintains the GC-relevant ownerPtr tables: for each bunch,
// the set of *entering* ownerPtrs (which remote nodes hold non-owned replicas
// of objects we own — these are BGC roots) and, per non-owned object, the
// *exiting* ownerPtr (our probable-owner link, regenerated by each BGC and
// pruned at the owner by the scion cleaner).
//
// GC piggyback: every grant carries the new locations of the granted object
// and of every object it directly references (invariant 1 of §5); nodes
// receiving new locations forward them down their local copy-set (invariant
// 2); write grants carry intra-bunch SSP requests (invariant 3).  A node
// sends each peer incarnation each location once.

#ifndef SRC_DSM_DSM_NODE_H_
#define SRC_DSM_DSM_NODE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/perf_counters.h"
#include "src/common/retry.h"
#include "src/common/types.h"
#include "src/dsm/gc_hooks.h"
#include "src/dsm/payloads.h"
#include "src/dsm/piggyback.h"
#include "src/mem/directory.h"
#include "src/mem/replica_store.h"
#include "src/net/network.h"

namespace bmx {

enum class TokenState : uint8_t { kNone, kRead, kWrite };

enum class CopySetMode : uint8_t {
  kCentralized,  // copy-set kept at the owner (prototype simplification, §8)
  kDistributed,  // copy-set distributed over granting readers (design, §2.2)
};

struct DsmStats {
  uint64_t app_read_acquires = 0;
  uint64_t app_write_acquires = 0;
  uint64_t gc_read_acquires = 0;   // only baseline collectors ever bump these
  uint64_t gc_write_acquires = 0;
  uint64_t remote_acquires = 0;    // acquires that needed at least one message
  uint64_t grants_sent = 0;
  uint64_t invalidations_sent = 0;
  uint64_t read_copies_invalidated = 0;
  uint64_t piggyback_updates_sent = 0;
  uint64_t piggyback_ssp_requests_sent = 0;
  uint64_t address_updates_applied = 0;
  uint64_t pushes_sent = 0;
  // Acquires that could not be routed because the object is gone (reclaimed
  // everywhere): the caller's Acquire returns false — a dangling address.
  uint64_t unroutable_acquires = 0;
  // Synchronous acquires abandoned because the first-hop target crashed with
  // the request undelivered; each one is either retried along a fresh route
  // or failed cleanly back to the mutator.
  uint64_t acquire_timeouts = 0;
  // Acquires refused up front because the first hop is detached AND its
  // circuit breaker is open (repeated timeouts toward the same dead peer):
  // the caller gets a clean false without waiting out another timeout.
  uint64_t breaker_fast_fails = 0;
};

// Read-only view of one token-table entry, for the invariant oracle and the
// crash-recovery reconciliation protocol.
struct TokenSnapshot {
  Oid oid = kNullOid;
  TokenState state = TokenState::kNone;
  bool owner = false;
  bool held = false;
  NodeId owner_hint = kInvalidNode;
  BunchId bunch = kInvalidBunch;
  std::vector<NodeId> copyset;
};

class DsmNode : public MessageHandler {
 public:
  DsmNode(NodeId id, Network* network, SegmentDirectory* directory, ReplicaStore* store,
          CopySetMode mode = CopySetMode::kCentralized);

  void set_gc_hooks(DsmGcHooks* hooks) { gc_hooks_ = hooks; }
  NodeId id() const { return id_; }
  CopySetMode mode() const { return mode_; }

  // --- Mutator-facing operations (synchronous: pump the network until the
  // --- token arrives).  Return false if the token could not be obtained yet
  // --- (e.g. a remote holder is inside a critical section); the request
  // --- stays queued remotely and completes on a later pump.
  bool AcquireRead(Gaddr addr, bool for_gc = false);
  bool AcquireWrite(Gaddr addr, bool for_gc = false);
  void Release(Gaddr addr);

  // Non-blocking variants used by deadlock/deferral tests: send the request
  // without pumping.  Completion is observed via StateOf().
  void BeginAcquire(Gaddr addr, bool write, bool for_gc = false);

  // True while an acquire is still pending remotely (a failed AcquireRead /
  // AcquireWrite whose request was delivered and deferred).  Starting another
  // acquire in that window is a caller bug; fault-injection workloads use
  // this to skip operations a mid-crash deferral left open.
  bool AcquireInFlight() const { return wait_active_; }

  // First hop of the outstanding acquire (kInvalidNode when none).  The
  // liveness oracle uses it to excuse an acquire whose request is parked
  // toward a detached peer (redelivery serves it when the peer returns).
  NodeId AcquireTarget() const { return wait_active_ ? wait_target_ : kInvalidNode; }

  // True if this node's DSM layer has queued work that will eventually answer
  // `requester`: a deferred acquire request from it, or a write grant for it
  // parked behind an invalidation.  The liveness oracle's excuse rule for
  // open acquires — "someone live remembers the request".
  bool HasPendingWorkFor(NodeId requester) const;

  // --- Allocation hookup: a freshly allocated object is owned, writable and
  // --- held by its creator.
  void RegisterNewObject(Oid oid, Gaddr addr, BunchId bunch);

  // --- Crash-recovery hookup (RecoveryManager only). ---
  // Adopts an object found in a recovered checkpoint.  `owned` re-takes
  // ownership (write token, directory registration); otherwise the bytes
  // become a non-owned replica with no cached token — the next access
  // re-acquires through `owner_hint`.  No messages are sent.
  void AdoptRecoveredObject(Oid oid, Gaddr addr, BunchId bunch, bool owned, NodeId owner_hint);
  // Re-learns, from a peer's recovery reply, that `reader` still holds a
  // replica of an object we own: rebuilds the copy-set (when the peer holds a
  // live token) and the entering-ownerPtr set (BGC root).  The owner's write
  // token downgrades while restored readers exist.
  void RestoreReaderReplica(Oid oid, NodeId reader, bool reader_has_token);
  // Sorted-by-oid snapshot of the token table (deterministic: feeds recovery
  // replies and the invariant oracle).
  std::vector<TokenSnapshot> SnapshotTokens() const;

  // --- GC-facing ---
  // Records that the local BGC copied `oid` from old_addr to new_addr.  Pure
  // local bookkeeping; remote replicas learn lazily via piggyback.
  void RecordLocalMove(Oid oid, Gaddr old_addr, Gaddr new_addr, BunchId bunch);
  // "Locally owned: the node holds the write token or was the last to hold
  // it" (§4.2).  Only such objects may be copied by the local BGC.
  bool IsLocallyOwned(Oid oid) const;
  bool Knows(Oid oid) const { return FindToken(oid) != nullptr; }
  TokenState StateOf(Oid oid) const;
  bool IsHeld(Oid oid) const;
  NodeId OwnerHint(Oid oid) const;
  BunchId BunchOf(Oid oid) const;

  // Entering ownerPtrs for a bunch: oid → nodes holding non-owned replicas
  // that point (possibly transitively) at us.  BGC roots; pruned by the scion
  // cleaner.
  const std::map<Oid, std::set<NodeId>>& EnteringFor(BunchId bunch) const;
  void PruneEntering(BunchId bunch, Oid oid, NodeId from);
  // Registers remote interest learned from a reachability table: the sender
  // reported an exiting ownerPtr for an object we own.
  void AddEntering(BunchId bunch, Oid oid, NodeId from);
  // Drops all token bookkeeping for a locally dead object (called by the BGC
  // after reclaiming the local replica of a non-owned, unreachable object).
  void ForgetObject(Oid oid);

  // Applies a set of address updates as if received from `from` (kInvalidNode
  // for locally generated ones) and forwards to each local copy-set member
  // the part of the updated objects' chains it has not been sent
  // (invariant 2).
  void ApplyAddressUpdates(const std::vector<AddressUpdate>& updates, NodeId from);

  // Builds invariant-1 address updates for a grant of `oid` to `dst`: of the
  // move chain of the object and of every object it directly references,
  // the entries `dst`'s current incarnation has not been sent, each aimed at
  // the latest address, and marks them sent.  Entries left out because `dst`
  // has them count as coalesced.
  std::vector<AddressUpdate> BuildInvariant1Updates(Oid oid, NodeId dst);

  // Installs an object image at its address (mapping the segment if
  // necessary) without touching token state.  Used when applying grants,
  // pushes, from-space copy replies and recovery replies.  Leaves a
  // forwarding header at any previously known local address of the object.
  void InstallObjectBytes(Oid oid, BunchId bunch, const ObjectImage& object);

  // Remembers old→new for an address whose from-space segment was freed
  // (§4.5): the in-heap forwarding header is gone, so the mapping lives here.
  void AddStaleForward(Gaddr old_addr, Gaddr new_addr);

  // Remembers the probable owner for an address whose local replica was
  // swept while the object may live on elsewhere: this node may be the
  // segment creator and therefore the routing fallback for address-based
  // acquire requests, so it must keep a forwarding hint even with no bytes.
  void AddStaleRouting(Gaddr addr, NodeId owner_hint);

  // Follows local in-heap forwarding headers *and* stale-forward records to
  // the most current address this node can name for `addr`.
  Gaddr ResolveAddr(Gaddr addr) const;
  // ResolveAddr of this node's oid-map entry for `oid`; kNullAddr when the
  // oid is unknown here.
  Gaddr ResolveOid(Oid oid) const;

  // Address of this node's own byte copy of the object at `addr`: the newest
  // resolvable location that actually has local bytes.  Mutator access paths
  // use this; routing and update application use ResolveAddr.
  Gaddr LocalCopyOf(Gaddr addr) const;

  // Identity of the object at `addr`: the header at its ResolveAddr, else
  // the directory's address book for the resolved address, then for `addr`
  // itself.  kNullOid when neither knows it.
  Oid OidAt(Gaddr addr) const;

  // Best next hop for a request about the object at `addr`: token-table
  // ownerPtr, routing tombstone, or segment creator, in that order; when this
  // node created the segment, the directory's owner of record.
  NodeId ProbableOwnerForAddr(Gaddr addr) const;

  void HandleMessage(const Message& msg) override;

  const DsmStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DsmStats{}; }

  // Total tokens acquired on behalf of GC — must stay zero for the paper's
  // collector (checked by tests and reported by benches).
  uint64_t GcTokenAcquires() const { return stats_.gc_read_acquires + stats_.gc_write_acquires; }

  // Plants a deliberate ordering bug (explorer canary, testing only): if the
  // InvalidateAcks of one fan-out converge on this node with a later ack
  // carrying a smaller src than its predecessor — impossible under the FIFO
  // schedule, reachable under exploratory schedulers — the node usurps
  // ownership of `victim`, a token-uniqueness violation the invariant oracle
  // flags.  Lets tests prove the explorer finds, records, shrinks and replays
  // a real schedule-dependent bug end to end.
  void PlantCanaryReorderBugForTesting(Oid victim) {
    canary_victim_ = victim;
    canary_last_ack_src_ = kInvalidNode;
  }

  // Plants a deliberate *consistency* bug (checker canary, testing only): the
  // next invalidation fan-out this node starts silently skips `skip_reader`,
  // leaving that reader's replica and cached read token intact while the
  // owner upgrades and writes.  The reader's later critical sections read
  // stale bytes with no causal edge from the writer — invisible to traffic
  // fingerprints and to read-value checks (the stale value matches the last
  // *visible* write), but flagged by the ConsistencyChecker as a concurrent
  // conflicting critical-section pair, and by the oracle's copy-set
  // accounting at quiescence.  One-shot: disarms after the first skip.
  void PlantStaleReadBugForTesting(NodeId skip_reader) { stale_skip_reader_ = skip_reader; }

 private:
  struct TokenInfo {
    TokenState state = TokenState::kNone;
    bool owner = false;
    bool held = false;
    NodeId owner_hint = kInvalidNode;  // exiting ownerPtr target when not owner
    BunchId bunch = kInvalidBunch;
    std::set<NodeId> copyset;  // nodes we granted read tokens to
  };

  // How much of one object's move chain this node has sent one incarnation
  // of a peer: the first `entries` old addresses, aimed at `latest`.
  struct SentMark {
    NodeId peer = kInvalidNode;
    uint64_t incarnation = 0;
    size_t entries = 0;
    Gaddr latest = kNullAddr;
  };

  // One object's move history in the form invariant 1 ships it: every
  // address it has left, in first-seen order, and its latest address.
  // `sent` holds one mark per peer told about it.
  struct MoveChain {
    BunchId bunch = kInvalidBunch;
    std::vector<Gaddr> old_addrs;
    Gaddr latest = kNullAddr;
    std::vector<SentMark> sent;

    // Records a move away from `old_addr` unless the chain already has that
    // address; true when it was new.
    bool Add(BunchId object_bunch, Gaddr old_addr, Gaddr new_addr) {
      if (std::find(old_addrs.begin(), old_addrs.end(), old_addr) != old_addrs.end()) {
        return false;
      }
      if (old_addrs.empty()) {
        bunch = object_bunch;
      }
      old_addrs.push_back(old_addr);
      latest = new_addr;
      return true;
    }
  };

  // In-flight invalidation of the local copy-subtree for one object.
  struct InvalProgress {
    NodeId parent = kInvalidNode;  // who to ack (kInvalidNode: we initiated)
    size_t awaiting = 0;
  };

  // A write grant this node (as owner) is preparing: waits for the copy-set
  // invalidation to finish, then transfers ownership.
  struct PendingGrant {
    NodeId requester = kInvalidNode;  // may be id_ (local write upgrade)
    bool for_gc = false;
  };

  // Every token-table lookup goes through these two, so token_probes counts
  // them all.  InfoOf creates a missing entry; FindToken returns nullptr.
  TokenInfo& InfoOf(Oid oid) {
    GlobalPerfCounters().token_probes++;
    return tokens_[oid];
  }
  TokenInfo* FindToken(Oid oid) {
    GlobalPerfCounters().token_probes++;
    auto it = tokens_.find(oid);
    return it == tokens_.end() ? nullptr : &it->second;
  }
  const TokenInfo* FindToken(Oid oid) const { return const_cast<DsmNode*>(this)->FindToken(oid); }

  // Consistency-checker hook: records a GC flip observation (this node first
  // learning that oid moved old_addr→new_addr) when history recording is on.
  void RecordGcFlip(Oid oid, Gaddr old_addr, Gaddr new_addr);

  // Synchronous acquire driver: BeginAcquire + pump, with a bounded retry
  // loop for the case where the first-hop target crashed before receiving
  // the request (the virtual-clock deadline satellite of the fault model).
  bool CompleteAcquire(Gaddr addr, bool write, bool for_gc);
  // Ends the outstanding acquire as completed or failed: clears the wait
  // flags and closes its progress obligation.  wait_target_ is kept:
  // CompleteAcquire credits the first hop after a completed wait.
  void EndAcquireWait(bool completed);

  void HandleAcquire(const Message& msg);
  void HandleGrant(const Message& msg);
  void HandleInvalidate(const Message& msg);
  void HandleInvalidateAck(const Message& msg);
  void HandlePush(const Message& msg);

  void StartWriteGrant(Oid oid, NodeId requester, bool for_gc);
  void StartInvalidation(Oid oid, NodeId parent);
  void TryFinishInvalidation(Oid oid);
  void FinishWriteGrant(Oid oid);
  void SendReadGrant(Oid oid, NodeId requester, bool for_gc, Gaddr byte_addr = kNullAddr);

  // Image of this node's byte copy of `oid` for a grant: `byte_addr` (when
  // valid and holding bytes) or the oid map's resolution.
  ObjectImage CaptureLocalCopy(Oid oid, Gaddr byte_addr = kNullAddr) const;
  // Decides what `dst` is told about `oid`'s moves, for grants and copy-set
  // forwarding alike: appends to `out` the entries of this node's chain that
  // `dst`'s current incarnation has not been sent, each aimed at the chain's
  // latest address, and marks them sent.  Returns how many entries it left
  // out because `dst` already has them.
  size_t AppendUnsentMoves(Oid oid, NodeId dst, std::vector<AddressUpdate>* out);
  // Caps a piggyback update list at kMaxPiggybackUpdates, shipping the tail
  // to `dst` as a background address-change message.
  void SpillPiggybackOverflow(std::vector<AddressUpdate>* updates, NodeId dst);
  // Applies what a grant carries besides the object, or what a push
  // carries: address updates (forwarded down the copy-set) and SSP creation
  // requests.
  void ApplyPiggyback(const Piggyback& piggyback, NodeId from);
  void ApplyOneAddressUpdate(const AddressUpdate& update);
  void Defer(Oid oid, const Message& msg);
  void Redispatch(Oid oid);

  NodeId id_;
  Network* network_;
  SegmentDirectory* directory_;
  ReplicaStore* store_;
  CopySetMode mode_;
  DsmGcHooks* gc_hooks_ = nullptr;

  // Pure probe tables (find/insert/erase only, never iterated): open
  // addressing via std::unordered_map keeps the per-access paths O(1).  The
  // determinism audit for this flattening: protocol messages never depend on
  // the iteration order of these four tables.
  std::unordered_map<Oid, TokenInfo> tokens_;
  // Per-object move chains, grown by RecordLocalMove and by every address
  // update this node hears, and shipped in invariant-1 piggybacks so that
  // receivers that missed intermediate moves still reach the current address.
  // Each peer is sent each entry once per incarnation (AppendUnsentMoves).
  std::unordered_map<Oid, MoveChain> move_history_;
  // Iterated by the GC (BGC roots, scion cleaner, reclaim notify) — the
  // order reaches protocol messages, so this one stays ordered.
  std::map<BunchId, std::map<Oid, std::set<NodeId>>> entering_;
  std::map<Oid, InvalProgress> invalidations_;
  // old→new for addresses in from-space segments that were freed (§4.5); the
  // in-heap forwarding headers for these are gone.  Mutable: ResolveAddr
  // path-compresses entries as it walks.
  mutable std::unordered_map<Gaddr, Gaddr> stale_forward_;
  // addr→probable-owner for swept local replicas of remotely live objects.
  std::unordered_map<Gaddr, NodeId> stale_routing_;
  std::map<Oid, PendingGrant> pending_grants_;
  std::map<Oid, std::vector<Message>> deferred_;

  // Local-acquire completion flags (single outstanding acquire per node).
  bool wait_active_ = false;
  bool wait_complete_ = false;
  Gaddr wait_addr_ = kNullAddr;    // address the outstanding acquire named
  NodeId wait_target_ = kInvalidNode;  // first hop the outstanding request took

  // Synchronous-acquire retry driver: the legacy 3-attempt bound as the
  // attempt budget, plus a per-peer circuit breaker that fail-fasts repeat
  // acquires toward a peer that keeps timing out while detached.  The
  // breaker is consulted ONLY when the first hop is detached — a restarted
  // (re-attached) peer is always tried immediately.
  RetryPolicy acquire_retry_;

  // Explorer-canary state (see PlantCanaryReorderBugForTesting).
  Oid canary_victim_ = kNullOid;
  NodeId canary_last_ack_src_ = kInvalidNode;
  // Checker-canary state (see PlantStaleReadBugForTesting).
  NodeId stale_skip_reader_ = kInvalidNode;

  DsmStats stats_;
  static const std::map<Oid, std::set<NodeId>> kNoEntering;
};

}  // namespace bmx

#endif  // SRC_DSM_DSM_NODE_H_
