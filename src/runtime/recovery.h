// Crash-consistent recovery (docs/PROTOCOLS.md, "Crash recovery & fault
// model").  A restarted node runs RunRecovery() end to end:
//
//   1. replay the RVM log and reload every segment named by the node's
//      durable checkpoint manifest;
//   2. rebuild the oid→address map and re-adopt objects: the shared segment
//      directory (the BMX-server role, which survives individual node
//      crashes) is the authority on ownership-of-record — recovered bytes of
//      an object the directory assigns elsewhere become a tokenless replica;
//   3. rebuild the inter-bunch SSPs from the recovered heap (the volatile
//      stub tables died with the previous life; the heap is ground truth);
//   4. reconcile with every surviving peer over kRecoveryQuery /
//      kRecoveryReply: re-learn which peers still hold replicas of our
//      objects (copy-sets, entering ownerPtrs), re-create the scions backing
//      peers' surviving stubs, and drop vacuous ownership claims (owned on
//      paper, bytes nowhere);
//   5. signal completion so peers lift the conservative scion-retention mode
//      they entered on the first query.
//
// Tokens are volatile and die with a node; ownership-of-record does not.
// Incarnation epochs (stamped by the network at Send) make every wire copy
// emitted by the previous life inert, so recovery never races its own ghosts.

#ifndef SRC_RUNTIME_RECOVERY_H_
#define SRC_RUNTIME_RECOVERY_H_

#include <cstdint>
#include <set>
#include <vector>

#include "src/common/types.h"
#include "src/dsm/dsm_node.h"
#include "src/gc/gc_engine.h"
#include "src/mem/directory.h"
#include "src/mem/object.h"
#include "src/mem/replica_store.h"
#include "src/net/message.h"
#include "src/net/network.h"
#include "src/runtime/persistence.h"

namespace bmx {

enum class RecoveryPhase : uint8_t {
  kStart,     // "I am recovering; these are my bunches and ownership claims"
  kComplete,  // "reconciliation done; lift conservative scion retention"
};

// Restarted node → every surviving peer.
struct RecoveryQueryPayload : public Payload {
  RecoveryPhase phase = RecoveryPhase::kStart;
  std::vector<BunchId> bunches;   // bunches reloaded from the checkpoint
  std::vector<Oid> claimed_oids;  // oids re-adopted as owner (sorted)

  MsgKind kind() const override { return MsgKind::kRecoveryQuery; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override {
    return 8 + bunches.size() * 4 + claimed_oids.size() * 8;
  }
};

// One object of the recovering node's that the replying peer still holds a
// replica of.  Carries the peer's bytes so an owner whose checkpoint predates
// the object (or whose copy is older) can be resupplied.
struct RecoveredReplicaEntry {
  Oid oid = kNullOid;
  BunchId bunch = kInvalidBunch;
  bool has_token = false;  // peer holds a live read/write token
  bool has_bytes = false;
  ObjectImage object;  // with has_bytes: the peer's copy, at its current address
};

// Peer-held inter-bunch stub whose scion lived on the recovering node.
struct InterScionRestore {
  uint64_t stub_id = 0;
  BunchId src_bunch = kInvalidBunch;
  Gaddr target_addr = kNullAddr;
  BunchId target_bunch = kInvalidBunch;
};

// Intra-bunch SSP half to re-adopt (oid + bunch; the peer is the message src).
struct IntraRestore {
  Oid oid = kNullOid;
  BunchId bunch = kInvalidBunch;
};

// Surviving peer → restarted node.
struct RecoveryReplyPayload : public Payload {
  // Claimed oids the peer itself holds the owner token for: the recovering
  // node's checkpointed claim is stale and must demote to a replica.
  std::vector<Oid> contested;
  std::vector<RecoveredReplicaEntry> replicas;
  // Peer stubs whose scions died with the previous life → recreate scions.
  std::vector<InterScionRestore> inter_scions;
  // Peer intra-stubs naming us as scion holder → recreate intra scions.
  std::vector<IntraRestore> intra_scions;
  // Peer intra-scions naming us as stub holder → recreate intra stubs.
  std::vector<IntraRestore> intra_stubs;

  MsgKind kind() const override { return MsgKind::kRecoveryReply; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override {
    size_t bytes = 8 + contested.size() * 8 + inter_scions.size() * 24 +
                   (intra_scions.size() + intra_stubs.size()) * 12;
    for (const RecoveredReplicaEntry& e : replicas) {
      bytes += 24 + (e.has_bytes ? kHeaderBytes + e.object.SlotWireBytes() : 0);
    }
    return bytes;
  }
};

class RecoveryManager : public MessageHandler {
 public:
  RecoveryManager(NodeId id, Network* network, SegmentDirectory* directory, ReplicaStore* store,
                  DsmNode* dsm, GcEngine* gc, PersistenceManager* persistence);

  // End-to-end recovery of a freshly restarted node (see file comment).
  // Pumps the network internally; when it returns, the node is fully
  // reconciled and peers have left conservative retention mode.
  void RunRecovery();

  // Routed by runtime::Node for kRecoveryQuery / kRecoveryReply.
  void HandleMessage(const Message& msg) override;

  bool InProgress() const { return in_progress_; }
  const std::vector<BunchId>& RecoveredBunches() const { return recovered_bunches_; }

 private:
  void HandleQuery(const Message& msg);
  void HandleReply(const Message& msg);
  // Surviving peers worth reconciling with: every node the directory shows
  // mapping any bunch (crashed nodes are unmapped by the cluster), minus us.
  std::set<NodeId> PeerSet() const;

  NodeId id_;
  Network* network_;
  SegmentDirectory* directory_;
  ReplicaStore* store_;
  DsmNode* dsm_;
  GcEngine* gc_;
  PersistenceManager* persistence_;
  bool in_progress_ = false;
  std::vector<BunchId> recovered_bunches_;
  std::vector<Oid> claimed_;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_RECOVERY_H_
