#include "src/runtime/oracle.h"

#include <map>
#include <set>
#include <sstream>

#include "src/gc/ssp.h"
#include "src/mem/object.h"

namespace bmx {

std::vector<NodeId> InvariantOracle::LiveNodes() const {
  std::vector<NodeId> live;
  for (NodeId id = 0; id < cluster_->size(); ++id) {
    if (cluster_->IsAlive(id)) {
      live.push_back(id);
    }
  }
  return live;
}

std::vector<std::string> InvariantOracle::Check() {
  std::vector<std::string> out;
  CheckTokens(&out);
  CheckSsps(&out);
  CheckReachability(&out);
  return out;
}

std::vector<std::string> InvariantOracle::CheckStable() {
  std::vector<std::string> out;
  CheckTokenUniqueness(&out);
  return out;
}

void InvariantOracle::CheckTokenUniqueness(std::vector<std::string>* out) {
  // (1) token uniqueness.  This family holds at every instant of a correct
  // protocol — a granter always sheds its token before the grant leaves — so
  // it is safe to evaluate between arbitrary deliveries (CheckStable).
  struct Holder {
    NodeId node = kInvalidNode;
    TokenSnapshot snap;
  };
  std::map<Oid, std::vector<Holder>> by_oid;
  for (NodeId id : LiveNodes()) {
    for (const TokenSnapshot& snap : cluster_->node(id).dsm().SnapshotTokens()) {
      by_oid[snap.oid].push_back({id, snap});
    }
  }
  for (const auto& [oid, holders] : by_oid) {
    std::vector<NodeId> owners;
    std::vector<NodeId> writers;
    for (const Holder& h : holders) {
      if (h.snap.owner) {
        owners.push_back(h.node);
      }
      if (h.snap.state == TokenState::kWrite) {
        writers.push_back(h.node);
      }
    }
    if (owners.size() > 1) {
      std::ostringstream os;
      os << "oid " << oid << ": " << owners.size() << " simultaneous owners (nodes";
      for (NodeId n : owners) os << " " << n;
      os << ")";
      out->push_back(os.str());
    }
    if (!writers.empty()) {
      for (const Holder& h : holders) {
        if (h.snap.state != TokenState::kNone && h.node != writers.front()) {
          std::ostringstream os;
          os << "oid " << oid << ": write token at node " << writers.front()
             << " coexists with a token at node " << h.node;
          out->push_back(os.str());
        }
      }
    }
  }
}

void InvariantOracle::CheckTokens(std::vector<std::string>* out) {
  CheckTokenUniqueness(out);
  // Gather every live node's token table, grouped by oid, for the
  // quiescence-only families (2) and (3).
  struct Holder {
    NodeId node = kInvalidNode;
    TokenSnapshot snap;
  };
  std::map<Oid, std::vector<Holder>> by_oid;
  std::map<Oid, std::set<NodeId>> copyset_union;
  for (NodeId id : LiveNodes()) {
    for (const TokenSnapshot& snap : cluster_->node(id).dsm().SnapshotTokens()) {
      by_oid[snap.oid].push_back({id, snap});
      for (NodeId member : snap.copyset) {
        copyset_union[snap.oid].insert(member);
      }
    }
  }

  for (const auto& [oid, holders] : by_oid) {
    // (2) ownership-of-record is real.
    NodeId record = cluster_->directory().OwnerOf(oid);
    if (record != kInvalidNode && cluster_->IsAlive(record)) {
      Node& owner = cluster_->node(record);
      if (!owner.dsm().IsLocallyOwned(oid)) {
        std::ostringstream os;
        os << "oid " << oid << ": directory names node " << record
           << " owner but its token table disagrees";
        out->push_back(os.str());
      }
      const ObjectHeader* bytes = owner.store().HeaderOf(owner.dsm().ResolveOid(oid));
      if (bytes == nullptr || bytes->forwarded()) {
        std::ostringstream os;
        os << "oid " << oid << ": owner of record (node " << record
           << ") has no resolvable bytes";
        out->push_back(os.str());
      }
    }

    // (3) cached tokens are accounted in some copy-set.
    if (record != kInvalidNode && cluster_->IsAlive(record)) {
      const std::set<NodeId>& members = copyset_union[oid];
      for (const Holder& h : holders) {
        if (h.snap.owner || h.snap.state == TokenState::kNone || h.node == record) {
          continue;
        }
        if (members.count(h.node) == 0) {
          std::ostringstream os;
          os << "oid " << oid << ": node " << h.node
             << " caches a token missing from every copy-set";
          out->push_back(os.str());
        }
      }
    }
  }
}

void InvariantOracle::CheckSsps(std::vector<std::string>* out) {
  std::vector<NodeId> live = LiveNodes();
  std::set<NodeId> live_set(live.begin(), live.end());
  for (NodeId id : live) {
    Node& node = cluster_->node(id);
    for (BunchId bunch : node.gc().ReplicaBunches()) {
      GcEngine::BunchTables tables = node.gc().TablesOf(bunch);

      // (4a) every inter-bunch stub has its scion at the scion node.
      for (const InterStub& stub : tables.inter_stubs) {
        if (live_set.count(stub.scion_node) == 0) {
          std::ostringstream os;
          os << "node " << id << " bunch " << bunch << ": inter-stub " << stub.id
             << " names crashed scion node " << stub.scion_node;
          out->push_back(os.str());
          continue;
        }
        GcEngine::BunchTables target =
            cluster_->node(stub.scion_node).gc().TablesOf(stub.target_bunch);
        bool matched = false;
        for (const InterScion& scion : target.inter_scions) {
          if (scion.stub_id == stub.id && scion.src_node == id) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          std::ostringstream os;
          os << "node " << id << " bunch " << bunch << ": inter-stub " << stub.id
             << " (target bunch " << stub.target_bunch << ") has no scion at node "
             << stub.scion_node;
          out->push_back(os.str());
        }
      }

      // (4b) every intra-bunch stub has its scion at the scion node.
      for (const IntraStub& stub : tables.intra_stubs) {
        if (stub.scion_node == id) {
          continue;  // self-link: the stub is its own justification
        }
        if (live_set.count(stub.scion_node) == 0) {
          std::ostringstream os;
          os << "node " << id << " bunch " << bunch << ": intra-stub for oid " << stub.oid
             << " names crashed scion node " << stub.scion_node;
          out->push_back(os.str());
          continue;
        }
        GcEngine::BunchTables target = cluster_->node(stub.scion_node).gc().TablesOf(stub.bunch);
        bool matched = false;
        for (const IntraScion& scion : target.intra_scions) {
          if (scion.oid == stub.oid && scion.stub_node == id) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          std::ostringstream os;
          os << "node " << id << " bunch " << bunch << ": intra-stub for oid " << stub.oid
             << " has no scion at node " << stub.scion_node;
          out->push_back(os.str());
        }
      }
    }
  }
}

void InvariantOracle::CheckReachability(std::vector<std::string>* out) {
  // (5) every reference slot of an owned, live (non-forwarded) local object
  // either resolves to bytes somewhere, or points at an acknowledged dangling
  // address: one with no owner of record.  A live owner of record that cannot
  // produce bytes is checked per-oid in CheckTokens; here we catch references
  // whose target oid the directory has already *forgotten* while an owner
  // record survives, and targets whose owner record names a crashed node.
  SegmentDirectory& directory = cluster_->directory();
  for (NodeId id : LiveNodes()) {
    Node& node = cluster_->node(id);
    for (SegmentId seg : node.store().AllSegments()) {
      SegmentImage* image = node.store().Find(seg);
      image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
        if (header.forwarded() || !node.dsm().IsLocallyOwned(header.oid)) {
          return;
        }
        node.store().ForEachRefSlot(addr, header.size_slots, [&](size_t slot, uint64_t value) {
          Gaddr target = static_cast<Gaddr>(value);
          if (target == kNullAddr) {
            return;
          }
          Gaddr resolved = node.dsm().ResolveAddr(target);
          const ObjectHeader* bytes = node.store().HeaderOf(resolved);
          if (bytes != nullptr && !bytes->forwarded()) {
            return;
          }
          Oid oid = directory.OidAtAddress(resolved);
          if (oid == kNullOid) {
            oid = directory.OidAtAddress(target);
          }
          if (oid == kNullOid) {
            return;  // acknowledged dangling: target identity fully lost
          }
          NodeId owner = directory.OwnerOf(oid);
          if (owner == kInvalidNode) {
            return;  // acknowledged dangling: reclaimed or lost to a crash
          }
          if (!cluster_->IsAlive(owner)) {
            std::ostringstream os;
            os << "node " << id << " obj " << header.oid << " slot " << slot
               << ": target oid " << oid << " owned by crashed node " << owner;
            out->push_back(os.str());
            return;
          }
          Node& owner_node = cluster_->node(owner);
          const ObjectHeader* owner_bytes =
              owner_node.store().HeaderOf(owner_node.dsm().ResolveOid(oid));
          if (owner_bytes == nullptr || owner_bytes->forwarded()) {
            std::ostringstream os;
            os << "node " << id << " obj " << header.oid << " slot " << slot
               << ": target oid " << oid << " reachable but unreclaimable-check failed: owner node "
               << owner << " has no bytes";
            out->push_back(os.str());
          }
        });
      });
    }
  }
}

}  // namespace bmx
