// Parameterized N-node cluster topologies.
//
// The protocol layer is any-to-any — every node can message every node — so a
// topology here is a *workload-sharing structure*, not a routing constraint:
// scenario and soak drivers pick which peers a node shares objects with by
// walking the adjacency lists.  That is exactly how the paper's deployment
// scales (clients share through the segments they map, not through a fixed
// wiring), and it is what lets one SoakScenario exercise dense fan-out
// (full/star hubs) and sparse chains (rings, random k-regular expanders) with
// the same code.
//
// All generators are deterministic: RandomRegular draws from a dedicated
// stream of the given seed, so a (kind, n, degree, seed) tuple always names
// the same graph on every platform and thread count.

#ifndef SRC_RUNTIME_TOPOLOGY_H_
#define SRC_RUNTIME_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace bmx {

enum class TopologyKind : uint8_t {
  kFull,           // every pair adjacent (the historical 2-4 node behavior)
  kRing,           // node i shares with i-1 and i+1 (mod n)
  kStar,           // node 0 is the hub; spokes share only with it
  kRandomRegular,  // random circulant: k-regular, connected, seed-determined
};

const char* TopologyKindName(TopologyKind kind);
// Parses "full" / "ring" / "star" / "random-regular"; false on anything else.
bool ParseTopologyKind(const std::string& name, TopologyKind* out);

struct Topology {
  TopologyKind kind = TopologyKind::kFull;
  size_t num_nodes = 0;
  // adjacency[i] lists i's neighbors, sorted ascending, no self-loops; the
  // relation is symmetric.
  std::vector<std::vector<NodeId>> adjacency;

  // degree is consulted only by kRandomRegular (clamped to [2, n-1] and
  // rounded to even below n-1); seed only by kRandomRegular.
  static Topology Make(TopologyKind kind, size_t num_nodes, size_t degree = 4,
                       uint64_t seed = 1);

  const std::vector<NodeId>& NeighborsOf(NodeId node) const;
  // Some neighbor of `node`, biased by `salt` for cheap deterministic
  // spreading; the node itself for the degenerate 1-node topology.
  NodeId NeighborOf(NodeId node, uint64_t salt) const;
  size_t EdgeCount() const;
  bool Connected() const;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_TOPOLOGY_H_
