#include "src/runtime/topology.h"

#include <algorithm>
#include <set>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace bmx {

const char* TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFull:
      return "full";
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kRandomRegular:
      return "random-regular";
  }
  return "unknown";
}

bool ParseTopologyKind(const std::string& name, TopologyKind* out) {
  if (name == "full") {
    *out = TopologyKind::kFull;
  } else if (name == "ring") {
    *out = TopologyKind::kRing;
  } else if (name == "star") {
    *out = TopologyKind::kStar;
  } else if (name == "random-regular") {
    *out = TopologyKind::kRandomRegular;
  } else {
    return false;
  }
  return true;
}

namespace {

void AddEdge(std::vector<std::vector<NodeId>>* adj, NodeId a, NodeId b) {
  (*adj)[a].push_back(b);
  (*adj)[b].push_back(a);
}

}  // namespace

Topology Topology::Make(TopologyKind kind, size_t num_nodes, size_t degree, uint64_t seed) {
  BMX_CHECK_GT(num_nodes, 0u);
  Topology t;
  t.kind = kind;
  t.num_nodes = num_nodes;
  t.adjacency.assign(num_nodes, {});
  size_t n = num_nodes;
  if (n == 1) {
    return t;  // a single node shares with nobody; NeighborOf degenerates
  }
  switch (kind) {
    case TopologyKind::kFull:
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) {
          AddEdge(&t.adjacency, a, b);
        }
      }
      break;
    case TopologyKind::kRing:
      for (NodeId a = 0; a + 1 < n; ++a) {
        AddEdge(&t.adjacency, a, static_cast<NodeId>(a + 1));
      }
      // The wrap-around edge (n-1, 0); at n == 2 the chain already is it.
      if (n > 2) {
        AddEdge(&t.adjacency, static_cast<NodeId>(n - 1), 0);
      }
      break;
    case TopologyKind::kStar:
      for (NodeId spoke = 1; spoke < n; ++spoke) {
        AddEdge(&t.adjacency, 0, spoke);
      }
      break;
    case TopologyKind::kRandomRegular: {
      // Random circulant graph: node i is adjacent to i ± o (mod n) for every
      // offset o in a seed-drawn set.  Offset 1 is always included, which
      // makes the graph connected by construction; the remaining offsets are
      // drawn without replacement from [2, n/2].  Every node gets the same
      // degree (2 per offset, 1 for the n/2 offset on even n) — a k-regular
      // expander-ish graph that is cheap to generate deterministically.
      size_t want = std::clamp<size_t>(degree, 2, n - 1);
      std::set<size_t> offsets = {1};
      size_t max_offset = n / 2;
      Rng rng(DeriveStreamSeed(seed, RngStream::kTopology));
      auto degree_of = [&](const std::set<size_t>& offs) {
        size_t d = 0;
        for (size_t o : offs) {
          d += (2 * o == n) ? 1 : 2;
        }
        return d;
      };
      while (degree_of(offsets) < want && offsets.size() < max_offset) {
        offsets.insert(2 + rng.Below(max_offset - 1));
      }
      for (size_t o : offsets) {
        for (NodeId a = 0; a < n; ++a) {
          // Unconditional: wrap-around edges have b < a, and the n/2 offset
          // adds each edge from both ends — the sort+unique below dedupes.
          AddEdge(&t.adjacency, a, static_cast<NodeId>((a + o) % n));
        }
      }
      break;
    }
  }
  for (auto& neighbors : t.adjacency) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()), neighbors.end());
  }
  return t;
}

const std::vector<NodeId>& Topology::NeighborsOf(NodeId node) const {
  BMX_CHECK_LT(node, adjacency.size());
  return adjacency[node];
}

NodeId Topology::NeighborOf(NodeId node, uint64_t salt) const {
  const std::vector<NodeId>& neighbors = NeighborsOf(node);
  if (neighbors.empty()) {
    return node;
  }
  return neighbors[salt % neighbors.size()];
}

size_t Topology::EdgeCount() const {
  size_t twice = 0;
  for (const auto& neighbors : adjacency) {
    twice += neighbors.size();
  }
  return twice / 2;
}

bool Topology::Connected() const {
  if (num_nodes == 0) {
    return false;
  }
  std::vector<bool> seen(num_nodes, false);
  std::vector<NodeId> stack = {0};
  seen[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    NodeId at = stack.back();
    stack.pop_back();
    for (NodeId next : adjacency[at]) {
      if (!seen[next]) {
        seen[next] = true;
        reached++;
        stack.push_back(next);
      }
    }
  }
  return reached == num_nodes;
}

}  // namespace bmx
