// Gray-failure profile DSL for the CLI and CI sweeps.
//
// A spec is a ';'-separated list of directed link profiles and node-level
// zombies:
//
//   a->b:lat=4,loss=0.2        link a→b: +4 ticks latency, 20% loss
//   a->b:dup=0.1               link a→b: 10% duplication
//   a->b:zombie                link a→b: transport-acks, drops dispatch
//   zombie=n                   node n: every inbound link drops dispatch
//
// e.g. "0->1:lat=4,loss=0.2;1->0:lat=4;zombie=2".  Node ids are decimal and
// below kInvalidNode, lat is a decimal tick count below 2^32, loss is in
// [0, 1) and dup in [0, 1].  Parse rejects anything else, a link or an
// attribute given twice, and a link entry that changes nothing.  Parsing is
// pure; Apply installs the profiles on a Network.  Scenario drivers apply
// specs inside the scenario closure so recorded traces replay under the same
// profile.

#ifndef SRC_NET_GRAY_FAILURE_H_
#define SRC_NET_GRAY_FAILURE_H_

#include <string>
#include <vector>

#include "src/net/network.h"

namespace bmx {

struct GrayLinkSpec {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  LinkProfile profile;
};

struct GraySpec {
  std::vector<GrayLinkSpec> links;
  std::vector<NodeId> zombie_nodes;

  bool Empty() const { return links.empty() && zombie_nodes.empty(); }

  // Parses `text` into *out.  Returns false (and fills *error if non-null)
  // on malformed input; *out is unspecified then.
  static bool Parse(const std::string& text, GraySpec* out, std::string* error);

  void Apply(Network* net) const;

  // Canonical rendering (diagnostics, CI logs): Parse of it gives back the
  // same spec, rates included.
  std::string ToString() const;
};

}  // namespace bmx

#endif  // SRC_NET_GRAY_FAILURE_H_
