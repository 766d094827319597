#include "src/net/gray_failure.h"

#include <charconv>
#include <set>
#include <utility>

namespace bmx {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// A whole string of decimal digits with a value in [0, max]: no sign, no
// whitespace, no empty value, so "-1" cannot wrap to a huge number.
bool ParseUint(const std::string& s, uint64_t max, uint64_t* out) {
  uint64_t v = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || v > max) {
    return false;
  }
  *out = v;
  return true;
}

// Node ids stop below kInvalidNode.
bool ParseNodeId(const std::string& s, NodeId* out) {
  uint64_t v = 0;
  if (!ParseUint(s, kInvalidNode - 1, &v)) {
    return false;
  }
  *out = static_cast<NodeId>(v);
  return true;
}

// A probability in [0, 1], or in [0, 1) unless one_allowed.  NaN fails both
// bounds.
bool ParseRate(const std::string& s, bool one_allowed, double* out) {
  double v = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !(v >= 0) ||
      !(one_allowed ? v <= 1 : v < 1)) {
    return false;
  }
  *out = v;
  return true;
}

// Shortest decimal form that parses back to the same double.
std::string FormatRate(double v) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

// Link latency bound: keeps the virtual clock's now + latency far from
// wrapping.
constexpr uint64_t kMaxLatencyTicks = UINT32_MAX;

}  // namespace

bool GraySpec::Parse(const std::string& text, GraySpec* out, std::string* error) {
  *out = GraySpec{};
  std::set<std::pair<NodeId, NodeId>> links_seen;
  for (const std::string& part : SplitOn(text, ';')) {
    if (part.empty()) {
      continue;
    }
    if (part.rfind("zombie=", 0) == 0) {
      NodeId node;
      if (!ParseNodeId(part.substr(7), &node)) {
        return Fail(error, "bad node id in '" + part + "'");
      }
      out->zombie_nodes.push_back(node);
      continue;
    }
    size_t arrow = part.find("->");
    if (arrow == std::string::npos) {
      return Fail(error, "expected 'src->dst:...' or 'zombie=N' in '" + part + "'");
    }
    size_t colon = part.find(':', arrow);
    if (colon == std::string::npos) {
      return Fail(error, "missing ':' after link endpoints in '" + part + "'");
    }
    GrayLinkSpec link;
    if (!ParseNodeId(part.substr(0, arrow), &link.src) ||
        !ParseNodeId(part.substr(arrow + 2, colon - arrow - 2), &link.dst)) {
      return Fail(error, "bad link endpoints in '" + part + "'");
    }
    if (link.src == link.dst) {
      return Fail(error, "link endpoints must differ in '" + part + "'");
    }
    if (!links_seen.insert({link.src, link.dst}).second) {
      return Fail(error, "link listed twice in '" + part + "'");
    }
    std::set<std::string> keys_seen;
    for (const std::string& attr : SplitOn(part.substr(colon + 1), ',')) {
      size_t eq = attr.find('=');
      std::string key = attr.substr(0, eq);
      std::string value = eq == std::string::npos ? "" : attr.substr(eq + 1);
      if (!keys_seen.insert(key).second) {
        return Fail(error, "attribute '" + key + "' given twice in '" + part + "'");
      }
      if (attr == "zombie") {
        link.profile.zombie = true;
      } else if (eq == std::string::npos) {
        return Fail(error, "expected key=value or 'zombie' in '" + attr + "'");
      } else if (key == "lat") {
        if (!ParseUint(value, kMaxLatencyTicks, &link.profile.latency_ticks)) {
          return Fail(error, "lat must be an integer in [0, 2^32) in '" + attr + "'");
        }
      } else if (key == "loss") {
        if (!ParseRate(value, /*one_allowed=*/false, &link.profile.loss_rate)) {
          return Fail(error, "loss must be in [0, 1) in '" + attr + "'");
        }
      } else if (key == "dup") {
        if (!ParseRate(value, /*one_allowed=*/true, &link.profile.duplication_rate)) {
          return Fail(error, "dup must be in [0, 1] in '" + attr + "'");
        }
      } else {
        return Fail(error, "unknown link attribute '" + key + "'");
      }
    }
    const LinkProfile& p = link.profile;
    if (p.latency_ticks == 0 && p.loss_rate < 0 && p.duplication_rate < 0 && !p.zombie) {
      // Would print as "a->b:", which does not parse.
      return Fail(error, "link profile changes nothing in '" + part + "'");
    }
    out->links.push_back(link);
  }
  return true;
}

void GraySpec::Apply(Network* net) const {
  for (const GrayLinkSpec& link : links) {
    net->InstallLinkProfile(link.src, link.dst, link.profile);
  }
  for (NodeId node : zombie_nodes) {
    net->SetZombieNode(node, true);
  }
}

std::string GraySpec::ToString() const {
  std::string out;
  for (const GrayLinkSpec& link : links) {
    if (!out.empty()) {
      out += ';';
    }
    out += std::to_string(link.src) + "->" + std::to_string(link.dst) + ":";
    std::string attrs;
    if (link.profile.latency_ticks > 0) {
      attrs += "lat=" + std::to_string(link.profile.latency_ticks);
    }
    if (link.profile.loss_rate >= 0) {
      if (!attrs.empty()) attrs += ',';
      attrs += "loss=" + FormatRate(link.profile.loss_rate);
    }
    if (link.profile.duplication_rate >= 0) {
      if (!attrs.empty()) attrs += ',';
      attrs += "dup=" + FormatRate(link.profile.duplication_rate);
    }
    if (link.profile.zombie) {
      if (!attrs.empty()) attrs += ',';
      attrs += "zombie";
    }
    out += attrs;
  }
  for (NodeId node : zombie_nodes) {
    if (!out.empty()) {
      out += ';';
    }
    out += "zombie=" + std::to_string(node);
  }
  return out;
}

}  // namespace bmx
