// Deterministic crash-point fault injection.
//
// Protocol code marks the instants where a crash is interesting — just before
// a grant leaves the owner, between writing redo records and the commit
// marker, after the flip but before the reachability tables go out — with
// named FAULT_POINT sites.  A test arms a schedule ("crash node N at the k-th
// hit of site S"); when the schedule matches, the injector throws
// NodeCrashSignal, which unwinds the victim's call stack exactly as a machine
// check would stop a real node mid-instruction.  The simulated network
// catches the signal at its dispatch boundary and converts it into a node
// crash; direct callers (tests driving a node's GC or checkpoint code)
// catch it themselves and report the crash to the cluster.
//
// Sites are registered in a canonical table (AllSites) so sweeps can
// enumerate every crash point and so a typo in a site name fails fast
// instead of silently never firing.

#ifndef SRC_COMMON_FAULT_INJECTOR_H_
#define SRC_COMMON_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace bmx {

// Thrown from a fault site to simulate the named node halting on the spot.
// Deliberately NOT derived from std::exception: nothing may catch it
// accidentally via catch (const std::exception&).
struct NodeCrashSignal {
  NodeId node = kInvalidNode;
  const char* site = "";
};

class FaultInjector {
 public:
  // Per-thread instance (like GlobalPerfCounters): every cluster runs
  // confined to one thread — the main thread normally, a TaskPool helper
  // thread for a parallel explorer walk — and its fault schedules and fire
  // gate live on that thread.  Tests Reset() it between scenarios; scenario closures must
  // not leave schedules armed behind them.
  static FaultInjector& Global();

  // Marks one execution of the named crash point by `node`.  Cheap when
  // nothing is armed; throws NodeCrashSignal{node, site} when an armed
  // schedule matches.  `site` must be in the canonical table.
  void Hit(const char* site, NodeId node);

  // Arms "crash `node` at the `kth_hit`-th execution of `site`" (1-based).
  // Hit counting for the schedule starts now, not at process start.
  void Arm(const std::string& site, NodeId node, uint64_t kth_hit = 1);

  // Disarms every schedule and clears all hit counts.
  void Reset();

  // Track per-site hit counts even with no schedule armed (sweeps use this
  // to prove every registered site is actually exercised by the workload).
  void set_recording(bool on);

  bool ArmedAnywhere() const { return !armed_.empty(); }
  uint64_t HitCount(const std::string& site, NodeId node) const;
  uint64_t HitCount(const std::string& site) const;

  // Routes armed-schedule firings through the network's decision stream.
  // When a gate is set, a matched schedule throws only if the gate returns
  // true; a gated-off match leaves the schedule armed, to be consulted again
  // on the next hit of the site.  `owner` scopes removal: ClearFireGate is a
  // no-op unless called with the owner that installed the current gate, so a
  // network being destroyed cannot tear down a successor's gate.  Reset()
  // deliberately leaves the gate in place — it is delivery-scheduling
  // plumbing, not an armed schedule.
  void set_fire_gate(const void* owner, std::function<bool(const char*, NodeId)> gate);
  void ClearFireGate(const void* owner);

  // Canonical site table; arming or hitting a name outside it is a fatal
  // error.
  static const std::vector<const char*>& AllSites();

 private:
  FaultInjector() = default;

  struct Schedule {
    uint64_t kth_hit = 0;
    uint64_t hits = 0;  // hits observed since the schedule was armed
  };

  using SiteNode = std::pair<std::string, NodeId>;

  bool recording_ = false;
  std::map<SiteNode, Schedule> armed_;
  std::map<SiteNode, uint64_t> hits_;
  const void* gate_owner_ = nullptr;
  std::function<bool(const char*, NodeId)> fire_gate_;
};

// Site marker used by protocol code.  Reads as a statement and compiles to a
// counter bump plus one branch when nothing is armed.
#define FAULT_POINT(site, node) ::bmx::FaultInjector::Global().Hit((site), (node))

}  // namespace bmx

#endif  // SRC_COMMON_FAULT_INJECTOR_H_
