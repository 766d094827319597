// GC information that rides on DSM consistency messages ("piggy-backing",
// paper §3.2, §4.4, §5).
//
// The central trick of the paper: the collector never sends its own messages
// on the critical path.  New object locations (after an asynchronous BGC) and
// intra-bunch SSP creation requests travel inside the replies to token
// acquires that applications perform anyway, which is how invariants 1 and 3
// of §5 are maintained "without incurring in extra communication overhead".

#ifndef SRC_DSM_PIGGYBACK_H_
#define SRC_DSM_PIGGYBACK_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace bmx {

// Wire sizes of the piggyback element types, shared by every payload that
// serializes them (Piggyback::WireSize, AddressChangePayload::WireSize) so
// the accounting cannot drift apart.
inline constexpr size_t kAddressUpdateWireBytes = 28;   // oid + bunch + 2 addrs
inline constexpr size_t kIntraSspRequestWireBytes = 16;  // oid + bunch + node
inline constexpr size_t kInterStubTemplateWireBytes = 28;  // full descriptor

// Cap on AddressUpdates one piggyback may carry (≈7 KiB of updates).  A grant
// whose update list exceeds this ships the head inline and spills the tail
// into a background address-change message: the consistency reply stays
// bounded, the information still arrives off the critical path.
inline constexpr size_t kMaxPiggybackUpdates = 256;

// "Object with oid moved from old_addr to new_addr."  Receivers holding a
// local copy at old_addr relocate their bytes and leave a local forwarding
// header; receivers without one just learn the new location.
struct AddressUpdate {
  Oid oid = kNullOid;
  BunchId bunch = kInvalidBunch;
  Gaddr old_addr = kNullAddr;
  Gaddr new_addr = kNullAddr;
};

// "Create an intra-bunch stub for `oid` pointing at the intra-bunch scion on
// `scion_node`."  Sent by an old owner to the new owner inside the write
// grant (invariant 3, §5): the intra-bunch SSP is the forwarding link from
// the new owner to the inter-bunch stubs left at previous owners.
struct IntraSspRequest {
  Oid oid = kNullOid;
  BunchId bunch = kInvalidBunch;
  NodeId scion_node = kInvalidNode;
};

// Template for replicating an inter-bunch stub at a new owner — the §3.2
// *alternative* to intra-bunch SSPs, implemented for the ablation study.
// The receiver assigns a fresh stub id and creates/solicits the scion.
struct InterStubTemplate {
  Oid src_oid = kNullOid;
  uint32_t slot = 0;
  BunchId src_bunch = kInvalidBunch;
  Gaddr target_addr = kNullAddr;
  BunchId target_bunch = kInvalidBunch;
};

struct Piggyback {
  std::vector<AddressUpdate> updates;
  std::vector<IntraSspRequest> intra_ssp_requests;
  std::vector<InterStubTemplate> replicated_stubs;

  bool Empty() const {
    return updates.empty() && intra_ssp_requests.empty() && replicated_stubs.empty();
  }

  size_t WireSize() const {
    return updates.size() * kAddressUpdateWireBytes +
           intra_ssp_requests.size() * kIntraSspRequestWireBytes +
           replicated_stubs.size() * kInterStubTemplateWireBytes;
  }
};

}  // namespace bmx

#endif  // SRC_DSM_PIGGYBACK_H_
