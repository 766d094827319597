// Batched control-message transport (docs/PROTOCOLS.md §14).
//
// The paper's cost discipline is that GC/DSM coordination is "either
// piggy-backed ... or exchanged in the background" (§8).  At real cluster
// sizes the background class dominates the wire in *message count*: reclaim
// rounds emit per-object CopyRequest/CopyReply trains to one owner, address
// changes fan out to every interested node, and scion creates trickle out one
// tiny payload at a time.  The coalescing layer packs small control payloads
// headed to the same destination into one versioned batch frame, cutting wire
// messages without changing a single logical-protocol byte: stats still
// account per logical message, the decision stream is unchanged (flush points
// are deterministic policy, not random draws), and with batching disabled the
// wire is bit-identical to the unbatched transport.
//
// A frame on the simulated wire carries its entries in process and charges
// the size of their encoded image, BatchFrameImageSize, as its wire size.
// The codec below is the reference that formula is tested against (the
// property tests pin EncodeBatchFrame's output size to it); no delivery
// encodes or decodes an image.
//
// Frame layout (little-endian):
//   offset 0   magic "BMXB" (4 bytes)
//   offset 4   version, u8 (= kBatchFrameVersion)
//   offset 5   entry count, u16 (1 .. kMaxBatchEntries; empty frames invalid)
//   offset 7   entry-region length, u32 (bytes between header and checksum)
//   offset 11  entries: kind u8, category u8, body length u32, body bytes
//   last 8     FNV-1a-64 checksum of every preceding byte, u64
//
// Decode rejects: short or oversized images, bad magic, unknown version,
// zero or out-of-range entry counts, region-length mismatches, truncated or
// overlong entries, out-of-range kind/category codes, and any checksum
// mismatch (a single flipped byte always changes the FNV-1a digest).

#ifndef SRC_NET_BATCH_H_
#define SRC_NET_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/message.h"

namespace bmx {

inline constexpr uint8_t kBatchFrameVersion = 1;
// Hard codec bounds; the flush caps below must stay within them.
inline constexpr size_t kMaxBatchEntries = 256;
inline constexpr size_t kMaxBatchFrameBytes = 64 * 1024;
// Fixed framing overhead: header (magic + version + count + region length)
// plus the trailing checksum.
inline constexpr size_t kBatchFrameHeaderBytes = 11;
inline constexpr size_t kBatchFrameTrailerBytes = 8;
inline constexpr size_t kBatchEntryHeaderBytes = 6;

// One logical message as it appears inside a frame image.
struct BatchWireEntry {
  uint8_t kind = 0;
  uint8_t category = 0;
  std::vector<uint8_t> body;
};

// Encodes a non-empty entry list into a frame image.  Fatal (BMX_CHECK) on
// inputs outside the codec bounds.
std::vector<uint8_t> EncodeBatchFrame(const std::vector<BatchWireEntry>& entries);

// Decodes and fully validates a frame image.  Returns false (and fills
// *error, if non-null) on any malformed input; *out is untouched on failure.
bool DecodeBatchFrame(const uint8_t* data, size_t size, std::vector<BatchWireEntry>* out,
                      std::string* error);

// Total image size EncodeBatchFrame produces for entries of the given body
// sizes (framing + per-entry headers + bodies).
size_t BatchFrameImageSize(const std::vector<size_t>& body_sizes);

// The kinds the coalescing layer may pack into frames: small, reliable
// control messages whose intra-channel ordering the batch preserves.  Bulky
// or latency-critical payloads (acquire/grant), unreliable datagrams
// (reachability tables) and the baseline collectors' traffic stay unbatched.
bool BatchableMsgKind(MsgKind kind);

// Per-destination coalescing policy.  Disabled by default: the unbatched
// transport is the pinned-fingerprint baseline.
struct BatchPolicy {
  bool enabled = false;
};

// Flush caps of the coalescing layer.  A channel's pending batch flushes when
// it holds kBatchMaxEntries payloads or kBatchMaxBytes payload bytes,
// whichever comes first, and no later than kBatchDeadlineTicks virtual-clock
// ticks after it opened (bounding how long coalescing can delay a control
// message).  Payloads larger than kBatchableSizeLimit bypass coalescing even
// when their kind is batchable: 128 B covers the small-object copy replies
// of a §4.5 reclaim train while staying well under the bulk grant sizes.
inline constexpr size_t kBatchMaxEntries = 16;
inline constexpr size_t kBatchMaxBytes = 1024;
inline constexpr uint64_t kBatchDeadlineTicks = 4;
inline constexpr size_t kBatchableSizeLimit = 128;
static_assert(kBatchMaxEntries <= kMaxBatchEntries, "entry cap exceeds the codec bound");
// A batch seals when it *reaches* a cap, so the largest frame holds
// kBatchMaxBytes - 1 buffered bytes plus one more batchable payload.
static_assert(kBatchFrameHeaderBytes + kBatchFrameTrailerBytes +
                      kBatchMaxEntries * kBatchEntryHeaderBytes + kBatchMaxBytes +
                      kBatchableSizeLimit <=
                  kMaxBatchFrameBytes,
              "flush caps exceed the batch-frame codec bound");

// One logical message riding in a frame.  `seq` is the channel wire sequence
// the message was assigned when the sender appended it — the identity the
// history recorder keyed its send snapshot on, restored at unpack so
// causality stays per logical message, not per frame.
struct BatchedMessage {
  uint64_t seq = 0;
  std::shared_ptr<const Payload> payload;
};

// The frame payload the network transmits: the logical messages in send
// order, and the wire size of their encoded image.
class BatchFramePayload : public Payload {
 public:
  explicit BatchFramePayload(std::vector<BatchedMessage> entries);

  MsgKind kind() const override { return MsgKind::kBatchFrame; }
  // Frames carry mixed-category traffic; the category of the first entry
  // classifies the frame's wire bytes (per-category *logical* accounting is
  // untouched — it was recorded per payload at Send time).
  MsgCategory category() const override { return entries_.front().payload->category(); }
  size_t WireSize() const override { return wire_size_; }

  const std::vector<BatchedMessage>& entries() const { return entries_; }

 private:
  std::vector<BatchedMessage> entries_;
  size_t wire_size_;
};

}  // namespace bmx

#endif  // SRC_NET_BATCH_H_
