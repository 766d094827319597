#include "src/net/batch.h"

#include <cstring>
#include <utility>

#include "src/common/check.h"

namespace bmx {

namespace {

constexpr uint8_t kMagic[4] = {'B', 'M', 'X', 'B'};

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

bool Fail(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = what;
  }
  return false;
}

}  // namespace

size_t BatchFrameImageSize(const std::vector<size_t>& body_sizes) {
  size_t total = kBatchFrameHeaderBytes + kBatchFrameTrailerBytes;
  for (size_t s : body_sizes) {
    total += kBatchEntryHeaderBytes + s;
  }
  return total;
}

std::vector<uint8_t> EncodeBatchFrame(const std::vector<BatchWireEntry>& entries) {
  BMX_CHECK(!entries.empty()) << "a batch frame must carry at least one message";
  BMX_CHECK_LE(entries.size(), kMaxBatchEntries);
  std::vector<uint8_t> out;
  out.reserve(64);
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kBatchFrameVersion);
  PutU16(&out, static_cast<uint16_t>(entries.size()));
  size_t region = 0;
  for (const BatchWireEntry& e : entries) {
    region += kBatchEntryHeaderBytes + e.body.size();
  }
  BMX_CHECK_LE(kBatchFrameHeaderBytes + region + kBatchFrameTrailerBytes, kMaxBatchFrameBytes)
      << "batch frame exceeds the codec size bound";
  PutU32(&out, static_cast<uint32_t>(region));
  for (const BatchWireEntry& e : entries) {
    BMX_CHECK_LT(e.kind, static_cast<uint8_t>(MsgKind::kMaxKind));
    BMX_CHECK_LT(e.category, kNumMsgCategories);
    out.push_back(e.kind);
    out.push_back(e.category);
    PutU32(&out, static_cast<uint32_t>(e.body.size()));
    out.insert(out.end(), e.body.begin(), e.body.end());
  }
  PutU64(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

bool DecodeBatchFrame(const uint8_t* data, size_t size, std::vector<BatchWireEntry>* out,
                      std::string* error) {
  if (data == nullptr || size < kBatchFrameHeaderBytes + kBatchFrameTrailerBytes) {
    return Fail(error, "frame shorter than header + checksum");
  }
  if (size > kMaxBatchFrameBytes) {
    return Fail(error, "frame exceeds the codec size bound");
  }
  if (std::memcmp(data, kMagic, 4) != 0) {
    return Fail(error, "bad magic");
  }
  if (data[4] != kBatchFrameVersion) {
    return Fail(error, "unknown frame version");
  }
  // Checksum first: after this, every structural field is known authentic, so
  // the structural checks below diagnose encoder bugs rather than corruption.
  if (GetU64(data + size - kBatchFrameTrailerBytes) !=
      Fnv1a64(data, size - kBatchFrameTrailerBytes)) {
    return Fail(error, "checksum mismatch");
  }
  size_t count = GetU16(data + 5);
  if (count == 0) {
    return Fail(error, "empty frame");
  }
  if (count > kMaxBatchEntries) {
    return Fail(error, "entry count exceeds the codec bound");
  }
  size_t region = GetU32(data + 7);
  if (kBatchFrameHeaderBytes + region + kBatchFrameTrailerBytes != size) {
    return Fail(error, "entry-region length does not match frame size");
  }
  std::vector<BatchWireEntry> entries;
  entries.reserve(count);
  const uint8_t* p = data + kBatchFrameHeaderBytes;
  size_t remaining = region;
  for (size_t i = 0; i < count; ++i) {
    if (remaining < kBatchEntryHeaderBytes) {
      return Fail(error, "truncated entry header");
    }
    BatchWireEntry e;
    e.kind = p[0];
    e.category = p[1];
    if (e.kind >= static_cast<uint8_t>(MsgKind::kMaxKind)) {
      return Fail(error, "entry kind out of range");
    }
    if (e.category >= kNumMsgCategories) {
      return Fail(error, "entry category out of range");
    }
    size_t body_len = GetU32(p + 2);
    p += kBatchEntryHeaderBytes;
    remaining -= kBatchEntryHeaderBytes;
    if (body_len > remaining) {
      return Fail(error, "entry body overruns the frame");
    }
    e.body.assign(p, p + body_len);
    p += body_len;
    remaining -= body_len;
    entries.push_back(std::move(e));
  }
  if (remaining != 0) {
    return Fail(error, "trailing bytes after the last entry");
  }
  *out = std::move(entries);
  return true;
}

BatchFramePayload::BatchFramePayload(std::vector<BatchedMessage> entries)
    : entries_(std::move(entries)) {
  BMX_CHECK(!entries_.empty()) << "a batch frame must carry at least one message";
  std::vector<size_t> body_sizes;
  body_sizes.reserve(entries_.size());
  for (const BatchedMessage& e : entries_) {
    body_sizes.push_back(e.payload->WireSize());
  }
  wire_size_ = BatchFrameImageSize(body_sizes);
}

bool BatchableMsgKind(MsgKind kind) {
  switch (kind) {
    // DSM control: invalidation fan-outs and their acks, plus the small
    // copy-set address-forwarding pushes.  Acquire/grant are excluded —
    // they gate mutator progress and grants are bulky.
    case MsgKind::kInvalidate:
    case MsgKind::kInvalidateAck:
    case MsgKind::kObjectPush:
    // Background GC control: scion creates, from-space reclaim trains and
    // the piggyback-overflow spill (§4.5).  Reachability tables stay out:
    // they are unreliable idempotent datagrams (§6.1), and frames ride the
    // reliable stream.
    case MsgKind::kScionMessage:
    case MsgKind::kCopyRequest:
    case MsgKind::kCopyReply:
    case MsgKind::kAddressChange:
    case MsgKind::kAddressChangeAck:
    // Crash recovery: the reconciliation queries a restarted node fans out.
    case MsgKind::kRecoveryQuery:
      return true;
    default:
      return false;
  }
}

}  // namespace bmx
