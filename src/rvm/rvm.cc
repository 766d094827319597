#include "src/rvm/rvm.h"

#include <cstring>

#include "src/common/check.h"
#include "src/common/fault_injector.h"

namespace bmx {

namespace {

constexpr uint8_t kRecRange = 1;
constexpr uint8_t kRecCommit = 2;

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (i * 8)));
  }
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (i * 8)));
  }
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= uint64_t{p[i]} << (i * 8);
  }
  return v;
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= uint32_t{p[i]} << (i * 8);
  }
  return v;
}

}  // namespace

Rvm::Rvm(Disk* disk, std::string log_name, NodeId owner)
    : disk_(disk), log_name_(std::move(log_name)), owner_(owner) {
  BMX_CHECK(disk_ != nullptr);
  if (!disk_->Exists(log_name_)) {
    disk_->Create(log_name_, 0);
  }
}

void Rvm::MapRegion(const std::string& file, uint8_t* mem, size_t len) {
  BMX_CHECK(mem != nullptr);
  BMX_CHECK(regions_.count(file) == 0) << file << " already mapped";
  if (!disk_->Exists(file)) {
    disk_->Create(file, len);
  }
  size_t on_disk = disk_->FileSize(file);
  size_t to_load = on_disk < len ? on_disk : len;
  if (to_load > 0) {
    disk_->Read(file, 0, mem, to_load);
  }
  if (to_load < len) {
    std::memset(mem + to_load, 0, len - to_load);
  }
  regions_[file] = Region{mem, len};
}

void Rvm::MapRegionAdopt(const std::string& file, uint8_t* mem, size_t len) {
  BMX_CHECK(mem != nullptr);
  BMX_CHECK(regions_.count(file) == 0) << file << " already mapped";
  if (!disk_->Exists(file)) {
    disk_->Create(file, len);
  }
  regions_[file] = Region{mem, len};
}

void Rvm::UnmapRegion(const std::string& file) {
  BMX_CHECK(regions_.count(file) > 0) << file << " not mapped";
  regions_.erase(file);
}

TxId Rvm::BeginTransaction() {
  TxId id = next_tx_++;
  open_[id] = OpenTx{};
  return id;
}

void Rvm::SetRange(TxId tx, const std::string& file, size_t offset, size_t len) {
  auto tx_it = open_.find(tx);
  BMX_CHECK(tx_it != open_.end()) << "unknown transaction " << tx;
  auto reg_it = regions_.find(file);
  BMX_CHECK(reg_it != regions_.end()) << file << " not mapped";
  BMX_CHECK_LE(offset + len, reg_it->second.len) << "set_range beyond region";

  Range range;
  range.file = file;
  range.offset = offset;
  range.undo.assign(reg_it->second.mem + offset, reg_it->second.mem + offset + len);
  tx_it->second.ranges.push_back(std::move(range));
}

void Rvm::AppendRedoRecords(const OpenTx& tx, TxId id) {
  std::vector<uint8_t> buf;
  for (const Range& r : tx.ranges) {
    const Region& region = regions_.at(r.file);
    buf.clear();
    buf.push_back(kRecRange);
    PutU64(&buf, id);
    PutU32(&buf, static_cast<uint32_t>(r.file.size()));
    buf.insert(buf.end(), r.file.begin(), r.file.end());
    PutU64(&buf, r.offset);
    PutU32(&buf, static_cast<uint32_t>(r.undo.size()));
    // Redo value: the *current* contents of the range (LRVM reads new values
    // at commit time).
    buf.insert(buf.end(), region.mem + r.offset, region.mem + r.offset + r.undo.size());
    disk_->Append(log_name_, buf.data(), buf.size());
    stats_.log_records++;
    stats_.log_bytes += buf.size();
  }
  // Every redo record is on disk but the commit marker is not: a crash here
  // must leave the transaction invisible to Recover().
  FAULT_POINT("rvm.commit.pre_marker", owner_);
  buf.clear();
  buf.push_back(kRecCommit);
  PutU64(&buf, id);
  disk_->Append(log_name_, buf.data(), buf.size());
  stats_.log_records++;
  stats_.log_bytes += buf.size();
}

void Rvm::CommitTransaction(TxId tx) {
  auto it = open_.find(tx);
  BMX_CHECK(it != open_.end()) << "unknown transaction " << tx;
  // Crash before any redo record reaches the log: the transaction's effects
  // exist only in the (dying) volatile image.
  FAULT_POINT("rvm.commit.pre_log", owner_);
  AppendRedoRecords(it->second, tx);
  open_.erase(it);
  stats_.transactions_committed++;
}

void Rvm::AbortTransaction(TxId tx) {
  auto it = open_.find(tx);
  BMX_CHECK(it != open_.end()) << "unknown transaction " << tx;
  // Restore in reverse order so overlapping set_ranges unwind correctly.
  auto& ranges = it->second.ranges;
  for (auto r = ranges.rbegin(); r != ranges.rend(); ++r) {
    const Region& region = regions_.at(r->file);
    std::memcpy(region.mem + r->offset, r->undo.data(), r->undo.size());
  }
  open_.erase(it);
  stats_.transactions_aborted++;
}

void Rvm::TruncateLog() {
  Recover();
  // Crash between applying the committed prefix and resetting the log: the
  // next Recover() replays the same records again, which must be idempotent.
  FAULT_POINT("rvm.truncate.pre_reset", owner_);
  disk_->Truncate(log_name_, 0);
  stats_.truncations++;
}

void Rvm::Recover() {
  const std::vector<uint8_t>& log = disk_->Contents(log_name_);
  // First pass: find committed transaction ids.
  std::map<TxId, bool> committed;
  size_t pos = 0;
  struct ParsedRange {
    TxId tx;
    std::string file;
    uint64_t offset;
    const uint8_t* data;
    uint32_t len;
  };
  std::vector<ParsedRange> ranges;
  while (pos < log.size()) {
    uint8_t type = log[pos];
    if (type == kRecCommit) {
      if (pos + 9 > log.size()) {
        break;  // torn tail
      }
      committed[GetU64(&log[pos + 1])] = true;
      pos += 9;
    } else if (type == kRecRange) {
      if (pos + 13 > log.size()) {
        break;
      }
      TxId tx = GetU64(&log[pos + 1]);
      uint32_t name_len = GetU32(&log[pos + 9]);
      size_t p = pos + 13;
      if (p + name_len + 12 > log.size()) {
        break;
      }
      std::string file(reinterpret_cast<const char*>(&log[p]), name_len);
      p += name_len;
      uint64_t offset = GetU64(&log[p]);
      p += 8;
      uint32_t len = GetU32(&log[p]);
      p += 4;
      if (p + len > log.size()) {
        break;
      }
      ranges.push_back(ParsedRange{tx, std::move(file), offset, &log[p], len});
      pos = p + len;
    } else {
      break;  // corrupt record; stop replay at the last consistent prefix
    }
  }
  // Second pass: apply ranges of committed transactions, in log order.
  uint64_t replayed = 0;
  std::map<TxId, bool> counted;
  for (const ParsedRange& r : ranges) {
    if (!committed.count(r.tx)) {
      continue;
    }
    if (!disk_->Exists(r.file)) {
      disk_->Create(r.file, r.offset + r.len);
    }
    // Copy out first: `r.data` points into the log file owned by disk_ and a
    // Write to another file cannot invalidate it, but keep the copy for
    // clarity and safety against future Disk implementations.
    std::vector<uint8_t> value(r.data, r.data + r.len);
    disk_->Write(r.file, r.offset, value.data(), value.size());
    if (!counted[r.tx]) {
      counted[r.tx] = true;
      replayed++;
    }
  }
  stats_.recovered_transactions += replayed;
}

size_t Rvm::LogSizeBytes() const { return disk_->FileSize(log_name_); }

}  // namespace bmx
