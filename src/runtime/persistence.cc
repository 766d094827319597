#include "src/runtime/persistence.h"

#include <cstring>

#include "src/common/check.h"
#include "src/common/fault_injector.h"

namespace bmx {

namespace {

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
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

}  // namespace

PersistenceManager::PersistenceManager(Disk* disk, NodeId node)
    : disk_(disk), node_(node), rvm_(disk, "rvm_log_node_" + std::to_string(node), node) {}

std::string PersistenceManager::DataFile(SegmentId seg) const {
  return "seg_" + std::to_string(seg) + ".data";
}

std::string PersistenceManager::MetaFile(SegmentId seg) const {
  return "seg_" + std::to_string(seg) + ".meta";
}

std::string PersistenceManager::ManifestFile() const {
  return "manifest_node_" + std::to_string(node_);
}

std::vector<uint8_t> PersistenceManager::EncodeManifest() const {
  std::vector<uint8_t> out;
  PutU64(&out, manifest_.size());
  for (const auto& [seg, bunch] : manifest_) {
    PutU64(&out, seg);
    PutU64(&out, bunch);
  }
  return out;
}

void PersistenceManager::EnsureManifestLoaded() {
  if (manifest_loaded_) {
    return;
  }
  manifest_loaded_ = true;
  if (!disk_->Exists(ManifestFile())) {
    return;
  }
  const std::vector<uint8_t>& raw = disk_->Contents(ManifestFile());
  if (raw.size() < 8) {
    return;
  }
  uint64_t count = GetU64(raw.data());
  // A manifest rewritten smaller leaves stale trailing bytes in the region
  // file; the leading count is what delimits the live prefix.
  BMX_CHECK_LE(8 + count * 16, raw.size()) << "corrupt manifest for node " << node_;
  for (uint64_t i = 0; i < count; ++i) {
    SegmentId seg = static_cast<SegmentId>(GetU64(raw.data() + 8 + i * 16));
    BunchId bunch = static_cast<BunchId>(GetU64(raw.data() + 8 + i * 16 + 8));
    manifest_[seg] = bunch;
  }
}

std::vector<uint8_t> PersistenceManager::MergeIntoManifest(
    const std::vector<std::pair<SegmentId, BunchId>>& entries) {
  EnsureManifestLoaded();
  for (const auto& [seg, bunch] : entries) {
    manifest_[seg] = bunch;
  }
  return EncodeManifest();
}

const std::map<SegmentId, BunchId>& PersistenceManager::Manifest() {
  EnsureManifestLoaded();
  return manifest_;
}

std::vector<uint8_t> PersistenceManager::EncodeMeta(SegmentImage* image) const {
  std::vector<uint8_t> out;
  PutU64(&out, image->allocated_bytes());
  PutU64(&out, image->bunch());
  for (uint64_t word : image->object_map().words()) {
    PutU64(&out, word);
  }
  for (uint64_t word : image->ref_map().words()) {
    PutU64(&out, word);
  }
  return out;
}

void PersistenceManager::CheckpointSegments(const std::vector<SegmentImage*>& images) {
  // Regions are mapped transiently: images may be dropped between
  // checkpoints, so RVM must not keep pointers into them.
  std::vector<std::vector<uint8_t>> metas;
  metas.reserve(images.size());
  TxId tx = rvm_.BeginTransaction();
  std::vector<std::pair<SegmentId, BunchId>> entries;
  for (SegmentImage* image : images) {
    const std::string data = DataFile(image->id());
    const std::string meta = MetaFile(image->id());
    metas.push_back(EncodeMeta(image));
    rvm_.MapRegionAdopt(data, image->bytes(), kSegmentBytes);
    rvm_.MapRegionAdopt(meta, metas.back().data(), metas.back().size());
    // Only the prefix below the cursor: no object byte lies at or past it,
    // and the data file was created zero-filled at kSegmentBytes.
    rvm_.SetRange(tx, data, 0, image->allocated_bytes());
    rvm_.SetRange(tx, meta, 0, metas.back().size());
    entries.push_back({image->id(), image->bunch()});
  }
  // The manifest rides in the same transaction: a checkpoint either lands
  // with its manifest entries or not at all.
  std::vector<uint8_t> manifest_buf = MergeIntoManifest(entries);
  rvm_.MapRegionAdopt(ManifestFile(), manifest_buf.data(), manifest_buf.size());
  rvm_.SetRange(tx, ManifestFile(), 0, manifest_buf.size());
  FAULT_POINT("persist.checkpoint.pre_commit", node_);
  rvm_.CommitTransaction(tx);
  FAULT_POINT("persist.checkpoint.post_commit", node_);
  rvm_.UnmapRegion(ManifestFile());
  for (SegmentImage* image : images) {
    rvm_.UnmapRegion(DataFile(image->id()));
    rvm_.UnmapRegion(MetaFile(image->id()));
  }
}

void PersistenceManager::CommitObjects(
    const std::vector<std::pair<SegmentImage*, Gaddr>>& objects) {
  // Group by segment; keep meta buffers alive for the mapped regions.
  std::map<SegmentImage*, std::vector<Gaddr>> by_segment;
  for (const auto& [image, addr] : objects) {
    by_segment[image].push_back(addr);
  }
  std::vector<std::vector<uint8_t>> metas;
  metas.reserve(by_segment.size());
  TxId tx = rvm_.BeginTransaction();
  std::vector<std::pair<SegmentId, BunchId>> entries;
  for (auto& [image, addrs] : by_segment) {
    entries.push_back({image->id(), image->bunch()});
    const std::string data = DataFile(image->id());
    const std::string meta = MetaFile(image->id());
    metas.push_back(EncodeMeta(image));
    std::vector<uint8_t>& meta_buf = metas.back();
    rvm_.MapRegionAdopt(data, image->bytes(), kSegmentBytes);
    rvm_.MapRegionAdopt(meta, meta_buf.data(), meta_buf.size());
    // Cursor + bunch header of the meta sidecar always commit (allocations
    // move the cursor).
    rvm_.SetRange(tx, meta, 0, 16);
    size_t map_words = image->object_map().words().size();
    for (Gaddr addr : addrs) {
      const ObjectHeader* header = image->HeaderOf(addr);
      size_t header_off = OffsetInSegment(addr) - kHeaderBytes;
      size_t footprint = ObjectFootprintBytes(header->size_slots);
      rvm_.SetRange(tx, data, header_off, footprint);
      // Object-map and ref-map words covering this object's slots.
      size_t first_slot = header_off / kSlotBytes;
      size_t last_slot = first_slot + kHeaderSlots + header->size_slots - 1;
      size_t first_word = first_slot / 64;
      size_t last_word = last_slot / 64;
      rvm_.SetRange(tx, meta, 16 + first_word * 8, (last_word - first_word + 1) * 8);
      rvm_.SetRange(tx, meta, 16 + (map_words + first_word) * 8,
                    (last_word - first_word + 1) * 8);
    }
  }
  std::vector<uint8_t> manifest_buf = MergeIntoManifest(entries);
  rvm_.MapRegionAdopt(ManifestFile(), manifest_buf.data(), manifest_buf.size());
  rvm_.SetRange(tx, ManifestFile(), 0, manifest_buf.size());
  FAULT_POINT("persist.checkpoint.pre_commit", node_);
  rvm_.CommitTransaction(tx);
  FAULT_POINT("persist.checkpoint.post_commit", node_);
  rvm_.UnmapRegion(ManifestFile());
  for (auto& [image, addrs] : by_segment) {
    rvm_.UnmapRegion(DataFile(image->id()));
    rvm_.UnmapRegion(MetaFile(image->id()));
  }
}

void PersistenceManager::Recover() {
  rvm_.Recover();
  // Replay may have landed manifest entries committed by the previous life;
  // re-read the file on the next Manifest() call.
  manifest_loaded_ = false;
  manifest_.clear();
}

bool PersistenceManager::LoadSegment(SegmentImage* image) {
  const std::string data = DataFile(image->id());
  const std::string meta = MetaFile(image->id());
  if (!disk_->Exists(data) || !disk_->Exists(meta)) {
    return false;
  }
  const std::vector<uint8_t>& raw = disk_->Contents(meta);
  size_t map_words = image->object_map().words().size();
  BMX_CHECK_EQ(raw.size(), 16 + 2 * map_words * 8) << "corrupt segment meta for " << image->id();
  const size_t cursor = GetU64(raw.data());
  BMX_CHECK_LE(cursor, kSegmentBytes) << "corrupt segment meta for " << image->id() << ": cursor "
                                      << cursor;
  // A checkpoint logs only the bytes below the cursor, so only those are
  // read back: the image commits no page above them.
  disk_->Read(data, 0, image->bytes(), cursor);
  image->set_allocated_bytes(cursor);
  std::vector<uint64_t> words(map_words);
  for (size_t i = 0; i < map_words; ++i) {
    words[i] = GetU64(raw.data() + 16 + i * 8);
  }
  image->object_map().LoadWords(words);
  // Object walks stop at the cursor, so a header bit past it would be an
  // object that no walk visits.
  BMX_CHECK_EQ(image->object_map().FindNextSet(cursor / kSlotBytes), image->object_map().size())
      << "corrupt segment meta for " << image->id() << ": object past cursor " << cursor;
  for (size_t i = 0; i < map_words; ++i) {
    words[i] = GetU64(raw.data() + 16 + (map_words + i) * 8);
  }
  image->ref_map().LoadWords(words);
  return true;
}

void PersistenceManager::TruncateLog() { rvm_.TruncateLog(); }

}  // namespace bmx
