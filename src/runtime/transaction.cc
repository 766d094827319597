#include "src/runtime/transaction.h"

#include "src/common/check.h"

namespace bmx {

Transaction::Transaction(Mutator* mutator, Node* node, BunchId bunch)
    : mutator_(mutator), node_(node), bunch_(bunch) {
  BMX_CHECK(mutator_ != nullptr && node_ != nullptr);
}

Transaction::~Transaction() {
  if (open_) {
    Abort();
  }
}

void Transaction::RecordUndo(Gaddr obj, size_t slot) {
  Gaddr canonical = node_->dsm().LocalCopyOf(obj);
  UndoRecord record;
  record.obj = canonical;
  record.slot = slot;
  record.old_value = node_->store().ReadSlot(canonical, slot);
  record.old_is_ref = node_->store().SlotIsRef(canonical, slot);
  undo_.push_back(record);
  touched_.insert(SegmentOf(canonical));
  touched_objects_.insert(canonical);
}

void Transaction::WriteWord(Gaddr obj, size_t slot, uint64_t value) {
  BMX_CHECK(open_) << "write on a closed transaction";
  RecordUndo(obj, slot);
  mutator_->WriteWord(obj, slot, value);
}

void Transaction::WriteRef(Gaddr obj, size_t slot, Gaddr target) {
  BMX_CHECK(open_) << "write on a closed transaction";
  RecordUndo(obj, slot);
  mutator_->WriteRef(obj, slot, target);
}

Gaddr Transaction::Alloc(uint32_t size_slots) {
  BMX_CHECK(open_) << "alloc on a closed transaction";
  Gaddr obj = mutator_->Alloc(bunch_, size_slots);
  touched_.insert(SegmentOf(obj));
  touched_objects_.insert(obj);
  return obj;
}

void Transaction::Commit() {
  BMX_CHECK(open_) << "double commit/abort";
  open_ = false;
  // Durability at object granularity: exactly the objects this transaction
  // wrote reach stable storage, atomically (one RVM transaction).  A
  // whole-segment checkpoint would write this node's possibly-stale image of
  // *other* objects over their committed state.
  std::vector<std::pair<SegmentImage*, Gaddr>> objects;
  for (Gaddr addr : touched_objects_) {
    Gaddr canonical = node_->dsm().LocalCopyOf(addr);
    SegmentImage* image = node_->store().SegmentFor(canonical);
    if (image != nullptr && image->HeaderOf(canonical) != nullptr) {
      objects.emplace_back(image, canonical);
    }
  }
  node_->persistence().CommitObjects(objects);
  undo_.clear();
}

void Transaction::Abort() {
  BMX_CHECK(open_) << "double commit/abort";
  open_ = false;
  // Unwind in reverse so overlapping writes restore correctly.  Restores go
  // through the mutator API, so the write barrier keeps reference-map bits
  // and SSP bookkeeping coherent.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    if (it->old_is_ref) {
      mutator_->WriteRef(it->obj, it->slot, it->old_value);
    } else {
      mutator_->WriteWord(it->obj, it->slot, it->old_value);
    }
  }
  undo_.clear();
}

}  // namespace bmx
