#include "src/runtime/mutator.h"

#include "src/common/check.h"

namespace bmx {

Mutator::Mutator(Node* node) : node_(node) {
  BMX_CHECK(node_ != nullptr);
  node_->gc().AddRootProvider(this);
}

Mutator::~Mutator() { node_->gc().RemoveRootProvider(this); }

const ObjectHeader* Mutator::LocalHeader(Gaddr obj) const {
  return node_->store().HeaderOf(node_->dsm().LocalCopyOf(obj));
}

void Mutator::RecordHistory(HistoryOp op, Gaddr obj, uint32_t slot, uint64_t value,
                            bool is_ref) const {
  HistoryRecorder* recorder = node_->network()->history_recorder();
  if (recorder == nullptr) {
    return;
  }
  const ObjectHeader* header = LocalHeader(obj);
  if (header == nullptr) {
    return;  // nothing local to attribute the event to
  }
  HistoryEvent event;
  event.op = op;
  event.oid = header->oid;
  event.slot = slot;
  event.value = value;
  event.is_ref = is_ref;
  recorder->Record(node_->id(), std::move(event));
}

Gaddr Mutator::Alloc(BunchId bunch, uint32_t size_slots) {
  Gaddr addr = node_->gc().Allocate(bunch, size_slots);
  RecordHistory(HistoryOp::kAlloc, addr, 0, size_slots, false);
  return addr;
}

bool Mutator::AcquireRead(Gaddr addr) {
  bool ok = node_->dsm().AcquireRead(addr);
  if (ok) {
    // Recorded after success: the grant delivery (if any) has already joined
    // the granter's clock into ours, so the acquire carries the edge.
    RecordHistory(HistoryOp::kAcquireRead, addr, 0, 0, false);
  }
  return ok;
}

bool Mutator::AcquireWrite(Gaddr addr) {
  bool ok = node_->dsm().AcquireWrite(addr);
  if (ok) {
    RecordHistory(HistoryOp::kAcquireWrite, addr, 0, 0, false);
  }
  return ok;
}

void Mutator::Release(Gaddr addr) {
  // Recorded before the protocol release: anything the release triggers
  // (deferred grants, invalidation acks) must causally follow the event.
  RecordHistory(HistoryOp::kRelease, addr, 0, 0, false);
  node_->dsm().Release(addr);
}

void Mutator::CheckWritable(Gaddr obj) const {
  const ObjectHeader* header = LocalHeader(obj);
  BMX_CHECK(header != nullptr) << "write to unmapped object";
  Oid oid = header->oid;
  BMX_CHECK(node_->dsm().StateOf(oid) == TokenState::kWrite)
      << "entry consistency violation: write without the write token (node " << node_->id()
      << ", oid " << oid << ")";
}

void Mutator::CheckReadable(Gaddr obj) const {
  const ObjectHeader* header = LocalHeader(obj);
  BMX_CHECK(header != nullptr) << "read of unmapped object";
  Oid oid = header->oid;
  BMX_CHECK(node_->dsm().StateOf(oid) != TokenState::kNone)
      << "entry consistency violation: read without a token (node " << node_->id() << ", oid "
      << oid << ")";
}

void Mutator::WriteRef(Gaddr obj, size_t slot, Gaddr target) {
  CheckWritable(obj);
  node_->gc().WriteRef(obj, slot, target);
  RecordHistory(HistoryOp::kWrite, obj, static_cast<uint32_t>(slot), target, true);
}

void Mutator::WriteWord(Gaddr obj, size_t slot, uint64_t value) {
  CheckWritable(obj);
  node_->gc().WriteWord(obj, slot, value);
  RecordHistory(HistoryOp::kWrite, obj, static_cast<uint32_t>(slot), value, false);
}

Gaddr Mutator::ReadRef(Gaddr obj, size_t slot) const {
  CheckReadable(obj);
  Gaddr value = node_->gc().ReadSlot(obj, slot);
  RecordHistory(HistoryOp::kRead, obj, static_cast<uint32_t>(slot), value, true);
  return value;
}

uint64_t Mutator::ReadWord(Gaddr obj, size_t slot) const {
  CheckReadable(obj);
  uint64_t value = node_->gc().ReadSlot(obj, slot);
  RecordHistory(HistoryOp::kRead, obj, static_cast<uint32_t>(slot), value, false);
  return value;
}

size_t Mutator::AddRoot(Gaddr addr) {
  if (addr != kNullAddr) {
    // A root must refer to an object this node has actually faulted in; the
    // non-owned local replica is what ties our interest into the global
    // liveness chain (exiting ownerPtr → entering ownerPtr at the owner).
    BMX_CHECK(node_->store().HeaderOf(node_->dsm().ResolveAddr(addr)) != nullptr)
        << "root to an object with no local replica; acquire it first";
  }
  roots_.push_back(addr);
  return roots_.size() - 1;
}

void Mutator::SetRoot(size_t index, Gaddr addr) {
  BMX_CHECK_LT(index, roots_.size());
  roots_[index] = addr;
}

Gaddr Mutator::Root(size_t index) const {
  BMX_CHECK_LT(index, roots_.size());
  return roots_[index];
}

std::vector<Gaddr*> Mutator::RootSlots() {
  std::vector<Gaddr*> slots;
  slots.reserve(roots_.size());
  for (Gaddr& root : roots_) {
    slots.push_back(&root);
  }
  return slots;
}

}  // namespace bmx
