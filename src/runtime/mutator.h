// The application-facing API — "the user program, called the mutator in the
// GC literature, operates on a single, shared, persistent, possibly large
// graph of objects allocated from a number of bunches" (paper §2.1).
//
// Access discipline is entry consistency (§2.2): bracket reads of an object
// with AcquireRead/Release and writes with AcquireWrite/Release.  Every
// reference store goes through WriteRef — the write-barrier macro of the
// prototype (§8) — and pointer equality goes through SameObject, the
// pointer-comparison macro that accounts for forwarding pointers.
//
// A Mutator's roots are its simulated stack: the collector treats them as
// strong roots and updates them in place when objects move.

#ifndef SRC_RUNTIME_MUTATOR_H_
#define SRC_RUNTIME_MUTATOR_H_

#include <vector>

#include "src/common/types.h"
#include "src/gc/gc_engine.h"
#include "src/runtime/history.h"
#include "src/runtime/node.h"

namespace bmx {

class Mutator : public RootProvider {
 public:
  explicit Mutator(Node* node);
  ~Mutator() override;

  Mutator(const Mutator&) = delete;
  Mutator& operator=(const Mutator&) = delete;

  NodeId node_id() const { return node_->id(); }

  // --- Allocation ---
  Gaddr Alloc(BunchId bunch, uint32_t size_slots);

  // --- Entry-consistency critical sections ---
  bool AcquireRead(Gaddr addr);
  bool AcquireWrite(Gaddr addr);
  void Release(Gaddr addr);

  // --- Slot access (token-checked) ---
  void WriteRef(Gaddr obj, size_t slot, Gaddr target);
  void WriteWord(Gaddr obj, size_t slot, uint64_t value);
  Gaddr ReadRef(Gaddr obj, size_t slot) const;
  uint64_t ReadWord(Gaddr obj, size_t slot) const;

  bool SameObject(Gaddr a, Gaddr b) const { return node_->gc().SameObject(a, b); }

  // --- Roots (the simulated stack) ---
  size_t AddRoot(Gaddr addr);
  void SetRoot(size_t index, Gaddr addr);
  Gaddr Root(size_t index) const;
  void ClearRoot(size_t index) { SetRoot(index, kNullAddr); }

  std::vector<Gaddr*> RootSlots() override;

 private:
  // Entry-consistency discipline checks: a write needs the write token, a
  // read any token.
  void CheckWritable(Gaddr obj) const;
  void CheckReadable(Gaddr obj) const;
  // Consistency-checker hook: records one client-observable event when the
  // cluster has history recording enabled; a single branch otherwise.
  void RecordHistory(HistoryOp op, Gaddr obj, uint32_t slot, uint64_t value,
                     bool is_ref) const;

  Node* node_;
  std::vector<Gaddr> roots_;
};

}  // namespace bmx

#endif  // SRC_RUNTIME_MUTATOR_H_
