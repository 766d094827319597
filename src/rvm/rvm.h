// Lightweight recoverable virtual memory, after Satyanarayanan et al. (SOSP
// '93), the substrate the BMX prototype uses for persistence (paper §2.1,
// §8): "after a bunch is mapped into memory, every modification performed on
// the bunch's range of addresses has an associated log entry and can be
// recovered after a system failure."
//
// The model follows LRVM:
//   * External data files are mapped to regions of volatile memory.
//   * A transaction brackets modifications; set_range declares the byte range
//     about to be modified.  An in-memory undo copy supports abort.
//   * Commit writes redo records (the new values) to a disk-based log, then a
//     commit marker.  No-flush commits are supported for bounded-persistence
//     callers (the garbage collector uses them; O'Toole et al. style).
//   * Truncation applies the committed log prefix to the data files and
//     resets the log.
//   * Recovery (after a crash that loses all volatile state) replays the
//     committed transactions from the log into the data files; uncommitted
//     tail records are discarded.

#ifndef SRC_RVM_RVM_H_
#define SRC_RVM_RVM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/rvm/disk.h"

namespace bmx {

using TxId = uint64_t;

struct RvmStats {
  uint64_t transactions_committed = 0;
  uint64_t transactions_aborted = 0;
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  uint64_t truncations = 0;
  uint64_t recovered_transactions = 0;
};

class Rvm {
 public:
  // log_name identifies this manager's log file on `disk`.  An existing log
  // is left in place so that Recover() can replay it.  `owner` names the node
  // this manager belongs to for crash-point fault injection (kInvalidNode for
  // standalone use: no armed schedule can target it).
  Rvm(Disk* disk, std::string log_name, NodeId owner = kInvalidNode);

  // Associates an external data file with a region of volatile memory and
  // loads the file's current contents into it.  Creates the file (zero
  // filled) if it does not exist.  The memory must outlive the mapping.
  void MapRegion(const std::string& file, uint8_t* mem, size_t len);
  // Registers the mapping without loading the file into memory — used when
  // the in-memory image is already the authoritative newer state (checkpoint
  // of a live segment).  Creates the file if absent.
  void MapRegionAdopt(const std::string& file, uint8_t* mem, size_t len);
  void UnmapRegion(const std::string& file);

  TxId BeginTransaction();

  // Declares that [offset, offset+len) of `file`'s mapped region is about to
  // be modified by `tx`.  Snapshots the old value for abort.
  void SetRange(TxId tx, const std::string& file, size_t offset, size_t len);

  // Durably logs the new values of every declared range.
  void CommitTransaction(TxId tx);

  // Restores every declared range to its pre-transaction value.
  void AbortTransaction(TxId tx);

  // Applies the committed log to the data files and clears the log.
  void TruncateLog();

  // Replays committed transactions from the log into the data files (call
  // after a crash, before MapRegion).  Idempotent.
  void Recover();

  size_t LogSizeBytes() const;
  const RvmStats& stats() const { return stats_; }

 private:
  struct Range {
    std::string file;
    size_t offset = 0;
    std::vector<uint8_t> undo;  // old value, for abort
  };
  struct OpenTx {
    std::vector<Range> ranges;
  };
  struct Region {
    uint8_t* mem = nullptr;
    size_t len = 0;
  };

  void AppendRedoRecords(const OpenTx& tx, TxId id);

  Disk* disk_;
  std::string log_name_;
  NodeId owner_ = kInvalidNode;
  TxId next_tx_ = 1;
  std::map<TxId, OpenTx> open_;
  std::map<std::string, Region> regions_;
  RvmStats stats_;
};

}  // namespace bmx

#endif  // SRC_RVM_RVM_H_
