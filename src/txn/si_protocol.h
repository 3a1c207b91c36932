// SiProtocol: the paper's MVCC snapshot-isolation protocol (§4.2).
//
//  * Read: own write set first, then the newest version visible at the
//    transaction's pinned ReadCTS (first read pins the group's LastCTS,
//    later reads reuse it — every operation reads from the same snapshot).
//  * Write: append to the dirty array; writes never block.
//  * Commit: per key, claim commit ownership (the "additional write locks"
//    for multiple writers), check First-Committer-Wins, apply in memory,
//    persist through to the base table, and finally advance the group's
//    commit timestamp. FCW aborts on any committed modification newer than
//    min(BOT, the state's snapshot) once the transaction has pinned a
//    snapshot, and newer than BOT otherwise. The snapshot can lie below
//    BOT: the §4.3 cut is clamped below every commit still between
//    timestamp draw and publication, and such a commit is invisible to
//    the reader, so checking BOT alone would let a read-modify-write
//    overwrite it (a lost update).
//  * Abort: drop the write set; committed data was never touched, so no
//    undo is needed.

#ifndef STREAMSI_TXN_SI_PROTOCOL_H_
#define STREAMSI_TXN_SI_PROTOCOL_H_

#include "txn/protocol.h"

namespace streamsi {

class SiProtocol final : public ConcurrencyProtocol {
 public:
  explicit SiProtocol(StateContext* context) : context_(context) {}

  ProtocolType type() const override { return ProtocolType::kMvcc; }

  Status Read(Transaction& txn, VersionedStore& store, std::string_view key,
              std::string* value) override;
  Status Write(Transaction& txn, VersionedStore& store, std::string_view key,
               std::string_view value) override;
  Status Delete(Transaction& txn, VersionedStore& store,
                std::string_view key) override;
  Status Scan(Transaction& txn, VersionedStore& store,
              const std::function<bool(std::string_view, std::string_view)>&
                  callback) override;
  Status ScanRange(Transaction& txn, VersionedStore& store,
                   std::string_view lo, std::string_view hi,
                   const std::function<bool(std::string_view,
                                            std::string_view)>&
                       callback) override;

  Status Validate(Transaction& txn, VersionedStore& store) override;
  void ReleaseState(Transaction& txn, VersionedStore& store,
                    bool committed) override;

  /// Batch-amortized validation (default on): Phase 1 validates and locks
  /// the whole write set in one LockForCommitBatch pass per store. The
  /// per-key path is kept verbatim behind this switch — the conflict-
  /// semantics differential test runs both against the same interleavings.
  void set_batched_validation(bool on) { batched_validation_ = on; }
  bool batched_validation() const { return batched_validation_; }

 private:
  /// The transaction's snapshot for this store (pin-on-first-read, §4.2).
  Timestamp SnapshotFor(Transaction& txn, VersionedStore& store);
  /// First-Committer-Wins bound: min(BOT, SnapshotFor) when the transaction
  /// has pinned a snapshot, BOT for one that never read (blind writers,
  /// read-committed). Never takes a first pin.
  Timestamp FcwBound(Transaction& txn, VersionedStore& store);

  Status ValidateBatched(Transaction& txn, VersionedStore& store,
                         const WriteSet& ws);
  Status ValidatePerKey(Transaction& txn, VersionedStore& store,
                        const WriteSet& ws);

  StateContext* context_;
  bool batched_validation_ = true;
};

}  // namespace streamsi

#endif  // STREAMSI_TXN_SI_PROTOCOL_H_
