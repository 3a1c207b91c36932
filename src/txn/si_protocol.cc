#include "txn/si_protocol.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/small_vec.h"

namespace streamsi {

Timestamp SiProtocol::SnapshotFor(Transaction& txn, VersionedStore& store) {
  // Pins are immutable once set; cache the derived per-state snapshot in
  // the transaction so the hot read path avoids the group registry.
  if (auto cached = txn.CachedSnapshot(store.id()); cached.has_value()) {
    return *cached;
  }
  const Timestamp snapshot =
      context_->PinReadCtsForState(txn.slot(), store.id());
  txn.CacheSnapshot(store.id(), snapshot);
  return snapshot;
}

Timestamp SiProtocol::FcwBound(Transaction& txn, VersionedStore& store) {
  // A transaction that pinned its cut reads below BOT whenever an older
  // commit was in flight at pin time; FCW must reject that commit too. The
  // cut is taken at the first read only (§4.2): a transaction that never
  // read has seen no snapshot to protect, so it keeps BOT.
  if (!txn.CachedSnapshot(store.id()).has_value() &&
      !context_->HasReadPins(txn.slot())) {
    return txn.id();
  }
  return std::min(txn.id(), SnapshotFor(txn, store));
}

Status SiProtocol::Read(Transaction& txn, VersionedStore& store,
                        std::string_view key, std::string* value) {
  // §4.2: "The read operation starts by checking whether the accessing
  // transaction has already written a new value (Uncommitted Write Set)."
  if (const WriteSet* ws = txn.FindWriteSet(store.id()); ws != nullptr) {
    if (const auto own = ws->Find(key); own.written) {
      if (own.is_delete) return Status::NotFound("deleted by self");
      value->assign(own.value.data(), own.value.size());
      return Status::OK();
    }
  }
  if (txn.isolation() == IsolationLevel::kReadCommitted) {
    // Weaker visibility on request (§3): newest committed version, no pin.
    return store.ReadLatest(key, value);
  }
  return store.ReadCommitted(SnapshotFor(txn, store), key, value);
}

Status SiProtocol::Write(Transaction& txn, VersionedStore& store,
                         std::string_view key, std::string_view value) {
  txn.MutableWriteSet(store.id()).Put(key, value);
  return Status::OK();
}

Status SiProtocol::Delete(Transaction& txn, VersionedStore& store,
                          std::string_view key) {
  txn.MutableWriteSet(store.id()).Delete(key);
  return Status::OK();
}

Status SiProtocol::Scan(
    Transaction& txn, VersionedStore& store,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  const Timestamp read_ts = txn.isolation() == IsolationLevel::kReadCommitted
                                ? kInfinityTs - 1
                                : SnapshotFor(txn, store);
  return ScanWithOverlay(txn, store, read_ts, callback);
}

Status SiProtocol::ScanRange(
    Transaction& txn, VersionedStore& store, std::string_view lo,
    std::string_view hi,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  // Snapshot isolation gets range reads phantom-free for free: every key in
  // [lo, hi) is judged against the same pinned ReadCTS, so an insert
  // committed after the pin is invisible no matter when it lands relative
  // to the traversal.
  const Timestamp read_ts = txn.isolation() == IsolationLevel::kReadCommitted
                                ? kInfinityTs - 1
                                : SnapshotFor(txn, store);
  return ScanRangeWithOverlay(txn, store, read_ts, lo, hi, callback);
}

Status SiProtocol::Validate(Transaction& txn, VersionedStore& store) {
  const WriteSet* ws = txn.FindWriteSet(store.id());
  if (ws == nullptr || ws->empty()) return Status::OK();
  return batched_validation_ ? ValidateBatched(txn, store, *ws)
                             : ValidatePerKey(txn, store, *ws);
}

Status SiProtocol::ValidatePerKey(Transaction& txn, VersionedStore& store,
                                  const WriteSet& ws) {
  const Timestamp bound = FcwBound(txn, store);
  for (const auto& entry : ws.entries()) {
    // Commit-time write lock ("In the case of multiple writers, additional
    // write locks are introduced"). The recorded key is a view into the
    // write set — stable until the scratch resets after release. The
    // resolved entry handle is stashed on the write-set entry and on the
    // lock record: the apply and release phases reuse it instead of
    // re-probing the bucket table per key.
    VersionedStore::EntryHandle handle = nullptr;
    STREAMSI_RETURN_NOT_OK(store.LockForCommit(entry.key, txn.id(), &handle));
    entry.commit_hint = handle;
    txn.RecordCommitLock(store.id(), entry.key, handle);
    // First-Committer-Wins: someone committed a modification (install or
    // delete) of this key that our snapshot does not contain.
    if (store.LatestModification(handle) > bound) {
      return Status::Conflict("first-committer-wins: key '" +
                              std::string(entry.key) +
                              "' has a newer committed modification");
    }
  }
  return Status::OK();
}

Status SiProtocol::ValidateBatched(Transaction& txn, VersionedStore& store,
                                   const WriteSet& ws) {
  // Batch-amortized Phase 1: validate-and-lock the whole write set in one
  // store pass (one epoch pin for every probe, one shard-latch acquisition
  // per distinct shard for creations, one scratch-lock acquisition for all
  // lock records) instead of a per-key round-trip. LockForCommitBatch
  // claims locks in write-set order, so abort/retry outcomes are identical
  // to ValidatePerKey — including the FCW-failed key holding (and later
  // releasing) its lock.
  const auto& entries = ws.entries();
  SmallVec<VersionedStore::CommitLockRequest, 16> requests;
  for (const auto& entry : entries) {
    requests.push_back(
        VersionedStore::CommitLockRequest{entry.key, entry.hash, nullptr});
  }
  std::size_t locked = 0;
  const Status status =
      store.LockForCommitBatch(requests.begin(), requests.size(), txn.id(),
                               FcwBound(txn, store), &locked);
  // Stash the resolved handles for the apply phase and record every
  // claimed lock for release — both only over the locked prefix.
  for (std::size_t i = 0; i < locked; ++i) {
    entries[i].commit_hint = requests[i].handle;
  }
  txn.RecordCommitLocks(store.id(), locked, [&](std::size_t i) {
    return std::pair<std::string_view, void*>(entries[i].key,
                                              requests[i].handle);
  });
  return status;
}

void SiProtocol::ReleaseState(Transaction& txn, VersionedStore& store,
                              bool /*committed*/) {
  // Release this store's commit locks in place (no vector churn).
  txn.ReleaseCommitLocks(store.id(), [&](const CommitLockRef& lock) {
    if (lock.entry != nullptr) {
      store.UnlockCommit(lock.entry, txn.id());
    } else {
      store.UnlockCommit(lock.key, txn.id());
    }
  });
}

}  // namespace streamsi
