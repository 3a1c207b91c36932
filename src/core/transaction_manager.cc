#include "core/transaction_manager.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "core/index_key.h"

namespace streamsi {

Result<std::unique_ptr<TransactionHandle>> TransactionManager::Begin() {
  TxnId id = 0;
  auto slot = context_->BeginTransaction(&id);
  if (!slot.ok()) return slot.status();
  counters_.begun.fetch_add(1, std::memory_order_relaxed);
  // The slot is exclusively ours until EndTransaction: hand out its pooled
  // scratch (allocated once per slot, then reused forever).
  auto& scratch = scratch_pool_[static_cast<std::size_t>(slot.value())];
  if (scratch == nullptr) scratch = std::make_unique<TxnScratch>();
  return std::make_unique<TransactionHandle>(this, context_, slot.value(), id,
                                             scratch.get());
}

Status TransactionManager::Read(Transaction& txn, StateId state,
                                std::string_view key, std::string* value) {
  if (!txn.running()) return Status::Aborted("transaction not running");
  VersionedStore* store = resolver_(state);
  if (store == nullptr) return Status::InvalidArgument("unknown state");
  context_->RegisterStateAccess(txn.slot(), state);
  const Status status = protocol_->Read(txn, *store, key, value);
  if (status.IsBusy()) {
    // wait-die victim: the transaction must abort.
    counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
    Abort(txn);
    return Status::Aborted("wait-die abort during read");
  }
  return status;
}

Status TransactionManager::Write(Transaction& txn, StateId state,
                                 std::string_view key,
                                 std::string_view value) {
  if (!txn.running()) return Status::Aborted("transaction not running");
  VersionedStore* store = resolver_(state);
  if (store == nullptr) return Status::InvalidArgument("unknown state");
  const Status status = protocol_->Write(txn, *store, key, value);
  if (status.IsBusy()) {
    counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
    Abort(txn);
    return Status::Aborted("wait-die abort during write");
  }
  return status;
}

Status TransactionManager::Delete(Transaction& txn, StateId state,
                                  std::string_view key) {
  if (!txn.running()) return Status::Aborted("transaction not running");
  VersionedStore* store = resolver_(state);
  if (store == nullptr) return Status::InvalidArgument("unknown state");
  const Status status = protocol_->Delete(txn, *store, key);
  if (status.IsBusy()) {
    counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
    Abort(txn);
    return Status::Aborted("wait-die abort during delete");
  }
  return status;
}

Status TransactionManager::Scan(
    Transaction& txn, StateId state,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  if (!txn.running()) return Status::Aborted("transaction not running");
  VersionedStore* store = resolver_(state);
  if (store == nullptr) return Status::InvalidArgument("unknown state");
  context_->RegisterStateAccess(txn.slot(), state);
  return protocol_->Scan(txn, *store, callback);
}

Status TransactionManager::ScanRange(
    Transaction& txn, StateId state, std::string_view lo, std::string_view hi,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  if (!txn.running()) return Status::Aborted("transaction not running");
  VersionedStore* store = resolver_(state);
  if (store == nullptr) return Status::InvalidArgument("unknown state");
  context_->RegisterStateAccess(txn.slot(), state);
  return protocol_->ScanRange(txn, *store, lo, hi, callback);
}

Status TransactionManager::RegisterState(Transaction& txn, StateId state) {
  if (!txn.running()) return Status::Aborted("transaction not running");
  if (resolver_(state) == nullptr) {
    return Status::InvalidArgument("unknown state");
  }
  context_->RegisterStateAccess(txn.slot(), state);
  return Status::OK();
}

Status TransactionManager::CommitState(Transaction& txn, StateId state) {
  if (!txn.running()) return Status::Aborted("transaction not running");
  context_->SetStateStatus(txn.slot(), state, TxnStatus::kCommit);

  if (context_->AnyStateAborted(txn.slot())) {
    if (txn.TryClaimCoordinator()) GlobalAbort(txn);
    return Status::Aborted("another state flagged Abort");
  }
  if (context_->AllRegisteredStatesReady(txn.slot()) &&
      txn.TryClaimCoordinator()) {
    // "The operator that sets the last status flag to Commit becomes the
    // coordinator and is responsible for the global commit."
    return GlobalCommit(txn);
  }
  return Status::OK();
}

Status TransactionManager::AbortState(Transaction& txn, StateId state) {
  if (!txn.running()) return Status::OK();  // already finished globally
  context_->SetStateStatus(txn.slot(), state, TxnStatus::kAbort);
  if (txn.TryClaimCoordinator()) GlobalAbort(txn);
  return Status::OK();
}

Status TransactionManager::Commit(Transaction& txn) {
  if (!txn.running()) return Status::Aborted("transaction not running");
  SmallVec<std::pair<StateId, TxnStatus>, kInlineCommitStates> touched;
  context_->CopyStatesOf(txn.slot(), &touched);
  for (const auto& [state, status] : touched) {
    (void)status;
    context_->SetStateStatus(txn.slot(), state, TxnStatus::kCommit);
  }
  if (!txn.TryClaimCoordinator()) {
    return Status::Aborted("commit raced with another coordinator");
  }
  return GlobalCommit(txn);
}

Status TransactionManager::Abort(Transaction& txn) {
  if (!txn.running()) return Status::OK();
  if (txn.TryClaimCoordinator()) GlobalAbort(txn);
  return Status::OK();
}

namespace {

/// Context for the lazily computed per-store GC watermark.
struct StoreFloorCtx {
  StateContext* context;
  VersionedStore* store;
};

}  // namespace

Timestamp TransactionManager::ComputeStoreGcFloor(void* ctx) {
  auto* c = static_cast<StoreFloorCtx*>(ctx);
  // Generation-tagged cache: a watermark computed through the publish-floor
  // handshake stays safe forever (future pins validate against the
  // published floor), so serving a cached value is always sound. The
  // generation — bumped on every transaction begin/end — bounds how
  // conservative (stale-low) the served floor can get.
  const std::uint64_t generation = c->context->TxnTableGeneration();
  Timestamp floor = kInitialTs;
  if (c->store->TryGetCachedGcFloor(generation, &floor)) return floor;
  floor = c->context->OldestActiveVersionFor(c->store->id());
  c->store->CacheGcFloor(generation, floor);
  return floor;
}

void TransactionManager::WaitForStoreGcFloor(void* ctx, std::uint64_t micros) {
  auto* c = static_cast<StoreFloorCtx*>(ctx);
  // The floor rises only when a transaction ends (its pins disappear) or
  // begins (the cached-generation floor gets recomputed) — both bump the
  // transaction-table generation, so sleep on that signal instead of
  // polling. Waking early or late is harmless: the caller re-resolves the
  // floor and retries either way.
  c->context->WaitForTxnTableChange(c->context->TxnTableGeneration(), micros);
}

void TransactionManager::RegisterIndex(StateId base, StateId index,
                                       IndexKeyExtractor extractor) {
  ExclusiveGuard guard(indexes_latch_);
  auto& bindings = indexes_[base];
  for (auto& binding : bindings) {
    if (binding.index == index) {  // re-bind (reopen) replaces the extractor
      binding.extractor = std::move(extractor);
      return;
    }
  }
  bindings.push_back(IndexBinding{index, std::move(extractor)});
  has_indexes_.store(true, std::memory_order_release);
}

Status TransactionManager::DeriveIndexMutations(Transaction& txn) {
  // Snapshot the written states first: MutableWriteSet(index) below grows
  // the very set ForEachWrittenState walks.
  SmallVec<StateId, kInlineCommitStates> bases;
  txn.ForEachWrittenState([&](StateId state) { bases.push_back(state); });
  SharedGuard guard(indexes_latch_);
  std::string pre_image;
  std::string old_composite;
  std::string new_composite;
  for (StateId base : bases) {
    const auto it = indexes_.find(base);
    if (it == indexes_.end()) continue;
    VersionedStore* base_store = resolver_(base);
    const WriteSet* ws = txn.FindWriteSet(base);
    if (base_store == nullptr || ws == nullptr || ws->empty()) continue;
    for (const IndexBinding& binding : it->second) {
      if (!binding.extractor) {
        return Status::Unavailable(
            "state '" + base_store->name() +
            "' has a secondary index whose extractor is not bound in this "
            "process; call Database::CreateIndex again after Open");
      }
      WriteSet& index_ws = txn.MutableWriteSet(binding.index);
      // Extracted keys must honor the no-0x00 contract (core/index_key.h):
      // a separator byte inside the secondary would make SplitIndexKey cut
      // at the wrong position — silently wrong groupings and dangling
      // probes — so the commit fails loudly instead.
      Status derive = Status::OK();
      const auto extract = [&](std::string_view key, std::string_view value,
                               std::string* composite) {
        const std::string secondary = binding.extractor(key, value);
        if (!ValidIndexSecondary(secondary)) {
          derive = Status::InvalidArgument(
              "index extractor for state '" + base_store->name() +
              "' emitted a 0x00 byte in the secondary key of base key '" +
              std::string(key) + "' (see core/index_key.h)");
          return false;
        }
        AppendIndexKey(composite, secondary, key);
        return true;
      };
      ws->ForEachEffective([&](std::string_view key, std::string_view value,
                               bool is_delete) {
        if (!derive.ok()) return;
        // Pre-image: the newest committed live version of the base row.
        // This read is race-free under First-Committer-Wins: any commit
        // that modifies this key after our FCW bound (min of BOT and our
        // read snapshot, see si_protocol.h) and before our validation
        // makes validation abort us, so a pre-image that passed validation
        // was the version our commit supersedes.
        pre_image.clear();
        const bool had_old = base_store->ReadLatest(key, &pre_image).ok();
        old_composite.clear();
        if (had_old && !extract(key, pre_image, &old_composite)) return;
        new_composite.clear();
        if (!is_delete && !extract(key, value, &new_composite)) return;
        if (had_old && old_composite != new_composite) {
          index_ws.Delete(old_composite);
        }
        if (!is_delete) index_ws.Put(new_composite, key);
      });
      if (!derive.ok()) return derive;
    }
  }
  return Status::OK();
}

Status TransactionManager::GlobalCommit(Transaction& txn) {
  // Secondary-index maintenance first: the derived index write sets join
  // the transaction's own, so everything downstream — validation, apply,
  // the ONE group-commit record, the ONE LastCTS publication — treats the
  // index states exactly like explicitly written ones. §4.3's atomic
  // multi-state publication is what makes index/base consistency free.
  if (has_indexes_.load(std::memory_order_acquire)) {
    const Status derived = DeriveIndexMutations(txn);
    if (!derived.ok()) {
      GlobalAbort(txn);
      return derived;
    }
  }

  // All commit bookkeeping lives on the coordinator's stack: written
  // states, resolved stores and the affected group set spill to the heap
  // only past kInlineCommitStates entries.
  SmallVec<StateId, kInlineCommitStates> written;
  txn.ForEachWrittenState([&](StateId state) { written.push_back(state); });

  if (written.empty()) {
    // Read-only fast path: no apply, no commit timestamp, no group
    // publication. Validation still runs (BOCC must check the read set).
    Status status = protocol_->PreCommit(txn);
    if (status.ok()) {
      SmallVec<std::pair<StateId, TxnStatus>, kInlineCommitStates> touched;
      context_->CopyStatesOf(txn.slot(), &touched);
      for (const auto& [state, st] : touched) {
        (void)st;
        if (VersionedStore* store = resolver_(state); store != nullptr) {
          status = protocol_->Validate(txn, *store);
          if (!status.ok()) break;
        }
      }
    }
    protocol_->PostCommit(txn, /*commit_ts=*/0, status.ok());
    if (!status.ok()) {
      counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
      GlobalAbort(txn);
      return status;
    }
    ReleaseAll(txn, /*committed=*/true);
    Finish(txn, /*committed=*/true);
    return Status::OK();
  }

  // Degraded-mode gate: a read-only database rejects write-commits up
  // front with Unavailable — fail-fast, before any validation or IO, and
  // without counting a conflict. Read-only transactions (above) never hit
  // the gate: reads keep serving while degraded.
  if (commit_admission_) {
    const Status gate = commit_admission_();
    if (!gate.ok()) {
      GlobalAbort(txn);
      return gate;
    }
  }

  // Resolve stores up front.
  SmallVec<VersionedStore*, kInlineCommitStates> stores;
  for (StateId state : written) {
    VersionedStore* store = resolver_(state);
    if (store == nullptr) {
      GlobalAbort(txn);
      return Status::InvalidArgument("unknown state in commit");
    }
    stores.push_back(store);
  }

  // --- Phase 1: validation. Runs over every *touched* state (not just the
  // written ones): BOCC has to validate read-only transactions too, since
  // its reads are only checked against later commits at commit time. ------
  Status status = protocol_->PreCommit(txn);
  if (!status.ok()) {
    GlobalAbort(txn);
    return status;
  }
  {
    SmallVec<std::pair<StateId, TxnStatus>, kInlineCommitStates> touched;
    context_->CopyStatesOf(txn.slot(), &touched);
    for (const auto& [state, state_status] : touched) {
      (void)state_status;
      VersionedStore* store = resolver_(state);
      if (store == nullptr) continue;
      status = protocol_->Validate(txn, *store);
      if (!status.ok()) break;
    }
  }
  if (!status.ok()) {
    counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
    protocol_->PostCommit(txn, /*commit_ts=*/0, /*committed=*/false);
    GlobalAbort(txn);
    return status;
  }

  // --- Phase 2: apply. All states become visible atomically because the
  // new versions carry a commit timestamp no reader has pinned yet; the
  // groups' LastCTS advances only after every state is durable. The GC
  // watermark is LAZY: the two-scan OldestActiveVersionFor handshake runs
  // only if some key's version array is actually full (generation-cached
  // per store), instead of once per written store on every commit. --------
  // Drawn through the publication-visibility gate: the timestamp is
  // registered as in flight, and readers clamp their snapshot pins below
  // it until it retires — a concurrent commit publishing a larger LastCTS
  // can never expose this commit's partial apply.
  const Timestamp commit_ts = context_->AssignCommitTimestamp(txn.slot());
  // Undo helper for failed commits: drop ONLY this transaction's freshly
  // installed versions (its write-set keys, which it still commit-owns). A
  // store-wide PurgeVersionsAfter would also destroy concurrent
  // committers' higher-timestamped — possibly already published — versions.
  const auto purge_own_writes = [&] {
    for (VersionedStore* store : stores) {
      const WriteSet* ws = txn.FindWriteSet(store->id());
      if (ws == nullptr) continue;
      ws->ForEachEffective(
          [&](std::string_view key, std::string_view, bool) {
            (void)store->PurgeKeyVersionsAfter(key, commit_ts - 1);
          });
    }
  };
  for (VersionedStore* store : stores) {
    StoreFloorCtx floor_ctx{context_, store};
    GcFloor floor(&TransactionManager::ComputeStoreGcFloor, &floor_ctx,
                  &TransactionManager::WaitForStoreGcFloor);
    status = protocol_->Apply(txn, *store, commit_ts, floor);
    if (!status.ok()) {
      // Apply failures (e.g. IO errors) after partial installation are
      // resolved by recovery: LastCTS was never advanced, so the versions
      // of this commit are purged on restart. In-memory, purge right away.
      purge_own_writes();  // before retiring: the clamp may rise past us
      context_->RetireCommitTimestamp(txn.slot());
      protocol_->PostCommit(txn, commit_ts, /*committed=*/false);
      GlobalAbort(txn);
      if (commit_failure_observer_) commit_failure_observer_(status);
      return status;
    }
  }

  // --- Phase 3: durability point. One group-commit record covers ALL of
  // this commit's groups (atomic on disk) and rides a WAL group-commit
  // batch shared with concurrent committers. A failed durable record FAILS
  // THE COMMIT: nothing was published, so the installed versions are purged
  // and the transaction aborts — publishing anyway would hand out data that
  // recovery is guaranteed to roll back. ---------------------------------
  SmallVec<GroupId, kInlineCommitStates> groups;
  for (StateId state : written) {
    context_->CollectGroupsOf(state, &groups);
  }
  if (group_log_ != nullptr && durable_group_log_ && !groups.empty()) {
    // Replication piggybacks the write sets onto the SAME record (still one
    // Append+Sync per group-commit batch): a follower replays data from the
    // shipped log alone. Encoded into a reused thread-local buffer, like
    // the record prefix itself.
    std::string_view replicated_data;
    if (replicate_commits_) {
      thread_local std::string ship_payload;
      ship_payload.clear();
      PutVarint32(&ship_payload, static_cast<std::uint32_t>(written.size()));
      for (StateId state : written) {
        const WriteSet* ws = txn.FindWriteSet(state);
        PutVarint32(&ship_payload, state);
        PutVarint32(&ship_payload,
                    static_cast<std::uint32_t>(ws->entries().size()));
        ws->ForEachEffective([&](std::string_view key, std::string_view value,
                                 bool is_delete) {
          PutVarint32(&ship_payload, static_cast<std::uint32_t>(key.size()));
          ship_payload.append(key.data(), key.size());
          ship_payload.push_back(is_delete ? '\1' : '\0');
          if (!is_delete) {
            PutVarint32(&ship_payload,
                        static_cast<std::uint32_t>(value.size()));
            ship_payload.append(value.data(), value.size());
          }
        });
      }
      replicated_data = ship_payload;
    }
    const Status log_status =
        group_log_->RecordCommit(groups.data(), groups.size(), commit_ts,
                                 /*sync=*/true, replicated_data);
    if (!log_status.ok()) {
      STREAMSI_WARN("group commit log write failed, aborting commit: "
                    << log_status.ToString());
      purge_own_writes();  // before retiring: the clamp may rise past us
      context_->RetireCommitTimestamp(txn.slot());
      protocol_->PostCommit(txn, commit_ts, /*committed=*/false);
      GlobalAbort(txn);
      if (commit_failure_observer_) commit_failure_observer_(log_status);
      return log_status;
    }
  }
  protocol_->PostCommit(txn, commit_ts, /*committed=*/true);

  // --- Phase 4: publish. One atomic multi-group LastCTS advance: readers
  // sweeping their snapshot pins must never observe a commit that has
  // advanced only some of its groups (§4.3 overlap-rule consistency). The
  // in-flight timestamp retires only after the publication is fully
  // visible — from then on readers may pin snapshots covering it. --------
  context_->PublishCommit(groups.data(), groups.size(), commit_ts);
  context_->RetireCommitTimestamp(txn.slot());

  // Commit listeners fire after publication: the changes are now visible
  // to new snapshots (TO_STREAM kOnCommit trigger).
  if (has_listeners_.load(std::memory_order_acquire)) {
    NotifyCommitListeners(txn, commit_ts, written.data(), written.size());
  }

  ReleaseAll(txn, /*committed=*/true);
  Finish(txn, /*committed=*/true);
  return Status::OK();
}

void TransactionManager::NotifyCommitListeners(Transaction& txn,
                                               Timestamp commit_ts,
                                               const StateId* written,
                                               std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const StateId state = written[i];
    std::vector<std::pair<std::uint64_t, CommitListener>> listeners;
    {
      SharedGuard guard(listeners_latch_);
      auto it = listeners_.find(state);
      if (it == listeners_.end()) continue;
      listeners = it->second;  // copy: listeners may (un)register in callbacks
    }
    if (listeners.empty()) continue;
    const WriteSet* ws = txn.FindWriteSet(state);
    if (ws == nullptr) continue;
    CommitInfo info;
    info.txn_id = txn.id();
    info.commit_ts = commit_ts;
    info.changes = ws;
    for (const auto& [token, listener] : listeners) {
      (void)token;
      listener(info);
    }
  }
}

std::uint64_t TransactionManager::RegisterCommitListener(
    StateId state, CommitListener listener) {
  ExclusiveGuard guard(listeners_latch_);
  const std::uint64_t token = next_listener_token_++;
  listeners_[state].emplace_back(token, std::move(listener));
  has_listeners_.store(true, std::memory_order_release);
  return token;
}

void TransactionManager::UnregisterCommitListener(std::uint64_t token) {
  ExclusiveGuard guard(listeners_latch_);
  bool any = false;
  for (auto& [state, vec] : listeners_) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [token](const auto& p) {
                               return p.first == token;
                             }),
              vec.end());
    any = any || !vec.empty();
  }
  has_listeners_.store(any, std::memory_order_release);
}

void TransactionManager::GlobalAbort(Transaction& txn) {
  // Release protocol resources FIRST: SI commit locks reference key bytes
  // inside the write sets, so the locks must be gone before the sets reset.
  ReleaseAll(txn, /*committed=*/false);
  // §4.2: "it is enough for the abort operation to simply clear the
  // corresponding write set and release the memory."
  txn.ClearWriteSets();
  Finish(txn, /*committed=*/false);
}

void TransactionManager::ReleaseAll(Transaction& txn, bool committed) {
  SmallVec<std::pair<StateId, TxnStatus>, kInlineCommitStates> touched;
  context_->CopyStatesOf(txn.slot(), &touched);
  for (const auto& [state, status] : touched) {
    (void)status;
    if (VersionedStore* store = resolver_(state); store != nullptr) {
      protocol_->ReleaseState(txn, *store, committed);
    }
  }
  protocol_->FinalizeTxn(txn, committed);
}

void TransactionManager::Finish(Transaction& txn, bool committed) {
  txn.set_phase(committed ? TxnPhase::kCommitted : TxnPhase::kAborted);
  // Reset the pooled scratch BEFORE the slot is released: once
  // EndTransaction runs, the next Begin may hand the same scratch to a new
  // transaction on another thread.
  txn.ResetScratch();
  context_->EndTransaction(txn.slot());
  auto& counter = committed ? counters_.committed : counters_.aborted;
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace streamsi
