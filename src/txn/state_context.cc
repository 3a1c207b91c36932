#include "txn/state_context.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/small_vec.h"

namespace streamsi {

namespace {
/// Inline capacity for group collections gathered on the stack (pin sweeps,
/// watermark computations). Registries with more groups spill to the heap.
constexpr std::size_t kInlineGroups = 16;
}  // namespace

// ---------------------------------------------------------------- states ---

StateId StateContext::RegisterState(std::string name, std::string location) {
  ExclusiveGuard guard(registry_latch_);
  const StateId id = static_cast<StateId>(states_.size());
  states_.push_back(StateInfo{id, std::move(name), std::move(location)});
  return id;
}

const StateInfo* StateContext::GetState(StateId id) const {
  SharedGuard guard(registry_latch_);
  if (id >= states_.size()) return nullptr;
  return &states_[id];
}

std::size_t StateContext::StateCount() const {
  SharedGuard guard(registry_latch_);
  return states_.size();
}

// ---------------------------------------------------------------- groups ---

GroupId StateContext::RegisterGroup(std::vector<StateId> states) {
  ExclusiveGuard guard(registry_latch_);
  const GroupId id = static_cast<GroupId>(groups_.size());
  auto slot = std::make_unique<GroupSlot>();
  slot->info.id = id;
  slot->info.states = std::move(states);
  groups_.push_back(std::move(slot));
  return id;
}

const GroupInfo* StateContext::GetGroup(GroupId id) const {
  SharedGuard guard(registry_latch_);
  if (id >= groups_.size()) return nullptr;
  return &groups_[id]->info;
}

std::size_t StateContext::GroupCount() const {
  SharedGuard guard(registry_latch_);
  return groups_.size();
}

std::vector<GroupId> StateContext::GroupsOf(StateId state) const {
  SharedGuard guard(registry_latch_);
  std::vector<GroupId> result;
  for (const auto& group : groups_) {
    if (std::find(group->info.states.begin(), group->info.states.end(),
                  state) != group->info.states.end()) {
      result.push_back(group->info.id);
    }
  }
  return result;
}

Timestamp StateContext::LastCts(GroupId group) const {
  SharedGuard guard(registry_latch_);
  if (group >= groups_.size()) return kInitialTs;
  return groups_[group]->last_cts.load(std::memory_order_acquire);
}

Timestamp StateContext::AssignCommitTimestamp(int slot) {
  // Draw + registration are one atomic step: a committer preempted between
  // drawing its timestamp and registering it would be invisible to the
  // reader-side clamp while larger, registered timestamps publish past it
  // — exactly the tear the clamp exists to prevent.
  std::lock_guard<std::mutex> guard(publication_gate_mutex_);
  const Timestamp cts = clock_.Next();
  inflight_commit_ts_[static_cast<std::size_t>(slot)].store(
      cts, std::memory_order_release);
  inflight_commit_count_.fetch_add(1, std::memory_order_release);
  return cts;
}

void StateContext::RetireCommitTimestamp(int slot) {
  if (inflight_commit_ts_[static_cast<std::size_t>(slot)].exchange(
          0, std::memory_order_acq_rel) != 0) {
    inflight_commit_count_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

Timestamp StateContext::SafePublicationTs() const {
  // Fast path: no commit in flight (the count's release-sequence ordering
  // guarantees a zero read implies every retired commit is fully visible,
  // and any commit registered before a LastCTS the caller already read is
  // still counted).
  if (inflight_commit_count_.load(std::memory_order_acquire) == 0) {
    return kInfinityTs;
  }
  Timestamp safe = kInfinityTs;
  for (const auto& inflight : inflight_commit_ts_) {
    const Timestamp cts = inflight.load(std::memory_order_acquire);
    if (cts != 0 && cts - 1 < safe) safe = cts - 1;
  }
  return safe;
}

void StateContext::PublishCommit(const GroupId* groups, std::size_t count,
                                 Timestamp cts) {
  // Publishers must be mutually exclusive: each GlobalCommit runs on its own
  // coordinator thread, and two overlapping publications would both bump the
  // sequence odd->even->odd->even, leaving it EVEN while both are still
  // mid-flight — SweepAndPin would then accept a cut straddling a
  // half-published multi-group commit. The lock keeps the parity protocol
  // honest; readers stay lock-free.
  std::lock_guard<SpinLock> publish_guard(publish_lock_);
  publish_seq_.fetch_add(1, std::memory_order_release);  // odd: in flight
  {
    // One shared registry acquisition for the whole publication (not one
    // per group): readers spin while the sequence is odd, so keep the
    // window short.
    SharedGuard guard(registry_latch_);
    for (std::size_t i = 0; i < count; ++i) {
      const GroupId group = groups[i];
      if (group >= groups_.size()) continue;
      auto& last = groups_[group]->last_cts;
      Timestamp cur = last.load(std::memory_order_relaxed);
      while (cur < cts && !last.compare_exchange_weak(
                              cur, cts, std::memory_order_acq_rel)) {
      }
    }
  }
  publish_seq_.fetch_add(1, std::memory_order_release);  // even: published
}

void StateContext::SnapshotLastCts(
    std::vector<std::pair<GroupId, Timestamp>>* out) const {
  for (;;) {
    const std::uint64_t before = publish_seq_.load(std::memory_order_acquire);
    if (before & 1u) {
      CpuRelax();  // a publication is mid-flight; its cut would be torn
      continue;
    }
    out->clear();
    {
      SharedGuard guard(registry_latch_);
      out->reserve(groups_.size());
      for (const auto& group : groups_) {
        out->emplace_back(group->info.id,
                          group->last_cts.load(std::memory_order_acquire));
      }
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (publish_seq_.load(std::memory_order_relaxed) == before) return;
  }
}

void StateContext::CheckpointCut(
    std::vector<std::pair<GroupId, Timestamp>>* out) const {
  SnapshotLastCts(out);
  // Scanned AFTER the LastCTS reads (see SweepAndPin): a commit in flight
  // below a published LastCTS registered before that publication, so the
  // scan sees it unless it has already retired.
  const Timestamp safe = SafePublicationTs();
  for (auto& entry : *out) entry.second = std::min(entry.second, safe);
}

void StateContext::DrainInflightCommits() const {
  // Snapshot the in-flight set, then wait each entry out. A slot whose
  // value changed retired our commit (values are unique, drawn from the
  // monotonic clock — a recycled slot carries a new timestamp). The waits
  // are bounded by commit latency: apply + one group-commit fsync, or the
  // version-pressure wait budget in the worst case.
  SmallVec<std::pair<int, Timestamp>, kMaxActiveTxns> inflight;
  for (int i = 0; i < kMaxActiveTxns; ++i) {
    const Timestamp cts =
        inflight_commit_ts_[static_cast<std::size_t>(i)].load(
            std::memory_order_acquire);
    if (cts != 0) inflight.push_back({i, cts});
  }
  for (const auto& [slot, cts] : inflight) {
    while (inflight_commit_ts_[static_cast<std::size_t>(slot)].load(
               std::memory_order_acquire) == cts) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void StateContext::SetLastCts(GroupId group, Timestamp cts) {
  SharedGuard guard(registry_latch_);
  if (group >= groups_.size()) return;
  groups_[group]->last_cts.store(cts, std::memory_order_release);
}

// ---------------------------------------------- active-transaction table ---

Result<int> StateContext::BeginTransaction(TxnId* txn_id) {
  const int slot = active_mask_.Acquire();
  if (slot == AtomicSlotMask::kNoSlot) {
    return Status::ResourceExhausted("active transaction table full");
  }
  TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  {
    std::lock_guard<SpinLock> guard(s.lock);
    s.states.clear();
    s.read_cts.clear();
  }
  // Defensive: a stale in-flight commit timestamp would clamp every future
  // snapshot pin forever.
  RetireCommitTimestamp(slot);
  const TxnId id = clock_.Next();
  s.txn_id.store(id, std::memory_order_release);
  // Invalidate cached lazy GC floors: the new transaction may pin snapshots
  // the cached watermark computations did not account for. (Safety does not
  // depend on this — the floor handshake keeps any published watermark
  // valid — but conservatively busting the cache keeps floors fresh.)
  // seq_cst bump: NotifyGenerationWaiters' waiter-count load needs a
  // store-load edge against this (see there) without a standalone fence on
  // this hot path — the RMW is lock-prefixed anyway, seq_cst costs nothing.
  txn_generation_.fetch_add(1, std::memory_order_seq_cst);
  NotifyGenerationWaiters();
  *txn_id = id;
  return slot;
}

void StateContext::EndTransaction(int slot) {
  TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  s.txn_id.store(0, std::memory_order_release);
  {
    std::lock_guard<SpinLock> guard(s.lock);
    s.states.clear();
    s.read_cts.clear();
  }
  active_mask_.Release(slot);
  // Invalidate cached lazy GC floors: this transaction's pins are gone, so
  // the watermark may rise — force the next full-array Install to recompute.
  // (seq_cst for the NotifyGenerationWaiters store-load edge, see Begin.)
  txn_generation_.fetch_add(1, std::memory_order_seq_cst);
  NotifyGenerationWaiters();
}

void StateContext::NotifyGenerationWaiters() {
  // Store-load edge against the waiter's registration: the caller's seq_cst
  // generation bump and this seq_cst load order one way, the waiter's
  // registration + fence + generation check the other — if this load misses
  // a freshly registered waiter, that waiter is guaranteed to see the bump
  // and never sleeps on it. Bounded timeouts make even a missed wake-up a
  // latency blip, never a hang.
  if (generation_waiters_.load(std::memory_order_seq_cst) == 0) return;
  // Take-and-drop the mutex so a waiter between its predicate check and the
  // actual sleep cannot miss the notify.
  { std::lock_guard<std::mutex> guard(generation_mutex_); }
  generation_cv_.notify_all();
}

std::uint64_t StateContext::WaitForTxnTableChange(std::uint64_t seen,
                                                  std::uint64_t micros) {
  std::unique_lock<std::mutex> lock(generation_mutex_);
  generation_waiters_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  generation_cv_.wait_for(lock, std::chrono::microseconds(micros),
                          [&] { return TxnTableGeneration() != seen; });
  generation_waiters_.fetch_sub(1, std::memory_order_relaxed);
  return TxnTableGeneration();
}

void StateContext::RegisterStateAccess(int slot, StateId state) {
  TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  std::lock_guard<SpinLock> guard(s.lock);
  for (auto& [sid, status] : s.states) {
    if (sid == state) return;
  }
  s.states.emplace_back(state, TxnStatus::kActive);
}

void StateContext::SetStateStatus(int slot, StateId state, TxnStatus status) {
  TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  std::lock_guard<SpinLock> guard(s.lock);
  for (auto& [sid, st] : s.states) {
    if (sid == state) {
      st = status;
      return;
    }
  }
  s.states.emplace_back(state, status);
}

TxnStatus StateContext::GetStateStatus(int slot, StateId state) const {
  const TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  std::lock_guard<SpinLock> guard(s.lock);
  for (const auto& [sid, st] : s.states) {
    if (sid == state) return st;
  }
  return TxnStatus::kActive;
}

std::vector<std::pair<StateId, TxnStatus>> StateContext::StatesOf(
    int slot) const {
  const TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  std::lock_guard<SpinLock> guard(s.lock);
  return s.states;
}

bool StateContext::AllRegisteredStatesReady(int slot) const {
  const TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  std::lock_guard<SpinLock> guard(s.lock);
  if (s.states.empty()) return false;
  for (const auto& [sid, st] : s.states) {
    if (st != TxnStatus::kCommit) return false;
  }
  return true;
}

bool StateContext::AnyStateAborted(int slot) const {
  const TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  std::lock_guard<SpinLock> guard(s.lock);
  for (const auto& [sid, st] : s.states) {
    if (st == TxnStatus::kAbort) return true;
  }
  return false;
}

void StateContext::SweepAndPin(int slot) {
  TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  for (;;) {
    // One seqlock-consistent cut of every group's LastCTS: a commit that is
    // mid-publication (some of its groups advanced, some not) keeps the
    // sequence odd and forces a retry, so the cut never straddles it.
    const std::uint64_t before =
        publish_seq_.load(std::memory_order_acquire);
    if (before & 1u) {
      CpuRelax();
      continue;
    }
    SmallVec<std::pair<GroupId, Timestamp>, kInlineGroups> cut;
    {
      SharedGuard registry_guard(registry_latch_);
      for (const auto& group : groups_) {
        cut.push_back({group->info.id,
                       group->last_cts.load(std::memory_order_acquire)});
      }
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (publish_seq_.load(std::memory_order_relaxed) != before) continue;
    // Clamp to the safe publication timestamp: LastCTS may already carry a
    // commit published out of timestamp order while a SMALLER-cts commit
    // is still mid-apply — pinning past that in-flight commit would show
    // its installed versions without its missing ones. The scan runs AFTER
    // the cut was read (any in-flight cts a published LastCTS could expose
    // was registered before that publication, so a later scan sees it),
    // and one clamp value covers the whole cut, keeping the §4.3 overlap
    // rule consistent.
    const Timestamp safe = SafePublicationTs();
    for (auto& [gid, ts] : cut) {
      (void)gid;
      if (ts > safe) ts = safe;
    }

    // Register + floor-validate + (rollback | commit) under ONE continuous
    // s.lock hold: a concurrent operator's fast-path (also under s.lock)
    // can therefore never adopt a pin this sweep later withdraws.
    std::lock_guard<SpinLock> guard(s.lock);
    std::size_t first_added = s.read_cts.size();
    for (const auto& [gid, ts] : cut) {
      bool present = false;
      for (const auto& [existing, pin] : s.read_cts) {
        if (existing == gid) {
          present = true;
          break;
        }
      }
      // First pin wins: never overwrite pins of an earlier (validated)
      // sweep — only append the missing ones.
      if (!present) s.read_cts.emplace_back(gid, ts);
    }
    // Close the pin/GC race: a collector that computed its watermark before
    // our registration could not see these pins and may already be
    // reclaiming versions up to the published gc_floor. Only the pins THIS
    // sweep appended are validated (and possibly withdrawn): earlier pins
    // were validated by their own sweep and may be in use by other
    // operators of this transaction.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool stale = false;
    {
      SharedGuard registry_guard(registry_latch_);
      for (std::size_t i = first_added; i < s.read_cts.size(); ++i) {
        const GroupId gid = s.read_cts[i].first;
        if (gid < groups_.size() &&
            groups_[gid]->gc_floor.load(std::memory_order_seq_cst) >
                s.read_cts[i].second) {
          stale = true;
          break;
        }
      }
    }
    if (!stale) return;
    // A violated floor means the cut is too old — withdraw this sweep's
    // pins (nobody observed them: we never released s.lock) and retake it.
    // LastCTS is never below a published floor, so this converges.
    s.read_cts.resize(first_added);
  }
}

Timestamp StateContext::PinReadCts(int slot, GroupId group) {
  TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  {
    std::lock_guard<SpinLock> guard(s.lock);
    for (const auto& [gid, ts] : s.read_cts) {
      if (gid == group) return ts;
    }
  }
  // First grouped access of this transaction: pin every group from one
  // consistent cut, then return ours.
  SweepAndPin(slot);
  std::lock_guard<SpinLock> guard(s.lock);
  for (const auto& [gid, ts] : s.read_cts) {
    if (gid == group) return ts;
  }
  // The group was created after this transaction's sweep (online DDL).
  // Clamp its pin to the transaction's existing snapshot so a commit that
  // spans the new group and an already-pinned one can never be half
  // visible; the floor loop keeps the pin GC-safe (if the floor forces a
  // raise above the clamp, snapshot-consistency with a concurrent DDL
  // commit is best-effort — the paper does not define online DDL).
  Timestamp pin = LastCts(group);
  // Safe-timestamp clamp, scanned AFTER the LastCts read (see SweepAndPin).
  pin = std::min(pin, SafePublicationTs());
  for (const auto& [gid, ts] : s.read_cts) {
    (void)gid;
    pin = std::min(pin, ts);
  }
  for (;;) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (GcFloor(group) <= pin) break;
    pin = LastCts(group);
    // Keep the safe-timestamp clamp on retry (floors never exceed the safe
    // timestamp, so the clamped retry still converges).
    pin = std::min(pin, SafePublicationTs());
  }
  s.read_cts.emplace_back(group, pin);
  return pin;
}

std::optional<Timestamp> StateContext::GetReadCts(int slot,
                                                  GroupId group) const {
  const TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  std::lock_guard<SpinLock> guard(s.lock);
  for (const auto& [gid, ts] : s.read_cts) {
    if (gid == group) return ts;
  }
  return std::nullopt;
}

bool StateContext::HasReadPins(int slot) const {
  const TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
  std::lock_guard<SpinLock> guard(s.lock);
  return !s.read_cts.empty();
}

Timestamp StateContext::PinReadCtsForState(int slot, StateId state) {
  SmallVec<GroupId, kInlineGroups> groups;
  CollectGroupsOf(state, &groups);
  if (groups.empty()) {
    // State outside any topology group: snapshot = now (auto-pinned to the
    // newest committed data at first touch). Pin via a synthetic group-less
    // path: use the clock. Single-state reads remain consistent because the
    // caller caches the result per transaction.
    return clock_.Now();
  }
  // §4.3 overlap rule: "If there is an overlap when reading multiple
  // topologies with different versions (LastCTS), the older version must be
  // read to guarantee consistency."
  Timestamp snapshot = kInfinityTs;
  for (GroupId g : groups) {
    snapshot = std::min(snapshot, PinReadCts(slot, g));
  }
  return snapshot;
}

TxnId StateContext::TxnIdOf(int slot) const {
  return slots_[static_cast<std::size_t>(slot)].txn_id.load(
      std::memory_order_acquire);
}

Timestamp StateContext::OldestPinnedCts(const GroupId* groups,
                                        std::size_t count,
                                        bool any_group) const {
  Timestamp oldest = kInfinityTs;
  for (int i = 0; i < kMaxActiveTxns; ++i) {
    if (!active_mask_.IsSet(i)) continue;
    const TxnSlot& s = slots_[static_cast<std::size_t>(i)];
    if (s.txn_id.load(std::memory_order_acquire) == 0) {
      continue;  // slot being set up / torn down
    }
    std::lock_guard<SpinLock> guard(s.lock);
    for (const auto& [gid, ts] : s.read_cts) {
      if (any_group ||
          std::find(groups, groups + count, gid) != groups + count) {
        oldest = std::min(oldest, ts);
      }
    }
  }
  return oldest;
}

Timestamp StateContext::GcFloor(GroupId group) const {
  SharedGuard guard(registry_latch_);
  if (group >= groups_.size()) return kInitialTs;
  return groups_[group]->gc_floor.load(std::memory_order_seq_cst);
}

void StateContext::PublishGcFloor(const GroupId* groups, std::size_t count,
                                  bool any_group, Timestamp floor) const {
  SharedGuard guard(registry_latch_);
  for (const auto& group : groups_) {
    if (!any_group && std::find(groups, groups + count, group->info.id) ==
                          groups + count) {
      continue;
    }
    Timestamp cur = group->gc_floor.load(std::memory_order_relaxed);
    while (cur < floor && !group->gc_floor.compare_exchange_weak(
                              cur, floor, std::memory_order_seq_cst)) {
    }
  }
}

Timestamp StateContext::OldestActiveVersion() const {
  // Snapshots are pinned from group LastCTS values, so the oldest snapshot
  // any *future* read can pin is the minimum LastCTS across groups — not
  // the BOT timestamp of the active transactions. Start from that floor and
  // lower it further by the pins active transactions already hold.
  Timestamp oldest = clock_.Now();
  {
    SharedGuard guard(registry_latch_);
    for (const auto& group : groups_) {
      oldest =
          std::min(oldest, group->last_cts.load(std::memory_order_acquire));
    }
  }
  oldest = std::min(oldest, OldestPinnedCts(nullptr, 0, /*any_group=*/true));
  // Safe-publication clamp, scanned AFTER the LastCTS/pin reads (the gate
  // contract): a commit registering between an earlier scan and the
  // LastCTS reads would be missed, and the published floor could then
  // exceed the safe timestamp — clamped readers would fail floor
  // validation and spin until that commit retires.
  oldest = std::min(oldest, SafePublicationTs());
  // Publish the intended watermark, then re-scan: a reader that registered
  // its pin after the first scan re-validates against this floor (see
  // PinReadCts), and the second scan picks up any pin registered before the
  // floor became visible — between them every in-flight pin is accounted
  // for before a single version is reclaimed at this watermark.
  PublishGcFloor(nullptr, 0, /*any_group=*/true, oldest);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  oldest = std::min(oldest, OldestPinnedCts(nullptr, 0, /*any_group=*/true));
  return oldest;
}

Timestamp StateContext::OldestActiveVersionFor(StateId state) const {
  SmallVec<GroupId, kInlineGroups> groups;
  CollectGroupsOf(state, &groups);
  Timestamp oldest = clock_.Now();
  for (GroupId group : groups) {
    oldest = std::min(oldest, LastCts(group));
  }
  oldest = std::min(oldest, OldestPinnedCts(groups.data(), groups.size(),
                                            /*any_group=*/false));
  // Safe-publication clamp AFTER the LastCTS/pin reads (gate contract; see
  // OldestActiveVersion) so the published floor never exceeds the safe
  // timestamp a clamped sweep can pin.
  oldest = std::min(oldest, SafePublicationTs());
  // Same publish-floor / re-scan handshake as OldestActiveVersion(): no pin
  // registered concurrently with this computation can fall below the
  // returned watermark without either being seen by the second scan or
  // re-pinning itself above the published floor.
  PublishGcFloor(groups.data(), groups.size(), /*any_group=*/false, oldest);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  oldest = std::min(oldest, OldestPinnedCts(groups.data(), groups.size(),
                                            /*any_group=*/false));
  return oldest;
}

Timestamp StateContext::OldestActiveBegin() const {
  Timestamp oldest = clock_.Now();
  for (int i = 0; i < kMaxActiveTxns; ++i) {
    if (!active_mask_.IsSet(i)) continue;
    const TxnId id =
        slots_[static_cast<std::size_t>(i)].txn_id.load(
            std::memory_order_acquire);
    if (id != 0) oldest = std::min(oldest, id);
  }
  return oldest;
}

}  // namespace streamsi
