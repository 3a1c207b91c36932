// Batch-amortized commit validation (SI Phase 1): LockForCommitBatch must
// be observationally identical to calling LockForCommit key by key — the
// same locks claimed in the same order, the same Conflict outcomes, the
// lock-CAS-failed key left unlocked, the first-committer-wins-failed key
// locked (and released later), and entries created for keys past a
// conflict point invisible to every reader. On top of the store-level
// pins, a two-lane differential drives overlapping write sets through the
// full SiProtocol commit path with batched validation on and off and
// demands identical abort/retry outcomes.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/streamsi.h"
#include "storage/hash_backend.h"
#include "txn/si_protocol.h"
#include "txn/versioned_store.h"

namespace streamsi {
namespace {

std::unique_ptr<VersionedStore> MakeStore(StateId id = 0,
                                          StoreOptions options = {}) {
  return std::make_unique<VersionedStore>(
      id, "test", std::make_unique<HashTableBackend>(), options);
}

using Request = VersionedStore::CommitLockRequest;

Request MakeRequest(std::string_view key) {
  return Request{key, std::hash<std::string_view>{}(key), nullptr};
}

// ------------------------------------------------ store-level semantics ---

TEST(LockForCommitBatchTest, LocksEveryKeyAndResolvesHandles) {
  auto store = MakeStore();
  // One pre-existing key, two misses that must be created.
  ASSERT_TRUE(store->ApplyCommitted("b", "v", false, 5, 0, false).ok());

  const std::string keys[] = {"a", "b", "c"};
  std::vector<Request> requests;
  for (const auto& k : keys) requests.push_back(MakeRequest(k));

  std::size_t locked = 0;
  ASSERT_TRUE(
      store->LockForCommitBatch(requests.data(), requests.size(), 10, 10,
                                   &locked)
          .ok());
  EXPECT_EQ(locked, 3u);
  EXPECT_EQ(store->stats().batch_validates.load(), 1u);
  for (const auto& r : requests) {
    EXPECT_NE(r.handle, nullptr) << r.key;
  }
  // Every key is exclusively owned by txn 10 now.
  for (const auto& k : keys) {
    EXPECT_TRUE(store->LockForCommit(k, 99).IsConflict()) << k;
  }
  // Re-entrant: the same transaction may batch-lock the same keys again.
  std::size_t relocked = 0;
  EXPECT_TRUE(
      store->LockForCommitBatch(requests.data(), requests.size(), 10, 10,
                                   &relocked)
          .ok());
  EXPECT_EQ(relocked, 3u);
  for (const auto& r : requests) store->UnlockCommit(r.handle, 10);
  EXPECT_TRUE(store->LockForCommit("a", 99).ok());
  store->UnlockCommit("a", 99);
}

TEST(LockForCommitBatchTest, LockConflictLeavesFailingKeyUnlocked) {
  auto store = MakeStore();
  // Another transaction owns "b"; the batch {a, b, c} must claim "a",
  // fail on "b" WITHOUT locking it, and never touch "c" — exactly the
  // per-key path's observable state at the same conflict.
  ASSERT_TRUE(store->LockForCommit("b", 1).ok());

  const std::string keys[] = {"a", "b", "c"};
  std::vector<Request> requests;
  for (const auto& k : keys) requests.push_back(MakeRequest(k));
  std::size_t locked = 0;
  EXPECT_TRUE(
      store->LockForCommitBatch(requests.data(), requests.size(), 2, 2, &locked)
          .IsConflict());
  EXPECT_EQ(locked, 1u) << "only the pre-conflict prefix holds locks";

  EXPECT_TRUE(store->LockForCommit("a", 3).IsConflict()) << "a is locked by 2";
  // "b" still belongs to txn 1 alone (re-entrant probe proves ownership).
  EXPECT_TRUE(store->LockForCommit("b", 1).ok());
  // "c" was never locked by the failed batch.
  EXPECT_TRUE(store->LockForCommit("c", 3).ok());
  store->UnlockCommit(requests[0].handle, 2);
  store->UnlockCommit("b", 1);
  store->UnlockCommit("c", 3);
}

TEST(LockForCommitBatchTest, FcwConflictCountsFailingKeyAsLocked) {
  auto store = MakeStore();
  // "k" has a committed modification at ts 100 — newer than txn 50's BOT,
  // so first-committer-wins rejects the batch. Matching the per-key path,
  // the FCW-failing key IS locked and counted: the caller records and
  // later releases it like any other claimed lock.
  ASSERT_TRUE(store->ApplyCommitted("k", "new", false, 100, 0, false).ok());

  const std::string keys[] = {"j", "k"};
  std::vector<Request> requests;
  for (const auto& k : keys) requests.push_back(MakeRequest(k));
  std::size_t locked = 0;
  EXPECT_TRUE(
      store->LockForCommitBatch(requests.data(), requests.size(), 50, 50,
                                   &locked)
          .IsConflict());
  EXPECT_EQ(locked, 2u) << "the FCW-failed key is locked and counted";

  EXPECT_TRUE(store->LockForCommit("j", 60).IsConflict());
  EXPECT_TRUE(store->LockForCommit("k", 60).IsConflict());
  store->UnlockCommit(requests[0].handle, 50);
  store->UnlockCommit(requests[1].handle, 50);
  EXPECT_TRUE(store->LockForCommit("k", 60).ok());
  store->UnlockCommit("k", 60);
}

TEST(LockForCommitBatchTest, FcwComparesAgainstSnapshotNotBot) {
  auto store = MakeStore();
  // "k" was modified at ts 100. Txn 150 began after that commit drew its
  // timestamp but read at snapshot 80 (the commit was still unpublished
  // when the cut was pinned), so the modification is invisible to it and
  // first-committer-wins must fire although 100 < 150.
  ASSERT_TRUE(store->ApplyCommitted("k", "new", false, 100, 0, false).ok());
  std::vector<Request> requests{MakeRequest("k")};

  std::size_t locked = 0;
  EXPECT_TRUE(store
                  ->LockForCommitBatch(requests.data(), requests.size(), 150,
                                       /*snapshot=*/80, &locked)
                  .IsConflict());
  EXPECT_EQ(locked, 1u) << "the FCW-failed key is locked and counted";
  EXPECT_TRUE(store->LockForCommit("k", 160).IsConflict())
      << "the lock belongs to txn 150, not to the snapshot";
  store->UnlockCommit(requests[0].handle, 150);

  // A snapshot that contains the modification passes.
  EXPECT_TRUE(store
                  ->LockForCommitBatch(requests.data(), requests.size(), 150,
                                       /*snapshot=*/120, &locked)
                  .ok());
  store->UnlockCommit(requests[0].handle, 150);
}

TEST(LockForCommitBatchTest, EntriesCreatedPastConflictAreInvisible) {
  auto store = MakeStore();
  ASSERT_TRUE(store->ApplyCommitted("stale", "x", false, 100, 0, false).ok());

  // Batch {stale, ghost} for txn 50: "stale" fails FCW, so the batch never
  // proceeds to lock "ghost" — but Phase B already created its entry. That
  // entry must carry no versions: invisible to snapshot and latest reads.
  const std::string keys[] = {"stale", "ghost"};
  std::vector<Request> requests;
  for (const auto& k : keys) requests.push_back(MakeRequest(k));
  std::size_t locked = 0;
  EXPECT_TRUE(
      store->LockForCommitBatch(requests.data(), requests.size(), 50, 50,
                                   &locked)
          .IsConflict());
  EXPECT_EQ(locked, 1u);
  store->UnlockCommit(requests[0].handle, 50);

  std::string value;
  EXPECT_TRUE(store->ReadLatest("ghost", &value).IsNotFound());
  EXPECT_TRUE(store->ReadCommitted(1000, "ghost", &value).IsNotFound());
  std::size_t scanned = 0;
  ASSERT_TRUE(store
                  ->ScanCommitted(1000,
                                  [&](std::string_view, std::string_view) {
                                    ++scanned;
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(scanned, 1u) << "only 'stale' is visible";
  // The created entry is reusable: a later lock + install works normally.
  EXPECT_TRUE(store->LockForCommit("ghost", 200).ok());
  store->UnlockCommit("ghost", 200);
}

// ------------------------------------- protocol-level differential lanes ---

struct LaneOutcome {
  bool first_committed = false;
  bool second_committed = false;
  std::string second_error;
  bool retry_committed = false;
  std::map<std::string, std::string> committed;
};

/// Two overlapping write sets racing to commit, with a deterministic
/// interleaving: `first` commits while `second` is still open, then
/// `second` tries and must lose first-committer-wins; a fresh retry of the
/// loser's writes must succeed. Returns every observable outcome.
LaneOutcome RunOverlappingLanes(bool batched) {
  DatabaseOptions options;
  options.protocol = ProtocolType::kMvcc;
  auto db = Database::Open(options).value();
  auto* si = dynamic_cast<SiProtocol*>(&db->protocol());
  EXPECT_NE(si, nullptr);
  si->set_batched_validation(batched);
  auto* state = db->CreateState("lanes").value();
  const StateId sid = state->id();

  LaneOutcome out;
  auto first = db->Begin().value();
  auto second = db->Begin().value();
  // Overlap: k2..k4 are contested; k0/k1 and k5/k6 are private.
  for (int i = 0; i <= 4; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_TRUE(first->Write(sid, key, "first").ok());
  }
  for (int i = 2; i <= 6; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_TRUE(second->Write(sid, key, "second").ok());
  }
  out.first_committed = first->Commit().ok();
  const Status second_status = second->Commit();
  out.second_committed = second_status.ok();
  out.second_error = second_status.ok() ? "" : second_status.ToString();

  auto retry = db->Begin().value();
  for (int i = 2; i <= 6; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_TRUE(retry->Write(sid, key, "retry").ok());
  }
  out.retry_committed = retry->Commit().ok();

  auto reader = db->Begin().value();
  EXPECT_TRUE(reader
                  ->Scan(sid,
                         [&](std::string_view k, std::string_view v) {
                           out.committed[std::string(k)] = std::string(v);
                           return true;
                         })
                  .ok());
  EXPECT_TRUE(reader->Commit().ok());
  if (batched) {
    EXPECT_GT(state->stats().batch_validates.load(), 0u)
        << "batched mode must route validation through LockForCommitBatch";
  } else {
    EXPECT_EQ(state->stats().batch_validates.load(), 0u)
        << "per-key mode must not touch the batch path";
  }
  return out;
}

TEST(BatchValidationDifferentialTest, OverlappingLanesAgreeWithPerKeyPath) {
  const LaneOutcome batched = RunOverlappingLanes(true);
  const LaneOutcome per_key = RunOverlappingLanes(false);

  // Both modes: the first committer wins, the overlapping loser aborts,
  // the retry lands.
  EXPECT_TRUE(batched.first_committed);
  EXPECT_TRUE(per_key.first_committed);
  EXPECT_FALSE(batched.second_committed) << "FCW must reject the second lane";
  EXPECT_FALSE(per_key.second_committed);
  EXPECT_TRUE(batched.retry_committed);
  EXPECT_TRUE(per_key.retry_committed);

  // Identical conflict classification and identical final state.
  EXPECT_EQ(batched.second_error, per_key.second_error);
  EXPECT_EQ(batched.committed, per_key.committed);
  std::map<std::string, std::string> expected;
  for (int i = 0; i <= 1; ++i) expected["k" + std::to_string(i)] = "first";
  for (int i = 2; i <= 6; ++i) expected["k" + std::to_string(i)] = "retry";
  EXPECT_EQ(batched.committed, expected);
}

TEST(BatchValidationDifferentialTest, ConcurrentContendedLanesStayCorrect) {
  // Two threads hammer an overlapping key range with retry-on-conflict
  // under each validation mode. The interleaving is nondeterministic, so
  // the assertions are invariants, not traces: every intended write
  // eventually commits, nothing is lost or interleaved within a
  // transaction (all 3 keys of a txn carry the same tag), and the batch
  // counter moves only in batched mode.
  for (const bool batched : {true, false}) {
    DatabaseOptions options;
    options.protocol = ProtocolType::kMvcc;
    auto db = Database::Open(options).value();
    auto* si = dynamic_cast<SiProtocol*>(&db->protocol());
    ASSERT_NE(si, nullptr);
    si->set_batched_validation(batched);
    auto* state = db->CreateState("torture").value();
    const StateId sid = state->id();

    constexpr int kTxnsPerLane = 120;
    std::atomic<std::uint64_t> conflicts{0};
    auto lane = [&](int lane_id) {
      for (int i = 0; i < kTxnsPerLane; ++i) {
        const std::string tag =
            std::to_string(lane_id) + ":" + std::to_string(i);
        for (int attempt = 0;; ++attempt) {
          ASSERT_LT(attempt, 10000) << "livelock in lane " << lane_id;
          auto txn = db->Begin();
          if (!txn.ok()) continue;  // transient slot pressure
          bool write_failed = false;
          // 3 keys per txn, overlapping across lanes: both lanes touch
          // key (i % 8), (i+1) % 8 and (i+2) % 8.
          for (int k = 0; k < 3; ++k) {
            const std::string key = "c" + std::to_string((i + k) % 8);
            if (!(*txn)->Write(sid, key, tag).ok()) write_failed = true;
          }
          if (!write_failed && (*txn)->Commit().ok()) break;
          conflicts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    std::thread t0(lane, 0);
    std::thread t1(lane, 1);
    t0.join();
    t1.join();

    // All 8 contested keys exist and carry a well-formed "lane:i" tag.
    auto reader = db->Begin().value();
    std::map<std::string, std::string> final_state;
    ASSERT_TRUE(reader
                    ->Scan(sid,
                           [&](std::string_view k, std::string_view v) {
                             final_state[std::string(k)] = std::string(v);
                             return true;
                           })
                    .ok());
    EXPECT_TRUE(reader->Commit().ok());
    ASSERT_EQ(final_state.size(), 8u);
    for (const auto& [key, value] : final_state) {
      const auto colon = value.find(':');
      ASSERT_NE(colon, std::string::npos) << key << " => " << value;
      const int lane_id = std::stoi(value.substr(0, colon));
      const int seq = std::stoi(value.substr(colon + 1));
      EXPECT_TRUE(lane_id == 0 || lane_id == 1);
      EXPECT_GE(seq, 0);
      EXPECT_LT(seq, kTxnsPerLane);
    }
    if (batched) {
      EXPECT_GT(state->stats().batch_validates.load(), 0u);
    } else {
      EXPECT_EQ(state->stats().batch_validates.load(), 0u);
    }
  }
}

}  // namespace
}  // namespace streamsi
