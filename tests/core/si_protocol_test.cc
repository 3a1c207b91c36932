// Snapshot-isolation semantics of the paper's MVCC protocol (§4.2).

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "core/streamsi.h"
#include "tests/test_util.h"
#include "txn/si_protocol.h"

namespace streamsi {
namespace {

class SiProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.protocol = ProtocolType::kMvcc;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto state = db_->CreateState("s");
    ASSERT_TRUE(state.ok());
    state_ = (*state)->id();
  }

  Status Put(Transaction& txn, const std::string& k, const std::string& v) {
    return db_->txn_manager().Write(txn, state_, k, v);
  }
  Result<std::string> Get(Transaction& txn, const std::string& k) {
    std::string value;
    STREAMSI_RETURN_NOT_OK(db_->txn_manager().Read(txn, state_, k, &value));
    return value;
  }

  std::unique_ptr<Database> db_;
  StateId state_;
};

TEST_F(SiProtocolTest, CommittedWriteVisibleToLaterTxn) {
  {
    auto t = db_->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(Put((*t)->txn(), "k", "v").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  auto got = Get((*t)->txn(), "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(SiProtocolTest, UncommittedWriteInvisibleToOthers) {
  auto writer = db_->Begin();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(Put((*writer)->txn(), "k", "dirty").ok());

  auto reader = db_->Begin();
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(Get((*reader)->txn(), "k").status().IsNotFound());
  ASSERT_TRUE((*reader)->Commit().ok());
  ASSERT_TRUE((*writer)->Commit().ok());
}

TEST_F(SiProtocolTest, ReadYourOwnWrites) {
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(Put((*t)->txn(), "k", "mine").ok());
  auto got = Get((*t)->txn(), "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "mine");
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(SiProtocolTest, ReadYourOwnDelete) {
  {
    auto t = db_->Begin();
    ASSERT_TRUE(Put((*t)->txn(), "k", "v").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto t = db_->Begin();
  ASSERT_TRUE(db_->txn_manager().Delete((*t)->txn(), state_, "k").ok());
  EXPECT_TRUE(Get((*t)->txn(), "k").status().IsNotFound());
  ASSERT_TRUE((*t)->Commit().ok());

  auto t2 = db_->Begin();
  EXPECT_TRUE(Get((*t2)->txn(), "k").status().IsNotFound());
  ASSERT_TRUE((*t2)->Commit().ok());
}

TEST_F(SiProtocolTest, SnapshotStableAcrossConcurrentCommit) {
  // Reader pins its snapshot at first read; a commit in between must stay
  // invisible ("every operation reads from the same snapshot").
  {
    auto t = db_->Begin();
    ASSERT_TRUE(Put((*t)->txn(), "k", "v1").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto reader = db_->Begin();
  ASSERT_TRUE(reader.ok());
  auto got = Get((*reader)->txn(), "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v1");  // pin happens here

  {
    auto writer = db_->Begin();
    ASSERT_TRUE(Put((*writer)->txn(), "k", "v2").ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }

  got = Get((*reader)->txn(), "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v1") << "snapshot must not move mid-transaction";
  ASSERT_TRUE((*reader)->Commit().ok());

  auto late = db_->Begin();
  got = Get((*late)->txn(), "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v2");
  ASSERT_TRUE((*late)->Commit().ok());
}

TEST_F(SiProtocolTest, FirstCommitterWins) {
  {
    auto t = db_->Begin();
    ASSERT_TRUE(Put((*t)->txn(), "k", "base").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto t1 = db_->Begin();
  auto t2 = db_->Begin();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(Put((*t1)->txn(), "k", "from-t1").ok());
  ASSERT_TRUE(Put((*t2)->txn(), "k", "from-t2").ok());

  ASSERT_TRUE((*t1)->Commit().ok());
  const Status second = (*t2)->Commit();
  EXPECT_TRUE(second.IsConflict()) << second.ToString();

  auto check = db_->Begin();
  auto got = Get((*check)->txn(), "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "from-t1");
  ASSERT_TRUE((*check)->Commit().ok());
  EXPECT_EQ(db_->txn_manager().counters().conflicts.load(), 1u);
}

TEST_F(SiProtocolTest, DisjointWritersBothCommit) {
  auto t1 = db_->Begin();
  auto t2 = db_->Begin();
  ASSERT_TRUE(Put((*t1)->txn(), "a", "1").ok());
  ASSERT_TRUE(Put((*t2)->txn(), "b", "2").ok());
  EXPECT_TRUE((*t1)->Commit().ok());
  EXPECT_TRUE((*t2)->Commit().ok());
}

TEST_F(SiProtocolTest, WriteSkewIsAllowedUnderSi) {
  // The classic SI anomaly: two txns each read the other's key and write
  // their own. Snapshot isolation (unlike serializability) admits this —
  // document the behaviour as a test.
  {
    auto t = db_->Begin();
    ASSERT_TRUE(Put((*t)->txn(), "x", "0").ok());
    ASSERT_TRUE(Put((*t)->txn(), "y", "0").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto t1 = db_->Begin();
  auto t2 = db_->Begin();
  ASSERT_TRUE(Get((*t1)->txn(), "y").ok());
  ASSERT_TRUE(Get((*t2)->txn(), "x").ok());
  ASSERT_TRUE(Put((*t1)->txn(), "x", "1").ok());
  ASSERT_TRUE(Put((*t2)->txn(), "y", "1").ok());
  EXPECT_TRUE((*t1)->Commit().ok());
  EXPECT_TRUE((*t2)->Commit().ok());  // write sets are disjoint: both pass
}

TEST_F(SiProtocolTest, AbortDiscardsWrites) {
  auto t = db_->Begin();
  ASSERT_TRUE(Put((*t)->txn(), "k", "doomed").ok());
  ASSERT_TRUE((*t)->Abort().ok());

  auto check = db_->Begin();
  EXPECT_TRUE(Get((*check)->txn(), "k").status().IsNotFound());
  ASSERT_TRUE((*check)->Commit().ok());
  EXPECT_EQ(db_->txn_manager().counters().aborted.load(), 1u);
}

TEST_F(SiProtocolTest, DroppedHandleAutoAborts) {
  {
    auto t = db_->Begin();
    ASSERT_TRUE(Put((*t)->txn(), "k", "leak").ok());
    // handle dropped without Commit
  }
  EXPECT_EQ(db_->txn_manager().counters().aborted.load(), 1u);
  auto check = db_->Begin();
  EXPECT_TRUE(Get((*check)->txn(), "k").status().IsNotFound());
  ASSERT_TRUE((*check)->Commit().ok());
}

TEST_F(SiProtocolTest, OperationsAfterCommitRejected) {
  auto t = db_->Begin();
  ASSERT_TRUE(Put((*t)->txn(), "k", "v").ok());
  ASSERT_TRUE((*t)->Commit().ok());
  EXPECT_TRUE(Put((*t)->txn(), "k2", "v").IsAborted());
  EXPECT_TRUE((*t)->Commit().IsAborted());
}

TEST_F(SiProtocolTest, ScanSeesSnapshotPlusOwnWrites) {
  {
    auto t = db_->Begin();
    ASSERT_TRUE(Put((*t)->txn(), "a", "1").ok());
    ASSERT_TRUE(Put((*t)->txn(), "b", "2").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto t = db_->Begin();
  ASSERT_TRUE(Put((*t)->txn(), "c", "3").ok());
  ASSERT_TRUE(db_->txn_manager().Delete((*t)->txn(), state_, "a").ok());
  std::map<std::string, std::string> seen;
  ASSERT_TRUE(db_->txn_manager()
                  .Scan((*t)->txn(), state_,
                        [&](std::string_view k, std::string_view v) {
                          seen[std::string(k)] = std::string(v);
                          return true;
                        })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.count("a"), 0u);  // own delete hides it
  EXPECT_EQ(seen["b"], "2");
  EXPECT_EQ(seen["c"], "3");  // own write visible
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(SiProtocolTest, ScanRangeSurvivesWriteBacksFromCallback) {
  // Regression: the range scan's own-write overlay must stay valid while
  // the callback writes back into the scanned state — those Puts grow the
  // write set's entry vector, which may reallocate under the overlay.
  {
    auto t = db_->Begin();
    for (int k = 10; k <= 50; k += 10) {
      ASSERT_TRUE(Put((*t)->txn(), "k" + std::to_string(k), "committed").ok());
    }
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto t = db_->Begin();
  ASSERT_TRUE(Put((*t)->txn(), "k15", "own").ok());
  ASSERT_TRUE(Put((*t)->txn(), "k25", "own").ok());
  ASSERT_TRUE(Put((*t)->txn(), "k35", "own").ok());
  std::vector<std::pair<std::string, std::string>> seen;
  int writes = 0;
  ASSERT_TRUE(db_->txn_manager()
                  .ScanRange((*t)->txn(), state_, "k10", "k60",
                             [&](std::string_view k, std::string_view v) {
                               seen.emplace_back(std::string(k),
                                                 std::string(v));
                               // Out-of-range keys: force entry-vector
                               // growth without perturbing the scan.
                               for (int i = 0; i < 16; ++i) {
                                 EXPECT_TRUE(
                                     Put((*t)->txn(),
                                         "z" + std::to_string(writes++), "w")
                                         .ok());
                               }
                               return true;
                             })
                  .ok());
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"k10", "committed"}, {"k15", "own"},       {"k20", "committed"},
      {"k25", "own"},       {"k30", "committed"}, {"k35", "own"},
      {"k40", "committed"}, {"k50", "committed"}};
  EXPECT_EQ(seen, expected);
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(SiProtocolTest, ReadersNeverBlockDuringWriterCommit) {
  // Smoke check of the paper's core claim: run a writer loop and reader
  // loop concurrently; readers must always observe one of the committed
  // values, never a torn/dirty one.
  {
    auto t = db_->Begin();
    ASSERT_TRUE(Put((*t)->txn(), "hot", "0").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread writer([&] {
    for (int i = 1; i <= 500; ++i) {
      auto t = db_->Begin();
      if (!t.ok()) continue;
      if (!Put((*t)->txn(), "hot", std::to_string(i)).ok()) continue;
      (void)(*t)->Commit();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::string last;
      while (!stop.load()) {
        auto t = db_->Begin();
        if (!t.ok()) continue;
        auto got = Get((*t)->txn(), "hot");
        if (!got.ok()) {
          violation.store(true);
        } else {
          // Values are integers 0..500; anything else is torn.
          for (char c : *got) {
            if (c < '0' || c > '9') violation.store(true);
          }
        }
        (void)(*t)->Commit();
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(violation.load());
}

// ----------------------------------------------------------------------
// First-Committer-Wins against the read snapshot, not BOT.

/// POSIX env whose group-commit log Sync can be parked: a committer that
/// reaches its durability point blocks there, between drawing its commit
/// timestamp (and installing its versions) and publishing them.
class ParkingEnv final : public Env {
 public:
  /// The next group-commit log Sync parks until Release().
  void Arm() {
    std::lock_guard<std::mutex> guard(mu_);
    armed_ = true;
  }
  /// False if nothing parked within a generous bound (the commit never
  /// reached its durability point).
  bool WaitUntilParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> guard(mu_);
    released_ = true;
    cv_.notify_all();
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path,
                                                        bool truncate) override {
    auto file = base_->NewWritableFile(path, truncate);
    if (!file.ok()) return file.status();
    std::unique_ptr<WritableFile> wrapped = std::make_unique<File>(
        this, std::move(file).value(),
        path.find("group_commits.log") != std::string::npos);
    return wrapped;
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RemoveDirRecursive(const std::string& path) override {
    return base_->RemoveDirRecursive(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status FileSize(const std::string& path, std::uint64_t* size) override {
    return base_->FileSize(path, size);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return base_->ListDir(path, names);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }

 private:
  class File final : public WritableFile {
   public:
    File(ParkingEnv* env, std::unique_ptr<WritableFile> base, bool group_log)
        : env_(env), base_(std::move(base)), group_log_(group_log) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      if (group_log_) env_->MaybePark();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }
    std::uint64_t size() const override { return base_->size(); }

   private:
    ParkingEnv* env_;
    std::unique_ptr<WritableFile> base_;
    bool group_log_;
  };

  void MaybePark() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    armed_ = false;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  Env* base_ = Env::Default();
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

class SnapshotBelowBotTest : public ::testing::TestWithParam<bool> {};

TEST_P(SnapshotBelowBotTest, RmwOverUnpublishedOlderCommitConflicts) {
  // Committer U draws its commit timestamp and installs its versions, then
  // parks at the durable group-commit record — before publication. T
  // begins after U's timestamp draw, so U's cts < T's BOT, but T's snapshot
  // is clamped below the in-flight commit and reads the old value. Once U
  // publishes, T's read-modify-write would overwrite U's increment: FCW
  // must compare against T's snapshot and abort T (no P4 lost update).
  ::streamsi::testing::TempDir dir;
  ParkingEnv env;
  DatabaseOptions options;
  options.protocol = ProtocolType::kMvcc;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  options.backend_options.env = &env;
  options.env = &env;
  options.base_dir = dir.path();
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  auto* si = dynamic_cast<SiProtocol*>(&db->protocol());
  ASSERT_NE(si, nullptr);
  si->set_batched_validation(GetParam());
  auto state = db->CreateState("s");
  ASSERT_TRUE(state.ok());
  const StateId sid = (*state)->id();
  ASSERT_TRUE(db->Recover().ok());
  TransactionManager& tm = db->txn_manager();

  {
    auto t = db->Begin();
    ASSERT_TRUE(tm.Write((*t)->txn(), sid, "counter", "0").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }

  auto u = db->Begin();
  ASSERT_TRUE(u.ok());
  std::string u_read;
  ASSERT_TRUE(tm.Read((*u)->txn(), sid, "counter", &u_read).ok());
  ASSERT_EQ(u_read, "0");
  ASSERT_TRUE(tm.Write((*u)->txn(), sid, "counter", "1").ok());
  env.Arm();
  Status u_commit;
  std::thread committer([&] { u_commit = (*u)->Commit(); });
  const bool parked = env.WaitUntilParked();

  // No ASSERT until U is released: returning early would leave it parked.
  auto t = db->Begin();
  std::string t_read;
  const Status read =
      t.ok() ? tm.Read((*t)->txn(), sid, "counter", &t_read) : t.status();

  env.Release();
  committer.join();
  ASSERT_TRUE(parked) << "U never reached its group-commit record";
  ASSERT_TRUE(u_commit.ok()) << u_commit.ToString();
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(t_read, "0") << "U was unpublished when T pinned its snapshot";

  ASSERT_TRUE(tm.Write((*t)->txn(), sid, "counter", "1").ok());
  const Status t_commit = (*t)->Commit();
  EXPECT_TRUE(t_commit.IsConflict()) << t_commit.ToString();

  auto check = db->Begin();
  std::string final_value;
  ASSERT_TRUE(tm.Read((*check)->txn(), sid, "counter", &final_value).ok());
  EXPECT_EQ(final_value, "1");
  ASSERT_TRUE((*check)->Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(ValidationPaths, SnapshotBelowBotTest,
                         ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Batched" : "PerKey";
                         });

}  // namespace
}  // namespace streamsi
