// Durability unit + recovery-golden tests: WAL framing, checkpoint file
// atomicity, Database::Open recovery across every subsystem, group
// commit, auto-checkpoint, and the recovery goldens the crash matrix in
// docs/durability.md promises (truncated log, corrupted record CRC,
// corrupted checkpoint, leftover checkpoint temp file).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/database.h"
#include "durability_test_util.h"
#include "storage/pager.h"
#include "wal/checkpoint.h"
#include "wal/wal.h"

namespace bdbms {
namespace {

using testutil::DurableOpts;
using testutil::Fingerprint;
using testutil::ReferenceFingerprint;
using testutil::RunStandardWorkload;
using testutil::StandardWorkload;
using testutil::FreshDir;
using testutil::VerifyIndexConsistency;

#define EXEC_OK(db, sql, user)                                         \
  do {                                                                 \
    auto _r = (db).Execute(sql, user);                                 \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> " << _r.status().ToString(); \
  } while (0)

// --- WAL framing ----------------------------------------------------------

TEST(WalFormatTest, RoundTripsRecords) {
  WalRecord a{1, 10, "admin", "CREATE TABLE T (x INT)"};
  WalRecord b{2, 11, "alice", "INSERT INTO T VALUES (1)"};
  std::string log = EncodeWalRecord(a) + EncodeWalRecord(b);
  auto scan = ScanWal(log);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->tail_discarded);
  EXPECT_EQ(scan->valid_bytes, log.size());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0], a);
  EXPECT_EQ(scan->records[1], b);
}

TEST(WalFormatTest, TornTailIsDiscardedAtEveryCut) {
  WalRecord a{1, 10, "admin", "CREATE TABLE T (x INT)"};
  WalRecord b{2, 11, "alice", "INSERT INTO T VALUES (1)"};
  std::string log = EncodeWalRecord(a) + EncodeWalRecord(b);
  size_t first = EncodeWalRecord(a).size();
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    auto scan = ScanWal(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(scan.ok()) << cut;
    size_t expect = cut >= log.size() ? 2 : (cut >= first ? 1 : 0);
    EXPECT_EQ(scan->records.size(), expect) << "cut at " << cut;
    // Record boundaries (0, first, full) leave nothing to discard.
    EXPECT_EQ(scan->tail_discarded,
              cut != 0 && cut != first && cut != log.size())
        << "cut at " << cut;
  }
}

TEST(WalFormatTest, CorruptedByteCutsLogAtThatRecord) {
  WalRecord a{1, 10, "admin", "CREATE TABLE T (x INT)"};
  WalRecord b{2, 11, "alice", "INSERT INTO T VALUES (1)"};
  std::string log = EncodeWalRecord(a) + EncodeWalRecord(b);
  size_t first = EncodeWalRecord(a).size();
  std::string corrupt = log;
  corrupt[first + 12] ^= 0x40;  // inside record b's payload
  auto scan = ScanWal(corrupt);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], a);
  EXPECT_TRUE(scan->tail_discarded);
  EXPECT_EQ(scan->valid_bytes, first);
}

TEST(WalFormatTest, NonMonotonicLsnIsCorruption) {
  std::string log = EncodeWalRecord({2, 10, "admin", "A"}) +
                    EncodeWalRecord({2, 11, "admin", "B"});
  auto scan = ScanWal(log);
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption());
}

TEST(WalFormatTest, RoundTripsSnapshotCsnAndIdBases) {
  WalRecord rec{7, 12, "alice", "UPDATE T SET x = 2"};
  rec.snapshot = 41;
  rec.csn = 42;
  rec.row_bases = {{"T", 9}, {"U", 0}};
  rec.ann_bases = {{"T.Notes", 3}};
  auto scan = ScanWal(EncodeWalRecord(rec));
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], rec);
}

// Frames `payload` as EncodeWalRecord does: crc32(len + payload), len.
std::string FrameWalPayload(const std::string& payload) {
  auto le32 = [](uint32_t v) {
    std::string out(4, '\0');
    for (size_t i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
    return out;
  };
  std::string body = le32(static_cast<uint32_t>(payload.size())) + payload;
  return le32(Crc32(body)) + body;
}

TEST(WalFormatTest, ChecksummedRecordThatDoesNotDecodeExactlyIsCorruption) {
  const std::string payload =
      EncodeWalRecord({1, 10, "admin", "CREATE TABLE T (x INT)"}).substr(8);
  ASSERT_TRUE(ScanWal(FrameWalPayload(payload)).ok());
  // A valid checksum rules out a torn append, so a record that decodes
  // short or long is a mixed-up file, never a tail to discard.
  for (const std::string& bad :
       {payload + '\0', payload.substr(0, payload.size() - 1)}) {
    auto scan = ScanWal(FrameWalPayload(bad));
    ASSERT_FALSE(scan.ok()) << bad.size();
    EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
  }
}

// --- Pager sync satellite -------------------------------------------------

TEST(PagerSyncTest, CountsFsyncsOnBothBackends) {
  auto mem = Pager::OpenInMemory();
  EXPECT_TRUE(mem->Sync().ok());
  EXPECT_EQ(mem->stats().fsyncs, 1u);

  std::string path = ::testing::TempDir() + "/bdbms_pager_sync_test.db";
  std::filesystem::remove(path);
  auto file = Pager::OpenFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->AllocatePage().ok());
  Page page;
  page.Zero();
  ASSERT_TRUE((*file)->WritePage(0, page).ok());
  EXPECT_TRUE((*file)->Sync().ok());
  EXPECT_EQ((*file)->stats().fsyncs, 1u);
}

// --- Open / replay / reopen equivalence ------------------------------------

TEST(DurabilityTest, OpenCreatesEmptyDurableDatabase) {
  std::string dir = FreshDir("dur_empty");
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->is_durable());
  EXPECT_EQ((*db)->durability_stats().last_lsn, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + kWalFileName));
}

TEST(DurabilityTest, ReopenRestoresFullEngineState) {
  std::string dir = FreshDir("dur_reopen_full");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunStandardWorkload(**db);
    before = Fingerprint(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  EXPECT_EQ(before, ReferenceFingerprint())
      << "durable run diverged from the in-memory reference";
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open,
            StandardWorkload().size());
  EXPECT_EQ(Fingerprint(**db), before);
  VerifyIndexConsistency(**db);
}

TEST(DurabilityTest, RecoveredDatabaseKeepsAcceptingStatements) {
  std::string dir = FreshDir("dur_continue");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, 19);  // through the Protein insert
  }
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    auto statements = StandardWorkload();
    for (size_t i = 19; i < statements.size(); ++i) {
      EXEC_OK(**db, statements[i].second, statements[i].first);
    }
    EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint());
  }
  // And the spliced history replays whole.
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint());
}

TEST(DurabilityTest, CheckpointTruncatesWalAndRecovers) {
  std::string dir = FreshDir("dur_ckpt");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    auto r = (*db)->Execute("CHECKPOINT");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*db)->durability_stats().checkpoints_taken, 1u);
    EXPECT_EQ(std::filesystem::file_size(dir + "/" + kWalFileName), 0u);
    before = Fingerprint(**db);
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open, 0u);
  EXPECT_EQ(Fingerprint(**db), before);
  VerifyIndexConsistency(**db);
}

TEST(DurabilityTest, CheckpointPlusLogTailRecovers) {
  std::string dir = FreshDir("dur_ckpt_tail");
  std::string before;
  size_t total = StandardWorkload().size();
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, 16);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto statements = StandardWorkload();
    for (size_t i = 16; i < total; ++i) {
      EXEC_OK(**db, statements[i].second, statements[i].first);
    }
    before = Fingerprint(**db);
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open, total - 16);
  EXPECT_EQ(Fingerprint(**db), before);
  EXPECT_EQ(before, ReferenceFingerprint());
}

TEST(DurabilityTest, AutoCheckpointTriggersEveryNStatements) {
  std::string dir = FreshDir("dur_auto_ckpt");
  {
    auto db = Database::Open(dir, DurableOpts(/*checkpoint_interval=*/5));
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    EXPECT_EQ((*db)->durability_stats().checkpoints_taken,
              StandardWorkload().size() / 5);
  }
  auto db = Database::Open(dir, DurableOpts(/*checkpoint_interval=*/5));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Only the tail after the last auto-checkpoint replays.
  EXPECT_EQ((*db)->durability_stats().replayed_on_open,
            StandardWorkload().size() % 5);
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint());
}

TEST(DurabilityTest, GroupCommitBatchesFsyncs) {
  std::string dir_batched = FreshDir("dur_group_commit");
  auto db = Database::Open(dir_batched, DurableOpts(0, /*group_commit=*/8));
  ASSERT_TRUE(db.ok());
  RunStandardWorkload(**db);
  uint64_t batched = (*db)->durability_stats().wal_syncs;
  EXPECT_LE(batched, StandardWorkload().size() / 8 + 1);
  // Close drains the unsynced tail, so reopen still sees everything.
  ASSERT_TRUE((*db)->Close().ok());
  auto reopened = Database::Open(dir_batched, DurableOpts());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Fingerprint(**reopened), ReferenceFingerprint());

  std::string dir_per = FreshDir("dur_per_stmt");
  auto per = Database::Open(dir_per, DurableOpts());
  ASSERT_TRUE(per.ok());
  RunStandardWorkload(**per);
  EXPECT_EQ((*per)->durability_stats().wal_syncs, StandardWorkload().size());
}

TEST(DurabilityTest, ReplayRestoresClockExactly) {
  // ARCHIVE ... BETWEEN is timestamp-windowed: replay must reproduce the
  // original logical timestamps or the window selects different rows.
  std::string dir = FreshDir("dur_clock");
  uint64_t clock_before_close = 0;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    clock_before_close = (*db)->clock().Peek();
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->clock().Peek(), clock_before_close);
}

// --- recovery goldens -------------------------------------------------------

TEST(DurabilityGoldenTest, TruncatedLogRecoversPrefix) {
  std::string dir = FreshDir("dur_truncated");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
  }
  std::string wal_path = dir + "/" + kWalFileName;
  uint64_t size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 7);  // torn final record
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open,
            StandardWorkload().size() - 1);
  EXPECT_EQ(Fingerprint(**db),
            ReferenceFingerprint(StandardWorkload().size() - 1));
  // The torn tail was cut: the next reopen replays the same prefix from a
  // clean log end.
  ASSERT_TRUE((*db)->Close().ok());
  auto again = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Fingerprint(**again),
            ReferenceFingerprint(StandardWorkload().size() - 1));
}

TEST(DurabilityGoldenTest, CorruptedRecordCutsReplayThere) {
  std::string dir = FreshDir("dur_crc");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
  }
  std::string wal_path = dir + "/" + kWalFileName;
  // Flip one byte two records from the end (inside some record's body).
  std::ifstream in(wal_path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[data.size() / 2] ^= 0x01;
  std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  uint64_t replayed = (*db)->durability_stats().replayed_on_open;
  EXPECT_LT(replayed, StandardWorkload().size());
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint(replayed));
}

TEST(DurabilityGoldenTest, CorruptedCheckpointFailsOpenLoudly) {
  std::string dir = FreshDir("dur_bad_ckpt");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  std::string ckpt = dir + "/" + kCheckpointFileName;
  std::ifstream in(ckpt, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[kPageSize + 100] ^= 0x7F;  // inside the payload pages
  std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
}

TEST(DurabilityGoldenTest, LeftoverCheckpointTmpIsIgnored) {
  std::string dir = FreshDir("dur_tmp_ckpt");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, 16);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto statements = StandardWorkload();
    for (size_t i = 16; i < statements.size(); ++i) {
      EXEC_OK(**db, statements[i].second, statements[i].first);
    }
    before = Fingerprint(**db);
  }
  // Simulate a crash mid-checkpoint: a half-written tmp next to the good
  // checkpoint + log. The tmp must be ignored and removed.
  std::ofstream tmp(dir + "/" + kCheckpointTmpFileName, std::ios::binary);
  tmp << "half-written garbage";
  tmp.close();
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + kCheckpointTmpFileName));
  EXPECT_EQ(Fingerprint(**db), before);
}

TEST(DurabilityTest, SecondSimultaneousOpenIsRefused) {
  std::string dir = FreshDir("dur_lock");
  auto first = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(first.ok());
  // A concurrent opener would interleave appends into wal.log.
  auto second = Database::Open(dir, DurableOpts());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition())
      << second.status().ToString();
  // Close releases the lock; reopening then works.
  ASSERT_TRUE((*first)->Close().ok());
  auto third = Database::Open(dir, DurableOpts());
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(DurabilityTest, ClosedDatabaseRefusesMutations) {
  std::string dir = FreshDir("dur_closed");
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  EXEC_OK(**db, "CREATE TABLE T (x INT)", "admin");
  ASSERT_TRUE((*db)->Close().ok());
  // Mutations after Close must refuse, not silently run memory-only
  // (they would be acked yet never journaled).
  auto r = (*db)->Execute("INSERT INTO T VALUES (1)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  // Reads of the intact in-memory state still work.
  EXPECT_TRUE((*db)->Execute("SELECT x FROM T").ok());
}

TEST(DurabilityTest, CheckpointStatementIsNoopInMemory) {
  Database db;
  auto r = db.Execute("CHECKPOINT");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->message.find("no-op"), std::string::npos);
}

}  // namespace
}  // namespace bdbms
