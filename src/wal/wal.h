#ifndef BDBMS_WAL_WAL_H_
#define BDBMS_WAL_WAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "wal/wal_env.h"

namespace bdbms {

// What a WAL record journals. Autocommit statements are kStatement
// records; an explicit transaction is framed as kTxnBegin, its statement
// records, then kTxnCommit — all appended together at COMMIT, so the
// begin marker never hits the log before the transaction's outcome is
// decided. Recovery replays a framed group only when its commit marker
// made it into the valid prefix.
enum class WalRecordKind : uint8_t {
  kStatement = 0,
  kTxnBegin = 1,
  kTxnCommit = 2,
};

// One committed mutating A-SQL statement, as journaled. Replaying records
// in lsn order with the recorded user and logical-clock value rebuilds the
// entire engine state deterministically: every timestamp, annotation id
// and approval op-id the engine hands out comes from sequential counters
// seeded by the clock and the statement order.
struct WalRecord {
  uint64_t lsn = 0;    // strictly increasing, 1-based
  uint64_t clock = 0;  // LogicalClock::Peek() before the statement ran
  std::string user;    // issuing principal
  std::string sql;     // original statement text, re-parsed on replay
  WalRecordKind kind = WalRecordKind::kStatement;

  // Snapshot CSN the statement ran under. Every mutating statement runs
  // as an MVCC transaction, and replay re-installs a writer with this
  // snapshot so visibility and first-updater-wins decide as they did.
  uint64_t snapshot = 0;
  // Commit CSN: carried on autocommit kStatement records and on a
  // transaction's kTxnCommit marker; 0 when the
  // statement/transaction wrote nothing. Journaling the CSN (instead of
  // re-deriving it at replay) keeps visibility decisions bit-identical
  // even when aborted transactions burned CSN-free txn ids in between.
  uint64_t csn = 0;
  // Id bases captured before the statement ran: every user table's
  // next_row_id and every annotation table's next_id. Aborted concurrent
  // transactions burn ids without leaving WAL records, so replay must
  // restore the counters explicitly to reproduce ids bit for bit.
  std::vector<std::pair<std::string, uint64_t>> row_bases = {};
  std::vector<std::pair<std::string, uint64_t>> ann_bases = {};

  bool operator==(const WalRecord&) const = default;
};

// On-disk framing of one record:
//
//   u32 crc   CRC-32 of the len field + payload
//   u32 len   payload length in bytes
//   payload   u64 lsn, u64 clock, u8 kind, str user, str sql,
//             u64 snapshot, u64 csn,
//             u32 n, n x (str table, u64 next_row_id),
//             u32 m, m x (str annotation table, u64 next_id)
//             (serializer.h)
//
// The crc covers len, so a torn length prefix is indistinguishable from a
// torn payload: both fail the checksum and recovery cuts the log there.
// A record whose checksum holds but whose payload does not decode to
// exactly these fields is Corruption, not a torn tail.
std::string EncodeWalRecord(const WalRecord& rec);

// What a log scan found. `records` is the longest prefix of intact
// records; `valid_bytes` is where that prefix ends in the file. Anything
// after it (a torn append, a corrupted record) is reported via
// `tail_discarded` and must be truncated away before appending again.
// `record_offsets[i]` is the byte offset of records[i]'s frame, so
// recovery can also truncate at a record boundary — e.g. at a kTxnBegin
// whose commit marker never made it to disk.
struct WalScan {
  std::vector<WalRecord> records;
  std::vector<uint64_t> record_offsets;
  uint64_t valid_bytes = 0;
  bool tail_discarded = false;
};

// Decodes `data` (a whole WAL file) into the longest valid record prefix.
// Never fails on torn/corrupt tails — that is the expected crash shape —
// but does fail on non-monotonic LSNs and on checksummed records that do
// not decode completely, which indicate a mixed-up file rather than a
// crash.
Result<WalScan> ScanWal(std::string_view data);

// Appends CRC-framed statement records to the log file. Append() hands the
// bytes to the OS; Sync() is the commit point. The Database layer decides
// the fsync cadence (every statement, or batched group commit).
class WalWriter {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(WalEnv* env,
                                                 const std::string& path);

  Status Append(const WalRecord& rec);
  Status Sync();

  // Statements appended since the last successful Sync().
  uint64_t unsynced() const { return unsynced_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t syncs() const { return syncs_; }

 private:
  explicit WalWriter(std::unique_ptr<AppendFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<AppendFile> file_;
  uint64_t unsynced_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t syncs_ = 0;
};

}  // namespace bdbms

#endif  // BDBMS_WAL_WAL_H_
