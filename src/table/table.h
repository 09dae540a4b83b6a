#ifndef BDBMS_TABLE_TABLE_H_
#define BDBMS_TABLE_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/statistics.h"
#include "common/result.h"
#include "storage/heap_file.h"
#include "txn/mvcc.h"

namespace bdbms {

class SecondaryIndex;
class SequenceIndex;
class UndoLog;

// Logical row identifier: assigned densely in insertion order and never
// reused. The paper models a relation as a 2-D space (columns × tuples,
// Figure 5); RowId is the tuple axis, so annotation regions and outdated
// bitmaps can address rows by interval even across deletions.
using RowId = uint64_t;

// One superseded row version kept for MVCC readers. The version's data
// lives here as an in-memory copy (the heap always holds only the newest
// version); begin/end events are (CSN, txn) pairs — a zero CSN with a
// non-zero txn means the event belongs to a still-uncommitted
// transaction, zero/zero means "since forever" (predates MVCC tracking).
struct RowVersion {
  Row row;
  uint64_t begin_csn = 0;
  uint64_t begin_txn = 0;
  uint64_t end_csn = 0;
  uint64_t end_txn = 0;
};

// MVCC bookkeeping for one RowId: the begin event of the CURRENT version
// (the one stored in the heap) plus the chain of superseded versions,
// oldest first. Rows with no entry in the side map are ancient — visible
// to every snapshot. `begin_csn`/`begin_txn` are meaningful only while a
// current version exists (the row is live in `rows_`).
struct RowMvcc {
  uint64_t begin_csn = 0;
  uint64_t begin_txn = 0;
  std::vector<RowVersion> old;
};

// A user relation: schema-validated rows over a HeapFile. Each record
// embeds its RowId; the RowId -> RecordId map is rebuilt on open.
//
// Updates rewrite the record (delete + insert at the heap level) but keep
// the RowId, so all metadata keyed by RowId (annotations, provenance,
// outdated bits, pending approvals) stays attached, which is exactly the
// behaviour bdbms needs.
//
// Concurrency: public accessors and mutators latch an internal
// shared_mutex, so snapshot readers can fetch rows while a writer
// mutates. Index DDL (Create*/DropIndex) and the index accessors are
// deliberately unlatched — they run or are only mutated under the
// engine's exclusive gate, which admits no concurrent table access.
class Table {
 public:
  // Fresh in-memory table.
  static Result<std::unique_ptr<Table>> CreateInMemory(TableSchema schema,
                                                       size_t pool_pages = 64);
  // File-backed table; existing rows are recovered by scanning.
  static Result<std::unique_ptr<Table>> OpenFile(TableSchema schema,
                                                 const std::string& path,
                                                 size_t pool_pages = 64);

  // Durable paged table over HeapFile::OpenPaged: rows live in file-backed
  // pages that fault in and evict under the `pool_pages` budget (0 =
  // unbounded), so tables larger than RAM work. Existing rows are
  // recovered by scanning.
  static Result<std::unique_ptr<Table>> OpenPaged(TableSchema schema,
                                                  WalEnv* env,
                                                  const std::string& path,
                                                  size_t pool_pages);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  ~Table();

  const TableSchema& schema() const { return schema_; }

  // Validates against the schema and appends; returns the new RowId.
  // While an MVCC writer is ambient the new row is tagged with the
  // writer's txn so only that transaction sees it until commit. Every
  // mutator runs versioned under an ambient writer, with an undo record
  // that discards the uncommitted version; with no writer (standalone
  // tables, checkpoint restore) it writes a plain ancient row, no undo.
  Result<RowId> Insert(Row row);

  // Re-inserts a row under a specific RowId — the inverse of a DELETE
  // (used when a disapproved deletion is rolled back, paper §6). Fails if
  // the RowId is live.
  Status InsertWithRowId(RowId row_id, Row row);

  // Full row fetch of the current (newest) version.
  Result<Row> Get(RowId row_id) const;

  // Snapshot fetch: the version of `row_id` visible to `snap`, or nullopt
  // when no version is visible (never existed, created after the
  // snapshot, or deleted before it).
  Result<std::optional<Row>> GetVisible(RowId row_id,
                                        const MvccSnapshot& snap) const;

  // Replaces the whole row (schema-validated). Under an ambient MVCC
  // writer the superseded version is pushed onto the row's chain and the
  // statement fails with a serialization-failure status if another
  // uncommitted transaction (or one that committed after the writer's
  // snapshot) already replaced the row — first updater wins.
  Status Update(RowId row_id, Row row);

  // Replaces one cell (type-coerced).
  Status UpdateCell(RowId row_id, size_t column, Value value);

  // Removes the row. Its RowId is never reused. Versioned like Update.
  Status Delete(RowId row_id);

  bool Exists(RowId row_id) const;

  // Visits live rows in RowId order; `fn` returning non-OK stops the scan.
  Status Scan(const std::function<Status(RowId, const Row&)>& fn) const;

  // RowIds with a version visible to `snap`, ascending. Includes rows
  // whose current version is deleted or not yet committed but whose chain
  // still holds a version the snapshot can see.
  std::vector<RowId> VisibleRowIds(const MvccSnapshot& snap) const;
  std::vector<RowId> VisibleRowIdsInRange(RowId begin, RowId end,
                                          const MvccSnapshot& snap) const;

  // --- MVCC commit / garbage collection ------------------------------------
  // Stamps every version event of `row_id` owned by `txn` with commit
  // sequence number `csn`. Idempotent; called once per write-set entry at
  // commit under the engine's writer mutex.
  void CommitRow(RowId row_id, uint64_t txn, uint64_t csn);

  // Drops superseded versions whose end CSN is committed and <=
  // `oldest_csn` (no active snapshot can need them), removing their index
  // entries, and retires chain bookkeeping for rows whose current version
  // is visible to every active snapshot. Pass UINT64_MAX to drop
  // everything dead.
  void Vacuum(uint64_t oldest_csn);

  // Live rows plus retained superseded versions — the metric the GC and
  // crash tests watch ("GC must not resurrect or leak versions").
  uint64_t version_count() const;

  // --- secondary indexes ---------------------------------------------------
  // Builds a B+-tree index named `name` over the given columns (composite
  // keys in column-list order) from the current rows and every retained
  // superseded version (each version owns one entry, which Vacuum later
  // removes); maintained by every subsequent Insert/Update/Delete.
  Status CreateIndex(const std::string& name, std::vector<size_t> columns);
  Status CreateIndex(const std::string& name, size_t column) {
    return CreateIndex(name, std::vector<size_t>{column});
  }

  // Builds an SP-GiST trie sequence index named `name` over one
  // string-typed column; maintained like the B+-tree indexes.
  Status CreateSequenceIndex(const std::string& name, size_t column);

  // Drops a B+-tree or sequence index by name.
  Status DropIndex(const std::string& name);

  const SecondaryIndex* FindIndex(const std::string& name) const;
  const SequenceIndex* FindSequenceIndex(const std::string& name) const;

  // All indexes, in creation order (the planner's candidate sets).
  const std::vector<std::unique_ptr<SecondaryIndex>>& indexes() const {
    return indexes_;
  }
  const std::vector<std::unique_ptr<SequenceIndex>>& sequence_indexes()
      const {
    return seq_indexes_;
  }

  uint64_t row_count() const;

  // One full scan computing the ANALYZE statistics snapshot: row count
  // plus per-column null count, NDV, min/max, and (for columns whose
  // non-null values are all numeric) an equi-width histogram with
  // `histogram_buckets` buckets.
  Result<TableStats> ComputeStats(size_t histogram_buckets = 16) const;

  // One past the largest RowId ever assigned (the tuple-axis extent).
  RowId next_row_id() const;

  // Recovery: restores the tuple-axis extent recorded in a checkpoint.
  // max(live RowId)+1 underestimates it when the newest rows were deleted;
  // reusing their RowIds would re-attach their old annotations, outdated
  // bits and pending approvals to unrelated new rows.
  void AdvanceNextRowId(RowId next);

  // WAL replay: restores the exact id counter a statement allocated
  // from. Unlike AdvanceNextRowId this can move the counter *down* —
  // group commit writes a transaction's statements to the log at COMMIT,
  // so a record appended earlier can carry a counter captured later.
  void SetNextRowId(RowId next);

  uint64_t SizeBytes() const { return heap_->SizeBytes(); }
  const IoStats& io_stats() const { return heap_->io_stats(); }
  IoStats& io_stats() { return heap_->io_stats(); }
  Status Flush() { return heap_->Flush(); }

  // --- paged storage -------------------------------------------------------
  bool paged() const { return heap_->paged(); }
  uint32_t heap_page_count() const { return heap_->page_count(); }
  uint32_t dirty_page_count() const { return heap_->dirty_page_count(); }
  BufferPoolStats buffer_stats() const { return heap_->buffer_stats(); }

  // Basename of the paged heap file ("" for in-memory tables); recorded in
  // the checkpoint manifest so recovery reopens the same incarnation.
  const std::string& heap_file_name() const { return heap_file_name_; }

  // Incremental-checkpoint protocol, delegated to the heap (no-ops for
  // in-memory tables).
  Status CheckpointPrepare(uint64_t gen);
  Status CheckpointCommit();

  // Sequential-scan readahead: prefetches the heap pages holding the next
  // candidates of `candidates` starting at index `from` (up to
  // `readahead_pages()` distinct pages). Advisory; no-op when not paged or
  // readahead is disabled.
  void PrefetchRows(const std::vector<RowId>& candidates, size_t from) const;

  size_t readahead_pages() const { return readahead_pages_; }
  void set_readahead_pages(size_t n) { readahead_pages_ = n; }

  // Transactions: while `undo` is recording, every versioned mutation and
  // index DDL pushes a compensation record that restores the prior state,
  // index entries included.
  void set_undo_log(UndoLog* undo) { undo_ = undo; }

  // Installs the engine's ambient MVCC context. When `mvcc->writer` is
  // non-null, mutators take the versioned path.
  void set_mvcc(MvccState* mvcc) { mvcc_ = mvcc; }

 private:
  Table(TableSchema schema, std::unique_ptr<HeapFile> heap);

  // Recovers rows_ / next_row_id_ from heap contents.
  Status Bootstrap();

  static std::string EncodeRecord(RowId row_id, const Row& row);
  static Result<std::pair<RowId, Row>> DecodeRecord(std::string_view payload);

  // Rejects rows a sequence index could not store (embedded NUL bytes)
  // BEFORE any mutation: a failure halfway through IndexInsert would
  // leave the index families divergent — and the row undeletable, since
  // the trie never received the entry IndexRemove would look for.
  Status CheckIndexable(const Row& row) const;

  // Adds/removes `row`'s entries in every secondary index.
  Status IndexInsert(RowId row_id, const Row& row);
  Status IndexRemove(RowId row_id, const Row& row);

  // Unlatched bodies — callers hold latch_ (shared for reads, unique for
  // writes). Split out because the mutators call the readers internally
  // and shared_mutex is not recursive.
  Result<RowId> InsertLocked(Row row);
  Status InsertWithRowIdLocked(RowId row_id, Row row);
  Result<Row> GetLocked(RowId row_id) const;
  Status UpdateLocked(RowId row_id, Row row);
  Status DeleteLocked(RowId row_id);
  Status ScanLocked(const std::function<Status(RowId, const Row&)>& fn) const;

  // Replaces the heap record of the live row at `it` with `row`.
  Status RewriteLocked(std::map<RowId, RecordId>::iterator it, const Row& row);

  // Visits every live row and every retained superseded version: the
  // versions an index must hold one entry each for.
  Status ForEachIndexedVersion(
      const std::function<Status(RowId, const Row&)>& fn) const;

  // First-updater-wins check for Update/Delete under an ambient writer.
  Status CheckWriteConflictLocked(RowId row_id, const MvccWriter& w) const;

  // Resolves which version of `row_id` the snapshot sees: 0 = none,
  // 1 = the current heap version, 2 = a chain version (`*node` set).
  int ResolveVisibleLocked(RowId row_id, const MvccSnapshot& snap,
                           const RowVersion** node) const;

  TableSchema schema_;
  std::unique_ptr<HeapFile> heap_;
  std::map<RowId, RecordId> rows_;
  std::map<RowId, RowMvcc> mvcc_rows_;
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
  std::vector<std::unique_ptr<SequenceIndex>> seq_indexes_;
  RowId next_row_id_ = 0;
  UndoLog* undo_ = nullptr;
  MvccState* mvcc_ = nullptr;
  std::string heap_file_name_;   // basename of the paged heap ("" if none)
  size_t readahead_pages_ = 0;   // 0 disables scan prefetch
  mutable std::shared_mutex latch_;
};

}  // namespace bdbms

#endif  // BDBMS_TABLE_TABLE_H_
