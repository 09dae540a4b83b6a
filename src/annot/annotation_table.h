#ifndef BDBMS_ANNOT_ANNOTATION_TABLE_H_
#define BDBMS_ANNOT_ANNOTATION_TABLE_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "annot/annotation.h"
#include "annot/interval_index.h"
#include "common/clock.h"
#include "common/result.h"
#include "storage/heap_file.h"
#include "txn/mvcc.h"

namespace bdbms {

class UndoLog;

// One annotation table (paper §3.1): a named, categorized store of
// annotations over a single user relation, using the compact
// rectangle-region scheme of Figure 5. Each annotation is one heap record
// holding metadata + regions + XML body; region lookup goes through an
// interval index, so an annotation covering a whole column costs one
// record, not one copy per cell.
//
// Concurrency: Add and the id lookups latch an internal shared_mutex so
// concurrent-DML provenance writes can coexist with snapshot readers.
// Archive-state mutators (SetArchived/Archive*/Restore*) stay unlatched —
// they only run under the engine's exclusive gate, and latching them would
// deadlock SetArchived against its own Body() call.
class AnnotationTable {
 public:
  // `clock` assigns creation timestamps (used by ARCHIVE/RESTORE BETWEEN);
  // it must outlive the table.
  static Result<std::unique_ptr<AnnotationTable>> CreateInMemory(
      std::string name, LogicalClock* clock, size_t pool_pages = 64);

  AnnotationTable(const AnnotationTable&) = delete;
  AnnotationTable& operator=(const AnnotationTable&) = delete;

  const std::string& name() const { return name_; }

  // Validates `xml_body` as XML and stores it over `regions`. Under an
  // ambient MVCC writer the annotation is tagged with the writer's txn
  // and stays invisible to other snapshots until commit stamps it.
  Result<AnnotationId> Add(const std::string& xml_body,
                           std::vector<Region> regions,
                           const std::string& author);

  // Non-archived annotation ids covering the cell, ascending. When `snap`
  // is given, only annotations visible to that snapshot qualify.
  std::vector<AnnotationId> IdsForCell(RowId row, size_t col,
                                       const MvccSnapshot* snap =
                                           nullptr) const;

  // Non-archived annotation ids touching any column in `mask` of `row`.
  std::vector<AnnotationId> IdsForRow(RowId row, ColumnMask mask,
                                      const MvccSnapshot* snap =
                                          nullptr) const;

  // Non-archived ids overlapping any of `regions`.
  std::vector<AnnotationId> IdsForRegions(const std::vector<Region>& regions,
                                          const MvccSnapshot* snap =
                                              nullptr) const;

  // Inclusive row intervals covered by at least one live annotation
  // region, unsorted and possibly overlapping. The planner feeds these to
  // Table::VisibleRowIdsInRange to restrict an AWHERE scan to row ranges
  // that can carry annotations at all.
  std::vector<std::pair<RowId, RowId>> LiveRowIntervals(
      const MvccSnapshot* snap = nullptr) const;

  // Reads the XML body from storage.
  Result<std::string> Body(AnnotationId id) const;

  Result<AnnotationMeta> Meta(AnnotationId id) const;

  // ARCHIVE ANNOTATION ... [BETWEEN t1 AND t2] ON <selection>: archives
  // every live annotation whose regions overlap `regions` and whose
  // creation timestamp lies in [t1, t2]. Returns how many were archived.
  Result<size_t> ArchiveMatching(const std::vector<Region>& regions,
                                 uint64_t t1 = 0, uint64_t t2 = UINT64_MAX);

  // RESTORE ANNOTATION: the inverse of ArchiveMatching.
  Result<size_t> RestoreMatching(const std::vector<Region>& regions,
                                 uint64_t t1 = 0, uint64_t t2 = UINT64_MAX);

  // Visits every annotation (optionally including archived ones).
  void ForEach(bool include_archived,
               const std::function<void(const AnnotationMeta&)>& fn) const;

  // Re-inserts an annotation under its original id/timestamp/archived
  // state — the checkpoint-recovery inverse of ForEach+Body. The id must
  // be unused; next_id() advances past it.
  Status RestoreAnnotation(const AnnotationMeta& meta,
                           const std::string& body);

  // The id the next Add() will assign (serialized with checkpoints so ids
  // stay unique across recoveries).
  AnnotationId next_id() const;

  // Recovery: restores the id counter recorded with a WAL statement so
  // replay hands out the same ids even when aborted concurrent
  // transactions burned ids in the original run.
  void AdvanceNextId(AnnotationId next);

  // WAL replay: restores the exact id counter a statement allocated
  // from (may move the counter down; see Table::SetNextRowId).
  void SetNextId(AnnotationId next);

  // MVCC commit: stamps the annotation's begin event if `txn` owns it.
  void CommitAnnotation(AnnotationId id, uint64_t txn, uint64_t csn);

  uint64_t count() const;
  uint64_t live_count() const;
  uint64_t SizeBytes() const { return heap_->SizeBytes(); }
  const IoStats& io_stats() const { return heap_->io_stats(); }
  IoStats& io_stats() { return heap_->io_stats(); }

  // Transactions: while `undo` records, Add and archive-state flips push
  // compensation records that erase/restore the annotation exactly.
  void set_undo_log(UndoLog* undo) { undo_ = undo; }

  // Installs the engine's ambient MVCC context (see Table::set_mvcc).
  void set_mvcc(MvccState* mvcc) { mvcc_ = mvcc; }

 private:
  AnnotationTable(std::string name, LogicalClock* clock,
                  std::unique_ptr<HeapFile> heap)
      : name_(std::move(name)), clock_(clock), heap_(std::move(heap)) {}

  // (Re)writes the heap record for `id` after a metadata change.
  Status Rewrite(AnnotationId id, const std::string& body);

  static std::string EncodeRecord(const AnnotationMeta& meta,
                                  const std::string& body);

  Status SetArchived(AnnotationId id, bool archived);

  // Compensation for Add(): removes the annotation and rewinds next_id_
  // so a replay hands out the same id again.
  void EraseAnnotation(AnnotationId id, AnnotationId next_before);

  // True when the snapshot (nullptr = no filtering) can see `meta`.
  static bool VisibleTo(const AnnotationMeta& meta, const MvccSnapshot* snap);

  std::string name_;
  LogicalClock* clock_;
  std::unique_ptr<HeapFile> heap_;
  std::map<AnnotationId, AnnotationMeta> metas_;
  std::map<AnnotationId, RecordId> records_;
  IntervalIndex index_;  // row intervals of all regions, payload = id
  AnnotationId next_id_ = 1;
  UndoLog* undo_ = nullptr;
  MvccState* mvcc_ = nullptr;
  mutable std::shared_mutex latch_;
};

}  // namespace bdbms

#endif  // BDBMS_ANNOT_ANNOTATION_TABLE_H_
