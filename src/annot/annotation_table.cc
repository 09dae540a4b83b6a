#include "annot/annotation_table.h"

#include <algorithm>
#include <cstring>

#include "common/xml.h"
#include "txn/undo_log.h"

namespace bdbms {

Result<std::unique_ptr<AnnotationTable>> AnnotationTable::CreateInMemory(
    std::string name, LogicalClock* clock, size_t pool_pages) {
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> heap,
                         HeapFile::CreateInMemory(pool_pages));
  return std::unique_ptr<AnnotationTable>(
      new AnnotationTable(std::move(name), clock, std::move(heap)));
}

std::string AnnotationTable::EncodeRecord(const AnnotationMeta& meta,
                                          const std::string& body) {
  std::string out;
  auto put_u64 = [&out](uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out.append(buf, 8);
  };
  put_u64(meta.id);
  put_u64(meta.timestamp);
  out.push_back(meta.archived ? 1 : 0);
  put_u64(meta.author.size());
  out += meta.author;
  put_u64(meta.regions.size());
  for (const Region& r : meta.regions) {
    put_u64(r.columns);
    put_u64(r.row_begin);
    put_u64(r.row_end);
  }
  out += body;
  return out;
}

bool AnnotationTable::VisibleTo(const AnnotationMeta& meta,
                                const MvccSnapshot* snap) {
  if (snap == nullptr) return true;
  if (meta.begin_txn != 0 && snap->txn_id != 0 &&
      meta.begin_txn == snap->txn_id) {
    return true;  // own uncommitted annotation
  }
  if (meta.begin_csn == 0 && meta.begin_txn == 0) return true;  // ancient
  return meta.begin_csn != 0 && meta.begin_csn <= snap->csn;
}

Result<AnnotationId> AnnotationTable::Add(const std::string& xml_body,
                                          std::vector<Region> regions,
                                          const std::string& author) {
  if (regions.empty()) {
    return Status::InvalidArgument(
        "annotation must cover at least one region");
  }
  BDBMS_RETURN_IF_ERROR(Xml::Parse(xml_body).status());

  std::unique_lock<std::shared_mutex> lock(latch_);
  MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr;
  AnnotationMeta meta;
  AnnotationId next_before = next_id_;
  meta.id = next_id_++;
  meta.timestamp = clock_->Tick();
  meta.archived = false;
  meta.author = author;
  meta.regions = std::move(regions);
  if (w != nullptr) meta.begin_txn = w->txn_id;

  BDBMS_ASSIGN_OR_RETURN(RecordId rid,
                         heap_->Insert(EncodeRecord(meta, xml_body)));
  for (const Region& r : meta.regions) {
    index_.Insert(r.row_begin, r.row_end, meta.id);
  }
  records_[meta.id] = rid;
  AnnotationId id = meta.id;
  metas_[id] = std::move(meta);
  if (w == nullptr) return id;  // no ambient writer: an ancient annotation
  w->annotations.emplace_back(this, id);
  if (undo_ && undo_->recording()) {
    undo_->Record("add annotation " + std::to_string(id),
                  [this, id, next_before] {
                    EraseAnnotation(id, next_before);
                  });
  }
  return id;
}

void AnnotationTable::EraseAnnotation(AnnotationId id,
                                      AnnotationId next_before) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  auto rec = records_.find(id);
  if (rec != records_.end()) {
    (void)heap_->Delete(rec->second);
    records_.erase(rec);
  }
  metas_.erase(id);
  index_.Erase(id);
  // Only rewind the id counter when nothing newer was handed out;
  // concurrent transactions may have burned later ids (the WAL records id
  // bases per statement, so replay still lines up).
  if (next_id_ == id + 1) next_id_ = next_before;
}

Status AnnotationTable::RestoreAnnotation(const AnnotationMeta& meta,
                                          const std::string& body) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  if (meta.id == 0 || meta.regions.empty()) {
    return Status::InvalidArgument("malformed annotation meta");
  }
  if (metas_.count(meta.id)) {
    return Status::AlreadyExists("annotation " + std::to_string(meta.id) +
                                 " already present");
  }
  BDBMS_ASSIGN_OR_RETURN(RecordId rid, heap_->Insert(EncodeRecord(meta, body)));
  for (const Region& r : meta.regions) {
    index_.Insert(r.row_begin, r.row_end, meta.id);
  }
  records_[meta.id] = rid;
  metas_[meta.id] = meta;
  if (meta.id >= next_id_) next_id_ = meta.id + 1;
  return Status::Ok();
}

std::vector<AnnotationId> AnnotationTable::IdsForCell(
    RowId row, size_t col, const MvccSnapshot* snap) const {
  return IdsForRow(row, ColumnBit(col), snap);
}

std::vector<AnnotationId> AnnotationTable::IdsForRow(
    RowId row, ColumnMask mask, const MvccSnapshot* snap) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  std::vector<AnnotationId> ids;
  index_.QueryPoint(row, [&](RowId, RowId, uint64_t id) {
    const AnnotationMeta& meta = metas_.at(id);
    if (meta.archived || !VisibleTo(meta, snap)) return;
    for (const Region& r : meta.regions) {
      if ((r.columns & mask) != 0 && row >= r.row_begin && row <= r.row_end) {
        ids.push_back(id);
        return;
      }
    }
  });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<AnnotationId> AnnotationTable::IdsForRegions(
    const std::vector<Region>& regions, const MvccSnapshot* snap) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  std::vector<AnnotationId> ids;
  for (const Region& query : regions) {
    index_.QueryRange(query.row_begin, query.row_end,
                      [&](RowId, RowId, uint64_t id) {
                        const AnnotationMeta& meta = metas_.at(id);
                        if (meta.archived || !VisibleTo(meta, snap)) return;
                        for (const Region& r : meta.regions) {
                          if (r.Overlaps(query)) {
                            ids.push_back(id);
                            return;
                          }
                        }
                      });
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Result<std::string> AnnotationTable::Body(AnnotationId id) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("no annotation " + std::to_string(id));
  }
  BDBMS_ASSIGN_OR_RETURN(std::string payload, heap_->Read(it->second));
  // Skip the fixed prefix: id, timestamp, archived, author, regions.
  const AnnotationMeta& meta = metas_.at(id);
  size_t offset =
      8 + 8 + 1 + 8 + meta.author.size() + 8 + 24 * meta.regions.size();
  if (offset > payload.size()) {
    return Status::Corruption("annotation record too short");
  }
  return payload.substr(offset);
}

Result<AnnotationMeta> AnnotationTable::Meta(AnnotationId id) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  auto it = metas_.find(id);
  if (it == metas_.end()) {
    return Status::NotFound("no annotation " + std::to_string(id));
  }
  return it->second;
}

Status AnnotationTable::SetArchived(AnnotationId id, bool archived) {
  auto it = metas_.find(id);
  if (it == metas_.end()) {
    return Status::NotFound("no annotation " + std::to_string(id));
  }
  if (it->second.archived == archived) return Status::Ok();
  BDBMS_ASSIGN_OR_RETURN(std::string body, Body(id));
  it->second.archived = archived;
  BDBMS_RETURN_IF_ERROR(Rewrite(id, body));
  if (undo_ && undo_->recording()) {
    bool was = !archived;
    undo_->Record("set archived " + std::to_string(id),
                  [this, id, was] { (void)SetArchived(id, was); });
  }
  return Status::Ok();
}

Status AnnotationTable::Rewrite(AnnotationId id, const std::string& body) {
  BDBMS_RETURN_IF_ERROR(heap_->Delete(records_.at(id)));
  BDBMS_ASSIGN_OR_RETURN(RecordId rid,
                         heap_->Insert(EncodeRecord(metas_.at(id), body)));
  records_[id] = rid;
  return Status::Ok();
}

Result<size_t> AnnotationTable::ArchiveMatching(
    const std::vector<Region>& regions, uint64_t t1, uint64_t t2) {
  size_t archived = 0;
  for (AnnotationId id : IdsForRegions(regions)) {
    const AnnotationMeta& meta = metas_.at(id);
    if (meta.timestamp < t1 || meta.timestamp > t2) continue;
    BDBMS_RETURN_IF_ERROR(SetArchived(id, true));
    ++archived;
  }
  return archived;
}

std::vector<std::pair<RowId, RowId>> AnnotationTable::LiveRowIntervals(
    const MvccSnapshot* snap) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  std::vector<std::pair<RowId, RowId>> intervals;
  for (const auto& [id, meta] : metas_) {
    if (meta.archived || !VisibleTo(meta, snap)) continue;
    for (const Region& r : meta.regions) {
      intervals.emplace_back(r.row_begin, r.row_end);
    }
  }
  return intervals;
}

Result<size_t> AnnotationTable::RestoreMatching(
    const std::vector<Region>& regions, uint64_t t1, uint64_t t2) {
  // IdsForRegions skips archived annotations, so enumerate directly.
  size_t restored = 0;
  for (auto& [id, meta] : metas_) {
    if (!meta.archived) continue;
    if (meta.timestamp < t1 || meta.timestamp > t2) continue;
    bool overlaps = false;
    for (const Region& r : meta.regions) {
      for (const Region& q : regions) {
        if (r.Overlaps(q)) {
          overlaps = true;
          break;
        }
      }
      if (overlaps) break;
    }
    if (!overlaps) continue;
    BDBMS_RETURN_IF_ERROR(SetArchived(id, false));
    ++restored;
  }
  return restored;
}

// Unlatched: only the checkpointer calls this (under the exclusive gate),
// and its callback re-enters Body(), which latches.
void AnnotationTable::ForEach(
    bool include_archived,
    const std::function<void(const AnnotationMeta&)>& fn) const {
  for (const auto& [id, meta] : metas_) {
    if (!include_archived && meta.archived) continue;
    fn(meta);
  }
}

AnnotationId AnnotationTable::next_id() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return next_id_;
}

void AnnotationTable::AdvanceNextId(AnnotationId next) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  if (next > next_id_) next_id_ = next;
}

void AnnotationTable::SetNextId(AnnotationId next) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  next_id_ = next;
}

void AnnotationTable::CommitAnnotation(AnnotationId id, uint64_t txn,
                                       uint64_t csn) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  auto it = metas_.find(id);
  if (it == metas_.end()) return;
  if (it->second.begin_csn == 0 && it->second.begin_txn == txn) {
    it->second.begin_csn = csn;
    it->second.begin_txn = 0;
  }
}

uint64_t AnnotationTable::count() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return metas_.size();
}

uint64_t AnnotationTable::live_count() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  uint64_t n = 0;
  for (const auto& [id, meta] : metas_) {
    if (!meta.archived) ++n;
  }
  return n;
}

}  // namespace bdbms
