#ifndef BDBMS_INDEX_SECONDARY_INDEX_H_
#define BDBMS_INDEX_SECONDARY_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "index/btree/bplus_tree.h"
#include "table/table.h"

namespace bdbms {

// One bound of a key range probe. `inclusive` controls whether the bound
// value itself qualifies.
struct IndexBound {
  Value value;
  bool inclusive = true;
};

// A probe against a (possibly composite) secondary index: equality on the
// leading `eq.size()` key columns, then at most one extra constraint on
// the next key column —
//   * a (half-)bounded range (`lo`/`hi`), or
//   * a string-prefix constraint (`like_prefix`, from LIKE 'p%').
// Everything empty is a full-index scan (the covering-scan access path).
struct IndexProbe {
  std::vector<Value> eq;
  std::optional<IndexBound> lo;
  std::optional<IndexBound> hi;
  std::optional<std::string> like_prefix;
};

// A secondary index over one or more columns of a user table: a disk-paged
// B+-tree mapping the order-preserving composite key encoding of the cell
// values (key_codec.h) to the RowId. Maintained by Table on every
// INSERT/UPDATE/DELETE (and therefore by approval rollbacks, which run
// through the same Table mutations); consulted by the planner to turn
// WHERE equality/range/LIKE-prefix predicates into IndexScan,
// IndexOnlyScan and ScanPrefix probes.
//
// NULL cells are indexed (under the null rank tag) so maintenance is
// uniform, but range probes never return them: SQL comparisons are never
// true on NULL, and the range entry points fence NULLs out. Leading-prefix
// equality probes with fewer than all columns do include rows whose
// *unconstrained* trailing columns are NULL, since no predicate touches
// them.
//
// Internally synchronized: the B+-tree's buffer pool mutates its LRU state
// even on reads, so concurrent snapshot probes and a writer's maintenance
// must serialize on the index's own mutex.
class SecondaryIndex {
 public:
  static Result<std::unique_ptr<SecondaryIndex>> Create(
      std::string name, std::vector<size_t> columns);

  SecondaryIndex(const SecondaryIndex&) = delete;
  SecondaryIndex& operator=(const SecondaryIndex&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<size_t>& columns() const { return columns_; }
  // Leading key column (the whole key of a single-column index).
  size_t column() const { return columns_.front(); }
  uint64_t entry_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->size();
  }

  // --- maintenance (Table calls these with the full stored row) -----------
  Status Insert(const Row& row, RowId row_id);
  Status Remove(const Row& row, RowId row_id);

  // --- probes (planner/IndexScan/IndexOnlyScan) ---------------------------
  // RowIds matching `probe`, ascending, each once (retained row versions
  // keep entries of their own until vacuum).
  Result<std::vector<RowId>> Find(const IndexProbe& probe) const;

  // Visits (encoded composite key, RowId) entries matching `probe` in key
  // order; `fn` returning false stops the scan. The key bytes decode back
  // into the indexed column values (DecodeCompositeKey), which is how
  // index-only scans answer queries without touching the base table.
  Status ScanProbe(const IndexProbe& probe,
                   const std::function<bool(std::string_view, RowId)>& fn)
      const;

  // Single-column convenience wrappers (equality / folded range).
  Result<std::vector<RowId>> FindEqual(const Value& probe) const;
  Result<std::vector<RowId>> FindRange(const std::optional<IndexBound>& lo,
                                       const std::optional<IndexBound>& hi)
      const;

 private:
  SecondaryIndex(std::string name, std::vector<size_t> columns,
                 std::unique_ptr<BPlusTree> tree)
      : name_(std::move(name)),
        columns_(std::move(columns)),
        tree_(std::move(tree)) {}

  // Composite key of `row`'s indexed cells.
  std::string KeyOf(const Row& row) const;

  std::string name_;
  std::vector<size_t> columns_;
  std::unique_ptr<BPlusTree> tree_;
  mutable std::mutex mu_;
};

}  // namespace bdbms

#endif  // BDBMS_INDEX_SECONDARY_INDEX_H_
