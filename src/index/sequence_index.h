#ifndef BDBMS_INDEX_SEQUENCE_INDEX_H_
#define BDBMS_INDEX_SEQUENCE_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bio/alignment.h"
#include "common/result.h"
#include "common/value.h"
#include "index/spgist/trie_ops.h"
#include "table/table.h"

namespace bdbms {

// A sequence index: the SP-GiST disk-based trie (paper §7.1) registered as
// a planner-visible secondary index over one string-typed column —
// `CREATE SEQUENCE INDEX ... USING SPGIST`. The trie partitions keys by
// next character, so prefix probes (`seq LIKE 'ACGT%'`) descend only the
// matching subtrees instead of scanning the table; exact probes descend a
// single path. Maintained by Table on every INSERT/UPDATE/DELETE (and so
// by approval rollbacks), like the B+-tree secondary indexes.
//
// NULL cells are not indexed: no SQL comparison or LIKE predicate is ever
// true on NULL, so probes could never return them. The trie reserves the
// NUL byte as its end-of-key label, so values containing embedded NUL
// bytes are rejected at maintenance time rather than silently dropped.
//
// Internally synchronized, like SecondaryIndex: the trie's page cache
// mutates on reads, so concurrent probes serialize on the index's mutex.
class SequenceIndex {
 public:
  static Result<std::unique_ptr<SequenceIndex>> Create(std::string name,
                                                       size_t column);

  SequenceIndex(const SequenceIndex&) = delete;
  SequenceIndex& operator=(const SequenceIndex&) = delete;

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }
  uint64_t entry_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return trie_->size();
  }

  // --- maintenance (Table calls these with the cell's stored value) -------
  Status Insert(const Value& cell, RowId row_id);
  Status Remove(const Value& cell, RowId row_id);

  // --- probes (planner/SpgistScan) ----------------------------------------
  // Every probe returns each RowId once, even where retained row versions
  // keep extra entries for it until vacuum.
  //
  // RowIds whose cell starts with `prefix`, ascending.
  Result<std::vector<RowId>> FindPrefix(const std::string& prefix) const;
  // RowIds whose cell equals `text` exactly, ascending.
  Result<std::vector<RowId>> FindExact(const std::string& text) const;
  // RowIds whose whole cell matches `program`, ascending. The NFA state
  // set advances edge by edge during the descent; subtrees whose state
  // set goes dead are never visited.
  Result<std::vector<RowId>> FindRegex(const RegexProgram& program) const;

  // One ranked result of FindNearest.
  struct Neighbor {
    RowId row;
    int distance;
  };
  // The nearest indexed sequences to `target` by edit distance, in
  // (distance, RowId) order: a best-first traversal over per-subtree
  // Levenshtein lower bounds (spgscan.c-style ordered scan). `keep` vets
  // each candidate — MVCC visibility plus a stored-cell equality check —
  // before it counts toward k, so stale index entries cannot underfill
  // the result; a row with several entries (retained versions) takes one
  // slot. All ties at the k-th distance are returned; the caller's
  // LIMIT makes the final cut. `keep` is always invoked with the index
  // mutex released (it takes the table lock, and DML locks table before
  // index); a rejection blacklists that (row, key) entry and reruns the
  // traversal.
  Result<std::vector<Neighbor>> FindNearest(
      const std::string& target, size_t k,
      const std::function<bool(RowId, const std::string& cell)>& keep) const;

  // RowIds whose cell aligns locally to `query` with Smith–Waterman
  // score >= min_score (or > when `strict`), ascending. The DP rows are
  // threaded down the trie, so keys sharing a prefix share that much of
  // the O(n*m) work and duplicate sequences are scored once per leaf
  // group rather than once per row.
  Result<std::vector<RowId>> FindAlign(
      const std::string& query, int min_score, bool strict,
      const AlignmentParams& params = {}) const;

 private:
  SequenceIndex(std::string name, size_t column,
                std::unique_ptr<SpGistTrie> trie)
      : name_(std::move(name)), column_(column), trie_(std::move(trie)) {}

  Result<std::vector<RowId>> Collect(const TrieOps::Query& query) const;

  std::string name_;
  size_t column_;
  std::unique_ptr<SpGistTrie> trie_;
  mutable std::mutex mu_;
};

}  // namespace bdbms

#endif  // BDBMS_INDEX_SEQUENCE_INDEX_H_
