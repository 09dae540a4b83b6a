#ifndef BDBMS_PLAN_OPERATOR_H_
#define BDBMS_PLAN_OPERATOR_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "annot/annotation_table.h"
#include "exec/exec_context.h"
#include "index/secondary_index.h"
#include "index/sequence_index.h"
#include "index/spgist/regex.h"
#include "plan/plan_tuple.h"
#include "sql/ast.h"

namespace bdbms {

// A physical operator in the Volcano iterator model: Open() prepares the
// node, each Next() produces one tuple, so relations stream through the
// pipeline instead of being materialized wholesale (pipeline breakers —
// Sort, HashAggregate, Distinct, SetOp and the build side of joins —
// materialize only what they must). Every operator propagates annotations
// under the paper's §3.3/§3.4 rules.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  virtual Status Open() = 0;
  // Produces the next tuple into `*out`; returns false when exhausted.
  virtual Result<bool> Next(PlanTuple* out) = 0;

  // One EXPLAIN line, without indentation (estimates are appended by
  // ExplainPlan).
  virtual std::string Describe() const = 0;
  virtual std::vector<const PlanNode*> Children() const { return {}; }

  const std::vector<BoundColumn>& columns() const { return columns_; }

  // Planner estimates (docs/planner.md): output cardinality and total
  // cost in abstract work units, shown per node by EXPLAIN.
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }
  void SetEstimate(double rows, double total_cost) {
    est_rows_ = rows;
    est_cost_ = total_cost;
  }

 protected:
  std::vector<BoundColumn> columns_;
  double est_rows_ = 0.0;
  double est_cost_ = 0.0;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

// Renders the plan tree, two spaces of indent per level.
std::string ExplainPlan(const PlanNode& root);

// Open() + Next()-until-exhausted into `out`.
Status DrainPlan(PlanNode* root, std::vector<PlanTuple>* out);

// Duplicate elimination joining annotations of merged tuples (§3.4).
void DeduplicateTuples(std::vector<PlanTuple>* tuples);

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

// Base of the access methods: subclasses produce the candidate RowId list;
// the base streams the rows, attaching requested annotations and the
// synthesized _outdated annotations (paper §5) when `attach_metadata`.
class ScanNodeBase : public PlanNode {
 public:
  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;

 protected:
  ScanNodeBase(const ExecContext* ctx, Table* table, std::string table_name,
               std::string qualifier, std::vector<std::string> ann_names,
               bool attach_metadata);

  // Candidate RowIds, each at most once, ascending unless the subclass
  // says otherwise (supersets are fine; rows the snapshot cannot see are
  // skipped).
  virtual Result<std::vector<RowId>> CollectCandidates() = 0;

  // Visibility re-check: index access paths can hand back a row-id
  // through a dead index entry whose key no longer matches the version the
  // snapshot sees (the chain keeps old keys indexed until vacuum). The
  // subclass re-verifies its probe against the *visible* row's indexed
  // cells; the base scan drops rows that fail. The default (full scans,
  // interval scans) accepts everything.
  virtual bool RecheckVisible(const Row& /*row*/) const { return true; }

  // " AS alias" / " ANNOTATION(...)" decoration shared by subclasses.
  std::string DescribeSuffix() const;

  // Whether Next() should prefetch upcoming candidates' heap pages.
  // Only sequential scans benefit: their candidate order matches page
  // order, so the next candidates name the next pages. Index probes
  // visit pages in key order, where readahead just pollutes the pool.
  virtual bool WantReadahead() const { return false; }

  const ExecContext* ctx_;
  Table* table_;
  std::string table_name_;
  std::string qualifier_;
  std::vector<std::string> ann_names_;
  bool attach_metadata_;

 private:
  std::vector<AnnotationTable*> ann_tables_;
  // One fetch per annotation even when it covers many cells.
  std::map<std::pair<std::string, AnnotationId>, ResultAnnotation> cache_;
  std::vector<RowId> candidates_;
  size_t pos_ = 0;
};

// Full-table scan in RowId order.
class SeqScanNode : public ScanNodeBase {
 public:
  SeqScanNode(const ExecContext* ctx, Table* table, std::string table_name,
              std::string qualifier, std::vector<std::string> ann_names,
              bool attach_metadata)
      : ScanNodeBase(ctx, table, std::move(table_name), std::move(qualifier),
                     std::move(ann_names), attach_metadata) {}

  std::string Describe() const override;

 protected:
  Result<std::vector<RowId>> CollectCandidates() override;
  bool WantReadahead() const override { return true; }
};

// B+-tree probe: leading-column equalities plus at most one trailing
// range or string-prefix constraint (IndexProbe, secondary_index.h).
// Candidates come from the secondary index; output stays in RowId order.
// A probe whose trailing constraint is a LIKE prefix renders as
// `ScanPrefix` in EXPLAIN.
class IndexScanNode : public ScanNodeBase {
 public:
  IndexScanNode(const ExecContext* ctx, Table* table, std::string table_name,
                std::string qualifier, std::vector<std::string> ann_names,
                bool attach_metadata, const SecondaryIndex* index,
                IndexProbe probe, std::string predicate_text)
      : ScanNodeBase(ctx, table, std::move(table_name), std::move(qualifier),
                     std::move(ann_names), attach_metadata),
        index_(index),
        probe_(std::move(probe)),
        predicate_text_(std::move(predicate_text)) {}

  std::string Describe() const override;

 protected:
  Result<std::vector<RowId>> CollectCandidates() override;
  bool RecheckVisible(const Row& row) const override;

 private:
  const SecondaryIndex* index_;
  IndexProbe probe_;
  std::string predicate_text_;
};

// Index-only scan: answers the query from the index's own keys, never
// fetching base-table rows. Eligible when the index's key columns cover
// every column the statement references (the planner checks); uncovered
// columns are padded with NULL but are provably never read. Output tuples
// stay full table width so the column space matches the other scans, and
// stay in RowId order. Synthesized `_outdated` annotations still attach
// (they need only the RowId); regular annotation attachment disqualifies
// the path at planning time.
class IndexOnlyScanNode : public PlanNode {
 public:
  IndexOnlyScanNode(const ExecContext* ctx, Table* table,
                    std::string table_name, std::string qualifier,
                    bool attach_metadata, const SecondaryIndex* index,
                    IndexProbe probe, std::string predicate_text);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;

 private:
  const ExecContext* ctx_;
  Table* table_;
  std::string table_name_;
  std::string qualifier_;
  bool attach_metadata_;
  const SecondaryIndex* index_;
  IndexProbe probe_;
  std::string predicate_text_;
  std::vector<DataType> key_types_;      // declared types of the key columns
  std::vector<std::pair<RowId, Row>> rows_;  // decoded, RowId-ascending
  size_t pos_ = 0;
  // Snapshot-mode dedup: version chains keep old keys indexed until
  // vacuum, so one RowId can surface through several entries; emit it
  // once (rows_ is RowId-sorted, so tracking the last emitted id works).
  bool have_emitted_ = false;
  RowId last_emitted_ = 0;
};

// SP-GiST trie probe over a sequence index: prefix (LIKE 'p%') or exact
// match on one string column. Candidates come from the trie; output stays
// in RowId order.
class SpgistScanNode : public ScanNodeBase {
 public:
  struct Probe {
    bool exact = false;  // false: prefix match
    std::string text;
  };

  SpgistScanNode(const ExecContext* ctx, Table* table, std::string table_name,
                 std::string qualifier, std::vector<std::string> ann_names,
                 bool attach_metadata, const SequenceIndex* index,
                 Probe probe, std::string predicate_text)
      : ScanNodeBase(ctx, table, std::move(table_name), std::move(qualifier),
                     std::move(ann_names), attach_metadata),
        index_(index),
        probe_(std::move(probe)),
        predicate_text_(std::move(predicate_text)) {}

  std::string Describe() const override;

 protected:
  Result<std::vector<RowId>> CollectCandidates() override;
  bool RecheckVisible(const Row& row) const override;

 private:
  const SequenceIndex* index_;
  Probe probe_;
  std::string predicate_text_;
};

// SP-GiST trie regular-expression search (`col MATCHES '<regex>'`, and
// LIKE patterns with a leading wildcard rewritten to a regex): descends
// the trie advancing the NFA state set edge by edge, pruning subtrees
// whose state set goes dead. Candidates come back unordered supersets of
// nothing — every candidate's indexed key matched — but retained versions
// can still surface stale entries, so the visible cell is re-matched.
class SpgistRegexScanNode : public ScanNodeBase {
 public:
  SpgistRegexScanNode(const ExecContext* ctx, Table* table,
                      std::string table_name, std::string qualifier,
                      std::vector<std::string> ann_names, bool attach_metadata,
                      const SequenceIndex* index, RegexProgram program,
                      std::string predicate_text)
      : ScanNodeBase(ctx, table, std::move(table_name), std::move(qualifier),
                     std::move(ann_names), attach_metadata),
        index_(index),
        program_(std::move(program)),
        predicate_text_(std::move(predicate_text)) {}

  std::string Describe() const override;

 protected:
  Result<std::vector<RowId>> CollectCandidates() override;
  bool RecheckVisible(const Row& row) const override;

 private:
  const SequenceIndex* index_;
  RegexProgram program_;
  std::string predicate_text_;
};

// Top-k nearest-sequence scan (`ORDER BY DISTANCE(col, 'seq') LIMIT k`):
// best-first trie traversal ordered by a Levenshtein lower bound, stopping
// once k rows (plus ties at the k-th distance) are proven closest.
// Candidates stream in (distance, RowId) order — NOT RowId order — and
// visibility is resolved inside the traversal so stale index entries can
// never underfill k; RecheckVisible therefore accepts everything.
class SpgistTopKScanNode : public ScanNodeBase {
 public:
  SpgistTopKScanNode(const ExecContext* ctx, Table* table,
                     std::string table_name, std::string qualifier,
                     std::vector<std::string> ann_names, bool attach_metadata,
                     const SequenceIndex* index, std::string target, size_t k,
                     std::string predicate_text)
      : ScanNodeBase(ctx, table, std::move(table_name), std::move(qualifier),
                     std::move(ann_names), attach_metadata),
        index_(index),
        target_(std::move(target)),
        k_(k),
        predicate_text_(std::move(predicate_text)) {}

  std::string Describe() const override;

 protected:
  Result<std::vector<RowId>> CollectCandidates() override;
  bool RecheckVisible(const Row& /*row*/) const override { return true; }

 private:
  const SequenceIndex* index_;
  std::string target_;
  size_t k_;
  std::string predicate_text_;
};

// Smith–Waterman similarity threshold (`ALIGN(col, 'seq') >= s`): the trie
// shares the alignment DP across common prefixes and deduplicates repeated
// sequences, then the scan re-scores the visible cell (snapshot staleness).
class SpgistAlignScanNode : public ScanNodeBase {
 public:
  SpgistAlignScanNode(const ExecContext* ctx, Table* table,
                      std::string table_name, std::string qualifier,
                      std::vector<std::string> ann_names, bool attach_metadata,
                      const SequenceIndex* index, std::string query,
                      int min_score, bool strict, std::string predicate_text)
      : ScanNodeBase(ctx, table, std::move(table_name), std::move(qualifier),
                     std::move(ann_names), attach_metadata),
        index_(index),
        query_(std::move(query)),
        min_score_(min_score),
        strict_(strict),
        predicate_text_(std::move(predicate_text)) {}

  std::string Describe() const override;

 protected:
  Result<std::vector<RowId>> CollectCandidates() override;
  bool RecheckVisible(const Row& row) const override;

 private:
  const SequenceIndex* index_;
  std::string query_;
  int min_score_;
  bool strict_;
  std::string predicate_text_;
};

// AWHERE pushdown: scans only the row intervals covered by live regions of
// the attached annotation tables (via the annotation interval structures
// and Table row-range access) plus rows holding outdated cells — the only
// rows that can carry an annotation for AWHERE to match.
class AnnIntervalScanNode : public ScanNodeBase {
 public:
  AnnIntervalScanNode(const ExecContext* ctx, Table* table,
                      std::string table_name, std::string qualifier,
                      std::vector<std::string> ann_names)
      : ScanNodeBase(ctx, table, std::move(table_name), std::move(qualifier),
                     std::move(ann_names), /*attach_metadata=*/true) {}

  std::string Describe() const override;

 protected:
  Result<std::vector<RowId>> CollectCandidates() override;
};

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

// WHERE: value predicates (an implicit conjunction, evaluated in order
// with short-circuiting); passing tuples keep all their annotations.
class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr child, std::vector<const Expr*> predicates);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  std::vector<const Expr*> predicates_;
};

// AWHERE: a tuple passes iff one of its annotations satisfies the
// condition (the tuple keeps all annotations).
class AWhereNode : public PlanNode {
 public:
  AWhereNode(PlanNodePtr child, const Expr* condition);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  const Expr* condition_;
};

// FILTER: all tuples pass; annotations not satisfying the condition drop.
class AnnotFilterNode : public PlanNode {
 public:
  AnnotFilterNode(PlanNodePtr child, const Expr* condition);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  const Expr* condition_;
};

// PROMOTE: copies the annotations of source input columns onto the target
// input column before projection (paper §3.4).
class PromoteNode : public PlanNode {
 public:
  // Each mapping: (target column index, source column indices).
  using Mapping = std::pair<size_t, std::vector<size_t>>;

  PromoteNode(PlanNodePtr child, std::vector<Mapping> mappings);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  std::vector<Mapping> mappings_;
};

// Projection: direct columns carry their annotations; computed expressions
// start with none (plus any inline PROMOTE sources).
class ProjectNode : public PlanNode {
 public:
  struct Item {
    bool is_direct = false;
    size_t direct_index = 0;   // valid when is_direct
    const Expr* expr = nullptr;  // valid when !is_direct
    std::string name;
    // Inline PROMOTE sources (computed items, or direct items the planner
    // could not route through a PromoteNode).
    std::vector<size_t> promote_sources;
    // Output qualifier; nonempty only for the column-order-restoring
    // projection over a reordered join, where qualified references must
    // keep binding above the node.
    std::string qualifier;
  };

  ProjectNode(PlanNodePtr child, std::vector<Item> items);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  std::vector<Item> items_;
};

// GROUP BY + aggregates (+ HAVING/AHAVING) in one pipeline-breaking node.
// Groups hash on the encoded key columns; output order is first-seen, and
// each output column unions the annotations of the column it aggregates
// over across the group (§3.4).
class HashAggregateNode : public PlanNode {
 public:
  HashAggregateNode(PlanNodePtr child, const SelectStmt* stmt,
                    std::vector<size_t> key_columns,
                    std::vector<std::string> column_names);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  const SelectStmt* stmt_;
  std::vector<size_t> key_columns_;
  std::vector<PlanTuple> results_;
  size_t pos_ = 0;
};

// DISTINCT: duplicate elimination unioning annotations (§3.4).
class DistinctNode : public PlanNode {
 public:
  explicit DistinctNode(PlanNodePtr child);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  std::vector<PlanTuple> results_;
  size_t pos_ = 0;
};

// ORDER BY: stable sort on pre-bound key columns or scalar expressions
// (e.g. ORDER BY DISTANCE(Seq, 'ACGT')). Expression keys are evaluated
// once per tuple before sorting.
class SortNode : public PlanNode {
 public:
  struct Key {
    size_t column = 0;           // valid iff expr == nullptr
    const Expr* expr = nullptr;  // owned by the statement, outlives the plan
    bool descending = false;
  };

  SortNode(PlanNodePtr child, std::vector<Key> keys);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  std::vector<Key> keys_;
  std::vector<PlanTuple> results_;
  size_t pos_ = 0;
};

// LIMIT n.
class LimitNode : public PlanNode {
 public:
  LimitNode(PlanNodePtr child, uint64_t limit);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr child_;
  uint64_t limit_;
  uint64_t produced_ = 0;
};

// Cartesian product: materializes the right (build) side once, streams the
// left side. Join predicates live in a FilterNode above (or are pushed
// below the join by the planner when they touch one side only).
class NestedLoopJoinNode : public PlanNode {
 public:
  NestedLoopJoinNode(PlanNodePtr left, PlanNodePtr right);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  PlanNodePtr left_;
  PlanNodePtr right_;
  std::vector<PlanTuple> right_tuples_;
  PlanTuple current_left_;
  bool have_left_ = false;
  size_t right_pos_ = 0;
};

// Equi-join: materializes and hashes the right (build) side on the join
// key columns, then streams the left (probe) side. Key equality is
// verified with Value::Compare after the hash probe, so results match the
// NestedLoopJoin + Filter pipeline exactly (NULL keys never join, mixed
// int/double keys compare numerically). Output tuples concatenate both
// sides' values and per-column annotations, like NestedLoopJoin.
class HashJoinNode : public PlanNode {
 public:
  // `keys`: (left column index, right column index) pairs joined by
  // equality. `predicate_text` labels the node in EXPLAIN.
  HashJoinNode(PlanNodePtr left, PlanNodePtr right,
               std::vector<std::pair<size_t, size_t>> keys,
               std::string predicate_text);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  // Canonical hash key of the tuple's `cols` values (numerics normalized
  // to double so int 1 and double 1.0 land in the same bucket); false
  // when any key value is NULL (the tuple cannot join).
  static bool EncodeKey(const PlanTuple& tuple,
                        const std::vector<size_t>& cols, std::string* out);

  PlanNodePtr left_;
  PlanNodePtr right_;
  std::vector<std::pair<size_t, size_t>> keys_;
  std::string predicate_text_;
  std::vector<size_t> left_cols_;   // keys_, split per side
  std::vector<size_t> right_cols_;
  std::unordered_map<std::string, std::vector<PlanTuple>> build_;
  PlanTuple current_left_;
  const std::vector<PlanTuple>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;
  bool have_left_ = false;
};

// UNION / INTERSECT / EXCEPT with annotation union on value-equal tuples
// (§3.4). Materializes both inputs.
class SetOpNode : public PlanNode {
 public:
  SetOpNode(SetOpKind kind, PlanNodePtr left, PlanNodePtr right);

  Status Open() override;
  Result<bool> Next(PlanTuple* out) override;
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override;

 private:
  SetOpKind kind_;
  PlanNodePtr left_;
  PlanNodePtr right_;
  std::vector<PlanTuple> results_;
  size_t pos_ = 0;
};

}  // namespace bdbms

#endif  // BDBMS_PLAN_OPERATOR_H_
