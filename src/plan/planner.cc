#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "plan/cost_model.h"
#include "plan/expr_eval.h"
#include "sql/ast_printer.h"

namespace bdbms {

namespace {

// Splits an AND tree into its conjuncts.
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

void CollectColumnRefs(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef) out->push_back(e);
  CollectColumnRefs(e->left.get(), out);
  CollectColumnRefs(e->right.get(), out);
  CollectColumnRefs(e->child.get(), out);
}

// Coerces a probe literal to the indexed column's type; empty when the
// comparison cannot be routed through the index.
std::optional<Value> CoerceProbe(const Value& literal, DataType column_type) {
  if (literal.is_null()) return std::nullopt;
  if (literal.type() == DataType::kDouble && column_type == DataType::kInt) {
    // Guard the int64 cast inside CoerceTo against overflow.
    double d = literal.as_double();
    if (d < -9.2e18 || d > 9.2e18) return std::nullopt;
  }
  auto coerced = literal.CoerceTo(column_type);
  if (!coerced.ok()) return std::nullopt;
  return *coerced;
}

// One comparison conjunct normalized to `column <op> value`.
struct ColumnComparison {
  size_t column = 0;
  BinOp op = BinOp::kEq;
  Value value;
  const Expr* conjunct = nullptr;
};

// One `column LIKE 'prefix...'` conjunct whose pattern starts with a
// literal prefix, foldable into a ScanPrefix probe. When the pattern is
// exactly `prefix%` the probe subsumes the predicate (`exact_tail`);
// otherwise the probe is a superset and the conjunct stays as a residual
// filter.
struct LikeComparison {
  size_t column = 0;
  std::string prefix;
  bool exact_tail = false;
  const Expr* conjunct = nullptr;
};

// The access path the planner settled on for one scan, plus its
// estimates: a B+-tree probe (`index`, possibly index-only) or an SP-GiST
// sequence-index probe (`seq_index`).
struct AccessChoice {
  const SecondaryIndex* index = nullptr;
  IndexProbe probe;
  bool index_only = false;
  const SequenceIndex* seq_index = nullptr;
  // Which trie descent `seq_index` performs: a prefix/exact probe
  // (SpgistScan), an NFA-guided regex search (SpgistRegexScan), or a
  // Smith–Waterman threshold search (SpgistAlignScan).
  enum class SeqKind { kProbe, kRegex, kAlign };
  SeqKind seq_kind = SeqKind::kProbe;
  SpgistScanNode::Probe seq_probe;
  std::optional<RegexProgram> seq_regex;
  std::string align_query;
  int align_min = 0;
  bool align_strict = false;
  std::string predicate_text;
  std::vector<const Expr*> consumed;
  double selectivity = 1.0;  // of the consumed conjuncts
  double plan_cost = 0.0;    // scan + residual-filter cost, for ranking
};

BinOp FlipComparison(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

// Extracts `col <op> literal` (either operand order) from a conjunct.
std::optional<ColumnComparison> MatchComparison(
    const Expr* e, const std::vector<BoundColumn>& scan_columns,
    const TableSchema& schema) {
  if (e->kind != ExprKind::kBinary) return std::nullopt;
  switch (e->bin_op) {
    case BinOp::kEq:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      break;
    default:
      return std::nullopt;
  }
  const Expr* col = e->left.get();
  const Expr* lit = e->right.get();
  BinOp op = e->bin_op;
  if (col->kind != ExprKind::kColumnRef) {
    std::swap(col, lit);
    op = FlipComparison(op);
  }
  if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral) {
    return std::nullopt;
  }
  auto bound = BindColumn(scan_columns, col->qualifier, col->column);
  if (!bound.ok()) return std::nullopt;
  std::optional<Value> probe =
      CoerceProbe(lit->literal, schema.column(*bound).type);
  if (!probe.has_value()) return std::nullopt;
  return ColumnComparison{*bound, op, std::move(*probe), e};
}

const ColumnStats* ColumnStatsOf(const TableStats* stats, size_t column) {
  if (stats == nullptr || column >= stats->columns.size()) return nullptr;
  return &stats->columns[column];
}

// Extracts `col LIKE 'prefix...'` from a conjunct: the column must be
// string-typed, the pattern a string literal with a nonempty literal
// prefix before the first wildcard.
std::optional<LikeComparison> MatchLikePrefix(
    const Expr* e, const std::vector<BoundColumn>& scan_columns,
    const TableSchema& schema) {
  if (e->kind != ExprKind::kBinary || e->bin_op != BinOp::kLike) {
    return std::nullopt;
  }
  const Expr* col = e->left.get();
  const Expr* lit = e->right.get();
  if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral ||
      !lit->literal.is_string()) {
    return std::nullopt;
  }
  auto bound = BindColumn(scan_columns, col->qualifier, col->column);
  if (!bound.ok()) return std::nullopt;
  DataType type = schema.column(*bound).type;
  if (type != DataType::kText && type != DataType::kSequence) {
    return std::nullopt;
  }
  const std::string& pattern = lit->literal.as_string();
  size_t wild = pattern.find_first_of("%_");
  if (wild == 0) return std::nullopt;  // leading wildcard: nothing to probe
  LikeComparison like;
  like.column = *bound;
  like.prefix =
      wild == std::string::npos ? pattern : pattern.substr(0, wild);
  like.exact_tail =
      wild != std::string::npos && wild + 1 == pattern.size() &&
      pattern[wild] == '%';
  like.conjunct = e;
  return like;
}

// A conjunct usable as an NFA-guided trie search: `col MATCHES '<regex>'`,
// or a LIKE pattern with a leading wildcard (nothing to prefix-probe)
// rewritten into the regex dialect.
struct RegexComparison {
  size_t column = 0;
  RegexProgram program;
  const Expr* conjunct = nullptr;
};

// Rewrites a LIKE pattern into the trie regex dialect: `%` → `.*`,
// `_` → `.`, regex metacharacters escaped.
std::string LikePatternToRegex(const std::string& pattern) {
  std::string out;
  for (char c : pattern) {
    if (c == '%') {
      out += ".*";
    } else if (c == '_') {
      out += '.';
    } else {
      if (std::string_view(".[]*+?\\").find(c) != std::string_view::npos) {
        out += '\\';
      }
      out += c;
    }
  }
  return out;
}

// Extracts a regex search from a conjunct. A malformed MATCHES pattern is
// not a candidate — the conjunct stays a residual filter, whose evaluation
// reports the same compile error.
std::optional<RegexComparison> MatchRegexSearch(
    const Expr* e, const std::vector<BoundColumn>& scan_columns,
    const TableSchema& schema) {
  if (e->kind != ExprKind::kBinary) return std::nullopt;
  const Expr* col = e->left.get();
  const Expr* lit = e->right.get();
  if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral ||
      !lit->literal.is_string()) {
    return std::nullopt;
  }
  std::string pattern;
  if (e->bin_op == BinOp::kMatches) {
    pattern = lit->literal.as_string();
  } else if (e->bin_op == BinOp::kLike) {
    // Patterns with a literal prefix take the cheaper prefix descent
    // (MatchLikePrefix); the regex path covers the leading-wildcard rest.
    const std::string& p = lit->literal.as_string();
    if (p.empty() || (p[0] != '%' && p[0] != '_')) return std::nullopt;
    pattern = LikePatternToRegex(p);
  } else {
    return std::nullopt;
  }
  auto bound = BindColumn(scan_columns, col->qualifier, col->column);
  if (!bound.ok()) return std::nullopt;
  DataType type = schema.column(*bound).type;
  if (type != DataType::kText && type != DataType::kSequence) {
    return std::nullopt;
  }
  auto program = RegexProgram::Compile(pattern);
  if (!program.ok()) return std::nullopt;
  return RegexComparison{*bound, std::move(*program), e};
}

// `ALIGN(col, 'seq') >= n` (or > n, either operand order): a local-
// alignment score lower bound, answerable by the trie's shared-prefix
// Smith–Waterman descent. Upper bounds keep nothing prunable and stay
// residual filters.
struct AlignComparison {
  size_t column = 0;
  std::string query;
  int min_score = 0;
  bool strict = false;  // true for >, false for >=
  const Expr* conjunct = nullptr;
};

std::optional<AlignComparison> MatchAlignThreshold(
    const Expr* e, const std::vector<BoundColumn>& scan_columns,
    const TableSchema& schema) {
  if (e->kind != ExprKind::kBinary) return std::nullopt;
  BinOp op = e->bin_op;
  const Expr* fn = e->left.get();
  const Expr* lit = e->right.get();
  if (fn->kind != ExprKind::kFunction) {
    std::swap(fn, lit);
    op = FlipComparison(op);
  }
  if (fn->kind != ExprKind::kFunction || fn->scalar_fn != ScalarFn::kAlign) {
    return std::nullopt;
  }
  if (op != BinOp::kGe && op != BinOp::kGt) return std::nullopt;
  if (lit->kind != ExprKind::kLiteral ||
      lit->literal.type() != DataType::kInt) {
    return std::nullopt;
  }
  const Expr* col = fn->left.get();
  const Expr* query = fn->right.get();
  if (col->kind != ExprKind::kColumnRef ||
      query->kind != ExprKind::kLiteral || !query->literal.is_string()) {
    return std::nullopt;
  }
  auto bound = BindColumn(scan_columns, col->qualifier, col->column);
  if (!bound.ok()) return std::nullopt;
  DataType type = schema.column(*bound).type;
  if (type != DataType::kText && type != DataType::kSequence) {
    return std::nullopt;
  }
  return AlignComparison{*bound, query->literal.as_string(),
                         static_cast<int>(lit->literal.as_int()),
                         op == BinOp::kGt, e};
}

// Enumerates candidate access paths over the pushed conjuncts, costs each
// alternative as scan + residual filter, and keeps the cheapest —
// returning nullopt when the sequential scan wins or no candidate exists.
//
// Per B+-tree index (composite or not): equality conjuncts are matched to
// the leading key columns; the first key column without an equality may
// take the folded range bounds on it (tightest per side) or one LIKE
// prefix instead. When `covering_columns` is given and the index's key
// columns contain all of them, the candidate becomes an *index-only* scan
// (answered from the keys, no base-table fetches) — even with no probe at
// all, where it competes as a cheaper full pass over the index.
//
// Per SP-GiST sequence index: a LIKE-prefix or string-equality conjunct
// on the indexed column becomes a trie descent (SpgistScan).
std::optional<AccessChoice> ChooseAccessPath(
    const Table& table, const std::vector<BoundColumn>& scan_columns,
    const std::vector<const Expr*>& conjuncts, const TableStats* stats,
    double table_rows, const std::vector<size_t>* covering_columns) {
  std::vector<ColumnComparison> comparisons;
  std::vector<LikeComparison> likes;
  std::vector<RegexComparison> regexes;
  std::vector<AlignComparison> aligns;
  for (const Expr* e : conjuncts) {
    if (auto cmp = MatchComparison(e, scan_columns, table.schema())) {
      comparisons.push_back(std::move(*cmp));
    } else if (auto like = MatchLikePrefix(e, scan_columns,
                                           table.schema())) {
      likes.push_back(std::move(*like));
    } else if (auto re = MatchRegexSearch(e, scan_columns, table.schema())) {
      regexes.push_back(std::move(*re));
    } else if (auto al = MatchAlignThreshold(e, scan_columns,
                                             table.schema())) {
      aligns.push_back(std::move(*al));
    }
  }
  std::vector<AccessChoice> candidates;
  for (const auto& owned : table.indexes()) {
    const SecondaryIndex* index = owned.get();
    AccessChoice choice;
    choice.index = index;
    double sel = 1.0;
    auto add_text = [&choice](const Expr* e) {
      if (!choice.predicate_text.empty()) choice.predicate_text += " AND ";
      choice.predicate_text += ExprToString(*e);
    };
    // Leading-prefix equalities, one per key column until the chain breaks.
    size_t depth = 0;
    for (; depth < index->columns().size(); ++depth) {
      size_t col = index->columns()[depth];
      const ColumnComparison* eq = nullptr;
      for (const ColumnComparison& cmp : comparisons) {
        if (cmp.column == col && cmp.op == BinOp::kEq) {
          eq = &cmp;
          break;
        }
      }
      if (eq == nullptr) break;
      choice.probe.eq.push_back(eq->value);
      choice.consumed.push_back(eq->conjunct);
      add_text(eq->conjunct);
      sel *= EqSelectivity(ColumnStatsOf(stats, col), eq->value);
    }
    // One trailing constraint on the next key column: folded range bounds,
    // or a LIKE prefix when no range applies.
    if (depth < index->columns().size()) {
      size_t col = index->columns()[depth];
      bool ranged = false;
      for (const ColumnComparison& cmp : comparisons) {
        if (cmp.column != col || cmp.op == BinOp::kEq) continue;
        ranged = true;
        bool is_lower = cmp.op == BinOp::kGt || cmp.op == BinOp::kGe;
        bool inclusive = cmp.op == BinOp::kGe || cmp.op == BinOp::kLe;
        std::optional<IndexBound>& slot =
            is_lower ? choice.probe.lo : choice.probe.hi;
        IndexBound bound{cmp.value, inclusive};
        if (!slot.has_value()) {
          slot = std::move(bound);
        } else {
          // Keep the tighter bound; on equal values exclusive is tighter.
          int c = bound.value.Compare(slot->value);
          bool tighter = is_lower ? c > 0 : c < 0;
          if (c == 0 && !bound.inclusive) tighter = true;
          if (tighter) slot = std::move(bound);
        }
        add_text(cmp.conjunct);
        choice.consumed.push_back(cmp.conjunct);
      }
      if (ranged) {
        sel *= RangeSelectivity(ColumnStatsOf(stats, col), choice.probe.lo,
                                choice.probe.hi);
      } else {
        for (const LikeComparison& like : likes) {
          if (like.column != col) continue;
          choice.probe.like_prefix = like.prefix;
          add_text(like.conjunct);
          // A pure `prefix%` pattern is subsumed by the probe; any other
          // pattern keeps the conjunct as a residual filter over the
          // probe's superset.
          if (like.exact_tail) choice.consumed.push_back(like.conjunct);
          sel *= cost::kDefaultLike;
          break;
        }
      }
    }
    bool has_probe = !choice.probe.eq.empty() ||
                     choice.probe.lo.has_value() ||
                     choice.probe.hi.has_value() ||
                     choice.probe.like_prefix.has_value();
    bool covering = covering_columns != nullptr;
    if (covering) {
      for (size_t need : *covering_columns) {
        if (std::count(index->columns().begin(), index->columns().end(),
                       need) == 0) {
          covering = false;
          break;
        }
      }
    }
    if (!has_probe && !covering) continue;
    choice.index_only = covering;
    choice.selectivity = has_probe ? sel : 1.0;
    candidates.push_back(std::move(choice));
  }
  for (const auto& owned : table.sequence_indexes()) {
    const SequenceIndex* index = owned.get();
    size_t col = index->column();
    AccessChoice choice;
    choice.seq_index = index;
    bool built = false;
    for (const LikeComparison& like : likes) {
      if (like.column != col) continue;
      choice.seq_probe = {/*exact=*/false, like.prefix};
      choice.predicate_text = ExprToString(*like.conjunct);
      if (like.exact_tail) choice.consumed.push_back(like.conjunct);
      choice.selectivity = cost::kDefaultLike;
      built = true;
      break;
    }
    if (!built) {
      for (const ColumnComparison& cmp : comparisons) {
        if (cmp.column != col || cmp.op != BinOp::kEq ||
            !cmp.value.is_string()) {
          continue;
        }
        choice.seq_probe = {/*exact=*/true, cmp.value.as_string()};
        choice.predicate_text = ExprToString(*cmp.conjunct);
        choice.consumed.push_back(cmp.conjunct);
        choice.selectivity =
            EqSelectivity(ColumnStatsOf(stats, col), cmp.value);
        built = true;
        break;
      }
    }
    if (!built) {
      // NFA-guided regex descent: the trie prunes every subtree whose
      // state set goes dead, and each candidate's key fully matched, so
      // the conjunct is consumed (snapshot staleness is re-checked by the
      // scan against the visible cell).
      for (const RegexComparison& re : regexes) {
        if (re.column != col) continue;
        choice.seq_kind = AccessChoice::SeqKind::kRegex;
        choice.seq_regex = re.program;
        choice.predicate_text = ExprToString(*re.conjunct);
        choice.consumed.push_back(re.conjunct);
        choice.selectivity = cost::kDefaultRegex;
        built = true;
        break;
      }
    }
    if (!built) {
      for (const AlignComparison& al : aligns) {
        if (al.column != col) continue;
        choice.seq_kind = AccessChoice::SeqKind::kAlign;
        choice.align_query = al.query;
        choice.align_min = al.min_score;
        choice.align_strict = al.strict;
        choice.predicate_text = ExprToString(*al.conjunct);
        choice.consumed.push_back(al.conjunct);
        choice.selectivity = cost::kDefaultAlign;
        built = true;
        break;
      }
    }
    if (!built) continue;
    candidates.push_back(std::move(choice));
  }
  if (candidates.empty()) return std::nullopt;

  // Rank full scan alternatives: access cost plus filtering whatever the
  // probe did not consume (each alternative filters a different residue).
  // Ties keep the earliest candidate, so B+-tree probes win over an
  // equally priced trie descent.
  double total = static_cast<double>(conjuncts.size());
  double seq_cost =
      SeqScanCost(table_rows) + table_rows * cost::kFilterTuple * total;
  std::optional<AccessChoice> best;
  for (AccessChoice& choice : candidates) {
    double match = table_rows * choice.selectivity;
    double residual =
        total - static_cast<double>(choice.consumed.size());
    double access = choice.index_only
                        ? IndexOnlyScanCost(table_rows, match)
                        : IndexScanCost(table_rows, match);
    choice.plan_cost = access + match * cost::kFilterTuple * residual;
    if (choice.plan_cost >= seq_cost) continue;
    if (!best.has_value() || choice.plan_cost < best->plan_cost) {
      best = std::move(choice);
    }
  }
  return best;
}

// Collects the indices (within `columns`) of every column the statement
// could read from its single scan's tuples; false when coverage cannot be
// established (an unknown column disables the index-only path — the
// binding error, if any, surfaces identically either way).
bool ComputeRequiredColumns(const SelectStmt& stmt,
                            const std::vector<BoundColumn>& columns,
                            std::vector<size_t>* out) {
  std::set<size_t> needed;
  auto add_all = [&] {
    for (size_t i = 0; i < columns.size(); ++i) needed.insert(i);
  };
  std::vector<const Expr*> refs;
  if (stmt.star) {
    add_all();
  } else {
    for (const SelectItem& item : stmt.items) {
      CollectColumnRefs(item.expr.get(), &refs);
      for (const std::string& col : item.promote_columns) {
        auto bound = BindColumn(columns, "", col);
        if (!bound.ok()) return false;
        needed.insert(*bound);
      }
    }
  }
  CollectColumnRefs(stmt.where.get(), &refs);
  CollectColumnRefs(stmt.having.get(), &refs);
  for (const Expr* ref : refs) {
    if (ref->column == "*") {  // qualifier.* projection
      add_all();
      continue;
    }
    auto bound = BindColumn(columns, ref->qualifier, ref->column);
    if (!bound.ok()) return false;
    needed.insert(*bound);
  }
  for (const std::string& col : stmt.group_by) {
    auto bound = BindColumn(columns, "", col);
    if (!bound.ok()) return false;
    needed.insert(*bound);
  }
  // ORDER BY binds against the projected output; a name that also binds
  // here is a base column flowing through (include it), anything else is
  // a projection alias the scan need not cover. Expression keys read
  // whatever columns they reference.
  for (const OrderKey& key : stmt.order_by) {
    if (key.expr) {
      std::vector<const Expr*> key_refs;
      CollectColumnRefs(key.expr.get(), &key_refs);
      for (const Expr* ref : key_refs) {
        auto bound = BindColumn(columns, ref->qualifier, ref->column);
        if (!bound.ok()) return false;
        needed.insert(*bound);
      }
      continue;
    }
    auto bound = BindColumn(columns, "", key.column);
    if (bound.ok()) needed.insert(*bound);
  }
  out->assign(needed.begin(), needed.end());
  return true;
}

// Appends a Filter node for the given conjuncts (no-op when empty),
// estimating its output with the conjuncts' combined selectivity.
PlanNodePtr WrapFilter(PlanNodePtr plan, std::vector<const Expr*> conjuncts,
                       const StatsResolver& resolver) {
  if (conjuncts.empty()) return plan;
  double sel = 1.0;
  for (const Expr* e : conjuncts) {
    sel *= EstimateConjunctSelectivity(*e, resolver);
  }
  double child_rows = plan->est_rows();
  double child_cost = plan->est_cost();
  double npred = static_cast<double>(conjuncts.size());
  auto filter =
      std::make_unique<FilterNode>(std::move(plan), std::move(conjuncts));
  filter->SetEstimate(ClampRows(child_rows * sel, child_rows),
                      child_cost + child_rows * cost::kFilterTuple * npred);
  return filter;
}

// Output column name of a select item in the aggregate pipeline.
std::string AggregateItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  return item.expr->kind == ExprKind::kColumnRef ? item.expr->column : "expr";
}

// An equi-join conjunct `a.col = b.col` between two distinct FROM entries,
// enforceable as a HashJoin key.
struct JoinPred {
  const Expr* expr = nullptr;
  size_t scan[2] = {0, 0};      // FROM indices of the two sides
  size_t local_col[2] = {0, 0};  // column index within each side's scan
  bool used = false;
};

}  // namespace

Result<PlanNodePtr> Planner::BuildScan(
    const TableRef& ref, std::vector<const Expr*> conjuncts,
    bool attach_metadata, bool try_ann_interval,
    const std::vector<size_t>* covering_columns) {
  if (!ctx_->catalog->HasTable(ref.table)) {
    return Status::NotFound("no table " + ref.table);
  }
  if (attach_metadata) {
    BDBMS_RETURN_IF_ERROR(
        ctx_->access->Check(user_, ref.table, Privilege::kSelect));
  }
  BDBMS_ASSIGN_OR_RETURN(Table * table, ctx_->tables(ref.table));

  std::vector<std::string> ann_names = ref.annotation_tables;
  if (ref.all_annotations) ann_names = ctx_->annotations->ListFor(ref.table);
  for (const std::string& a : ann_names) {
    if (!ctx_->catalog->HasAnnotationTable(ref.table, a)) {
      return Status::NotFound("no annotation table " + a + " on " + ref.table);
    }
  }

  std::string qualifier = ref.alias.empty() ? ref.table : ref.alias;
  std::vector<BoundColumn> scan_columns =
      QualifiedColumns(table->schema(), qualifier);

  // Planning cardinality: the ANALYZE snapshot when one exists (stale
  // until the next ANALYZE), else the live row count.
  const TableStats* stats = ctx_->catalog->GetStats(ref.table);
  double table_rows = stats != nullptr
                          ? static_cast<double>(stats->row_count)
                          : static_cast<double>(table->row_count());

  // Index-only scans answer from index keys alone; requesting annotation
  // propagation means fetching base rows anyway, so the path is off.
  if (!ann_names.empty()) covering_columns = nullptr;
  std::optional<AccessChoice> choice = ChooseAccessPath(
      *table, scan_columns, conjuncts, stats, table_rows, covering_columns);
  // A covering scan without any probe still reads every index entry; for
  // an AWHERE query the annotation-interval scan visits only the (often
  // far fewer) potentially annotated rows, so the probe-less pass must
  // not displace it.
  if (choice.has_value() && try_ann_interval && attach_metadata &&
      choice->seq_index == nullptr && choice->probe.eq.empty() &&
      !choice->probe.lo.has_value() && !choice->probe.hi.has_value() &&
      !choice->probe.like_prefix.has_value()) {
    choice.reset();
  }
  PlanNodePtr scan;
  if (choice.has_value()) {
    // Drop the conjuncts the probe consumed; the rest filter above.
    std::vector<const Expr*> residual;
    for (const Expr* e : conjuncts) {
      bool consumed = false;
      for (const Expr* c : choice->consumed) consumed |= c == e;
      if (!consumed) residual.push_back(e);
    }
    conjuncts = std::move(residual);
    double match = table_rows * choice->selectivity;
    if (choice->seq_index != nullptr) {
      switch (choice->seq_kind) {
        case AccessChoice::SeqKind::kProbe:
          scan = std::make_unique<SpgistScanNode>(
              ctx_, table, ref.table, qualifier, std::move(ann_names),
              attach_metadata, choice->seq_index,
              std::move(choice->seq_probe),
              std::move(choice->predicate_text));
          break;
        case AccessChoice::SeqKind::kRegex:
          scan = std::make_unique<SpgistRegexScanNode>(
              ctx_, table, ref.table, qualifier, std::move(ann_names),
              attach_metadata, choice->seq_index,
              std::move(*choice->seq_regex),
              std::move(choice->predicate_text));
          break;
        case AccessChoice::SeqKind::kAlign:
          scan = std::make_unique<SpgistAlignScanNode>(
              ctx_, table, ref.table, qualifier, std::move(ann_names),
              attach_metadata, choice->seq_index,
              std::move(choice->align_query), choice->align_min,
              choice->align_strict, std::move(choice->predicate_text));
          break;
      }
      scan->SetEstimate(ClampRows(match, table_rows),
                        IndexScanCost(table_rows, match));
    } else if (choice->index_only) {
      scan = std::make_unique<IndexOnlyScanNode>(
          ctx_, table, ref.table, qualifier, attach_metadata, choice->index,
          std::move(choice->probe), std::move(choice->predicate_text));
      scan->SetEstimate(ClampRows(match, table_rows),
                        IndexOnlyScanCost(table_rows, match));
    } else {
      scan = std::make_unique<IndexScanNode>(
          ctx_, table, ref.table, qualifier, std::move(ann_names),
          attach_metadata, choice->index, std::move(choice->probe),
          std::move(choice->predicate_text));
      scan->SetEstimate(ClampRows(match, table_rows),
                        IndexScanCost(table_rows, match));
    }
  } else if (try_ann_interval && attach_metadata) {
    scan = std::make_unique<AnnIntervalScanNode>(ctx_, table, ref.table,
                                                 qualifier,
                                                 std::move(ann_names));
    double rows =
        ClampRows(table_rows * cost::kAnnIntervalFraction, table_rows);
    scan->SetEstimate(rows, SeqScanCost(rows));
  } else {
    scan = std::make_unique<SeqScanNode>(ctx_, table, ref.table, qualifier,
                                         std::move(ann_names),
                                         attach_metadata);
    scan->SetEstimate(table_rows, SeqScanCost(table_rows));
  }
  StatsResolver resolver = [&](const Expr& col) -> const ColumnStats* {
    auto bound = BindColumn(scan_columns, col.qualifier, col.column);
    if (!bound.ok()) return nullptr;
    return ColumnStatsOf(stats, *bound);
  };
  return WrapFilter(std::move(scan), std::move(conjuncts), resolver);
}

Result<PlanNodePtr> Planner::PlanFromWhere(const SelectStmt& stmt,
                                           bool allow_index_only) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is empty");
  }
  size_t nscans = stmt.from.size();

  // The joined column space (FROM order), for routing conjuncts to scans
  // and resolving statistics by name above the join.
  std::vector<BoundColumn> joined;
  std::vector<const ColumnStats*> joined_stats;
  std::vector<std::pair<size_t, size_t>> scan_ranges;  // [begin, end) per scan
  std::vector<const TableStats*> table_stats(nscans, nullptr);
  for (size_t i = 0; i < nscans; ++i) {
    const TableRef& ref = stmt.from[i];
    // GetSchema doubles as the existence check (NotFound on unknown).
    BDBMS_ASSIGN_OR_RETURN(TableSchema schema,
                           ctx_->catalog->GetSchema(ref.table));
    table_stats[i] = ctx_->catalog->GetStats(ref.table);
    std::string qualifier = ref.alias.empty() ? ref.table : ref.alias;
    size_t begin = joined.size();
    size_t local = 0;
    for (BoundColumn& c : QualifiedColumns(schema, qualifier)) {
      joined.push_back(std::move(c));
      joined_stats.push_back(ColumnStatsOf(table_stats[i], local++));
    }
    scan_ranges.emplace_back(begin, joined.size());
  }

  // Route each WHERE conjunct to the single scan it touches, if any.
  // Conjuncts that do not bind cleanly (unknown or ambiguous columns, or
  // columns from several tables) stay in the residual filter, preserving
  // the executor's lazy binding-error behaviour.
  std::vector<const Expr*> conjuncts;
  if (stmt.where) SplitConjuncts(stmt.where.get(), &conjuncts);
  std::vector<std::vector<const Expr*>> pushed(nscans);
  std::vector<const Expr*> residual;
  for (const Expr* conjunct : conjuncts) {
    std::vector<const Expr*> refs;
    CollectColumnRefs(conjunct, &refs);
    size_t owner = nscans;  // sentinel: unroutable
    bool routable = !refs.empty();
    for (const Expr* ref : refs) {
      auto bound = BindColumn(joined, ref->qualifier, ref->column);
      if (!bound.ok()) {
        routable = false;
        break;
      }
      size_t scan = 0;
      while (*bound >= scan_ranges[scan].second) ++scan;
      if (owner == nscans) {
        owner = scan;
      } else if (owner != scan) {
        routable = false;
        break;
      }
    }
    if (routable && owner < nscans) {
      pushed[owner].push_back(conjunct);
    } else {
      residual.push_back(conjunct);
    }
  }

  // Lift equi-join conjuncts (`a.col = b.col` across two FROM entries)
  // out of the residual: they become HashJoin keys.
  std::vector<JoinPred> join_preds;
  if (nscans > 1) {
    std::vector<const Expr*> kept;
    for (const Expr* e : residual) {
      bool lifted = false;
      if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kEq &&
          e->left && e->left->kind == ExprKind::kColumnRef && e->right &&
          e->right->kind == ExprKind::kColumnRef) {
        auto lb = BindColumn(joined, e->left->qualifier, e->left->column);
        auto rb = BindColumn(joined, e->right->qualifier, e->right->column);
        if (lb.ok() && rb.ok()) {
          size_t ls = 0, rs = 0;
          while (*lb >= scan_ranges[ls].second) ++ls;
          while (*rb >= scan_ranges[rs].second) ++rs;
          if (ls != rs) {
            JoinPred pred;
            pred.expr = e;
            pred.scan[0] = ls;
            pred.local_col[0] = *lb - scan_ranges[ls].first;
            pred.scan[1] = rs;
            pred.local_col[1] = *rb - scan_ranges[rs].first;
            join_preds.push_back(pred);
            lifted = true;
          }
        }
      }
      if (!lifted) kept.push_back(e);
    }
    residual = std::move(kept);
  }

  // AWHERE interval pushdown only applies to a non-joined scan whose
  // candidates are exactly the potentially annotated rows.
  bool try_ann_interval = nscans == 1 && stmt.awhere != nullptr;

  // Index-only eligibility: a single-table statement whose full
  // referenced-column set is known. The join machinery reads arbitrary
  // columns across the joined space, so joins keep fetching base rows.
  std::vector<size_t> required_columns;
  bool have_required =
      allow_index_only && nscans == 1 &&
      ComputeRequiredColumns(stmt, joined, &required_columns);

  std::vector<PlanNodePtr> scans(nscans);
  std::vector<double> scan_rows(nscans, 0.0);
  std::vector<size_t> widths(nscans, 0);
  for (size_t i = 0; i < nscans; ++i) {
    BDBMS_ASSIGN_OR_RETURN(
        scans[i], BuildScan(stmt.from[i], std::move(pushed[i]),
                            /*attach_metadata=*/true, try_ann_interval,
                            have_required ? &required_columns : nullptr));
    scan_rows[i] = scans[i]->est_rows();
    widths[i] = scan_ranges[i].second - scan_ranges[i].first;
  }

  // NDV of one side of a join predicate: the ANALYZE value when present,
  // else the filtered scan cardinality (i.e. assume the key is unique).
  auto column_ndv = [&](size_t scan, size_t local) {
    const ColumnStats* cs = ColumnStatsOf(table_stats[scan], local);
    if (cs != nullptr && cs->ndv > 0) return static_cast<double>(cs->ndv);
    return std::max(scan_rows[scan], 1.0);
  };

  // Greedy join order (docs/planner.md): start from the smallest
  // estimated input, then repeatedly fold in the not-yet-joined relation
  // minimizing the estimated intermediate cardinality, preferring
  // relations reachable through an equi-join predicate so cross products
  // come last. Both join operators materialize their right input, so the
  // smaller of (accumulated plan, new relation) goes right — the build
  // side of a HashJoin — and the larger streams through as the probe.
  PlanNodePtr plan;
  std::vector<bool> in_set(nscans, false);
  std::vector<size_t> col_offset(nscans, 0);
  {
    size_t start = 0;
    for (size_t i = 1; i < nscans; ++i) {
      if (scan_rows[i] < scan_rows[start]) start = i;
    }
    plan = std::move(scans[start]);
    in_set[start] = true;
    col_offset[start] = 0;
    size_t width = widths[start];
    double cur_rows = scan_rows[start];

    for (size_t step = 1; step < nscans; ++step) {
      size_t best = nscans;
      double best_rows = std::numeric_limits<double>::infinity();
      bool best_connected = false;
      for (size_t j = 0; j < nscans; ++j) {
        if (in_set[j]) continue;
        double est = cur_rows * scan_rows[j];
        bool connected = false;
        for (const JoinPred& pred : join_preds) {
          if (pred.used) continue;
          for (int side = 0; side < 2; ++side) {
            if (pred.scan[side] != j || !in_set[pred.scan[1 - side]]) {
              continue;
            }
            connected = true;
            double ndv =
                std::max(column_ndv(pred.scan[0], pred.local_col[0]),
                         column_ndv(pred.scan[1], pred.local_col[1]));
            est /= std::max(ndv, 1.0);
          }
        }
        est = ClampRows(est, cur_rows * scan_rows[j]);
        if (best == nscans || (connected && !best_connected) ||
            (connected == best_connected && est < best_rows)) {
          best = j;
          best_rows = est;
          best_connected = connected;
        }
      }

      // Collect the predicates connecting `best` to the joined set, as
      // (column in the accumulated plan, column local to the new scan).
      std::vector<std::pair<size_t, size_t>> keys;
      std::string predicate_text;
      for (JoinPred& pred : join_preds) {
        if (pred.used) continue;
        for (int side = 0; side < 2; ++side) {
          size_t other = 1 - side;
          if (pred.scan[side] != best || !in_set[pred.scan[other]]) continue;
          keys.emplace_back(
              col_offset[pred.scan[other]] + pred.local_col[other],
              pred.local_col[side]);
          if (!predicate_text.empty()) predicate_text += " AND ";
          predicate_text += ExprToString(*pred.expr);
          pred.used = true;
          break;
        }
      }

      // Orientation: the smaller side builds (right), the larger probes.
      bool new_is_probe = scan_rows[best] > cur_rows;
      PlanNodePtr left = std::move(plan);
      PlanNodePtr right = std::move(scans[best]);
      if (new_is_probe) {
        std::swap(left, right);
        for (auto& [set_col, new_col] : keys) std::swap(set_col, new_col);
        // The output layout becomes new-scan columns ++ accumulated ones.
        for (size_t i = 0; i < nscans; ++i) {
          if (in_set[i]) col_offset[i] += widths[best];
        }
        col_offset[best] = 0;
      } else {
        col_offset[best] = width;
      }
      double build_rows = std::min(cur_rows, scan_rows[best]);
      double probe_rows = std::max(cur_rows, scan_rows[best]);
      double both_cost = left->est_cost() + right->est_cost();
      PlanNodePtr join;
      double join_cost;
      if (!keys.empty()) {
        join_cost = both_cost + build_rows * cost::kHashBuild +
                    probe_rows * cost::kHashProbe;
        join = std::make_unique<HashJoinNode>(std::move(left),
                                              std::move(right),
                                              std::move(keys),
                                              std::move(predicate_text));
      } else {
        best_rows = ClampRows(cur_rows * scan_rows[best],
                              cur_rows * scan_rows[best]);
        join_cost = both_cost +
                    cur_rows * scan_rows[best] * cost::kNlPair;
        join = std::make_unique<NestedLoopJoinNode>(std::move(left),
                                                    std::move(right));
      }
      join->SetEstimate(best_rows, join_cost);
      plan = std::move(join);
      in_set[best] = true;
      width += widths[best];
      cur_rows = best_rows;
    }
  }
  // Did the physical column layout end up differing from FROM order?
  bool order_changed = false;
  for (size_t i = 0; i < nscans; ++i) {
    if (col_offset[i] != scan_ranges[i].first) order_changed = true;
  }

  // A reordered join changes the physical column order; SELECT * exposes
  // it, so restore FROM order with a direct projection that keeps names,
  // qualifiers and annotations intact.
  if (stmt.star && order_changed && nscans > 1) {
    std::vector<ProjectNode::Item> items;
    for (size_t i = 0; i < nscans; ++i) {
      for (size_t c = 0; c < widths[i]; ++c) {
        ProjectNode::Item item;
        item.is_direct = true;
        item.direct_index = col_offset[i] + c;
        item.name = joined[scan_ranges[i].first + c].name;
        item.qualifier = joined[scan_ranges[i].first + c].qualifier;
        items.push_back(std::move(item));
      }
    }
    double rows = plan->est_rows();
    double cst = plan->est_cost() + rows * cost::kPipeTuple;
    plan = std::make_unique<ProjectNode>(std::move(plan), std::move(items));
    plan->SetEstimate(rows, cst);
  }

  StatsResolver resolver = [&](const Expr& col) -> const ColumnStats* {
    auto bound = BindColumn(joined, col.qualifier, col.column);
    return bound.ok() ? joined_stats[*bound] : nullptr;
  };
  plan = WrapFilter(std::move(plan), std::move(residual), resolver);
  if (stmt.awhere) {
    double child_rows = plan->est_rows();
    double child_cost = plan->est_cost();
    plan = std::make_unique<AWhereNode>(std::move(plan), stmt.awhere.get());
    plan->SetEstimate(ClampRows(child_rows * cost::kAnnMatchFraction,
                                child_rows),
                      child_cost + child_rows * cost::kFilterTuple);
  }
  return plan;
}

Result<PlanNodePtr> Planner::PlanTargetScan(const SelectStmt& stmt) {
  // Annotation commands address cells of the base rows; keep every scan
  // row-fetching (no index-only shortcut).
  return PlanFromWhere(stmt, /*allow_index_only=*/false);
}

Result<PlanNodePtr> Planner::PlanDmlScan(const std::string& table,
                                         const Expr* where) {
  TableRef ref;
  ref.table = table;
  std::vector<const Expr*> conjuncts;
  if (where != nullptr) SplitConjuncts(where, &conjuncts);
  // Conjuncts that do not bind against the table stay residual so binding
  // errors surface at evaluation time, exactly like the WHERE filter.
  return BuildScan(ref, std::move(conjuncts), /*attach_metadata=*/false,
                   /*try_ann_interval=*/false,
                   /*covering_columns=*/nullptr);
}

Result<PlanNodePtr> Planner::TryPlanTopKScan(const SelectStmt& stmt) {
  // Shape gate: exactly one table, no clause that would filter or regroup
  // rows after the scan (any of those would make "the k nearest index
  // entries" the wrong k), one ascending DISTANCE(col, 'literal') order
  // key, and a LIMIT to bound the traversal.
  if (stmt.from.size() != 1 || stmt.where != nullptr ||
      stmt.awhere != nullptr || stmt.filter != nullptr ||
      !stmt.group_by.empty() || stmt.having != nullptr ||
      stmt.ahaving != nullptr || stmt.distinct ||
      stmt.set_op != SetOpKind::kNone || !stmt.limit.has_value() ||
      stmt.order_by.size() != 1) {
    return PlanNodePtr();
  }
  for (const SelectItem& item : stmt.items) {
    if (item.expr->ContainsAggregate()) return PlanNodePtr();
  }
  const OrderKey& key = stmt.order_by[0];
  if (key.descending || key.expr == nullptr ||
      key.expr->kind != ExprKind::kFunction ||
      key.expr->scalar_fn != ScalarFn::kDistance) {
    return PlanNodePtr();
  }
  const Expr* col = key.expr->left.get();
  const Expr* target = key.expr->right.get();
  if (col->kind != ExprKind::kColumnRef ||
      target->kind != ExprKind::kLiteral || !target->literal.is_string()) {
    return PlanNodePtr();
  }

  const TableRef& ref = stmt.from[0];
  if (!ctx_->catalog->HasTable(ref.table)) return PlanNodePtr();
  BDBMS_ASSIGN_OR_RETURN(Table * table, ctx_->tables(ref.table));
  std::string qualifier = ref.alias.empty() ? ref.table : ref.alias;
  std::vector<BoundColumn> scan_columns =
      QualifiedColumns(table->schema(), qualifier);
  auto bound = BindColumn(scan_columns, col->qualifier, col->column);
  if (!bound.ok()) return PlanNodePtr();
  const SequenceIndex* index = nullptr;
  for (const auto& owned : table->sequence_indexes()) {
    if (owned->column() == *bound) {
      index = owned.get();
      break;
    }
  }
  if (index == nullptr) return PlanNodePtr();

  // From here the path is committed; real errors surface.
  BDBMS_RETURN_IF_ERROR(
      ctx_->access->Check(user_, ref.table, Privilege::kSelect));
  std::vector<std::string> ann_names = ref.annotation_tables;
  if (ref.all_annotations) ann_names = ctx_->annotations->ListFor(ref.table);
  for (const std::string& a : ann_names) {
    if (!ctx_->catalog->HasAnnotationTable(ref.table, a)) {
      return Status::NotFound("no annotation table " + a + " on " + ref.table);
    }
  }

  size_t k = static_cast<size_t>(*stmt.limit);
  const TableStats* stats = ctx_->catalog->GetStats(ref.table);
  double table_rows = stats != nullptr
                          ? static_cast<double>(stats->row_count)
                          : static_cast<double>(table->row_count());
  // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict overlap
  // on the inlined memcpy of a `"(" + std::string&& + ...` chain.
  std::string predicate_text = "(";
  predicate_text += ExprToString(*key.expr);
  predicate_text += " k=";
  predicate_text += std::to_string(k);
  predicate_text += ')';
  PlanNodePtr scan = std::make_unique<SpgistTopKScanNode>(
      ctx_, table, ref.table, qualifier, std::move(ann_names),
      /*attach_metadata=*/true, index, target->literal.as_string(), k,
      std::move(predicate_text));
  double rows = ClampRows(
      std::min(table_rows, static_cast<double>(k)), table_rows);
  scan->SetEstimate(rows, IndexScanCost(table_rows, rows));
  return scan;
}

Result<PlanNodePtr> Planner::PlanSelectImpl(const SelectStmt& stmt,
                                            bool as_set_rhs) {
  PlanNodePtr plan;
  bool order_consumed = false;
  if (!as_set_rhs) {
    BDBMS_ASSIGN_OR_RETURN(plan, TryPlanTopKScan(stmt));
    order_consumed = plan != nullptr;
  }
  if (plan == nullptr) {
    BDBMS_ASSIGN_OR_RETURN(plan, PlanFromWhere(stmt,
                                               /*allow_index_only=*/true));
  }

  // Estimate helper for the tuple-in/tuple-out nodes above the join.
  auto stacked = [](PlanNodePtr child, auto make, double rows,
                    double added_cost) {
    double cst = child->est_cost() + added_cost;
    PlanNodePtr node = make(std::move(child));
    node->SetEstimate(rows, cst);
    return node;
  };

  bool has_aggregates = false;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->ContainsAggregate()) has_aggregates = true;
  }

  if (!stmt.group_by.empty() || has_aggregates) {
    if (stmt.star) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with GROUP BY");
    }
    std::vector<size_t> key_columns;
    for (const std::string& col : stmt.group_by) {
      BDBMS_ASSIGN_OR_RETURN(size_t idx, BindColumn(plan->columns(), "", col));
      key_columns.push_back(idx);
    }
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      names.push_back(AggregateItemName(item));
    }
    double in_rows = plan->est_rows();
    double groups = stmt.group_by.empty()
                        ? 1.0
                        : ClampRows(in_rows * cost::kGroupFraction, in_rows);
    plan = stacked(
        std::move(plan),
        [&](PlanNodePtr c) -> PlanNodePtr {
          return std::make_unique<HashAggregateNode>(
              std::move(c), &stmt, std::move(key_columns), std::move(names));
        },
        groups, in_rows * cost::kHashBuild);
  } else if (!stmt.star) {
    // Expand qualifier.* items, resolve direct columns and PROMOTE lists.
    const std::vector<BoundColumn>& in_cols = plan->columns();
    std::vector<ProjectNode::Item> items;
    std::vector<std::vector<size_t>> promote_of_item(stmt.items.size());
    std::vector<size_t> direct_use_count(in_cols.size(), 0);
    std::vector<std::pair<size_t, size_t>> item_of_output;  // (stmt item, out)
    for (size_t s = 0; s < stmt.items.size(); ++s) {
      const SelectItem& item = stmt.items[s];
      const Expr& e = *item.expr;
      for (const std::string& col : item.promote_columns) {
        BDBMS_ASSIGN_OR_RETURN(size_t idx, BindColumn(in_cols, "", col));
        promote_of_item[s].push_back(idx);
      }
      if (e.kind == ExprKind::kColumnRef && e.column == "*") {
        for (size_t i = 0; i < in_cols.size(); ++i) {
          if (in_cols[i].qualifier != e.qualifier) continue;
          items.push_back({true, i, nullptr, in_cols[i].name, {}, ""});
          ++direct_use_count[i];
          item_of_output.emplace_back(s, items.size() - 1);
        }
        continue;
      }
      if (e.kind == ExprKind::kColumnRef) {
        BDBMS_ASSIGN_OR_RETURN(size_t idx,
                               BindColumn(in_cols, e.qualifier, e.column));
        items.push_back({true, idx, nullptr,
                         item.alias.empty() ? in_cols[idx].name : item.alias,
                         {},
                         ""});
        ++direct_use_count[idx];
        item_of_output.emplace_back(s, items.size() - 1);
        continue;
      }
      items.push_back({false, 0, item.expr.get(),
                       item.alias.empty() ? "expr" : item.alias, {}, ""});
      item_of_output.emplace_back(s, items.size() - 1);
    }
    // Route PROMOTE through a dedicated node when the target input column
    // is projected exactly once; otherwise merge inline during projection
    // so other projections of the same column stay unaffected.
    std::vector<PromoteNode::Mapping> mappings;
    for (const auto& [s, out] : item_of_output) {
      if (promote_of_item[s].empty()) continue;
      ProjectNode::Item& it = items[out];
      if (it.is_direct && direct_use_count[it.direct_index] == 1) {
        mappings.emplace_back(it.direct_index, promote_of_item[s]);
      } else {
        it.promote_sources = promote_of_item[s];
      }
    }
    if (!mappings.empty()) {
      double rows = plan->est_rows();
      plan = stacked(
          std::move(plan),
          [&](PlanNodePtr c) -> PlanNodePtr {
            return std::make_unique<PromoteNode>(std::move(c),
                                                 std::move(mappings));
          },
          rows, rows * cost::kPipeTuple);
    }
    double rows = plan->est_rows();
    plan = stacked(
        std::move(plan),
        [&](PlanNodePtr c) -> PlanNodePtr {
          return std::make_unique<ProjectNode>(std::move(c),
                                               std::move(items));
        },
        rows, rows * cost::kPipeTuple);
  }

  if (stmt.distinct) {
    double rows = plan->est_rows();
    plan = stacked(
        std::move(plan),
        [](PlanNodePtr c) -> PlanNodePtr {
          return std::make_unique<DistinctNode>(std::move(c));
        },
        rows, rows * cost::kHashBuild);
  }
  if (stmt.filter) {
    double rows = plan->est_rows();
    plan = stacked(
        std::move(plan),
        [&](PlanNodePtr c) -> PlanNodePtr {
          return std::make_unique<AnnotFilterNode>(std::move(c),
                                                   stmt.filter.get());
        },
        rows, rows * cost::kFilterTuple);
  }
  // The chain-last SELECT's ORDER BY/LIMIT are the trailing clauses of
  // the whole set operation; the outermost level applies them to the
  // combination, so they are skipped here instead of sorting/capping the
  // branch twice.
  auto sort_cost = [](double rows) {
    return rows * std::log2(std::max(rows, 2.0)) * cost::kSortTuple;
  };
  auto build_sort_keys = [](const std::vector<OrderKey>& order_by,
                            const std::vector<BoundColumn>& columns)
      -> Result<std::vector<SortNode::Key>> {
    std::vector<SortNode::Key> keys;
    for (const OrderKey& key : order_by) {
      SortNode::Key k;
      k.descending = key.descending;
      if (key.expr != nullptr) {
        k.expr = key.expr.get();
        // Like bare keys, expression keys read the projected output;
        // surface unknown columns at plan time, not mid-sort.
        std::vector<const Expr*> refs;
        CollectColumnRefs(key.expr.get(), &refs);
        for (const Expr* ref : refs) {
          BDBMS_ASSIGN_OR_RETURN(
              size_t idx, BindColumn(columns, ref->qualifier, ref->column));
          (void)idx;
        }
      } else {
        BDBMS_ASSIGN_OR_RETURN(k.column, BindColumn(columns, "", key.column));
      }
      keys.push_back(k);
    }
    return keys;
  };
  bool is_chain_last = as_set_rhs && stmt.set_op == SetOpKind::kNone;
  if (!stmt.order_by.empty() && !is_chain_last && !order_consumed) {
    BDBMS_ASSIGN_OR_RETURN(std::vector<SortNode::Key> keys,
                           build_sort_keys(stmt.order_by, plan->columns()));
    double rows = plan->est_rows();
    plan = stacked(
        std::move(plan),
        [&](PlanNodePtr c) -> PlanNodePtr {
          return std::make_unique<SortNode>(std::move(c), std::move(keys));
        },
        rows, sort_cost(rows));
  }
  if (stmt.limit.has_value() && as_set_rhs && !is_chain_last) {
    // `... UNION SELECT ... LIMIT n UNION ...`: neither a branch cap nor
    // the trailing clause — reject instead of silently dropping it.
    return Status::NotSupported(
        "LIMIT inside a set-operation branch is not supported; apply it "
        "after the last SELECT");
  }
  if (stmt.limit.has_value() && !as_set_rhs) {
    double rows =
        std::min(plan->est_rows(), static_cast<double>(*stmt.limit));
    plan = stacked(
        std::move(plan),
        [&](PlanNodePtr c) -> PlanNodePtr {
          return std::make_unique<LimitNode>(std::move(c), *stmt.limit);
        },
        rows, 0.0);
  }

  if (stmt.set_op != SetOpKind::kNone) {
    BDBMS_ASSIGN_OR_RETURN(PlanNodePtr rhs,
                           PlanSelectImpl(*stmt.set_rhs, /*as_set_rhs=*/true));
    double l = plan->est_rows(), r = rhs->est_rows();
    double rows = l + r;
    if (stmt.set_op == SetOpKind::kIntersect) rows = std::min(l, r);
    if (stmt.set_op == SetOpKind::kExcept) rows = l;
    double cst =
        plan->est_cost() + rhs->est_cost() + (l + r) * cost::kHashBuild;
    plan = std::make_unique<SetOpNode>(stmt.set_op, std::move(plan),
                                       std::move(rhs));
    plan->SetEstimate(rows, cst);
    // A trailing ORDER BY / LIMIT written after the set operations parses
    // into the last SELECT of the (right-nested) chain; per standard SQL
    // they apply to the whole combination, so only the outermost level
    // applies them, reading them off the chain's last SELECT.
    if (!as_set_rhs) {
      const SelectStmt* last = stmt.set_rhs.get();
      while (last->set_op != SetOpKind::kNone) last = last->set_rhs.get();
      if (!last->order_by.empty()) {
        BDBMS_ASSIGN_OR_RETURN(
            std::vector<SortNode::Key> keys,
            build_sort_keys(last->order_by, plan->columns()));
        double srows = plan->est_rows();
        plan = stacked(
            std::move(plan),
            [&](PlanNodePtr c) -> PlanNodePtr {
              return std::make_unique<SortNode>(std::move(c),
                                                std::move(keys));
            },
            srows, sort_cost(srows));
      }
      if (last->limit.has_value()) {
        double lrows =
            std::min(plan->est_rows(), static_cast<double>(*last->limit));
        plan = stacked(
            std::move(plan),
            [&](PlanNodePtr c) -> PlanNodePtr {
              return std::make_unique<LimitNode>(std::move(c), *last->limit);
            },
            lrows, 0.0);
      }
    }
  }
  return plan;
}

Result<PlanNodePtr> Planner::PlanSelect(const SelectStmt& stmt) {
  return PlanSelectImpl(stmt, /*as_set_rhs=*/false);
}

Result<std::string> Planner::ExplainStatement(const Statement& stmt) {
  if (const auto* sel = std::get_if<SelectStmt>(&stmt.node)) {
    BDBMS_ASSIGN_OR_RETURN(PlanNodePtr plan, PlanSelect(*sel));
    return ExplainPlan(*plan);
  }
  auto indent = [](const std::string& text) {
    std::string out;
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      out += "  " + text.substr(start, end - start) + "\n";
      start = end + 1;
    }
    return out;
  };
  if (const auto* upd = std::get_if<UpdateStmt>(&stmt.node)) {
    if (!ctx_->catalog->HasTable(upd->table)) {
      return Status::NotFound("no table " + upd->table);
    }
    // Same privilege the execution itself would demand.
    BDBMS_RETURN_IF_ERROR(
        ctx_->access->Check(user_, upd->table, Privilege::kUpdate));
    BDBMS_ASSIGN_OR_RETURN(PlanNodePtr plan,
                           PlanDmlScan(upd->table, upd->where.get()));
    std::string out = "Update " + upd->table + " SET ";
    for (size_t i = 0; i < upd->assignments.size(); ++i) {
      if (i > 0) out += ", ";
      out += upd->assignments[i].first;
    }
    return out + "\n" + indent(ExplainPlan(*plan));
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt.node)) {
    if (!ctx_->catalog->HasTable(del->table)) {
      return Status::NotFound("no table " + del->table);
    }
    BDBMS_RETURN_IF_ERROR(
        ctx_->access->Check(user_, del->table, Privilege::kDelete));
    BDBMS_ASSIGN_OR_RETURN(PlanNodePtr plan,
                           PlanDmlScan(del->table, del->where.get()));
    return "Delete " + del->table + "\n" + indent(ExplainPlan(*plan));
  }
  return Status::NotSupported("EXPLAIN supports SELECT, UPDATE and DELETE");
}

}  // namespace bdbms
