#include "core/database.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <variant>

#include "sql/parser.h"
#include "wal/checkpoint.h"

namespace bdbms {

Database::Database()
    : annotations_(&clock_),
      provenance_(&annotations_),
      dependencies_(&catalog_, &procedures_),
      approvals_(&catalog_, &access_, &clock_) {
  // Every manager records its compensations into the currently bound undo
  // log (the autocommit log by default; a transaction's private log while
  // one of its statements runs), so a statement or transaction rollback
  // unwinds the whole engine state.
  catalog_.set_undo_log(&undo_);
  annotations_.set_undo_log(&undo_);
  dependencies_.set_undo_log(&undo_);
  access_.set_undo_log(&undo_);
  approvals_.set_undo_log(&undo_);
  annotations_.set_mvcc(&mvcc_state_);
}

Database::~Database() {
  if (dur_ && dur_->wal) {
    // Best-effort: a destructor cannot report a failed fsync. Call
    // Close() before destruction when the error matters.
    (void)dur_->wal->Sync();
  }
}

std::string Database::Durable::WalPath() const {
  return dir + "/" + kWalFileName;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + name);
  }
  return it->second.get();
}

DependencyManager::TableResolver Database::Resolver() {
  return [this](const std::string& name) { return GetTable(name); };
}

const std::vector<DeletionLogEntry>& Database::DeletionLog(
    const std::string& table) {
  return deletion_log_[table];
}

Result<DependencyManager::PropagationReport> Database::NotifyCellUpdated(
    const std::string& table, RowId row, size_t col) {
  return dependencies_.OnCellUpdated(table, row, col, Resolver());
}

Result<std::unique_ptr<Table>> Database::CreatePagedTable(
    const TableSchema& schema) {
  const std::string path = paged_->heap_dir + "/" + schema.name() + "." +
                           std::to_string(paged_->next_heap_file++) + ".heap";
  // A dead orphan from an earlier incarnation (GC runs only at open) may
  // occupy the name; start from a clean slate.
  for (const std::string& stale :
       {path, Pager::SpillPath(path), Pager::JournalPath(path)}) {
    if (paged_->env->FileExists(stale)) {
      BDBMS_RETURN_IF_ERROR(paged_->env->RemoveFile(stale));
    }
  }
  BDBMS_ASSIGN_OR_RETURN(
      std::unique_ptr<Table> t,
      Table::OpenPaged(schema, paged_->env, path, paged_->pool_pages));
  t->set_readahead_pages(paged_->readahead_pages);
  return t;
}

ExecContext Database::MakeContext(const MvccSnapshot& snap) {
  ExecContext ctx;
  ctx.snapshot = &snap;
  ctx.catalog = &catalog_;
  ctx.annotations = &annotations_;
  ctx.provenance = &provenance_;
  ctx.dependencies = &dependencies_;
  ctx.approvals = &approvals_;
  ctx.access = &access_;
  ctx.clock = &clock_;
  ctx.tables = [this](const std::string& name) { return GetTable(name); };
  ctx.create_table = [this](const TableSchema& schema) -> Status {
    std::unique_ptr<Table> t;
    if (paged_ != nullptr) {
      BDBMS_ASSIGN_OR_RETURN(t, CreatePagedTable(schema));
    } else {
      BDBMS_ASSIGN_OR_RETURN(t, Table::CreateInMemory(schema));
    }
    UndoLog* undo = active_undo_.load(std::memory_order_acquire);
    t->set_undo_log(undo);
    t->set_mvcc(&mvcc_state_);
    if (undo->recording()) {
      undo->Record("create table storage " + schema.name(),
                   [this, name = schema.name()] { tables_.erase(name); });
    }
    tables_[schema.name()] = std::move(t);
    return Status::Ok();
  };
  ctx.drop_table = [this](const std::string& name) -> Status {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("no table storage for " + name);
    }
    UndoLog* undo = active_undo_.load(std::memory_order_acquire);
    if (undo->recording()) {
      // Park the storage object instead of destroying it: ROLLBACK
      // re-inserts it wholesale, rows and indexes intact, no rebuild.
      auto held =
          std::make_shared<std::unique_ptr<Table>>(std::move(it->second));
      undo->Record("drop table storage " + name,
                   [this, name, held] { tables_[name] = std::move(*held); });
    }
    tables_.erase(it);
    return Status::Ok();
  };
  ctx.deletion_log = &deletion_log_;
  ctx.undo = active_undo_.load(std::memory_order_acquire);
  return ctx;
}

bool Database::InTransaction(const void* session) const {
  const void* token = session ? session : static_cast<const void*>(this);
  return FindTxn(token) != nullptr;
}

Database::TxnState* Database::FindTxn(const void* token) const {
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = txns_.find(token);
  return it == txns_.end() ? nullptr : it->second.get();
}

bool Database::TableInvolved(const std::string& table) const {
  if (approvals_.configs().count(table) != 0) return true;
  for (const auto& [name, rule] : dependencies_.rules()) {
    if (rule.target.table == table) return true;
    for (const ColumnRef& src : rule.sources) {
      if (src.table == table) return true;
    }
  }
  return false;
}

Database::StmtClass Database::Classify(const Statement& stmt) const {
  // Every mutating statement runs as a versioned transaction; this only
  // picks the gate it holds. DML takes the shared side as long as the
  // target table drives no cross-cutting machinery: no dependency rule
  // reads or writes it, and no approval config intercepts its writes.
  // Everything else — DDL, grants, approvals, ANALYZE,
  // dependency-propagating updates — drains transactions and holds the
  // exclusive side.
  if (const auto* ins = std::get_if<InsertStmt>(&stmt.node)) {
    return TableInvolved(ins->table) ? StmtClass::kExclusive
                                     : StmtClass::kConcurrentDml;
  }
  if (const auto* upd = std::get_if<UpdateStmt>(&stmt.node)) {
    return TableInvolved(upd->table) ? StmtClass::kExclusive
                                     : StmtClass::kConcurrentDml;
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt.node)) {
    return TableInvolved(del->table) ? StmtClass::kExclusive
                                     : StmtClass::kConcurrentDml;
  }
  if (const auto* add = std::get_if<AddAnnotationStmt>(&stmt.node)) {
    const bool select_form =
        add->on == nullptr || std::holds_alternative<SelectStmt>(add->on->node);
    if (!select_form) return StmtClass::kExclusive;
    for (const auto& [table, ann] : add->targets) {
      if (TableInvolved(table)) return StmtClass::kExclusive;
    }
    return StmtClass::kConcurrentDml;
  }
  return StmtClass::kExclusive;
}

Result<QueryResult> Database::Execute(std::string_view sql,
                                      const std::string& user,
                                      const void* session) {
  const void* token = session ? session : static_cast<const void*>(this);
  BDBMS_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));

  if (const auto* txn = std::get_if<TxnStmt>(&stmt.node)) {
    switch (txn->kind) {
      case TxnStmt::Kind::kBegin:
        return BeginTxn(token);
      case TxnStmt::Kind::kCommit: {
        auto r = CommitTxn(token);
        MaybeDeferredCheckpoint();
        return r;
      }
      case TxnStmt::Kind::kRollback:
        return RollbackTxn(token);
    }
  }

  TxnState* t = FindTxn(token);

  // CHECKPOINT is handled here, not in the executor: it operates on the
  // WAL/checkpoint files the facade owns, and must never itself be
  // journaled (replaying it would re-truncate the log mid-recovery).
  if (std::holds_alternative<CheckpointStmt>(stmt.node)) {
    {
      SharedGateLock g(&gate_);
      if (!access_.IsSuperuser(user)) {
        return Status::PermissionDenied("only superusers may checkpoint");
      }
    }
    if (t) {
      // A checkpoint snapshots committed state; uncommitted transaction
      // effects must never reach the checkpoint file.
      return Status::FailedPrecondition(
          "CHECKPOINT cannot run inside a transaction");
    }
    if (!dur_) return ExecuteRead(stmt, user);  // deliberate no-op + message
    (void)LockExclusiveNoTxns(nullptr);
    Status s;
    uint64_t lsn = 0;
    {
      std::lock_guard<std::mutex> w(writer_mu_);
      s = CheckpointLocked();
      if (dur_) lsn = dur_->last_lsn;
    }
    gate_.UnlockExclusive();
    BDBMS_RETURN_IF_ERROR(s);
    QueryResult result;
    result.message = "CHECKPOINT complete (lsn " + std::to_string(lsn) + ")";
    return result;
  }

  const bool mutating = StatementMutatesState(stmt);

  if (t) {
    return ExecuteInTxn(t, stmt, sql, user, mutating);
  }

  if (!mutating) {
    return ExecuteRead(stmt, user);
  }

  // Autocommit: the statement is its own mini-transaction. Classification
  // happens under the shared gate (rule/approval changes are exclusive,
  // so the answer cannot shift mid-hold); concurrent DML then executes
  // under the same hold, everything else re-enters exclusively.
  auto result = [&]() -> Result<QueryResult> {
    {
      SharedGateLock g(&gate_);
      if (Classify(stmt) == StmtClass::kConcurrentDml) {
        return ExecuteAutocommit(stmt, sql, user);
      }
    }
    return ExecuteExclusive(stmt, sql, user);
  }();
  MaybeDeferredCheckpoint();
  return result;
}

Result<QueryResult> Database::ExecuteRead(const Statement& stmt,
                                          const std::string& user) {
  SharedGateLock g(&gate_);
  MvccSnapshot snap;
  {
    // Capture + registration are one atomic step under txn_mu_: the GC
    // computes the oldest live snapshot under the same mutex, so a
    // version can never be vacuumed between a reader choosing its CSN
    // and announcing it.
    std::lock_guard<std::mutex> lock(txn_mu_);
    snap.csn = last_completed_csn_.load(std::memory_order_acquire);
    read_snapshots_.insert(snap.csn);
  }
  Executor executor(MakeContext(snap), user);
  auto result = executor.Execute(stmt);
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    read_snapshots_.erase(read_snapshots_.find(snap.csn));
  }
  TryVacuumAfterRead();
  return result;
}

Result<QueryResult> Database::ExecuteAutocommit(const Statement& stmt,
                                                std::string_view sql,
                                                const std::string& user) {
  // Caller holds the gate, shared or exclusive. writer_mu_ serializes
  // this against other mutating statements, commits and vacuums; readers
  // sail past on table latches and snapshot visibility.
  std::lock_guard<std::mutex> w(writer_mu_);
  if (dur_ && !dur_->wal) {
    return Status::FailedPrecondition(
        "durable store is unusable after a write failure; reopen");
  }
  const uint64_t clock_before = clock_.Peek();
  PendingStatement ps;
  if (dur_) CaptureBases(&ps);
  MvccWriter writer;
  writer.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  writer.snapshot_csn = last_completed_csn_.load(std::memory_order_acquire);
  MvccSnapshot snap{writer.snapshot_csn, writer.txn_id};
  undo_.Begin();
  mvcc_state_.writer = &writer;
  Executor executor(MakeContext(snap), user);
  auto result = executor.Execute(stmt);
  mvcc_state_.writer = nullptr;
  if (!result.ok()) {
    // Mid-statement failure (including a first-updater-wins conflict):
    // compensate every partial effect, newest first, then restore the
    // clock so the failed attempt is invisible.
    undo_.RollbackAll();
    clock_.Reset(clock_before);
    return result.status();
  }
  undo_.Stop();
  ++mutation_epoch_;
  uint64_t csn = 0;
  if (!writer.rows.empty() || !writer.annotations.empty()) {
    csn = next_csn_.fetch_add(1, std::memory_order_relaxed);
    StampWriteSet(writer, csn);
    last_completed_csn_.store(csn, std::memory_order_release);
  }
  if (dur_) {
    ps.user = user;
    ps.sql = std::string(sql);
    ps.clock_before = clock_before;
    ps.snapshot = writer.snapshot_csn;
    BDBMS_RETURN_IF_ERROR(LogCommitted(ps, csn));
  }
  TryVacuumLocked();
  return result;
}

Result<QueryResult> Database::ExecuteExclusive(const Statement& stmt,
                                               std::string_view sql,
                                               const std::string& user) {
  // Cannot fail for a non-transaction caller: it waits (rather than
  // aborts) until open transactions drain.
  (void)LockExclusiveNoTxns(nullptr);
  auto result = ExecuteAutocommit(stmt, sql, user);
  gate_.UnlockExclusive();
  return result;
}

Result<QueryResult> Database::BeginTxn(const void* token) {
  if (FindTxn(token)) {
    return Status::FailedPrecondition("transaction already in progress");
  }
  // writer_mu_ keeps the durable latch, clock and epoch reads consistent
  // with any in-flight commit; BEGIN never touches the gate, so any
  // number of transactions may be open at once.
  std::lock_guard<std::mutex> w(writer_mu_);
  if (dur_ && !dur_->wal) {
    return Status::FailedPrecondition(
        "durable store is unusable after a write failure; reopen");
  }
  auto t = std::make_unique<TxnState>();
  t->undo = std::make_unique<UndoLog>();
  t->undo->Begin();
  t->clock_at_begin = clock_.Peek();
  t->epoch_at_begin = mutation_epoch_;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    t->txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
    t->snapshot =
        MvccSnapshot{last_completed_csn_.load(std::memory_order_acquire),
                     t->txn_id};
    t->writer.txn_id = t->txn_id;
    t->writer.snapshot_csn = t->snapshot.csn;
    txns_[token] = std::move(t);
  }
  QueryResult result;
  result.message = "BEGIN";
  return result;
}

Result<QueryResult> Database::CommitTxn(const void* token) {
  TxnState* t = FindTxn(token);
  if (!t) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  if (t->doomed) {
    // A doomed transaction was already rolled back at the conflict; the
    // COMMIT merely closes it (PostgreSQL reports ROLLBACK here too).
    EndTxn(token);
    QueryResult result;
    result.message = "ROLLBACK";
    return result;
  }
  const size_t statements = t->pending.size();
  auto commit_body = [&]() -> Result<QueryResult> {
    std::lock_guard<std::mutex> w(writer_mu_);
    const bool wrote =
        !t->writer.rows.empty() || !t->writer.annotations.empty();
    uint64_t csn = 0;
    if (wrote) csn = next_csn_.fetch_add(1, std::memory_order_relaxed);
    if (dur_ && !t->pending.empty()) {
      Status logged = LogTxnCommitted(t, csn);
      if (!logged.ok()) {
        // The journal rejected the transaction, so it must not commit
        // in memory either: unwind everything and report the failure.
        BindUndo(t->undo.get());
        t->undo->RollbackAll();
        BindUndo(&undo_);
        t->writer.Clear();
        ApplyRollbackClockPolicy(*t);
        return logged;
      }
    }
    // Stamp before Stop(): a storage object parked by an in-transaction
    // DROP lives inside the undo log until Stop() releases it, and the
    // stamping pass needs the liveness filter to compare against it.
    StampWriteSet(t->writer, csn);
    t->undo->Stop();
    if (wrote) last_completed_csn_.store(csn, std::memory_order_release);
    QueryResult result;
    result.message = "COMMIT (" + std::to_string(statements) +
                     (statements == 1 ? " statement)" : " statements)");
    return result;
  };
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (t->escalated) return commit_body();  // gate already held exclusively
    SharedGateLock g(&gate_);
    return commit_body();
  }();
  EndTxn(token);
  {
    // Retire versions the finished snapshot was pinning.
    std::unique_lock<std::mutex> w(writer_mu_, std::try_to_lock);
    if (w.owns_lock()) TryVacuumLocked();
  }
  return result;
}

Result<QueryResult> Database::RollbackTxn(const void* token) {
  TxnState* t = FindTxn(token);
  if (!t) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  if (!t->doomed) {
    auto rollback_body = [&] {
      std::lock_guard<std::mutex> w(writer_mu_);
      BindUndo(t->undo.get());
      t->undo->RollbackAll();
      BindUndo(&undo_);
      t->writer.Clear();
      ApplyRollbackClockPolicy(*t);
    };
    if (t->escalated) {
      rollback_body();
    } else {
      SharedGateLock g(&gate_);
      rollback_body();
    }
  }
  EndTxn(token);
  {
    std::unique_lock<std::mutex> w(writer_mu_, std::try_to_lock);
    if (w.owns_lock()) TryVacuumLocked();
  }
  QueryResult result;
  result.message = "ROLLBACK";
  return result;
}

void Database::EndTxn(const void* token) {
  bool escalated = false;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = txns_.find(token);
    if (it == txns_.end()) return;
    escalated = it->second->escalated;
    txns_.erase(it);
    // Wake escalation/checkpoint drains waiting for the registry to
    // empty out.
    txn_cv_.notify_all();
  }
  if (escalated) gate_.UnlockExclusive();
}

Result<QueryResult> Database::ExecuteInTxn(TxnState* t, const Statement& stmt,
                                           std::string_view sql,
                                           const std::string& user,
                                           bool mutating) {
  if (t->doomed) {
    return Status::FailedPrecondition(
        "transaction is aborted, commands ignored until end of "
        "transaction block");
  }
  if (!mutating) {
    auto read = [&] {
      Executor executor(MakeContext(t->snapshot), user);
      return executor.Execute(stmt);
    };
    if (t->escalated) return read();  // the gate is held exclusively
    SharedGateLock g(&gate_);
    return read();
  }
  if (!t->escalated) {
    {
      SharedGateLock g(&gate_);
      if (Classify(stmt) == StmtClass::kConcurrentDml) {
        return ExecuteTxnDml(t, stmt, sql, user);
      }
    }
    // The statement needs the exclusive gate: escalate. The shared hold
    // above is released first — waiting for exclusive while holding
    // shared would deadlock on ourselves.
    Status escalated = LockExclusiveNoTxns(t);
    if (!escalated.ok()) {
      std::lock_guard<std::mutex> w(writer_mu_);
      DoomLocked(t);
      return escalated;
    }
    t->escalated = true;
    std::lock_guard<std::mutex> w(writer_mu_);
    t->clock_at_escalation = clock_.Peek();
    // No other transaction is open and none can commit while this one
    // holds the gate, so its snapshot moves up to the newest commit: from
    // here on it reads the newest committed state plus its own writes, and
    // first-updater-wins measures against that state.
    std::lock_guard<std::mutex> lock(txn_mu_);
    t->snapshot.csn = last_completed_csn_.load(std::memory_order_acquire);
    t->writer.snapshot_csn = t->snapshot.csn;
  }
  return ExecuteTxnDml(t, stmt, sql, user);
}

Result<QueryResult> Database::ExecuteTxnDml(TxnState* t, const Statement& stmt,
                                            std::string_view sql,
                                            const std::string& user) {
  // Caller holds the gate: shared, or exclusive once the transaction
  // escalated.
  std::lock_guard<std::mutex> w(writer_mu_);
  if (dur_ && !dur_->wal) {
    return Status::FailedPrecondition(
        "durable store is unusable after a write failure; reopen");
  }
  const uint64_t clock_before = clock_.Peek();
  PendingStatement ps;
  if (dur_) CaptureBases(&ps);
  BindUndo(t->undo.get());
  const UndoLog::Mark mark = t->undo->MarkPoint();
  mvcc_state_.writer = &t->writer;
  Executor executor(MakeContext(t->snapshot), user);
  auto result = executor.Execute(stmt);
  mvcc_state_.writer = nullptr;
  if (!result.ok()) {
    if (result.status().IsSerializationFailure()) {
      // First updater wins, and this transaction lost: per snapshot
      // isolation the whole transaction aborts, not just the statement.
      DoomLocked(t);
      BindUndo(&undo_);
      return result.status();
    }
    // Statement-level savepoint: undo this statement's effects only; the
    // transaction stays open.
    t->undo->RollbackTo(mark);
    clock_.Reset(clock_before);
    BindUndo(&undo_);
    return result.status();
  }
  BindUndo(&undo_);
  ++mutation_epoch_;
  ++t->own_mutations;
  if (dur_) {
    ps.user = user;
    ps.sql = std::string(sql);
    ps.clock_before = clock_before;
    ps.snapshot = t->snapshot.csn;
    t->pending.push_back(std::move(ps));
  }
  return result;
}

void Database::DoomLocked(TxnState* t) {
  t->undo->RollbackAll();
  t->writer.Clear();
  t->pending.clear();
  // The doomed flag also un-pins the transaction's snapshot from GC
  // (ComputeOldestCsnLocked skips doomed entries), so an abandoned
  // conflicted session cannot stall version reclamation.
  t->doomed = true;
}

Status Database::LockExclusiveNoTxns(const TxnState* self) {
  if (self) {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (escalations_waiting_ > 0) {
      // Two open transactions draining each other would deadlock; the
      // later one aborts instead.
      return Status::SerializationFailure(
          "serialization failure, retry transaction (concurrent "
          "transaction is escalating to exclusive)");
    }
    ++escalations_waiting_;
  }
  for (;;) {
    gate_.LockExclusive();
    std::unique_lock<std::mutex> lock(txn_mu_);
    bool others = false;
    for (const auto& [tok, txn] : txns_) {
      if (txn.get() != self) {
        others = true;
        break;
      }
    }
    if (!others) {
      if (self) --escalations_waiting_;
      return Status::Ok();  // exclusive gate held
    }
    // Open transactions do not hold the gate between statements, so
    // releasing it here lets them finish; EndTxn signals the retry.
    gate_.UnlockExclusive();
    txn_cv_.wait(lock);
  }
}

void Database::BindUndo(UndoLog* undo) {
  active_undo_.store(undo, std::memory_order_release);
  catalog_.set_undo_log(undo);
  annotations_.set_undo_log(undo);
  dependencies_.set_undo_log(undo);
  access_.set_undo_log(undo);
  approvals_.set_undo_log(undo);
  for (auto& [name, table] : tables_) table->set_undo_log(undo);
}

void Database::StampWriteSet(MvccWriter& writer, uint64_t csn) {
  if (writer.rows.empty() && writer.annotations.empty()) return;
  // Filter against live storage: a table dropped later in the same
  // transaction took its pending versions with it.
  std::set<const Table*> live_tables;
  for (const auto& [name, table] : tables_) live_tables.insert(table.get());
  for (const auto& [table, row] : writer.rows) {
    if (live_tables.count(table)) table->CommitRow(row, writer.txn_id, csn);
  }
  if (!writer.annotations.empty()) {
    std::set<const AnnotationTable*> live_anns;
    annotations_.ForEachTable(
        [&](const std::string&, AnnotationTable* at) { live_anns.insert(at); });
    for (const auto& [at, id] : writer.annotations) {
      if (live_anns.count(at)) at->CommitAnnotation(id, writer.txn_id, csn);
    }
  }
  writer.Clear();
}

void Database::CaptureBases(PendingStatement* ps) const {
  for (const auto& [name, table] : tables_) {
    ps->row_bases.emplace_back(name, table->next_row_id());
  }
  annotations_.ForEachTable([&](const std::string& key, AnnotationTable* at) {
    ps->ann_bases.emplace_back(key, at->next_id());
  });
}

void Database::ApplyReplayBases(const WalRecord& rec) {
  // Statement records carry the counters the statement *allocated from*
  // and must restore them exactly: group commit appends a transaction's
  // statements at COMMIT time, so a concurrently committed record that
  // landed earlier in the log can carry counters captured later — a
  // monotonic advance would then replay the ids too high. The commit
  // marker carries the counters as of COMMIT and is applied as a
  // max-advance, restoring the end-of-group high-water mark that other
  // transactions' statement-time allocations pushed past this group's.
  const bool exact = rec.kind != WalRecordKind::kTxnCommit;
  for (const auto& [name, base] : rec.row_bases) {
    auto it = tables_.find(name);
    if (it == tables_.end()) continue;
    if (exact) {
      it->second->SetNextRowId(base);
    } else {
      it->second->AdvanceNextRowId(base);
    }
  }
  if (!rec.ann_bases.empty()) {
    std::map<std::string, uint64_t> want(rec.ann_bases.begin(),
                                         rec.ann_bases.end());
    annotations_.ForEachTable([&](const std::string& key, AnnotationTable* at) {
      auto it = want.find(key);
      if (it == want.end()) return;
      if (exact) {
        at->SetNextId(it->second);
      } else {
        at->AdvanceNextId(it->second);
      }
    });
  }
}

uint64_t Database::ComputeOldestCsnLocked() const {
  uint64_t oldest = UINT64_MAX;
  for (const auto& [tok, t] : txns_) {
    // A doomed transaction rolled back already and needs no snapshot.
    if (!t->doomed) oldest = std::min(oldest, t->snapshot.csn);
  }
  if (!read_snapshots_.empty()) {
    oldest = std::min(oldest, *read_snapshots_.begin());
  }
  return oldest;
}

void Database::VacuumAllLocked(uint64_t oldest_csn) {
  for (auto& [name, table] : tables_) table->Vacuum(oldest_csn);
}

void Database::TryVacuumLocked() {
  uint64_t oldest;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    oldest = ComputeOldestCsnLocked();
  }
  VacuumAllLocked(oldest);
}

void Database::TryVacuumAfterRead() {
  // A finished reader may have been the oldest snapshot. Skip if a
  // mutating statement currently owns writer_mu_ — its commit will
  // vacuum anyway.
  std::unique_lock<std::mutex> w(writer_mu_, std::try_to_lock);
  if (!w.owns_lock()) return;
  TryVacuumLocked();
}

void Database::ApplyRollbackClockPolicy(const TxnState& t) {
  if (mutation_epoch_ == t.epoch_at_begin + t.own_mutations) {
    // No foreign mutation interleaved: rewinding to BEGIN reproduces the
    // PR-6 exclusive-transaction behavior bit for bit.
    clock_.Reset(t.clock_at_begin);
  } else if (t.escalated) {
    // Interleaving happened before the escalation; everything after it
    // ran exclusively, so the escalation point is a safe rewind target.
    clock_.Reset(t.clock_at_escalation);
  }
  // Otherwise: concurrent history, the clock only moves forward.
}

uint64_t Database::version_count() const {
  std::lock_guard<std::mutex> w(writer_mu_);
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) total += table->version_count();
  return total;
}

Status Database::LogCommitted(const PendingStatement& ps, uint64_t csn) {
  if (!dur_->wal) {
    // Unreachable via Execute (the latch refuses before execution);
    // kept as defense for future direct callers.
    return Status::FailedPrecondition(
        "durable store is unusable after a write failure; reopen");
  }
  WalRecord rec;
  rec.lsn = dur_->last_lsn + 1;
  rec.clock = ps.clock_before;
  rec.user = ps.user;
  rec.sql = ps.sql;
  rec.snapshot = ps.snapshot;
  rec.csn = csn;
  rec.row_bases = ps.row_bases;
  rec.ann_bases = ps.ann_bases;
  Status appended = dur_->wal->Append(rec);
  if (!appended.ok()) {
    // The log may now end in a torn record. Latch the writer dead: a
    // later commit appended after torn bytes would be fsync-acked yet
    // silently discarded by recovery (the scan stops at the tear).
    TearDownWal();
    return appended;
  }
  dur_->last_lsn = rec.lsn;
  uint64_t interval = dur_->options.group_commit_interval;
  if (interval == 0) interval = 1;
  if (dur_->wal->unsynced() >= interval) {
    Status synced = dur_->wal->Sync();
    if (!synced.ok()) {
      // After a failed fsync the kernel may have dropped the dirty
      // pages; nothing appended afterwards could be trusted either.
      TearDownWal();
      return synced;
    }
  }
  ++dur_->statements_since_checkpoint;
  if (dur_->options.checkpoint_interval > 0 &&
      dur_->statements_since_checkpoint >= dur_->options.checkpoint_interval) {
    // The statement IS durably committed at this point, and this thread
    // may hold only the shared gate — the checkpoint itself needs the
    // exclusive side. Defer it to after the hold ends; a failure there
    // is recorded and retried, never reported against this statement.
    checkpoint_due_.store(true, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status Database::LogTxnCommitted(TxnState* t, uint64_t csn) {
  if (!dur_->wal) {
    return Status::FailedPrecondition(
        "durable store is unusable after a write failure; reopen");
  }
  uint64_t lsn = dur_->last_lsn;
  auto append = [&](WalRecord rec) -> Status {
    rec.lsn = ++lsn;
    Status appended = dur_->wal->Append(rec);
    if (!appended.ok()) {
      // Same latch discipline as LogCommitted. A partially appended
      // group is harmless on its own — recovery discards any begin
      // marker without a commit marker — but nothing appended after the
      // tear could be trusted.
      TearDownWal();
    }
    return appended;
  };
  WalRecord begin;
  begin.clock = t->clock_at_begin;
  begin.kind = WalRecordKind::kTxnBegin;
  BDBMS_RETURN_IF_ERROR(append(std::move(begin)));
  for (const PendingStatement& p : t->pending) {
    WalRecord rec;
    rec.clock = p.clock_before;
    rec.user = p.user;
    rec.sql = p.sql;
    rec.kind = WalRecordKind::kStatement;
    rec.snapshot = p.snapshot;
    rec.row_bases = p.row_bases;
    rec.ann_bases = p.ann_bases;
    BDBMS_RETURN_IF_ERROR(append(std::move(rec)));
  }
  WalRecord commit;
  commit.clock = clock_.Peek();
  commit.kind = WalRecordKind::kTxnCommit;
  commit.csn = csn;
  {
    // Commit-time id counters: replay applies these as a max-advance
    // after the group's members, restoring the high-water mark that
    // other transactions' statement-time allocations pushed past this
    // group's own (see ApplyReplayBases).
    PendingStatement commit_bases;
    CaptureBases(&commit_bases);
    commit.row_bases = std::move(commit_bases.row_bases);
    commit.ann_bases = std::move(commit_bases.ann_bases);
  }
  BDBMS_RETURN_IF_ERROR(append(std::move(commit)));
  // One fsync covers the whole group: the transaction is durable exactly
  // when its commit marker is. group_commit_interval batches autocommit
  // statements, never transactions.
  Status synced = dur_->wal->Sync();
  if (!synced.ok()) {
    TearDownWal();
    return synced;
  }
  dur_->last_lsn = lsn;
  dur_->statements_since_checkpoint += t->pending.size();
  if (dur_->options.checkpoint_interval > 0 &&
      dur_->statements_since_checkpoint >= dur_->options.checkpoint_interval) {
    checkpoint_due_.store(true, std::memory_order_relaxed);
  }
  return Status::Ok();
}

void Database::MaybeDeferredCheckpoint() {
  if (!dur_ || !checkpoint_due_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    // Open transactions park uncommitted effects in the heaps; the
    // checkpoint waits for a later statement to retry instead of
    // freezing them into the snapshot.
    if (!txns_.empty()) return;
  }
  ExclusiveGateLock g(&gate_);
  std::lock_guard<std::mutex> w(writer_mu_);
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    // BEGIN needs writer_mu_, which we hold, so the re-check is stable.
    if (!txns_.empty()) return;
  }
  if (!checkpoint_due_.exchange(false, std::memory_order_relaxed)) return;
  if (!dur_->wal) return;
  Status ckpt = CheckpointLocked();
  if (!ckpt.ok()) {
    // The triggering statement is durably committed and the log intact;
    // record the failure and retry at the next statement.
    ++dur_->checkpoint_failures;
  }
}

void Database::TearDownWal() {
  if (!dur_ || !dur_->wal) return;
  // Fold the dying writer's counters into the running totals so
  // durability_stats() never goes backwards after a write failure.
  dur_->wal_bytes_total += dur_->wal->bytes_appended();
  dur_->wal_syncs_total += dur_->wal->syncs();
  dur_->wal.reset();
}

Status Database::Checkpoint() {
  (void)LockExclusiveNoTxns(nullptr);
  Status s;
  {
    std::lock_guard<std::mutex> w(writer_mu_);
    s = CheckpointLocked();
  }
  gate_.UnlockExclusive();
  return s;
}

Status Database::CheckpointLocked() {
  if (!dur_) {
    return Status::FailedPrecondition("not a durable database");
  }
  if (!dur_->wal) {
    return Status::FailedPrecondition(
        "durable store is unusable after a failed checkpoint; reopen");
  }
  // Commit everything the snapshot will claim to cover. A failed fsync
  // poisons the log the same way it does in LogCommitted — the kernel
  // may have dropped the dirty pages — so the writer must latch dead
  // rather than let later appends be acked over a hole.
  Status synced = dur_->wal->Sync();
  if (!synced.ok()) {
    TearDownWal();
    return synced;
  }
  // Incremental page checkpoint, phase 1: every paged heap flushes its
  // pool and stages dirty pages durably (base extensions directly, base
  // overwrites in a redo journal) under the candidate generation. The
  // overlays are untouched, so a failure here is an ordinary retryable
  // error — the committed checkpoint and log are still authoritative.
  const uint64_t gen = paged_ ? paged_->checkpoint_gen + 1 : 0;
  for (auto& [name, table] : tables_) {
    (void)name;
    BDBMS_RETURN_IF_ERROR(table->CheckpointPrepare(gen));
  }
  BDBMS_ASSIGN_OR_RETURN(std::string payload,
                         SerializeSnapshot(dur_->last_lsn, gen));
  BDBMS_RETURN_IF_ERROR(WriteCheckpointFile(dur_->env, dur_->dir, payload));
  // The rename above is the commit point; only now is it safe to drop the
  // log. A crash in between leaves records with lsn <= the checkpoint's,
  // which recovery skips by lsn.
  //
  // Phase 2: write journaled pages home and reset the overlays. After the
  // rename the new manifest (plus the journals naming `gen`) is the
  // authoritative state; if writing home fails the in-memory engine can
  // no longer prove it matches it, so latch the store — reopening runs
  // the same journal application from a clean slate.
  for (auto& [name, table] : tables_) {
    (void)name;
    Status committed = table->CheckpointCommit();
    if (!committed.ok()) {
      TearDownWal();
      return committed;
    }
  }
  if (paged_) paged_->checkpoint_gen = gen;
  dur_->wal_bytes_total += dur_->wal->bytes_appended();
  dur_->wal_syncs_total += dur_->wal->syncs();
  dur_->wal.reset();
  BDBMS_RETURN_IF_ERROR(dur_->env->TruncateFile(dur_->WalPath(), 0));
  BDBMS_ASSIGN_OR_RETURN(dur_->wal,
                         WalWriter::Open(dur_->env, dur_->WalPath()));
  dur_->statements_since_checkpoint = 0;
  ++dur_->checkpoints_taken;
  return Status::Ok();
}

Status Database::Close() {
  (void)LockExclusiveNoTxns(nullptr);
  Status s = Status::Ok();
  {
    std::lock_guard<std::mutex> w(writer_mu_);
    if (dur_) {
      if (dur_->wal) {
        s = dur_->wal->Sync();
        TearDownWal();
      }
      // The store stays latched (dur_ alive, writer gone): a mutation
      // after Close must refuse rather than silently run memory-only
      // with no journaling. Only the dir lock is released, so the
      // directory can be reopened — including after a failed sync,
      // where reopening is how the caller recovers (the torn tail is
      // trimmed).
      dur_->lock.reset();
    }
  }
  gate_.UnlockExclusive();
  return s;
}

DurabilityStats Database::durability_stats() const {
  std::lock_guard<std::mutex> w(writer_mu_);
  DurabilityStats stats;
  if (!dur_) return stats;
  stats.last_lsn = dur_->last_lsn;
  stats.replayed_on_open = dur_->replayed_on_open;
  stats.checkpoints_taken = dur_->checkpoints_taken;
  stats.checkpoint_failures = dur_->checkpoint_failures;
  stats.wal_bytes_appended =
      dur_->wal_bytes_total + (dur_->wal ? dur_->wal->bytes_appended() : 0);
  stats.wal_syncs =
      dur_->wal_syncs_total + (dur_->wal ? dur_->wal->syncs() : 0);
  stats.statements_since_checkpoint = dur_->statements_since_checkpoint;
  return stats;
}

void Database::AdvanceCsn(uint64_t csn) {
  if (csn >= next_csn_.load(std::memory_order_relaxed)) {
    next_csn_.store(csn + 1, std::memory_order_relaxed);
  }
  if (csn > last_completed_csn_.load(std::memory_order_relaxed)) {
    last_completed_csn_.store(csn, std::memory_order_relaxed);
  }
}

Status Database::ReplayRecord(const WalRecord& rec, MvccWriter* group_writer) {
  auto parsed = ParseStatement(rec.sql);
  if (!parsed.ok()) {
    return Status::Corruption("WAL replay: lsn " + std::to_string(rec.lsn) +
                              " does not parse: " + parsed.status().message());
  }
  // Restore the exact clock value and id counters the statement
  // originally saw, so every timestamp/id handed out during replay
  // matches the original run (aborted transactions burned ids the log
  // never shows).
  clock_.Reset(rec.clock);
  ApplyReplayBases(rec);
  // Re-create the original execution: an MVCC writer plus the journaled
  // snapshot, so visibility decisions replay bit for bit against the
  // version stamps of earlier replayed commits. A transaction's snapshot
  // moves up when it escalates, so every member sets its own.
  MvccWriter local;
  MvccWriter* writer = group_writer;
  if (writer == nullptr) {
    local.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
    writer = &local;
  }
  writer->snapshot_csn = rec.snapshot;
  MvccSnapshot snap{rec.snapshot, writer->txn_id};
  mvcc_state_.writer = writer;
  Executor executor(MakeContext(snap), rec.user);
  auto result = executor.Execute(*parsed);
  mvcc_state_.writer = nullptr;
  if (result.ok() && writer == &local) {
    // Autocommit record: stamp with the journaled commit CSN now.
    if (rec.csn != 0) {
      StampWriteSet(local, rec.csn);
      AdvanceCsn(rec.csn);
    } else {
      local.Clear();
    }
  }
  if (!result.ok()) {
    return Status::Corruption(
        "WAL replay diverged at lsn " + std::to_string(rec.lsn) + " (" +
        rec.sql + "): " + result.status().message() +
        " — if the statement is CREATE DEPENDENCY, the procedure registry "
        "must be re-populated via DurabilityOptions::bootstrap");
  }
  return Status::Ok();
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 DurabilityOptions options) {
  WalEnv* env = options.env ? options.env : WalEnv::Default();
  BDBMS_RETURN_IF_ERROR(env->CreateDir(dir));
  // Exclusive dir lock for the Database's lifetime: a second simultaneous
  // open would interleave O_APPEND frames into wal.log and corrupt
  // acknowledged commits. flock-based, so a crashed holder self-clears.
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<DirLock> lock, env->LockDir(dir));

  auto db = std::unique_ptr<Database>(new Database());
  // Paged-heap wiring precedes everything that can create tables: WAL
  // replay re-executes CREATE TABLE statements before `dur_` exists.
  {
    auto paged = std::make_unique<PagedStorage>();
    paged->env = env;
    paged->heap_dir = dir + "/heap";
    paged->pool_pages = options.buffer_pool_pages;
    paged->readahead_pages = options.readahead_pages;
    BDBMS_RETURN_IF_ERROR(env->CreateDir(paged->heap_dir));
    db->paged_ = std::move(paged);
  }
  if (options.bootstrap) {
    BDBMS_RETURN_IF_ERROR(options.bootstrap(*db));
  }

  const std::string wal_path = dir + "/" + kWalFileName;
  const std::string ckpt_path = dir + "/" + kCheckpointFileName;
  const std::string tmp_path = dir + "/" + kCheckpointTmpFileName;

  // A leftover .tmp is a checkpoint that never reached its rename commit
  // point: the previous checkpoint + full log are authoritative.
  if (env->FileExists(tmp_path)) {
    BDBMS_RETURN_IF_ERROR(env->RemoveFile(tmp_path));
  }

  uint64_t last_lsn = 0;
  if (env->FileExists(ckpt_path)) {
    BDBMS_ASSIGN_OR_RETURN(std::string payload, ReadCheckpointFile(dir));
    BDBMS_RETURN_IF_ERROR(db->LoadSnapshot(payload, &last_lsn));
    // Snapshot-loaded tables must record compensations and version rows
    // like freshly created ones. Their reloaded rows carry no version
    // metadata — everything in a checkpoint is ancient (committed before
    // any snapshot that can ever be taken again).
    for (auto& [name, table] : db->tables_) {
      table->set_undo_log(&db->undo_);
      table->set_mvcc(&db->mvcc_state_);
    }
  }

  {
    // Garbage-collect heap files no checkpointed table references: heaps
    // of an incarnation that never reached a checkpoint (WAL replay
    // rebuilds those tables from scratch), orphans of dropped or
    // rolled-back CREATEs, and stale overlay files. Runs before replay so
    // replayed CREATEs start from a clean directory.
    std::set<std::string> keep;
    for (const auto& [name, table] : db->tables_) {
      if (!table->paged()) continue;
      keep.insert(table->heap_file_name());
      keep.insert(table->heap_file_name() + ".spill");
    }
    BDBMS_ASSIGN_OR_RETURN(std::vector<std::string> files,
                           env->ListDir(db->paged_->heap_dir));
    for (const std::string& f : files) {
      if (keep.count(f) != 0) continue;
      BDBMS_RETURN_IF_ERROR(env->RemoveFile(db->paged_->heap_dir + "/" + f));
    }
  }

  uint64_t replayed = 0;
  if (env->FileExists(wal_path)) {
    BDBMS_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(wal_path));
    BDBMS_ASSIGN_OR_RETURN(WalScan scan, ScanWal(data));
    bool dangling = false;
    uint64_t truncate_at = 0;
    const size_t n = scan.records.size();
    size_t i = 0;
    while (i < n) {
      const WalRecord& rec = scan.records[i];
      if (rec.kind == WalRecordKind::kStatement) {
        if (rec.lsn > last_lsn) {  // else already in the checkpoint
          BDBMS_RETURN_IF_ERROR(db->ReplayRecord(rec, nullptr));
          last_lsn = rec.lsn;
          ++replayed;
        }
        ++i;
        continue;
      }
      if (rec.kind == WalRecordKind::kTxnCommit) {
        return Status::Corruption(
            "WAL: commit marker without an open transaction at lsn " +
            std::to_string(rec.lsn));
      }
      // kTxnBegin: the group counts only if its commit marker made it
      // into the valid prefix. A dangling group is the expected shape of
      // a crash mid-commit — discard it, and everything after it, by
      // truncating at the begin marker's byte offset (later appends must
      // extend the last record recovery acknowledged).
      size_t end = i + 1;
      while (end < n && scan.records[end].kind == WalRecordKind::kStatement) {
        ++end;
      }
      if (end == n || scan.records[end].kind != WalRecordKind::kTxnCommit) {
        dangling = true;
        truncate_at = scan.record_offsets[i];
        break;
      }
      // Members share one writer (they were one transaction); the commit
      // marker's journaled CSN stamps the whole write set.
      MvccWriter group_writer;
      group_writer.txn_id =
          db->next_txn_id_.fetch_add(1, std::memory_order_relaxed);
      for (size_t k = i + 1; k < end; ++k) {
        const WalRecord& member = scan.records[k];
        if (member.lsn <= last_lsn) continue;
        BDBMS_RETURN_IF_ERROR(db->ReplayRecord(member, &group_writer));
        ++replayed;
      }
      const WalRecord& commit = scan.records[end];
      if (commit.lsn > last_lsn) {
        if (commit.csn != 0) {
          db->StampWriteSet(group_writer, commit.csn);
          db->AdvanceCsn(commit.csn);
        } else {
          group_writer.Clear();
        }
        db->ApplyReplayBases(commit);
      }
      last_lsn = std::max(last_lsn, commit.lsn);
      i = end + 1;
    }
    if (dangling) {
      BDBMS_RETURN_IF_ERROR(env->TruncateFile(wal_path, truncate_at));
    } else if (scan.tail_discarded) {
      // Cut the torn/corrupt tail so future appends extend valid data.
      BDBMS_RETURN_IF_ERROR(env->TruncateFile(wal_path, scan.valid_bytes));
    }
  }
  // Replay is serial and every replayed commit is final: no snapshot
  // survives a reopen, so every retained version is garbage.
  db->VacuumAllLocked(UINT64_MAX);

  auto dur = std::make_unique<Durable>();
  dur->dir = dir;
  dur->options = std::move(options);
  dur->env = env;
  dur->lock = std::move(lock);
  dur->last_lsn = last_lsn;
  dur->replayed_on_open = replayed;
  const bool wal_existed = env->FileExists(wal_path);
  BDBMS_ASSIGN_OR_RETURN(dur->wal, WalWriter::Open(env, wal_path));
  if (!wal_existed) {
    // The wal.log dirent itself must be durable before any fsync-acked
    // commit relies on it: file data survives a power cut only if the
    // directory entry does too (the LevelDB/SQLite create-then-sync-dir
    // pattern).
    BDBMS_RETURN_IF_ERROR(env->SyncDir(dir));
  }
  db->dur_ = std::move(dur);
  return db;
}

}  // namespace bdbms
