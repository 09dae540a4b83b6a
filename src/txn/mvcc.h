#ifndef BDBMS_TXN_MVCC_H_
#define BDBMS_TXN_MVCC_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace bdbms {

class Table;
class AnnotationTable;

// A consistent point-in-time view of the database under snapshot
// isolation. `csn` is the newest commit sequence number whose effects the
// snapshot sees; `txn_id` identifies the owning transaction so it also
// sees its own uncommitted writes (read-your-own-writes). Captured at
// BEGIN for explicit transactions (and moved up to the newest commit when
// one escalates to the exclusive gate) and per statement in autocommit.
struct MvccSnapshot {
  uint64_t csn = 0;
  uint64_t txn_id = 0;  // 0 = pure reader with no writes of its own
};

// Write-side identity and write set of one in-flight transaction (or of
// one autocommit statement, which is its own mini-transaction). Mutation
// paths in Table/AnnotationTable consult the ambient MvccState: when a
// writer is installed they create row versions tagged with `txn_id` and
// record what they touched here, so commit can stamp every created
// version with the commit CSN in one pass and abort can be driven by the
// undo log alone.
struct MvccWriter {
  uint64_t txn_id = 0;
  uint64_t snapshot_csn = 0;  // first-updater-wins conflict baseline

  // Distinct (table, row) / (annotation table, annotation id) touch
  // points needing a commit stamp. Duplicates are harmless: stamping is
  // idempotent (it only fills CSN fields that are still zero and owned
  // by this txn).
  std::vector<std::pair<Table*, uint64_t>> rows;
  std::vector<std::pair<AnnotationTable*, uint64_t>> annotations;

  void Clear() {
    rows.clear();
    annotations.clear();
  }
};

// The ambient MVCC context shared by the engine facade and every storage
// object. `writer` is non-null exactly while a mutating statement
// executes (autocommit or inside a transaction, under either side of the
// gate) — installed and cleared under the engine's writer mutex, so
// storage mutators never observe a torn pointer.
struct MvccState {
  MvccWriter* writer = nullptr;
};

// The engine gate: a reader/writer lock like the PR-6 std::shared_mutex
// engine lock, but explicitly NOT thread-affine — an escalated
// transaction may acquire the exclusive side from one worker thread of
// the session pool and release it from another, which std::shared_mutex
// forbids. Writer-preferring so an escalation cannot starve behind a
// stream of readers.
class EngineGate {
 public:
  void LockShared() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !exclusive_ && waiting_exclusive_ == 0; });
    ++shared_;
  }

  void UnlockShared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--shared_ == 0) cv_.notify_all();
  }

  void LockExclusive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_exclusive_;
    cv_.wait(lock, [&] { return !exclusive_ && shared_ == 0; });
    --waiting_exclusive_;
    exclusive_ = true;
  }

  void UnlockExclusive() {
    std::lock_guard<std::mutex> lock(mu_);
    exclusive_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int shared_ = 0;
  int waiting_exclusive_ = 0;
  bool exclusive_ = false;
};

// Scoped shared hold on the gate (one read-only or concurrent-DML
// statement).
class SharedGateLock {
 public:
  explicit SharedGateLock(EngineGate* gate) : gate_(gate) {
    gate_->LockShared();
  }
  ~SharedGateLock() {
    if (gate_) gate_->UnlockShared();
  }
  SharedGateLock(const SharedGateLock&) = delete;
  SharedGateLock& operator=(const SharedGateLock&) = delete;

 private:
  EngineGate* gate_;
};

// Scoped exclusive hold (one exclusive autocommit statement or
// CHECKPOINT). Escalated transactions manage the exclusive side manually
// because the hold spans statements and threads.
class ExclusiveGateLock {
 public:
  explicit ExclusiveGateLock(EngineGate* gate) : gate_(gate) {
    gate_->LockExclusive();
  }
  ~ExclusiveGateLock() {
    if (gate_) gate_->UnlockExclusive();
  }
  ExclusiveGateLock(const ExclusiveGateLock&) = delete;
  ExclusiveGateLock& operator=(const ExclusiveGateLock&) = delete;

  // Hands the hold to a manual owner (an escalating transaction).
  void Release() { gate_ = nullptr; }

 private:
  EngineGate* gate_;
};

}  // namespace bdbms

#endif  // BDBMS_TXN_MVCC_H_
