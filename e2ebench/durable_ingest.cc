// Workload `durable_ingest`: a durable database (Database::Open) whose
// table is larger than its buffer pool.
//
// 100k Account rows, about 9.5 MiB of heap, against the default 64-frame
// (512 KiB) per-table pool. Flush policy: fsync per statement
// (group_commit_interval = 1) and an automatic checkpoint every 1024
// statements, the defaults. The mix reads single rows and 1000-row ranges
// through the AID index, updates rows in autocommit, and moves quantities
// between two rows in transactions. The run ends with Close and a timed
// reopen. It loads wal, storage and txn, and leaves annot, dep and the
// trie idle.
#include <map>

#include "index/secondary_index.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr int64_t kRows = 100000;
constexpr int64_t kRange = 1000;
constexpr size_t kClosingUpdates = 300;  // replayed by the reopen

struct Account {
  int64_t qty;
  std::string note;
};

class DurableIngest {
 public:
  DurableIngest(const Args& args, std::string dir)
      : rng_(args.seed), dir_(std::move(dir)) {}

  void Setup();
  void Round(MixRecorder& mix);
  // Untimed: SUM(Qty) over the whole table equals the conserved total.
  void CheckTotal(bdbms::Database& db) const;
  // Untimed: sampled rows read back with the model's values.
  void CheckSample(bdbms::Database& db, size_t n);
  // Fixed closing work, so every run's log tail replays the same count.
  void Close(Metrics* layers, Tracer* tracer);
  void TraceLayers(Metrics& m, Tracer& tracer);

  bdbms::Database& db() { return *db_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string NewNote() {
    return "note " + std::to_string(rng_.Next()) + " " + rng_.Dna(30);
  }
  std::string PointRead(int64_t aid) const {
    return "SELECT AID, Qty, Note FROM Account WHERE AID = " +
           std::to_string(aid);
  }
  void CheckRow(const bdbms::QueryResult& r, int64_t aid) const {
    Check(r.rows.size() == 1, "point read rows for " + std::to_string(aid));
    const Account& a = model_[aid];
    Check(r.rows[0].values[1].as_int() == a.qty &&
              r.rows[0].values[2].as_string() == a.note,
          "values of account " + std::to_string(aid));
  }
  void UpdateNote(MixRecorder& mix);

  Rng rng_;
  std::string dir_;
  std::unique_ptr<bdbms::Database> db_;
  std::vector<Account> model_;
  int64_t total_ = 0;
  uint64_t autocommits_ = 0;  // acknowledged autocommit statements
  uint64_t commits_ = 0;      // journaled commits, transactions as one
  uint64_t rounds_ = 0;
  std::vector<int64_t> read_keys_;
  std::vector<int64_t> updated_;
};

void DurableIngest::Setup() {
  FreshDir(dir_);
  auto opened = bdbms::Database::Open(dir_);
  if (!opened.ok()) Fail("open: " + opened.status().ToString());
  db_ = std::move(*opened);
  MustExecute(*db_, "CREATE TABLE Account (AID INT, Branch INT, Qty INT, "
                    "Note TEXT)");
  ++autocommits_;
  model_.resize(kRows);
  for (int64_t begin = 0; begin < kRows; begin += 1000) {
    std::string sql = "INSERT INTO Account VALUES ";
    for (int64_t aid = begin; aid < begin + 1000; ++aid) {
      Account& a = model_[aid];
      a.qty = static_cast<int64_t>(rng_.Between(100, 10000));
      a.note = NewNote();
      total_ += a.qty;
      sql += (aid == begin ? "(" : ", (") + std::to_string(aid) + ", " +
             std::to_string(aid % 97) + ", " + std::to_string(a.qty) + ", " +
             Quote(a.note) + ")";
    }
    MustExecute(*db_, sql);
    ++autocommits_;
  }
  MustExecute(*db_, "CREATE INDEX account_aid ON Account (AID)");
  MustExecute(*db_, "CHECKPOINT");
  autocommits_ += 2;
  commits_ = autocommits_;
}

void DurableIngest::UpdateNote(MixRecorder& mix) {
  int64_t aid = static_cast<int64_t>(rng_.Below(kRows));
  std::string note = NewNote();
  auto r = mix.Run(*db_, true,
                   "UPDATE Account SET Note = " + Quote(note) +
                       " WHERE AID = " + std::to_string(aid));
  Check(r.affected == 1, "update affected");
  model_[aid].note = note;
  updated_.push_back(aid);
  ++autocommits_;
  ++commits_;
}

void DurableIngest::Round(MixRecorder& mix) {
  auto point = [&] {
    int64_t aid = static_cast<int64_t>(rng_.Below(kRows));
    read_keys_.push_back(aid);
    CheckRow(mix.Run(*db_, false, PointRead(aid)), aid);
  };
  auto range = [&] {
    int64_t lo = static_cast<int64_t>(rng_.Below(kRows - kRange));
    auto r = mix.Run(*db_, false,
                     "SELECT COUNT(*), SUM(Qty) FROM Account WHERE AID >= " +
                         std::to_string(lo) + " AND AID < " +
                         std::to_string(lo + kRange));
    int64_t sum = 0;
    for (int64_t aid = lo; aid < lo + kRange; ++aid) sum += model_[aid].qty;
    Check(r.rows.size() == 1 && r.rows[0].values[0].as_int() == kRange &&
              r.rows[0].values[1].as_int() == sum,
          "range read at " + std::to_string(lo));
  };
  auto transfer = [&] {
    int64_t from = static_cast<int64_t>(rng_.Below(kRows));
    int64_t to = static_cast<int64_t>(rng_.Below(kRows - 1));
    if (to >= from) ++to;
    int64_t amount = static_cast<int64_t>(rng_.Between(1, 50));
    auto start = Clock::now();
    MustExecute(*db_, "BEGIN");
    auto a = MustExecute(*db_, "UPDATE Account SET Qty = Qty - " +
                                   std::to_string(amount) +
                                   " WHERE AID = " + std::to_string(from));
    auto b = MustExecute(*db_, "UPDATE Account SET Qty = Qty + " +
                                   std::to_string(amount) +
                                   " WHERE AID = " + std::to_string(to));
    MustExecute(*db_, "COMMIT");
    mix.Add(true, start, Clock::now());
    Check(a.affected == 1 && b.affected == 1, "transfer affected");
    model_[from].qty -= amount;
    model_[to].qty += amount;
    updated_.push_back(from);
    ++commits_;
  };

  point();
  point();
  UpdateNote(mix);
  point();
  range();
  point();
  transfer();
  point();
  UpdateNote(mix);
  point();
  range();
  point();
  UpdateNote(mix);
  if (++rounds_ % 100 == 0) CheckTotal(*db_);
}

void DurableIngest::CheckTotal(bdbms::Database& db) const {
  auto r = MustExecute(db, "SELECT COUNT(*), SUM(Qty) FROM Account");
  Check(r.rows[0].values[0].as_int() == kRows, "row count");
  Check(r.rows[0].values[1].as_int() == total_, "SUM(Qty) is conserved");
}

void DurableIngest::CheckSample(bdbms::Database& db, size_t n) {
  for (size_t i = 0; i < n && !updated_.empty(); ++i) {
    int64_t aid = updated_[rng_.Below(updated_.size())];
    CheckRow(MustExecute(db, PointRead(aid)), aid);
  }
}

void DurableIngest::Close(Metrics* layers, Tracer* tracer) {
  auto start = Clock::now();
  Check(db_->Checkpoint().ok(), "checkpoint");
  double checkpoint_ms = MicrosSince(start) / 1000.0;
  if (tracer != nullptr) {
    tracer->Span("wal.checkpoint", tracer->Root("close"), start, Clock::now());
  }
  MixRecorder untimed(nullptr, nullptr);
  for (size_t i = 0; i < kClosingUpdates; ++i) UpdateNote(untimed);

  bdbms::DurabilityStats stats = db_->durability_stats();
  Check(stats.wal_syncs >= autocommits_,
        "wal.syncs covers every acknowledged autocommit statement");
  auto table = db_->GetTable("Account");
  Check(table.ok() && (*table)->buffer_stats().evictions > 0,
        "the table exceeds its buffer pool");
  if (layers != nullptr) {
    SetCommonLayerMetrics(*layers, *tracer, *db_, {"Account"});
    SetWalMetrics(*layers, stats, commits_, checkpoint_ms, 0);
  }
  Check(db_->Close().ok(), "close");
  db_.reset();
}

void DurableIngest::TraceLayers(Metrics& m, Tracer& tracer) {
  auto table = db_->GetTable("Account");
  Check(table.ok(), "Account table");
  const bdbms::SecondaryIndex* index = (*table)->FindIndex("account_aid");
  Check(index != nullptr, "account_aid index");
  uint64_t root = tracer.Root("layers");
  std::vector<double> probe;
  for (int64_t aid : read_keys_) {
    probe.push_back(tracer.Time("index.btree_probe", root, [&] {
      auto rows = index->FindEqual(bdbms::Value::Int(aid));
      Check(rows.ok() && rows->size() == 1, "btree probe");
    }));
  }
  Set(m, "index.btree_probe_us", Quantile(probe, 0.5));

  Set(m, "table.scan_rows_per_s", ScanRowsPerSecond(**table, tracer, root, 1));

  std::vector<std::string> reads;
  for (size_t i = 0; i < 300 && i < read_keys_.size(); ++i) {
    reads.push_back(PointRead(read_keys_[i]));
  }
  Set(m, "net.rtt_overhead_us", RttOverheadMicros(*db_, reads, tracer));
}

}  // namespace

Outcome RunDurableIngest(const Args& args, Clock::time_point process_start,
                         HostProbe& probe, Tracer* tracer) {
  DurableIngest w(args, args.workdir + "/ingest-db");
  w.Setup();
  const double setup_s = SetupSeconds(process_start, probe);
  Outcome out;

  MixRecorder mix(&probe, tracer);
  auto start = Clock::now();
  while (SecondsSince(start) < args.seconds) w.Round(mix);
  const double setup_scale = probe.Scale(start, Clock::now());
  out.attempted = mix.statements();
  w.CheckTotal(w.db());
  w.CheckSample(w.db(), 200);

  if (tracer != nullptr) {
    out.metrics = LayerMetrics();
    w.TraceLayers(out.metrics, *tracer);
  }
  w.Close(tracer != nullptr ? &out.metrics : nullptr, tracer);
  double peak_rss = ProgramPeakRssMiB(probe);
  double disk_mib = DirSizeMiB(w.dir());
  uint64_t replayed = 0;
  double recovery_s =
      TimeReopen(w.dir(), w.dir() + ".reopen", probe, &replayed);
  Check(replayed == kClosingUpdates, "reopen replays the closing updates");

  // The reopened database holds every acknowledged write.
  auto reopened = bdbms::Database::Open(w.dir());
  if (!reopened.ok()) Fail("reopen: " + reopened.status().ToString());
  w.CheckTotal(**reopened);
  w.CheckSample(**reopened, 200);
  Check((*reopened)->Close().ok(), "close after check");

  if (tracer != nullptr) {
    Set(out.metrics, "wal.replayed_on_open", static_cast<double>(replayed));
  } else {
    out.metrics["setup_s"] = {setup_s * setup_scale, "s"};
    SetMixMetrics(out.metrics, mix.Scaled());
    out.metrics["peak_rss_mib"] = {peak_rss, "MiB"};
    out.metrics["recovery_s"] = {recovery_s, "s"};
    out.metrics["disk_mib"] = {disk_mib, "MiB"};
  }
  out.reference["setup_s"] = {setup_s, "s"};
  SetMixMetrics(out.reference, mix.Plain());
  return out;
}

}  // namespace e2ebench
