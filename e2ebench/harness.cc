#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <type_traits>

#include "index/secondary_index.h"
#include "net/client.h"
#include "net/server.h"
#include "sql/parser.h"

namespace e2ebench {

namespace fs = std::filesystem;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string Rng::Dna(size_t len) {
  static constexpr char kBases[] = "ACGT";
  std::string s(len, 'A');
  for (char& c : s) c = kBases[Below(4)];
  return s;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "e2ebench: FAILED CHECK: %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(2);
}

void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

bdbms::QueryResult MustExecute(bdbms::Database& db, const std::string& sql,
                               const std::string& user) {
  auto r = db.Execute(sql, user);
  if (!r.ok()) {
    Fail("statement failed: " + sql.substr(0, 200) + " -> " +
         r.status().ToString());
  }
  return std::move(r.value());
}

namespace {

// EXPLAIN accepts SELECT, UPDATE and DELETE.
bool Explainable(std::string_view sql) {
  for (std::string_view verb : {"SELECT ", "UPDATE ", "DELETE "}) {
    if (sql.substr(0, verb.size()) == verb) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// HostProbe
// ---------------------------------------------------------------------------

HostProbe::HostProbe() {
  // Nothing is freed while the probe is built, so the growth of the peak
  // resident size is the probe's own memory.
  const double rss_before = PeakRssMiB();
  auto start = Clock::now();
  sweep_.assign(1u << 20, 0);
  Rng rng(0x5eed);
  for (int i = 0; i < 200000; ++i) map_[rng.Next()] = i;
  for (int i = 0; i < 1000; ++i) keys_.push_back(rng.Next());
  overhead_s_ = SecondsSince(start);
  resident_mib_ = PeakRssMiB() - rss_before;
}

void HostProbe::Sample() {
  // Sweep more than the core's L2 first, so every probe starts from the
  // same cache state whatever statement ran before it: the timed lookups
  // then come from the shared last-level cache and memory, the parts of
  // the host its neighbours contend for.
  auto sweep_start = Clock::now();
  uint64_t acc = 0;
  for (size_t i = 0; i < sweep_.size(); i += 8) acc += ++sweep_[i];
  auto start = Clock::now();
  for (uint64_t key : keys_) {
    auto it = map_.lower_bound(key ^ next_);
    if (it != map_.end()) acc += it->second;
  }
  next_ += acc | 1;  // a new key set each time, and no dead code
  samples_.push_back({start, MicrosSince(start)});
  overhead_s_ += SecondsSince(sweep_start);
}

void HostProbe::MaybeSample() {
  if (samples_.empty() ||
      Clock::now() - samples_.back().first > std::chrono::milliseconds(10)) {
    Sample();
  }
}

double HostProbe::Scale(Clock::time_point start,
                        Clock::time_point end) const {
  const auto margin = std::chrono::milliseconds(25);
  auto before = [](const auto& s, Clock::time_point t) { return s.first < t; };
  std::vector<double> near;
  for (auto it = std::lower_bound(samples_.begin(), samples_.end(),
                                  start - margin, before);
       it != samples_.end() && it->first <= end + margin; ++it) {
    near.push_back(it->second);
  }
  if (near.empty()) {
    // Only a statement longer than the probe spacing gets here; take the
    // probes on either side of it.
    auto it = std::lower_bound(samples_.begin(), samples_.end(), start,
                               before);
    if (it != samples_.end()) near.push_back(it->second);
    if (it != samples_.begin()) near.push_back((it - 1)->second);
  }
  Check(!near.empty(), "host probe has samples");
  return kReferenceMicros / Quantile(near, 0.5);
}

// ---------------------------------------------------------------------------
// MixRecorder
// ---------------------------------------------------------------------------

bdbms::QueryResult MixRecorder::Run(bdbms::Database& db, bool write,
                                    const std::string& sql,
                                    const std::string& user) {
  auto start = Clock::now();
  auto r = db.Execute(sql, user);
  auto end = Clock::now();
  if (!r.ok()) {
    Fail("statement failed: " + sql.substr(0, 200) + " -> " +
         r.status().ToString());
  }
  Add(write, start, end);
  if (tracer_ != nullptr) {
    double us = samples_.back().micros;
    uint64_t root = tracer_->Root(write ? "stmt.write" : "stmt.read");
    tracer_->Span("exec.execute", root, start, end);
    double parse = tracer_->Time("sql.parse", root, [&] {
      Check(bdbms::ParseStatement(sql).ok(), "parse: " + sql.substr(0, 80));
    });
    double plan = 0;
    if (Explainable(sql)) {
      double explain = tracer_->Time("plan.explain", root, [&] {
        MustExecute(db, "EXPLAIN " + sql, user);
      });
      plan = std::max(0.0, explain - parse);
      tracer_->plan_us[write].push_back(plan);
    }
    tracer_->parse_us[write].push_back(parse);
    tracer_->self_us[write].push_back(std::max(0.0, us - parse - plan));
  }
  return std::move(r.value());
}

void MixRecorder::Add(bool write, Clock::time_point start,
                      Clock::time_point end) {
  samples_.push_back(
      {write, std::chrono::duration<double, std::micro>(end - start).count()});
  spans_.push_back({start, end});
  if (probe_ != nullptr) probe_->MaybeSample();
}

MixRecorder::Figures MixRecorder::Compute(bool scaled) const {
  std::vector<double> reads, writes;
  double busy_us = 0;
  for (size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    double us = s.micros;
    if (scaled) us *= probe_->Scale(spans_[i].first, spans_[i].second);
    (s.write ? writes : reads).push_back(us);
    busy_us += us;
  }
  Figures f;
  f.read_p50_us = Quantile(reads, 0.5);
  f.read_p90_us = Quantile(reads, 0.9);
  f.write_p50_us = Quantile(writes, 0.5);
  f.write_p90_us = Quantile(writes, 0.9);
  f.ops_per_s = busy_us > 0 ? samples_.size() / (busy_us * 1e-6) : 0;
  return f;
}

MixRecorder::Figures MixRecorder::Scaled() const { return Compute(true); }
MixRecorder::Figures MixRecorder::Plain() const { return Compute(false); }

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

uint64_t Tracer::Root(std::string name) {
  uint64_t id = next_id_++;
  double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  records_.push_back({id, 0, std::move(name), now, now});
  return id;
}

void Tracer::Span(std::string name, uint64_t parent, Clock::time_point start,
                  Clock::time_point end) {
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  records_.push_back({next_id_++, parent, std::move(name), us(start), us(end)});
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[512];
  for (const Record& r : records_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent), r.name.c_str(),
                  r.start_us, r.end_us);
    out << buf;
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

Metrics LayerMetrics() {
  Metrics m;
  for (const char* name :
       {"sql.parse_read_us", "sql.parse_write_us", "plan.plan_us",
        "exec.self_read_us", "exec.self_write_us", "index.btree_probe_us",
        "index.spgist_prefix_us", "index.spgist_regex_us",
        "index.spgist_topk_us", "index.spgist_align_us", "bio.align_us",
        "dep.propagate_us", "annot.add_us", "auth.approve_us",
        "net.rtt_overhead_us"}) {
    m[name] = {0, "us"};
  }
  for (const char* name :
       {"annot.annotations", "auth.pending_ops", "txn.versions_retained",
        "storage.pool_hits", "storage.pool_misses", "storage.pool_evictions",
        "storage.readahead", "storage.page_reads", "storage.page_writes",
        "wal.syncs", "wal.checkpoints", "wal.replayed_on_open"}) {
    m[name] = {0, "count"};
  }
  m["index.spgist_candidates_per_row"] = {0, "rows/row"};
  m["dep.cells_invalidated_per_update"] = {0, "cells/update"};
  m["table.scan_rows_per_s"] = {0, "rows/s"};
  m["storage.pool_hit_ratio"] = {0, "ratio"};
  m["wal.bytes_per_commit"] = {0, "B/commit"};
  m["wal.checkpoint_ms"] = {0, "ms"};
  return m;
}

void Set(Metrics& metrics, const std::string& name, double value) {
  auto it = metrics.find(name);
  Check(it != metrics.end(), "unknown metric " + name);
  it->second.value = value;
}

void SetMixMetrics(Metrics& metrics, const MixRecorder::Figures& f) {
  metrics["ops_per_s"] = {f.ops_per_s, "statements/s"};
  metrics["read_p50_us"] = {f.read_p50_us, "us"};
  metrics["read_p90_us"] = {f.read_p90_us, "us"};
  metrics["write_p50_us"] = {f.write_p50_us, "us"};
  metrics["write_p90_us"] = {f.write_p90_us, "us"};
}

void SetCommonLayerMetrics(Metrics& metrics, const Tracer& tracer,
                           bdbms::Database& db,
                           const std::vector<std::string>& tables) {
  Set(metrics, "sql.parse_read_us", Quantile(tracer.parse_us[0], 0.5));
  Set(metrics, "sql.parse_write_us", Quantile(tracer.parse_us[1], 0.5));
  Set(metrics, "plan.plan_us", Quantile(tracer.plan_us[0], 0.5));
  Set(metrics, "exec.self_read_us", Quantile(tracer.self_us[0], 0.5));
  Set(metrics, "exec.self_write_us", Quantile(tracer.self_us[1], 0.5));
  Set(metrics, "txn.versions_retained",
      static_cast<double>(db.version_count()));
  bdbms::BufferPoolStats pool;
  bdbms::IoStats io;
  for (const std::string& name : tables) {
    auto table = db.GetTable(name);
    Check(table.ok(), "no table " + name);
    bdbms::BufferPoolStats b = (*table)->buffer_stats();
    pool.hits += b.hits;
    pool.misses += b.misses;
    pool.evictions += b.evictions;
    pool.readahead += b.readahead;
    io.page_reads += (*table)->io_stats().page_reads;
    io.page_writes += (*table)->io_stats().page_writes;
  }
  Set(metrics, "storage.pool_hits", static_cast<double>(pool.hits));
  Set(metrics, "storage.pool_misses", static_cast<double>(pool.misses));
  Set(metrics, "storage.pool_evictions", static_cast<double>(pool.evictions));
  Set(metrics, "storage.readahead", static_cast<double>(pool.readahead));
  uint64_t lookups = pool.hits + pool.misses;
  Set(metrics, "storage.pool_hit_ratio",
      lookups ? static_cast<double>(pool.hits) / lookups : 0);
  Set(metrics, "storage.page_reads", static_cast<double>(io.page_reads));
  Set(metrics, "storage.page_writes", static_cast<double>(io.page_writes));
}

void SetWalMetrics(Metrics& metrics, const bdbms::DurabilityStats& stats,
                   uint64_t commits, double checkpoint_ms,
                   uint64_t replayed_on_open) {
  Set(metrics, "wal.bytes_per_commit",
      commits ? static_cast<double>(stats.wal_bytes_appended) / commits : 0);
  Set(metrics, "wal.syncs", static_cast<double>(stats.wal_syncs));
  Set(metrics, "wal.checkpoints", static_cast<double>(stats.checkpoints_taken));
  Set(metrics, "wal.checkpoint_ms", checkpoint_ms);
  Set(metrics, "wal.replayed_on_open", static_cast<double>(replayed_on_open));
}

double RttOverheadMicros(bdbms::Database& db,
                         const std::vector<std::string>& reads,
                         Tracer& tracer) {
  bdbms::Server::Options options;
  options.workers = 1;
  bdbms::Server server(&db, options);
  Check(server.Start().ok(), "server start");
  auto client = bdbms::Client::Connect("127.0.0.1", server.port(), "admin");
  Check(client.ok(), "client connect");
  uint64_t root = tracer.Root("net.rtt");
  std::vector<double> wire, local;
  for (const std::string& sql : reads) {
    wire.push_back(tracer.Time("net.client_execute", root, [&] {
      auto r = (*client)->Execute(sql);
      Check(r.ok() && r->ok, "client execute: " + sql.substr(0, 80));
    }));
    local.push_back(tracer.Time("net.local_execute", root, [&] {
      MustExecute(db, sql);
    }));
  }
  client->reset();
  server.Stop();
  return Quantile(wire, 0.5) - Quantile(local, 0.5);
}

double ScanRowsPerSecond(const bdbms::Table& table, Tracer& tracer,
                         uint64_t parent, int repeats) {
  std::vector<double> rate;
  for (int i = 0; i < repeats; ++i) {
    uint64_t rows = 0;
    double us = tracer.Time("table.scan", parent, [&] {
      Check(table.Scan([&](bdbms::RowId, const bdbms::Row&) {
        ++rows;
        return bdbms::Status::Ok();
      }).ok(), "scan");
    });
    rate.push_back(static_cast<double>(rows) / (us * 1e-6));
  }
  return Quantile(rate, 0.5);
}

double SetupSeconds(Clock::time_point process_start, const HostProbe& probe) {
  return SecondsSince(process_start) - probe.overhead_s();
}

// ---------------------------------------------------------------------------
// Process and directory helpers
// ---------------------------------------------------------------------------

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProgramPeakRssMiB(const HostProbe& probe) {
  return PeakRssMiB() - probe.resident_mib();
}

double DirSizeMiB(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void FreshDir(const std::string& dir) {
  RemoveDir(dir);
  fs::create_directories(dir);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

double TimeReopen(const std::string& dir, const std::string& scratch,
                  HostProbe& probe, uint64_t* replayed) {
  constexpr int kRepeats = 7;
  std::vector<double> seconds;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  for (int i = 0; i < kRepeats; ++i) {
    FreshDir(scratch);
    fs::copy(dir, scratch, fs::copy_options::recursive);
    probe.Sample();
    auto start = Clock::now();
    auto db = bdbms::Database::Open(scratch);
    auto end = Clock::now();
    probe.Sample();
    if (!db.ok()) Fail("reopen failed: " + db.status().ToString());
    *replayed = (*db)->durability_stats().replayed_on_open;
    Check((*db)->Close().ok(), "close after reopen");
    seconds.push_back(std::chrono::duration<double>(end - start).count());
    spans.push_back({start, end});
  }
  RemoveDir(scratch);
  for (int i = 0; i < kRepeats; ++i) {
    seconds[i] *= probe.Scale(spans[i].first, spans[i].second);
  }
  return Quantile(seconds, 0.5);
}

namespace {

PersistFigures PersistAndReopenHere(bdbms::Database& src,
                                    const std::vector<std::string>& tables,
                                    const std::string& dir,
                                    HostProbe& probe) {
  PersistFigures out;
  FreshDir(dir);
  {
    auto opened = bdbms::Database::Open(dir);
    if (!opened.ok()) Fail("open save dir: " + opened.status().ToString());
    bdbms::Database& dst = **opened;
    for (const std::string& name : tables) {
      auto table = src.GetTable(name);
      Check(table.ok(), "save: table " + name);
      const bdbms::TableSchema& schema = (*table)->schema();
      std::string ddl = "CREATE TABLE " + name + " (";
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        const bdbms::ColumnDef& col = schema.column(c);
        ddl += (c ? ", " : "") + col.name + " " +
               std::string(bdbms::DataTypeName(col.type));
      }
      MustExecute(dst, ddl + ")");
      bdbms::QueryResult rows = MustExecute(src, "SELECT * FROM " + name);
      std::string batch;
      size_t in_batch = 0;
      auto flush = [&] {
        if (in_batch == 0) return;
        MustExecute(dst, "INSERT INTO " + name + " VALUES " + batch);
        ++out.statements;
        batch.clear();
        in_batch = 0;
      };
      for (const bdbms::ResultRow& row : rows.rows) {
        batch += in_batch ? ", (" : "(";
        for (size_t c = 0; c < row.values.size(); ++c) {
          if (c) batch += ", ";
          const bdbms::Value& v = row.values[c];
          if (v.is_string()) {
            batch += "'" + v.as_string() + "'";
          } else {
            batch += v.ToString();
          }
        }
        batch += ")";
        if (++in_batch == 500) flush();
      }
      flush();
      for (const auto& index : (*table)->indexes()) {
        std::string cols;
        for (size_t c : index->columns()) {
          cols += (cols.empty() ? "" : ", ") + schema.column(c).name;
        }
        MustExecute(dst, "CREATE INDEX " + index->name() + " ON " + name +
                             " (" + cols + ")");
        ++out.statements;
      }
    }
    auto start = Clock::now();
    Check(dst.Checkpoint().ok(), "save: checkpoint");
    out.checkpoint_ms = MicrosSince(start) / 1000.0;
    out.save_stats = dst.durability_stats();
    Check(dst.Close().ok(), "save: close");
  }
  out.disk_mib = DirSizeMiB(dir);
  out.recovery_s =
      TimeReopen(dir, dir + ".reopen", probe, &out.replayed_on_open);
  return out;
}

}  // namespace

PersistFigures PersistAndReopen(bdbms::Database& src,
                                const std::vector<std::string>& tables,
                                const std::string& dir, HostProbe& probe) {
  static_assert(std::is_trivially_copyable_v<PersistFigures>);
  int fds[2];
  Check(pipe(fds) == 0, "pipe");
  std::fflush(nullptr);
  pid_t pid = fork();
  Check(pid >= 0, "fork");
  if (pid == 0) {
    close(fds[0]);
    PersistFigures out = PersistAndReopenHere(src, tables, dir, probe);
    bool sent = write(fds[1], &out, sizeof(out)) == sizeof(out);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  PersistFigures out;
  size_t got = 0;
  while (got < sizeof(out)) {
    ssize_t n = read(fds[0], reinterpret_cast<char*>(&out) + got,
                     sizeof(out) - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  Check(waitpid(pid, &status, 0) == pid, "wait for the save process");
  // A failed check in the child has printed its reason on stderr.
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("the save process failed");
  }
  Check(got == sizeof(out), "save figures from the save process");
  return out;
}

}  // namespace e2ebench
