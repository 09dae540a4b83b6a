// Shared machinery of the end-to-end benchmark: argument parsing, the
// seeded generator, the host probe, the closed-loop statement timer,
// the span recorder of the traced mode, and result output.
#ifndef BDBMS_E2EBENCH_HARNESS_H_
#define BDBMS_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MicrosSince(Clock::time_point start);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/e2ebench-data";
};

// splitmix64: the benchmark's only source of randomness, so one seed
// gives one input set on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next();
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  std::string Dna(size_t len);

 private:
  uint64_t state_;
};

// Quantile q in [0, 1] with linear interpolation between order
// statistics (Python's statistics.quantiles "inclusive" method).
double Quantile(std::vector<double> values, double q);

// The benchmark stops at the first wrong answer: it prints the reason on
// stderr and exits non-zero without a result line.
[[noreturn]] void Fail(const std::string& what);
void Check(bool ok, const std::string& what);

// `s` as an SQL string literal (the generated values hold no quotes).
inline std::string Quote(const std::string& s) { return "'" + s + "'"; }

// Executes `sql` and fails the benchmark on an error status.
bdbms::QueryResult MustExecute(bdbms::Database& db, const std::string& sql,
                               const std::string& user = "admin");

// The host's current speed, measured by a fixed probe of the benchmark's
// own: 1000 lookups in a std::map of 200k random keys (about 10 MiB of
// nodes), pointer chasing like the engine's own structures, after a
// sweep that leaves the core's caches in the same state whatever ran
// before.
//
// On a shared 4-vCPU VM the host slows every statement by up to 1.5x in
// stretches of 0.1 s and more, through contention in the memory system
// rather than preemption, and the probe slows with it.
// Each timed figure is therefore scaled by a fixed reference probe time
// over the probe time around it (for the set-up, over the mix that
// follows it): a statement, a reopen or the set-up counts at the host
// speed where one probe takes kReferenceMicros, so neither a slow phase
// within a run nor a host that is slow for a whole run or a whole set of
// runs moves the figures.
//
// main() builds the probe first, in the fresh heap, so its memory layout
// is the same in every process, and the memory it holds and the time it
// takes can be told apart from the program's.
class HostProbe {
 public:
  HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // Runs the probe now and records it.
  void Sample();
  // Runs the probe if none ran in the last 10 ms.
  void MaybeSample();
  // The probe time the scaled figures are stated at, microseconds: about
  // the probe's time in the fast phases of the 4-vCPU Xeon VM.
  static constexpr double kReferenceMicros = 1000;
  // kReferenceMicros over the median probe time within 25 ms of
  // [start, end]: the factor that states a figure timed over
  // [start, end] at the reference host speed.
  double Scale(Clock::time_point start, Clock::time_point end) const;
  // Seconds spent building the probe and running it so far.
  double overhead_s() const { return overhead_s_; }
  // Resident memory the probe added when it was built, MiB.
  double resident_mib() const { return resident_mib_; }

 private:
  std::vector<uint64_t> sweep_;  // 8 MiB
  std::vector<uint64_t> keys_;
  std::map<uint64_t, uint64_t> map_;
  uint64_t next_ = 0;
  std::vector<std::pair<Clock::time_point, double>> samples_;
  double overhead_s_ = 0;
  double resident_mib_ = 0;
};

class Tracer;

// Closed-loop recorder of the timed mix. One caller issues one statement
// at a time; every statement is a read or a write, and the mix is a
// sequence of identical rounds, each run attempting whole rounds only.
// The host probe runs between statements, outside their latency.
class MixRecorder {
 public:
  // `tracer` is null in the end-to-end mode; `probe` is null for untimed
  // statements, whose figures are never read.
  MixRecorder(HostProbe* probe, Tracer* tracer)
      : probe_(probe), tracer_(tracer) {}

  // Times one statement, fails the benchmark on an error status. In the
  // traced mode it then times, outside the statement's own latency, the
  // parse (ParseStatement) and the plan (EXPLAIN less parse) of the same
  // text, so the statement's self time in the executor is the rest.
  bdbms::QueryResult Run(bdbms::Database& db, bool write,
                         const std::string& sql,
                         const std::string& user = "admin");
  // Records a statement (or transaction) timed by the caller.
  void Add(bool write, Clock::time_point start, Clock::time_point end);

  // Latency of the most recent statement, microseconds.
  double last_micros() const { return samples_.back().micros; }
  uint64_t statements() const { return samples_.size(); }

  struct Figures {
    double read_p50_us = 0, read_p90_us = 0;
    double write_p50_us = 0, write_p90_us = 0;
    double ops_per_s = 0;
  };
  // The reported figures: latencies scaled to the reference host speed
  // (HostProbe).
  Figures Scaled() const;
  // Plain figures as measured.
  Figures Plain() const;

 private:
  struct Sample {
    bool write;
    double micros;
  };
  Figures Compute(bool scaled) const;

  HostProbe* probe_;
  Tracer* tracer_;
  std::vector<Sample> samples_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans_;
};

// Spans of the traced mode: one per timed call into a layer, kept in
// memory and written out as JSON lines when the run ends.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Starts a root span (one statement of the mix); returns its id.
  uint64_t Root(std::string name);
  // Records a finished span caused by `parent`.
  void Span(std::string name, uint64_t parent, Clock::time_point start,
            Clock::time_point end);
  // Times `fn` as a span caused by `parent`; returns its microseconds.
  template <typename Fn>
  double Time(std::string name, uint64_t parent, Fn&& fn) {
    auto start = Clock::now();
    fn();
    auto end = Clock::now();
    Span(std::move(name), parent, start, end);
    return std::chrono::duration<double, std::micro>(end - start).count();
  }

  bool WriteJsonLines(const std::string& path) const;

  // Per-statement derived times of the traced mix, by class.
  std::vector<double> parse_us[2];  // [write]
  std::vector<double> plan_us[2];
  std::vector<double> self_us[2];

 private:
  struct Record {
    uint64_t id;
    uint64_t parent;
    std::string name;
    double start_us;
    double end_us;
  };
  Clock::time_point epoch_ = Clock::now();
  uint64_t next_id_ = 1;
  std::vector<Record> records_;
};

// One named metric of the result line.
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Every per-layer metric of the traced mode with its unit, all zero. A
// workload sets the ones its layers exercise; a layer the workload leaves
// idle reports zero work.
Metrics LayerMetrics();
// Sets an existing metric; an unknown name fails the benchmark.
void Set(Metrics& metrics, const std::string& name, double value);

// The end-to-end figures of the timed mix, shared by every workload.
void SetMixMetrics(Metrics& metrics, const MixRecorder::Figures& f);

// Fills the traced-mode metrics every workload derives the same way:
// parse/plan/self times from the traced mix, storage counters of
// `tables`, and the retained MVCC versions.
void SetCommonLayerMetrics(Metrics& metrics, const Tracer& tracer,
                           bdbms::Database& db,
                           const std::vector<std::string>& tables);

// The wal.* metrics from a durable instance's counters; `commits` is the
// number of journaled commits (autocommit statements and transactions).
void SetWalMetrics(Metrics& metrics, const bdbms::DurabilityStats& stats,
                   uint64_t commits, double checkpoint_ms,
                   uint64_t replayed_on_open);

// Round trip of `reads` through a loopback Server/Client pair less the
// same statements executed in process (medians, interleaved one by one),
// in microseconds.
double RttOverheadMicros(bdbms::Database& db,
                         const std::vector<std::string>& reads,
                         Tracer& tracer);

// Rows per second of Table::Scan over `table`, median of `repeats` scans.
double ScanRowsPerSecond(const bdbms::Table& table, Tracer& tracer,
                         uint64_t parent, int repeats);

// Seconds from `process_start` to now less the host probe's own time so
// far: the set-up of a workload, its data set and indexes. The probe
// does not run inside the set-up, so the set-up is scaled by the host
// speed over the timed mix that follows it.
double SetupSeconds(Clock::time_point process_start, const HostProbe& probe);

// What a workload hands back to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;      // end-to-end (untraced) or per-layer (traced)
  Metrics reference;    // plain whole-run figures, printed for the README
};

// Peak resident set size of this process, MiB.
double PeakRssMiB();
// Peak resident memory of the program: PeakRssMiB() less what the host
// probe holds, which stays resident from the start of the process on.
double ProgramPeakRssMiB(const HostProbe& probe);
// Total size of the regular files under `dir`, MiB.
double DirSizeMiB(const std::string& dir);
// Removes and recreates an empty directory.
void FreshDir(const std::string& dir);
void RemoveDir(const std::string& dir);

// Persists `tables` of an in-memory database into a fresh durable
// database at `dir` (same schema, rows and B+-tree indexes), closes it,
// and times a reopen. Used by the in-memory workloads for recovery_s and
// disk_mib: what their data set costs on disk and to reopen.
//
// It runs in a child process, right after the set-up: the save's memory
// stays out of this process's peak resident size, its heap churn out of
// the timed mix, and every reopen starts from the same heap, the one the
// set-up left. (Reopens after the mix, in a heap the mix had churned,
// varied by about twice as much from run to run.)
struct PersistFigures {
  double recovery_s = 0;
  double disk_mib = 0;
  bdbms::DurabilityStats save_stats;    // of the saving instance
  uint64_t replayed_on_open = 0;
  double checkpoint_ms = 0;
  uint64_t statements = 0;              // journaled by the save
};
PersistFigures PersistAndReopen(bdbms::Database& src,
                                const std::vector<std::string>& tables,
                                const std::string& dir, HostProbe& probe);

// Times Database::Open of the closed directory `dir`: the median of 7
// opens, each of a fresh copy so every open replays the same log, each
// scaled by the host probe like the mix's latencies, from one probe on
// either side of it. (Probes run back to back find the probe's map warm
// in the shared cache and read faster.) Also returns the records the
// open replayed.
double TimeReopen(const std::string& dir, const std::string& scratch,
                  HostProbe& probe, uint64_t* replayed);

}  // namespace e2ebench

#endif  // BDBMS_E2EBENCH_HARNESS_H_
