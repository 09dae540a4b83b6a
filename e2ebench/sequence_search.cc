// Workload `sequence_search`: a read-mostly corpus of short DNA reads
// with an SP-GiST sequence index, in memory.
//
// Reads are 30-60 base substrings of a random reference genome with 2%
// substitutions, so they share prefixes and substrings like sequencing
// reads do. The mix asks prefix LIKE, anchored MATCHES, leading-wildcard
// LIKE, ORDER BY DISTANCE(...) LIMIT k and ALIGN(...) >= s, and inserts
// and deletes a small share of reads, which maintains the trie. It loads
// index/spgist and bio, and leaves dep, auth and the WAL idle.
#include <algorithm>
#include <map>

#include "bio/alignment.h"
#include "index/secondary_index.h"
#include "index/sequence_index.h"
#include "index/spgist/regex.h"
#include "oracle.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr size_t kReads = 20000;
constexpr size_t kGenome = 100000;
constexpr size_t kTopK = 5;
constexpr int kAlignScore = 24;  // twelve matching bases

class SequenceSearch {
 public:
  explicit SequenceSearch(const Args& args) : rng_(args.seed) {}

  void Setup();
  void Round(MixRecorder& mix);
  void TraceLayers(Metrics& m, Tracer& tracer);
  bdbms::Database& db() { return db_; }

 private:
  std::string NewRead() {
    size_t len = rng_.Between(30, 60);
    std::string s = genome_.substr(rng_.Below(kGenome - len), len);
    for (char& c : s) {
      if (rng_.Below(50) == 0) c = "ACGT"[rng_.Below(4)];
    }
    return s;
  }
  const std::string& SomeRead() {
    auto it = live_.lower_bound(static_cast<int64_t>(rng_.Below(next_rid_)));
    if (it == live_.end()) it = live_.begin();
    return it->second;
  }
  static std::vector<int64_t> Rids(const bdbms::QueryResult& r) {
    std::vector<int64_t> out;
    for (const auto& row : r.rows) out.push_back(row.values[0].as_int());
    std::sort(out.begin(), out.end());
    return out;
  }
  template <typename Pred>
  std::vector<int64_t> ModelRids(Pred pred) const {
    std::vector<int64_t> out;
    for (const auto& [rid, seq] : live_) {
      if (pred(seq)) out.push_back(rid);
    }
    return out;
  }

  // Query generators shared by the mix and the traced probes.
  std::string Prefix() { return SomeRead().substr(0, rng_.Between(8, 12)); }
  std::string Regex() {
    const std::string& s = SomeRead();
    std::string cls = {s[6], "ACGT"[rng_.Below(4)]};
    return s.substr(0, 6) + "[" + cls + "]" + s.substr(7, 2) + ".*";
  }
  std::string Infix() {
    const std::string& s = SomeRead();
    return s.substr(rng_.Below(s.size() - 8), 8);
  }
  std::string Mutated() {
    std::string q = SomeRead();
    for (int i = 0; i < 2; ++i) q[rng_.Below(q.size())] = "ACGT"[rng_.Below(4)];
    return q;
  }
  std::string Probe() { return genome_.substr(rng_.Below(kGenome - 16), 16); }

  Rng rng_;
  bdbms::Database db_;
  std::string genome_;
  std::map<int64_t, std::string> live_;  // RID -> sequence
  int64_t next_rid_ = 0;
  uint64_t rounds_ = 0;
};

void SequenceSearch::Setup() {
  genome_ = rng_.Dna(kGenome);
  MustExecute(db_, "CREATE TABLE Reads (RID INT, Seq SEQUENCE)");
  for (size_t begin = 0; begin < kReads; begin += 1000) {
    std::string sql = "INSERT INTO Reads VALUES ";
    for (size_t i = begin; i < begin + 1000; ++i) {
      std::string seq = NewRead();
      sql += (i == begin ? "(" : ", (") + std::to_string(next_rid_) + ", " +
             Quote(seq) + ")";
      live_[next_rid_++] = seq;
    }
    MustExecute(db_, sql);
  }
  MustExecute(db_, "CREATE INDEX reads_rid ON Reads (RID)");
  MustExecute(db_,
              "CREATE SEQUENCE INDEX reads_seq ON Reads (Seq) USING SPGIST");
}

void SequenceSearch::Round(MixRecorder& mix) {
  // The oracle scans of the slow query classes cost about as much as the
  // queries; they check every other round.
  const bool deep_check = rounds_ % 2 == 0;
  auto prefix = [&] {
    std::string p = Prefix();
    auto r = mix.Run(db_, false,
                     "SELECT RID FROM Reads WHERE Seq LIKE " +
                         Quote(p + "%"));
    Check(Rids(r) == ModelRids([&](const std::string& s) {
            return s.compare(0, p.size(), p) == 0;
          }),
          "prefix LIKE " + p);
  };
  auto regex = [&] {
    std::string re = Regex();
    auto r = mix.Run(db_, false,
                     "SELECT RID FROM Reads WHERE Seq MATCHES " + Quote(re));
    std::string lit = re.substr(0, 6);
    Check(Rids(r) == ModelRids([&](const std::string& s) {
            return s.compare(0, 6, lit) == 0 && oracle::RegexMatch(s, re);
          }),
          "MATCHES " + re);
  };
  auto infix = [&] {
    std::string like = "%" + Infix() + "%";
    auto r = mix.Run(db_, false,
                     "SELECT RID FROM Reads WHERE Seq LIKE " + Quote(like));
    if (!deep_check) return;
    Check(Rids(r) == ModelRids([&](const std::string& s) {
            return oracle::Like(s, like);
          }),
          "leading-wildcard LIKE " + like);
  };
  auto topk = [&] {
    std::string q = Mutated();
    auto r = mix.Run(db_, false,
                     "SELECT RID, Seq FROM Reads ORDER BY DISTANCE(Seq, " +
                         Quote(q) + ") LIMIT " + std::to_string(kTopK));
    Check(r.rows.size() == kTopK, "top-k size");
    std::vector<int> got;
    for (const auto& row : r.rows) {
      auto it = live_.find(row.values[0].as_int());
      Check(it != live_.end() && it->second == row.values[1].as_string(),
            "top-k row is live");
      got.push_back(oracle::Levenshtein(it->second, q));
    }
    if (!deep_check) return;
    std::vector<int> all;
    for (const auto& [rid, seq] : live_) {
      all.push_back(oracle::Levenshtein(seq, q));
    }
    std::partial_sort(all.begin(), all.begin() + kTopK, all.end());
    all.resize(kTopK);
    std::sort(got.begin(), got.end());
    Check(got == all, "top-k distances for " + q);
  };
  auto align = [&] {
    std::string q = Probe();
    auto r = mix.Run(db_, false,
                     "SELECT RID FROM Reads WHERE ALIGN(Seq, " + Quote(q) +
                         ") >= " + std::to_string(kAlignScore));
    if (!deep_check) return;
    Check(Rids(r) == ModelRids([&](const std::string& s) {
            return oracle::SmithWaterman(s, q) >= kAlignScore;
          }),
          "ALIGN >= for " + q);
  };
  auto insert = [&] {
    std::string seq = NewRead();
    auto r = mix.Run(db_, true,
                     "INSERT INTO Reads VALUES (" +
                         std::to_string(next_rid_) + ", " + Quote(seq) + ")");
    Check(r.affected == 1, "insert affected");
    live_[next_rid_++] = seq;
  };
  auto erase = [&] {
    auto it = live_.lower_bound(static_cast<int64_t>(rng_.Below(next_rid_)));
    if (it == live_.end()) it = live_.begin();
    auto r = mix.Run(db_, true,
                     "DELETE FROM Reads WHERE RID = " +
                         std::to_string(it->first));
    Check(r.affected == 1, "delete affected");
    live_.erase(it);
  };

  // Per round 10 prefix, 3 regex and 3 slow reads (top-k, leading
  // wildcard, ALIGN): the median falls inside the prefix class and the
  // 90th percentile inside the slow class, each away from a class edge.
  prefix();
  regex();
  topk();
  prefix();
  prefix();
  insert();
  prefix();
  regex();
  infix();
  prefix();
  prefix();
  prefix();
  erase();
  prefix();
  align();
  regex();
  prefix();
  prefix();
  ++rounds_;
}

void SequenceSearch::TraceLayers(Metrics& m, Tracer& tracer) {
  SetCommonLayerMetrics(m, tracer, db_, {"Reads"});
  auto table = db_.GetTable("Reads");
  Check(table.ok(), "Reads table");
  const bdbms::SequenceIndex* trie = (*table)->FindSequenceIndex("reads_seq");
  const bdbms::SecondaryIndex* rid = (*table)->FindIndex("reads_rid");
  Check(trie != nullptr && rid != nullptr, "indexes");
  uint64_t root = tracer.Root("layers");

  // Direct trie probes with the mix's query shapes; candidates are what
  // the trie returns, answers what the SQL statement returns.
  double candidates = 0, answers = 0;
  std::vector<double> prefix_us, regex_us, topk_us, align_us, sw_us, btree;
  for (int i = 0; i < 40; ++i) {
    std::string p = Prefix();
    size_t n = 0;
    prefix_us.push_back(tracer.Time("index.spgist_prefix", root, [&] {
      auto rows = trie->FindPrefix(p);
      Check(rows.ok(), "FindPrefix");
      n = rows->size();
    }));
    candidates += n;
    answers += MustExecute(db_, "SELECT RID FROM Reads WHERE Seq LIKE " +
                                    Quote(p + "%"))
                   .rows.size();

    std::string re = Regex();
    auto program = bdbms::RegexProgram::Compile(re);
    Check(program.ok(), "regex compile");
    regex_us.push_back(tracer.Time("index.spgist_regex", root, [&] {
      auto rows = trie->FindRegex(*program);
      Check(rows.ok(), "FindRegex");
      n = rows->size();
    }));
    candidates += n;
    answers += MustExecute(db_, "SELECT RID FROM Reads WHERE Seq MATCHES " +
                                    Quote(re))
                   .rows.size();

    if (i % 4 != 0) continue;
    std::string q = Mutated();
    topk_us.push_back(tracer.Time("index.spgist_topk", root, [&] {
      auto rows = trie->FindNearest(
          q, kTopK, [](bdbms::RowId, const std::string&) { return true; });
      Check(rows.ok(), "FindNearest");
      n = rows->size();
    }));
    candidates += n;
    answers += kTopK;

    std::string probe = Probe();
    std::vector<bdbms::RowId> hits;
    align_us.push_back(tracer.Time("index.spgist_align", root, [&] {
      auto rows = trie->FindAlign(probe, kAlignScore, false);
      Check(rows.ok(), "FindAlign");
      hits = *rows;
    }));
    candidates += hits.size();
    answers += MustExecute(db_, "SELECT RID FROM Reads WHERE ALIGN(Seq, " +
                                    Quote(probe) + ") >= " +
                                    std::to_string(kAlignScore))
                   .rows.size();
    for (bdbms::RowId row : hits) {
      auto cell = (*table)->Get(row);
      Check(cell.ok(), "candidate row");
      const std::string seq = (*cell)[1].as_string();
      sw_us.push_back(tracer.Time("bio.align", root, [&] {
        Check(bdbms::SmithWatermanScore(seq, probe) >= kAlignScore,
              "candidate score");
      }));
    }
  }
  for (int i = 0; i < 2000; ++i) {
    int64_t key = static_cast<int64_t>(rng_.Below(next_rid_));
    btree.push_back(tracer.Time("index.btree_probe", root, [&] {
      Check(rid->FindEqual(bdbms::Value::Int(key)).ok(), "btree probe");
    }));
  }
  Set(m, "index.spgist_prefix_us", Quantile(prefix_us, 0.5));
  Set(m, "index.spgist_regex_us", Quantile(regex_us, 0.5));
  Set(m, "index.spgist_topk_us", Quantile(topk_us, 0.5));
  Set(m, "index.spgist_align_us", Quantile(align_us, 0.5));
  Set(m, "index.spgist_candidates_per_row",
      answers > 0 ? candidates / answers : 0);
  Set(m, "bio.align_us", Quantile(sw_us, 0.5));
  Set(m, "index.btree_probe_us", Quantile(btree, 0.5));

  Set(m, "table.scan_rows_per_s",
      ScanRowsPerSecond(**table, tracer, root, 3));

  std::vector<std::string> reads;
  for (int i = 0; i < 300; ++i) {
    reads.push_back("SELECT RID FROM Reads WHERE Seq LIKE " +
                    Quote(Prefix() + "%"));
  }
  Set(m, "net.rtt_overhead_us", RttOverheadMicros(db_, reads, tracer));
}

}  // namespace

Outcome RunSequenceSearch(const Args& args, Clock::time_point process_start,
                          HostProbe& probe, Tracer* tracer) {
  SequenceSearch w(args);
  w.Setup();
  const double setup_s = SetupSeconds(process_start, probe);
  Outcome out;
  PersistFigures saved = PersistAndReopen(w.db(), {"Reads"},
                                          args.workdir + "/reads-save", probe);

  MixRecorder mix(&probe, tracer);
  auto start = Clock::now();
  while (SecondsSince(start) < args.seconds) w.Round(mix);
  const double setup_scale = probe.Scale(start, Clock::now());
  out.attempted = mix.statements();
  double peak_rss = ProgramPeakRssMiB(probe);

  if (tracer != nullptr) {
    out.metrics = LayerMetrics();
    w.TraceLayers(out.metrics, *tracer);
  }
  if (tracer != nullptr) {
    SetWalMetrics(out.metrics, saved.save_stats, saved.statements,
                  saved.checkpoint_ms, saved.replayed_on_open);
  } else {
    out.metrics["setup_s"] = {setup_s * setup_scale, "s"};
    SetMixMetrics(out.metrics, mix.Scaled());
    out.metrics["peak_rss_mib"] = {peak_rss, "MiB"};
    out.metrics["recovery_s"] = {saved.recovery_s, "s"};
    out.metrics["disk_mib"] = {saved.disk_mib, "MiB"};
  }
  out.reference["setup_s"] = {setup_s, "s"};
  SetMixMetrics(out.reference, mix.Plain());
  return out;
}

}  // namespace e2ebench
