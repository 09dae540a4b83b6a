// Workload `curation`: the paper's E. coli curation scenario, in memory.
//
// Gene and Protein tables (one protein per gene) with B+-tree indexes on
// GID; Gene.GSequence -> Protein.PSequence through the executable
// prediction tool P, and Protein.PSequence -> Protein.PFunction through a
// non-executable lab experiment; an annotation table on Gene; content
// approval on Gene.GName for the lab member alice. It loads sql, plan,
// annot, auth and dep, and leaves the trie, the WAL and the buffer pool
// idle.
#include <cstdio>
#include <deque>

#include "bio/alignment.h"
#include "index/secondary_index.h"
#include "oracle.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr size_t kGenes = 20000;
constexpr size_t kBatch = 500;        // rows per INSERT of the load
constexpr size_t kBacklog = 40;       // alice's pending updates at start

struct Gene {
  std::string gid;
  std::string name;
  std::string seq;
  int annotations = 0;    // on the GName cell
  bool verified = false;  // carries a "verified" annotation
  bool outdated = false;  // Protein.PFunction marked by propagation
  bool pending = false;   // an unsettled approval-logged update
};

struct PendingOp {
  uint64_t id;
  size_t gene;
  std::string old_name;
};

class Curation {
 public:
  explicit Curation(const Args& args) : args_(args), rng_(args.seed) {}

  void Setup();
  void Round(MixRecorder& mix);
  // Untimed comparison of SHOW PENDING and the annotation count with the
  // model.
  void CheckPendingAndAnnotations();
  // Untimed full read-back of `n` sampled genes and their proteins.
  void CheckSample(size_t n);
  void TraceLayers(Metrics& m, Tracer& tracer);

  bdbms::Database& db() { return db_; }

 private:
  std::string GeneRead(size_t g) const {
    return "SELECT GID, GName, GSequence FROM Gene ANNOTATION(Curation) "
           "WHERE GID = " + Quote(genes_[g].gid);
  }
  std::string ProteinRead(size_t g) const {
    return "SELECT PName, PSequence, PFunction FROM Protein WHERE GID = " +
           Quote(genes_[g].gid);
  }
  void CheckGene(const bdbms::QueryResult& r, size_t g) const;
  void CheckProtein(const bdbms::QueryResult& r, size_t g) const;
  // Alice's genes (i % 4 != 0) never get sequence updates, so a
  // disapproval's inverse statement cannot undo a propagated change.
  size_t AliceGene();
  void AliceUpdate(MixRecorder& mix);

  const Args& args_;
  Rng rng_;
  bdbms::Database db_;
  std::vector<Gene> genes_;
  std::deque<PendingOp> pending_;
  uint64_t next_op_id_ = 0;
  uint64_t annotations_ = 0;
  uint64_t rounds_ = 0;
  std::vector<size_t> read_genes_;
  std::vector<size_t> updated_genes_;
  std::vector<double> annotate_us_, approve_us_;
};

void Curation::Setup() {
  Check(db_.procedures().Register(bdbms::MakePredictionToolProcedure("P"))
            .ok(),
        "register P");
  bdbms::ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  Check(db_.procedures().Register(lab).ok(), "register lab_experiment");

  MustExecute(db_, "CREATE TABLE Gene (GID TEXT, GName TEXT, "
                   "GSequence SEQUENCE)");
  MustExecute(db_, "CREATE TABLE Protein (PName TEXT, GID TEXT, "
                   "PSequence SEQUENCE, PFunction TEXT)");
  genes_.resize(kGenes);
  char buf[32];
  for (size_t i = 0; i < kGenes; ++i) {
    std::snprintf(buf, sizeof(buf), "G%06zu", i);
    genes_[i].gid = buf;
    genes_[i].name = "gene" + std::to_string(i);
    genes_[i].seq = rng_.Dna(rng_.Between(150, 300));
  }
  for (size_t begin = 0; begin < kGenes; begin += kBatch) {
    std::string g = "INSERT INTO Gene VALUES ";
    std::string p = "INSERT INTO Protein VALUES ";
    for (size_t i = begin; i < std::min(kGenes, begin + kBatch); ++i) {
      const Gene& gene = genes_[i];
      const char* sep = i == begin ? "(" : ", (";
      g += sep + Quote(gene.gid) + ", " + Quote(gene.name) + ", " +
           Quote(gene.seq) + ")";
      p += sep + Quote("prot" + std::to_string(i)) + ", " + Quote(gene.gid) +
           ", " + Quote(oracle::Translate(gene.seq)) + ", " +
           Quote("function " + std::to_string(i % 37)) + ")";
    }
    MustExecute(db_, g);
    MustExecute(db_, p);
  }
  MustExecute(db_, "CREATE INDEX gene_gid ON Gene (GID)");
  MustExecute(db_, "CREATE INDEX protein_gid ON Protein (GID)");
  MustExecute(db_, "CREATE ANNOTATION TABLE Curation ON Gene");
  for (size_t i = 0; i < kGenes; i += 8) {
    bool verified = i % 32 == 0;
    MustExecute(db_, std::string("ADD ANNOTATION TO Gene.Curation VALUE ") +
                         (verified ? "'<Annotation>verified by assay"
                                     "</Annotation>'"
                                   : "'<Annotation>imported from RegulonDB"
                                     "</Annotation>'") +
                         " ON (SELECT GName FROM Gene WHERE GID = " +
                         Quote(genes_[i].gid) + ")");
    ++genes_[i].annotations;
    ++annotations_;
    genes_[i].verified = verified;
  }
  MustExecute(db_, "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO "
                   "Protein.PSequence USING P JOIN ON Gene.GID = Protein.GID");
  MustExecute(db_, "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO "
                   "Protein.PFunction USING lab_experiment");
  for (const char* sql :
       {"CREATE USER alice", "CREATE GROUP lab_members",
        "ADD USER alice TO GROUP lab_members",
        "GRANT SELECT ON Gene TO lab_members",
        "GRANT UPDATE ON Gene TO lab_members",
        "GRANT SELECT ON Protein TO lab_members",
        "START CONTENT APPROVAL ON Gene COLUMNS (GName) APPROVED BY admin"}) {
    MustExecute(db_, sql);
  }
  // Alice's backlog: the pending list approvals work through.
  MixRecorder untimed(nullptr, nullptr);
  for (size_t i = 0; i < kBacklog; ++i) AliceUpdate(untimed);
  bdbms::QueryResult shown = MustExecute(db_, "SHOW PENDING ON Gene");
  Check(shown.rows.size() == kBacklog, "backlog size");
  uint64_t first = static_cast<uint64_t>(shown.rows[0].values[0].as_int());
  for (size_t i = 0; i < kBacklog; ++i) pending_[i].id = first + i;
  next_op_id_ = first + kBacklog;
  CheckPendingAndAnnotations();
}

size_t Curation::AliceGene() {
  for (;;) {
    size_t g = rng_.Below(kGenes);
    if (g % 4 != 0 && !genes_[g].pending) return g;
  }
}

void Curation::AliceUpdate(MixRecorder& mix) {
  size_t g = AliceGene();
  Gene& gene = genes_[g];
  std::string name = "curated" + std::to_string(rng_.Below(1000000));
  bdbms::QueryResult r =
      mix.Run(db_, true,
              "UPDATE Gene SET GName = " + Quote(name) +
                  " WHERE GID = " + Quote(gene.gid),
              "alice");
  Check(r.affected == 1, "alice update affected");
  pending_.push_back({next_op_id_++, g, gene.name});
  gene.name = name;
  gene.pending = true;
}

void Curation::CheckGene(const bdbms::QueryResult& r, size_t g) const {
  const Gene& gene = genes_[g];
  Check(r.rows.size() == 1, "gene read rows for " + gene.gid);
  const bdbms::ResultRow& row = r.rows[0];
  Check(row.values[1].as_string() == gene.name, "GName of " + gene.gid);
  Check(row.values[2].as_string() == gene.seq, "GSequence of " + gene.gid);
  Check(row.AllAnnotations().size() == static_cast<size_t>(gene.annotations),
        "annotations of " + gene.gid);
}

void Curation::CheckProtein(const bdbms::QueryResult& r, size_t g) const {
  const Gene& gene = genes_[g];
  Check(r.rows.size() == 1, "protein read rows for " + gene.gid);
  const bdbms::ResultRow& row = r.rows[0];
  Check(row.values[1].as_string() == oracle::Translate(gene.seq),
        "PSequence is the translation of " + gene.gid);
  bool flagged = false;
  for (const auto& a : row.annotations[2]) {
    flagged |= a.category == bdbms::kOutdatedCategory;
  }
  Check(flagged == gene.outdated, "PFunction _outdated flag of " + gene.gid);
}

void Curation::Round(MixRecorder& mix) {
  auto gene_read = [&] {
    size_t g = rng_.Below(kGenes);
    read_genes_.push_back(g);
    CheckGene(mix.Run(db_, false, GeneRead(g), "alice"), g);
  };
  auto awhere_read = [&] {
    // Every fourth probe targets a gene known to be verified.
    size_t g = rng_.Below(4) == 0 ? rng_.Below(kGenes / 32) * 32
                                  : rng_.Below(kGenes);
    bdbms::QueryResult r = mix.Run(
        db_, false,
        "SELECT GID, GName FROM Gene ANNOTATION(Curation) WHERE GID = " +
            Quote(genes_[g].gid) + " AWHERE VALUE LIKE '%verified%'");
    Check(r.rows.size() == (genes_[g].verified ? 1u : 0u),
          "AWHERE verified of " + genes_[g].gid);
  };
  auto protein_read = [&] {
    size_t g = rng_.Below(kGenes);
    CheckProtein(mix.Run(db_, false, ProteinRead(g)), g);
  };
  auto settle = [&](bool approve) {
    PendingOp op = pending_.front();
    pending_.pop_front();
    mix.Run(db_, true,
            std::string(approve ? "APPROVE" : "DISAPPROVE") + " OPERATION " +
                std::to_string(op.id));
    Gene& gene = genes_[op.gene];
    gene.pending = false;
    if (!approve) gene.name = op.old_name;  // the inverse statement ran
    if (approve) approve_us_.push_back(mix.last_micros());
  };
  auto annotate = [&] {
    size_t g = rng_.Below(kGenes);
    mix.Run(db_, true,
            "ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>verified by "
            "alice in round " + std::to_string(rounds_) +
                "</Annotation>' ON (SELECT GName FROM Gene WHERE GID = " +
                Quote(genes_[g].gid) + ")");
    annotate_us_.push_back(mix.last_micros());
    ++genes_[g].annotations;
    genes_[g].verified = true;
    ++annotations_;
  };
  auto sequence_update = [&] {
    size_t g = rng_.Below(kGenes / 4) * 4;
    Gene& gene = genes_[g];
    gene.seq = rng_.Dna(rng_.Between(150, 300));
    bdbms::QueryResult r =
        mix.Run(db_, true,
                "UPDATE Gene SET GSequence = " + Quote(gene.seq) +
                    " WHERE GID = " + Quote(gene.gid));
    Check(r.affected == 1, "sequence update affected");
    gene.outdated = true;
    updated_genes_.push_back(g);
    // Untimed: the propagation recomputed PSequence and flagged PFunction.
    CheckProtein(MustExecute(db_, ProteinRead(g)), g);
  };

  gene_read();
  gene_read();
  AliceUpdate(mix);
  protein_read();
  gene_read();
  annotate();
  AliceUpdate(mix);
  gene_read();
  settle(true);
  awhere_read();
  gene_read();
  settle(false);
  awhere_read();
  protein_read();
  gene_read();
  sequence_update();
  awhere_read();
  protein_read();
  if (++rounds_ % 50 == 0) CheckPendingAndAnnotations();
}

void Curation::CheckPendingAndAnnotations() {
  bdbms::QueryResult shown = MustExecute(db_, "SHOW PENDING ON Gene");
  Check(shown.rows.size() == pending_.size(), "SHOW PENDING size");
  for (size_t i = 0; i < pending_.size(); ++i) {
    const bdbms::Row& v = shown.rows[i].values;
    Check(static_cast<uint64_t>(v[0].as_int()) == pending_[i].id &&
              v[4].as_string() == "alice",
          "SHOW PENDING entry " + std::to_string(i));
  }
  auto table = db_.annotations().Get("Gene", "Curation");
  Check(table.ok() && (*table)->count() == annotations_,
        "annotation count");
}

void Curation::CheckSample(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    size_t g = rng_.Below(kGenes);
    CheckGene(MustExecute(db_, GeneRead(g)), g);
    CheckProtein(MustExecute(db_, ProteinRead(g)), g);
  }
}

void Curation::TraceLayers(Metrics& m, Tracer& tracer) {
  SetCommonLayerMetrics(m, tracer, db_, {"Gene", "Protein"});
  auto gene_table = db_.GetTable("Gene");
  Check(gene_table.ok(), "Gene table");
  const bdbms::SecondaryIndex* index = (*gene_table)->FindIndex("gene_gid");
  Check(index != nullptr, "gene_gid index");

  uint64_t root = tracer.Root("layers");
  std::vector<double> probe;
  for (size_t g : read_genes_) {
    probe.push_back(tracer.Time("index.btree_probe", root, [&] {
      auto rows = index->FindEqual(bdbms::Value::Text(genes_[g].gid));
      Check(rows.ok() && rows->size() == 1, "btree probe");
    }));
  }
  Set(m, "index.btree_probe_us", Quantile(probe, 0.5));

  // Propagation from genes already updated: P recomputes the same
  // protein and PFunction stays outdated, so the model still holds.
  std::vector<double> propagate;
  double invalidated = 0;
  for (size_t i = 0; i < updated_genes_.size() && i < 20; ++i) {
    size_t g = updated_genes_[i];
    auto rows = index->FindEqual(bdbms::Value::Text(genes_[g].gid));
    Check(rows.ok() && rows->size() == 1, "gene row");
    propagate.push_back(tracer.Time("dep.propagate", root, [&] {
      auto report = db_.NotifyCellUpdated("Gene", (*rows)[0], 2);
      Check(report.ok(), "NotifyCellUpdated");
      invalidated += static_cast<double>(report->total());
    }));
  }
  Set(m, "dep.propagate_us", Quantile(propagate, 0.5));
  Set(m, "dep.cells_invalidated_per_update",
      propagate.empty() ? 0 : invalidated / propagate.size());

  Set(m, "table.scan_rows_per_s",
      ScanRowsPerSecond(**gene_table, tracer, root, 3));

  Set(m, "annot.add_us", Quantile(annotate_us_, 0.5));
  Set(m, "annot.annotations", static_cast<double>(annotations_));
  Set(m, "auth.approve_us", Quantile(approve_us_, 0.5));
  Set(m, "auth.pending_ops", static_cast<double>(pending_.size()));

  std::vector<std::string> reads;
  for (size_t i = 0; i < 300 && i < read_genes_.size(); ++i) {
    reads.push_back(GeneRead(read_genes_[i]));
  }
  Set(m, "net.rtt_overhead_us", RttOverheadMicros(db_, reads, tracer));
}

}  // namespace

Outcome RunCuration(const Args& args, Clock::time_point process_start,
                    HostProbe& probe, Tracer* tracer) {
  Curation w(args);
  w.Setup();
  const double setup_s = SetupSeconds(process_start, probe);
  Outcome out;
  PersistFigures saved = PersistAndReopen(
      w.db(), {"Gene", "Protein"}, args.workdir + "/curation-save", probe);

  MixRecorder mix(&probe, tracer);
  auto start = Clock::now();
  while (SecondsSince(start) < args.seconds) w.Round(mix);
  const double setup_scale = probe.Scale(start, Clock::now());
  out.attempted = mix.statements();

  w.CheckPendingAndAnnotations();
  w.CheckSample(200);
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
