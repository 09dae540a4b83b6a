// Reopen-equivalence differential suite: the annotation, authorization
// and dependency SQL scenarios run twice — once against a never-closed
// in-memory database, once against a durable database that is closed and
// reopened at EVERY statement boundary — and the full observable outputs
// are diffed: every statement's status, every probe query's rendered
// result (values + propagated annotations, _outdated flags included),
// SHOW PENDING approval state, and EXPLAIN output (which encodes index
// availability and ANALYZE statistics through its row/cost estimates).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "durability_test_util.h"

namespace bdbms {
namespace {

using testutil::DurableOpts;
using testutil::Fingerprint;
using testutil::FreshDir;
using testutil::RegisterProcedures;

struct Step {
  std::string user;
  std::string sql;
};

struct Scenario {
  std::string name;
  std::vector<Step> statements;  // may contain intentionally failing steps
  std::vector<Step> probes;      // read-only; run after all statements
};

// EXPLAIN on a paged (file-backed) table appends physical buffer-pool
// counters that an in-memory reference legitimately lacks; strip them so
// the diff covers only logical plan shape, estimates, and results.
std::string StripBufferCounters(std::string s) {
  constexpr std::string_view kMarker = " buffers(";
  for (size_t at = s.find(kMarker); at != std::string::npos;
       at = s.find(kMarker, at)) {
    size_t close = s.find(')', at);
    if (close == std::string::npos) break;
    s.erase(at, close - at + 1);
  }
  return s;
}

// Renders a statement's full observable outcome, errors included: denied
// or invalid statements must fail identically before and after recovery.
std::string Observe(Database& db, const Step& step) {
  auto r = db.Execute(step.sql, step.user);
  if (!r.ok()) return "ERROR: " + r.status().ToString();
  return StripBufferCounters(r->ToString(/*show_annotations=*/true));
}

Scenario AnnotationScenario() {
  Scenario sc;
  sc.name = "annotation";
  sc.statements = {
      {"admin", "CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence SEQUENCE)"},
      {"admin", "CREATE ANNOTATION TABLE GAnnotation ON Gene"},
      {"admin", "CREATE ANNOTATION TABLE Curation ON Gene"},
      {"admin", "INSERT INTO Gene VALUES ('g1', 'mraW', 'ATGC')"},
      {"admin", "INSERT INTO Gene VALUES ('g2', 'ftsL', 'CCGG')"},
      {"admin", "INSERT INTO Gene VALUES ('g3', 'murE', 'TTAA')"},
      {"admin",
       "ADD ANNOTATION TO Gene.GAnnotation VALUE "
       "'<Annotation>unreliable</Annotation>' "
       "ON (SELECT G.GSequence FROM Gene G WHERE G.GID = 'g1')"},
      {"admin",
       "ADD ANNOTATION TO Gene.Curation VALUE "
       "'<Annotation>curated</Annotation>' "
       "ON (SELECT GID, GName FROM Gene WHERE GID = 'g2')"},
      {"admin",
       "ARCHIVE ANNOTATION FROM Gene.GAnnotation "
       "ON (SELECT GSequence FROM Gene WHERE GID = 'g1')"},
      {"admin",
       "ADD ANNOTATION TO Gene.GAnnotation VALUE "
       "'<Annotation>deleted as duplicate</Annotation>' "
       "ON (DELETE FROM Gene WHERE GID = 'g3')"},
      {"admin",
       "RESTORE ANNOTATION FROM Gene.GAnnotation "
       "ON (SELECT GSequence FROM Gene WHERE GID = 'g1')"},
  };
  sc.probes = {
      {"admin", "SELECT * FROM Gene ANNOTATION(ALL) ORDER BY GID"},
      {"admin", "SELECT GID FROM Gene ANNOTATION(GAnnotation) "
                "AWHERE VALUE LIKE '%unreliable%'"},
      {"admin",
       "SELECT GSequence PROMOTE (GID, GName) FROM Gene ANNOTATION(ALL)"},
      {"admin", "SELECT GName FROM Gene ANNOTATION(Curation) "
                "FILTER CATEGORY = 'Curation'"},
  };
  return sc;
}

Scenario AuthScenario() {
  Scenario sc;
  sc.name = "auth";
  sc.statements = {
      {"admin", "CREATE TABLE Protein (PName TEXT, PSeq SEQUENCE, Ann TEXT)"},
      {"admin", "CREATE USER alice"},
      {"admin", "CREATE USER bob"},
      {"admin", "CREATE GROUP curators"},
      {"admin", "ADD USER alice TO GROUP curators"},
      {"admin", "GRANT SELECT ON Protein TO curators"},
      {"admin", "GRANT INSERT ON Protein TO alice"},
      {"admin", "GRANT UPDATE ON Protein TO alice"},
      {"alice", "INSERT INTO Protein VALUES ('p1', 'MKV', 'x')"},
      {"alice", "INSERT INTO Protein VALUES ('p2', 'MAA', 'y')"},
      // bob holds no INSERT grant: must fail identically pre/post-reopen.
      {"bob", "INSERT INTO Protein VALUES ('px', 'MMM', 'z')"},
      {"admin",
       "START CONTENT APPROVAL ON Protein COLUMNS (PSeq) APPROVED BY admin"},
      {"alice", "UPDATE Protein SET PSeq = 'MKVX' WHERE PName = 'p1'"},
      {"alice", "UPDATE Protein SET PSeq = 'MAAX' WHERE PName = 'p2'"},
      {"admin", "APPROVE OPERATION 1"},
      // Disapproval rolls the update back through the inverse statement.
      {"admin", "DISAPPROVE OPERATION 2"},
      {"alice", "UPDATE Protein SET PSeq = 'MAAY' WHERE PName = 'p2'"},
      // bob may not approve (not the APPROVED BY principal).
      {"bob", "APPROVE OPERATION 3"},
      {"admin", "REVOKE UPDATE ON Protein FROM alice"},
      {"alice", "UPDATE Protein SET PSeq = 'M' WHERE PName = 'p1'"},
  };
  sc.probes = {
      {"admin", "SELECT * FROM Protein ORDER BY PName"},
      {"admin", "SHOW PENDING"},
      {"admin", "SHOW PENDING ON Protein"},
      {"alice", "SELECT PName FROM Protein ORDER BY PName"},
      {"bob", "SELECT PName FROM Protein"},  // denied, identically
  };
  return sc;
}

Scenario DependencyAndPlannerScenario() {
  Scenario sc;
  sc.name = "dependency+planner";
  sc.statements = {
      {"admin", "CREATE TABLE Gene (GID TEXT, GSequence SEQUENCE)"},
      {"admin",
       "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, "
       "PFunction TEXT)"},
      {"admin",
       "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO Protein.PSequence "
       "USING P JOIN ON Gene.GID = Protein.GID"},
      {"admin",
       "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO Protein.PFunction "
       "USING lab_experiment"},
      {"admin", "INSERT INTO Gene VALUES ('J1', 'AAA')"},
      {"admin", "INSERT INTO Gene VALUES ('J2', 'CCC')"},
      {"admin", "INSERT INTO Protein VALUES ('prot1', 'J1', 'M', 'fn1')"},
      {"admin", "INSERT INTO Protein VALUES ('prot2', 'J2', 'M', 'fn2')"},
      // Recomputes prot1's PSequence and outdates its PFunction.
      {"admin", "UPDATE Gene SET GSequence = 'GGG' WHERE GID = 'J1'"},
      {"admin", "CREATE INDEX pidx ON Protein (GID, PName)"},
      {"admin", "ANALYZE"},
  };
  sc.probes = {
      // _outdated annotations must survive recovery.
      {"admin", "SELECT PName, PSequence, PFunction FROM Protein "
                "ORDER BY PName"},
      // Index presence: the plan must pick the composite probe.
      {"admin", "EXPLAIN SELECT PName FROM Protein "
                "WHERE GID = 'J1' AND PName = 'prot1'"},
      // Statistics presence: row/cost estimates encode the ANALYZE state.
      {"admin", "EXPLAIN SELECT * FROM Protein WHERE GID = 'J2'"},
      {"admin", "EXPLAIN SELECT G.GID FROM Gene G, Protein P "
                "WHERE G.GID = P.GID"},
  };
  return sc;
}

// Runs `sc` against the in-memory reference, then — for every statement
// boundary — against a durable database closed and reopened at that cut,
// diffing each statement's and probe's observable output.
void RunDifferential(const Scenario& sc) {
  Database ref;
  ASSERT_TRUE(RegisterProcedures(ref).ok());
  std::vector<std::string> ref_statement_out;
  for (const Step& step : sc.statements) {
    ref_statement_out.push_back(Observe(ref, step));
  }
  std::vector<std::string> ref_probe_out;
  for (const Step& probe : sc.probes) {
    ref_probe_out.push_back(Observe(ref, probe));
  }
  std::string ref_fingerprint = Fingerprint(ref);

  for (size_t cut = 0; cut <= sc.statements.size(); ++cut) {
    std::string dir = FreshDir("reopen_" + sc.name);
    {
      auto db = Database::Open(dir, DurableOpts());
      ASSERT_TRUE(db.ok()) << sc.name << " cut " << cut;
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_EQ(Observe(**db, sc.statements[i]), ref_statement_out[i])
            << sc.name << " cut " << cut << " statement " << i << ": "
            << sc.statements[i].sql;
      }
      ASSERT_TRUE((*db)->Close().ok());
    }
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << sc.name << " reopen at cut " << cut << ": "
                         << db.status().ToString();
    for (size_t i = cut; i < sc.statements.size(); ++i) {
      ASSERT_EQ(Observe(**db, sc.statements[i]), ref_statement_out[i])
          << sc.name << " cut " << cut << " statement " << i << " (post-"
          << "reopen): " << sc.statements[i].sql;
    }
    for (size_t i = 0; i < sc.probes.size(); ++i) {
      EXPECT_EQ(Observe(**db, sc.probes[i]), ref_probe_out[i])
          << sc.name << " cut " << cut << " probe: " << sc.probes[i].sql;
    }
    EXPECT_EQ(Fingerprint(**db), ref_fingerprint)
        << sc.name << " cut " << cut;
  }
}

TEST(ReopenEquivalenceTest, AnnotationScenarioMatchesAtEveryCutPoint) {
  RunDifferential(AnnotationScenario());
}

TEST(ReopenEquivalenceTest, AuthApprovalScenarioMatchesAtEveryCutPoint) {
  RunDifferential(AuthScenario());
}

TEST(ReopenEquivalenceTest, DependencyPlannerScenarioMatchesAtEveryCutPoint) {
  RunDifferential(DependencyAndPlannerScenario());
}

TEST(ReopenEquivalenceTest, CheckpointedRunMatchesUncheckpointedRun) {
  // The same scenario executed with aggressive auto-checkpointing (every
  // 3 statements) must be observationally identical to the plain run.
  Scenario sc = AuthScenario();
  Database ref;
  ASSERT_TRUE(RegisterProcedures(ref).ok());
  for (const Step& step : sc.statements) (void)ref.Execute(step.sql, step.user);

  std::string dir = FreshDir("reopen_ckpt_equiv");
  {
    auto db = Database::Open(dir, DurableOpts(/*checkpoint_interval=*/3));
    ASSERT_TRUE(db.ok());
    for (const Step& step : sc.statements) {
      (void)(*db)->Execute(step.sql, step.user);
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(dir, DurableOpts(/*checkpoint_interval=*/3));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const Step& probe : sc.probes) {
    EXPECT_EQ(Observe(**db, probe), Observe(ref, probe)) << probe.sql;
  }
  EXPECT_EQ(Fingerprint(**db), Fingerprint(ref));
}

TEST(ReopenEquivalenceTest, EscalatedTransactionReplaysPastForeignCommit) {
  // Session A writes inside a transaction, session B then autocommits an
  // update of row k = 1, and A escalates (CREATE INDEX) and updates that
  // row too. Escalation moved A's snapshot past B's commit, so the update
  // is no write-write conflict; replay must run every group member under
  // its own journaled snapshot, or first-updater-wins rejects it and
  // recovery stops with "WAL replay diverged".
  std::string dir = FreshDir("reopen_escalated_txn");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Session a(db->get(), "admin");
    Session b(db->get(), "admin");
    for (const char* sql :
         {"CREATE TABLE T (k INT, v INT)",
          "INSERT INTO T VALUES (0, 0), (1, 1), (2, 2)", "BEGIN",
          "UPDATE T SET v = 10 WHERE k = 0"}) {
      auto r = a.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    }
    auto foreign = b.Execute("UPDATE T SET v = 20 WHERE k = 1");
    ASSERT_TRUE(foreign.ok()) << foreign.status().ToString();
    for (const char* sql :
         {"CREATE INDEX tk ON T (k)", "UPDATE T SET v = v + 10 WHERE k = 1",
          "INSERT INTO T VALUES (3, 3)", "COMMIT"}) {
      auto r = a.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    }
    auto rows = a.Execute("SELECT k, v FROM T ORDER BY k");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->ToString(), "k | v\n0 | 10\n1 | 30\n2 | 2\n3 | 3\n");
    before = Fingerprint(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Fingerprint(**db), before);
}

}  // namespace
}  // namespace bdbms
