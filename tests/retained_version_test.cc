// Index access paths over retained row versions. A versioned UPDATE keeps
// the superseded version — and its index entries — until no snapshot can
// see it, so an index holds one (key, RowId) entry per retained version,
// and two of them are identical when the update left the indexed columns
// alone. Every index-backed scan must still yield each row at most once
// (top-k included, without losing one of its k slots), and an index built
// while versions are retained must give each of them its own entry, or
// vacuuming the version later deletes the live row's entry.
#include <gtest/gtest.h>

#include <string>

#include "core/database.h"
#include "core/session.h"

namespace bdbms {
namespace {

#define SESSION_OK(session, sql)                                        \
  do {                                                                  \
    auto _r = (session).Execute(sql);                                   \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> " << _r.status().ToString(); \
  } while (0)

// "a|b;c|d;" — one row per ';', one cell per '|'.
std::string Rows(Session& session, const std::string& sql) {
  auto r = session.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  std::string out;
  for (const auto& row : r->rows) {
    for (size_t i = 0; i < row.values.size(); ++i) {
      if (i > 0) out += '|';
      out += row.values[i].ToString();
    }
    out += ';';
  }
  return out;
}

std::string Plan(Session& session, const std::string& sql) {
  auto r = session.Execute("EXPLAIN " + sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  return r.ok() ? r->message : "";
}

// T(k, v) with rows (i, i) for i in [0, 50).
class BTreeRetainedVersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SESSION_OK(s1_, "CREATE TABLE T (k INT, v INT)");
    for (int i = 0; i < 50; ++i) {
      SESSION_OK(s1_, "INSERT INTO T VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i) + ")");
    }
  }

  Database db_;
  Session s1_{&db_, "admin"};
  Session s2_{&db_, "admin"};
};

TEST_F(BTreeRetainedVersionTest, OwnUpdateIsScannedDeletedAndUpdatedOnce) {
  SESSION_OK(s1_, "CREATE INDEX tk ON T (k)");
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE T SET v = 5 WHERE k = 1");
  ASSERT_NE(Plan(s1_, "SELECT * FROM T WHERE k = 1").find("IndexScan T"),
            std::string::npos);
  EXPECT_EQ(Rows(s1_, "SELECT * FROM T WHERE k = 1"), "1|5;");
  auto upd = s1_.Execute("UPDATE T SET v = v + 1 WHERE k = 1");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->affected, 1u);
  EXPECT_EQ(Rows(s1_, "SELECT * FROM T WHERE k = 1"), "1|6;");
  auto del = s1_.Execute("DELETE FROM T WHERE k = 1");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->affected, 1u);
  SESSION_OK(s1_, "COMMIT");
  EXPECT_EQ(Rows(s1_, "SELECT * FROM T WHERE k = 1"), "");
  EXPECT_EQ(Rows(s1_, "SELECT COUNT(*) FROM T"), "49;");
}

TEST_F(BTreeRetainedVersionTest, AutocommitReaderBesidePinnedSnapshot) {
  SESSION_OK(s1_, "CREATE INDEX tk ON T (k)");
  // s2's open snapshot keeps every superseded version below alive.
  SESSION_OK(s2_, "BEGIN");
  EXPECT_EQ(Rows(s2_, "SELECT v FROM T WHERE k = 1"), "1;");
  SESSION_OK(s1_, "UPDATE T SET v = 5 WHERE k = 1");
  EXPECT_EQ(Rows(s1_, "SELECT * FROM T WHERE k = 1"), "1|5;");
  // A key change leaves the old entry under k = 1 and a new one under
  // k = 3: a range covering both keys still returns the row once.
  SESSION_OK(s1_, "UPDATE T SET k = 3 WHERE k = 1");
  EXPECT_EQ(Rows(s1_, "SELECT * FROM T WHERE k >= 1 AND k <= 3 ORDER BY v"),
            "2|2;3|3;3|5;");
  EXPECT_EQ(Rows(s2_, "SELECT * FROM T WHERE k >= 1 AND k <= 3 ORDER BY v"),
            "1|1;2|2;3|3;");
  SESSION_OK(s2_, "COMMIT");
  EXPECT_EQ(Rows(s1_, "SELECT COUNT(*) FROM T"), "50;");
}

TEST_F(BTreeRetainedVersionTest, IndexBuiltInsideTransactionKeepsLiveRows) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE T SET v = 5 WHERE k = 1");
  SESSION_OK(s1_, "CREATE INDEX tk ON T (k)");
  SESSION_OK(s1_, "COMMIT");
  EXPECT_EQ(Rows(s1_, "SELECT * FROM T WHERE k = 1"), "1|5;");
  EXPECT_EQ(Rows(s1_, "SELECT COUNT(*) FROM T"), "50;");
  SESSION_OK(s1_, "DELETE FROM T WHERE k = 1");
  EXPECT_EQ(Rows(s1_, "SELECT COUNT(*) FROM T"), "49;");
}

// The docs/indexing.md worked example: six proteins under an SP-GiST trie.
class SpgistRetainedVersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SESSION_OK(s1_, "CREATE TABLE Prot (PID INT, Score DOUBLE, Seq SEQUENCE)");
    SESSION_OK(s1_,
               "INSERT INTO Prot VALUES "
               "(1, 1.5, 'ACGTAC'), (2, 2.5, 'ACCTGA'), (3, 3.5, 'GGTACA'), "
               "(4, 0.5, 'ACGTTT'), (5, 4.5, 'TTGACA'), (6, 5.5, 'ACGAAA')");
  }

  void ExpectEveryTriePathYieldsRowsOnce() {
    struct Case {
      const char* sql;
      const char* node;
      const char* rows;
    };
    const Case cases[] = {
        {"SELECT PID FROM Prot WHERE Seq = 'ACGTAC'", "SpgistScan", "1;"},
        {"SELECT PID FROM Prot WHERE Seq LIKE 'ACGT%' ORDER BY PID",
         "SpgistScan", "1;4;"},
        {"SELECT PID FROM Prot WHERE Seq MATCHES 'ACGT.*' ORDER BY PID",
         "SpgistRegexScan", "1;4;"},
        {"SELECT PID FROM Prot WHERE ALIGN(Seq, 'ACGT') >= 8 ORDER BY PID",
         "SpgistAlignScan", "1;4;"},
        // The second-nearest row must not be pushed out by a duplicate.
        {"SELECT PID FROM Prot ORDER BY DISTANCE(Seq, 'ACGTAC') LIMIT 2",
         "SpgistTopKScan", "1;4;"},
    };
    for (const Case& c : cases) {
      EXPECT_NE(Plan(s1_, c.sql).find(c.node), std::string::npos) << c.sql;
      EXPECT_EQ(Rows(s1_, c.sql), c.rows) << c.sql;
    }
  }

  Database db_;
  Session s1_{&db_, "admin"};
  Session s2_{&db_, "admin"};
};

TEST_F(SpgistRetainedVersionTest, OwnUpdateYieldsRowOnceOnEveryTriePath) {
  SESSION_OK(s1_, "CREATE SEQUENCE INDEX sx ON Prot (Seq) USING SPGIST");
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE Prot SET Score = 9.5 WHERE PID = 1");
  ExpectEveryTriePathYieldsRowsOnce();
  SESSION_OK(s1_, "COMMIT");
  ExpectEveryTriePathYieldsRowsOnce();
}

TEST_F(SpgistRetainedVersionTest, AutocommitReaderBesidePinnedSnapshot) {
  SESSION_OK(s1_, "CREATE SEQUENCE INDEX sx ON Prot (Seq) USING SPGIST");
  SESSION_OK(s2_, "BEGIN");
  EXPECT_EQ(Rows(s2_, "SELECT COUNT(*) FROM Prot"), "6;");
  SESSION_OK(s1_, "UPDATE Prot SET Score = 9.5 WHERE PID = 1");
  ExpectEveryTriePathYieldsRowsOnce();
  SESSION_OK(s2_, "COMMIT");
}

TEST_F(SpgistRetainedVersionTest, TopKRanksRowByItsVisibleKey) {
  SESSION_OK(s1_, "CREATE SEQUENCE INDEX sx ON Prot (Seq) USING SPGIST");
  SESSION_OK(s1_, "BEGIN");
  // The retained 'ACGTAC' entry (distance 0) is stale for row 1; the row
  // must still rank by its visible key 'ACGTAA' (distance 1).
  SESSION_OK(s1_, "UPDATE Prot SET Seq = 'ACGTAA' WHERE PID = 1");
  const std::string topk =
      "SELECT PID FROM Prot ORDER BY DISTANCE(Seq, 'ACGTAC') LIMIT 2";
  ASSERT_NE(Plan(s1_, topk).find("SpgistTopKScan"), std::string::npos);
  EXPECT_EQ(Rows(s1_, topk), "1;4;");
  SESSION_OK(s1_, "COMMIT");
  EXPECT_EQ(Rows(s1_, topk), "1;4;");
}

TEST_F(SpgistRetainedVersionTest, IndexBuiltInsideTransactionKeepsLiveRows) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE Prot SET Score = 9.5 WHERE PID = 1");
  SESSION_OK(s1_, "CREATE SEQUENCE INDEX sx ON Prot (Seq) USING SPGIST");
  SESSION_OK(s1_, "COMMIT");
  ExpectEveryTriePathYieldsRowsOnce();
}

}  // namespace
}  // namespace bdbms
