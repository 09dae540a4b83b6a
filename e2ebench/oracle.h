// The benchmark's own reference computations. The workloads compare the
// engine's answers against these, never against the engine's helpers or
// a stored copy of earlier output, so a fault in bdbms cannot hide by
// agreeing with itself. SelfTest() checks them on hand-worked cases.
#ifndef BDBMS_E2EBENCH_ORACLE_H_
#define BDBMS_E2EBENCH_ORACLE_H_

#include <string>
#include <string_view>

namespace e2ebench::oracle {

// The prediction tool P's documented translation: codon (b0, b1, b2) over
// A=0, C=1, G=2, T=3 (any other letter counts as A) indexes a 64-entry
// table; a gene shorter than one codon translates to "M".
std::string Translate(std::string_view gene);

// SQL LIKE: '%' matches any run, '_' one character.
bool Like(std::string_view text, std::string_view pattern);

// Whole-string match of the MATCHES dialect: literals, '.', [class],
// postfix '*', '+', '?', and '\' escapes.
bool RegexMatch(std::string_view text, std::string_view pattern);

// Levenshtein distance with unit costs.
int Levenshtein(std::string_view a, std::string_view b);

// Smith-Waterman local alignment score with the documented ALIGN scoring:
// match +2, mismatch -1, linear gap -2.
int SmithWaterman(std::string_view a, std::string_view b);

// Checks every function above on hand-worked cases; fails the benchmark
// on a mismatch.
void SelfTest();

}  // namespace e2ebench::oracle

#endif  // BDBMS_E2EBENCH_ORACLE_H_
