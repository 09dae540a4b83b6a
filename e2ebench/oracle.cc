#include "oracle.h"

#include <algorithm>
#include <vector>

#include "harness.h"

namespace e2ebench::oracle {

std::string Translate(std::string_view gene) {
  // 64 codons onto the 20 amino-acid letters ACDEFGHIKLMNPQRSTVWY in
  // order, wrapping every 20 codons.
  static constexpr char kTable[] =
      "ACDEFGHIKLMNPQRSTVWY"
      "ACDEFGHIKLMNPQRSTVWY"
      "ACDEFGHIKLMNPQRSTVWY"
      "ACDE";
  auto code = [](char c) {
    return c == 'C' ? 1 : c == 'G' ? 2 : c == 'T' ? 3 : 0;
  };
  std::string protein;
  for (size_t i = 0; i + 3 <= gene.size(); i += 3) {
    protein += kTable[16 * code(gene[i]) + 4 * code(gene[i + 1]) +
                      code(gene[i + 2])];
  }
  return protein.empty() ? "M" : protein;
}

bool Like(std::string_view text, std::string_view pattern) {
  // match[j]: pattern[0, i) matches text[0, j).
  std::vector<char> match(text.size() + 1, 0), next(text.size() + 1);
  match[0] = 1;
  for (char p : pattern) {
    std::fill(next.begin(), next.end(), 0);
    for (size_t j = 0; j <= text.size(); ++j) {
      if (p == '%') {
        next[j] = match[j] || (j > 0 && next[j - 1]);
      } else if (j > 0) {
        next[j] = match[j - 1] && (p == '_' || p == text[j - 1]);
      }
    }
    match.swap(next);
  }
  return match[text.size()];
}

namespace {

struct Atom {
  std::string chars;  // accepted characters; empty = any ('.')
  char quant = 0;     // 0, '*', '+' or '?'
};

std::vector<Atom> ParseRegex(std::string_view p) {
  std::vector<Atom> atoms;
  for (size_t i = 0; i < p.size(); ++i) {
    Atom a;
    if (p[i] == '.') {
    } else if (p[i] == '[') {
      size_t close = p.find(']', i);
      Check(close != std::string_view::npos, "oracle regex: open class");
      a.chars = std::string(p.substr(i + 1, close - i - 1));
      i = close;
    } else if (p[i] == '\\' && i + 1 < p.size()) {
      a.chars = std::string(1, p[++i]);
    } else {
      a.chars = std::string(1, p[i]);
    }
    if (i + 1 < p.size() && (p[i + 1] == '*' || p[i + 1] == '+' ||
                             p[i + 1] == '?')) {
      a.quant = p[++i];
    }
    atoms.push_back(a);
  }
  return atoms;
}

bool Accepts(const Atom& a, char c) {
  return a.chars.empty() || a.chars.find(c) != std::string::npos;
}

}  // namespace

bool RegexMatch(std::string_view text, std::string_view pattern) {
  std::vector<Atom> atoms = ParseRegex(pattern);
  // ok[j]: atoms[i, end) match text[j, end), for i from the last atom
  // back to the first.
  const size_t n = text.size();
  std::vector<char> ok(n + 1, 0), prev(n + 1), star(n + 1);
  ok[n] = 1;
  for (size_t i = atoms.size(); i-- > 0;) {
    prev.swap(ok);  // prev[j]: atoms[i+1, end) match text[j, end)
    const Atom& a = atoms[i];
    // star[j]: a* followed by atoms[i+1, end) matches text[j, end).
    for (size_t j = n + 1; j-- > 0;) {
      star[j] = prev[j] || (j < n && Accepts(a, text[j]) && star[j + 1]);
    }
    for (size_t j = 0; j <= n; ++j) {
      bool one = j < n && Accepts(a, text[j]);
      switch (a.quant) {
        case 0:
          ok[j] = one && prev[j + 1];
          break;
        case '?':
          ok[j] = prev[j] || (one && prev[j + 1]);
          break;
        case '*':
          ok[j] = star[j];
          break;
        default:  // '+'
          ok[j] = one && star[j + 1];
      }
    }
  }
  return ok[0];
}

int Levenshtein(std::string_view a, std::string_view b) {
  std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
    prev.swap(cur);
  }
  return prev[b.size()];
}

int SmithWaterman(std::string_view a, std::string_view b) {
  constexpr int kMatch = 2, kMismatch = -1, kGap = -2;
  std::vector<int> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      int diag = prev[j - 1] + (a[i - 1] == b[j - 1] ? kMatch : kMismatch);
      cur[j] = std::max({0, diag, prev[j] + kGap, cur[j - 1] + kGap});
      best = std::max(best, cur[j]);
    }
    prev.swap(cur);
  }
  return best;
}

void SelfTest() {
  // ATG = 0*16 + 3*4 + 2 = 14 -> R; TTT = 63 -> 63 % 20 = 3 -> E;
  // GGG = 42 -> D; CAT = 16 + 0 + 3 = 19 -> Y; the trailing "A" is dropped.
  Check(Translate("ATGTTTGGGCATA") == "REDY", "oracle: Translate");
  Check(Translate("AC") == "M", "oracle: Translate short gene");

  Check(Like("ACGTAC", "%GTA%"), "oracle: Like infix");
  Check(Like("ACGTAC", "AC_T%"), "oracle: Like underscore");
  Check(!Like("ACGTAC", "_C"), "oracle: Like too short");
  Check(Like("", "%"), "oracle: Like empty");

  Check(RegexMatch("ACGT", "AC.*"), "oracle: regex prefix");
  Check(!RegexMatch("ACGT", "AC"), "oracle: regex anchored");
  Check(RegexMatch("ACCCG", "AC+GT?"), "oracle: regex plus/optional");
  Check(!RegexMatch("AG", "AC+G"), "oracle: regex plus needs one");
  Check(RegexMatch("TAGA", "[AT]+G[ACGT]"), "oracle: regex classes");
  Check(RegexMatch("A.C", "A\\.C") && !RegexMatch("AGC", "A\\.C"),
        "oracle: regex escape");

  Check(Levenshtein("kitten", "sitting") == 3, "oracle: Levenshtein");
  Check(Levenshtein("", "ACG") == 3, "oracle: Levenshtein empty");
  Check(Levenshtein("ACGT", "AGT") == 1, "oracle: Levenshtein deletion");

  // ACGT/ACGT: four matches = 8. AAAA/TTTT: no match = 0.
  // ACGTT/AC-TT: four matches and one gap = 6, beating the ungapped
  // ACGT/ACTT (three matches, one mismatch = 5).
  Check(SmithWaterman("ACGT", "ACGT") == 8, "oracle: SW identical");
  Check(SmithWaterman("AAAA", "TTTT") == 0, "oracle: SW disjoint");
  Check(SmithWaterman("ACGTT", "ACTT") == 6, "oracle: SW gapped");
}

}  // namespace e2ebench::oracle
