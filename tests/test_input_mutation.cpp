// Deterministic byte-mutation tests of the input surfaces: the
// edge-list and %%HyMMSparse loaders (graph/io.hpp) and the JSON
// reader behind hymm_diff (obs/json.hpp), whose parsed documents go on
// through the run-report reader (obs/diff.hpp). Each surface gets
// kMutants seeded variants of one small valid input — byte flips,
// inserts, deletes and splices — and every variant must either load or
// be refused cleanly: CheckError from a loader, nullopt from json_parse
// or normalize_report.
// Any other exception, a crash or a sanitizer report fails the test.
// The seed and the count are fixed, so a failure names a mutant that
// reproduces.
//
// Allocation is sized by the sparse header and the node ids, so the
// header line stays fixed and edge lists load with a fixed node count:
// a mutated dimension near 2^32 would otherwise ask for a row_ptr of
// tens of GB, which is an out-of-memory by design, not a parse bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/io.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"

namespace hymm {
namespace {

constexpr std::size_t kMutants = 10000;
constexpr std::uint64_t kSeed = 0x6d757461;  // "muta"

// Bytes the grammars care about, drawn as often as arbitrary bytes.
constexpr std::string_view kInteresting =
    "0123456789-+.eE \t\r\n#%{}[]\":,naifx";

char random_byte(Rng& rng) {
  if (rng.next_bool(0.5)) {
    return kInteresting[rng.next_below(kInteresting.size())];
  }
  return static_cast<char>(rng.next_below(256));
}

// One to four stacked mutations of `seed`: flip a bit, insert a byte,
// delete a run of bytes, or splice in a copy of one of its own spans.
std::string mutate(const std::string& seed, Rng& rng) {
  std::string s = seed;
  const std::uint64_t edits = 1 + rng.next_below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.next_below(s.size() + 1);
    switch (rng.next_below(4)) {
      case 0:
        if (at < s.size()) {
          s[at] = static_cast<char>(s[at] ^ (1u << rng.next_below(8)));
        }
        break;
      case 1:
        s.insert(at, 1, random_byte(rng));
        break;
      case 2:
        s.erase(at, 1 + rng.next_below(8));
        break;
      default: {
        const std::size_t from = rng.next_below(seed.size());
        const std::size_t len = 1 + rng.next_below(seed.size() - from);
        s.insert(at, seed, from, len);
        break;
      }
    }
  }
  return s;
}

// Runs `load` on kMutants variants of `seed`. `load` returns whether
// it accepted the input, or throws CheckError. Both outcomes must
// occur, or the mutants do not probe the grammar.
template <typename Load>
void expect_clean_failures(const std::string& seed, const Load& load) {
  Rng rng(kSeed);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::string input = mutate(seed, rng);
    try {
      accepted += load(input) ? 1 : 0;
    } catch (const CheckError&) {
      // A clean refusal.
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw '" << e.what()
             << "' instead of CheckError on:\n"
             << input;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kMutants);
}

TEST(InputMutation, EdgeListLoadsOrThrowsCheckError) {
  const std::string seed =
      "# a graph\n0 1 2.5\n1 2\n2 3 -1e-3\n% note\n3 0 4\n5 6 +7\n";
  EdgeListOptions options;
  options.nodes = 64;
  options.symmetrize = true;
  expect_clean_failures(seed, [&](const std::string& input) {
    std::istringstream in(input);
    load_edge_list(in, options);
    return true;
  });
}

TEST(InputMutation, SparseMatrixLoadsOrThrowsCheckError) {
  const std::string header = "%%HyMMSparse 8 6 4\n";
  const std::string body = "0 0 1.5\n3 2 -2\n% c\n7 5 4e-1\n1 1 3\n";
  expect_clean_failures(body, [&](const std::string& input) {
    std::istringstream in(header + input);
    load_sparse_matrix(in);
    return true;
  });
}

TEST(InputMutation, RunReportJsonParsesOrIsRejected) {
  const std::string seed = R"({"schema": "hymm-run-report/9", "results": [
  {"abbrev": "CR", "flow": "HyMM", "cycles": 1.5e5, "verified": true,
   "stats": {"skipped_cycles": 120000, "dram_total_bytes": 4096},
   "combination": {"stalls": {"compute": 90000, "smq_backlog": 10000}},
   "regions": [{"stalls": {"compute": -4.2E-1}}, {}, null],
   "spatial": {"tile": 4, "grid_rows": 2, "grid_cols": 2, "regions": {
     "op": {"cycles": [7, 0, 0, 1], "dram_bytes": [64, 0, 0, 128]}}},
   "name": "a\"b\\c\u00e9\n", "tags": [false, [], {}]}]})";
  const std::optional<JsonValue> doc = json_parse(seed);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(normalize_report(*doc, nullptr).has_value());
  expect_clean_failures(seed, [](const std::string& input) {
    const std::optional<JsonValue> mutant = json_parse(input);
    EXPECT_EQ(mutant.has_value(), json_is_valid(input));
    if (mutant.has_value()) normalize_report(*mutant, nullptr);
    return mutant.has_value();
  });
}

}  // namespace
}  // namespace hymm
