// Tests for the edge-list / sparse-matrix I/O: round trips, format
// options and malformed-input diagnostics.
#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "graph/generator.hpp"
#include "graph/io.hpp"

namespace hymm {
namespace {

TEST(EdgeList, ParsesTriplesAndComments) {
  std::istringstream in(
      "# a comment\n"
      "% another comment\n"
      "\n"
      "0 1 2.5\n"
      "2 0\n"
      "1 2 -4e-1 \r\n"
      "3 1 +2\t\n");
  const CsrMatrix m = load_edge_list(in);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_FLOAT_EQ(m.row_values(0)[0], 2.5f);
  EXPECT_FLOAT_EQ(m.row_values(1)[0], -0.4f);
  EXPECT_FLOAT_EQ(m.row_values(2)[0], 1.0f);  // default weight
  EXPECT_FLOAT_EQ(m.row_values(3)[0], 2.0f);
}

TEST(EdgeList, SymmetrizeAndSelfLoopOptions) {
  std::istringstream in("0 1\n1 1\n");
  EdgeListOptions options;
  options.symmetrize = true;
  options.drop_self_loops = true;
  const CsrMatrix m = load_edge_list(in, options);
  EXPECT_EQ(m.nnz(), 2u);  // (0,1) and (1,0); self loop dropped
  EXPECT_EQ(m.transpose(), m);
}

TEST(EdgeList, ExplicitNodeCount) {
  std::istringstream in("0 1\n");
  EdgeListOptions options;
  options.nodes = 10;
  const CsrMatrix m = load_edge_list(in, options);
  EXPECT_EQ(m.rows(), 10u);

  std::istringstream overflow("0 12\n");
  EdgeListOptions tight;
  tight.nodes = 4;
  EXPECT_THROW(load_edge_list(overflow, tight), CheckError);
}

// A weight that is present must be one finite float and nothing else.
// A bare stream extraction would read "abc", "nan" and "inf" as 0,
// "1e999" as inf and "2.5x" as 2.5.
TEST(EdgeList, MalformedLinesThrowWithLineNumber) {
  for (const char* bad : {"broken line", "0 1 abc", "0 1 nan", "0 1 inf",
                          "0 1 1e999", "0 1 1e39", "0 1 2.5x",
                          "0 1 2.5 junk"}) {
    std::istringstream in(std::string("0 1\n") + bad + "\n");
    try {
      load_edge_list(in);
      FAIL() << "expected CheckError for " << bad;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(EdgeList, NegativeIdsRejected) {
  std::istringstream in("-1 2\n");
  EXPECT_THROW(load_edge_list(in), CheckError);
}

// Ids are cast to the 32-bit NodeId: 4294967296 would wrap to node 0,
// and 4294967295 would make the node count max_id + 1 wrap to 0.
TEST(EdgeList, OutOfRangeIdsRejectedWithLineNumber) {
  for (const char* text : {"0 1\n2 4294967296\n", "0 1\n4294967295 2\n"}) {
    std::istringstream in(text);
    try {
      load_edge_list(in);
      FAIL() << "expected CheckError for " << text;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(EdgeList, DuplicateEdgesMergeWeights) {
  std::istringstream in("0 1 1.0\n0 1 2.0\n");
  const CsrMatrix m = load_edge_list(in);
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_FLOAT_EQ(m.row_values(0)[0], 3.0f);
}

TEST(EdgeList, RoundTripThroughText) {
  GraphSpec spec;
  spec.nodes = 120;
  spec.edges = 900;
  spec.seed = 4;
  const CsrMatrix original = generate_power_law_graph(spec);
  std::stringstream buffer;
  save_edge_list(original, buffer);
  EdgeListOptions options;
  options.nodes = original.rows();
  const CsrMatrix loaded = load_edge_list(buffer, options);
  EXPECT_EQ(loaded, original);
}

TEST(SparseMatrix, RoundTripPreservesShapeAndValues) {
  FeatureSpec spec;
  spec.nodes = 40;
  spec.feature_length = 25;
  spec.density = 0.3;
  spec.seed = 9;
  const CsrMatrix original = generate_features(spec);
  std::stringstream buffer;
  save_sparse_matrix(original, buffer);
  const CsrMatrix loaded = load_sparse_matrix(buffer);
  EXPECT_EQ(loaded.rows(), original.rows());
  EXPECT_EQ(loaded.cols(), original.cols());
  EXPECT_EQ(loaded.nnz(), original.nnz());
  // Values survive the text round trip to float precision.
  for (NodeId r = 0; r < original.rows(); ++r) {
    const auto ov = original.row_values(r);
    const auto lv = loaded.row_values(r);
    ASSERT_EQ(ov.size(), lv.size());
    for (std::size_t k = 0; k < ov.size(); ++k) {
      EXPECT_NEAR(ov[k], lv[k], 1e-5);
    }
  }
}

TEST(SparseMatrix, EmptyMatrixRoundTrip) {
  const CsrMatrix empty = CsrMatrix::from_coo(CooMatrix(5, 7));
  std::stringstream buffer;
  save_sparse_matrix(empty, buffer);
  const CsrMatrix loaded = load_sparse_matrix(buffer);
  EXPECT_EQ(loaded.rows(), 5u);
  EXPECT_EQ(loaded.cols(), 7u);
  EXPECT_EQ(loaded.nnz(), 0u);
}

TEST(SparseMatrix, MissingHeaderRejected) {
  std::istringstream in("0 0 1.0\n");
  EXPECT_THROW(load_sparse_matrix(in), CheckError);
}

TEST(SparseMatrix, TruncatedBodyRejected) {
  std::istringstream in("%%HyMMSparse 3 3 2\n0 0 1.0\n");
  EXPECT_THROW(load_sparse_matrix(in), CheckError);
}

// Expects load_sparse_matrix(text) to raise a CheckError naming `line`.
void expect_sparse_error_at(const char* text, const std::string& line) {
  std::istringstream in(text);
  try {
    load_sparse_matrix(in);
    FAIL() << "expected CheckError for " << text;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
        << e.what();
  }
}

// Entry indices are parsed as long long: 4294967297 would wrap to
// column 1 of the 32-bit NodeId and load as a valid entry.
TEST(SparseMatrix, OutOfRangeEntryRejectedWithLineNumber) {
  expect_sparse_error_at("%%HyMMSparse 3 2 3\n1 4294967297 2.0\n",
                         "line 2");
  expect_sparse_error_at("%%HyMMSparse 3 2 1\n3 0 1.0\n", "line 2");
  expect_sparse_error_at("%%HyMMSparse 3 2 1\n% c\n0 -1 1.0\n", "line 3");
}

// Header fields are parsed as long long: -1 would wrap to 4294967295
// columns (and a bad_alloc further on).
TEST(SparseMatrix, BadHeaderRejectedWithLineNumber) {
  expect_sparse_error_at("%%HyMMSparse 3 -1 1\n0 0 1.0\n", "line 1");
  expect_sparse_error_at("% c\n%%HyMMSparse -3 2 1\n0 0 1.0\n", "line 2");
  expect_sparse_error_at("%%HyMMSparse 3 2 -1\n", "line 1");
  expect_sparse_error_at("%%HyMMSparse 4294967295 2 0\n", "line 1");
  expect_sparse_error_at("%%HyMMSparse 3 x 1\n", "line 1");
}

// The value column is required, finite as a float, and alone: "1e39"
// is finite as a double but inf once narrowed to Value.
TEST(SparseMatrix, BadValuesRejectedWithLineNumber) {
  for (const char* bad : {"0 0 1e39", "0 0 1 junk", "0 0 nan", "0 0 -inf",
                          "0 0 abc", "0 0 2.5x", "0 0"}) {
    expect_sparse_error_at(
        (std::string("%%HyMMSparse 2 2 1\n") + bad + "\n").c_str(),
        "line 2");
  }
  std::istringstream ok("%%HyMMSparse 2 2 1\n1 0 -3.5e2 \r\n");
  EXPECT_FLOAT_EQ(load_sparse_matrix(ok).row_values(1)[0], -350.0f);
}

TEST(IoFiles, MissingFileThrows) {
  EXPECT_THROW(load_edge_list_file("/nonexistent/path.txt"), CheckError);
  EXPECT_THROW(load_sparse_matrix_file("/nonexistent/path.txt"),
               CheckError);
}

TEST(IoFiles, FileRoundTrip) {
  GraphSpec spec;
  spec.nodes = 30;
  spec.edges = 120;
  spec.seed = 2;
  const CsrMatrix original = generate_power_law_graph(spec);
  const std::string path = "/tmp/hymm_io_test_edges.txt";
  save_edge_list_file(original, path);
  EdgeListOptions options;
  options.nodes = original.rows();
  EXPECT_EQ(load_edge_list_file(path, options), original);
}

}  // namespace
}  // namespace hymm
