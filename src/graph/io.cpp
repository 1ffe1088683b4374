#include "graph/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/check.hpp"

namespace hymm {

namespace {

// Ids and dimensions are parsed as long long and must fit NodeId. The
// largest NodeId stays reserved so `max_id + 1` cannot wrap.
constexpr auto kIdLimit =
    static_cast<long long>(std::numeric_limits<NodeId>::max());

bool is_comment_or_blank(const std::string& line) {
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == '#' || c == '%';
  }
  return true;  // blank
}

// Reads a line's value column from `ls`, which has consumed the ids:
// the rest of the line must hold one number, finite as a Value, and
// nothing after it but whitespace. A line without the column yields
// `absent`, or is an error when the column is required.
Value read_value(std::istringstream& ls, std::optional<Value> absent,
                 const char* source, std::size_t line_no,
                 const std::string& line) {
  std::string token;
  if (!(ls >> token)) {
    HYMM_CHECK_MSG(absent.has_value(), source << " line " << line_no
                                              << " is malformed: '" << line
                                              << "'");
    return *absent;
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  std::string trailing;
  HYMM_CHECK_MSG(end == token.c_str() + token.size() &&
                     std::isfinite(value) &&
                     std::abs(value) <= std::numeric_limits<Value>::max() &&
                     !(ls >> trailing),
                 source << " line " << line_no << " has value '" << token
                        << "', expected one finite number and nothing "
                           "after it: '"
                        << line << "'");
  return static_cast<Value>(value);
}

std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  HYMM_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  return in;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  HYMM_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  return out;
}

}  // namespace

CsrMatrix load_edge_list(std::istream& in, const EdgeListOptions& options) {
  std::vector<Triplet> triplets;
  NodeId max_id = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (is_comment_or_blank(line)) continue;
    std::istringstream ls(line);
    long long src = 0, dst = 0;
    HYMM_CHECK_MSG(static_cast<bool>(ls >> src >> dst),
                   "edge list line " << line_no << " is malformed: '"
                                     << line << "'");
    // Optional third column.
    const Value weight = read_value(ls, 1.0f, "edge list", line_no, line);
    HYMM_CHECK_MSG(src >= 0 && dst >= 0,
                   "edge list line " << line_no << " has negative ids");
    HYMM_CHECK_MSG(src < kIdLimit && dst < kIdLimit,
                   "edge list line " << line_no << " has node id "
                                     << std::max(src, dst)
                                     << ", ids must be below " << kIdLimit);
    const auto u = static_cast<NodeId>(src);
    const auto v = static_cast<NodeId>(dst);
    if (options.drop_self_loops && u == v) continue;
    max_id = std::max({max_id, u, v});
    triplets.push_back(Triplet{u, v, weight});
    if (options.symmetrize && u != v) {
      triplets.push_back(Triplet{v, u, weight});
    }
  }
  const NodeId nodes =
      options.nodes > 0 ? options.nodes
                        : (triplets.empty() ? 0 : max_id + 1);
  HYMM_CHECK_MSG(options.nodes == 0 || max_id < options.nodes,
                 "edge list references node " << max_id
                                              << " but nodes = "
                                              << options.nodes);
  CooMatrix coo(nodes, nodes);
  for (const Triplet& t : triplets) coo.add(t.row, t.col, t.value);
  coo.sort_and_merge();
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix load_edge_list_file(const std::string& path,
                              const EdgeListOptions& options) {
  auto in = open_input(path);
  return load_edge_list(in, options);
}

void save_edge_list(const CsrMatrix& matrix, std::ostream& out) {
  out << "# HyMM edge list: " << matrix.rows() << " nodes, "
      << matrix.nnz() << " edges\n";
  for (NodeId r = 0; r < matrix.rows(); ++r) {
    const auto cols = matrix.row_cols(r);
    const auto vals = matrix.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out << r << ' ' << cols[k] << ' ' << vals[k] << '\n';
    }
  }
}

void save_edge_list_file(const CsrMatrix& matrix, const std::string& path) {
  auto out = open_output(path);
  save_edge_list(matrix, out);
}

CsrMatrix load_sparse_matrix(std::istream& in) {
  std::string line;
  // Header (skipping leading comments).
  long long rows = 0, cols = 0, nnz = 0;
  bool have_header = false;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind("%%HyMMSparse", 0) == 0) {
      std::istringstream hs(line.substr(12));
      HYMM_CHECK_MSG(static_cast<bool>(hs >> rows >> cols >> nnz),
                     "sparse matrix line " << line_no
                                           << " is a bad %%HyMMSparse header: '"
                                           << line << "'");
      HYMM_CHECK_MSG(rows >= 0 && cols >= 0 && nnz >= 0,
                     "sparse matrix line "
                         << line_no
                         << " has a negative %%HyMMSparse dimension or count: '"
                         << line << "'");
      HYMM_CHECK_MSG(rows < kIdLimit && cols < kIdLimit,
                     "sparse matrix line " << line_no << " has dimension "
                                           << std::max(rows, cols)
                                           << ", dimensions must be below "
                                           << kIdLimit);
      have_header = true;
      break;
    }
    HYMM_CHECK_MSG(is_comment_or_blank(line),
                   "expected %%HyMMSparse header, got '" << line << "'");
  }
  HYMM_CHECK_MSG(have_header, "missing %%HyMMSparse header");

  CooMatrix coo(static_cast<NodeId>(rows), static_cast<NodeId>(cols));
  long long seen = 0;
  while (seen < nnz && std::getline(in, line)) {
    ++line_no;
    if (is_comment_or_blank(line)) continue;
    std::istringstream ls(line);
    long long r = 0, c = 0;
    HYMM_CHECK_MSG(static_cast<bool>(ls >> r >> c),
                   "sparse matrix line " << line_no << " is malformed: '"
                                         << line << "'");
    const Value v =
        read_value(ls, std::nullopt, "sparse matrix", line_no, line);
    HYMM_CHECK_MSG(r >= 0 && c >= 0,
                   "sparse matrix line " << line_no << " has a negative index");
    HYMM_CHECK_MSG(r < rows && c < cols,
                   "sparse matrix line " << line_no << " has entry (" << r
                                         << ", " << c << ") outside the "
                                         << rows << "x" << cols << " header");
    coo.add(static_cast<NodeId>(r), static_cast<NodeId>(c), v);
    ++seen;
  }
  HYMM_CHECK_MSG(seen == nnz, "sparse matrix truncated: header promised "
                                  << nnz << " entries, found " << seen);
  coo.sort_and_merge();
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix load_sparse_matrix_file(const std::string& path) {
  auto in = open_input(path);
  return load_sparse_matrix(in);
}

void save_sparse_matrix(const CsrMatrix& matrix, std::ostream& out) {
  out << "%%HyMMSparse " << matrix.rows() << ' ' << matrix.cols() << ' '
      << matrix.nnz() << '\n';
  for (NodeId r = 0; r < matrix.rows(); ++r) {
    const auto cols = matrix.row_cols(r);
    const auto vals = matrix.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out << r << ' ' << cols[k] << ' ' << vals[k] << '\n';
    }
  }
}

}  // namespace hymm
