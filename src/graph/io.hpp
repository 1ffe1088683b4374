// Plain-text graph and sparse-matrix I/O, so users can feed real
// datasets (e.g. exported from PyTorch-Geometric) to the simulator
// instead of the synthetic stand-ins.
//
// Formats:
//  * Edge list — one "src dst [weight]" triple per line; '#' or '%'
//    comment lines are skipped. Node ids are 0-based. Missing weights
//    default to 1.0. `load_edge_list` can symmetrize on load.
//  * Sparse matrix ("%%HyMMSparse rows cols nnz" header followed by
//    "row col value" lines) — a lossless CSR dump used for features.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr.hpp"

namespace hymm {

struct EdgeListOptions {
  // Mirror every edge (u, v) as (v, u); duplicates merge.
  bool symmetrize = false;
  // Node count; 0 infers max id + 1 from the data.
  NodeId nodes = 0;
  // Drop u == v entries (adjacency matrices usually exclude them).
  bool drop_self_loops = false;
};

// Parses an edge list from a stream / file. Throws CheckError on
// malformed input (with the offending line number).
CsrMatrix load_edge_list(std::istream& in,
                         const EdgeListOptions& options = {});
CsrMatrix load_edge_list_file(const std::string& path,
                              const EdgeListOptions& options = {});

// Writes "src dst weight" lines (one per stored non-zero).
void save_edge_list(const CsrMatrix& matrix, std::ostream& out);
void save_edge_list_file(const CsrMatrix& matrix, const std::string& path);

// Lossless sparse-matrix round trip (keeps explicit shape, unlike an
// edge list).
CsrMatrix load_sparse_matrix(std::istream& in);
CsrMatrix load_sparse_matrix_file(const std::string& path);
void save_sparse_matrix(const CsrMatrix& matrix, std::ostream& out);

}  // namespace hymm
