// Compressed sparse row matrix: the RWP engines' native format and the
// canonical in-memory representation of graphs and sparse features.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/coo.hpp"

namespace hymm {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  // Builds from a canonicalized COO (sorted, duplicates merged). The
  // input is canonicalized by this call if needed.
  static CsrMatrix from_coo(CooMatrix coo);

  // Builds directly from raw arrays (sizes are validated).
  static CsrMatrix from_parts(NodeId rows, NodeId cols,
                              std::vector<EdgeCount> row_ptr,
                              std::vector<NodeId> col_idx,
                              std::vector<Value> values);

  NodeId rows() const { return rows_; }
  NodeId cols() const { return cols_; }
  EdgeCount nnz() const { return col_idx_.size(); }

  const std::vector<EdgeCount>& row_ptr() const { return row_ptr_; }
  const std::vector<NodeId>& col_idx() const { return col_idx_; }
  const std::vector<Value>& values() const { return values_; }

  EdgeCount row_nnz(NodeId row) const;
  std::span<const NodeId> row_cols(NodeId row) const;
  std::span<const Value> row_values(NodeId row) const;

  // Non-zero count per column (the transpose's row degrees).
  std::vector<EdgeCount> column_nnz() const;

  CooMatrix to_coo() const;
  CsrMatrix transpose() const;

  // Extracts rows [row_begin, row_end) and columns [col_begin, col_end)
  // as a new matrix of that shape (indices are rebased).
  CsrMatrix submatrix(NodeId row_begin, NodeId row_end, NodeId col_begin,
                      NodeId col_end) const;

  // Applies a symmetric permutation: entry (r, c) moves to
  // (perm[r], perm[c]). perm must be a permutation of [0, rows) and
  // the matrix must be square.
  CsrMatrix permute_symmetric(std::span<const NodeId> perm) const;

  // Applies a row permutation only: row r moves to perm[r].
  CsrMatrix permute_rows(std::span<const NodeId> perm) const;

  // Storage footprint of the format itself: pointers (one per row + 1)
  // plus (index, value) pairs. ptr/idx entries are 4 bytes each, as in
  // the paper's SMQ entries.
  std::size_t storage_bytes() const;

  friend bool operator==(const CsrMatrix&, const CsrMatrix&) = default;

 private:
  NodeId rows_ = 0;
  NodeId cols_ = 0;
  std::vector<EdgeCount> row_ptr_;  // size rows_ + 1
  std::vector<NodeId> col_idx_;     // size nnz
  std::vector<Value> values_;       // size nnz
};

// Compressed sparse column matrix: the OP engines' native format.
// Internally stores the transpose in CSR layout; accessors present the
// column-major view.
class CscMatrix {
 public:
  CscMatrix() = default;

  static CscMatrix from_csr(const CsrMatrix& csr);
  static CscMatrix from_coo(CooMatrix coo);

  NodeId rows() const { return transposed_.cols(); }
  NodeId cols() const { return transposed_.rows(); }
  EdgeCount nnz() const { return transposed_.nnz(); }

  const std::vector<EdgeCount>& col_ptr() const {
    return transposed_.row_ptr();
  }
  const std::vector<NodeId>& row_idx() const { return transposed_.col_idx(); }
  const std::vector<Value>& values() const { return transposed_.values(); }

  EdgeCount col_nnz(NodeId col) const { return transposed_.row_nnz(col); }
  std::span<const NodeId> col_rows(NodeId col) const {
    return transposed_.row_cols(col);
  }
  std::span<const Value> col_values(NodeId col) const {
    return transposed_.row_values(col);
  }

  CsrMatrix to_csr() const { return transposed_.transpose(); }

  std::size_t storage_bytes() const { return transposed_.storage_bytes(); }

  friend bool operator==(const CscMatrix&, const CscMatrix&) = default;

 private:
  explicit CscMatrix(CsrMatrix transposed)
      : transposed_(std::move(transposed)) {}

  CsrMatrix transposed_;
};

}  // namespace hymm
