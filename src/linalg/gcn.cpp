#include "linalg/gcn.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "linalg/spdemm.hpp"

namespace hymm {

CsrMatrix normalize_adjacency(const CsrMatrix& adjacency,
                              bool add_self_loops) {
  HYMM_CHECK(adjacency.rows() == adjacency.cols());
  const NodeId n = adjacency.rows();
  std::vector<EdgeCount> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> col_idx;
  std::vector<Value> values;
  const std::size_t capacity = adjacency.nnz() + (add_self_loops ? n : 0);
  col_idx.reserve(capacity);
  values.reserve(capacity);

  // Copy each row, inserting the self loop in column order or adding
  // it to a stored diagonal, and sum the degree in the same pass.
  // Degree = row sum of |values| (unit-weight graphs: the degree).
  std::vector<double> inv_sqrt(n, 0.0);
  for (NodeId r = 0; r < n; ++r) {
    const auto cols = adjacency.row_cols(r);
    const auto vals = adjacency.row_values(r);
    double degree = 0.0;
    const auto emit = [&](NodeId c, Value v) {
      col_idx.push_back(c);
      values.push_back(v);
      degree += std::abs(v);
    };
    bool loop_pending = add_self_loops;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      HYMM_CHECK_MSG(k == 0 || cols[k - 1] < cols[k],
                     "row " << r << " of the adjacency is not sorted and "
                            "duplicate-free");
      if (loop_pending && cols[k] >= r) {
        loop_pending = false;
        if (cols[k] == r) {
          emit(r, vals[k] + 1.0f);
          continue;
        }
        emit(r, 1.0f);
      }
      emit(cols[k], vals[k]);
    }
    if (loop_pending) emit(r, 1.0f);
    row_ptr[r + 1] = col_idx.size();
    inv_sqrt[r] = degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
  }

  for (NodeId r = 0; r < n; ++r) {
    for (EdgeCount k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      values[k] = static_cast<Value>(values[k] * inv_sqrt[r] *
                                     inv_sqrt[col_idx[k]]);
    }
  }
  return CsrMatrix::from_parts(n, n, std::move(row_ptr), std::move(col_idx),
                               std::move(values));
}

void relu_inplace(DenseMatrix& m) {
  for (NodeId r = 0; r < m.rows(); ++r) {
    for (Value& v : m.row(r)) {
      if (v < 0.0f) v = 0.0f;
    }
  }
}

CsrMatrix dense_to_csr(const DenseMatrix& m) {
  // A row-major scan visits the non-zeros in canonical CSR order.
  std::vector<EdgeCount> row_ptr(static_cast<std::size_t>(m.rows()) + 1, 0);
  std::vector<NodeId> col_idx;
  std::vector<Value> values;
  for (NodeId r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (NodeId c = 0; c < m.cols(); ++c) {
      if (row[c] != 0.0f) {
        col_idx.push_back(c);
        values.push_back(row[c]);
      }
    }
    row_ptr[r + 1] = col_idx.size();
  }
  return CsrMatrix::from_parts(m.rows(), m.cols(), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

GcnLayerResult gcn_layer_reference(const CsrMatrix& a_hat,
                                   const CsrMatrix& features,
                                   const DenseMatrix& weights,
                                   bool apply_relu) {
  HYMM_CHECK(a_hat.rows() == a_hat.cols());
  HYMM_CHECK(a_hat.cols() == features.rows());
  HYMM_CHECK(features.cols() == weights.rows());
  GcnLayerResult result;
  result.combination = sparse_times_dense(features, weights);
  result.aggregation = spdemm_row_wise(a_hat, result.combination);
  result.activation = result.aggregation;
  if (apply_relu) relu_inplace(result.activation);
  return result;
}

DenseMatrix gcn_inference_reference(const CsrMatrix& a_hat,
                                    const CsrMatrix& features,
                                    const std::vector<DenseMatrix>& weights) {
  HYMM_CHECK_MSG(!weights.empty(), "need at least one layer");
  CsrMatrix x = features;
  DenseMatrix h;
  for (std::size_t l = 0; l < weights.size(); ++l) {
    const bool last = l + 1 == weights.size();
    GcnLayerResult layer =
        gcn_layer_reference(a_hat, x, weights[l], /*apply_relu=*/!last);
    h = std::move(layer.activation);
    if (!last) x = dense_to_csr(h);
  }
  return h;
}

}  // namespace hymm
