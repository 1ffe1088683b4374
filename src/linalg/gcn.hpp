// Golden GCN inference model: H = sigma(A_hat * X * W), evaluated
// combination-first exactly as the accelerator does (Section II-A).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "linalg/dense.hpp"

namespace hymm {

// A_hat = D^-1/2 (A + I) D^-1/2 (Kipf-Welling symmetric
// normalization). add_self_loops=false normalizes the matrix as-is
// (rows/cols with zero degree are left untouched). The adjacency must
// be canonical (columns strictly increasing within each row), as every
// generator, reader and COO conversion produces it.
CsrMatrix normalize_adjacency(const CsrMatrix& adjacency,
                              bool add_self_loops = true);

// ReLU applied in place.
void relu_inplace(DenseMatrix& m);

// Converts a dense matrix to CSR, dropping exact zeros — used to feed
// one layer's activation into the next layer's sparse combination.
CsrMatrix dense_to_csr(const DenseMatrix& m);

struct GcnLayerResult {
  DenseMatrix combination;  // XW
  DenseMatrix aggregation;  // A_hat * XW (pre-activation)
  DenseMatrix activation;   // ReLU(A_hat * XW), or aggregation when
                            // apply_relu is false
};

// One layer, combination-first. a_hat must be nodes x nodes and
// features nodes x in_dim; weights in_dim x out_dim.
GcnLayerResult gcn_layer_reference(const CsrMatrix& a_hat,
                                   const CsrMatrix& features,
                                   const DenseMatrix& weights,
                                   bool apply_relu = true);

// Full multi-layer inference; weights[l] maps layer l's input
// dimension to its output dimension. The last layer skips ReLU.
DenseMatrix gcn_inference_reference(const CsrMatrix& a_hat,
                                    const CsrMatrix& features,
                                    const std::vector<DenseMatrix>& weights);

}  // namespace hymm
