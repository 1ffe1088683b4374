#include "core/gcn_model.hpp"

#include "common/check.hpp"
#include "linalg/gcn.hpp"

namespace hymm {

GcnModel::GcnModel(CsrMatrix a_hat, std::vector<DenseMatrix> weights)
    : a_hat_(std::move(a_hat)), weights_(std::move(weights)) {
  HYMM_CHECK(a_hat_.rows() == a_hat_.cols());
  HYMM_CHECK_MSG(!weights_.empty(), "need at least one layer");
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    if (l > 0) {
      HYMM_CHECK_MSG(weights_[l].rows() == weights_[l - 1].cols(),
                     "layer " << l << " input dimension does not chain");
    }
  }
}

GcnModel GcnModel::with_random_weights(CsrMatrix a_hat, NodeId in_dim,
                                       const std::vector<NodeId>& dims,
                                       std::uint64_t seed) {
  HYMM_CHECK(!dims.empty());
  std::vector<DenseMatrix> weights;
  NodeId prev = in_dim;
  for (std::size_t l = 0; l < dims.size(); ++l) {
    weights.push_back(DenseMatrix::random(prev, dims[l], seed + l));
    prev = dims[l];
  }
  return GcnModel(std::move(a_hat), std::move(weights));
}

GcnModel::InferenceResult GcnModel::run(const InferenceRequest& request) const {
  HYMM_CHECK_MSG(request.features != nullptr,
                 "InferenceRequest.features is required");
  const CsrMatrix& features = *request.features;
  HYMM_CHECK(features.rows() == a_hat_.rows());
  HYMM_CHECK(features.cols() == weights_.front().rows());
  const Accelerator accelerator(request.config);

  InferenceResult result;
  // Layer 1 streams the request's features; later layers stream the
  // re-sparsified activations this run owns.
  const CsrMatrix* x = &features;
  CsrMatrix activations;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    LayerRunRequest layer_request;
    layer_request.flow = request.flow;
    layer_request.a_hat = &a_hat_;
    layer_request.x = x;
    layer_request.w = &weights_[l];
    LayerRunResult layer = accelerator.run_layer(layer_request);
    result.total_cycles += layer.stats.cycles;
    result.total_dram_bytes += layer.stats.dram_total_bytes();
    result.total_preprocess_ms += layer.preprocess_ms;
    const bool last = l + 1 == weights_.size();
    if (last) {
      result.output = layer.output;
    } else {
      DenseMatrix h = layer.output;
      relu_inplace(h);
      activations = dense_to_csr(h);
      x = &activations;
    }
    result.layers.push_back(std::move(layer));
  }
  if (request.verify) {
    const DenseMatrix expected = reference(features);
    result.max_abs_err = DenseMatrix::max_abs_diff(result.output, expected);
    result.verified =
        DenseMatrix::allclose(result.output, expected, 1e-3, 1e-4);
  }
  return result;
}

DenseMatrix GcnModel::reference(const CsrMatrix& features) const {
  return gcn_inference_reference(a_hat_, features, weights_);
}

}  // namespace hymm
