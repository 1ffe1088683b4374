/// @file
/// Multi-layer GCN inference on the accelerator model: owns the
/// normalized adjacency and the per-layer weights, runs each layer's
/// combination+aggregation pair on the simulated hardware, applies
/// ReLU / re-sparsification on the host between layers (activation is
/// not part of the paper's accelerator), and verifies against the
/// golden model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/accelerator.hpp"
#include "graph/csr.hpp"
#include "linalg/dense.hpp"

namespace hymm {

/// A whole GCN (normalized adjacency + per-layer weights) simulated
/// layer by layer on the accelerator model.
class GcnModel {
 public:
  /// a_hat must be square; weights[l].rows() must chain (layer 0's
  /// input dimension is the feature length of whatever run() gets).
  /// Layer dimensions above 16 span multiple 64-byte lines per row.
  GcnModel(CsrMatrix a_hat, std::vector<DenseMatrix> weights);

  /// Convenience: Glorot-style random weights for the dimension chain
  /// in_dim -> dims[0] -> dims[1] -> ...
  static GcnModel with_random_weights(CsrMatrix a_hat, NodeId in_dim,
                                      const std::vector<NodeId>& dims,
                                      std::uint64_t seed);

  /// Number of graph nodes (rows of the adjacency).
  NodeId nodes() const { return a_hat_.rows(); }
  /// Number of layers (one weight matrix each).
  std::size_t layer_count() const { return weights_.size(); }
  /// The normalized adjacency Â.
  const CsrMatrix& a_hat() const { return a_hat_; }
  /// Per-layer weight matrices.
  const std::vector<DenseMatrix>& weights() const { return weights_; }

  /// Outcome of one whole-network inference (`run`).
  struct InferenceResult {
    DenseMatrix output;  ///< last layer's pre-activation output
    /// Per-layer simulation outcomes, in layer order.
    std::vector<LayerRunResult> layers;
    Cycle total_cycles = 0;               ///< summed over layers
    std::uint64_t total_dram_bytes = 0;   ///< summed over layers
    double total_preprocess_ms = 0.0;     ///< host-side preprocessing
    bool verified = false;                ///< output matched reference()
    double max_abs_err = 0.0;             ///< worst element error

    /// Wall-clock the modeled hardware would take at clock_ghz
    /// (pinned by tests): cycles / (clock_ghz * 1e9) seconds, i.e.
    /// cycles / (clock_ghz * 1e6) milliseconds — at 1 GHz, 1e6 cycles
    /// is exactly 1 ms.
    double runtime_ms(double clock_ghz = 1.0) const {
      return static_cast<double>(total_cycles) / (clock_ghz * 1e6);
    }
  };

  /// Everything one inference needs, named instead of positional —
  /// mirrors ExperimentRequest (core/runner.hpp) and LayerRunRequest
  /// (core/accelerator.hpp). `features` is required. Each layer
  /// builds its own LayerOperands set, freed with the layer, so the
  /// hybrid degree-sorts a_hat in every layer; that host-side cost is
  /// summed into total_preprocess_ms. An inference takes no observer: an
  /// observer's samples run on one clock, and each layer restarts at
  /// cycle 0. Observed runs go through ExperimentRequest::observer
  /// (core/runner.hpp), one layer each.
  struct InferenceRequest {
    Dataflow flow = Dataflow::kRowWiseProduct;  ///< dataflow to simulate
    const CsrMatrix* features = nullptr;        ///< required: input features
    AcceleratorConfig config;                   ///< hardware parameters
    bool verify = true;          ///< compare output against reference()
  };

  /// Simulates the whole network under the request's dataflow. When
  /// request.verify is set, the output is compared against
  /// reference(*request.features).
  InferenceResult run(const InferenceRequest& request) const;

  /// Host-side golden inference (ReLU between layers, none after the
  /// last).
  DenseMatrix reference(const CsrMatrix& features) const;

 private:
  CsrMatrix a_hat_;
  std::vector<DenseMatrix> weights_;
};

}  // namespace hymm
