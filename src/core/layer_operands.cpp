#include "core/layer_operands.hpp"

#include "common/check.hpp"
#include "common/timer.hpp"
#include "graph/fingerprint.hpp"

namespace hymm {

LayerOperands::LayerOperands(const CsrMatrix& a_hat, const CsrMatrix& x)
    : a_hat_(&a_hat), x_(&x) {
  HYMM_CHECK(a_hat.rows() == a_hat.cols());
  HYMM_CHECK(a_hat.cols() == x.rows());
}

const LayerOperands::Sorted& LayerOperands::sorted() const {
  return sorted_.get([this] {
    const Timer timer;
    Sorted s;
    s.sort = degree_sort(*a_hat_);
    s.features = permute_feature_rows(*x_, s.sort.perm);
    s.cost_ms = timer.elapsed_ms();
    return s;
  });
}

const DegreeSortResult& LayerOperands::sort() const { return sorted().sort; }

const CsrMatrix& LayerOperands::sorted_features() const {
  return sorted().features;
}

double LayerOperands::sort_cost_ms() const { return sorted().cost_ms; }

std::shared_ptr<const LayerOperands::Csc> LayerOperands::csc() const {
  const std::lock_guard<std::mutex> lock(csc_mutex_);
  std::shared_ptr<const Csc> held = csc_.lock();
  if (held == nullptr) {
    held = std::make_shared<const Csc>(
        Csc{CscMatrix::from_csr(*x_), CscMatrix::from_csr(*a_hat_)});
    csc_ = held;
  }
  return held;
}

std::uint64_t LayerOperands::features_digest() const {
  return x_digest_.get([this] { return graph_fingerprint(*x_); });
}

std::uint64_t LayerOperands::sorted_features_digest() const {
  return sorted_x_digest_.get(
      [this] { return graph_fingerprint(sorted_features()); });
}

}  // namespace hymm
