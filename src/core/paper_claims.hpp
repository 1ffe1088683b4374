/// @file
/// The paper's Fig 7, 8, 9 and 11 claims, checked against one simulated
/// OP/RWP/HyMM grid. bench/paper_claims prints these verdicts and the
/// tests link the same function, so a printed verdict and its test
/// share one source. Each paper number and its tolerance are named
/// constants in paper_claims.cpp.
#pragma once

#include <string>
#include <vector>

#include "core/runner.hpp"

namespace hymm {

/// One checked claim: the paper's statement next to what the grid
/// measured.
struct PaperVerdict {
  std::string figure;     ///< "Fig 7", "Fig 8", "Fig 9", "Fig 11" or "All"
  std::string claim;      ///< the statement checked
  std::string paper;      ///< the paper's number or shape
  /// The measured value and the dataset it comes from, or every
  /// dataset on which an ordering fails.
  std::string measured;
  std::string tolerance;  ///< "exact", or the band around `paper`
  bool holds = false;     ///< whether the measurement supports the claim
};

/// Checks every claim against `grid`: one comparison per dataset, each
/// with OP, RWP and HyMM results (the grid must not be empty).
/// Orderings ("HyMM cycles <= RWP") hold exactly on every dataset;
/// magnitudes hold within a relative band around the paper's number.
/// Rows come in figure order. The Fig 11 rows for AP and AC appear
/// only when that dataset is in the grid.
std::vector<PaperVerdict> paper_verdicts(
    const std::vector<DataflowComparison>& grid);

}  // namespace hymm
