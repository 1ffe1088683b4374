#include "sweep/workload_cache.hpp"

#include <sstream>
#include <utility>

namespace hymm {

PreparedWorkload::PreparedWorkload(const DatasetSpec& spec, double scale,
                                   std::uint64_t seed)
    : PreparedWorkload(build_workload(spec, scale, seed), seed) {}

PreparedWorkload::PreparedWorkload(GcnWorkload workload, std::uint64_t seed)
    : workload_(std::move(workload)),
      seed_(seed),
      a_hat_(normalize_adjacency(workload_.adjacency)),
      // Same seed derivation compare_dataflows has always used, so
      // cached sweeps reproduce the historical cycle counts exactly.
      weights_(DenseMatrix::random(workload_.features.cols(),
                                   workload_.spec.layer_dim, seed + 7)),
      golden_(gcn_layer_reference(a_hat_, workload_.features, weights_,
                                  /*apply_relu=*/false)),
      operands_(a_hat_, workload_.features) {}

std::string WorkloadCache::key_of(const DatasetSpec& spec, double scale,
                                  std::uint64_t seed) {
  // The spec's identity fields all feed build_workload, so they all
  // key the cache (two same-abbrev specs with edited stats differ).
  std::ostringstream oss;
  oss << spec.abbrev << '|' << spec.name << '|' << spec.nodes << '|'
      << spec.edges << '|' << spec.feature_length << '|' << spec.layer_dim
      << '|' << spec.feature_sparsity << '|' << scale << '|' << seed;
  return oss.str();
}

std::shared_ptr<const PreparedWorkload> WorkloadCache::get(
    const DatasetSpec& spec, double scale, std::uint64_t seed) {
  const std::string key = key_of(spec, scale, seed);
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Entry>& slot = entries_[key];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  // The build runs outside the map lock so distinct keys build in
  // parallel; call_once serializes same-key callers onto one build
  // (and retries on a failed/throwing build).
  std::call_once(entry->once, [&] {
    entry->value =
        std::make_shared<const PreparedWorkload>(spec, scale, seed);
    builds_.fetch_add(1);
  });
  return entry->value;
}

}  // namespace hymm
