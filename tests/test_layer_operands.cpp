// LayerOperands: the lazily built, shared operand set of one (A_hat, X)
// pair. Every derivative is built once under contention, equals what
// the layer would build on its own, and keeps the checkpoint keys and
// the reported sorting cost unchanged; OP's column-major pair is freed
// with its last holder.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/accelerator.hpp"
#include "core/layer_operands.hpp"
#include "core/runner.hpp"
#include "graph/fingerprint.hpp"
#include "sweep/workload_cache.hpp"

namespace hymm {
namespace {

// What one thread saw from every accessor.
struct Seen {
  const DegreeSortResult* sort = nullptr;
  const CsrMatrix* sorted_features = nullptr;
  std::shared_ptr<const LayerOperands::Csc> csc;
  std::uint64_t features_digest = 0;
  std::uint64_t sorted_features_digest = 0;
  double sort_cost_ms = -1.0;
};

TEST(LayerOperands, ConcurrentAccessorsBuildOnce) {
  const PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);
  const CsrMatrix& a_hat = prepared.a_hat();
  const CsrMatrix& x = prepared.workload().features;
  const LayerOperands operands(a_hat, x);

  constexpr int kThreads = 8;
  std::vector<Seen> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Half the threads start from the digests, so the digest of the
      // sorted features races the sort it depends on.
      Seen& s = seen[t];
      if (t % 2 == 0) {
        s.sorted_features_digest = operands.sorted_features_digest();
        s.features_digest = operands.features_digest();
      }
      s.sort = &operands.sort();
      s.sorted_features = &operands.sorted_features();
      s.csc = operands.csc();
      s.sort_cost_ms = operands.sort_cost_ms();
      if (t % 2 != 0) {
        s.features_digest = operands.features_digest();
        s.sorted_features_digest = operands.sorted_features_digest();
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (int t = 1; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    EXPECT_EQ(seen[t].sort, seen[0].sort);
    EXPECT_EQ(seen[t].sorted_features, seen[0].sorted_features);
    EXPECT_EQ(seen[t].csc, seen[0].csc);
    EXPECT_EQ(seen[t].features_digest, seen[0].features_digest);
    EXPECT_EQ(seen[t].sorted_features_digest,
              seen[0].sorted_features_digest);
    EXPECT_EQ(seen[t].sort_cost_ms, seen[0].sort_cost_ms);
  }
  EXPECT_GE(seen[0].sort_cost_ms, 0.0);

  // Each derivative is what the layer used to build for itself.
  const DegreeSortResult sort = degree_sort(a_hat);
  EXPECT_EQ(operands.sort().perm, sort.perm);
  EXPECT_TRUE(operands.sort().sorted == sort.sorted);
  EXPECT_TRUE(operands.sorted_features() ==
              permute_feature_rows(x, sort.perm));
  EXPECT_TRUE(seen[0].csc->features == CscMatrix::from_csr(x));
  EXPECT_TRUE(seen[0].csc->adjacency == CscMatrix::from_csr(a_hat));
  EXPECT_EQ(operands.features_digest(), graph_fingerprint(x));
  EXPECT_EQ(operands.sorted_features_digest(),
            graph_fingerprint(operands.sorted_features()));
  EXPECT_NE(operands.features_digest(), operands.sorted_features_digest());
}

// The set keeps no column-major pair of its own: the pair lives while a
// caller holds it, and a caller after the last holder builds a new one.
TEST(LayerOperands, CscIsFreedWithItsLastHolder) {
  const PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);
  const LayerOperands& operands = prepared.operands();
  std::shared_ptr<const LayerOperands::Csc> first = operands.csc();
  std::shared_ptr<const LayerOperands::Csc> second = operands.csc();
  EXPECT_EQ(first, second);
  const std::weak_ptr<const LayerOperands::Csc> watch = first;
  first.reset();
  EXPECT_FALSE(watch.expired());  // `second` still holds the pair
  second.reset();
  EXPECT_TRUE(watch.expired());
  const std::shared_ptr<const LayerOperands::Csc> rebuilt = operands.csc();
  EXPECT_TRUE(rebuilt->features == CscMatrix::from_csr(operands.features()));
  EXPECT_TRUE(rebuilt->adjacency == CscMatrix::from_csr(operands.a_hat()));
}

// The key built from the set's cached digest equals the key built from
// the streamed matrix, so the run reports' checkpoint keys do not move.
TEST(LayerOperands, KeyFromSetEqualsKeyFromMatrix) {
  const PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);
  const LayerOperands& operands = prepared.operands();
  AcceleratorConfig config;
  config.dmb_bytes = 128 * 1024;
  for (const Dataflow flow : {Dataflow::kOuterProduct,
                              Dataflow::kRowWiseProduct, Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const CsrMatrix& streamed = flow == Dataflow::kHybrid
                                    ? operands.sorted_features()
                                    : operands.features();
    EXPECT_EQ(combination_checkpoint_key(operands, prepared.weights(), config,
                                         flow),
              combination_checkpoint_key(streamed, prepared.weights(), config,
                                         flow));
  }
}

// preprocess_ms has one meaning: the operand set's recorded sorting
// cost. A run given a shared set reports exactly that set's cost, on
// every run that reads it; the homogeneous flows report none.
TEST(LayerOperands, SharedSetRunReportsTheSetsSortCost) {
  const PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);
  ExperimentRequest request;
  request.workload = &prepared.workload();
  request.a_hat = &prepared.a_hat();
  request.weights = &prepared.weights();
  request.reference = &prepared.reference();
  request.operands = &prepared.operands();
  request.flow = Dataflow::kHybrid;
  const ExperimentResult first = run_experiment(request);
  const ExperimentResult second = run_experiment(request);
  EXPECT_EQ(first.preprocess_ms, prepared.operands().sort_cost_ms());
  EXPECT_EQ(second.preprocess_ms, prepared.operands().sort_cost_ms());

  for (const Dataflow flow :
       {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct}) {
    request.flow = flow;
    EXPECT_EQ(run_experiment(request).preprocess_ms, 0.0);
  }
}

// A set built on other matrices than the request's is refused.
TEST(LayerOperands, RequestWithForeignSetThrows) {
  const PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);
  const CsrMatrix features_copy = prepared.workload().features;
  const LayerOperands foreign(prepared.a_hat(), features_copy);
  LayerRunRequest request;
  request.flow = Dataflow::kHybrid;
  request.a_hat = &prepared.a_hat();
  request.x = &prepared.workload().features;
  request.w = &prepared.weights();
  request.operands = &foreign;
  EXPECT_THROW(Accelerator(AcceleratorConfig{}).run_layer(request),
               CheckError);
}

}  // namespace
}  // namespace hymm
