// Batch-protocol conformance: for every computer that overrides
// EstimateBatch, a blocked call must be BIT-IDENTICAL to the sequential
// EstimateWithThreshold loop at the same SIMD level — same prune decisions,
// same distances, same ComputerStats — across odd block sizes and taus that
// straddle the pruned/not-pruned boundary (see the contract in
// distance_computer.h).
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "core/ddc_opq.h"
#include "core/ddc_pca.h"
#include "core/ddc_res.h"
#include "core/ddc_rq_cascade.h"
#include "index/distance_computer.h"
#include "simd/dispatch.h"
#include "test_util.h"

namespace resinfer::index {
namespace {

struct BatchFixture {
  data::Dataset ds = testing::SmallDataset(1200, 32, 1.0, 91, 8, 200);

  core::PqEstimatorData pq;
  core::RqEstimatorData rq;
  core::SqEstimatorData sq;
  core::LinearCorrector pq_corrector, rq_corrector, sq_corrector;

  linalg::PcaModel pca;
  linalg::Matrix rotated;
  core::DdcPcaArtifacts pca_artifacts;

  core::DdcOpqArtifacts opq_artifacts;
  core::DdcRqCascadeArtifacts cascade_artifacts;

  BatchFixture() {
    quant::PqOptions pq_options;
    pq_options.num_subspaces = 8;
    pq_options.nbits = 6;
    pq = core::BuildPqEstimatorData(ds.base, pq_options);
    quant::RqOptions rq_options;
    rq_options.num_stages = 4;
    rq_options.nbits = 6;
    rq = core::BuildRqEstimatorData(ds.base, rq_options);
    sq = core::BuildSqEstimatorData(ds.base);

    core::TrainingDataOptions training;
    training.max_queries = 80;
    {
      core::PqAdcEstimator estimator(&pq);
      pq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }
    {
      core::RqAdcEstimator estimator(&rq);
      rq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }
    {
      core::SqAdcEstimator estimator(&sq);
      sq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }

    pca = linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
    rotated = pca.TransformBatch(ds.base.data(), ds.size());
    core::DdcPcaOptions pca_options;
    pca_options.init_dim = 8;
    pca_options.delta_dim = 16;
    pca_options.training.max_queries = 80;
    pca_artifacts =
        core::TrainDdcPca(pca, rotated, ds.base, ds.train_queries,
                          pca_options);

    core::DdcOpqOptions opq_options;
    opq_options.training.max_queries = 80;
    opq_artifacts = core::TrainDdcOpq(ds.base, ds.train_queries, opq_options);

    core::DdcRqCascadeOptions cascade_options;
    cascade_options.levels = {1, 3};
    cascade_options.rq.num_stages = 3;
    cascade_options.rq.nbits = 6;
    cascade_options.training.max_queries = 80;
    cascade_artifacts =
        core::TrainDdcRqCascade(ds.base, ds.train_queries, cascade_options);
  }

  using ComputerFactory =
      std::function<std::unique_ptr<DistanceComputer>()>;

  // One factory per overriding computer; fresh instances keep the
  // sequential reference and the batch run independent.
  std::vector<std::pair<std::string, ComputerFactory>> Factories() {
    std::vector<std::pair<std::string, ComputerFactory>> factories;
    factories.emplace_back("flat", [this] {
      return std::make_unique<FlatDistanceComputer>(ds.base.data(),
                                                    ds.size(), ds.dim());
    });
    factories.emplace_back("ddc-pq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&pq),
          &pq_corrector);
    });
    factories.emplace_back("ddc-rq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::RqAdcEstimator>(&rq),
          &rq_corrector);
    });
    factories.emplace_back("ddc-sq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::SqAdcEstimator>(&sq),
          &sq_corrector);
    });
    factories.emplace_back("ddc-pca", [this] {
      return std::make_unique<core::DdcPcaComputer>(&pca, &rotated,
                                                    &pca_artifacts);
    });
    factories.emplace_back("ddc-res", [this] {
      core::DdcResOptions options;
      options.init_dim = 8;
      options.delta_dim = 8;
      return std::make_unique<core::DdcResComputer>(&pca, &rotated, options);
    });
    factories.emplace_back("ddc-opq", [this] {
      return std::make_unique<core::DdcOpqComputer>(&ds.base,
                                                    &opq_artifacts);
    });
    factories.emplace_back("ddc-rq-cascade", [this] {
      return std::make_unique<core::DdcRqCascadeComputer>(
          &ds.base, &cascade_artifacts);
    });
    return factories;
  }
};

// Trainers dominate runtime; build the shared artifacts once.
BatchFixture& Fixture() {
  static BatchFixture* fixture = new BatchFixture();
  return *fixture;
}

void ExpectBatchMatchesSequential(DistanceComputer& sequential,
                                  DistanceComputer& batched,
                                  const float* query,
                                  const std::vector<int64_t>& ids, float tau,
                                  int block_size, const std::string& label) {
  sequential.BeginQuery(query);
  batched.BeginQuery(query);
  sequential.stats().Reset();
  batched.stats().Reset();

  std::vector<EstimateResult> want(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    want[i] = sequential.EstimateWithThreshold(ids[i], tau);
  }
  std::vector<EstimateResult> got(ids.size());
  const int count = static_cast<int>(ids.size());
  for (int pos = 0; pos < count; pos += block_size) {
    batched.EstimateBatch(ids.data() + pos,
                          std::min(block_size, count - pos), tau,
                          got.data() + pos);
  }

  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(want[i].pruned, got[i].pruned)
        << label << " block=" << block_size << " tau=" << tau << " i=" << i;
    // Bit-identical, not just close.
    ASSERT_EQ(want[i].distance, got[i].distance)
        << label << " block=" << block_size << " tau=" << tau << " i=" << i;
  }

  const ComputerStats& a = sequential.stats();
  const ComputerStats& b = batched.stats();
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.pruned, b.pruned) << label;
  EXPECT_EQ(a.dims_scanned, b.dims_scanned) << label;
  EXPECT_EQ(a.exact_computations, b.exact_computations) << label;
}

TEST(EstimateBatchTest, BitIdenticalToSequentialAcrossComputersAndLevels) {
  BatchFixture& f = Fixture();

  std::vector<int64_t> ids(256);
  std::iota(ids.begin(), ids.end(), int64_t{0});
  // Mix in out-of-order, repeated ids — bucket scans are ordered but graph
  // blocks are not.
  Rng rng(11);
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ids[i] = static_cast<int64_t>(rng.Uniform() * (f.ds.size() - 1));
  }

  const std::vector<simd::SimdLevel> levels = simd::SupportedLevels();

  for (auto& [name, factory] : f.Factories()) {
    auto sequential = factory();
    auto batched = factory();
    for (simd::SimdLevel level : levels) {
      simd::ScopedSimdLevel guard(level);
      for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
        const float* query = f.ds.queries.Row(q);
        // tau sweep: +inf (nothing prunable), 0 (everything prunable),
        // and a mid-range exact distance so the block straddles the
        // pruned/not-pruned boundary.
        FlatDistanceComputer exact(f.ds.base.data(), f.ds.size(),
                                   f.ds.dim());
        exact.BeginQuery(query);
        const float mid_tau = exact.ExactDistance(ids[ids.size() / 2]);
        for (float tau : {kInfDistance, 0.0f, mid_tau}) {
          for (int block_size : {1, 3, 4, 5, 7, 16, 33, 256}) {
            ExpectBatchMatchesSequential(
                *sequential, *batched, query, ids, tau, block_size,
                name + "/" + simd::SimdLevelName(level));
          }
        }
      }
    }
  }
}

TEST(EstimateBatchTest, DefaultImplementationLoopsSequentially) {
  // A computer without an override must still satisfy the contract via the
  // base-class loop.
  BatchFixture& f = Fixture();
  FlatDistanceComputer computer(f.ds.base.data(), f.ds.size(), f.ds.dim());
  computer.BeginQuery(f.ds.queries.Row(0));
  int64_t ids[3] = {1, 5, 9};
  EstimateResult out[3];
  computer.DistanceComputer::EstimateBatch(ids, 3, kInfDistance, out);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(out[i].pruned);
    EXPECT_EQ(out[i].distance, computer.ExactDistance(ids[i]));
  }
}

TEST(EstimateBatchTest, SingleCandidateBlockMatchesSingleCall) {
  BatchFixture& f = Fixture();
  for (auto& [name, factory] : f.Factories()) {
    auto a = factory();
    auto b = factory();
    a->BeginQuery(f.ds.queries.Row(1));
    b->BeginQuery(f.ds.queries.Row(1));
    const int64_t id = 17;
    EstimateResult single = a->EstimateWithThreshold(id, kInfDistance);
    EstimateResult block;
    b->EstimateBatch(&id, 1, kInfDistance, &block);
    EXPECT_EQ(single.pruned, block.pruned) << name;
    EXPECT_EQ(single.distance, block.distance) << name;
  }
}

}  // namespace
}  // namespace resinfer::index
