#include "core/ddc_any.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/ground_truth.h"
#include "data/metrics.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "simd/kernels.h"
#include "test_util.h"

namespace resinfer::core {
namespace {

struct AnyFixture {
  data::Dataset ds = testing::SmallDataset(3000, 32, 0.9, 41, 48, 400);
  PqEstimatorData pq;
  RqEstimatorData rq;
  SqEstimatorData sq;

  AnyFixture() {
    quant::PqOptions pq_options;
    pq_options.num_subspaces = 8;
    pq_options.nbits = 6;
    pq = BuildPqEstimatorData(ds.base, pq_options);

    quant::RqOptions rq_options;
    rq_options.num_stages = 4;
    rq_options.nbits = 6;
    rq = BuildRqEstimatorData(ds.base, rq_options);

    sq = BuildSqEstimatorData(ds.base);
  }
};

// Built once; the trainers dominate the suite's runtime otherwise.
AnyFixture& Fixture() {
  static AnyFixture* fixture = new AnyFixture();
  return *fixture;
}

TEST(DdcAnyTest, ArtifactShapes) {
  AnyFixture& f = Fixture();
  const auto n = static_cast<std::size_t>(f.ds.size());
  EXPECT_EQ(f.pq.codes.size(), n * f.pq.pq.code_size());
  EXPECT_EQ(f.pq.recon_errors.size(), n);
  EXPECT_EQ(f.rq.codes.size(), n * f.rq.rq.code_size());
  EXPECT_EQ(f.rq.recon_norms.size(), n);
  EXPECT_EQ(f.rq.recon_errors.size(), n);
  EXPECT_EQ(f.sq.codes.size(), n * 32);
  EXPECT_GT(f.pq.ExtraBytes(), 0);
  EXPECT_GT(f.rq.ExtraBytes(), 0);
  EXPECT_GT(f.sq.ExtraBytes(), 0);
}

TEST(DdcAnyTest, EstimatorsReportDeclaredSizes) {
  AnyFixture& f = Fixture();
  PqAdcEstimator pq(&f.pq);
  RqAdcEstimator rq(&f.rq);
  SqAdcEstimator sq(&f.sq);
  for (ApproxDistanceEstimator* estimator :
       std::vector<ApproxDistanceEstimator*>{&pq, &rq, &sq}) {
    EXPECT_EQ(estimator->dim(), 32);
    EXPECT_EQ(estimator->size(), f.ds.size());
    EXPECT_TRUE(estimator->has_extra_feature());
  }
}

TEST(DdcAnyTest, EstimatesTrackExactDistances) {
  // Every backend must produce approximations whose mean relative error is
  // small — otherwise the corrector has nothing to work with.
  AnyFixture& f = Fixture();
  PqAdcEstimator pq(&f.pq);
  RqAdcEstimator rq(&f.rq);
  SqAdcEstimator sq(&f.sq);
  struct Case {
    ApproxDistanceEstimator* estimator;
    double max_mean_rel_err;
  };
  for (const Case& c : {Case{&pq, 0.35}, Case{&rq, 0.35}, Case{&sq, 0.05}}) {
    double total = 0.0;
    int count = 0;
    for (int64_t q = 0; q < 8; ++q) {
      const float* query = f.ds.queries.Row(q);
      c.estimator->BeginQuery(query);
      for (int64_t i = 0; i < f.ds.size(); i += 97) {
        float extra = 0.0f;
        const float approx = c.estimator->Estimate(i, &extra);
        const float exact = simd::L2Sqr(query, f.ds.base.Row(i), 32);
        total += std::abs(approx - exact) / (1.0f + exact);
        ++count;
      }
    }
    EXPECT_LT(total / count, c.max_mean_rel_err)
        << c.estimator->name() << " drifted from the exact distances";
  }
}

TEST(DdcAnyTest, ExtraFeatureIsPerPointReconstructionError) {
  AnyFixture& f = Fixture();
  RqAdcEstimator rq(&f.rq);
  rq.BeginQuery(f.ds.queries.Row(0));
  float extra = -1.0f;
  rq.Estimate(5, &extra);
  EXPECT_FLOAT_EQ(extra, f.rq.recon_errors[5]);
}

TEST(DdcAnyTest, TrainedCorrectorMeetsTargetRecallOnTrainingSet) {
  AnyFixture& f = Fixture();
  TrainingDataOptions training;
  training.max_queries = 150;
  LinearCorrectorOptions corrector_options;
  corrector_options.target_recall = 0.995;

  RqAdcEstimator estimator(&f.rq);
  LinearCorrector corrector = TrainAnyCorrector(
      estimator, f.ds.base, f.ds.train_queries, training, corrector_options);
  EXPECT_TRUE(corrector.trained());

  // Re-materialize the training samples and check the calibrated boundary.
  std::vector<LabeledPair> pairs =
      CollectLabeledPairs(f.ds.base, f.ds.train_queries, training);
  int64_t current = -1;
  std::vector<CorrectorSample> samples = MaterializeSamples(
      pairs, [&](int64_t query_index, int64_t id, float* extra) {
        if (query_index != current) {
          estimator.BeginQuery(f.ds.train_queries.Row(query_index));
          current = query_index;
        }
        return estimator.Estimate(id, extra);
      });
  LinearCorrector::Metrics metrics = corrector.Evaluate(samples);
  EXPECT_GE(metrics.label0_recall, 0.99);
  EXPECT_GT(metrics.label1_recall, 0.3);  // it must actually prune
}

// Plain bytes only: gtest prints this parameter as a byte dump, and CTest
// folds that dump into the discovered test names. A std::string member would
// put a heap address there and give the tests a different name on every run.
struct BackendCase {
  char name[32];
  double min_recall;
};
static_assert(sizeof(BackendCase) == 40, "no padding bytes in the test name");

class DdcAnyEndToEndTest : public ::testing::TestWithParam<BackendCase> {
 protected:
  std::unique_ptr<DdcAnyComputer> MakeComputer(const LinearCorrector* c) {
    AnyFixture& f = Fixture();
    std::unique_ptr<ApproxDistanceEstimator> estimator;
    if (std::string(GetParam().name) == "pq") {
      estimator = std::make_unique<PqAdcEstimator>(&f.pq);
    } else if (std::string(GetParam().name) == "rq") {
      estimator = std::make_unique<RqAdcEstimator>(&f.rq);
    } else {
      estimator = std::make_unique<SqAdcEstimator>(&f.sq);
    }
    return std::make_unique<DdcAnyComputer>(&f.ds.base, std::move(estimator),
                                            c);
  }

  LinearCorrector TrainFor() {
    AnyFixture& f = Fixture();
    TrainingDataOptions training;
    training.max_queries = 150;
    std::unique_ptr<ApproxDistanceEstimator> estimator;
    if (std::string(GetParam().name) == "pq") {
      estimator = std::make_unique<PqAdcEstimator>(&f.pq);
    } else if (std::string(GetParam().name) == "rq") {
      estimator = std::make_unique<RqAdcEstimator>(&f.rq);
    } else {
      estimator = std::make_unique<SqAdcEstimator>(&f.sq);
    }
    return TrainAnyCorrector(*estimator, f.ds.base, f.ds.train_queries,
                             training);
  }
};

TEST_P(DdcAnyEndToEndTest, FlatScanRecallAndPruning) {
  AnyFixture& f = Fixture();
  LinearCorrector corrector = TrainFor();
  auto computer = MakeComputer(&corrector);

  index::FlatIndex flat(f.ds.base);
  const int k = 10;
  std::vector<std::vector<int64_t>> truth =
      data::BruteForceKnn(f.ds.base, f.ds.queries, k);
  std::vector<std::vector<int64_t>> results;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    computer->BeginQuery(f.ds.queries.Row(q));
    std::vector<index::Neighbor> found =
        flat.Search(*computer, f.ds.queries.Row(q), k);
    std::vector<int64_t> ids;
    for (const auto& nb : found) ids.push_back(nb.id);
    results.push_back(std::move(ids));
  }
  EXPECT_GE(data::MeanRecallAtK(results, truth, k), GetParam().min_recall);
  // The corrected scan must actually skip exact computations.
  EXPECT_GT(computer->stats().PrunedRate(), 0.3);
}

TEST_P(DdcAnyEndToEndTest, PrunedCandidatesAreAlmostAlwaysBeyondTau) {
  // Soundness of the learned boundary at its calibrated confidence: among
  // pruned candidates, the fraction whose exact distance is <= tau must be
  // small (they are the recall loss the target_recall knob controls).
  AnyFixture& f = Fixture();
  LinearCorrector corrector = TrainFor();
  auto computer = MakeComputer(&corrector);

  int64_t pruned = 0;
  int64_t wrong = 0;
  for (int64_t q = 0; q < 16; ++q) {
    const float* query = f.ds.queries.Row(q);
    computer->BeginQuery(query);
    // tau from the true 10-NN of this query.
    std::vector<data::Neighbor> nn =
        data::BruteForceKnnSingle(f.ds.base, query, 10);
    const float tau = nn.back().distance;
    for (int64_t i = 0; i < f.ds.size(); i += 13) {
      index::EstimateResult r = computer->EstimateWithThreshold(i, tau);
      if (r.pruned) {
        ++pruned;
        const float exact = simd::L2Sqr(query, f.ds.base.Row(i), 32);
        if (exact <= tau) ++wrong;
      }
    }
  }
  ASSERT_GT(pruned, 0);
  EXPECT_LT(static_cast<double>(wrong) / pruned, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DdcAnyEndToEndTest,
    ::testing::Values(BackendCase{"pq", 0.92}, BackendCase{"rq", 0.92},
                      BackendCase{"sq", 0.95}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return std::string(info.param.name);
    });

TEST(DdcAnyTest, WorksInsideHnsw) {
  // The generic computer must slot into the graph index exactly like the
  // built-in DDC variants.
  AnyFixture& f = Fixture();
  TrainingDataOptions training;
  training.max_queries = 150;
  RqAdcEstimator trainer(&f.rq);
  LinearCorrector corrector =
      TrainAnyCorrector(trainer, f.ds.base, f.ds.train_queries, training);

  index::HnswOptions options;
  options.ef_construction = 80;
  index::HnswIndex hnsw = index::HnswIndex::Build(f.ds.base, options);

  DdcAnyComputer computer(&f.ds.base,
                          std::make_unique<RqAdcEstimator>(&f.rq),
                          &corrector);
  const int k = 10;
  std::vector<std::vector<int64_t>> truth =
      data::BruteForceKnn(f.ds.base, f.ds.queries, k);
  std::vector<std::vector<int64_t>> results;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    computer.BeginQuery(f.ds.queries.Row(q));
    std::vector<index::Neighbor> found =
        hnsw.Search(computer, f.ds.queries.Row(q), k, /*ef=*/120);
    std::vector<int64_t> ids;
    for (const auto& nb : found) ids.push_back(nb.id);
    results.push_back(std::move(ids));
  }
  EXPECT_GE(data::MeanRecallAtK(results, truth, k), 0.85);
}

TEST(DdcAnyTest, UntrainedCorrectorNeverPrunes) {
  AnyFixture& f = Fixture();
  LinearCorrector untrained;
  DdcAnyComputer computer(&f.ds.base,
                          std::make_unique<SqAdcEstimator>(&f.sq),
                          &untrained);
  computer.BeginQuery(f.ds.queries.Row(0));
  for (int64_t i = 0; i < 100; ++i) {
    index::EstimateResult r = computer.EstimateWithThreshold(i, 1e-3f);
    EXPECT_FALSE(r.pruned);
    // Not pruned => the returned distance is exact.
    EXPECT_FLOAT_EQ(
        r.distance,
        simd::L2Sqr(f.ds.queries.Row(0), f.ds.base.Row(i), 32));
  }
}

TEST(DdcAnyTest, InfiniteTauForcesExactPath) {
  AnyFixture& f = Fixture();
  TrainingDataOptions training;
  training.max_queries = 60;
  SqAdcEstimator trainer(&f.sq);
  LinearCorrector corrector =
      TrainAnyCorrector(trainer, f.ds.base, f.ds.train_queries, training);
  DdcAnyComputer computer(&f.ds.base,
                          std::make_unique<SqAdcEstimator>(&f.sq),
                          &corrector);
  computer.BeginQuery(f.ds.queries.Row(1));
  index::EstimateResult r =
      computer.EstimateWithThreshold(42, index::kInfDistance);
  EXPECT_FALSE(r.pruned);
  EXPECT_FLOAT_EQ(r.distance,
                  simd::L2Sqr(f.ds.queries.Row(1), f.ds.base.Row(42), 32));
}

}  // namespace
}  // namespace resinfer::core
