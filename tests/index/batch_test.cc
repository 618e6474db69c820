#include "index/batch.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_res.h"
#include "data/ground_truth.h"
#include "data/metrics.h"
#include "linalg/pca.h"
#include "test_util.h"

namespace resinfer::index {
namespace {

struct BatchFixture {
  data::Dataset ds = testing::SmallDataset(2500, 24, 0.8, 61, 64, 100);
  HnswIndex hnsw;
  IvfIndex ivf;

  BatchFixture()
      : hnsw([this] {
          HnswOptions options;
          options.ef_construction = 60;
          return HnswIndex::Build(ds.base, options);
        }()),
        ivf(IvfIndex::Build(ds.base)) {}

  ComputerFactory ExactFactory() {
    return [this] {
      return std::make_unique<FlatDistanceComputer>(ds.base.data(),
                                                    ds.size(), 24);
    };
  }
};

BatchFixture& Fixture() {
  static BatchFixture* fixture = new BatchFixture();
  return *fixture;
}

TEST(BatchTest, FlatBatchMatchesGroundTruth) {
  BatchFixture& f = Fixture();
  FlatIndex flat(f.ds.base);
  BatchResult batch =
      BatchSearchFlat(flat, f.ExactFactory(), f.ds.queries, 10);
  ASSERT_EQ(batch.results.size(), 64u);
  std::vector<std::vector<int64_t>> truth =
      data::BruteForceKnn(f.ds.base, f.ds.queries, 10);
  EXPECT_DOUBLE_EQ(data::MeanRecallAtK(ResultIds(batch), truth, 10), 1.0);
}

TEST(BatchTest, ResultRowsAlignWithQueriesRegardlessOfThreadCount) {
  // The atomic cursor hands queries to arbitrary workers; row q must still
  // be the answer for query q.
  BatchFixture& f = Fixture();
  FlatIndex flat(f.ds.base);
  BatchOptions serial;
  serial.num_threads = 1;
  BatchOptions parallel;
  parallel.num_threads = 4;
  BatchResult a = BatchSearchFlat(flat, f.ExactFactory(), f.ds.queries, 5,
                                  serial);
  BatchResult b = BatchSearchFlat(flat, f.ExactFactory(), f.ds.queries, 5,
                                  parallel);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t q = 0; q < a.results.size(); ++q) {
    ASSERT_EQ(a.results[q].size(), b.results[q].size());
    for (std::size_t r = 0; r < a.results[q].size(); ++r) {
      EXPECT_EQ(a.results[q][r].id, b.results[q][r].id);
    }
  }
}

TEST(BatchTest, HnswBatchReachesRecallFloor) {
  BatchFixture& f = Fixture();
  BatchResult batch = BatchSearchHnsw(f.hnsw, f.ExactFactory(),
                                      f.ds.queries, 10, /*ef=*/100);
  std::vector<std::vector<int64_t>> truth =
      data::BruteForceKnn(f.ds.base, f.ds.queries, 10);
  EXPECT_GE(data::MeanRecallAtK(ResultIds(batch), truth, 10), 0.9);
}

TEST(BatchTest, HnswBatchEqualsPerQuerySearch) {
  // Each worker keeps one HnswScratch across its queries; answers and the
  // summed ComputerStats must still be exactly those of independent
  // per-query searches, at any thread count.
  BatchFixture& f = Fixture();
  const linalg::PcaModel pca =
      linalg::PcaModel::Fit(f.ds.base.data(), f.ds.size(), f.ds.dim());
  const linalg::Matrix rotated =
      pca.TransformBatch(f.ds.base.data(), f.ds.size());
  const ComputerFactory factory = [&pca, &rotated] {
    core::DdcResOptions options;
    options.init_dim = 8;
    options.delta_dim = 8;
    return std::make_unique<core::DdcResComputer>(&pca, &rotated, options);
  };
  constexpr int kK = 10;
  constexpr int kEf = 40;
  std::vector<std::vector<Neighbor>> reference;
  ComputerStats reference_stats;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    std::unique_ptr<DistanceComputer> computer = factory();
    reference.push_back(
        f.hnsw.Search(*computer, f.ds.queries.Row(q), kK, kEf));
    reference_stats += computer->stats();
  }
  ASSERT_GT(reference_stats.pruned, 0);

  for (int threads : {1, 4}) {
    BatchOptions options;
    options.num_threads = threads;
    const BatchResult batch =
        BatchSearchHnsw(f.hnsw, factory, f.ds.queries, kK, kEf, options);
    ASSERT_EQ(batch.results.size(), reference.size());
    for (std::size_t q = 0; q < reference.size(); ++q) {
      ASSERT_EQ(batch.results[q].size(), reference[q].size())
          << "threads=" << threads << " q=" << q;
      for (std::size_t r = 0; r < reference[q].size(); ++r) {
        EXPECT_EQ(batch.results[q][r].id, reference[q][r].id)
            << "threads=" << threads << " q=" << q << " rank " << r;
        EXPECT_EQ(batch.results[q][r].distance, reference[q][r].distance)
            << "threads=" << threads << " q=" << q << " rank " << r;
      }
    }
    EXPECT_EQ(batch.stats.candidates, reference_stats.candidates);
    EXPECT_EQ(batch.stats.pruned, reference_stats.pruned);
    EXPECT_EQ(batch.stats.dims_scanned, reference_stats.dims_scanned);
    EXPECT_EQ(batch.stats.exact_computations,
              reference_stats.exact_computations);
  }
}

TEST(BatchTest, IvfBatchReachesRecallFloor) {
  BatchFixture& f = Fixture();
  BatchResult batch = BatchSearchIvf(f.ivf, f.ExactFactory(), f.ds.queries,
                                     10, /*nprobe=*/8);
  std::vector<std::vector<int64_t>> truth =
      data::BruteForceKnn(f.ds.base, f.ds.queries, 10);
  EXPECT_GE(data::MeanRecallAtK(ResultIds(batch), truth, 10), 0.8);
}

TEST(BatchTest, LatencyHistogramCoversEveryQuery) {
  BatchFixture& f = Fixture();
  BatchResult batch = BatchSearchHnsw(f.hnsw, f.ExactFactory(),
                                      f.ds.queries, 10, /*ef=*/50);
  EXPECT_EQ(batch.latency_seconds.count(), f.ds.queries.rows());
  EXPECT_GT(batch.latency_seconds.max(), 0.0);
  EXPECT_GT(batch.wall_seconds, 0.0);
  EXPECT_GT(batch.Qps(), 0.0);
}

TEST(BatchTest, WorkerUtilizationReported) {
  BatchFixture& f = Fixture();
  BatchOptions options;
  options.num_threads = 3;
  BatchResult batch = BatchSearchFlat(FlatIndex(f.ds.base),
                                      f.ExactFactory(), f.ds.queries, 10,
                                      options);
  ASSERT_EQ(batch.worker_busy_seconds.size(), 3u);
  for (double busy : batch.worker_busy_seconds) {
    EXPECT_GE(busy, 0.0);
    // A worker can never be busier than the batch's wall time (small
    // epsilon for timer granularity between the two clocks).
    EXPECT_LE(busy, batch.wall_seconds * 1.001 + 1e-6);
  }
  EXPECT_GT(batch.AvgUtilization(), 0.0);
  EXPECT_LE(batch.AvgUtilization(), 1.001);
  EXPECT_GE(batch.MinUtilization(), 0.0);
  EXPECT_LE(batch.MinUtilization(), batch.AvgUtilization() + 1e-9);
}

TEST(BatchTest, UtilizationEmptyForEmptyBatch) {
  BatchFixture& f = Fixture();
  linalg::Matrix none(0, 24);
  BatchResult batch =
      BatchSearchFlat(FlatIndex(f.ds.base), f.ExactFactory(), none, 10);
  EXPECT_TRUE(batch.worker_busy_seconds.empty());
  EXPECT_EQ(batch.AvgUtilization(), 0.0);
  EXPECT_EQ(batch.MinUtilization(), 0.0);
}

TEST(BatchTest, ComputerStatsPlusEqualsSumsEveryCounter) {
  // RunBatch and the bench mergers aggregate through operator+= so that a
  // counter added to ComputerStats cannot be silently dropped from batch
  // aggregates. Two guards: every current field must be summed, and the
  // static_assert below forces whoever grows the struct to revisit
  // operator+= (and then this test).
  static_assert(sizeof(ComputerStats) == 4 * sizeof(int64_t),
                "ComputerStats gained a field: update operator+= and the "
                "field checks in this test");
  ComputerStats a;
  a.candidates = 1;
  a.pruned = 2;
  a.dims_scanned = 3;
  a.exact_computations = 4;
  ComputerStats b;
  b.candidates = 10;
  b.pruned = 20;
  b.dims_scanned = 30;
  b.exact_computations = 40;
  a += b;
  EXPECT_EQ(a.candidates, 11);
  EXPECT_EQ(a.pruned, 22);
  EXPECT_EQ(a.dims_scanned, 33);
  EXPECT_EQ(a.exact_computations, 44);
  // += returns *this, so merges chain.
  ComputerStats c;
  (c += a) += b;
  EXPECT_EQ(c.candidates, 21);
  EXPECT_EQ(c.exact_computations, 84);
}

TEST(BatchTest, StatsAggregateAcrossWorkers) {
  BatchFixture& f = Fixture();
  BatchOptions options;
  options.num_threads = 3;
  BatchResult batch = BatchSearchFlat(FlatIndex(f.ds.base),
                                      f.ExactFactory(), f.ds.queries, 10,
                                      options);
  // The exact computer counts one candidate per base point per query.
  EXPECT_EQ(batch.stats.candidates,
            f.ds.size() * f.ds.queries.rows());
}

TEST(BatchTest, EmptyQueriesReturnEmptyBatch) {
  BatchFixture& f = Fixture();
  linalg::Matrix none(0, 24);
  BatchResult batch =
      BatchSearchFlat(FlatIndex(f.ds.base), f.ExactFactory(), none, 10);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.latency_seconds.count(), 0);
  EXPECT_EQ(batch.Qps(), 0.0);
}

TEST(BatchTest, ThrowingSearchPropagatesWithoutKillingPool) {
  // A search callback that throws must not std::terminate the worker pool
  // (an exception escaping a std::thread body would). The first exception
  // is rethrown on the caller thread after every worker drains.
  BatchFixture& f = Fixture();
  BatchOptions options;
  options.num_threads = 4;
  std::atomic<int> calls{0};
  SearchFn throwing = [&](DistanceComputer& computer,
                          const float* query) -> std::vector<Neighbor> {
    if (calls.fetch_add(1) == 5) {
      throw std::runtime_error("injected search failure");
    }
    return FlatIndex(f.ds.base).Search(computer, query, 3);
  };
  EXPECT_THROW(
      {
        RunBatch(f.ExactFactory(), f.ds.queries, throwing, options);
      },
      std::runtime_error);
  // Every worker drained and joined; the process is intact and a fresh
  // batch over the same queries completes normally.
  SearchFn healthy = [&](DistanceComputer& computer,
                         const float* query) -> std::vector<Neighbor> {
    return FlatIndex(f.ds.base).Search(computer, query, 3);
  };
  BatchResult batch =
      RunBatch(f.ExactFactory(), f.ds.queries, healthy, options);
  ASSERT_EQ(batch.results.size(),
            static_cast<std::size_t>(f.ds.queries.rows()));
  for (const auto& r : batch.results) EXPECT_EQ(r.size(), 3u);
}

TEST(BatchTest, ThrowingGroupSearchReportsFirstException) {
  // Grouped path: the winner's exception surfaces; losers keep draining
  // the cursor so no thread blocks.
  BatchFixture& f = Fixture();
  BatchOptions options;
  options.num_threads = 4;
  options.group_size = 4;
  GroupSearchFn throwing = [&](DistanceComputer&, const linalg::Matrix&,
                               int64_t begin, int64_t,
                               std::vector<Neighbor>*) {
    throw std::invalid_argument("group " + std::to_string(begin));
  };
  try {
    RunBatchGrouped(f.ExactFactory(), f.ds.queries, throwing, options);
    FAIL() << "expected the injected exception to propagate";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("group "), std::string::npos);
  }
}

TEST(BatchTest, ThreadCountExceedingQueriesIsClamped) {
  BatchFixture& f = Fixture();
  linalg::Matrix two(2, 24);
  std::copy(f.ds.queries.Row(0), f.ds.queries.Row(0) + 24, two.Row(0));
  std::copy(f.ds.queries.Row(1), f.ds.queries.Row(1) + 24, two.Row(1));
  BatchOptions options;
  options.num_threads = 16;
  BatchResult batch = BatchSearchFlat(FlatIndex(f.ds.base),
                                      f.ExactFactory(), two, 3, options);
  EXPECT_EQ(batch.results.size(), 2u);
  EXPECT_EQ(batch.latency_seconds.count(), 2);
}

}  // namespace
}  // namespace resinfer::index
