// Multi-query serving conformance. Three layers are pinned here, each
// against the sequential single-query path, bit-identically (values, ids,
// ComputerStats), across SIMD levels and every DDC estimator:
//
//   1. SetQueryBatch/SelectQuery: selecting a group member must leave the
//      computer in exactly the state BeginQuery(member's query) builds.
//   2. EstimateBatchGroup / EstimateBatchCodesGroup: the group scoring of
//      one candidate block must match the per-member loop it is defined
//      against (this exercises the tiled kernels where overridden).
//   3. IvfIndex::SearchBatch / BatchSearchIvf(group_size > 1): the
//      query-major bucket scan must return exactly the per-query Search
//      results — including non-multiple-of-group query counts and empty
//      buckets.
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "core/ddc_opq.h"
#include "core/ddc_pca.h"
#include "core/ddc_res.h"
#include "core/ddc_rq_cascade.h"
#include "index/batch.h"
#include "index/distance_computer.h"
#include "index/ivf_index.h"
#include "simd/dispatch.h"
#include "test_util.h"

namespace resinfer::index {
namespace {

struct MultiQueryFixture {
  // 19 queries: not a multiple of any group size used below, so the tail
  // group is always partial.
  data::Dataset ds = testing::SmallDataset(1100, 32, 1.0, 91, 19, 160);

  core::PqEstimatorData pq;
  core::RqEstimatorData rq;
  core::SqEstimatorData sq;
  core::LinearCorrector pq_corrector, rq_corrector, sq_corrector;

  linalg::PcaModel pca;
  linalg::Matrix rotated;
  core::DdcPcaArtifacts pca_artifacts;
  core::DdcOpqArtifacts opq_artifacts;
  core::DdcRqCascadeArtifacts cascade_artifacts;

  MultiQueryFixture() {
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
    training.max_queries = 60;
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
    pca_options.training.max_queries = 60;
    pca_artifacts = core::TrainDdcPca(pca, rotated, ds.base,
                                      ds.train_queries, pca_options);

    core::DdcOpqOptions opq_options;
    opq_options.training.max_queries = 60;
    opq_artifacts = core::TrainDdcOpq(ds.base, ds.train_queries, opq_options);

    core::DdcRqCascadeOptions cascade_options;
    cascade_options.levels = {1, 3};
    cascade_options.rq.num_stages = 3;
    cascade_options.rq.nbits = 6;
    cascade_options.training.max_queries = 60;
    cascade_artifacts =
        core::TrainDdcRqCascade(ds.base, ds.train_queries, cascade_options);
  }

  using Factory = std::function<std::unique_ptr<DistanceComputer>()>;

  // Every DDC estimator plus the flat exact computer (which exercises the
  // L2SqrTile group override).
  std::vector<std::pair<std::string, Factory>> Factories() {
    std::vector<std::pair<std::string, Factory>> factories;
    factories.emplace_back("exact", [this] {
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
    factories.emplace_back("ddc-opq", [this] {
      return std::make_unique<core::DdcOpqComputer>(&ds.base,
                                                    &opq_artifacts);
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
    factories.emplace_back("ddc-rq-cascade", [this] {
      return std::make_unique<core::DdcRqCascadeComputer>(
          &ds.base, &cascade_artifacts);
    });
    return factories;
  }

  std::vector<simd::SimdLevel> Levels() { return simd::SupportedLevels(); }
};

MultiQueryFixture& Fixture() {
  static MultiQueryFixture* fixture = new MultiQueryFixture();
  return *fixture;
}

void ExpectSameResults(const std::vector<Neighbor>& want,
                       const std::vector<Neighbor>& got,
                       const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << label << " i=" << i;
    // Bit-identical, not just close.
    EXPECT_EQ(want[i].distance, got[i].distance) << label << " i=" << i;
  }
}

void ExpectSameStats(const ComputerStats& a, const ComputerStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.pruned, b.pruned) << label;
  EXPECT_EQ(a.dims_scanned, b.dims_scanned) << label;
  EXPECT_EQ(a.exact_computations, b.exact_computations) << label;
}

TEST(MultiQueryTest, SelectQueryMatchesBeginQuery) {
  // Group state must be interchangeable with per-query state: estimating
  // through SelectQuery(g) must be bit-identical to BeginQuery(query_g),
  // in arbitrary selection order.
  MultiQueryFixture& f = Fixture();
  const int group = 5;
  const int select_order[] = {3, 0, 4, 1, 2, 0, 4};
  for (auto& [name, factory] : f.Factories()) {
    for (simd::SimdLevel level : f.Levels()) {
      simd::ScopedSimdLevel guard(level);
      auto sequential = factory();
      auto grouped = factory();
      grouped->SetQueryBatch(f.ds.queries.Row(0), group, f.ds.dim());
      for (int g : select_order) {
        sequential->BeginQuery(f.ds.queries.Row(g));
        grouped->SelectQuery(g);
        sequential->stats().Reset();
        grouped->stats().Reset();
        for (int64_t id : {int64_t{0}, int64_t{17}, int64_t{530}}) {
          for (float tau : {kInfDistance, 0.0f, 50.0f}) {
            const EstimateResult want =
                sequential->EstimateWithThreshold(id, tau);
            const EstimateResult got = grouped->EstimateWithThreshold(id, tau);
            EXPECT_EQ(want.pruned, got.pruned) << name << " g=" << g;
            EXPECT_EQ(want.distance, got.distance) << name << " g=" << g;
          }
          EXPECT_EQ(sequential->ExactDistance(id), grouped->ExactDistance(id))
              << name << " g=" << g;
        }
        ExpectSameStats(sequential->stats(), grouped->stats(),
                        name + "/select");
      }
    }
  }
}

TEST(MultiQueryTest, BeginQueryBetweenSelectsKeepsGroupState) {
  // BeginQuery reverts to single-query operation without disturbing the
  // declared group: after SetQueryBatch, a BeginQuery, then SelectQuery(g),
  // both the solo query and member g must estimate bit-identically to a
  // fresh BeginQuery on their own query.
  MultiQueryFixture& f = Fixture();
  const int group = 5;
  const float* solo_query = f.ds.queries.Row(group + 2);
  const auto expect_same = [&f](DistanceComputer& want, DistanceComputer& got,
                                const std::string& label) {
    want.stats().Reset();
    got.stats().Reset();
    for (int64_t id : {int64_t{0}, int64_t{17}, int64_t{530}}) {
      for (float tau : {kInfDistance, 0.0f, 50.0f}) {
        const EstimateResult a = want.EstimateWithThreshold(id, tau);
        const EstimateResult b = got.EstimateWithThreshold(id, tau);
        EXPECT_EQ(a.pruned, b.pruned) << label;
        EXPECT_EQ(a.distance, b.distance) << label;
      }
      EXPECT_EQ(want.ExactDistance(id), got.ExactDistance(id)) << label;
    }
    std::vector<int64_t> ids(33);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<int64_t>(i * 31 % f.ds.size());
    }
    std::vector<EstimateResult> a(ids.size()), b(ids.size());
    want.EstimateBatch(ids.data(), static_cast<int>(ids.size()), 50.0f,
                       a.data());
    got.EstimateBatch(ids.data(), static_cast<int>(ids.size()), 50.0f,
                      b.data());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(a[i].pruned, b[i].pruned) << label << " i=" << i;
      EXPECT_EQ(a[i].distance, b[i].distance) << label << " i=" << i;
    }
    ExpectSameStats(want.stats(), got.stats(), label);
  };
  for (auto& [name, factory] : f.Factories()) {
    for (simd::SimdLevel level : f.Levels()) {
      simd::ScopedSimdLevel guard(level);
      for (int g = 0; g < group; ++g) {
        const std::string label = name + "/" + simd::SimdLevelName(level) +
                                  "/g=" + std::to_string(g);
        auto grouped = factory();
        grouped->SetQueryBatch(f.ds.queries.Row(0), group, f.ds.dim());
        grouped->BeginQuery(solo_query);
        auto fresh = factory();
        fresh->BeginQuery(solo_query);
        expect_same(*fresh, *grouped, label + "/solo");

        grouped->SelectQuery(g);
        fresh->BeginQuery(f.ds.queries.Row(g));
        expect_same(*fresh, *grouped, label + "/member");
      }
    }
  }
}

TEST(MultiQueryTest, ExactDistanceLeavesStatsUntouched) {
  // ExactDistance sits outside the estimate protocol (graph descents call
  // it), so no computer may count it in ComputerStats.
  MultiQueryFixture& f = Fixture();
  for (auto& [name, factory] : f.Factories()) {
    auto computer = factory();
    computer->BeginQuery(f.ds.queries.Row(0));
    computer->EstimateWithThreshold(3, 50.0f);
    const ComputerStats before = computer->stats();
    for (int64_t id = 0; id < f.ds.size(); id += 7) {
      computer->ExactDistance(id);
    }
    ExpectSameStats(before, computer->stats(), name);
  }
}

TEST(MultiQueryTest, GroupBatchMatchesPerMemberLoop) {
  // EstimateBatchGroup / EstimateBatchCodesGroup against the loop they are
  // defined as, with per-member taus straddling the pruning boundary and
  // block sizes straddling the kernel widths.
  MultiQueryFixture& f = Fixture();
  const int group = 6;
  const int members[] = {0, 2, 3, 5};
  const int num_members = 4;
  for (auto& [name, factory] : f.Factories()) {
    auto loop = factory();
    auto tiled = factory();
    const quant::CodeStore store = loop->MakeCodeStore();
    for (simd::SimdLevel level : f.Levels()) {
      simd::ScopedSimdLevel guard(level);
      for (int count : {1, 3, 4, 15, 32}) {
        std::vector<int64_t> ids(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) {
          ids[static_cast<std::size_t>(i)] = (i * 37 + count) % f.ds.size();
        }
        float taus[4];
        for (int j = 0; j < num_members; ++j) {
          taus[j] = j % 2 == 0 ? 40.0f + 10.0f * j : kInfDistance;
        }
        const std::string label =
            name + "/" + simd::SimdLevelName(level) + "/count=" +
            std::to_string(count);

        loop->SetQueryBatch(f.ds.queries.Row(0), group, f.ds.dim());
        tiled->SetQueryBatch(f.ds.queries.Row(0), group, f.ds.dim());
        loop->stats().Reset();
        tiled->stats().Reset();

        std::vector<EstimateResult> want(
            static_cast<std::size_t>(num_members * count));
        for (int j = 0; j < num_members; ++j) {
          loop->SelectQuery(members[j]);
          loop->EstimateBatch(ids.data(), count, taus[j],
                              want.data() + j * count);
        }
        std::vector<EstimateResult> got(want.size());
        tiled->EstimateBatchGroup(ids.data(), count, members, num_members,
                                  taus, got.data());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i].pruned, got[i].pruned) << label << " i=" << i;
          ASSERT_EQ(want[i].distance, got[i].distance) << label << " i=" << i;
        }
        ExpectSameStats(loop->stats(), tiled->stats(), label + "/gather");

        if (store.empty()) continue;
        quant::CodeStore block = store.PermutedBy(ids);
        loop->stats().Reset();
        tiled->stats().Reset();
        for (int j = 0; j < num_members; ++j) {
          loop->SelectQuery(members[j]);
          loop->EstimateBatchCodes(block.data(), ids.data(), count, taus[j],
                                   want.data() + j * count);
        }
        tiled->EstimateBatchCodesGroup(block.data(), ids.data(), count,
                                       members, num_members, taus,
                                       got.data());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i].pruned, got[i].pruned) << label << " i=" << i;
          ASSERT_EQ(want[i].distance, got[i].distance) << label << " i=" << i;
        }
        ExpectSameStats(loop->stats(), tiled->stats(), label + "/codes");
      }
    }
  }
}

TEST(MultiQueryTest, SearchBatchMatchesPerQuerySearchEveryComputer) {
  // The full query-major pipeline, gather and code-resident, across every
  // computer and SIMD level. 19 queries exercise the partial tail group.
  MultiQueryFixture& f = Fixture();
  IvfOptions options;
  options.num_clusters = 24;
  IvfIndex ivf = IvfIndex::Build(f.ds.base, options);

  for (auto& [name, factory] : f.Factories()) {
    auto sequential = factory();
    auto batched = factory();
    for (bool attach_codes : {false, true}) {
      if (attach_codes && !ivf.AttachCodesFrom(*batched)) continue;
      for (simd::SimdLevel level : f.Levels()) {
        simd::ScopedSimdLevel guard(level);
        const std::string label = name + "/" + simd::SimdLevelName(level) +
                                  (attach_codes ? "/codes" : "/gather");
        sequential->stats().Reset();
        batched->stats().Reset();
        std::vector<std::vector<Neighbor>> want;
        want.reserve(static_cast<std::size_t>(f.ds.queries.rows()));
        for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
          want.push_back(
              ivf.Search(*sequential, f.ds.queries.Row(q), 10, 6));
        }
        auto got = ivf.SearchBatch(*batched, f.ds.queries, 10, 6);
        ASSERT_EQ(want.size(), got.size()) << label;
        for (std::size_t q = 0; q < want.size(); ++q) {
          ExpectSameResults(want[q], got[q],
                            label + "/q=" + std::to_string(q));
        }
        ExpectSameStats(sequential->stats(), batched->stats(), label);
      }
    }
    ivf.DetachCodes();
  }
}

TEST(MultiQueryTest, SearchBatchHandlesEmptyBuckets) {
  // An index with guaranteed-empty buckets (more clusters than occupied
  // ones via FromCsr) must scan identically on both paths.
  MultiQueryFixture& f = Fixture();
  // Pack all points into bucket 0, 3, and 7 of a 10-bucket index; the rest
  // stay empty.
  const int64_t n = f.ds.size();
  std::vector<int64_t> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), int64_t{0});
  std::vector<int64_t> offsets = {0, n / 3, n / 3, n / 3, 2 * n / 3,
                                  2 * n / 3, 2 * n / 3, 2 * n / 3, n, n, n};
  linalg::Matrix centroids(10, f.ds.dim());
  for (int c = 0; c < 10; ++c) {
    const float* row = f.ds.base.Row((c * 97) % n);
    std::copy(row, row + f.ds.dim(), centroids.Row(c));
  }
  IvfIndex ivf = IvfIndex::FromCsr(n, std::move(centroids),
                                   std::move(offsets), std::move(ids));

  auto sequential = Fixture().Factories()[1].second();  // ddc-pq
  auto batched = Fixture().Factories()[1].second();
  ASSERT_TRUE(ivf.AttachCodesFrom(*batched));
  for (simd::SimdLevel level : f.Levels()) {
    simd::ScopedSimdLevel guard(level);
    std::vector<std::vector<Neighbor>> want;
    for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
      want.push_back(ivf.Search(*sequential, f.ds.queries.Row(q), 5, 8));
    }
    auto got = ivf.SearchBatch(*batched, f.ds.queries, 5, 8);
    for (std::size_t q = 0; q < want.size(); ++q) {
      ExpectSameResults(want[q], got[q], "empty-buckets q=" + std::to_string(q));
    }
  }
}

TEST(MultiQueryTest, BatchSearchIvfGroupedMatchesPerQuery) {
  // The serving wrapper: grouped workers + centroid ordering must report
  // the same rows, in the caller's query order, as the per-query path —
  // with and without the centroid sort, across thread counts.
  MultiQueryFixture& f = Fixture();
  IvfOptions options;
  options.num_clusters = 24;
  IvfIndex ivf = IvfIndex::Build(f.ds.base, options);
  auto factory = [&f] {
    return std::make_unique<core::DdcAnyComputer>(
        &f.ds.base, std::make_unique<core::PqAdcEstimator>(&f.pq),
        &f.pq_corrector);
  };
  ASSERT_TRUE(ivf.AttachCodesFrom(*factory()));

  BatchOptions per_query;
  per_query.num_threads = 1;
  BatchResult want = BatchSearchIvf(ivf, factory, f.ds.queries, 10, 6,
                                    per_query);
  for (int group_size : {2, 8, 32}) {
    for (int threads : {1, 3}) {
      for (bool sort : {true, false}) {
        BatchOptions grouped;
        grouped.num_threads = threads;
        grouped.group_size = group_size;
        grouped.sort_queries_by_centroid = sort;
        BatchResult got = BatchSearchIvf(ivf, factory, f.ds.queries, 10, 6,
                                         grouped);
        const std::string label = "group=" + std::to_string(group_size) +
                                  " threads=" + std::to_string(threads) +
                                  " sort=" + std::to_string(sort);
        ASSERT_EQ(want.results.size(), got.results.size()) << label;
        for (std::size_t q = 0; q < want.results.size(); ++q) {
          ExpectSameResults(want.results[q], got.results[q],
                            label + " q=" + std::to_string(q));
        }
        ExpectSameStats(want.stats, got.stats, label);
        // Honest latency attribution: every group reports its true wall
        // and size; per-query latency comes only from singleton groups
        // (the tail when group_size divides into the query count with
        // remainder 1), never from divided group walls.
        const int64_t num_queries = f.ds.queries.rows();
        const int64_t num_groups =
            (num_queries + group_size - 1) / group_size;
        const int64_t singleton_groups =
            num_queries % group_size == 1 ? 1 : 0;
        EXPECT_EQ(got.group_latency_seconds.count(), num_groups) << label;
        EXPECT_EQ(got.group_sizes.count(), num_groups) << label;
        EXPECT_DOUBLE_EQ(got.group_sizes.sum(),
                         static_cast<double>(num_queries))
            << label;
        EXPECT_EQ(got.latency_seconds.count(), singleton_groups) << label;
        // Per-worker reporting survives grouping (threads clamp to the
        // number of groups, so size is in [1, threads]).
        EXPECT_GE(static_cast<std::size_t>(threads),
                  got.worker_busy_seconds.size())
            << label;
        EXPECT_FALSE(got.worker_busy_seconds.empty()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace resinfer::index
