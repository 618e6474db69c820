#include "core/finger.h"

#include <gtest/gtest.h>

#include "data/ground_truth.h"
#include "data/metrics.h"
#include "test_util.h"

namespace resinfer::core {
namespace {

struct Fixture {
  data::Dataset ds;
  index::HnswIndex graph;
  FingerArtifacts artifacts;

  explicit Fixture(int64_t n = 2000, int64_t dim = 32)
      : ds(testing::SmallDataset(n, dim, 1.0, 90, 16, 40)) {
    index::HnswOptions hnsw;
    hnsw.M = 8;
    hnsw.ef_construction = 60;
    graph = index::HnswIndex::Build(ds.base, hnsw);
    FingerOptions options;
    options.rank = 6;
    artifacts = BuildFingerArtifacts(ds.base, graph, ds.train_queries,
                                     options);
  }
};

TEST(FingerTest, ArtifactsCoverEveryNode) {
  Fixture f;
  EXPECT_EQ(static_cast<int64_t>(f.artifacts.edge_ids.size()), f.ds.size());
  EXPECT_GT(f.artifacts.ExtraBytes(), 0);
  EXPECT_GT(f.artifacts.bound_scale, 0.0f);
  // Edge metadata mirrors the graph adjacency.
  for (int64_t u = 0; u < f.ds.size(); u += 97) {
    int count = 0;
    const int32_t* links = f.graph.NeighborsAtBase(u, &count);
    ASSERT_EQ(static_cast<int>(f.artifacts.edge_ids[u].size()), count);
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(f.artifacts.edge_ids[u][i], links[i]);
    }
  }
}

TEST(FingerTest, EstimateAccuracyAtAnchors) {
  Fixture f;
  FingerComputer computer(&f.ds.base, &f.artifacts);
  // Manually anchor at a node and compare neighbor estimates to exact.
  const float* query = f.ds.queries.Row(0);
  computer.BeginQuery(query);
  int64_t anchor = 17;
  float anchor_dist = data::ExactL2Sqr(f.ds.base, anchor, query);
  computer.SetExpansionAnchor(anchor, anchor_dist);

  // The low-rank estimate + bound should rarely prune points inside tau.
  auto knn = data::BruteForceKnnSingle(f.ds.base, query, 10);
  const float tau = knn.back().distance;
  for (int64_t v : f.artifacts.edge_ids[anchor]) {
    auto est = computer.EstimateWithThreshold(v, tau);
    float truth = data::ExactL2Sqr(f.ds.base, v, query);
    if (est.pruned) {
      EXPECT_GT(truth, tau * 0.95f) << "pruned a near neighbor";
    } else {
      EXPECT_FLOAT_EQ(est.distance, truth);
    }
  }
}

TEST(FingerTest, NoAnchorFallsBackToExact) {
  Fixture f(500);
  FingerComputer computer(&f.ds.base, &f.artifacts);
  computer.BeginQuery(f.ds.queries.Row(1));
  auto est = computer.EstimateWithThreshold(3, 0.001f);
  EXPECT_FALSE(est.pruned);
  EXPECT_FLOAT_EQ(est.distance,
                  data::ExactL2Sqr(f.ds.base, 3, f.ds.queries.Row(1)));
}

TEST(FingerTest, HnswSearchRecallStaysHigh) {
  Fixture f;
  FingerComputer computer(&f.ds.base, &f.artifacts);
  auto truth = data::BruteForceKnn(f.ds.base, f.ds.queries, 10);
  std::vector<std::vector<int64_t>> results;
  index::HnswScratch scratch;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    auto found =
        f.graph.Search(computer, f.ds.queries.Row(q), 10, 96, &scratch);
    std::vector<int64_t> ids;
    for (const auto& nb : found) ids.push_back(nb.id);
    results.push_back(std::move(ids));
  }
  EXPECT_GT(data::MeanRecallAtK(results, truth, 10), 0.9);
}

TEST(FingerTest, SomePruningHappensDuringSearch) {
  Fixture f;
  FingerComputer computer(&f.ds.base, &f.artifacts);
  index::HnswScratch scratch;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    f.graph.Search(computer, f.ds.queries.Row(q), 10, 64, &scratch);
  }
  EXPECT_GT(computer.stats().pruned, 0);
}

}  // namespace
}  // namespace resinfer::core
