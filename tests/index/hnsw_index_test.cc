#include "index/hnsw_index.h"

#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_res.h"
#include "data/ground_truth.h"
#include "data/metrics.h"
#include "linalg/pca.h"
#include "test_util.h"
#include "util/binary_io.h"
#include "util/parallel.h"

namespace resinfer::index {
namespace {

HnswOptions SmallOptions() {
  HnswOptions options;
  options.M = 8;
  options.ef_construction = 60;
  return options;
}

double HnswRecall(const data::Dataset& ds, const HnswIndex& index, int k,
                  int ef) {
  FlatDistanceComputer computer(ds.base.data(), ds.base.rows(),
                                ds.base.cols());
  auto truth = data::BruteForceKnn(ds.base, ds.queries, k);
  std::vector<std::vector<int64_t>> results;
  HnswScratch scratch;
  for (int64_t q = 0; q < ds.queries.rows(); ++q) {
    auto found = index.Search(computer, ds.queries.Row(q), k, ef, &scratch);
    std::vector<int64_t> ids;
    for (const auto& nb : found) ids.push_back(nb.id);
    results.push_back(std::move(ids));
  }
  return data::MeanRecallAtK(results, truth, k);
}

TEST(HnswIndexTest, HighRecallWithLargeEf) {
  data::Dataset ds = testing::SmallDataset(3000, 24, 1.0, 50, 16, 4);
  HnswIndex index = HnswIndex::Build(ds.base, SmallOptions());
  EXPECT_GT(HnswRecall(ds, index, 10, 128), 0.95);
}

TEST(HnswIndexTest, RecallGrowsWithEf) {
  data::Dataset ds = testing::SmallDataset(3000, 24, 1.0, 51, 16, 4);
  HnswIndex index = HnswIndex::Build(ds.base, SmallOptions());
  double lo = HnswRecall(ds, index, 10, 10);
  double hi = HnswRecall(ds, index, 10, 200);
  EXPECT_GE(hi, lo - 0.02);
  EXPECT_GT(hi, 0.97);
}

TEST(HnswIndexTest, DegreeBounds) {
  data::Dataset ds = testing::SmallDataset(1500, 16, 1.0, 52, 4, 2);
  HnswOptions options = SmallOptions();
  HnswIndex index = HnswIndex::Build(ds.base, options);
  for (int64_t i = 0; i < index.size(); ++i) {
    int count = 0;
    index.NeighborsAtBase(i, &count);
    EXPECT_LE(count, 2 * options.M);
    EXPECT_GE(count, 0);
  }
}

TEST(HnswIndexTest, GraphIsReasonablyConnected) {
  data::Dataset ds = testing::SmallDataset(1000, 16, 1.0, 53, 4, 2);
  HnswIndex index = HnswIndex::Build(ds.base, SmallOptions());
  // Every node except possibly a handful should have at least one link.
  int isolated = 0;
  for (int64_t i = 0; i < index.size(); ++i) {
    int count = 0;
    index.NeighborsAtBase(i, &count);
    if (count == 0) ++isolated;
  }
  EXPECT_LE(isolated, 1);  // only the very first insert could be isolated
}

TEST(HnswIndexTest, SingleAndTinyDatasets) {
  data::Dataset ds = testing::SmallDataset(3, 8, 1.0, 54, 2, 2);
  HnswIndex index = HnswIndex::Build(ds.base, SmallOptions());
  FlatDistanceComputer computer(ds.base.data(), 3, 8);
  auto result = index.Search(computer, ds.queries.Row(0), 3, 10);
  EXPECT_EQ(result.size(), 3u);
}

TEST(HnswIndexTest, ResultsAscendAndExact) {
  data::Dataset ds = testing::SmallDataset(800, 16, 1.0, 55, 4, 2);
  HnswIndex index = HnswIndex::Build(ds.base, SmallOptions());
  FlatDistanceComputer computer(ds.base.data(), ds.size(), ds.dim());
  auto result = index.Search(computer, ds.queries.Row(1), 10, 64);
  for (std::size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
  // Distances must be exact.
  for (const auto& nb : result) {
    EXPECT_FLOAT_EQ(nb.distance,
                    data::ExactL2Sqr(ds.base, nb.id, ds.queries.Row(1)));
  }
}

TEST(HnswIndexTest, SearchClampsOutOfRangeArguments) {
  // k <= 0, k > n, and ef < k must clamp instead of aborting — the serving
  // path passes caller-supplied knobs straight through. Mirrors
  // IvfIndexTest.SearchClampsOutOfRangeArguments.
  data::Dataset ds = testing::SmallDataset(500, 8, 1.0, 45, 4, 2);
  HnswIndex index = HnswIndex::Build(ds.base, SmallOptions());
  FlatDistanceComputer computer(ds.base.data(), ds.size(), ds.dim());
  const float* query = ds.queries.Row(0);

  // k <= 0: empty result, no scan surprises.
  EXPECT_TRUE(index.Search(computer, query, 0, 32).empty());
  EXPECT_TRUE(index.Search(computer, query, -3, 32).empty());

  // ef < k (including ef <= 0) widens to k: identical results to the
  // explicit ef = k call.
  auto explicit_ef = index.Search(computer, query, 10, 10);
  auto small_ef = index.Search(computer, query, 10, 3);
  auto zero_ef = index.Search(computer, query, 10, 0);
  auto negative_ef = index.Search(computer, query, 10, -5);
  ASSERT_EQ(explicit_ef.size(), small_ef.size());
  ASSERT_EQ(explicit_ef.size(), zero_ef.size());
  ASSERT_EQ(explicit_ef.size(), negative_ef.size());
  for (std::size_t i = 0; i < explicit_ef.size(); ++i) {
    EXPECT_EQ(explicit_ef[i].id, small_ef[i].id);
    EXPECT_EQ(explicit_ef[i].id, zero_ef[i].id);
    EXPECT_EQ(explicit_ef[i].id, negative_ef[i].id);
    EXPECT_EQ(explicit_ef[i].distance, small_ef[i].distance);
  }

  // k > n yields at most n neighbors, each point once, still sorted.
  auto all = index.Search(computer, query, 5000, 5000);
  EXPECT_LE(static_cast<int64_t>(all.size()), ds.size());
  EXPECT_GT(all.size(), 0u);
  std::vector<int64_t> seen;
  for (std::size_t i = 0; i < all.size(); ++i) {
    seen.push_back(all[i].id);
    if (i > 0) EXPECT_GE(all[i].distance, all[i - 1].distance);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(HnswIndexTest, ScratchReuseAcrossQueriesIsSafe) {
  data::Dataset ds = testing::SmallDataset(500, 16, 1.0, 56, 8, 2);
  HnswIndex index = HnswIndex::Build(ds.base, SmallOptions());
  FlatDistanceComputer computer(ds.base.data(), ds.size(), ds.dim());
  HnswScratch scratch;
  std::vector<Neighbor> first, repeat;
  first = index.Search(computer, ds.queries.Row(0), 5, 32, &scratch);
  for (int64_t q = 0; q < ds.queries.rows(); ++q) {
    index.Search(computer, ds.queries.Row(q), 5, 32, &scratch);
  }
  repeat = index.Search(computer, ds.queries.Row(0), 5, 32, &scratch);
  ASSERT_EQ(first.size(), repeat.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, repeat[i].id);
  }
}

TEST(HnswIndexTest, GraphBytesPositive) {
  data::Dataset ds = testing::SmallDataset(200, 8, 1.0, 57, 2, 2);
  HnswIndex index = HnswIndex::Build(ds.base, SmallOptions());
  EXPECT_GT(index.GraphBytes(), 0);
}

// --- Batched construction ---------------------------------------------------
// n = 3000 lies beyond the serial prefix, so most nodes insert in parallel
// batches.

std::string SavedBytes(const HnswIndex& index) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("resinfer_hnsw_saved_" + std::to_string(::getpid()) + ".bin"))
          .string();
  {
    BinaryWriter writer(path);
    index.SaveTo(writer);
    EXPECT_TRUE(writer.Close());
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

TEST(HnswIndexTest, BuildIsIndependentOfThreadCount) {
  data::Dataset ds = testing::SmallDataset(3000, 24, 1.0, 61, 4, 2);
  std::vector<std::string> saved;
  for (int threads : {1, 2, 4}) {
    SetDefaultThreadCount(threads);
    saved.push_back(SavedBytes(HnswIndex::Build(ds.base, SmallOptions())));
  }
  SetDefaultThreadCount(0);
  ASSERT_FALSE(saved[0].empty());
  EXPECT_TRUE(saved[1] == saved[0]) << "2 threads built another graph";
  EXPECT_TRUE(saved[2] == saved[0]) << "4 threads built another graph";
}

TEST(HnswIndexTest, BatchedBuildKeepsDegreeAndRecall) {
  data::Dataset ds = testing::SmallDataset(3000, 24, 1.0, 62, 16, 4);
  HnswOptions options = SmallOptions();
  HnswIndex index = HnswIndex::Build(ds.base, options);
  int isolated = 0;
  for (int64_t i = 0; i < index.size(); ++i) {
    int count = 0;
    index.NeighborsAtBase(i, &count);
    EXPECT_LE(count, 2 * options.M);
    EXPECT_GE(count, 0);
    if (count == 0) ++isolated;
  }
  EXPECT_LE(isolated, 1);
  EXPECT_GT(HnswRecall(ds, index, 10, 128), 0.95);
}

// --- Scratch contract -------------------------------------------------------
// A reused HnswScratch must give exactly what a fresh one gives: ids,
// distances and ComputerStats. DDCres exercises the id-gather EstimateBatch
// with pruning, so the stats carry every decision the traversal made.

struct ResModel {
  data::Dataset ds;
  linalg::PcaModel pca;
  linalg::Matrix rotated;
  HnswIndex index;

  ResModel(int64_t n, uint64_t seed)
      : ds(testing::SmallDataset(n, 24, 1.0, seed, 12, 2)),
        pca(linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim())),
        rotated(pca.TransformBatch(ds.base.data(), ds.size())),
        index(HnswIndex::Build(ds.base, SmallOptions())) {}

  std::unique_ptr<core::DdcResComputer> MakeComputer() const {
    core::DdcResOptions options;
    options.init_dim = 8;
    options.delta_dim = 8;
    return std::make_unique<core::DdcResComputer>(&pca, &rotated, options);
  }
};

struct SearchOutcome {
  std::vector<Neighbor> found;
  ComputerStats stats;
};

SearchOutcome RunSearch(const ResModel& m, int64_t q, int k, int ef,
                        HnswScratch* scratch) {
  auto computer = m.MakeComputer();
  SearchOutcome outcome;
  outcome.found = m.index.Search(*computer, m.ds.queries.Row(q), k, ef,
                                 scratch);
  outcome.stats = computer->stats();
  return outcome;
}

void ExpectSameOutcome(const SearchOutcome& fresh, const SearchOutcome& reused,
                       const std::string& what) {
  ASSERT_EQ(fresh.found.size(), reused.found.size()) << what;
  for (std::size_t i = 0; i < fresh.found.size(); ++i) {
    EXPECT_EQ(fresh.found[i].id, reused.found[i].id) << what << " rank " << i;
    EXPECT_EQ(fresh.found[i].distance, reused.found[i].distance)
        << what << " rank " << i;
  }
  EXPECT_EQ(fresh.stats.candidates, reused.stats.candidates) << what;
  EXPECT_EQ(fresh.stats.pruned, reused.stats.pruned) << what;
  EXPECT_EQ(fresh.stats.dims_scanned, reused.stats.dims_scanned) << what;
  EXPECT_EQ(fresh.stats.exact_computations, reused.stats.exact_computations)
      << what;
}

TEST(HnswIndexTest, ReusedScratchMatchesFreshAcrossKEfAndIndexes) {
  const ResModel small(600, 58);
  const ResModel large(1500, 59);
  struct Knobs {
    int k;
    int ef;
  };
  const Knobs knobs[] = {{10, 32}, {5, 80}, {1, 1}, {20, 20}, {10, 200}};
  // One scratch, bounced small -> large -> small so the visited array is
  // both grown and reused oversized.
  HnswScratch scratch;
  for (const ResModel* m : {&small, &large, &small}) {
    for (const Knobs& kn : knobs) {
      for (int64_t q = 0; q < m->ds.queries.rows(); ++q) {
        const std::string what = "n=" + std::to_string(m->index.size()) +
                                 " k=" + std::to_string(kn.k) +
                                 " ef=" + std::to_string(kn.ef) +
                                 " q=" + std::to_string(q);
        ExpectSameOutcome(RunSearch(*m, q, kn.k, kn.ef, nullptr),
                          RunSearch(*m, q, kn.k, kn.ef, &scratch), what);
      }
    }
  }
  EXPECT_GE(scratch.visited.size(), static_cast<std::size_t>(large.ds.size()));
}

TEST(HnswIndexTest, ScratchStampWrapClearsVisited) {
  const ResModel m(800, 60);
  HnswScratch scratch;
  RunSearch(m, 0, 10, 32, &scratch);  // sizes the visited array
  // Poison every entry with the stamp the wrap restarts at: unless the wrap
  // clears the array, the next query sees every node as already visited.
  std::fill(scratch.visited.begin(), scratch.visited.end(), 1u);
  scratch.stamp = UINT32_MAX;
  for (int64_t q = 0; q < m.ds.queries.rows(); ++q) {
    ExpectSameOutcome(RunSearch(m, q, 10, 32, nullptr),
                      RunSearch(m, q, 10, 32, &scratch),
                      "q=" + std::to_string(q));
  }
  EXPECT_EQ(scratch.stamp, static_cast<uint32_t>(m.ds.queries.rows()));
}

// --- LoadFrom validation ----------------------------------------------------
// Hand-crafted graph streams fed to LoadFrom directly (no file envelope, so
// no checksum stands between a bad field and the validation under test).

// A valid 4-node, M = 2 graph in the on-disk (int64) layout: node levels
// {1, 0, 2, 0}, entry point 2 at the top level 2.
struct GraphStream {
  int32_t M = 2;
  int32_t ef_construction = 8;
  uint64_t level_seed = 1;
  int64_t size = 4;
  int32_t max_level = 2;
  int64_t entry_point = 2;
  std::vector<int32_t> levels = {1, 0, 2, 0};
  // Per node: [count, id x 2M].
  std::vector<int64_t> base = {2, 1, 2, 0, 0,  //
                               2, 0, 3, 0, 0,  //
                               2, 0, 3, 0, 0,  //
                               2, 1, 2, 0, 0};
  // Per node, per level 1..levels[i]: [count, id x M].
  std::vector<std::vector<std::vector<int64_t>>> upper = {
      {{1, 2, 0}}, {}, {{1, 0, 0}, {0, 0, 0}}, {}};
};

util::Status LoadStream(const GraphStream& g, HnswIndex* out) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("resinfer_hnsw_stream_" + std::to_string(::getpid()) + ".bin"))
          .string();
  {
    BinaryWriter writer(path);
    writer.Write(g.M);
    writer.Write(g.ef_construction);
    writer.Write(g.level_seed);
    writer.Write(g.size);
    writer.Write(g.max_level);
    writer.Write(g.entry_point);
    writer.WriteVector(g.levels);
    writer.WriteVector(g.base);
    for (const auto& per_node : g.upper) {
      writer.Write<int32_t>(static_cast<int32_t>(per_node.size()));
      for (const auto& list : per_node) writer.WriteVector(list);
    }
    EXPECT_TRUE(writer.Close());
  }
  BinaryReader reader(path);
  util::Status status = HnswIndex::LoadFrom(reader, out);
  std::filesystem::remove(path);
  return status;
}

void ExpectRejected(const GraphStream& g, const std::string& message) {
  HnswIndex index;
  util::Status status = LoadStream(g, &index);
  EXPECT_EQ(status.code(), util::StatusCode::kCorruption) << message;
  EXPECT_NE(status.message().find(message), std::string::npos)
      << status.ToString();
}

TEST(HnswIndexTest, LoadFromAcceptsHandCraftedGraph) {
  HnswIndex index;
  util::Status status = LoadStream(GraphStream(), &index);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(index.size(), 4);
  EXPECT_EQ(index.max_level(), 2);
  EXPECT_EQ(index.entry_point(), 2);
  int count = 0;
  const int32_t* links = index.NeighborsAtBase(3, &count);
  ASSERT_EQ(count, 2);
  EXPECT_EQ(links[0], 1);
  EXPECT_EQ(links[1], 2);
  // int32 in memory: 4 x 5 base slots + 3 upper lists of 3 slots.
  EXPECT_EQ(index.GraphBytes(), (4 * 5 + 3 * 3) * 4);
}

TEST(HnswIndexTest, LoadFromRejectsMoreNodesThanInt32Ids) {
  GraphStream g;
  g.size = static_cast<int64_t>(INT32_MAX) + 1;
  ExpectRejected(g, "int32 id bound");
}

TEST(HnswIndexTest, LoadFromRejectsNegativeLevel) {
  GraphStream g;
  g.levels[1] = -1;
  ExpectRejected(g, "level is negative");
}

TEST(HnswIndexTest, LoadFromRejectsUpperListCountOtherThanLevel) {
  GraphStream g;
  g.upper[0].clear();  // node 0 sits at level 1 but carries no list
  ExpectRejected(g, "disagrees with the node's level");
}

TEST(HnswIndexTest, LoadFromRejectsUpperListOfWrongSize) {
  GraphStream g;
  g.upper[0][0] = {1, 2};  // M + 1 = 3 slots expected
  ExpectRejected(g, "upper link list size disagrees with M");
}

TEST(HnswIndexTest, LoadFromRejectsUpperCountOutOfRange) {
  GraphStream g;
  g.upper[0][0][0] = 3;  // more than M links
  ExpectRejected(g, "upper link count out of range");
  g.upper[0][0][0] = -1;
  ExpectRejected(g, "upper link count out of range");
}

TEST(HnswIndexTest, LoadFromRejectsUpperIdOutOfRange) {
  GraphStream g;
  g.upper[0][0][1] = 4;
  ExpectRejected(g, "upper link id out of range");
  g.upper[0][0][1] = -1;
  ExpectRejected(g, "upper link id out of range");
}

TEST(HnswIndexTest, LoadFromRejectsUpperIdBelowItsLevel) {
  GraphStream g;
  g.upper[2][1] = {1, 0, 0};  // level-2 link to node 0, which tops out at 1
  ExpectRejected(g, "points below its level");
}

TEST(HnswIndexTest, LoadFromRejectsMaxLevelOtherThanEntryLevel) {
  GraphStream g;
  g.max_level = 3;
  ExpectRejected(g, "max level disagrees");
  g.max_level = 1;
  ExpectRejected(g, "max level disagrees");
}

}  // namespace
}  // namespace resinfer::index
