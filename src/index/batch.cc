#include "index/batch.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "quant/kmeans.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace resinfer::index {

double BatchResult::AvgUtilization() const {
  if (wall_seconds <= 0.0 || worker_busy_seconds.empty()) return 0.0;
  double busy = 0.0;
  for (double b : worker_busy_seconds) busy += b;
  return busy /
         (wall_seconds * static_cast<double>(worker_busy_seconds.size()));
}

double BatchResult::MinUtilization() const {
  if (wall_seconds <= 0.0 || worker_busy_seconds.empty()) return 0.0;
  double min_busy = worker_busy_seconds.front();
  for (double b : worker_busy_seconds) min_busy = std::min(min_busy, b);
  return min_busy / wall_seconds;
}

BatchResult RunBatch(const ComputerFactory& factory,
                     const linalg::Matrix& queries, const SearchFn& search,
                     const BatchOptions& options) {
  RESINFER_CHECK(search != nullptr);
  BatchOptions per_query = options;
  per_query.group_size = 1;  // groups of one keep per-query latency exact
  return RunBatchGrouped(
      factory, queries,
      [&search](DistanceComputer& computer, const linalg::Matrix& qs,
                int64_t begin, int64_t count, std::vector<Neighbor>* results) {
        for (int64_t i = 0; i < count; ++i) {
          results[i] = search(computer, qs.Row(begin + i));
        }
      },
      per_query);
}

BatchResult RunBatchGrouped(const ComputerFactory& factory,
                            const linalg::Matrix& queries,
                            const GroupSearchFn& search,
                            const BatchOptions& options) {
  RESINFER_CHECK(factory != nullptr && search != nullptr);
  const int64_t num_queries = queries.rows();
  const int64_t group_size = std::max(1, options.group_size);

  BatchResult batch;
  batch.results.resize(static_cast<std::size_t>(num_queries));
  if (num_queries == 0) return batch;
  const int64_t num_groups = (num_queries + group_size - 1) / group_size;

  const int threads = static_cast<int>(std::clamp<int64_t>(
      ResolveThreadCount(options.num_threads), 1, num_groups));

  struct WorkerState {
    std::unique_ptr<DistanceComputer> computer;
    Histogram latency;        // singleton groups only — true per-query wall
    Histogram group_latency;  // one sample per group, the group's wall
    Histogram group_sizes;
    double busy_seconds = 0.0;
  };
  std::vector<WorkerState> workers(static_cast<std::size_t>(threads));
  for (auto& w : workers) {
    w.computer = factory();
    RESINFER_CHECK(w.computer != nullptr);
    RESINFER_CHECK(w.computer->dim() == queries.cols());
  }

  // Groups are handed out one at a time, so a worker that drew cheap
  // groups (DDC pruning makes some queries 10x cheaper than others) takes
  // more of them instead of idling behind a straggler. A throwing search
  // stops the hand-out; its exception is rethrown here after the join.
  WallTimer wall;
  ParallelForEachCostly(num_groups, threads, [&](int64_t group, int worker) {
    WorkerState& state = workers[static_cast<std::size_t>(worker)];
    const int64_t begin = group * group_size;
    const int64_t count = std::min(group_size, num_queries - begin);
    WallTimer timer;
    search(*state.computer, queries, begin, count,
           batch.results.data() + begin);
    const double elapsed = timer.ElapsedSeconds();
    state.group_latency.Add(elapsed);
    state.group_sizes.Add(static_cast<double>(count));
    if (count == 1) state.latency.Add(elapsed);
    state.busy_seconds += elapsed;
  });
  batch.wall_seconds = wall.ElapsedSeconds();

  batch.worker_busy_seconds.reserve(workers.size());
  for (const auto& w : workers) {
    batch.worker_busy_seconds.push_back(w.busy_seconds);
    batch.latency_seconds.Merge(w.latency);
    batch.group_latency_seconds.Merge(w.group_latency);
    batch.group_sizes.Merge(w.group_sizes);
    batch.stats += w.computer->stats();
  }
  return batch;
}

BatchResult BatchSearchFlat(const FlatIndex& index,
                            const ComputerFactory& factory,
                            const linalg::Matrix& queries, int k,
                            const BatchOptions& options) {
  return RunBatch(
      factory, queries,
      [&index, k](DistanceComputer& computer, const float* query) {
        return index.Search(computer, query, k);
      },
      options);
}

BatchResult BatchSearchIvf(const IvfIndex& index,
                           const ComputerFactory& factory,
                           const linalg::Matrix& queries, int k, int nprobe,
                           const BatchOptions& options) {
  if (options.group_size <= 1 || queries.rows() <= 1) {
    return RunBatch(
        factory, queries,
        [&index, k, nprobe](DistanceComputer& computer, const float* query) {
          return index.Search(computer, query, k, nprobe);
        },
        options);
  }

  // Multi-query path. Rank every query's probe centroids once (the same
  // NearestCentroids call Search would make), order queries
  // lexicographically by probe list so group members co-probe — same lead
  // bucket first, then agreeing tails — and hand the precomputed lists to
  // SearchBatchRange so the ranking isn't paid twice. The sort is stable,
  // so equal probe lists keep the caller's order.
  WallTimer wall;  // includes grouping prep, unlike RunBatchGrouped's
  const int64_t num_queries = queries.rows();
  const int nprobe_used = std::clamp(nprobe, 1, index.num_clusters());
  std::vector<int32_t> probes(
      static_cast<std::size_t>(num_queries * nprobe_used));
  quant::NearestCentroidsBatch(index.centroids(), queries, 0, num_queries,
                               nprobe_used, probes.data());
  const auto run = [&](const linalg::Matrix& qs,
                       const std::vector<int32_t>& probe_rows) {
    return RunBatchGrouped(
        factory, qs,
        [&index, &probe_rows, k, nprobe, nprobe_used](
            DistanceComputer& computer, const linalg::Matrix& rows,
            int64_t begin, int64_t count, std::vector<Neighbor>* results) {
          index.SearchBatchRange(computer, rows, begin, count, k, nprobe,
                                 results,
                                 probe_rows.data() + begin * nprobe_used);
        },
        options);
  };

  BatchResult batch;
  if (!options.sort_queries_by_centroid) {
    // Caller-ordered groups: no permutation, no copies.
    batch = run(queries, probes);
  } else {
    std::vector<int64_t> order(static_cast<std::size_t>(num_queries));
    std::iota(order.begin(), order.end(), int64_t{0});
    std::stable_sort(
        order.begin(), order.end(),
        [&probes, nprobe_used](int64_t a, int64_t b) {
          const int32_t* pa = probes.data() + a * nprobe_used;
          const int32_t* pb = probes.data() + b * nprobe_used;
          return std::lexicographical_compare(pa, pa + nprobe_used, pb,
                                              pb + nprobe_used);
        });
    linalg::Matrix grouped(num_queries, queries.cols());
    std::vector<int32_t> grouped_probes(probes.size());
    for (int64_t i = 0; i < num_queries; ++i) {
      const int64_t q = order[static_cast<std::size_t>(i)];
      const float* src = queries.Row(q);
      std::copy(src, src + queries.cols(), grouped.Row(i));
      std::copy(probes.begin() + q * nprobe_used,
                probes.begin() + (q + 1) * nprobe_used,
                grouped_probes.begin() + i * nprobe_used);
    }
    batch = run(grouped, grouped_probes);
    // Report rows in the caller's query order.
    std::vector<std::vector<Neighbor>> rows(
        static_cast<std::size_t>(num_queries));
    for (int64_t i = 0; i < num_queries; ++i) {
      rows[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
          std::move(batch.results[static_cast<std::size_t>(i)]);
    }
    batch.results = std::move(rows);
  }
  batch.wall_seconds = wall.ElapsedSeconds();
  return batch;
}

BatchResult BatchSearchHnsw(const HnswIndex& index,
                            const ComputerFactory& factory,
                            const linalg::Matrix& queries, int k, int ef,
                            const BatchOptions& options) {
  return RunBatch(
      factory, queries,
      [&index, k, ef](DistanceComputer& computer, const float* query) {
        // One scratch per worker thread (the caller's persists across
        // batches, the others live for one), so the traversal is
        // allocation-free after each worker's first query.
        thread_local HnswScratch scratch;
        return index.Search(computer, query, k, ef, &scratch);
      },
      options);
}

std::vector<std::vector<int64_t>> ResultIds(const BatchResult& batch) {
  std::vector<std::vector<int64_t>> ids;
  ids.reserve(batch.results.size());
  for (const auto& row : batch.results) {
    std::vector<int64_t> r;
    r.reserve(row.size());
    for (const Neighbor& nb : row) r.push_back(nb.id);
    ids.push_back(std::move(r));
  }
  return ids;
}

}  // namespace resinfer::index
