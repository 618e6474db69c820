// Multi-threaded batch query execution.
//
// DistanceComputers are stateful per query, so concurrent search needs one
// computer per thread. RunBatch owns that pattern: it builds a computer per
// worker from a caller-supplied factory, hands the query groups out one at
// a time through ParallelForEachCostly (util/parallel.h; queries vary
// wildly in cost under DDC pruning, so a fixed split would leave workers
// idle behind a straggler), and aggregates latencies and computer
// statistics. Convenience wrappers cover the three indexes. Online
// (non-pre-materialized) traffic goes through serve/admission.h instead.
//
// Results are deterministic: result row q is always the answer to query q
// regardless of which worker served it.
//
// Latency attribution is honest: latency_seconds holds true per-query
// walls and is filled only by groups of one query (always, for RunBatch);
// grouped runs report true group walls in group_latency_seconds paired
// with group_sizes — a group's wall divided by its size is an attribution,
// not a measurement, and dividing it used to fabricate per-query
// percentiles.
#ifndef RESINFER_INDEX_BATCH_H_
#define RESINFER_INDEX_BATCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "index/distance_computer.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_index.h"
#include "linalg/matrix.h"
#include "util/histogram.h"

namespace resinfer::index {

struct BatchOptions {
  // <= 0 = DefaultThreadCount() (which honors the RESINFER_THREADS
  // environment override); negative values clamp to the same default.
  int num_threads = 0;
  // Queries per work unit. 1 (the default) is the classic per-query path;
  // > 1 makes workers pull groups of queries so a group-aware search can
  // share per-query setup and bucket streams across them (BatchSearchIvf
  // routes groups through IvfIndex::SearchBatchRange, which chunks them
  // into co-scanned sub-groups of at most kMaxQueryGroup). Results are
  // identical either way; only throughput changes.
  int group_size = 1;
  // With group_size > 1, BatchSearchIvf first orders queries by nearest
  // centroid so adjacent group members co-probe (results are still
  // reported in the caller's query order). Disable to group by the given
  // query order instead, e.g. when the stream is already locality-sorted.
  bool sort_queries_by_centroid = true;
};

struct BatchResult {
  // results[q] ascends by distance, one entry per query row.
  std::vector<std::vector<Neighbor>> results;
  // True per-query wall latency in seconds. Only groups of a single query
  // contribute (RunBatch covers every query; grouped runs contribute just
  // their singleton tail groups, if any) — see the header comment.
  Histogram latency_seconds;
  // One sample per work group: the group's true wall time, and its size.
  // With group_size == 1 these mirror latency_seconds.
  Histogram group_latency_seconds;
  Histogram group_sizes;
  // Computer counters summed over all workers.
  ComputerStats stats;
  // End-to-end wall time of the batch (all threads).
  double wall_seconds = 0.0;
  // Per-worker time spent inside search calls; worker w idles for
  // wall_seconds - worker_busy_seconds[w] (query-cost variance under DDC
  // pruning makes the last workers straggle — these make that visible in
  // bench output instead of being smeared into the aggregate QPS).
  std::vector<double> worker_busy_seconds;

  double Qps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(results.size()) / wall_seconds
               : 0.0;
  }
  // Mean busy/wall fraction across workers, in [0, 1]; 1.0 = no idling.
  double AvgUtilization() const;
  // The most-idle worker's busy/wall fraction; low values = stragglers.
  double MinUtilization() const;
};

// Creates one computer per worker thread; must be thread-safe itself (it is
// invoked before the workers start).
using ComputerFactory = std::function<std::unique_ptr<DistanceComputer>()>;

// One search against one query through the given computer. The callee must
// route the query through `computer` (the indexes do this internally).
using SearchFn = std::function<std::vector<Neighbor>(
    DistanceComputer& computer, const float* query)>;

// One search over a group of queries: rows [begin, begin + count) of
// `queries`, writing the answer for row begin + i to results[i]. The
// callee may share work across the group (shared ADC tables, query-major
// bucket scans) but results[i] must equal a per-query search's answer.
using GroupSearchFn = std::function<void(
    DistanceComputer& computer, const linalg::Matrix& queries, int64_t begin,
    int64_t count, std::vector<Neighbor>* results)>;

BatchResult RunBatch(const ComputerFactory& factory,
                     const linalg::Matrix& queries, const SearchFn& search,
                     const BatchOptions& options = BatchOptions());

// Grouped variant: workers take options.group_size queries at a time and
// hand each group to `search` in one call. Each group's true wall time is
// recorded in group_latency_seconds (with its size in group_sizes);
// latency_seconds receives only singleton groups, so its percentiles are
// never fabricated from divided group walls. Utilization reporting is
// unchanged.
BatchResult RunBatchGrouped(const ComputerFactory& factory,
                            const linalg::Matrix& queries,
                            const GroupSearchFn& search,
                            const BatchOptions& options = BatchOptions());

BatchResult BatchSearchFlat(const FlatIndex& index,
                            const ComputerFactory& factory,
                            const linalg::Matrix& queries, int k,
                            const BatchOptions& options = BatchOptions());

// With options.group_size > 1 this is the multi-query serving path:
// queries are ordered by nearest centroid (co-probing queries end up in
// the same group), workers pull groups, and each group is searched
// query-major through IvfIndex::SearchBatchRange. results[q] still answers
// query q, bit-identically to the per-query path.
BatchResult BatchSearchIvf(const IvfIndex& index,
                           const ComputerFactory& factory,
                           const linalg::Matrix& queries, int k, int nprobe,
                           const BatchOptions& options = BatchOptions());

BatchResult BatchSearchHnsw(const HnswIndex& index,
                            const ComputerFactory& factory,
                            const linalg::Matrix& queries, int k, int ef,
                            const BatchOptions& options = BatchOptions());

// Extracts just the ids from a batch result (recall evaluation helper).
std::vector<std::vector<int64_t>> ResultIds(const BatchResult& batch);

}  // namespace resinfer::index

#endif  // RESINFER_INDEX_BATCH_H_
