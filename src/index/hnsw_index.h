// Hierarchical Navigable Small World graph (Malkov & Yashunin, TPAMI 2020).
//
// Construction follows the reference algorithm: exponentially distributed
// node levels, greedy descent through the upper layers, ef_construction
// beam search per layer, and the distance-based neighbor-selection heuristic
// (Algorithm 4 of the HNSW paper) with bidirectional link repair.
//
// Construction always uses exact distances — the paper's methods (and
// ADSampling before them) accelerate only the query phase, so one graph is
// built per dataset and shared by every DistanceComputer.
//
// Query: greedy descent with exact distances on the sparse upper layers,
// then a base-layer beam search in which every neighbor evaluation goes
// through DistanceComputer::EstimateWithThreshold with the current ef-th
// result distance as the threshold. Pruned candidates are skipped entirely
// (the HNSW++ integration style of the ADSampling paper). The result queue
// only ever holds exact distances.
//
// Scratch: a query's visited stamps, its two beam heaps and its block
// buffers live in an HnswScratch. Pass one per thread and reuse it: after
// its first query a reused scratch makes Search allocation-free (the heaps
// and buffers keep their capacity, the visited array is only stamped). A
// scratch may move between indexes of any size and between k/ef settings;
// results never depend on its history. BatchSearchHnsw keeps one per worker
// thread; a nullptr scratch makes Search allocate a fresh one per call.
//
// Ids: the graph holds its links as int32_t in memory (half the bytes of
// 64-bit ids, so more of the level-0 lists stay cache-resident), so Build
// and LoadFrom refuse more than INT32_MAX nodes. The on-disk graph keeps
// int64_t counts and ids: SaveTo widens them, and LoadFrom validates the
// wide values before narrowing them.
#ifndef RESINFER_INDEX_HNSW_INDEX_H_
#define RESINFER_INDEX_HNSW_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/ground_truth.h"
#include "index/distance_computer.h"
#include "linalg/matrix.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace resinfer::index {

using data::Neighbor;

struct HnswOptions {
  // Max links per node on upper layers; level 0 uses 2*M. Paper: M = 16.
  int M = 16;
  // Beam width during construction. Paper: 500; small-scale benches lower
  // this (printed in their output).
  int ef_construction = 200;
  uint64_t level_seed = 2024;
};

// Reusable per-thread search scratch. Optional; pass nullptr and Search
// allocates internally. See the header comment for the reuse contract.
struct HnswScratch {
  // visited[id] == stamp marks a node seen by the current query; the stamp
  // advances per query and the array is cleared only when it wraps.
  std::vector<uint32_t> visited;
  uint32_t stamp = 0;
  // Per-expansion gather buffers for the block-scan refinement: unvisited
  // neighbors of the expanded node and their EstimateBatch results.
  std::vector<int64_t> block;
  std::vector<EstimateResult> block_results;
  // The base-layer beam as flat binary heaps on (distance, id), driven by
  // std::push_heap / std::pop_heap: `candidates` is a min-heap (closest on
  // top), `results` a max-heap (the ef-th result on top).
  std::vector<std::pair<float, int64_t>> candidates;
  std::vector<std::pair<float, int64_t>> results;
};

class HnswIndex {
 public:
  HnswIndex() = default;

  // `base` must outlive the index; search re-reads vectors through the
  // DistanceComputer, the index itself stores only the graph.
  static HnswIndex Build(const linalg::Matrix& base,
                         const HnswOptions& options = HnswOptions());

  int64_t size() const { return size_; }
  int max_level() const { return max_level_; }
  int64_t entry_point() const { return entry_point_; }
  const HnswOptions& options() const { return options_; }

  // Level-0 adjacency of `node`: pointer to `count` neighbor ids.
  const int32_t* NeighborsAtBase(int64_t node, int* count) const;

  // Approximate memory footprint of the graph structure in bytes.
  int64_t GraphBytes() const;

  // Results ascend by exact distance; size <= k. Arguments are clamped
  // instead of aborting, mirroring IvfIndex::Search: k <= 0 returns an
  // empty result, k > size() simply yields fewer neighbors, and ef < k
  // (including ef <= 0) widens to k.
  std::vector<Neighbor> Search(DistanceComputer& computer, const float* query,
                               int k, int ef,
                               HnswScratch* scratch = nullptr) const;

  // Graph persistence (the vectors themselves are not stored; pair with a
  // persisted dataset / rotated base). See persist/persist.h for
  // file-level helpers with magic headers.
  void SaveTo(BinaryWriter& writer) const;
  // Reads what SaveTo wrote, validating every count and link id; a corrupt
  // stream returns a non-OK Status naming the first inconsistency.
  static util::Status LoadFrom(BinaryReader& reader, HnswIndex* out);

 private:
  struct BuildContext;

  // Max-heap entry ordered by distance.
  struct HeapEntry {
    float distance;
    int64_t id;
    bool operator<(const HeapEntry& other) const {
      return distance < other.distance;
    }
    bool operator>(const HeapEntry& other) const {
      return distance > other.distance;
    }
  };

  int64_t LinkCapacity(int level) const {
    return level == 0 ? 2 * options_.M : options_.M;
  }
  int32_t* MutableLinks(int64_t node, int level);
  const int32_t* Links(int64_t node, int level, int* count) const;

  std::vector<HeapEntry> SearchLayerBuild(BuildContext& ctx, const float* q,
                                          int64_t entry, float entry_dist,
                                          int level, int ef) const;
  std::vector<int64_t> SelectNeighborsHeuristic(
      const linalg::Matrix& base, const float* q,
      std::vector<HeapEntry> candidates, int m) const;

  HnswOptions options_;
  int64_t size_ = 0;
  int max_level_ = -1;
  int64_t entry_point_ = -1;

  std::vector<int> levels_;  // per node
  // Level 0: flattened [count, id x (2M)] per node.
  std::vector<int32_t> base_links_;
  // Upper levels: per node, per level-1, [count, id x M].
  std::vector<std::vector<std::vector<int32_t>>> upper_links_;
};

}  // namespace resinfer::index

#endif  // RESINFER_INDEX_HNSW_INDEX_H_
