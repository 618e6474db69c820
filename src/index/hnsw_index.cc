#include "index/hnsw_index.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <functional>
#include <string>

#include "simd/kernels.h"
#include "util/macros.h"
#include "util/rng.h"

namespace resinfer::index {

namespace {

// The beam heaps are flat vectors driven by std::push_heap/std::pop_heap —
// exactly the operations std::priority_queue is specified as, so the pop
// order (ties broken by id through the pair comparison) is the one the
// priority_queue form had, while the storage lives in reusable scratch.
using HeapItem = std::pair<float, int64_t>;
using MinOrder = std::greater<HeapItem>;  // closest on top
using MaxOrder = std::less<HeapItem>;     // farthest on top

template <typename Order>
void HeapPush(std::vector<HeapItem>& heap, float distance, int64_t id) {
  heap.emplace_back(distance, id);
  std::push_heap(heap.begin(), heap.end(), Order());
}

template <typename Order>
void HeapPop(std::vector<HeapItem>& heap) {
  std::pop_heap(heap.begin(), heap.end(), Order());
  heap.pop_back();
}

}  // namespace

struct HnswIndex::BuildContext {
  const linalg::Matrix* base = nullptr;
  std::vector<uint32_t> visited;
  uint32_t stamp = 0;
  std::vector<HeapItem> candidates;
  std::vector<HeapItem> results;

  float Distance(const float* q, int64_t id) const {
    return simd::L2Sqr(q, base->Row(id),
                       static_cast<std::size_t>(base->cols()));
  }
  void NextStamp() {
    if (++stamp == 0) {
      std::fill(visited.begin(), visited.end(), 0u);
      stamp = 1;
    }
  }
  bool Visit(int64_t id) {
    if (visited[id] == stamp) return false;
    visited[id] = stamp;
    return true;
  }
};

int32_t* HnswIndex::MutableLinks(int64_t node, int level) {
  if (level == 0) {
    return base_links_.data() + node * (2 * options_.M + 1);
  }
  return upper_links_[node][level - 1].data();
}

const int32_t* HnswIndex::Links(int64_t node, int level, int* count) const {
  const int32_t* slot =
      level == 0 ? base_links_.data() + node * (2 * options_.M + 1)
                 : upper_links_[node][level - 1].data();
  *count = slot[0];
  return slot + 1;
}

const int32_t* HnswIndex::NeighborsAtBase(int64_t node, int* count) const {
  return Links(node, 0, count);
}

int64_t HnswIndex::GraphBytes() const {
  int64_t bytes = static_cast<int64_t>(base_links_.size()) * sizeof(int32_t);
  for (const auto& per_node : upper_links_) {
    for (const auto& level : per_node)
      bytes += static_cast<int64_t>(level.size()) * sizeof(int32_t);
  }
  return bytes;
}

std::vector<HnswIndex::HeapEntry> HnswIndex::SearchLayerBuild(
    BuildContext& ctx, const float* q, int64_t entry, float entry_dist,
    int level, int ef) const {
  ctx.NextStamp();
  std::vector<HeapItem>& candidates = ctx.candidates;
  std::vector<HeapItem>& results = ctx.results;
  candidates.clear();
  results.clear();
  HeapPush<MinOrder>(candidates, entry_dist, entry);
  HeapPush<MaxOrder>(results, entry_dist, entry);
  ctx.Visit(entry);

  while (!candidates.empty()) {
    auto [dist, node] = candidates.front();
    if (dist > results.front().first &&
        static_cast<int>(results.size()) >= ef) {
      break;
    }
    HeapPop<MinOrder>(candidates);
    int count = 0;
    const int32_t* links = Links(node, level, &count);
    for (int i = 0; i < count; ++i) {
      int64_t next = links[i];
      if (!ctx.Visit(next)) continue;
      float next_dist = ctx.Distance(q, next);
      if (static_cast<int>(results.size()) < ef ||
          next_dist < results.front().first) {
        HeapPush<MinOrder>(candidates, next_dist, next);
        HeapPush<MaxOrder>(results, next_dist, next);
        if (static_cast<int>(results.size()) > ef) HeapPop<MaxOrder>(results);
      }
    }
  }

  std::vector<HeapEntry> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back({results.front().first, results.front().second});
    HeapPop<MaxOrder>(results);
  }
  std::reverse(out.begin(), out.end());  // ascending by distance
  return out;
}

std::vector<int64_t> HnswIndex::SelectNeighborsHeuristic(
    const linalg::Matrix& base, const float* /*q*/,
    std::vector<HeapEntry> candidates, int m) const {
  // `candidates` ascend by distance to the inserted point. Keep a candidate
  // only if it is closer to the new point than to any already-selected
  // neighbor (HNSW Algorithm 4) — this spreads links across directions.
  std::vector<int64_t> selected;
  selected.reserve(m);
  const std::size_t d = static_cast<std::size_t>(base.cols());
  for (const HeapEntry& cand : candidates) {
    if (static_cast<int>(selected.size()) >= m) break;
    bool keep = true;
    for (int64_t chosen : selected) {
      float dist_to_chosen =
          simd::L2Sqr(base.Row(cand.id), base.Row(chosen), d);
      if (dist_to_chosen < cand.distance) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(cand.id);
  }
  return selected;
}

HnswIndex HnswIndex::Build(const linalg::Matrix& base,
                           const HnswOptions& options) {
  const int64_t n = base.rows();
  RESINFER_CHECK(n > 0);
  RESINFER_CHECK(n <= INT32_MAX);  // links are int32_t in memory
  RESINFER_CHECK(options.M >= 2);
  RESINFER_CHECK(options.ef_construction >= options.M);

  HnswIndex index;
  index.options_ = options;
  index.size_ = n;
  index.levels_.resize(n);
  index.base_links_.assign(n * (2 * options.M + 1), 0);
  index.upper_links_.resize(n);

  const double ml = 1.0 / std::log(static_cast<double>(options.M));
  Rng rng(options.level_seed);

  BuildContext ctx;
  ctx.base = &base;
  ctx.visited.assign(n, 0u);

  for (int64_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    if (u <= 0.0) u = 1e-12;
    int level = static_cast<int>(-std::log(u) * ml);
    index.levels_[i] = level;
    index.upper_links_[i].assign(
        level, std::vector<int32_t>(options.M + 1, 0));

    if (index.entry_point_ < 0) {
      index.entry_point_ = i;
      index.max_level_ = level;
      continue;
    }

    const float* q = base.Row(i);
    int64_t current = index.entry_point_;
    float current_dist = ctx.Distance(q, current);

    // Greedy descent through layers above the node's level.
    for (int l = index.max_level_; l > level; --l) {
      bool improved = true;
      while (improved) {
        improved = false;
        int count = 0;
        const int32_t* links = index.Links(current, l, &count);
        for (int j = 0; j < count; ++j) {
          float dist = ctx.Distance(q, links[j]);
          if (dist < current_dist) {
            current_dist = dist;
            current = links[j];
            improved = true;
          }
        }
      }
    }

    // Insert on each layer from min(level, max_level) down to 0.
    for (int l = std::min(level, index.max_level_); l >= 0; --l) {
      std::vector<HeapEntry> found = index.SearchLayerBuild(
          ctx, q, current, current_dist, l, options.ef_construction);
      int m = static_cast<int>(index.LinkCapacity(l));
      std::vector<int64_t> neighbors =
          index.SelectNeighborsHeuristic(base, q, found, m);

      // Connect i -> neighbors.
      int32_t* my_links = index.MutableLinks(i, l);
      my_links[0] = static_cast<int32_t>(neighbors.size());
      for (std::size_t j = 0; j < neighbors.size(); ++j)
        my_links[j + 1] = static_cast<int32_t>(neighbors[j]);

      // Connect neighbors -> i, shrinking with the heuristic on overflow.
      for (int64_t nb : neighbors) {
        int count = 0;
        const int32_t* links = index.Links(nb, l, &count);
        int64_t capacity = index.LinkCapacity(l);
        if (count < capacity) {
          int32_t* slot = index.MutableLinks(nb, l);
          slot[count + 1] = static_cast<int32_t>(i);
          slot[0] = count + 1;
          continue;
        }
        // Re-select among existing links + i relative to nb.
        std::vector<HeapEntry> pool;
        pool.reserve(count + 1);
        const float* nb_vec = base.Row(nb);
        pool.push_back({ctx.Distance(nb_vec, i), i});
        for (int j = 0; j < count; ++j)
          pool.push_back({ctx.Distance(nb_vec, links[j]), links[j]});
        std::sort(pool.begin(), pool.end(),
                  [](const HeapEntry& a, const HeapEntry& b) {
                    return a.distance < b.distance;
                  });
        std::vector<int64_t> reselected = index.SelectNeighborsHeuristic(
            base, nb_vec, pool, static_cast<int>(capacity));
        int32_t* slot = index.MutableLinks(nb, l);
        slot[0] = static_cast<int32_t>(reselected.size());
        for (std::size_t j = 0; j < reselected.size(); ++j)
          slot[j + 1] = static_cast<int32_t>(reselected[j]);
      }

      // Next layer starts from the closest found candidate.
      if (!found.empty()) {
        current = found.front().id;
        current_dist = found.front().distance;
      }
    }

    if (level > index.max_level_) {
      index.max_level_ = level;
      index.entry_point_ = i;
    }
  }
  return index;
}

namespace {

std::vector<int64_t> Widen(const std::vector<int32_t>& links) {
  return std::vector<int64_t>(links.begin(), links.end());
}

// Validates one wide [count, id x capacity] link list of a graph with `n`
// nodes and narrows it into `out`. Returns the first problem, or nullptr:
// the count must lie in [0, capacity] and every slot (stale ones past the
// count included, so the narrowing is lossless) must be a node id.
const char* NarrowLinks(const int64_t* wide, int64_t capacity, int64_t n,
                        int32_t* out) {
  if (wide[0] < 0 || wide[0] > capacity) return "count out of range";
  out[0] = static_cast<int32_t>(wide[0]);
  for (int64_t j = 1; j <= capacity; ++j) {
    if (wide[j] < 0 || wide[j] >= n) return "id out of range";
    out[j] = static_cast<int32_t>(wide[j]);
  }
  return nullptr;
}

}  // namespace

void HnswIndex::SaveTo(BinaryWriter& writer) const {
  // The on-disk graph keeps its 64-bit counts and ids: widen on the way out.
  writer.Write(options_.M);
  writer.Write(options_.ef_construction);
  writer.Write(options_.level_seed);
  writer.Write(size_);
  writer.Write(max_level_);
  writer.Write(entry_point_);
  writer.WriteVector(levels_);
  writer.WriteVector(Widen(base_links_));
  for (const auto& per_node : upper_links_) {
    writer.Write<int32_t>(static_cast<int32_t>(per_node.size()));
    for (const auto& level : per_node) writer.WriteVector(Widen(level));
  }
}

util::Status HnswIndex::LoadFrom(BinaryReader& reader, HnswIndex* out) {
  const auto fail = [](const std::string& what) {
    return util::Status::Corruption(what);
  };
  HnswIndex index;
  if (!reader.Read(&index.options_.M) ||
      !reader.Read(&index.options_.ef_construction) ||
      !reader.Read(&index.options_.level_seed) ||
      !reader.Read(&index.size_) || !reader.Read(&index.max_level_) ||
      !reader.Read(&index.entry_point_)) {
    return fail("truncated hnsw graph header");
  }
  const int64_t n = index.size_;
  if (n <= 0 || index.options_.M < 2 || index.entry_point_ < 0 ||
      index.entry_point_ >= n) {
    return fail("hnsw size/M/entry point out of range");
  }
  if (n > INT32_MAX) return fail("hnsw node count exceeds the int32 id bound");
  const int64_t base_stride = 2 * static_cast<int64_t>(index.options_.M) + 1;
  std::vector<int64_t> wide_base;
  if (!reader.ReadVector(&index.levels_) || !reader.ReadVector(&wide_base)) {
    return fail("truncated hnsw levels/links");
  }
  if (static_cast<int64_t>(index.levels_.size()) != n ||
      static_cast<int64_t>(wide_base.size()) != n * base_stride) {
    return fail("hnsw levels/links size disagrees with node count");
  }
  for (int level : index.levels_) {
    if (level < 0) return fail("hnsw node level is negative");
  }
  if (index.max_level_ != index.levels_[index.entry_point_])
    return fail("hnsw max level disagrees with the entry point's level");

  index.base_links_.resize(wide_base.size());
  for (int64_t i = 0; i < n; ++i) {
    if (const char* bad =
            NarrowLinks(wide_base.data() + i * base_stride, base_stride - 1,
                        n, index.base_links_.data() + i * base_stride)) {
      return fail(std::string("hnsw link ") + bad);
    }
  }
  wide_base = {};

  // Upper levels: node i carries one [count, id x M] list per level
  // 1..levels_[i], and every counted id must itself reach that level.
  const int64_t upper_stride = static_cast<int64_t>(index.options_.M) + 1;
  index.upper_links_.resize(n);
  std::vector<int64_t> wide;
  for (int64_t i = 0; i < n; ++i) {
    int32_t levels = 0;
    if (!reader.Read(&levels) || levels < 0 || levels > 64)
      return fail("hnsw per-node level count out of range");
    if (levels != index.levels_[i])
      return fail("hnsw upper level count disagrees with the node's level");
    index.upper_links_[i].resize(levels);
    for (int32_t l = 0; l < levels; ++l) {
      if (!reader.ReadVector(&wide))
        return fail("truncated hnsw upper links");
      if (static_cast<int64_t>(wide.size()) != upper_stride)
        return fail("hnsw upper link list size disagrees with M");
      std::vector<int32_t>& links = index.upper_links_[i][l];
      links.resize(upper_stride);
      if (const char* bad =
              NarrowLinks(wide.data(), upper_stride - 1, n, links.data()))
        return fail(std::string("hnsw upper link ") + bad);
      for (int32_t j = 1; j <= links[0]; ++j) {
        if (index.levels_[links[j]] < l + 1)
          return fail("hnsw upper link points below its level");
      }
    }
  }
  *out = std::move(index);
  return util::Status::Ok();
}

std::vector<Neighbor> HnswIndex::Search(DistanceComputer& computer,
                                        const float* query, int k, int ef,
                                        HnswScratch* scratch) const {
  RESINFER_CHECK(size_ > 0);
  // Arguments are clamped instead of surprising the caller, mirroring
  // IvfIndex::Search: k <= 0 returns an empty result, k > n simply yields
  // fewer neighbors, and ef < k (including ef <= 0) widens to k.
  if (k <= 0) return {};
  ef = std::max(ef, k);
  computer.BeginQuery(query);

  HnswScratch local;
  HnswScratch* s = scratch != nullptr ? scratch : &local;
  if (static_cast<int64_t>(s->visited.size()) < size_) {
    s->visited.assign(size_, 0u);
    s->stamp = 0;
  }
  if (++s->stamp == 0) {
    std::fill(s->visited.begin(), s->visited.end(), 0u);
    s->stamp = 1;
  }
  const uint32_t stamp = s->stamp;

  int64_t current = entry_point_;
  float current_dist = computer.ExactDistance(current);

  // Greedy descent with exact distances on the sparse upper layers.
  for (int l = max_level_; l >= 1; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      int count = 0;
      const int32_t* links = Links(current, l, &count);
      for (int j = 0; j < count; ++j) {
        float dist = computer.ExactDistance(links[j]);
        if (dist < current_dist) {
          current_dist = dist;
          current = links[j];
          improved = true;
        }
      }
    }
  }

  // Base-layer beam search through the plug-in computer. Each expansion
  // gathers the unvisited neighbors into one block and evaluates it through
  // EstimateBatch, so the computer amortizes its virtual call and prefetches
  // the candidate rows; tau is the result-queue bound at block start (see
  // the batch protocol in distance_computer.h).
  std::vector<HeapItem>& candidates = s->candidates;
  std::vector<HeapItem>& results = s->results;
  candidates.clear();
  results.clear();
  HeapPush<MinOrder>(candidates, current_dist, current);
  HeapPush<MaxOrder>(results, current_dist, current);
  s->visited[current] = stamp;

  const std::size_t max_degree = static_cast<std::size_t>(2 * options_.M);
  if (s->block.size() < max_degree) {
    s->block.resize(max_degree);
    s->block_results.resize(max_degree);
  }
  // One level-0 list: the count plus 2M ids.
  const std::size_t list_bytes = (max_degree + 1) * sizeof(int32_t);

  while (!candidates.empty()) {
    auto [dist, node] = candidates.front();
    if (static_cast<int>(results.size()) >= ef &&
        dist > results.front().first) {
      break;
    }
    HeapPop<MinOrder>(candidates);
    computer.SetExpansionAnchor(node, dist);

    int count = 0;
    const int32_t* links = Links(node, 0, &count);
    int gathered = 0;
    for (int j = 0; j < count; ++j) {
      const int64_t next = links[j];
      if (s->visited[next] == stamp) continue;
      s->visited[next] = stamp;
      s->block[gathered++] = next;
    }
    if (gathered == 0) continue;

    const float tau = static_cast<int>(results.size()) >= ef
                          ? results.front().first
                          : kInfDistance;
    computer.EstimateBatch(s->block.data(), gathered, tau,
                           s->block_results.data());
    for (int j = 0; j < gathered; ++j) {
      const EstimateResult& est = s->block_results[j];
      if (est.pruned) continue;
      if (static_cast<int>(results.size()) < ef ||
          est.distance < results.front().first) {
        HeapPush<MinOrder>(candidates, est.distance, s->block[j]);
        HeapPush<MaxOrder>(results, est.distance, s->block[j]);
        if (static_cast<int>(results.size()) > ef) HeapPop<MaxOrder>(results);
      }
    }
    // The next expansion is (most likely) the new closest candidate: start
    // pulling its link list in while this one's bookkeeping finishes.
    if (!candidates.empty()) {
      const char* next_list = reinterpret_cast<const char*>(
          base_links_.data() + candidates.front().second * (max_degree + 1));
      for (std::size_t b = 0; b < list_bytes; b += 64) {
        RESINFER_PREFETCH(next_list + b);
      }
    }
  }

  while (static_cast<int>(results.size()) > k) HeapPop<MaxOrder>(results);
  std::vector<Neighbor> out(results.size());
  for (int64_t i = static_cast<int64_t>(results.size()) - 1; i >= 0; --i) {
    out[i] = {results.front().second, results.front().first};
    HeapPop<MaxOrder>(results);
  }
  return out;
}

}  // namespace resinfer::index
