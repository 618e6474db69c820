#include "index/hnsw_index.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <functional>
#include <string>

#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
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

// Nodes [0, kSerialPrefix) insert one at a time, later ones in batches of
// kBatch (see the header). Chosen by build time at n = 20000 and by recall
// on the test datasets: the prefix gives batches a connected graph to
// search, and a batch small against n keeps the graph its members see
// close to the one a one-at-a-time build would show them.
constexpr int64_t kSerialPrefix = 256;
constexpr int64_t kBatch = 128;

// HNSW Algorithm 4. `candidates` ascend by distance to the inserted point;
// keep a candidate only if it is closer to that point than to every
// neighbor already kept, which spreads the links across directions. Writes
// at most m ids to `selected`.
void SelectNeighborsHeuristic(const linalg::Matrix& base,
                              const std::vector<HeapItem>& candidates,
                              int64_t m, std::vector<int32_t>* selected) {
  selected->clear();
  const std::size_t d = static_cast<std::size_t>(base.cols());
  for (const HeapItem& cand : candidates) {
    if (static_cast<int64_t>(selected->size()) >= m) break;
    const float* row = base.Row(cand.second);
    bool keep = true;
    for (int32_t chosen : *selected) {
      if (simd::L2Sqr(row, base.Row(chosen), d) < cand.first) {
        keep = false;
        break;
      }
    }
    if (keep) selected->push_back(static_cast<int32_t>(cand.second));
  }
}

}  // namespace

// One per build thread; every buffer keeps its capacity across insertions.
struct HnswIndex::BuildContext {
  const linalg::Matrix* base = nullptr;
  std::vector<uint32_t> visited;  // sized on first use
  uint32_t stamp = 0;
  std::vector<HeapItem> candidates;
  std::vector<HeapItem> results;
  // Exact distances to the inserted node's earlier batch-mates, and those
  // a layer may link to.
  std::vector<HeapItem> mates;
  std::vector<HeapItem> layer_mates;
  // A layer's search results merged with the mates that reach the layer;
  // in the commit phase, the pool a full link list is re-selected from.
  std::vector<HeapItem> merged;
  std::vector<int32_t> reselected;

  float Distance(const float* q, int64_t id) const {
    return simd::L2Sqr(q, base->Row(id),
                       static_cast<std::size_t>(base->cols()));
  }
  void NextStamp() {
    if (visited.empty()) visited.assign(base->rows(), 0u);
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

const std::vector<HeapItem>& HnswIndex::SearchLayerBuild(
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
  std::sort_heap(results.begin(), results.end(), MaxOrder());  // ascending
  return results;
}

void HnswIndex::PlanInsert(BuildContext& ctx, int64_t i, int64_t batch_begin,
                           InsertPlan* plan) const {
  const int level = levels_[i];
  plan->resize(static_cast<std::size_t>(level) + 1);
  for (std::vector<int32_t>& layer : *plan) layer.clear();
  if (entry_point_ < 0) return;  // the first node has nothing to link to

  const linalg::Matrix& base = *ctx.base;
  const float* q = base.Row(i);
  // The batch-mates are not linked yet, so no search can reach them:
  // measure them all. Each layer sorts only the few it can use.
  ctx.mates.clear();
  for (int64_t j = batch_begin; j < i; ++j) {
    ctx.mates.emplace_back(ctx.Distance(q, j), j);
  }

  int64_t current = entry_point_;
  float current_dist = ctx.Distance(q, current);
  // Greedy descent through layers above the node's level.
  for (int l = max_level_; l > level; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      int count = 0;
      const int32_t* links = Links(current, l, &count);
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

  // Every layer of the node; those above the graph's top hold only mates.
  const std::size_t ef = static_cast<std::size_t>(options_.ef_construction);
  for (int l = level; l >= 0; --l) {
    ctx.results.clear();
    const std::vector<HeapItem>& found =
        l <= max_level_
            ? SearchLayerBuild(ctx, q, current, current_dist, l,
                               options_.ef_construction)
            : ctx.results;
    // The mates that reach layer l and beat the farthest of a full `found`,
    // ascending; then the ef closest of them and `found`, ascending.
    const float bound =
        found.size() < ef ? kInfDistance : found.back().first;
    ctx.layer_mates.clear();
    for (const HeapItem& mate : ctx.mates) {
      if (levels_[mate.second] >= l && mate.first < bound)
        ctx.layer_mates.push_back(mate);
    }
    std::sort(ctx.layer_mates.begin(), ctx.layer_mates.end());
    ctx.merged.clear();
    auto f = found.begin();
    auto m = ctx.layer_mates.begin();
    while (ctx.merged.size() < ef &&
           (f != found.end() || m != ctx.layer_mates.end())) {
      if (m == ctx.layer_mates.end() || (f != found.end() && *f < *m)) {
        ctx.merged.push_back(*f++);
      } else {
        ctx.merged.push_back(*m++);
      }
    }
    SelectNeighborsHeuristic(base, ctx.merged, LinkCapacity(l),
                             &(*plan)[static_cast<std::size_t>(l)]);

    // The next layer starts from the closest node the search reached (the
    // mates have no links to search from yet).
    if (!found.empty()) {
      current = found.front().second;
      current_dist = found.front().first;
    }
  }
}

void HnswIndex::CommitInsert(BuildContext& ctx, int64_t i,
                             const InsertPlan& plan) {
  const linalg::Matrix& base = *ctx.base;
  const int level = levels_[i];
  for (int l = level; l >= 0; --l) {
    const std::vector<int32_t>& neighbors =
        plan[static_cast<std::size_t>(l)];

    // Connect i -> neighbors.
    int32_t* my_links = MutableLinks(i, l);
    my_links[0] = static_cast<int32_t>(neighbors.size());
    std::copy(neighbors.begin(), neighbors.end(), my_links + 1);

    // Connect neighbors -> i, shrinking with the heuristic on overflow.
    const int64_t capacity = LinkCapacity(l);
    for (int32_t nb : neighbors) {
      int count = 0;
      const int32_t* links = Links(nb, l, &count);
      int32_t* slot = MutableLinks(nb, l);
      if (count < capacity) {
        slot[count + 1] = static_cast<int32_t>(i);
        slot[0] = count + 1;
        continue;
      }
      // Re-select among existing links + i relative to nb.
      std::vector<HeapItem>& pool = ctx.merged;
      pool.clear();
      const float* nb_vec = base.Row(nb);
      pool.emplace_back(ctx.Distance(nb_vec, i), i);
      for (int j = 0; j < count; ++j)
        pool.emplace_back(ctx.Distance(nb_vec, links[j]), links[j]);
      std::sort(pool.begin(), pool.end(),
                [](const HeapItem& a, const HeapItem& b) {
                  return a.first < b.first;
                });
      SelectNeighborsHeuristic(base, pool, capacity, &ctx.reselected);
      slot[0] = static_cast<int32_t>(ctx.reselected.size());
      std::copy(ctx.reselected.begin(), ctx.reselected.end(), slot + 1);
    }
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = i;
  }
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
  for (int64_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    if (u <= 0.0) u = 1e-12;
    int level = static_cast<int>(-std::log(u) * ml);
    index.levels_[i] = level;
    index.upper_links_[i].assign(
        level, std::vector<int32_t>(options.M + 1, 0));
  }

  const int threads = DefaultThreadCount();
  std::vector<BuildContext> contexts(static_cast<std::size_t>(threads));
  for (BuildContext& ctx : contexts) ctx.base = &base;
  std::vector<InsertPlan> plans(static_cast<std::size_t>(std::min(n, kBatch)));
  for (int64_t begin = 0; begin < n;) {
    const int64_t end =
        begin < kSerialPrefix ? begin + 1 : std::min(n, begin + kBatch);
    ParallelForEachCostly(end - begin, threads, [&](int64_t k, int t) {
      index.PlanInsert(contexts[static_cast<std::size_t>(t)], begin + k,
                       begin, &plans[static_cast<std::size_t>(k)]);
    });
    for (int64_t i = begin; i < end; ++i) {
      index.CommitInsert(contexts[0], i,
                         plans[static_cast<std::size_t>(i - begin)]);
    }
    begin = end;
  }
  return index;
}

namespace {

// Link ids cross the disk in chunks of this many int64_t values, so
// neither SaveTo nor LoadFrom holds a wide copy of the graph.
constexpr std::size_t kWideChunk = 4096;

// Writes `links` as WriteVector would write their int64_t widening,
// widening at most kWideChunk of them at a time into `wide`.
void WriteWide(BinaryWriter& writer, const std::vector<int32_t>& links,
               std::vector<int64_t>* wide) {
  writer.Write<int64_t>(static_cast<int64_t>(links.size()));
  for (std::size_t begin = 0; begin < links.size(); begin += kWideChunk) {
    const std::size_t len = std::min(kWideChunk, links.size() - begin);
    wide->assign(links.begin() + begin, links.begin() + begin + len);
    writer.WriteBytes(wide->data(), len * sizeof(int64_t));
  }
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
  std::vector<int64_t> wide;
  wide.reserve(kWideChunk);
  WriteWide(writer, base_links_, &wide);
  for (const auto& per_node : upper_links_) {
    writer.Write<int32_t>(static_cast<int32_t>(per_node.size()));
    for (const auto& level : per_node) WriteWide(writer, level, &wide);
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
  int64_t base_count = 0;
  if (!reader.ReadVector(&index.levels_) || !reader.Read(&base_count) ||
      !reader.CheckCount(base_count, sizeof(int64_t))) {
    return fail("truncated hnsw levels/links");
  }
  if (static_cast<int64_t>(index.levels_.size()) != n ||
      base_count % base_stride != 0 || base_count / base_stride != n) {
    return fail("hnsw levels/links size disagrees with node count");
  }
  for (int level : index.levels_) {
    if (level < 0) return fail("hnsw node level is negative");
  }
  if (index.max_level_ != index.levels_[index.entry_point_])
    return fail("hnsw max level disagrees with the entry point's level");

  // The level-0 lists stream through one chunk of whole wide lists.
  index.base_links_.resize(static_cast<std::size_t>(base_count));
  const int64_t chunk_nodes = std::max<int64_t>(
      1, static_cast<int64_t>(kWideChunk) / base_stride);
  std::vector<int64_t> wide(
      static_cast<std::size_t>(std::min(n, chunk_nodes) * base_stride));
  for (int64_t begin = 0; begin < n; begin += chunk_nodes) {
    const int64_t nodes = std::min(chunk_nodes, n - begin);
    reader.ReadBytes(wide.data(), static_cast<std::size_t>(
                                      nodes * base_stride) * sizeof(int64_t));
    if (!reader.ok()) return fail("truncated hnsw levels/links");
    for (int64_t i = 0; i < nodes; ++i) {
      if (const char* bad = NarrowLinks(
              wide.data() + i * base_stride, base_stride - 1, n,
              index.base_links_.data() + (begin + i) * base_stride)) {
        return fail(std::string("hnsw link ") + bad);
      }
    }
  }

  // Upper levels: node i carries one [count, id x M] list per level
  // 1..levels_[i], and every counted id must itself reach that level.
  const int64_t upper_stride = static_cast<int64_t>(index.options_.M) + 1;
  index.upper_links_.resize(n);
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
