#include "index/ivf_index.h"

#include <algorithm>
#include <queue>
#include <string>
#include <utility>

#include "util/macros.h"

namespace resinfer::index {

namespace {

// Candidates per EstimateBatch call in Search. Large enough to amortize the
// virtual dispatch and keep the batched kernels fed, small enough that the
// block's ids and results stay in L1.
constexpr int kScanBlock = 32;

// (distance, id) max-heap: the running top-k during a scan.
using HeapEntry = std::pair<float, int64_t>;
using ResultHeap = std::priority_queue<HeapEntry>;

std::vector<Neighbor> DrainHeap(ResultHeap& heap) {
  std::vector<Neighbor> out(heap.size());
  for (int64_t i = static_cast<int64_t>(heap.size()) - 1; i >= 0; --i) {
    out[i] = {heap.top().second, heap.top().first};
    heap.pop();
  }
  return out;
}

// The running top-k bound: the heap's worst distance once it holds k.
float Tau(const ResultHeap& heap, int k) {
  return static_cast<int>(heap.size()) == k ? heap.top().first
                                             : kInfDistance;
}

// Offers a scored block to the top-k heap; pruned candidates never enter.
void Push(ResultHeap& heap, int k, const EstimateResult* vals,
          const int64_t* ids, int count) {
  for (int c = 0; c < count; ++c) {
    if (vals[c].pruned) continue;
    if (static_cast<int>(heap.size()) < k) {
      heap.emplace(vals[c].distance, ids[c]);
    } else if (vals[c].distance < heap.top().first) {
      heap.pop();
      heap.emplace(vals[c].distance, ids[c]);
    }
  }
}

// Walks a bucket of `len` candidates in kScanBlock blocks, calling
// `score(pos, block)` on each after pulling the next block's id range
// toward the cache (the candidate rows themselves are prefetched inside
// the computers' batch overrides).
template <typename ScoreFn>
void ForEachBlock(const int64_t* bucket_ids, int64_t len, ScoreFn&& score) {
  for (int64_t pos = 0; pos < len; pos += kScanBlock) {
    const int block =
        static_cast<int>(std::min<int64_t>(kScanBlock, len - pos));
    if (pos + block < len) {
      RESINFER_PREFETCH(bucket_ids + pos + block);
      RESINFER_PREFETCH(bucket_ids + pos + block + 8);
    }
    score(pos, block);
  }
}

// Scores one bucket for the computer's current query, block by block with
// tau refreshed from `heap` before each block — the schedule Search and
// every member of a query-major scan follow, which keeps them
// bit-identical. `codes` is the bucket's record stream, or null to gather.
void ScanBucket(DistanceComputer& computer, const int64_t* ids,
                const uint8_t* codes, int64_t code_stride, int64_t len,
                int k, ResultHeap& heap) {
  EstimateResult est[kScanBlock];
  ForEachBlock(ids, len, [&](int64_t pos, int block) {
    const float tau = Tau(heap, k);
    if (codes != nullptr) {
      computer.EstimateBatchCodes(codes + pos * code_stride, ids + pos,
                                  block, tau, est);
    } else {
      computer.EstimateBatch(ids + pos, block, tau, est);
    }
    Push(heap, k, est, ids + pos, block);
  });
}

// Record stride of the attached store when `computer` can stream it, 0 to
// gather. The tag encodes method + record layout + a content fingerprint,
// so a mismatched or stale store is never misread; computers cache the
// string.
int64_t CodeStride(const IvfIndex& index, const DistanceComputer& computer) {
  if (!index.has_codes()) return 0;
  const std::string tag = computer.code_tag();
  return !tag.empty() && index.codes().tag() == tag ? index.codes().stride()
                                                    : 0;
}

}  // namespace

IvfIndex IvfIndex::Build(const linalg::Matrix& base,
                         const IvfOptions& options,
                         const quant::CodeStore* codes) {
  const int64_t n = base.rows();
  RESINFER_CHECK(n > 0);
  int k = options.num_clusters;
  int cap = static_cast<int>(
      std::max<int64_t>(1, n / std::max(1, options.min_points_per_cluster)));
  k = std::clamp(k, 1, cap);

  quant::KMeansResult km =
      quant::KMeans(base.data(), n, base.cols(), k, options.kmeans);

  // Counting sort of the assignments into the CSR layout.
  IvfIndex index;
  index.size_ = n;
  index.centroids_ = std::move(km.centroids);
  index.bucket_offsets_.assign(k + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    ++index.bucket_offsets_[km.assignments[i] + 1];
  }
  for (int b = 0; b < k; ++b) {
    index.bucket_offsets_[b + 1] += index.bucket_offsets_[b];
  }
  index.ids_.resize(n);
  std::vector<int64_t> cursor(index.bucket_offsets_.begin(),
                              index.bucket_offsets_.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    index.ids_[cursor[km.assignments[i]]++] = i;
  }
  if (codes != nullptr) index.AttachCodes(*codes);
  return index;
}

IvfIndex IvfIndex::FromComponents(
    int64_t size, linalg::Matrix centroids,
    std::vector<std::vector<int64_t>> buckets) {
  RESINFER_CHECK(centroids.rows() == static_cast<int64_t>(buckets.size()));
  std::vector<int64_t> offsets;
  offsets.reserve(buckets.size() + 1);
  offsets.push_back(0);
  std::vector<int64_t> ids;
  for (const auto& bucket : buckets) {
    ids.insert(ids.end(), bucket.begin(), bucket.end());
    offsets.push_back(static_cast<int64_t>(ids.size()));
  }
  return FromCsr(size, std::move(centroids), std::move(offsets),
                 std::move(ids));
}

util::Status IvfIndex::ValidateCsr(int64_t size, int64_t num_clusters,
                                   const std::vector<int64_t>& bucket_offsets,
                                   const std::vector<int64_t>& ids) {
  const auto fail = [](const char* what) {
    return util::Status::Corruption(what);
  };
  if (size <= 0) return fail("ivf size must be positive");
  if (static_cast<int64_t>(bucket_offsets.size()) != num_clusters + 1 ||
      bucket_offsets.empty() || bucket_offsets.front() != 0 ||
      bucket_offsets.back() != static_cast<int64_t>(ids.size())) {
    return fail("inconsistent ivf offsets");
  }
  for (std::size_t b = 1; b < bucket_offsets.size(); ++b) {
    if (bucket_offsets[b] < bucket_offsets[b - 1]) {
      return fail("ivf offsets not monotonic");
    }
  }
  for (int64_t id : ids) {
    if (id < 0 || id >= size) return fail("bucket id out of range");
  }
  return util::Status::Ok();
}

IvfIndex IvfIndex::FromCsr(int64_t size, linalg::Matrix centroids,
                           std::vector<int64_t> bucket_offsets,
                           std::vector<int64_t> ids,
                           const quant::CodeStore* codes) {
  RESINFER_CHECK(
      ValidateCsr(size, centroids.rows(), bucket_offsets, ids).ok());

  IvfIndex index;
  index.size_ = size;
  index.centroids_ = std::move(centroids);
  index.bucket_offsets_ = std::move(bucket_offsets);
  index.ids_ = std::move(ids);
  if (codes != nullptr) index.AttachCodes(*codes);
  return index;
}

void IvfIndex::AttachCodes(const quant::CodeStore& source) {
  RESINFER_CHECK(source.size() == size_);
  codes_ = source.PermutedBy(ids_);
}

void IvfIndex::AttachPermutedCodes(quant::CodeStore codes) {
  // One record per CSR entry (== size_ when the buckets partition the base,
  // which persist enforces on its files).
  RESINFER_CHECK(codes.size() == static_cast<int64_t>(ids_.size()));
  codes_ = std::move(codes);
}

void IvfIndex::AttachSharedCodes(const quant::CodeStore& source) {
  RESINFER_CHECK(source.size() == static_cast<int64_t>(ids_.size()));
  codes_ = source.ShareView();
}

bool IvfIndex::AttachCodesFrom(const DistanceComputer& computer) {
  quant::CodeStore store = computer.MakeCodeStore();
  if (store.empty()) return false;
  AttachCodes(store);
  return true;
}

std::vector<Neighbor> IvfIndex::Search(DistanceComputer& computer,
                                       const float* query, int k,
                                       int nprobe) const {
  if (k <= 0) return {};  // nothing asked for; clamp instead of aborting
  nprobe = std::clamp(nprobe, 1, num_clusters());
  computer.BeginQuery(query);

  std::vector<int32_t> probe =
      quant::NearestCentroids(centroids_, query, nprobe);

  ResultHeap heap;
  const int64_t code_stride = CodeStride(*this, computer);
  for (int32_t bucket : probe) {
    ScanBucket(computer, BucketIds(bucket),
               code_stride > 0 ? BucketCodes(bucket) : nullptr, code_stride,
               BucketSize(bucket), k, heap);
  }
  return DrainHeap(heap);
}

void IvfIndex::SearchBatchRange(DistanceComputer& computer,
                                const linalg::Matrix& queries, int64_t begin,
                                int64_t count, int k, int nprobe,
                                std::vector<Neighbor>* results,
                                const int32_t* probe_lists) const {
  RESINFER_CHECK(begin >= 0 && count >= 0 &&
                 begin + count <= queries.rows());
  RESINFER_CHECK(queries.cols() == computer.dim());
  if (count == 0) return;
  if (k <= 0) {  // same clamp as Search
    for (int64_t i = 0; i < count; ++i) results[i].clear();
    return;
  }
  nprobe = std::clamp(nprobe, 1, num_clusters());

  // Resolved once for the whole batch.
  const int64_t code_stride = CodeStride(*this, computer);
  const bool tile_blocks = computer.group_scan_tiles_blocks();

  for (int64_t start = 0; start < count; start += kMaxQueryGroup) {
    const int group = static_cast<int>(
        std::min<int64_t>(kMaxQueryGroup, count - start));
    const int64_t row0 = begin + start;
    computer.SetQueryBatch(queries.Row(row0), group, queries.cols());

    std::vector<int32_t> probe_storage;
    const int32_t* probes[kMaxQueryGroup];
    if (probe_lists == nullptr) {
      // Rank the group's centroids in one tiled pass (bit-identical to
      // per-query NearestCentroids, each centroid row streamed once).
      probe_storage.resize(static_cast<std::size_t>(group) * nprobe);
      quant::NearestCentroidsBatch(centroids_, queries, row0, group, nprobe,
                                   probe_storage.data());
    }
    for (int g = 0; g < group; ++g) {
      probes[g] = probe_lists != nullptr
                      ? probe_lists + (start + g) * nprobe
                      : probe_storage.data() + static_cast<int64_t>(g) * nprobe;
    }

    ResultHeap heaps[kMaxQueryGroup];
    EstimateResult est[kMaxQueryGroup * kScanBlock];
    float taus[kMaxQueryGroup];
    int members[kMaxQueryGroup];
    int cursor[kMaxQueryGroup] = {0};

    // Co-probe scheduling: each member consumes its probe list strictly in
    // rank order (that plus the per-block tau refresh is what makes every
    // member bit-identical to its sequential Search), but members need not
    // advance in lock step. Every round picks the bucket the most members
    // want next, scans it once, and advances exactly those members — so
    // probe lists that agree on buckets at different ranks still converge
    // onto shared streams.
    while (true) {
      int best_count = 0;
      int32_t best_bucket = -1;
      for (int g = 0; g < group; ++g) {
        if (cursor[g] >= nprobe) continue;
        const int32_t bucket = probes[g][cursor[g]];
        if (bucket == best_bucket) continue;  // counted when first seen
        int cnt = 0;
        for (int h = g; h < group; ++h) {
          if (cursor[h] < nprobe && probes[h][cursor[h]] == bucket) ++cnt;
        }
        if (cnt > best_count) {
          best_count = cnt;
          best_bucket = bucket;
        }
      }
      if (best_count == 0) break;  // every member exhausted its probes

      int num_members = 0;
      for (int g = 0; g < group; ++g) {
        if (cursor[g] < nprobe && probes[g][cursor[g]] == best_bucket) {
          members[num_members++] = g;
          ++cursor[g];
        }
      }

      const int64_t* bucket_ids = BucketIds(best_bucket);
      const int64_t len = BucketSize(best_bucket);
      const uint8_t* bucket_codes =
          code_stride > 0 ? BucketCodes(best_bucket) : nullptr;
      if (tile_blocks && num_members > 1) {
        // Block-tiled order: each kScanBlock block is scored for every
        // member in one group call while its candidates sit in L1.
        ForEachBlock(bucket_ids, len, [&](int64_t pos, int block) {
          for (int j = 0; j < num_members; ++j) {
            taus[j] = Tau(heaps[members[j]], k);
          }
          if (bucket_codes != nullptr) {
            computer.EstimateBatchCodesGroup(
                bucket_codes + pos * code_stride, bucket_ids + pos, block,
                members, num_members, taus, est);
          } else {
            computer.EstimateBatchGroup(bucket_ids + pos, block, members,
                                        num_members, taus, est);
          }
          for (int j = 0; j < num_members; ++j) {
            Push(heaps[members[j]], k, est + j * block, bucket_ids + pos,
                 block);
          }
        });
      } else {
        // Member-major order: one member scans the whole bucket before
        // the next, so large per-query state (ADC tables) stays
        // cache-resident for the run while the bucket's records are
        // re-read from L1/L2 by later members. Both orders preserve each
        // member's sequential block-and-tau schedule.
        for (int j = 0; j < num_members; ++j) {
          computer.SelectQuery(members[j]);
          ScanBucket(computer, bucket_ids, bucket_codes, code_stride, len, k,
                     heaps[members[j]]);
        }
      }
    }

    for (int g = 0; g < group; ++g) {
      results[start + g] = DrainHeap(heaps[g]);
    }
  }
}

std::vector<std::vector<Neighbor>> IvfIndex::SearchBatch(
    DistanceComputer& computer, const linalg::Matrix& queries, int k,
    int nprobe) const {
  std::vector<std::vector<Neighbor>> results(
      static_cast<std::size_t>(queries.rows()));
  SearchBatchRange(computer, queries, 0, queries.rows(), k, nprobe,
                   results.data());
  return results;
}

}  // namespace resinfer::index
