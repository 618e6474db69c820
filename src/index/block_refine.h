// Shared exact-refinement loop for the block-scan pipeline.
//
// Every batch computer ends the same way: gather the rows of the candidates
// that survived pruning, run them through L2SqrBatch4 four at a time with
// next-group prefetch, and finish the remainder with single-pair calls.
// This helper is that loop; keeping one copy prevents the call sites from
// drifting (prefetch distance, batch width) and keeps each lane
// bit-identical to the sequential exact path. Stats accounting stays with
// the caller.
#ifndef RESINFER_INDEX_BLOCK_REFINE_H_
#define RESINFER_INDEX_BLOCK_REFINE_H_

#include <algorithm>
#include <cstdint>

#include "index/distance_computer.h"
#include "simd/kernels.h"
#include "util/macros.h"

namespace resinfer::index {

// Drives `count` candidates through a 4-wide batch kernel: groups of
// simd::kBatchWidth rows are fetched via `row(position)` (any pointer type —
// float rows gathered by id, or records at position * stride in a
// code-resident stream), the next group's rows are prefetched, `kernel4(
// rows, vals)` fills one value per lane, and `lane(position, value)`
// consumes each result. Remainder positions (< kBatchWidth of them, at the
// end) go to `tail(position)`, which must reproduce the single-candidate
// path. Callers that scan by id adapt with row = [&](int pos) {
// return base.Row(ids[pos]); }.
template <typename RowFn, typename Kernel4, typename LaneFn, typename TailFn>
void ScanBatch4(RowFn&& row, Kernel4&& kernel4, LaneFn&& lane, TailFn&& tail,
                int count) {
  using RowPtr = decltype(row(int{0}));
  RowPtr rows[simd::kBatchWidth];
  float vals[simd::kBatchWidth];
  int i = 0;
  for (; i + simd::kBatchWidth <= count; i += simd::kBatchWidth) {
    for (int r = 0; r < simd::kBatchWidth; ++r) {
      rows[r] = row(i + r);
    }
    if (i + 2 * simd::kBatchWidth <= count) {
      for (int r = 0; r < simd::kBatchWidth; ++r) {
        RESINFER_PREFETCH(row(i + simd::kBatchWidth + r));
      }
    }
    kernel4(static_cast<const RowPtr*>(rows), vals);
    for (int r = 0; r < simd::kBatchWidth; ++r) {
      lane(i + r, vals[r]);
    }
  }
  for (; i < count; ++i) tail(i);
}

// Candidates per ScanHeadsThenRows / EstimatePruneRefine chunk: the
// callbacks never see more than this many positions per pass.
inline constexpr int kRefineChunk = 32;

// The code-stream scan of the rotated-row cascades (DDCpca, DDCres). Record
// `pos` holds only the head of the candidate's rotated row — the first
// `head_dims` floats, enough for the first stage — so most candidates are
// decided without touching the full row. Per chunk of kRefineChunk
// positions:
//   1. Heads go through ScanBatch4 and `kernel4(heads, vals)`; a position
//      in the final partial group is scored with its head repeated in every
//      lane (lanes are independent, so the value is the one a full group
//      would give). `settle(pos, value)` applies the first-stage decision
//      and returns true when that settled the candidate. For each survivor
//      the tail of `row(pos)` (the full row, dims [head_dims, row_dims)) is
//      prefetched at once — up to kTailPrefetchLines cache lines; the
//      hardware stream prefetcher follows a longer row — so the loads
//      overlap the rest of the head scan.
//   2. Survivors, in order: `resume(pos, row(pos), value)` continues the
//      cascade from the second stage on the full row.
// Each candidate's arithmetic is the one the id-gather path does, so the
// results are bit-identical to it; stats stay with the callbacks.
template <typename HeadFn, typename Kernel4, typename SettleFn, typename RowFn,
          typename ResumeFn>
void ScanHeadsThenRows(HeadFn&& head, Kernel4&& kernel4, SettleFn&& settle,
                       RowFn&& row, ResumeFn&& resume, std::size_t head_dims,
                       std::size_t row_dims, int count) {
  constexpr std::size_t kLineFloats = 64 / sizeof(float);
  constexpr std::size_t kTailPrefetchLines = 8;
  const std::size_t prefetch_floats =
      std::min(row_dims - head_dims, kTailPrefetchLines * kLineFloats);
  int survivors[kRefineChunk];
  float survivor_vals[kRefineChunk];
  for (int start = 0; start < count; start += kRefineChunk) {
    const int block = std::min(kRefineChunk, count - start);
    int num_survivors = 0;
    const auto lane = [&](int pos, float value) {
      if (settle(pos, value)) return;
      const float* tail = row(pos) + head_dims;
      for (std::size_t f = 0; f < prefetch_floats; f += kLineFloats) {
        RESINFER_PREFETCH(tail + f);
      }
      survivors[num_survivors] = pos;
      survivor_vals[num_survivors++] = value;
    };
    ScanBatch4([&](int i) { return head(start + i); }, kernel4,
               [&](int i, float value) { lane(start + i, value); },
               [&](int i) {
                 const float* heads[simd::kBatchWidth];
                 std::fill_n(heads, simd::kBatchWidth, head(start + i));
                 float vals[simd::kBatchWidth];
                 kernel4(static_cast<const float* const*>(heads), vals);
                 lane(start + i, vals[0]);
               },
               block);
    for (int s = 0; s < num_survivors; ++s) {
      resume(survivors[s], row(survivors[s]), survivor_vals[s]);
    }
  }
}

// Writes {false, L2Sqr(query, row(ids[p]))} to out[p] for each refined
// position p. `row(id)` returns the candidate's d-float vector. `pick`
// selects which positions of ids/out to refine (the survivor indices of a
// pruning pass); pass nullptr to refine positions [0, count).
template <typename RowFn>
void RefineExactL2(const float* query, std::size_t d, RowFn&& row,
                   const int64_t* ids, const int* pick, int count,
                   EstimateResult* out) {
  const auto pos = [pick](int j) { return pick != nullptr ? pick[j] : j; };
  ScanBatch4([&](int j) { return row(ids[pos(j)]); },
             [query, d](const float* const* rows, float* dist) {
               simd::L2SqrBatch4(query, rows, d, dist);
             },
             [&](int j, float dist) { out[pos(j)] = {false, dist}; },
             [&](int j) {
               out[pos(j)] = {false, simd::L2Sqr(query, row(ids[pos(j)]), d)};
             },
             count);
}

// The prune/refine decision for one chunk of at most kRefineChunk
// candidates whose approximate distances and trust features are in hand:
// `prunable(approx, extra)` applies the corrector at the caller's tau,
// pruned candidates keep their approximation, survivors are refined
// exactly via RefineExactL2, and stats advance as the equivalent
// sequential loop would.
template <typename RowFn, typename PruneFn>
void PruneRefineChunk(const float* query, std::size_t d, RowFn&& row,
                      PruneFn&& prunable, bool tau_finite, const int64_t* ids,
                      const float* approx, const float* extra, int count,
                      ComputerStats& stats, EstimateResult* out) {
  RESINFER_DCHECK(count <= kRefineChunk);
  int survivors[kRefineChunk];
  int num_survivors = 0;
  stats.candidates += count;
  for (int j = 0; j < count; ++j) {
    if (tau_finite && prunable(approx[j], extra[j])) {
      ++stats.pruned;
      out[j] = {true, approx[j]};
    } else {
      survivors[num_survivors++] = j;
    }
  }
  stats.exact_computations += num_survivors;
  stats.dims_scanned +=
      static_cast<int64_t>(num_survivors) * static_cast<int64_t>(d);
  RefineExactL2(query, d, row, ids, survivors, num_survivors, out);
}

// The chunked estimate/prune/refine loop shared by the corrector-backed
// batch computers (DdcAny, DdcOpq): `approx(start, n, out, extras)` fills
// the approximate distances and per-point trust features of the n
// candidates at positions [start, start + n) of the block (extras arrive
// zeroed, matching the sequential path's scratch); PruneRefineChunk then
// decides each chunk.
template <typename RowFn, typename ApproxFn, typename PruneFn>
void EstimatePruneRefine(const float* query, std::size_t d, RowFn&& row,
                         ApproxFn&& approx, PruneFn&& prunable,
                         bool tau_finite, const int64_t* ids, int count,
                         ComputerStats& stats, EstimateResult* out) {
  float approx_dist[kRefineChunk];
  float extra[kRefineChunk];
  for (int i = 0; i < count; i += kRefineChunk) {
    const int block = std::min(kRefineChunk, count - i);
    std::fill_n(extra, block, 0.0f);
    approx(i, block, approx_dist, extra);
    PruneRefineChunk(query, d, row, prunable, tau_finite, ids + i,
                     approx_dist, extra, block, stats, out + i);
  }
}

}  // namespace resinfer::index

#endif  // RESINFER_INDEX_BLOCK_REFINE_H_
