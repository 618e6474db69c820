#include "index/distance_computer.h"

#include "index/block_refine.h"
#include "simd/kernels.h"
#include "util/macros.h"

namespace resinfer::index {

void DistanceComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                     EstimateResult* out) {
  for (int i = 0; i < count; ++i) out[i] = EstimateWithThreshold(ids[i], tau);
}

void DistanceComputer::SetQueryBatch(const float* queries, int count,
                                     int64_t stride) {
  batch_.Set(queries, count, stride, dim());
}

void DistanceComputer::SelectQuery(int g) { BeginQuery(batch_.query(g)); }

void DistanceComputer::EstimateBatchGroup(const int64_t* ids, int count,
                                          const int* members, int num_members,
                                          const float* taus,
                                          EstimateResult* out) {
  for (int j = 0; j < num_members; ++j) {
    SelectQuery(members[j]);
    EstimateBatch(ids, count, taus[j], out + static_cast<int64_t>(j) * count);
  }
}

void DistanceComputer::EstimateBatchCodesGroup(const uint8_t* codes,
                                               const int64_t* ids, int count,
                                               const int* members,
                                               int num_members,
                                               const float* taus,
                                               EstimateResult* out) {
  for (int j = 0; j < num_members; ++j) {
    SelectQuery(members[j]);
    EstimateBatchCodes(codes, ids, count, taus[j],
                       out + static_cast<int64_t>(j) * count);
  }
}

FlatDistanceComputer::FlatDistanceComputer(const float* base, int64_t n,
                                           int64_t d)
    : base_(base), size_(n), dim_(d) {
  RESINFER_CHECK(base != nullptr && n > 0 && d > 0);
}

EstimateResult FlatDistanceComputer::EstimateWithThreshold(int64_t id,
                                                           float /*tau*/) {
  ++stats_.candidates;
  ++stats_.exact_computations;
  stats_.dims_scanned += dim_;
  return {false, ExactDistance(id)};
}

void FlatDistanceComputer::EstimateBatch(const int64_t* ids, int count,
                                         float /*tau*/, EstimateResult* out) {
  RESINFER_DCHECK(query_ != nullptr);
  stats_.candidates += count;
  stats_.exact_computations += count;
  stats_.dims_scanned += static_cast<int64_t>(count) * dim_;

  for (int i = 0; i < count; ++i) {
    RESINFER_DCHECK(ids[i] >= 0 && ids[i] < size_);
  }
  const std::size_t d = static_cast<std::size_t>(dim_);
  RefineExactL2(
      query_, d, [this](int64_t id) { return base_ + id * dim_; }, ids,
      /*pick=*/nullptr, count, out);
}

void FlatDistanceComputer::EstimateBatchGroup(const int64_t* ids, int count,
                                              const int* members,
                                              int num_members,
                                              const float* taus,
                                              EstimateResult* out) {
  (void)taus;  // the exact computer never prunes
  RESINFER_DCHECK(num_members > 0 && num_members <= kMaxQueryGroup);
  for (int i = 0; i < count; ++i) {
    RESINFER_DCHECK(ids[i] >= 0 && ids[i] < size_);
  }
  const float* queries[kMaxQueryGroup];
  for (int j = 0; j < num_members; ++j) queries[j] = batch_.query(members[j]);
  for (int j = 0; j < num_members; ++j) {
    stats_.candidates += count;
    stats_.exact_computations += count;
    stats_.dims_scanned += static_cast<int64_t>(count) * dim_;
  }

  // RefineExactL2's loop shape (4-wide groups, next-group prefetch, scalar
  // tail), with each gathered row group scored for every member while it is
  // in L1. Lane (j, r) of L2SqrTile is bit-identical to the per-member
  // L2SqrBatch4 lane, so out matches the default member-by-member loop.
  const std::size_t d = static_cast<std::size_t>(dim_);
  const float* rows[simd::kBatchWidth];
  float vals[kMaxQueryGroup * simd::kBatchWidth];
  int i = 0;
  for (; i + simd::kBatchWidth <= count; i += simd::kBatchWidth) {
    for (int r = 0; r < simd::kBatchWidth; ++r) {
      rows[r] = base_ + ids[i + r] * dim_;
    }
    if (i + 2 * simd::kBatchWidth <= count) {
      for (int r = 0; r < simd::kBatchWidth; ++r) {
        RESINFER_PREFETCH(base_ + ids[i + simd::kBatchWidth + r] * dim_);
      }
    }
    simd::L2SqrTile(queries, num_members, rows, d, vals);
    for (int j = 0; j < num_members; ++j) {
      for (int r = 0; r < simd::kBatchWidth; ++r) {
        out[static_cast<int64_t>(j) * count + i + r] = {
            false, vals[j * simd::kBatchWidth + r]};
      }
    }
  }
  for (; i < count; ++i) {
    const float* row = base_ + ids[i] * dim_;
    for (int j = 0; j < num_members; ++j) {
      out[static_cast<int64_t>(j) * count + i] = {
          false, simd::L2Sqr(queries[j], row, d)};
    }
  }
  // The equivalent member loop ends with the last member selected.
  SelectQuery(members[num_members - 1]);
}

float FlatDistanceComputer::ExactDistance(int64_t id) {
  RESINFER_DCHECK(query_ != nullptr);
  RESINFER_DCHECK(id >= 0 && id < size_);
  return simd::L2Sqr(base_ + id * dim_, query_,
                     static_cast<std::size_t>(dim_));
}

}  // namespace resinfer::index
