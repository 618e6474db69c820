// DDCres (§IV): PCA-projected distance decomposition with Gaussian error
// bounds. Implements Algorithm 1 (single test, then exact) and Algorithm 2
// (Incremental-DDCres: grow the projected dimension by delta_dim per round).
//
// Decomposition per candidate x against query q (both PCA-rotated and
// centered):
//   C1 = ||x||^2 + ||q||^2      (precomputed per point / per query)
//   C2 = 2 <x_d, q_d>           (O(d), accumulated incrementally)
//   dis' = C1 - C2,  exact dis = C1 - C2 - C3 with C3 = 2 <x_r, q_r>
// Prune when dis' - m * sigma(d) > tau, where sigma comes from the
// ResidualErrorModel.
#ifndef RESINFER_CORE_DDC_RES_H_
#define RESINFER_CORE_DDC_RES_H_

#include <memory>
#include <string>
#include <vector>

#include "core/error_model.h"
#include "index/distance_computer.h"
#include "index/query_slots.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"

namespace resinfer::core {

struct DdcResOptions {
  // First projected dimension tested (paper/ADSampling default: 32).
  int64_t init_dim = 32;
  // Increment per correction round in Algorithm 2.
  int64_t delta_dim = 32;
  // Error-bound quantile; the multiplier is the one-sided normal quantile.
  // 0.99865 is the one-sided equivalent of the paper's "mu + 3 sigma"
  // empirical rule (Fig 2) and gives multiplier ~3.0.
  double quantile = 0.99865;
  // When > 0, overrides the quantile-derived multiplier (the paper's
  // "3-sigma empirical rule" corresponds to multiplier = 3).
  double multiplier = 0.0;
  // Algorithm 2 (true) or Algorithm 1 (false).
  bool incremental = true;
};

// Per-query state of DdcResComputer.
struct DdcResQueryState {
  std::vector<float> rotated;  // PCA-rotated query
  // bounds[s] = multiplier * sigma(stage s's dimension), precomputed once
  // per query so the per-candidate loop is sqrt-free.
  std::vector<float> bounds;
  float norm_sqr = 0.0f;  // ||q||^2
};

class DdcResComputer
    : public index::QuerySlots<index::DistanceComputer, DdcResQueryState> {
 public:
  // `pca` and `rotated_base` are shared artifacts (see MethodFactory) and
  // must outlive the computer. rotated_base rows are PCA-transformed base
  // vectors.
  DdcResComputer(const linalg::PcaModel* pca,
                 const linalg::Matrix* rotated_base,
                 const DdcResOptions& options = DdcResOptions());

  int64_t dim() const override { return pca_->dim(); }
  int64_t size() const override { return rotated_base_->rows(); }
  std::string name() const override {
    return options_.incremental ? "ddc-res" : "ddc-res-basic";
  }

  index::EstimateResult EstimateWithThreshold(int64_t id,
                                              float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     index::EstimateResult* out) override;
  // Code-resident form; record = [first-stage head of the rotated row
  // (stage_dims_[0] floats) | ||x||^2]. The first stage, which settles
  // most candidates, streams from the records; survivors continue on
  // their full row in rotated_base_, read by id. Both DdcRes variants
  // (incremental or not) share one layout. Without a test stage
  // (init_dim >= D) there is no code-resident form.
  std::string code_tag() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids,
                          int count, float tau,
                          index::EstimateResult* out) override;
  float ExactDistance(int64_t id) override;

  float multiplier() const { return multiplier_; }
  // Approximate distance dis' = C1 - C2 at projection dimension d for the
  // current query (no pruning logic); used by the Table III accuracy bench.
  float ApproximateDistance(int64_t id, int64_t d) const;

  // Extra storage this method needs beyond the raw vectors: per-point norms
  // plus the rotation matrix (§VII Exp-3).
  int64_t ExtraBytes() const;

 private:
  void BuildQueryState(const float* query,
                       DdcResQueryState& state) override;
  // The block scorer behind EstimateBatch and EstimateBatchCodes (see
  // index::ScanHeadsThenRows): `record(pos)` yields candidate pos's
  // first-stage head and ||x||^2 — its full rotated row and norms_sqr_
  // entry when gathering by id, its record in the bucket stream otherwise.
  template <typename RecordFn>
  void ScoreBlock(RecordFn&& record, const int64_t* ids, int count,
                  float tau, index::EstimateResult* out);
  // Cascade continuation once the first stage's C2 accumulation (2<x,q>
  // over stage_dims_[0] dims) is in hand; `x` is the candidate's rotated
  // row and `c1` its ||x||^2 + ||q||^2. Shared by the sequential and block
  // paths. Requires non-empty stage_dims_.
  index::EstimateResult ContinueFromFirstStage(const float* x, float c1,
                                               float tau, float c2);
  // Bytes of a record's code part: the first-stage head of the rotated row.
  int64_t HeadBytes() const {
    return stage_dims_[0] * static_cast<int64_t>(sizeof(float));
  }

  const linalg::PcaModel* pca_;
  const linalg::Matrix* rotated_base_;
  DdcResOptions options_;
  float multiplier_ = 3.0f;

  std::vector<float> norms_sqr_;  // ||x||^2 per point (rotated basis)
  ResidualErrorModel error_model_;
  std::vector<int64_t> stage_dims_;  // init, init+delta, ... (< D)

  // Lazily built (content fingerprint is O(n)); computers are per-thread.
  mutable std::string code_tag_;
};

}  // namespace resinfer::core

#endif  // RESINFER_CORE_DDC_RES_H_
