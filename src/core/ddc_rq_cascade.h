// Incremental data-driven correction over Residual Quantization (§V-B).
//
// §V-B sketches incremental correction for learned correctors: "Each time
// the classifier fails to confirm that dis > tau … we incrementally sample
// additional dimensions to compute a refined approximate distance … and
// train a new classifier." For projections that means more dimensions
// (core/ddc_pca.h); RQ gives the natural quantization analogue — more
// *stages*. Each additional stage refines the reconstruction x̂_s, so the
// asymmetric distance sharpens level by level at one extra table lookup per
// stage.
//
// The cascade trains one classifier per level (stage count), splits the
// target recall geometrically across levels (a candidate must survive all
// of them), and falls back to the exact distance only when every level
// declines to prune. bench_ablation_rq_cascade compares this against the
// single-shot DdcAny(RQ) corrector.
#ifndef RESINFER_CORE_DDC_RQ_CASCADE_H_
#define RESINFER_CORE_DDC_RQ_CASCADE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/linear_corrector.h"
#include "core/training_data.h"
#include "index/distance_computer.h"
#include "index/query_slots.h"
#include "linalg/matrix.h"
#include "quant/rq.h"

namespace resinfer::core {

struct DdcRqCascadeOptions {
  quant::RqOptions rq;  // rq.num_stages is raised to the last level
  // Stage counts after which a classifier fires; strictly increasing.
  std::vector<int> levels = {2, 4, 8};
  // Split the overall target recall geometrically across levels so the
  // cascade's end-to-end survival rate matches the configured target.
  bool split_target_across_levels = true;
  LinearCorrectorOptions corrector;
  TrainingDataOptions training;
};

struct DdcRqCascadeArtifacts {
  quant::RqCodebook rq;
  std::vector<int> levels;
  std::vector<uint8_t> codes;  // n * num_stages
  // Per point, per level: ||x̂_{levels[l]}||^2 (ADC ingredient) and
  // ||x - x̂_{levels[l]}||^2 (the classifier's trust feature). Both are
  // n x L row-major.
  std::vector<float> level_norms;
  std::vector<float> level_errors;
  std::vector<LinearCorrector> correctors;  // one per level
  double train_seconds = 0.0;

  int64_t ExtraBytes() const {
    return static_cast<int64_t>(codes.size()) +
           static_cast<int64_t>(level_norms.size() + level_errors.size()) *
               sizeof(float);
  }
};

DdcRqCascadeArtifacts TrainDdcRqCascade(
    const linalg::Matrix& base, const linalg::Matrix& train_queries,
    const DdcRqCascadeOptions& options = DdcRqCascadeOptions());

// Per-query state of DdcRqCascadeComputer: the RQ inner-product table and
// ||q||^2.
struct DdcRqCascadeQueryState {
  std::vector<float> ip_table;
  float norm_sqr = 0.0f;
};

class DdcRqCascadeComputer
    : public index::QuerySlots<index::DistanceComputer,
                               DdcRqCascadeQueryState> {
 public:
  // `base` (original space, for exact fallbacks) and `artifacts` are
  // shared and must outlive the computer.
  DdcRqCascadeComputer(const linalg::Matrix* base,
                       const DdcRqCascadeArtifacts* artifacts);

  int64_t dim() const override { return base_->cols(); }
  int64_t size() const override { return base_->rows(); }
  std::string name() const override { return "ddc-rq-cascade"; }

  index::EstimateResult EstimateWithThreshold(int64_t id,
                                              float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     index::EstimateResult* out) override;
  // Code-resident form; record = [rq code | level_norms (L floats),
  // level_errors (L floats)] with L = levels.size(). The whole cascade —
  // per-level norms and trust features included — streams sequentially;
  // only the exact fallback gathers the candidate's base row.
  std::string code_tag() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids,
                          int count, float tau,
                          index::EstimateResult* out) override;
  float ExactDistance(int64_t id) override;

  // ADC distance truncated to `level` (diagnostics / tests).
  float ApproximateDistance(int64_t id, int level) const;

  // Total table lookups performed across all candidates (cascade depth
  // instrumentation; analogous to scanned dimensions for projections).
  int64_t stage_lookups() const { return stage_lookups_; }

 private:
  void BuildQueryState(const float* query,
                       DdcRqCascadeQueryState& state) override;
  // The block scorer behind EstimateBatch and EstimateBatchCodes:
  // `record(pos)` yields candidate pos's code and its per-level norms and
  // trust features, gathered by id or read off the bucket stream.
  template <typename RecordFn>
  void ScoreBlock(RecordFn&& record, const int64_t* ids, int count,
                  float tau, index::EstimateResult* out);

  const linalg::Matrix* base_;
  const DdcRqCascadeArtifacts* artifacts_;

  int64_t stage_lookups_ = 0;
  // Lazily built (content fingerprint is O(n)); computers are per-thread.
  mutable std::string code_tag_;
};

}  // namespace resinfer::core

#endif  // RESINFER_CORE_DDC_RQ_CASCADE_H_
