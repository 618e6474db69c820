// DDCpca (§V-B): plain PCA low-dimensional distance as the approximation,
// corrected by learned linear classifiers.
//
// Unlike DDCres there is no distance decomposition — the approximate
// distance at stage dimension d is simply ||x_d - q_d||^2 (a lower bound of
// the exact distance that grows toward it as d increases). One classifier
// is trained per incremental stage (§V-B "Incremental Correction"); at
// query time a candidate is pruned at the first stage whose classifier
// predicts dis > tau, otherwise the scan continues to the next stage and
// finally to the exact distance.
#ifndef RESINFER_CORE_DDC_PCA_H_
#define RESINFER_CORE_DDC_PCA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/linear_corrector.h"
#include "core/training_data.h"
#include "index/distance_computer.h"
#include "index/query_slots.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"

namespace resinfer::core {

struct DdcPcaOptions {
  int64_t init_dim = 32;
  int64_t delta_dim = 64;
  // Split the overall target recall geometrically across stages so the
  // survival probability of a true neighbor over the whole cascade matches
  // the configured target.
  bool split_target_across_stages = true;
  LinearCorrectorOptions corrector;
  TrainingDataOptions training;
};

// Trained state shared by all DdcPcaComputer instances for one dataset.
struct DdcPcaArtifacts {
  std::vector<int64_t> stage_dims;          // ascending, all < D
  std::vector<LinearCorrector> correctors;  // one per stage
  double train_seconds = 0.0;
};

// `pca`/`rotated_base` are the same artifacts DDCres uses; `base` /
// `train_queries` are in the original space.
DdcPcaArtifacts TrainDdcPca(const linalg::PcaModel& pca,
                            const linalg::Matrix& rotated_base,
                            const linalg::Matrix& base,
                            const linalg::Matrix& train_queries,
                            const DdcPcaOptions& options = DdcPcaOptions());

// Per-query state of DdcPcaComputer: the PCA-rotated query.
struct DdcPcaQueryState {
  std::vector<float> rotated;
};

class DdcPcaComputer
    : public index::QuerySlots<index::DistanceComputer, DdcPcaQueryState> {
 public:
  // All pointers are shared artifacts and must outlive the computer.
  DdcPcaComputer(const linalg::PcaModel* pca,
                 const linalg::Matrix* rotated_base,
                 const DdcPcaArtifacts* artifacts);

  int64_t dim() const override { return pca_->dim(); }
  int64_t size() const override { return rotated_base_->rows(); }
  std::string name() const override { return "ddc-pca"; }

  index::EstimateResult EstimateWithThreshold(int64_t id,
                                              float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     index::EstimateResult* out) override;
  // Code-resident form; record = the first-stage head of the PCA-rotated
  // row (stage_dims[0] floats). The first stage, which settles most
  // candidates, streams from the records; survivors continue on their
  // full row in rotated_base_, read by id.
  std::string code_tag() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids,
                          int count, float tau,
                          index::EstimateResult* out) override;
  float ExactDistance(int64_t id) override;

  // Plain projected distance ||x_d - q_d||^2 (Table III accuracy bench).
  float ApproximateDistance(int64_t id, int64_t d) const;

  int64_t ExtraBytes() const;

 private:
  void BuildQueryState(const float* query,
                       DdcPcaQueryState& state) override;
  // The block scorer behind EstimateBatch and EstimateBatchCodes (see
  // index::ScanHeadsThenRows): `head(pos)` is candidate pos's first-stage
  // head — its full rotated row when gathering by id, its record in the
  // bucket stream otherwise.
  template <typename HeadFn>
  void ScoreBlock(HeadFn&& head, const int64_t* ids, int count, float tau,
                  index::EstimateResult* out);
  // Runs the incremental stage cascade for one candidate given its rotated
  // row `x` and first-stage partial distance (over stage_dims[0] dims,
  // already counted in stats_.dims_scanned). Shared by the sequential and
  // block paths so their decisions and rounding are identical by
  // construction.
  index::EstimateResult ContinueFromFirstStage(const float* x, float tau,
                                               float partial);
  // Bytes of a code record: the first-stage head of the rotated row.
  int64_t HeadBytes() const {
    return artifacts_->stage_dims[0] * static_cast<int64_t>(sizeof(float));
  }

  const linalg::PcaModel* pca_;
  const linalg::Matrix* rotated_base_;
  const DdcPcaArtifacts* artifacts_;

  // Lazily built (content fingerprint is O(n)); computers are per-thread.
  mutable std::string code_tag_;
};

}  // namespace resinfer::core

#endif  // RESINFER_CORE_DDC_PCA_H_
