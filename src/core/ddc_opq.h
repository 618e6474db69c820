// DDCopq (§V-B): OPQ asymmetric (ADC) distance as the approximation,
// corrected by a learned linear classifier — the demonstration that the
// data-driven correction is agnostic to the distance-estimation source.
//
// Features: the ADC distance, the threshold tau, and (third feature, per
// the paper) the distance from the point to its quantized centroid — a
// per-point reconstruction error that tells the classifier how much to
// trust the ADC estimate for that particular point.
#ifndef RESINFER_CORE_DDC_OPQ_H_
#define RESINFER_CORE_DDC_OPQ_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/linear_corrector.h"
#include "core/pq_scan.h"
#include "core/training_data.h"
#include "index/distance_computer.h"
#include "index/query_slots.h"
#include "linalg/matrix.h"
#include "quant/opq.h"

namespace resinfer::core {

struct DdcOpqOptions {
  quant::OpqOptions opq;
  LinearCorrectorOptions corrector;  // num_features forced to 3
  TrainingDataOptions training;
};

// Picks num_subspaces =~ dim/4 (the paper's storage setting, §VI-B) as the
// largest divisor of `dim` at most dim/4, floor 1.
int DefaultOpqSubspaces(int64_t dim);

// Trained per-dataset state shared by DdcOpqComputer instances.
struct DdcOpqArtifacts {
  quant::OpqModel opq;
  std::vector<uint8_t> codes;       // n * code_size
  std::vector<float> recon_errors;  // n, squared reconstruction error
  LinearCorrector corrector;
  double opq_train_seconds = 0.0;
  double corrector_train_seconds = 0.0;

  int64_t ExtraBytes() const {
    return static_cast<int64_t>(codes.size()) +
           static_cast<int64_t>(recon_errors.size()) * sizeof(float) +
           opq.rotation().size() * static_cast<int64_t>(sizeof(float));
  }
};

DdcOpqArtifacts TrainDdcOpq(const linalg::Matrix& base,
                            const linalg::Matrix& train_queries,
                            const DdcOpqOptions& options = DdcOpqOptions());

class DdcOpqComputer
    : public index::QuerySlots<index::DistanceComputer, PqQueryState> {
 public:
  // `base` is the ORIGINAL (un-rotated) data — exact fallbacks are computed
  // there; ADC estimates live in the OPQ-rotated space. Both must outlive
  // the computer.
  DdcOpqComputer(const linalg::Matrix* base, const DdcOpqArtifacts* artifacts);

  int64_t dim() const override { return base_->cols(); }
  int64_t size() const override { return base_->rows(); }
  std::string name() const override { return "ddc-opq"; }

  index::EstimateResult EstimateWithThreshold(int64_t id,
                                              float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     index::EstimateResult* out) override;
  // Code-resident form; record = [opq code | recon_error].
  std::string code_tag() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids,
                          int count, float tau,
                          index::EstimateResult* out) override;
  float ExactDistance(int64_t id) override;

  // Raw ADC distance for the current query (no correction).
  float ApproximateDistance(int64_t id) const;

 private:
  // OPQ rotation, then the ADC table (and fast-scan LUT for packed
  // codebooks).
  void BuildQueryState(const float* query, PqQueryState& state) override;
  // The block scorer behind EstimateBatch and EstimateBatchCodes:
  // `record(pos)` yields candidate pos's code and reconstruction error,
  // gathered by id or read off the bucket stream.
  template <typename RecordFn>
  void ScoreBlock(RecordFn&& record, const int64_t* ids, int count, float tau,
                  index::EstimateResult* out);

  const linalg::Matrix* base_;
  const DdcOpqArtifacts* artifacts_;

  std::vector<float> rotated_query_;  // OPQ-space scratch of BuildQueryState
  // Lazily built (content fingerprint is O(n)); computers are per-thread.
  mutable std::string code_tag_;
};

}  // namespace resinfer::core

#endif  // RESINFER_CORE_DDC_OPQ_H_
