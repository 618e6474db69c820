#include "core/ddc_opq.h"

#include <algorithm>
#include <cmath>

#include "core/pq_scan.h"
#include "index/block_refine.h"
#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace resinfer::core {

int DefaultOpqSubspaces(int64_t dim) {
  int target = static_cast<int>(std::max<int64_t>(1, dim / 4));
  return quant::LargestDivisorAtMost(dim, target);
}

DdcOpqArtifacts TrainDdcOpq(const linalg::Matrix& base,
                            const linalg::Matrix& train_queries,
                            const DdcOpqOptions& options) {
  const int64_t n = base.rows();
  const int64_t d = base.cols();
  RESINFER_CHECK(d == train_queries.cols());

  DdcOpqArtifacts artifacts;
  WallTimer timer;

  quant::OpqOptions opq_options = options.opq;
  if (opq_options.pq.num_subspaces <= 0 ||
      d % opq_options.pq.num_subspaces != 0) {
    opq_options.pq.num_subspaces = DefaultOpqSubspaces(d);
  }
  artifacts.opq = quant::OpqModel::Train(base.data(), n, d, opq_options);

  // Encode the full base in the rotated space; keep per-point
  // reconstruction errors as the classifier's third feature.
  linalg::Matrix rotated = artifacts.opq.RotateBatch(base.data(), n);
  artifacts.codes = artifacts.opq.codebook().EncodeBatch(rotated.data(), n);
  artifacts.recon_errors.resize(n);
  const auto& codebook = artifacts.opq.codebook();
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<float> decoded(d);
    for (int64_t i = begin; i < end; ++i) {
      codebook.Decode(artifacts.codes.data() + i * codebook.code_size(),
                      decoded.data());
      artifacts.recon_errors[i] = simd::L2Sqr(
          decoded.data(), rotated.Row(i), static_cast<std::size_t>(d));
    }
  });
  artifacts.opq_train_seconds = timer.ElapsedSeconds();

  // Corrector training.
  timer.Reset();
  std::vector<LabeledPair> pairs =
      CollectLabeledPairs(base, train_queries, options.training);

  linalg::Matrix rotated_queries =
      artifacts.opq.RotateBatch(train_queries.data(), train_queries.rows());
  // Estimates through the query-time PqQueryState, so the corrector is
  // trained on the feature distribution it will see (quantized-LUT
  // estimates for packed codebooks).
  PqQueryState state;
  int64_t state_query = -1;
  std::vector<CorrectorSample> samples = MaterializeSamples(
      pairs, [&](int64_t query_index, int64_t id, float* extra) {
        if (query_index != state_query) {
          state.Build(codebook, rotated_queries.Row(query_index));
          state_query = query_index;
        }
        *extra = artifacts.recon_errors[id];
        return state.Estimate(
            codebook, artifacts.codes.data() + id * codebook.code_size());
      });

  LinearCorrectorOptions corrector_options = options.corrector;
  corrector_options.num_features = 3;
  artifacts.corrector = LinearCorrector::Train(samples, corrector_options);
  artifacts.corrector_train_seconds = timer.ElapsedSeconds();
  return artifacts;
}

DdcOpqComputer::DdcOpqComputer(const linalg::Matrix* base,
                               const DdcOpqArtifacts* artifacts)
    : base_(base), artifacts_(artifacts) {
  RESINFER_CHECK(base != nullptr && artifacts != nullptr);
  RESINFER_CHECK(artifacts->opq.trained());
  RESINFER_CHECK(artifacts->opq.dim() == base->cols());
  rotated_query_.resize(base->cols());
}

void DdcOpqComputer::BuildQueryState(const float* query,
                                     PqQueryState& state) {
  artifacts_->opq.Rotate(query, rotated_query_.data());
  state.Build(artifacts_->opq.codebook(), rotated_query_.data());
}

index::EstimateResult DdcOpqComputer::EstimateWithThreshold(int64_t id,
                                                            float tau) {
  ++stats_.candidates;
  const float adc = ApproximateDistance(id);
  if (std::isfinite(tau) &&
      artifacts_->corrector.PredictPrunable(adc, tau,
                                            artifacts_->recon_errors[id])) {
    ++stats_.pruned;
    return {true, adc};
  }
  ++stats_.exact_computations;
  stats_.dims_scanned += dim();
  return {false, ExactDistance(id)};
}

template <typename RecordFn>
void DdcOpqComputer::ScoreBlock(RecordFn&& record, const int64_t* ids,
                                int count, float tau,
                                index::EstimateResult* out) {
  // Exact refinement of survivors reads full-precision rows by id on
  // either record source, as the sequential path does.
  const auto& codebook = artifacts_->opq.codebook();
  const PqQueryState& state = query_state();
  index::EstimatePruneRefine(
      query(), static_cast<std::size_t>(dim()),
      [this](int64_t id) { return base_->Row(id); },
      [&codebook, &state, &record](int start, int n, float* approx,
                                   float* extras) {
        const uint8_t* codes[index::kRefineChunk];
        for (int j = 0; j < n; ++j) {
          const CodeRecord rec = record(start + j);
          codes[j] = rec.code;
          extras[j] = rec.recon_error;
        }
        ScorePqChunk(codebook, state, codes, n, approx);
      },
      [this, tau](float approx, float extra) {
        return artifacts_->corrector.PredictPrunable(approx, tau, extra);
      },
      std::isfinite(tau), ids, count, stats_, out);
}

void DdcOpqComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                   index::EstimateResult* out) {
  ScoreBlock(GatherRecords(artifacts_->codes.data(),
                           artifacts_->opq.codebook().code_size(),
                           artifacts_->recon_errors.data(), ids),
             ids, count, tau, out);
}

std::string DdcOpqComputer::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(artifacts_->codes.data(),
                                         artifacts_->codes.size());
    f = quant::FingerprintArray(
        artifacts_->recon_errors.data(),
        artifacts_->recon_errors.size() * sizeof(float), f);
    code_tag_ = quant::MakeCodeTag(
        "ddc-opq", artifacts_->opq.codebook().code_size(), 1, size(), f,
        artifacts_->opq.codebook().layout().packing);
  }
  return code_tag_;
}

quant::CodeStore DdcOpqComputer::MakeCodeStore() const {
  const int64_t code_size = artifacts_->opq.codebook().code_size();
  quant::CodeStore store(size(), code_size, 1, code_tag(),
                         artifacts_->opq.codebook().layout().packing);
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, artifacts_->codes.data() + i * code_size);
    store.SetSidecar(i, 0, artifacts_->recon_errors[i]);
  }
  return store;
}

void DdcOpqComputer::EstimateBatchCodes(const uint8_t* codes,
                                        const int64_t* ids, int count,
                                        float tau,
                                        index::EstimateResult* out) {
  const int64_t code_size = artifacts_->opq.codebook().code_size();
  ScoreBlock(StreamRecords(codes, quant::CodeRecordStride(code_size, 1),
                           code_size),
             ids, count, tau, out);
}

float DdcOpqComputer::ExactDistance(int64_t id) {
  RESINFER_DCHECK(query() != nullptr);
  return simd::L2Sqr(base_->Row(id), query(),
                     static_cast<std::size_t>(base_->cols()));
}

float DdcOpqComputer::ApproximateDistance(int64_t id) const {
  const auto& codebook = artifacts_->opq.codebook();
  return query_state().Estimate(
      codebook, artifacts_->codes.data() + id * codebook.code_size());
}

}  // namespace resinfer::core
