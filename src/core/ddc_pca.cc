#include "core/ddc_pca.h"

#include <algorithm>
#include <cmath>

#include "index/block_refine.h"
#include "simd/kernels.h"
#include "util/macros.h"
#include "util/timer.h"

namespace resinfer::core {

DdcPcaArtifacts TrainDdcPca(const linalg::PcaModel& pca,
                            const linalg::Matrix& rotated_base,
                            const linalg::Matrix& base,
                            const linalg::Matrix& train_queries,
                            const DdcPcaOptions& options) {
  RESINFER_CHECK(pca.fitted());
  RESINFER_CHECK(rotated_base.rows() == base.rows());
  WallTimer timer;

  DdcPcaArtifacts artifacts;
  const int64_t full_dim = pca.dim();
  for (int64_t d = options.init_dim; d < full_dim;
       d += options.delta_dim) {
    artifacts.stage_dims.push_back(d);
  }
  RESINFER_CHECK_MSG(!artifacts.stage_dims.empty(),
                     "init_dim must be smaller than the data dimension");

  // Shared labeled pairs (exact KNN of every training query — the
  // expensive step, done once for all stages).
  std::vector<LabeledPair> pairs =
      CollectLabeledPairs(base, train_queries, options.training);

  // Rotate the training queries once.
  linalg::Matrix rotated_queries =
      pca.TransformBatch(train_queries.data(), train_queries.rows());

  const int num_stages = static_cast<int>(artifacts.stage_dims.size());
  double per_stage_recall = options.corrector.target_recall;
  if (options.split_target_across_stages && num_stages > 1) {
    per_stage_recall = std::pow(options.corrector.target_recall,
                                1.0 / static_cast<double>(num_stages));
  }

  for (int stage = 0; stage < num_stages; ++stage) {
    const int64_t d = artifacts.stage_dims[stage];
    std::vector<CorrectorSample> samples = MaterializeSamples(
        pairs, [&](int64_t query_index, int64_t id, float* /*extra*/) {
          return simd::L2Sqr(rotated_base.Row(id),
                             rotated_queries.Row(query_index),
                             static_cast<std::size_t>(d));
        });
    LinearCorrectorOptions corrector_options = options.corrector;
    corrector_options.num_features = 2;
    corrector_options.target_recall = per_stage_recall;
    corrector_options.seed = options.corrector.seed +
                             static_cast<uint64_t>(stage) * 101;
    artifacts.correctors.push_back(
        LinearCorrector::Train(samples, corrector_options));
  }
  artifacts.train_seconds = timer.ElapsedSeconds();
  return artifacts;
}

DdcPcaComputer::DdcPcaComputer(const linalg::PcaModel* pca,
                               const linalg::Matrix* rotated_base,
                               const DdcPcaArtifacts* artifacts)
    : pca_(pca), rotated_base_(rotated_base), artifacts_(artifacts) {
  RESINFER_CHECK(pca != nullptr && rotated_base != nullptr &&
                 artifacts != nullptr);
  RESINFER_CHECK(pca->fitted());
  RESINFER_CHECK(artifacts->stage_dims.size() ==
                 artifacts->correctors.size());
  RESINFER_CHECK(!artifacts->stage_dims.empty());
  RESINFER_CHECK(artifacts->stage_dims.back() < pca->dim());
}

void DdcPcaComputer::BuildQueryState(const float* query,
                                     DdcPcaQueryState& state) {
  state.rotated.resize(static_cast<std::size_t>(pca_->dim()));
  pca_->Transform(query, state.rotated.data());
}

index::EstimateResult DdcPcaComputer::EstimateWithThreshold(int64_t id,
                                                            float tau) {
  ++stats_.candidates;
  const int64_t d0 = artifacts_->stage_dims[0];
  const float* x = rotated_base_->Row(id);
  const float partial = simd::L2Sqr(x, query_state().rotated.data(),
                                    static_cast<std::size_t>(d0));
  stats_.dims_scanned += d0;
  return ContinueFromFirstStage(x, tau, partial);
}

index::EstimateResult DdcPcaComputer::ContinueFromFirstStage(const float* x,
                                                             float tau,
                                                             float partial) {
  const int64_t full_dim = pca_->dim();
  const float* q = query_state().rotated.data();
  const bool tau_finite = std::isfinite(tau);

  int64_t d = artifacts_->stage_dims[0];
  for (std::size_t stage = 0;;) {
    if (tau_finite &&
        artifacts_->correctors[stage].PredictPrunable(partial, tau)) {
      ++stats_.pruned;
      return {true, partial};
    }
    if (++stage == artifacts_->stage_dims.size()) break;
    const int64_t next = artifacts_->stage_dims[stage];
    partial += simd::L2Sqr(x + d, q + d, static_cast<std::size_t>(next - d));
    stats_.dims_scanned += next - d;
    d = next;
  }
  partial += simd::L2Sqr(x + d, q + d, static_cast<std::size_t>(full_dim - d));
  stats_.dims_scanned += full_dim - d;
  ++stats_.exact_computations;
  return {false, partial};
}

template <typename HeadFn>
void DdcPcaComputer::ScoreBlock(HeadFn&& head, const int64_t* ids, int count,
                                float tau, index::EstimateResult* out) {
  const int64_t d0 = artifacts_->stage_dims[0];
  const float* q = query_state().rotated.data();
  index::ScanHeadsThenRows(
      head,
      [q, d0](const float* const* heads, float* partial) {
        simd::L2SqrBatch4(q, heads, static_cast<std::size_t>(d0), partial);
      },
      [this, tau, d0, out](int pos, float partial) {
        // The first step of ContinueFromFirstStage, which survivors re-run
        // (and pass) on their full row below.
        ++stats_.candidates;
        stats_.dims_scanned += d0;
        if (!std::isfinite(tau) ||
            !artifacts_->correctors[0].PredictPrunable(partial, tau)) {
          return false;
        }
        ++stats_.pruned;
        out[pos] = {true, partial};
        return true;
      },
      [this, ids](int pos) { return rotated_base_->Row(ids[pos]); },
      [this, tau, out](int pos, const float* x, float partial) {
        out[pos] = ContinueFromFirstStage(x, tau, partial);
      },
      static_cast<std::size_t>(d0), static_cast<std::size_t>(pca_->dim()),
      count);
}

void DdcPcaComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                   index::EstimateResult* out) {
  ScoreBlock([this, ids](int pos) { return rotated_base_->Row(ids[pos]); },
             ids, count, tau, out);
}

std::string DdcPcaComputer::code_tag() const {
  if (code_tag_.empty()) {
    const uint64_t f = quant::FingerprintArray(
        rotated_base_->data(),
        static_cast<std::size_t>(rotated_base_->size()) * sizeof(float));
    code_tag_ = quant::MakeCodeTag("ddc-pca", HeadBytes(), 0, size(), f);
  }
  return code_tag_;
}

quant::CodeStore DdcPcaComputer::MakeCodeStore() const {
  quant::CodeStore store(size(), HeadBytes(), 0, code_tag());
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i,
                  reinterpret_cast<const uint8_t*>(rotated_base_->Row(i)));
  }
  return store;
}

void DdcPcaComputer::EstimateBatchCodes(const uint8_t* codes,
                                        const int64_t* ids, int count,
                                        float tau,
                                        index::EstimateResult* out) {
  const int64_t stride = quant::CodeRecordStride(HeadBytes(), 0);
  ScoreBlock(
      [codes, stride](int pos) {
        return reinterpret_cast<const float*>(codes + pos * stride);
      },
      ids, count, tau, out);
}

float DdcPcaComputer::ExactDistance(int64_t id) {
  return simd::L2Sqr(rotated_base_->Row(id), query_state().rotated.data(),
                     static_cast<std::size_t>(pca_->dim()));
}

float DdcPcaComputer::ApproximateDistance(int64_t id, int64_t d) const {
  d = std::clamp<int64_t>(d, 0, pca_->dim());
  return simd::L2Sqr(rotated_base_->Row(id), query_state().rotated.data(),
                     static_cast<std::size_t>(d));
}

int64_t DdcPcaComputer::ExtraBytes() const {
  // Rotation matrix + a handful of classifier weights.
  return pca_->rotation().size() * static_cast<int64_t>(sizeof(float)) +
         static_cast<int64_t>(artifacts_->correctors.size()) * 4 *
             static_cast<int64_t>(sizeof(float));
}

}  // namespace resinfer::core
