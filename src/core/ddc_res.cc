#include "core/ddc_res.h"

#include <algorithm>
#include <cmath>

#include "index/block_refine.h"
#include "simd/kernels.h"
#include "util/macros.h"

namespace resinfer::core {

DdcResComputer::DdcResComputer(const linalg::PcaModel* pca,
                               const linalg::Matrix* rotated_base,
                               const DdcResOptions& options)
    : pca_(pca), rotated_base_(rotated_base), options_(options) {
  RESINFER_CHECK(pca != nullptr && rotated_base != nullptr);
  RESINFER_CHECK(pca->fitted());
  RESINFER_CHECK(rotated_base->cols() == pca->dim());
  RESINFER_CHECK(options_.init_dim >= 1 && options_.delta_dim >= 1);

  multiplier_ = options_.multiplier > 0.0
                    ? static_cast<float>(options_.multiplier)
                    : static_cast<float>(
                          GaussianQuantileMultiplier(options_.quantile));

  const int64_t n = rotated_base_->rows();
  const std::size_t d = static_cast<std::size_t>(pca_->dim());
  norms_sqr_.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    norms_sqr_[i] = simd::Norm2Sqr(rotated_base_->Row(i), d);
  }
  error_model_ = ResidualErrorModel(pca_->variances());
  for (int64_t d = options_.init_dim; d < pca_->dim();
       d += options_.delta_dim) {
    stage_dims_.push_back(d);
    if (!options_.incremental) break;  // Algorithm 1: single test
  }
}

void DdcResComputer::BuildQueryState(const float* query,
                                     DdcResQueryState& state) {
  state.rotated.resize(static_cast<std::size_t>(pca_->dim()));
  state.bounds.resize(stage_dims_.size());
  pca_->Transform(query, state.rotated.data());
  state.norm_sqr = simd::Norm2Sqr(state.rotated.data(),
                                  static_cast<std::size_t>(pca_->dim()));
  error_model_.BeginQuery(state.rotated.data());
  for (std::size_t s = 0; s < stage_dims_.size(); ++s) {
    state.bounds[s] = multiplier_ * error_model_.Sigma(stage_dims_[s]);
  }
}

index::EstimateResult DdcResComputer::EstimateWithThreshold(int64_t id,
                                                            float tau) {
  ++stats_.candidates;
  const DdcResQueryState& state = query_state();
  if (stage_dims_.empty()) {
    // init_dim >= D leaves no test stage: straight to exact.
    const float c1 = norms_sqr_[id] + state.norm_sqr;
    const float c2 = 2.0f * simd::InnerProduct(
                                rotated_base_->Row(id), state.rotated.data(),
                                static_cast<std::size_t>(pca_->dim()));
    stats_.dims_scanned += pca_->dim();
    ++stats_.exact_computations;
    return {false, std::max(0.0f, c1 - c2)};
  }
  const int64_t d0 = stage_dims_[0];
  const float* x = rotated_base_->Row(id);
  const float c2 = 2.0f * simd::InnerProduct(x, state.rotated.data(),
                                             static_cast<std::size_t>(d0));
  stats_.dims_scanned += d0;
  return ContinueFromFirstStage(x, norms_sqr_[id] + state.norm_sqr, tau, c2);
}

index::EstimateResult DdcResComputer::ContinueFromFirstStage(const float* x,
                                                             float c1,
                                                             float tau,
                                                             float c2) {
  const int64_t full_dim = pca_->dim();
  const DdcResQueryState& state = query_state();
  const float* q = state.rotated.data();

  int64_t d = stage_dims_[0];
  for (std::size_t stage = 0;;) {
    if (c1 - c2 - state.bounds[stage] > tau) {
      ++stats_.pruned;
      return {true, std::max(0.0f, c1 - c2)};
    }
    if (++stage == stage_dims_.size()) break;
    const int64_t next = stage_dims_[stage];
    c2 += 2.0f * simd::InnerProduct(x + d, q + d,
                                    static_cast<std::size_t>(next - d));
    stats_.dims_scanned += next - d;
    d = next;
  }
  // Remaining dimensions: the accumulated inner product becomes exact
  // (C2 + C3 folded together).
  c2 += 2.0f * simd::InnerProduct(x + d, q + d,
                                  static_cast<std::size_t>(full_dim - d));
  stats_.dims_scanned += full_dim - d;
  ++stats_.exact_computations;
  return {false, std::max(0.0f, c1 - c2)};
}

namespace {

// A candidate's first-stage inputs: the head of its rotated row and its
// ||x||^2.
struct ResRecord {
  const float* head;
  float norm_sqr;
};

}  // namespace

template <typename RecordFn>
void DdcResComputer::ScoreBlock(RecordFn&& record, const int64_t* ids,
                                int count, float tau,
                                index::EstimateResult* out) {
  if (stage_dims_.empty()) {
    // No test stage: every candidate is a straight exact pass.
    for (int i = 0; i < count; ++i) out[i] = EstimateWithThreshold(ids[i], tau);
    return;
  }
  const int64_t d0 = stage_dims_[0];
  const DdcResQueryState& state = query_state();
  const float* q = state.rotated.data();
  const auto c1 = [&record, &state](int pos) {
    return record(pos).norm_sqr + state.norm_sqr;
  };
  index::ScanHeadsThenRows(
      [&record](int pos) { return record(pos).head; },
      [q, d0](const float* const* heads, float* ip) {
        simd::InnerProductBatch4(q, heads, static_cast<std::size_t>(d0), ip);
      },
      [this, &c1, &state, tau, d0, out](int pos, float ip) {
        // The first step of ContinueFromFirstStage, which survivors re-run
        // (and pass) on their full row below.
        ++stats_.candidates;
        stats_.dims_scanned += d0;
        const float approx = c1(pos) - 2.0f * ip;
        if (!(approx - state.bounds[0] > tau)) return false;
        ++stats_.pruned;
        out[pos] = {true, std::max(0.0f, approx)};
        return true;
      },
      [this, ids](int pos) { return rotated_base_->Row(ids[pos]); },
      [this, &c1, tau, out](int pos, const float* x, float ip) {
        out[pos] = ContinueFromFirstStage(x, c1(pos), tau, 2.0f * ip);
      },
      static_cast<std::size_t>(d0), static_cast<std::size_t>(pca_->dim()),
      count);
}

void DdcResComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                   index::EstimateResult* out) {
  // The ids are scattered (graph neighbors): request every first-stage head
  // up front so the gathers overlap instead of missing one by one.
  if (!stage_dims_.empty()) {
    constexpr int64_t kLineFloats = 64 / sizeof(float);
    const int64_t d0 = stage_dims_[0];
    for (int i = 0; i < count; ++i) {
      const float* head = rotated_base_->Row(ids[i]);
      for (int64_t f = 0; f < d0; f += kLineFloats) {
        RESINFER_PREFETCH(head + f);
      }
    }
  }
  ScoreBlock(
      [this, ids](int pos) {
        return ResRecord{rotated_base_->Row(ids[pos]), norms_sqr_[ids[pos]]};
      },
      ids, count, tau, out);
}

std::string DdcResComputer::code_tag() const {
  // Both variants (incremental / basic) read the layout identically, so
  // the tag is variant-independent and one attached store serves either.
  if (stage_dims_.empty()) return {};
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(
        rotated_base_->data(),
        static_cast<std::size_t>(rotated_base_->size()) * sizeof(float));
    f = quant::FingerprintArray(norms_sqr_.data(),
                                norms_sqr_.size() * sizeof(float), f);
    code_tag_ = quant::MakeCodeTag("ddc-res", HeadBytes(), 1, size(), f);
  }
  return code_tag_;
}

quant::CodeStore DdcResComputer::MakeCodeStore() const {
  if (stage_dims_.empty()) return {};
  quant::CodeStore store(size(), HeadBytes(), 1, code_tag());
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i,
                  reinterpret_cast<const uint8_t*>(rotated_base_->Row(i)));
    store.SetSidecar(i, 0, norms_sqr_[i]);
  }
  return store;
}

void DdcResComputer::EstimateBatchCodes(const uint8_t* codes,
                                        const int64_t* ids, int count,
                                        float tau,
                                        index::EstimateResult* out) {
  // Without a test stage there is no code form; ScoreBlock gathers then.
  const int64_t code_size = stage_dims_.empty() ? 0 : HeadBytes();
  const int64_t stride = quant::CodeRecordStride(code_size, 1);
  ScoreBlock(
      [codes, stride, code_size](int pos) {
        const uint8_t* rec = codes + pos * stride;
        return ResRecord{reinterpret_cast<const float*>(rec),
                         quant::RecordSidecars(rec, code_size)[0]};
      },
      ids, count, tau, out);
}

float DdcResComputer::ExactDistance(int64_t id) {
  return simd::L2Sqr(rotated_base_->Row(id), query_state().rotated.data(),
                     static_cast<std::size_t>(pca_->dim()));
}

float DdcResComputer::ApproximateDistance(int64_t id, int64_t d) const {
  d = std::clamp<int64_t>(d, 0, pca_->dim());
  const DdcResQueryState& state = query_state();
  const float c1 = norms_sqr_[id] + state.norm_sqr;
  const float c2 =
      2.0f * simd::InnerProduct(rotated_base_->Row(id), state.rotated.data(),
                                static_cast<std::size_t>(d));
  return std::max(0.0f, c1 - c2);
}

int64_t DdcResComputer::ExtraBytes() const {
  // Norms (n floats) + rotation matrix (D^2 floats) + eigenvalue vector.
  return static_cast<int64_t>(norms_sqr_.size()) * sizeof(float) +
         pca_->rotation().size() * static_cast<int64_t>(sizeof(float)) +
         static_cast<int64_t>(pca_->variances().size()) * sizeof(float);
}

}  // namespace resinfer::core
