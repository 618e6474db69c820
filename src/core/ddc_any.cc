#include "core/ddc_any.h"

#include <algorithm>
#include <cmath>

#include "core/pq_scan.h"
#include "index/block_refine.h"
#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"

namespace resinfer::core {

// --- Artifact builders -----------------------------------------------------

int64_t PqEstimatorData::ExtraBytes() const {
  return static_cast<int64_t>(codes.size()) +
         static_cast<int64_t>(recon_errors.size()) * sizeof(float);
}

PqEstimatorData BuildPqEstimatorData(const linalg::Matrix& base,
                                     const quant::PqOptions& options) {
  const int64_t n = base.rows();
  const int64_t d = base.cols();
  quant::PqOptions pq_options = options;
  if (pq_options.num_subspaces <= 0 || d % pq_options.num_subspaces != 0) {
    pq_options.num_subspaces = quant::LargestDivisorAtMost(
        d, static_cast<int>(std::max<int64_t>(1, d / 4)));
  }

  PqEstimatorData data;
  data.pq = quant::PqCodebook::Train(base.data(), n, d, pq_options);
  data.codes = data.pq.EncodeBatch(base.data(), n);
  data.recon_errors.resize(static_cast<std::size_t>(n));
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<float> decoded(d);
    for (int64_t i = begin; i < end; ++i) {
      data.pq.Decode(data.codes.data() + i * data.pq.code_size(),
                     decoded.data());
      data.recon_errors[static_cast<std::size_t>(i)] = simd::L2Sqr(
          decoded.data(), base.Row(i), static_cast<std::size_t>(d));
    }
  });
  return data;
}

int64_t RqEstimatorData::ExtraBytes() const {
  return static_cast<int64_t>(codes.size()) +
         static_cast<int64_t>(recon_norms.size() + recon_errors.size()) *
             sizeof(float);
}

RqEstimatorData BuildRqEstimatorData(const linalg::Matrix& base,
                                     const quant::RqOptions& options) {
  const int64_t n = base.rows();
  const int64_t d = base.cols();

  RqEstimatorData data;
  data.rq = quant::RqCodebook::Train(base.data(), n, d, options);
  data.codes = data.rq.EncodeBatch(base.data(), n, &data.recon_norms);
  data.recon_errors.resize(static_cast<std::size_t>(n));
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<float> decoded(d);
    for (int64_t i = begin; i < end; ++i) {
      data.rq.Decode(data.codes.data() + i * data.rq.code_size(),
                     decoded.data());
      data.recon_errors[static_cast<std::size_t>(i)] = simd::L2Sqr(
          decoded.data(), base.Row(i), static_cast<std::size_t>(d));
    }
  });
  return data;
}

int64_t SqEstimatorData::ExtraBytes() const {
  return static_cast<int64_t>(codes.size()) +
         static_cast<int64_t>(recon_errors.size()) * sizeof(float) +
         static_cast<int64_t>(sq.dim()) * 2 * sizeof(float);
}

SqEstimatorData BuildSqEstimatorData(const linalg::Matrix& base,
                                     const quant::SqOptions& options) {
  const int64_t n = base.rows();
  const int64_t d = base.cols();

  SqEstimatorData data;
  data.sq = quant::SqCodebook::Train(base.data(), n, d, options);
  data.codes = data.sq.EncodeBatch(base.data(), n);
  data.recon_errors.resize(static_cast<std::size_t>(n));
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      data.recon_errors[static_cast<std::size_t>(i)] =
          data.sq.AdcDistance(base.Row(i), data.codes.data() + i * d);
    }
  });
  return data;
}

// --- Estimators ------------------------------------------------------------

void ApproxDistanceEstimator::EstimateBatchCodes(const uint8_t* /*records*/,
                                                 int /*count*/, float* /*out*/,
                                                 float* /*extras*/) {
  RESINFER_CHECK_MSG(false,
                     "estimator has no code-resident form (empty code_tag)");
}

void ApproxDistanceEstimator::SetQueryBatch(const float* queries, int count,
                                            int64_t stride) {
  batch_.Set(queries, count, stride, dim());
}

void ApproxDistanceEstimator::SelectQuery(int g) {
  BeginQuery(batch_.query(g));
}

void ApproxDistanceEstimator::EstimateBatchCodesGroup(
    const uint8_t* records, int count, const int* members, int num_members,
    float* out, float* extras) {
  for (int j = 0; j < num_members; ++j) {
    SelectQuery(members[j]);
    EstimateBatchCodes(records, count, out + static_cast<int64_t>(j) * count,
                       extras + static_cast<int64_t>(j) * count);
  }
}

namespace {

// Candidates per chunk of the quantizer estimators' batch kernels.
constexpr int kChunk = 16;

// The RQ form of CodeRecord: code, ||x̂||^2 and reconstruction error.
struct RqRecord {
  const uint8_t* code;
  float recon_norm;
  float recon_error;
};

// RqRecords off a bucket stream (see StreamRecords).
auto RqStreamRecords(const uint8_t* records, int64_t stride,
                     int64_t code_size) {
  return [=](int pos) {
    const uint8_t* rec = records + pos * stride;
    const float* sidecars = quant::RecordSidecars(rec, code_size);
    return RqRecord{rec, sidecars[0], sidecars[1]};
  };
}

}  // namespace

PqAdcEstimator::PqAdcEstimator(const PqEstimatorData* data) : data_(data) {
  RESINFER_CHECK(data != nullptr && data->pq.trained());
}

int64_t PqAdcEstimator::size() const {
  return static_cast<int64_t>(data_->recon_errors.size());
}

void PqAdcEstimator::BuildQueryState(const float* query,
                                     PqQueryState& state) {
  state.Build(data_->pq, query);
}

float PqAdcEstimator::Estimate(int64_t id, float* extra) {
  *extra = data_->recon_errors[static_cast<std::size_t>(id)];
  return query_state().Estimate(
      data_->pq, data_->codes.data() + id * data_->pq.code_size());
}

template <typename RecordFn>
void PqAdcEstimator::ScoreBlock(RecordFn&& record, int count,
                                const int* members, int num_members,
                                float* out, float* extras) {
  // Per member the group form is exactly the solo one (same 16-code
  // chunks, same kernel lane order); the tile kernels evaluate each chunk
  // for every member's table while the codes are hot. The packed tier
  // tiles the quantized LUTs instead, sharing each chunk's nibble
  // transpose across the group before the per-member dequantization.
  RESINFER_DCHECK(num_members > 0 && num_members <= index::kMaxQueryGroup);
  const bool packed = data_->pq.layout().packed();
  const float* tables[index::kMaxQueryGroup];
  const uint8_t* luts[index::kMaxQueryGroup];
  for (int g = 0; members != nullptr && g < num_members; ++g) {
    tables[g] = member_state(members[g]).table.data();
    luts[g] = member_state(members[g]).lut.data();
  }
  const uint8_t* codes[kChunk];
  float tile[index::kMaxQueryGroup * kChunk];
  uint16_t sums[index::kMaxQueryGroup * kChunk];
  for (int i = 0; i < count; i += kChunk) {
    const int block = std::min(kChunk, count - i);
    for (int j = 0; j < block; ++j) {
      const CodeRecord rec = record(i + j);
      codes[j] = rec.code;
      for (int g = 0; g < num_members; ++g) {
        extras[static_cast<int64_t>(g) * count + i + j] = rec.recon_error;
      }
    }
    if (members == nullptr) {
      ScorePqChunk(data_->pq, query_state(), codes, block, out + i);
      continue;
    }
    if (packed) {
      simd::PqAdcFastScanTile(luts, num_members, data_->pq.num_subspaces(),
                              codes, block, sums);
    } else {
      simd::PqAdcTile(tables, num_members, data_->pq.num_subspaces(),
                      data_->pq.num_centroids(), codes, block, tile);
    }
    for (int g = 0; g < num_members; ++g) {
      const PqQueryState& state = member_state(members[g]);
      float* row = out + static_cast<int64_t>(g) * count + i;
      for (int j = 0; j < block; ++j) {
        row[j] = packed ? quant::PqCodebook::DequantizeFastScanSum(
                              sums[g * block + j], state.scale, state.bias)
                        : tile[g * block + j];
      }
    }
  }
}

void PqAdcEstimator::EstimateBatch(const int64_t* ids, int count, float* out,
                                   float* extras) {
  ScoreBlock(GatherRecords(data_->codes.data(), data_->pq.code_size(),
                           data_->recon_errors.data(), ids),
             count, /*members=*/nullptr, 1, out, extras);
}

int64_t PqAdcEstimator::query_state_bytes() const {
  // Packed scans read only the quantized LUT (512B at m = 32) — small
  // enough that block-level member tiling always pays.
  if (data_->pq.layout().packed()) return data_->pq.fast_scan_lut_bytes();
  return data_->pq.adc_table_size() * static_cast<int64_t>(sizeof(float));
}

std::string PqAdcEstimator::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(data_->codes.data(),
                                         data_->codes.size());
    f = quant::FingerprintArray(data_->recon_errors.data(),
                                data_->recon_errors.size() * sizeof(float),
                                f);
    code_tag_ = quant::MakeCodeTag("pq-adc", data_->pq.code_size(), 1,
                                   size(), f, data_->pq.layout().packing);
  }
  return code_tag_;
}

int64_t PqAdcEstimator::code_record_stride() const {
  return quant::CodeRecordStride(data_->pq.code_size(), 1);
}

quant::CodeStore PqAdcEstimator::MakeCodeStore() const {
  const int64_t code_size = data_->pq.code_size();
  quant::CodeStore store(size(), code_size, 1, code_tag(),
                         data_->pq.layout().packing);
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, data_->codes.data() + i * code_size);
    store.SetSidecar(i, 0, data_->recon_errors[static_cast<std::size_t>(i)]);
  }
  return store;
}

void PqAdcEstimator::EstimateBatchCodes(const uint8_t* records, int count,
                                        float* out, float* extras) {
  ScoreBlock(StreamRecords(records, code_record_stride(),
                           data_->pq.code_size()),
             count, /*members=*/nullptr, 1, out, extras);
}

void PqAdcEstimator::EstimateBatchCodesGroup(const uint8_t* records,
                                             int count, const int* members,
                                             int num_members, float* out,
                                             float* extras) {
  ScoreBlock(StreamRecords(records, code_record_stride(),
                           data_->pq.code_size()),
             count, members, num_members, out, extras);
  SelectQuery(members[num_members - 1]);
}

RqAdcEstimator::RqAdcEstimator(const RqEstimatorData* data) : data_(data) {
  RESINFER_CHECK(data != nullptr && data->rq.trained());
}

int64_t RqAdcEstimator::size() const {
  return static_cast<int64_t>(data_->recon_errors.size());
}

void RqAdcEstimator::BuildQueryState(const float* query,
                                     RqAdcQueryState& state) {
  state.ip_table.resize(static_cast<std::size_t>(data_->rq.ip_table_size()));
  data_->rq.ComputeIpTable(query, state.ip_table.data());
  state.norm_sqr =
      simd::Norm2Sqr(query, static_cast<std::size_t>(data_->rq.dim()));
}

float RqAdcEstimator::Estimate(int64_t id, float* extra) {
  *extra = data_->recon_errors[static_cast<std::size_t>(id)];
  const RqAdcQueryState& state = query_state();
  return data_->rq.AdcDistance(
      state.ip_table.data(), state.norm_sqr,
      data_->codes.data() + id * data_->rq.code_size(),
      data_->recon_norms[static_cast<std::size_t>(id)]);
}

template <typename RecordFn>
void RqAdcEstimator::ScoreBlock(RecordFn&& record, int count,
                                const int* members, int num_members,
                                float* out, float* extras) {
  // The RQ ADC is q·q - 2 q·x̂ + x̂·x̂; the table-lookup sum q·x̂ shares the
  // PQ accumulation kernel (tiled across the members' tables in the group
  // form), and the affine combine mirrors RqCodebook's expression order so
  // lanes stay bit-identical to Estimate(). Packed codebooks unpack each
  // chunk's nibbles first (same values, same order).
  RESINFER_DCHECK(num_members > 0 && num_members <= index::kMaxQueryGroup);
  const RqAdcQueryState* states[index::kMaxQueryGroup];
  const float* tables[index::kMaxQueryGroup];
  for (int g = 0; g < num_members; ++g) {
    states[g] = members != nullptr ? &member_state(members[g]) : &query_state();
    tables[g] = states[g]->ip_table.data();
  }
  const uint8_t* codes[kChunk];
  float norms[kChunk];
  float tile[index::kMaxQueryGroup * kChunk];
  const int stages = data_->rq.num_stages();
  const bool packed = data_->rq.layout().packed();
  if (packed) {
    unpack_scratch_.resize(static_cast<std::size_t>(kChunk) * stages);
  }
  for (int i = 0; i < count; i += kChunk) {
    const int block = std::min(kChunk, count - i);
    for (int j = 0; j < block; ++j) {
      const RqRecord rec = record(i + j);
      if (packed) {
        uint8_t* row = unpack_scratch_.data() + j * stages;
        quant::UnpackCodes4(rec.code, stages, row);
        codes[j] = row;
      } else {
        codes[j] = rec.code;
      }
      norms[j] = rec.recon_norm;
      for (int g = 0; g < num_members; ++g) {
        extras[static_cast<int64_t>(g) * count + i + j] = rec.recon_error;
      }
    }
    if (members == nullptr) {
      simd::PqAdcBatch(tables[0], stages, data_->rq.num_centroids(), codes,
                       block, tile);
    } else {
      simd::PqAdcTile(tables, num_members, stages, data_->rq.num_centroids(),
                      codes, block, tile);
    }
    for (int g = 0; g < num_members; ++g) {
      float* row = out + static_cast<int64_t>(g) * count + i;
      const float* ip = tile + g * block;
      for (int j = 0; j < block; ++j) {
        row[j] = states[g]->norm_sqr - 2.0f * ip[j] + norms[j];
      }
    }
  }
}

void RqAdcEstimator::EstimateBatch(const int64_t* ids, int count, float* out,
                                   float* extras) {
  const int64_t code_size = data_->rq.code_size();
  ScoreBlock(
      [this, ids, code_size](int pos) {
        const auto id = static_cast<std::size_t>(ids[pos]);
        return RqRecord{data_->codes.data() + id * code_size,
                        data_->recon_norms[id], data_->recon_errors[id]};
      },
      count, /*members=*/nullptr, 1, out, extras);
}

int64_t RqAdcEstimator::query_state_bytes() const {
  return data_->rq.ip_table_size() * static_cast<int64_t>(sizeof(float));
}

std::string RqAdcEstimator::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(data_->codes.data(),
                                         data_->codes.size());
    f = quant::FingerprintArray(data_->recon_norms.data(),
                                data_->recon_norms.size() * sizeof(float),
                                f);
    f = quant::FingerprintArray(data_->recon_errors.data(),
                                data_->recon_errors.size() * sizeof(float),
                                f);
    code_tag_ = quant::MakeCodeTag("rq-adc", data_->rq.code_size(), 2,
                                   size(), f, data_->rq.layout().packing);
  }
  return code_tag_;
}

int64_t RqAdcEstimator::code_record_stride() const {
  return quant::CodeRecordStride(data_->rq.code_size(), 2);
}

quant::CodeStore RqAdcEstimator::MakeCodeStore() const {
  const int64_t code_size = data_->rq.code_size();
  quant::CodeStore store(size(), code_size, 2, code_tag(),
                         data_->rq.layout().packing);
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, data_->codes.data() + i * code_size);
    store.SetSidecar(i, 0, data_->recon_norms[static_cast<std::size_t>(i)]);
    store.SetSidecar(i, 1, data_->recon_errors[static_cast<std::size_t>(i)]);
  }
  return store;
}

void RqAdcEstimator::EstimateBatchCodes(const uint8_t* records, int count,
                                        float* out, float* extras) {
  ScoreBlock(RqStreamRecords(records, code_record_stride(),
                             data_->rq.code_size()),
             count, /*members=*/nullptr, 1, out, extras);
}

void RqAdcEstimator::EstimateBatchCodesGroup(const uint8_t* records,
                                             int count, const int* members,
                                             int num_members, float* out,
                                             float* extras) {
  ScoreBlock(RqStreamRecords(records, code_record_stride(),
                             data_->rq.code_size()),
             count, members, num_members, out, extras);
  SelectQuery(members[num_members - 1]);
}

SqAdcEstimator::SqAdcEstimator(const SqEstimatorData* data) : data_(data) {
  RESINFER_CHECK(data != nullptr && data->sq.trained());
}

int64_t SqAdcEstimator::size() const {
  return static_cast<int64_t>(data_->recon_errors.size());
}

float SqAdcEstimator::Estimate(int64_t id, float* extra) {
  RESINFER_DCHECK(query_ != nullptr);
  *extra = data_->recon_errors[static_cast<std::size_t>(id)];
  return data_->sq.AdcDistance(query_, data_->codes.data() + id * dim());
}

template <typename RecordFn>
void SqAdcEstimator::ScoreBlock(RecordFn&& record, int count, float* out,
                                float* extras) {
  RESINFER_DCHECK(query_ != nullptr);
  const std::size_t n = static_cast<std::size_t>(dim());
  const float* q = query_;
  const float* vmin = data_->sq.vmin().data();
  const float* step = data_->sq.step().data();
  index::ScanBatch4(
      [&record](int pos) { return record(pos).code; },
      [q, vmin, step, n](const uint8_t* const* codes, float* vals) {
        simd::SqAdcL2SqrBatch4(q, codes, vmin, step, n, vals);
      },
      [&record, out, extras](int pos, float val) {
        out[pos] = val;
        extras[pos] = record(pos).recon_error;
      },
      [this, &record, out, extras](int pos) {
        const CodeRecord rec = record(pos);
        extras[pos] = rec.recon_error;
        out[pos] = data_->sq.AdcDistance(query_, rec.code);
      },
      count);
}

void SqAdcEstimator::EstimateBatch(const int64_t* ids, int count, float* out,
                                   float* extras) {
  ScoreBlock(GatherRecords(data_->codes.data(), data_->sq.code_size(),
                           data_->recon_errors.data(), ids),
             count, out, extras);
}

std::string SqAdcEstimator::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(data_->codes.data(),
                                         data_->codes.size());
    f = quant::FingerprintArray(data_->recon_errors.data(),
                                data_->recon_errors.size() * sizeof(float),
                                f);
    code_tag_ =
        quant::MakeCodeTag("sq8-adc", data_->sq.code_size(), 1, size(), f);
  }
  return code_tag_;
}

int64_t SqAdcEstimator::code_record_stride() const {
  return quant::CodeRecordStride(data_->sq.code_size(), 1);
}

quant::CodeStore SqAdcEstimator::MakeCodeStore() const {
  const int64_t code_size = data_->sq.code_size();
  quant::CodeStore store(size(), code_size, 1, code_tag());
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, data_->codes.data() + i * code_size);
    store.SetSidecar(i, 0, data_->recon_errors[static_cast<std::size_t>(i)]);
  }
  return store;
}

void SqAdcEstimator::EstimateBatchCodes(const uint8_t* records, int count,
                                        float* out, float* extras) {
  ScoreBlock(StreamRecords(records, code_record_stride(),
                           data_->sq.code_size()),
             count, out, extras);
}

// --- Training + computer ----------------------------------------------------

LinearCorrector TrainAnyCorrector(ApproxDistanceEstimator& estimator,
                                  const linalg::Matrix& base,
                                  const linalg::Matrix& train_queries,
                                  const TrainingDataOptions& training,
                                  LinearCorrectorOptions corrector) {
  RESINFER_CHECK(base.cols() == train_queries.cols());
  RESINFER_CHECK(estimator.dim() == base.cols());

  std::vector<LabeledPair> pairs =
      CollectLabeledPairs(base, train_queries, training);

  int64_t current_query = -1;
  std::vector<CorrectorSample> samples = MaterializeSamples(
      pairs, [&](int64_t query_index, int64_t id, float* extra) {
        if (query_index != current_query) {
          estimator.BeginQuery(train_queries.Row(query_index));
          current_query = query_index;
        }
        return estimator.Estimate(id, extra);
      });

  corrector.num_features = estimator.has_extra_feature() ? 3 : 2;
  return LinearCorrector::Train(samples, corrector);
}

DdcAnyComputer::DdcAnyComputer(
    const linalg::Matrix* base,
    std::unique_ptr<ApproxDistanceEstimator> estimator,
    const LinearCorrector* corrector)
    : base_(base), estimator_(std::move(estimator)), corrector_(corrector) {
  RESINFER_CHECK(base != nullptr && estimator_ != nullptr &&
                 corrector != nullptr);
  RESINFER_CHECK(estimator_->dim() == base->cols());
  RESINFER_CHECK(estimator_->size() == base->rows());
}

void DdcAnyComputer::BeginQuery(const float* query) {
  query_ = query;
  estimator_->BeginQuery(query);
}

index::EstimateResult DdcAnyComputer::EstimateWithThreshold(int64_t id,
                                                            float tau) {
  ++stats_.candidates;
  float extra = 0.0f;
  const float approx = estimator_->Estimate(id, &extra);

  if (std::isfinite(tau) &&
      corrector_->PredictPrunable(approx, tau, extra)) {
    ++stats_.pruned;
    return {true, approx};
  }
  ++stats_.exact_computations;
  stats_.dims_scanned += dim();
  return {false, ExactDistance(id)};
}

template <typename ApproxFn>
void DdcAnyComputer::ScoreBlock(ApproxFn&& approx, const int64_t* ids,
                                int count, float tau,
                                index::EstimateResult* out) {
  index::EstimatePruneRefine(
      query_, static_cast<std::size_t>(dim()),
      [this](int64_t id) { return base_->Row(id); }, approx,
      [this, tau](float approx_dist, float extra) {
        return corrector_->PredictPrunable(approx_dist, tau, extra);
      },
      std::isfinite(tau), ids, count, stats_, out);
}

void DdcAnyComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                   index::EstimateResult* out) {
  ScoreBlock(
      [this, ids](int start, int n, float* approx, float* extras) {
        estimator_->EstimateBatch(ids + start, n, approx, extras);
      },
      ids, count, tau, out);
}

std::string DdcAnyComputer::code_tag() const {
  return estimator_->code_tag();
}

quant::CodeStore DdcAnyComputer::MakeCodeStore() const {
  return estimator_->MakeCodeStore();
}

void DdcAnyComputer::EstimateBatchCodes(const uint8_t* codes,
                                        const int64_t* ids, int count,
                                        float tau,
                                        index::EstimateResult* out) {
  const int64_t stride = estimator_->code_record_stride();
  if (stride <= 0) {  // estimator without a code-resident form: gather
    EstimateBatch(ids, count, tau, out);
    return;
  }
  ScoreBlock(
      [this, codes, stride](int start, int n, float* approx, float* extras) {
        estimator_->EstimateBatchCodes(codes + start * stride, n, approx,
                                       extras);
      },
      ids, count, tau, out);
}

bool DdcAnyComputer::group_scan_tiles_blocks() const {
  // Block-level member tiling cycles every member's table through the
  // cache once per candidate block; that only pays while the whole
  // group's state fits comfortably in L2 alongside the block itself.
  constexpr int64_t kGroupStateCacheBudget = 128 * 1024;
  const int64_t per_member = estimator_->query_state_bytes();
  return per_member > 0 &&
         per_member * index::kMaxQueryGroup <= kGroupStateCacheBudget;
}

void DdcAnyComputer::SetQueryBatch(const float* queries, int count,
                                   int64_t stride) {
  index::DistanceComputer::SetQueryBatch(queries, count, stride);
  estimator_->SetQueryBatch(queries, count, stride);
}

void DdcAnyComputer::SelectQuery(int g) {
  query_ = batch_.query(g);
  estimator_->SelectQuery(g);
}

void DdcAnyComputer::EstimateBatchCodesGroup(const uint8_t* codes,
                                             const int64_t* ids, int count,
                                             const int* members,
                                             int num_members,
                                             const float* taus,
                                             index::EstimateResult* out) {
  const int64_t stride = estimator_->code_record_stride();
  if (stride <= 0) {  // estimator without a code-resident form
    index::DistanceComputer::EstimateBatchCodesGroup(
        codes, ids, count, members, num_members, taus, out);
    return;
  }
  RESINFER_DCHECK(num_members > 0 && num_members <= index::kMaxQueryGroup);
  // EstimatePruneRefine's chunks, with each chunk estimated for the whole
  // group at once and then decided per member — each member's results and
  // stats are bit-identical to its sequential call.
  float approx[index::kMaxQueryGroup * index::kRefineChunk];
  float extras[index::kMaxQueryGroup * index::kRefineChunk];
  const std::size_t d = static_cast<std::size_t>(dim());
  for (int i = 0; i < count; i += index::kRefineChunk) {
    const int block = std::min(index::kRefineChunk, count - i);
    std::fill_n(extras, static_cast<std::size_t>(num_members) * block, 0.0f);
    estimator_->EstimateBatchCodesGroup(codes + i * stride, block, members,
                                        num_members, approx, extras);
    for (int g = 0; g < num_members; ++g) {
      const float tau = taus[g];
      index::PruneRefineChunk(
          batch_.query(members[g]), d,
          [this](int64_t id) { return base_->Row(id); },
          [this, tau](float approx_dist, float extra) {
            return corrector_->PredictPrunable(approx_dist, tau, extra);
          },
          std::isfinite(tau), ids + i, approx + g * block,
          extras + g * block, block, stats_,
          out + static_cast<int64_t>(g) * count + i);
    }
  }
  SelectQuery(members[num_members - 1]);
}

float DdcAnyComputer::ExactDistance(int64_t id) {
  RESINFER_DCHECK(query_ != nullptr);
  return simd::L2Sqr(query_, base_->Row(id),
                     static_cast<std::size_t>(dim()));
}

float DdcAnyComputer::ApproximateDistance(int64_t id) {
  float extra = 0.0f;
  return estimator_->Estimate(id, &extra);
}

}  // namespace resinfer::core
