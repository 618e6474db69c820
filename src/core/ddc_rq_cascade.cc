#include "core/ddc_rq_cascade.h"

#include <algorithm>
#include <cmath>

#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace resinfer::core {

namespace {

// ADC truncated to `stages` codebooks, from the per-query IP table.
float TruncatedAdc(const quant::RqCodebook& rq, const float* table,
                   float query_norm_sqr, const uint8_t* code, int stages,
                   float level_norm_sqr) {
  float ip = 0.0f;
  for (int m = 0; m < stages; ++m) {
    ip += table[static_cast<int64_t>(m) * rq.num_centroids() +
                rq.CodeAt(code, m)];
  }
  return query_norm_sqr - 2.0f * ip + level_norm_sqr;
}

}  // namespace

DdcRqCascadeArtifacts TrainDdcRqCascade(const linalg::Matrix& base,
                                        const linalg::Matrix& train_queries,
                                        const DdcRqCascadeOptions& options) {
  RESINFER_CHECK(!options.levels.empty());
  for (std::size_t l = 1; l < options.levels.size(); ++l) {
    RESINFER_CHECK_MSG(options.levels[l] > options.levels[l - 1],
                       "cascade levels must be strictly increasing");
  }
  RESINFER_CHECK(options.levels.front() >= 1);
  RESINFER_CHECK(base.cols() == train_queries.cols());

  const int64_t n = base.rows();
  const int64_t d = base.cols();
  const auto num_levels = static_cast<int64_t>(options.levels.size());

  WallTimer timer;
  DdcRqCascadeArtifacts artifacts;
  artifacts.levels = options.levels;

  quant::RqOptions rq_options = options.rq;
  rq_options.num_stages =
      std::max(rq_options.num_stages, options.levels.back());
  artifacts.rq = quant::RqCodebook::Train(base.data(), n, d, rq_options);

  std::vector<float> full_norms;  // unused beyond EncodeBatch's contract
  artifacts.codes = artifacts.rq.EncodeBatch(base.data(), n, &full_norms);

  // Per-level reconstruction norms and errors for every point.
  artifacts.level_norms.resize(static_cast<std::size_t>(n * num_levels));
  artifacts.level_errors.resize(static_cast<std::size_t>(n * num_levels));
  const quant::RqCodebook& rq = artifacts.rq;
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<float> partial(static_cast<std::size_t>(d));
    for (int64_t i = begin; i < end; ++i) {
      const uint8_t* code = artifacts.codes.data() + i * rq.code_size();
      std::fill(partial.begin(), partial.end(), 0.0f);
      int stage = 0;
      for (int64_t l = 0; l < num_levels; ++l) {
        for (; stage < options.levels[static_cast<std::size_t>(l)];
             ++stage) {
          const float* c = rq.centroids(stage).Row(rq.CodeAt(code, stage));
          for (int64_t j = 0; j < d; ++j) {
            partial[static_cast<std::size_t>(j)] += c[j];
          }
        }
        artifacts.level_norms[static_cast<std::size_t>(i * num_levels + l)] =
            simd::Norm2Sqr(partial.data(), static_cast<std::size_t>(d));
        artifacts.level_errors[static_cast<std::size_t>(i * num_levels +
                                                        l)] =
            simd::L2Sqr(partial.data(), base.Row(i),
                        static_cast<std::size_t>(d));
      }
    }
  });

  // One classifier per level, on the shared labeled pairs.
  std::vector<LabeledPair> pairs =
      CollectLabeledPairs(base, train_queries, options.training);

  LinearCorrectorOptions corrector_options = options.corrector;
  corrector_options.num_features = 3;
  if (options.split_target_across_levels && num_levels > 1) {
    corrector_options.target_recall = std::pow(
        options.corrector.target_recall, 1.0 / static_cast<double>(num_levels));
  }

  std::vector<float> table(static_cast<std::size_t>(rq.ip_table_size()));
  for (int64_t l = 0; l < num_levels; ++l) {
    const int stages = options.levels[static_cast<std::size_t>(l)];
    int64_t current_query = -1;
    float query_norm_sqr = 0.0f;
    std::vector<CorrectorSample> samples = MaterializeSamples(
        pairs, [&](int64_t query_index, int64_t id, float* extra) {
          if (query_index != current_query) {
            rq.ComputeIpTable(train_queries.Row(query_index), table.data());
            query_norm_sqr =
                simd::Norm2Sqr(train_queries.Row(query_index),
                               static_cast<std::size_t>(d));
            current_query = query_index;
          }
          *extra = artifacts.level_errors[static_cast<std::size_t>(
              id * num_levels + l)];
          return TruncatedAdc(
              rq, table.data(), query_norm_sqr,
              artifacts.codes.data() + id * rq.code_size(), stages,
              artifacts.level_norms[static_cast<std::size_t>(
                  id * num_levels + l)]);
        });
    artifacts.correctors.push_back(
        LinearCorrector::Train(samples, corrector_options));
  }

  artifacts.train_seconds = timer.ElapsedSeconds();
  return artifacts;
}

DdcRqCascadeComputer::DdcRqCascadeComputer(
    const linalg::Matrix* base, const DdcRqCascadeArtifacts* artifacts)
    : base_(base), artifacts_(artifacts) {
  RESINFER_CHECK(base != nullptr && artifacts != nullptr);
  RESINFER_CHECK(artifacts->rq.trained());
  RESINFER_CHECK(artifacts->rq.dim() == base->cols());
  RESINFER_CHECK(artifacts->correctors.size() == artifacts->levels.size());
}

void DdcRqCascadeComputer::BuildQueryState(const float* query,
                                           DdcRqCascadeQueryState& state) {
  state.ip_table.resize(
      static_cast<std::size_t>(artifacts_->rq.ip_table_size()));
  artifacts_->rq.ComputeIpTable(query, state.ip_table.data());
  state.norm_sqr =
      simd::Norm2Sqr(query, static_cast<std::size_t>(base_->cols()));
}

index::EstimateResult DdcRqCascadeComputer::EstimateWithThreshold(
    int64_t id, float tau) {
  ++stats_.candidates;
  const quant::RqCodebook& rq = artifacts_->rq;
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  const uint8_t* code = artifacts_->codes.data() + id * rq.code_size();
  const DdcRqCascadeQueryState& state = query_state();

  if (std::isfinite(tau)) {
    float ip = 0.0f;
    int stage = 0;
    for (int64_t l = 0; l < num_levels; ++l) {
      const int stages = artifacts_->levels[static_cast<std::size_t>(l)];
      for (; stage < stages; ++stage) {
        ip += state.ip_table[static_cast<std::size_t>(
            static_cast<int64_t>(stage) * rq.num_centroids() +
            rq.CodeAt(code, stage))];
        ++stage_lookups_;
      }
      const float approx =
          state.norm_sqr - 2.0f * ip +
          artifacts_->level_norms[static_cast<std::size_t>(id * num_levels +
                                                           l)];
      const float extra = artifacts_->level_errors[static_cast<std::size_t>(
          id * num_levels + l)];
      if (artifacts_->correctors[static_cast<std::size_t>(l)]
              .PredictPrunable(approx, tau, extra)) {
        ++stats_.pruned;
        return {true, approx};
      }
    }
  }
  ++stats_.exact_computations;
  stats_.dims_scanned += dim();
  return {false, ExactDistance(id)};
}

std::string DdcRqCascadeComputer::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(artifacts_->codes.data(),
                                         artifacts_->codes.size());
    f = quant::FingerprintArray(
        artifacts_->level_norms.data(),
        artifacts_->level_norms.size() * sizeof(float), f);
    f = quant::FingerprintArray(
        artifacts_->level_errors.data(),
        artifacts_->level_errors.size() * sizeof(float), f);
    code_tag_ = quant::MakeCodeTag(
        "ddc-rq-cascade", artifacts_->rq.code_size(),
        2 * static_cast<int>(artifacts_->levels.size()), size(), f,
        artifacts_->rq.layout().packing);
  }
  return code_tag_;
}

quant::CodeStore DdcRqCascadeComputer::MakeCodeStore() const {
  const int64_t code_size = artifacts_->rq.code_size();
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  quant::CodeStore store(size(), code_size,
                         static_cast<int>(2 * num_levels), code_tag(),
                         artifacts_->rq.layout().packing);
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, artifacts_->codes.data() + i * code_size);
    for (int64_t l = 0; l < num_levels; ++l) {
      store.SetSidecar(i, static_cast<int>(l),
                       artifacts_->level_norms[static_cast<std::size_t>(
                           i * num_levels + l)]);
      store.SetSidecar(i, static_cast<int>(num_levels + l),
                       artifacts_->level_errors[static_cast<std::size_t>(
                           i * num_levels + l)]);
    }
  }
  return store;
}

namespace {

// A candidate's cascade inputs: its RQ code, then per level its
// reconstruction norm and trust feature.
struct CascadeRecord {
  const uint8_t* code;
  const float* norms;
  const float* errors;
};

}  // namespace

template <typename RecordFn>
void DdcRqCascadeComputer::ScoreBlock(RecordFn&& record, const int64_t* ids,
                                      int count, float tau,
                                      index::EstimateResult* out) {
  // Per-candidate cascade identical to EstimateWithThreshold; only exact
  // fallbacks touch the (id-gathered) base rows.
  const quant::RqCodebook& rq = artifacts_->rq;
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  const DdcRqCascadeQueryState& state = query_state();
  const bool tau_finite = std::isfinite(tau);

  for (int i = 0; i < count; ++i) {
    if (i + 1 < count) RESINFER_PREFETCH(record(i + 1).code);
    ++stats_.candidates;
    bool pruned = false;
    if (tau_finite) {
      const CascadeRecord rec = record(i);
      float ip = 0.0f;
      int stage = 0;
      for (int64_t l = 0; l < num_levels && !pruned; ++l) {
        const int stages = artifacts_->levels[static_cast<std::size_t>(l)];
        for (; stage < stages; ++stage) {
          ip += state.ip_table[static_cast<std::size_t>(
              static_cast<int64_t>(stage) * rq.num_centroids() +
              rq.CodeAt(rec.code, stage))];
          ++stage_lookups_;
        }
        const float approx = state.norm_sqr - 2.0f * ip + rec.norms[l];
        if (artifacts_->correctors[static_cast<std::size_t>(l)]
                .PredictPrunable(approx, tau, rec.errors[l])) {
          ++stats_.pruned;
          out[i] = {true, approx};
          pruned = true;
        }
      }
    }
    if (!pruned) {
      ++stats_.exact_computations;
      stats_.dims_scanned += dim();
      out[i] = {false, ExactDistance(ids[i])};
    }
  }
}

void DdcRqCascadeComputer::EstimateBatch(const int64_t* ids, int count,
                                         float tau,
                                         index::EstimateResult* out) {
  const int64_t code_size = artifacts_->rq.code_size();
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  ScoreBlock(
      [this, ids, code_size, num_levels](int pos) {
        const int64_t id = ids[pos];
        return CascadeRecord{
            artifacts_->codes.data() + id * code_size,
            artifacts_->level_norms.data() + id * num_levels,
            artifacts_->level_errors.data() + id * num_levels};
      },
      ids, count, tau, out);
}

void DdcRqCascadeComputer::EstimateBatchCodes(const uint8_t* codes,
                                              const int64_t* ids, int count,
                                              float tau,
                                              index::EstimateResult* out) {
  const int64_t code_size = artifacts_->rq.code_size();
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  const int64_t stride =
      quant::CodeRecordStride(code_size, static_cast<int>(2 * num_levels));
  ScoreBlock(
      [codes, stride, code_size, num_levels](int pos) {
        const uint8_t* rec = codes + pos * stride;
        const float* norms = quant::RecordSidecars(rec, code_size);
        return CascadeRecord{rec, norms, norms + num_levels};
      },
      ids, count, tau, out);
}

float DdcRqCascadeComputer::ExactDistance(int64_t id) {
  RESINFER_DCHECK(query() != nullptr);
  return simd::L2Sqr(query(), base_->Row(id),
                     static_cast<std::size_t>(dim()));
}

float DdcRqCascadeComputer::ApproximateDistance(int64_t id,
                                                int level) const {
  RESINFER_DCHECK(level >= 0 &&
                  level < static_cast<int>(artifacts_->levels.size()));
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  const DdcRqCascadeQueryState& state = query_state();
  return TruncatedAdc(
      artifacts_->rq, state.ip_table.data(), state.norm_sqr,
      artifacts_->codes.data() + id * artifacts_->rq.code_size(),
      artifacts_->levels[static_cast<std::size_t>(level)],
      artifacts_->level_norms[static_cast<std::size_t>(id * num_levels +
                                                       level)]);
}

}  // namespace resinfer::core
