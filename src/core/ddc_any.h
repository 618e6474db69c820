// DDCany — the §V generality claim as a reusable component.
//
// The paper's data-driven correction "makes no assumptions about the source
// of these approximate distances". DdcOpq demonstrates that for OPQ;
// this header turns the pattern into an explicit plug-in point: any type
// implementing ApproxDistanceEstimator (one BeginQuery + one Estimate) gets
//   * corrector training via the shared labeled-pair pipeline
//     (TrainAnyCorrector), and
//   * a full DistanceComputer (DdcAnyComputer) that prunes with the learned
//     boundary and falls back to exact distances, usable inside IVF/HNSW.
//
// Three estimator backends ship here — plain PQ (the paper's §V example
// verbatim), Residual Quantization, and 8-bit Scalar Quantization — all
// corrected by the *same* LinearCorrector code that serves DDCpca/DDCopq.
#ifndef RESINFER_CORE_DDC_ANY_H_
#define RESINFER_CORE_DDC_ANY_H_

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
#include "quant/code_store.h"
#include "quant/pq.h"
#include "quant/rq.h"
#include "quant/sq.h"

namespace resinfer::core {

// The minimal contract a distance-estimation source must satisfy to plug
// into the data-driven correction. Implementations are stateful per query
// (BeginQuery builds lookup tables); use one instance per search thread.
// Shared trained artifacts (codebooks, codes) live outside the estimator
// and must outlive it.
class ApproxDistanceEstimator {
 public:
  virtual ~ApproxDistanceEstimator() = default;

  virtual std::string name() const = 0;
  virtual int64_t dim() const = 0;
  virtual int64_t size() const = 0;

  // Prepares per-query state. `query` has dim() floats in the ORIGINAL
  // space; estimators apply their own transforms internally.
  virtual void BeginQuery(const float* query) = 0;

  // Approximate distance dis' for candidate `id`. When the estimator
  // carries a per-point trust feature (e.g. reconstruction error), it is
  // written to *extra (never null); otherwise *extra is left at 0.
  virtual float Estimate(int64_t id, float* extra) = 0;

  // Blocked form: out[i]/extras[i] receive Estimate(ids[i]) results,
  // bit-identical to sequential Estimate calls. The default loops; the
  // quantizer backends override with the batched ADC kernels. Estimators
  // without an extra feature leave extras[i] at 0, matching the zeroed
  // scratch a sequential caller passes to Estimate.
  virtual void EstimateBatch(const int64_t* ids, int count, float* out,
                             float* extras) {
    for (int i = 0; i < count; ++i) {
      extras[i] = 0.0f;
      out[i] = Estimate(ids[i], &extras[i]);
    }
  }

  // Whether Estimate fills a meaningful third feature; decides the
  // corrector's feature count at training time.
  virtual bool has_extra_feature() const { return false; }

  // --- Query-group form (the multi-query serving path) --------------------
  // Mirrors DistanceComputer's group API: SetQueryBatch declares a group of
  // `count` queries (member g at queries + g * stride floats, count <=
  // index::kMaxQueryGroup); SelectQuery(g) activates one member, and
  // BeginQuery reverts to single-query operation without disturbing the
  // group. The defaults record the group and rebuild state through
  // BeginQuery on every switch; estimators with real per-query state (ADC
  // tables) derive from index::QuerySlots instead (see query_slots.h).
  virtual void SetQueryBatch(const float* queries, int count, int64_t stride);
  virtual void SelectQuery(int g);

  // Group code-resident evaluation: equivalent to, for each j,
  //   SelectQuery(members[j]);
  //   EstimateBatchCodes(records, count, out + j * count,
  //                      extras + j * count);
  // (member-major outputs, last member left selected), bit-identically. The
  // default performs exactly that loop; PQ/RQ override with the
  // query-tiled ADC kernel so one pass over the records serves the whole
  // group.
  virtual void EstimateBatchCodesGroup(const uint8_t* records, int count,
                                       const int* members, int num_members,
                                       float* out, float* extras);

  // --- Code-resident form (quant::CodeStore) ------------------------------
  // Estimators that can evaluate straight from a packed record stream
  // report a non-empty code_tag() plus their record stride, pack their
  // codes + sidecar features with MakeCodeStore, and implement
  // EstimateBatchCodes. The quantizer backends here do; a custom estimator
  // without support keeps the empty defaults and DdcAnyComputer falls back
  // to the id-gather path.

  virtual std::string code_tag() const { return {}; }
  virtual int64_t code_record_stride() const { return 0; }
  virtual quant::CodeStore MakeCodeStore() const { return {}; }

  // Bytes of per-query scan state (ADC tables etc.) one group member
  // keeps live during estimation. DdcAnyComputer uses this to pick the
  // query-major scan order: block-level member tiling only pays while the
  // whole group's state stays cache-resident; above that, member-major
  // bucket runs keep one member's table hot instead of cycling all of
  // them every block.
  virtual int64_t query_state_bytes() const { return 0; }

  // `records` holds `count` records of code_record_stride() bytes each, in
  // candidate order. Fills out[i]/extras[i] bit-identically to
  // EstimateBatch on the ids the records were packed from (the backends
  // here run both through one private block scorer over a record accessor:
  // gathered by id, or at position * stride in the stream). Must not be
  // called when code_tag() is empty (the default CHECK-aborts).
  virtual void EstimateBatchCodes(const uint8_t* records, int count,
                                  float* out, float* extras);

 protected:
  // The group declared by the base SetQueryBatch.
  index::QueryBatch batch_;
};

// --- Quantizer-backed estimator artifacts --------------------------------

// Plain PQ (no rotation): the §V-B quantization example in its simplest
// form.
struct PqEstimatorData {
  quant::PqCodebook pq;
  std::vector<uint8_t> codes;       // n * code_size
  std::vector<float> recon_errors;  // n, ||x - x̂||^2
  int64_t ExtraBytes() const;
};
PqEstimatorData BuildPqEstimatorData(
    const linalg::Matrix& base, const quant::PqOptions& options = {});

struct RqEstimatorData {
  quant::RqCodebook rq;
  std::vector<uint8_t> codes;       // n * num_stages
  std::vector<float> recon_norms;   // n, ||x̂||^2 (ADC ingredient)
  std::vector<float> recon_errors;  // n, ||x - x̂||^2 (trust feature)
  int64_t ExtraBytes() const;
};
RqEstimatorData BuildRqEstimatorData(const linalg::Matrix& base,
                                     const quant::RqOptions& options = {});

struct SqEstimatorData {
  quant::SqCodebook sq;
  std::vector<uint8_t> codes;       // n * d
  std::vector<float> recon_errors;  // n, ||x - x̂||^2 (trust feature)
  int64_t ExtraBytes() const;
};
SqEstimatorData BuildSqEstimatorData(const linalg::Matrix& base,
                                     const quant::SqOptions& options = {});

// --- Estimators -----------------------------------------------------------

class PqAdcEstimator
    : public index::QuerySlots<ApproxDistanceEstimator, PqQueryState> {
 public:
  // `data` must outlive the estimator.
  //
  // Packed 4-bit codebooks (pq.layout().packed()) take the fast-scan tier:
  // BeginQuery additionally quantizes the ADC table to a register-resident
  // u8 LUT (PqCodebook::QuantizeAdcTable) and every estimate path
  // dequantizes the exact integer LUT sum — within the documented
  // m * scale / 2 bound of the float ADC value, with survivors still
  // exactly rescored by the prune/refine epilogue. All packed paths
  // (sequential, batch, code-resident, grouped) share the same sum +
  // dequantization arithmetic, so they stay bit-identical to each other.
  explicit PqAdcEstimator(const PqEstimatorData* data);

  std::string name() const override { return "pq-adc"; }
  int64_t dim() const override { return data_->pq.dim(); }
  int64_t size() const override;
  float Estimate(int64_t id, float* extra) override;
  void EstimateBatch(const int64_t* ids, int count, float* out,
                     float* extras) override;
  bool has_extra_feature() const override { return true; }

  // Record: [pq code | recon_error].
  std::string code_tag() const override;
  int64_t code_record_stride() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* records, int count, float* out,
                          float* extras) override;

  // The group scan streams each record chunk through the tiled kernels for
  // all members' slots.
  void EstimateBatchCodesGroup(const uint8_t* records, int count,
                               const int* members, int num_members,
                               float* out, float* extras) override;
  int64_t query_state_bytes() const override;

 private:
  // PqQueryState::Build on the raw query (plain PQ, no rotation).
  void BuildQueryState(const float* query, PqQueryState& state) override;
  // The block scorer behind EstimateBatch, EstimateBatchCodes and
  // EstimateBatchCodesGroup: `record(pos)` yields candidate pos's
  // CodeRecord, and each listed member's slot scores every record (member
  // j's outputs at out/extras + j * count). Null `members` scores the
  // current slot alone (num_members == 1).
  template <typename RecordFn>
  void ScoreBlock(RecordFn&& record, int count, const int* members,
                  int num_members, float* out, float* extras);

  const PqEstimatorData* data_;
  // Lazily built (content fingerprint is O(n)); estimators are per-thread.
  mutable std::string code_tag_;
};

// Per-query state of RqAdcEstimator: the RQ inner-product table and
// ||q||^2.
struct RqAdcQueryState {
  std::vector<float> ip_table;
  float norm_sqr = 0.0f;
};

class RqAdcEstimator
    : public index::QuerySlots<ApproxDistanceEstimator, RqAdcQueryState> {
 public:
  explicit RqAdcEstimator(const RqEstimatorData* data);

  std::string name() const override { return "rq-adc"; }
  int64_t dim() const override { return data_->rq.dim(); }
  int64_t size() const override;
  float Estimate(int64_t id, float* extra) override;
  void EstimateBatch(const int64_t* ids, int count, float* out,
                     float* extras) override;
  bool has_extra_feature() const override { return true; }

  // Record: [rq code | recon_norm, recon_error].
  std::string code_tag() const override;
  int64_t code_record_stride() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* records, int count, float* out,
                          float* extras) override;

  // The group scan tiles the table-lookup stage over all members' slots
  // and applies each member's affine combine.
  void EstimateBatchCodesGroup(const uint8_t* records, int count,
                               const int* members, int num_members,
                               float* out, float* extras) override;
  int64_t query_state_bytes() const override;

 private:
  void BuildQueryState(const float* query, RqAdcQueryState& state) override;
  // Shaped like PqAdcEstimator's scorer; `record(pos)` also yields the
  // reconstruction norm.
  template <typename RecordFn>
  void ScoreBlock(RecordFn&& record, int count, const int* members,
                  int num_members, float* out, float* extras);

  const RqEstimatorData* data_;
  // Packed-layout scratch: the batch paths unpack each chunk's nibble
  // codes to bytes here before the shared table-lookup kernel (kChunk x
  // num_stages bytes). Values and summation order match the byte path, so
  // the unpack is invisible to results.
  std::vector<uint8_t> unpack_scratch_;
  mutable std::string code_tag_;
};

class SqAdcEstimator : public ApproxDistanceEstimator {
 public:
  explicit SqAdcEstimator(const SqEstimatorData* data);

  std::string name() const override { return "sq8-adc"; }
  int64_t dim() const override { return data_->sq.dim(); }
  int64_t size() const override;
  void BeginQuery(const float* query) override { query_ = query; }
  float Estimate(int64_t id, float* extra) override;
  void EstimateBatch(const int64_t* ids, int count, float* out,
                     float* extras) override;
  bool has_extra_feature() const override { return true; }

  // Record: [sq code (d bytes) | recon_error].
  std::string code_tag() const override;
  int64_t code_record_stride() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* records, int count, float* out,
                          float* extras) override;

 private:
  // The block scorer behind EstimateBatch and EstimateBatchCodes:
  // `record(pos)` yields candidate pos's code and reconstruction error.
  template <typename RecordFn>
  void ScoreBlock(RecordFn&& record, int count, float* out, float* extras);

  const SqEstimatorData* data_;
  const float* query_ = nullptr;
  mutable std::string code_tag_;
};

// --- Training + the generic computer --------------------------------------

// Trains a LinearCorrector for `estimator` on labeled pairs harvested from
// (base, train_queries) — the exact pipeline DDCpca/DDCopq use, with the
// feature count chosen from estimator.has_extra_feature(). The estimator's
// per-query state is driven internally; it is left positioned at the last
// training query on return.
LinearCorrector TrainAnyCorrector(
    ApproxDistanceEstimator& estimator, const linalg::Matrix& base,
    const linalg::Matrix& train_queries,
    const TrainingDataOptions& training = TrainingDataOptions(),
    LinearCorrectorOptions corrector = LinearCorrectorOptions());

// DistanceComputer over any estimator + trained corrector: prune when the
// learned boundary says dis > tau, otherwise fall back to the exact
// distance against `base` (original space). All pointers are borrowed.
class DdcAnyComputer : public index::DistanceComputer {
 public:
  DdcAnyComputer(const linalg::Matrix* base,
                 std::unique_ptr<ApproxDistanceEstimator> estimator,
                 const LinearCorrector* corrector);

  int64_t dim() const override { return base_->cols(); }
  int64_t size() const override { return base_->rows(); }
  std::string name() const override { return "ddc-" + estimator_->name(); }

  void BeginQuery(const float* query) override;
  index::EstimateResult EstimateWithThreshold(int64_t id,
                                              float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     index::EstimateResult* out) override;
  // Forwarded to the estimator's code-resident form; falls back to the
  // gather path when the estimator has none.
  std::string code_tag() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids,
                          int count, float tau,
                          index::EstimateResult* out) override;
  // Group form: each record chunk is estimated for the whole group (tiled
  // ADC where the backend supports it), then index::PruneRefineChunk
  // decides it per member against that member's tau and query.
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override;
  void SelectQuery(int g) override;
  void EstimateBatchCodesGroup(const uint8_t* codes, const int64_t* ids,
                               int count, const int* members,
                               int num_members, const float* taus,
                               index::EstimateResult* out) override;
  // Block-level member tiling only while the whole group's estimator
  // state (kMaxQueryGroup ADC tables) stays cache-resident; otherwise
  // member-major runs keep one member's table hot per bucket.
  bool group_scan_tiles_blocks() const override;
  float ExactDistance(int64_t id) override;

  // Raw estimator distance for the current query (no correction).
  float ApproximateDistance(int64_t id);

 private:
  // The block scorer behind EstimateBatch and EstimateBatchCodes:
  // `approx(start, n, out, extras)` estimates the candidates at positions
  // [start, start + n) through the estimator's id-gather or record-stream
  // form; see index::EstimatePruneRefine.
  template <typename ApproxFn>
  void ScoreBlock(ApproxFn&& approx, const int64_t* ids, int count, float tau,
                  index::EstimateResult* out);

  const linalg::Matrix* base_;
  std::unique_ptr<ApproxDistanceEstimator> estimator_;
  const LinearCorrector* corrector_;
  const float* query_ = nullptr;  // original space, for exact refinement
};

}  // namespace resinfer::core

#endif  // RESINFER_CORE_DDC_ANY_H_
