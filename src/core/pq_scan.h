// Shared query state, record accessors and chunk scorer for the PQ-backed
// estimate paths (DdcAny's PqAdcEstimator and DdcOpqComputer).
//
// Both computers score candidate chunks with one of two tiers: the
// byte-per-code float-table gather kernel (PqAdcBatch), or — for packed
// 4-bit codebooks — the quantized-LUT fast-scan plus the shared
// dequantization (PqAdcFastScan; see quant/code_layout.h). ScorePqChunk is
// the ONE routing point between the tiers for every batch path (id-gather
// and code-resident alike), and PqQueryState::Estimate the one for the
// single-code reference path, so a change to either tier's arithmetic
// cannot drift between call sites and break the bit-identity contracts the
// fastscan-parity suite pins.
#ifndef RESINFER_CORE_PQ_SCAN_H_
#define RESINFER_CORE_PQ_SCAN_H_

#include <cstdint>
#include <vector>

#include "quant/code_store.h"
#include "quant/pq.h"
#include "simd/kernels.h"
#include "util/macros.h"

namespace resinfer::core {

// Per-query state of a PQ-backed estimate path: the float ADC table and,
// for packed 4-bit codebooks, its quantized fast-scan LUT with the affine
// map that dequantizes exact integer LUT sums (within the documented
// m * scale / 2 bound of the float ADC value).
struct PqQueryState {
  std::vector<float> table;
  std::vector<uint8_t> lut;  // packed codebooks only
  float scale = 0.0f;
  float bias = 0.0f;

  // Builds the state for `query`, given in the codebook's space.
  void Build(const quant::PqCodebook& codebook, const float* query) {
    table.resize(static_cast<std::size_t>(codebook.adc_table_size()));
    codebook.ComputeAdcTable(query, table.data());
    if (codebook.layout().packed()) {
      lut.resize(static_cast<std::size_t>(codebook.fast_scan_lut_bytes()));
      codebook.QuantizeAdcTable(table.data(), lut.data(), &scale, &bias);
    }
  }

  // Estimate for one code, with the single-code kernels.
  float Estimate(const quant::PqCodebook& codebook,
                 const uint8_t* code) const {
    if (codebook.layout().packed()) {
      return quant::PqCodebook::DequantizeFastScanSum(
          simd::PqAdcFastScanOne(lut.data(), codebook.num_subspaces(), code),
          scale, bias);
    }
    return codebook.AdcDistance(table.data(), code);
  }
};

// A candidate's estimate inputs in the quantizer-backed paths (PQ, OPQ,
// SQ): its code and its one sidecar, the reconstruction error that serves
// as the corrector's trust feature.
struct CodeRecord {
  const uint8_t* code;
  float recon_error;
};

// The two record accessors of a block scorer. Gather: candidate pos is
// point ids[pos] of the id-ordered artifact arrays.
inline auto GatherRecords(const uint8_t* codes, int64_t code_size,
                          const float* recon_errors, const int64_t* ids) {
  return [=](int pos) {
    return CodeRecord{codes + ids[pos] * code_size, recon_errors[ids[pos]]};
  };
}

// Stream: candidate pos is the quant::CodeStore record at
// records + pos * stride of a bucket stream.
inline auto StreamRecords(const uint8_t* records, int64_t stride,
                          int64_t code_size) {
  return [=](int pos) {
    const uint8_t* rec = records + pos * stride;
    return CodeRecord{rec, quant::RecordSidecars(rec, code_size)[0]};
  };
}

// Upper bound on `n` per call (the block-refine chunk; callers feed 16 or
// 32 codes at a time).
inline constexpr int kPqScanChunk = 32;

// out[j] = estimate for codes[j], j in [0, n). Packed tier: exact integer
// LUT sums dequantized through the one shared expression; byte tier: the
// float ADC table accumulation.
inline void ScorePqChunk(const quant::PqCodebook& codebook,
                         const PqQueryState& state,
                         const uint8_t* const* codes, int n, float* out) {
  RESINFER_DCHECK(n <= kPqScanChunk);
  if (codebook.layout().packed()) {
    uint16_t sums[kPqScanChunk];
    simd::PqAdcFastScan(state.lut.data(), codebook.num_subspaces(), codes, n,
                        sums);
    for (int j = 0; j < n; ++j) {
      out[j] = quant::PqCodebook::DequantizeFastScanSum(sums[j], state.scale,
                                                        state.bias);
    }
  } else {
    simd::PqAdcBatch(state.table.data(), codebook.num_subspaces(),
                     codebook.num_centroids(), codes, n, out);
  }
}

}  // namespace resinfer::core

#endif  // RESINFER_CORE_PQ_SCAN_H_
