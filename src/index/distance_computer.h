// The distance-computation plug-in interface (the paper's central
// abstraction).
//
// Every AKNN index in this library routes candidate evaluation during the
// refinement phase through a DistanceComputer. The exact computer simply
// evaluates ||q - x||^2; the ADSampling / DDC computers implement the
// "estimate, correct, prune-or-refine" protocol of §III-§V:
//
//   EstimateWithThreshold(id, tau):
//     * pruned == true  -> the computer concluded dis(q, x_id) > tau at its
//       configured confidence; `distance` is an approximation (usable for
//       candidate ordering but NOT exact).
//     * pruned == false -> `distance` is the exact distance.
//
// Batch protocol (the block-scan refinement path):
//   EstimateBatch(ids, count, tau, out) evaluates `count` candidates and
//   writes out[i] for ids[i], in order. The contract every override must
//   honor:
//     * Equivalence: out[i] is bit-identical (same prune decision, same
//       distance down to floating-point rounding) to calling
//       EstimateWithThreshold(ids[i], tau) sequentially at the same SIMD
//       level. Overrides only amortize virtual calls, share query loads and
//       prefetch rows — they never reassociate per-candidate arithmetic.
//     * Stats: ComputerStats counters (candidates, pruned, dims_scanned,
//       exact_computations) advance exactly as the equivalent sequential
//       loop would, so scan-rate/pruned-rate figures stay comparable
//       between paths.
//     * tau semantics: tau is constant within a block — it is the caller's
//       result-queue bound at block start. Callers that tighten tau as
//       results arrive (IVF/HNSW scans) therefore prune slightly less than
//       a candidate-at-a-time loop: the extra candidates are refined
//       exactly, so recall is equal or better, but the returned top-k can
//       differ from a sequential scan's when the sequential path would have
//       mispruned one of them (pruning is a learned estimate). Block scans
//       are deterministic for a fixed block schedule, not bit-identical to
//       candidate-at-a-time search.
//
// Computers are stateful per query (BeginQuery rotates the query / builds
// lookup tables); use one computer instance per search thread.
#ifndef RESINFER_INDEX_DISTANCE_COMPUTER_H_
#define RESINFER_INDEX_DISTANCE_COMPUTER_H_

#include <cstdint>
#include <limits>
#include <string>

#include "index/query_slots.h"
#include "quant/code_store.h"
#include "util/macros.h"

namespace resinfer::index {

struct EstimateResult {
  bool pruned = false;
  float distance = 0.0f;
};

// Instrumentation for Fig 10 (scan-dimension ratio, pruned rate) and the
// general efficiency analysis of §VI.
struct ComputerStats {
  int64_t candidates = 0;          // EstimateWithThreshold calls
  int64_t pruned = 0;              // candidates rejected via the bound
  int64_t dims_scanned = 0;        // projection dims touched (proj. methods)
  int64_t exact_computations = 0;  // full-dimension evaluations

  void Reset() { *this = ComputerStats(); }

  // The only sanctioned way to merge counters (batch workers, bench
  // aggregation). Any counter added to this struct must be summed here —
  // field-by-field merging at call sites silently drops new fields, which
  // is exactly the bug this operator replaces.
  ComputerStats& operator+=(const ComputerStats& other) {
    candidates += other.candidates;
    pruned += other.pruned;
    dims_scanned += other.dims_scanned;
    exact_computations += other.exact_computations;
    return *this;
  }

  // Counter delta (serving folds per-group deltas of a cumulative computer
  // into guarded aggregate stats). Same every-field rule as operator+=.
  ComputerStats& operator-=(const ComputerStats& other) {
    candidates -= other.candidates;
    pruned -= other.pruned;
    dims_scanned -= other.dims_scanned;
    exact_computations -= other.exact_computations;
    return *this;
  }

  double PrunedRate() const {
    return candidates > 0 ? static_cast<double>(pruned) / candidates : 0.0;
  }
  // Average fraction of the full dimension scanned per candidate.
  double ScanRate(int64_t full_dim) const {
    return candidates > 0 && full_dim > 0
               ? static_cast<double>(dims_scanned) /
                     (static_cast<double>(candidates) * full_dim)
               : 0.0;
  }
};

class DistanceComputer {
 public:
  virtual ~DistanceComputer() = default;

  // Original (full) data dimensionality D.
  virtual int64_t dim() const = 0;
  // Number of indexable points.
  virtual int64_t size() const = 0;
  virtual std::string name() const = 0;

  // Prepares per-query state. `query` has dim() floats in the ORIGINAL
  // space; computers apply their own rotations internally.
  virtual void BeginQuery(const float* query) = 0;

  // The estimate/correct/prune protocol described above. `tau` is the
  // current result-queue threshold; pass +infinity to force an exact
  // computation path.
  virtual EstimateResult EstimateWithThreshold(int64_t id, float tau) = 0;

  // Evaluates a block of candidates against one threshold; see the batch
  // protocol contract in the header comment. The base implementation loops
  // over EstimateWithThreshold; computers with a cheaper blocked form
  // (contiguous rows, ADC table accumulation) override it.
  virtual void EstimateBatch(const int64_t* ids, int count, float tau,
                             EstimateResult* out);

  // --- Code-resident scan support (quant::CodeStore) ----------------------
  //
  // Computers whose estimation stage can decode straight from a packed code
  // stream report a non-empty code_tag() and override EstimateBatchCodes;
  // everyone else inherits the gather fallback below, so flat/HNSW paths
  // keep working unchanged.

  // Identifies the record layout this computer can scan (matches the tag of
  // the store MakeCodeStore builds). Empty = no code-resident support.
  virtual std::string code_tag() const { return {}; }

  // Packs this computer's per-point codes + sidecar features into an
  // id-ordered store (record i describes point i). Indexes permute it into
  // their own candidate order (IvfIndex::AttachCodes) and own the copy; the
  // returned store is otherwise independent of the computer. Empty store =
  // no code-resident support.
  virtual quant::CodeStore MakeCodeStore() const { return {}; }

  // Code-resident batch evaluation: candidate i's record starts at
  // codes + i * stride, where the layout (code_size, sidecars, stride) is
  // the one MakeCodeStore declares. `ids` still names the candidates —
  // exact refinement of survivors reads full-precision rows by id, exactly
  // like EstimateBatch. The equivalence/stats/tau contract above applies
  // verbatim: out[i] must be bit-identical to the id-gather path, so
  // code-capable computers run both entry points through one private block
  // scorer that reads records either gathered by id or at position *
  // stride in the stream. The default ignores the stream and gathers.
  virtual void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids,
                                  int count, float tau, EstimateResult* out) {
    (void)codes;
    EstimateBatch(ids, count, tau, out);
  }

  // --- Query-group serving (the multi-query batched path) -----------------
  //
  // IvfIndex::SearchBatch scans buckets query-major: a group of co-probing
  // queries shares each probed bucket's stream, so the computer must switch
  // between the group's queries cheaply. SetQueryBatch declares the group
  // (member g starts at queries + g * stride floats, count <=
  // kMaxQueryGroup); SelectQuery(g) makes member g current — equivalent to
  // BeginQuery(queries + g * stride) — after which every per-query entry
  // point above serves that member. Calling BeginQuery directly afterwards
  // reverts to plain single-query operation without disturbing the group:
  // a later SelectQuery(g) serves member g again.
  //
  // The base implementation records the group and calls BeginQuery on each
  // switch, which is correct for any computer whose per-query state is a
  // pointer. Computers with real per-query state (rotated queries, ADC
  // tables, cascade bounds) declare it once as a struct and derive from
  // QuerySlots (index/query_slots.h), which builds every member's state
  // once per group and makes SelectQuery a pointer move.
  virtual void SetQueryBatch(const float* queries, int count, int64_t stride);
  virtual void SelectQuery(int g);

  // Scores one candidate block for several group members in one call.
  // Equivalent to — and bit-identical with, ComputerStats included —
  //
  //   for (int j = 0; j < num_members; ++j) {
  //     SelectQuery(members[j]);
  //     EstimateBatch(ids, count, taus[j], out + j * count);
  //   }
  //
  // leaving the last listed member selected. `members` indexes into the
  // current query batch; `taus[j]` is member j's threshold. Overrides keep
  // that per-member contract but share the candidate loads across members
  // (the tiled kernels in simd/).
  virtual void EstimateBatchGroup(const int64_t* ids, int count,
                                  const int* members, int num_members,
                                  const float* taus, EstimateResult* out);

  // Code-resident counterpart: the equivalent loop calls
  // EstimateBatchCodes(codes, ids, count, taus[j], out + j * count).
  virtual void EstimateBatchCodesGroup(const uint8_t* codes,
                                       const int64_t* ids, int count,
                                       const int* members, int num_members,
                                       const float* taus,
                                       EstimateResult* out);

  // Scan-order hint for query-major bucket scans. True asks the index to
  // score each small candidate block for all members in one
  // EstimateBatch*Group call (profitable when per-query state is tiny —
  // the exact computer's query row — so the tiled kernels reuse candidate
  // loads from L1). False (the default) asks for member-major runs: one
  // member scans the whole bucket before the next, so a large per-query
  // table (PQ/RQ/OPQ ADC, ~tens of KB) stays cache-resident for a whole
  // run instead of being cycled through the cache on every block. Either
  // order is bit-identical per member; only memory behavior differs.
  virtual bool group_scan_tiles_blocks() const { return false; }

  // Exact distance to point `id` for the current query. Never touches
  // stats(): graph descents call it outside the estimate protocol, and
  // counting those calls would make one search report different counters
  // depending on the estimator (and inflate ScanRate, whose denominator is
  // `candidates`).
  virtual float ExactDistance(int64_t id) = 0;

  // Hook for graph indexes: called when the search expands node `node` so
  // that neighborhood-aware computers (FINGER) can switch their local
  // estimation context. `distance_to_node` is the (exact or approximate)
  // distance from the query to the expanded node. Default: ignore.
  virtual void SetExpansionAnchor(int64_t /*node*/,
                                  float /*distance_to_node*/) {}

  // Virtual so forwarding wrappers (e.g. the tracing wrapper of the
  // benchmark harness) can expose the wrapped computer's counters without
  // mirroring them on every call.
  virtual ComputerStats& stats() { return stats_; }
  virtual const ComputerStats& stats() const { return stats_; }

 protected:
  ComputerStats stats_;
  // The group declared by the base SetQueryBatch.
  QueryBatch batch_;
};

inline constexpr float kInfDistance = std::numeric_limits<float>::infinity();

// Exact squared-L2 computer over a row-major base owned elsewhere.
class FlatDistanceComputer : public DistanceComputer {
 public:
  // `base` (n x d) must outlive the computer.
  FlatDistanceComputer(const float* base, int64_t n, int64_t d);

  int64_t dim() const override { return dim_; }
  int64_t size() const override { return size_; }
  std::string name() const override { return "exact"; }

  void BeginQuery(const float* query) override { query_ = query; }
  EstimateResult EstimateWithThreshold(int64_t id, float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     EstimateResult* out) override;
  // Tiled: the four gathered candidate rows are scored for every group
  // member via simd::L2SqrTile while they are hot in L1.
  void EstimateBatchGroup(const int64_t* ids, int count, const int* members,
                          int num_members, const float* taus,
                          EstimateResult* out) override;
  // Per-query state is a single pointer, so block-level member tiling is
  // pure win (shared candidate loads, nothing to thrash).
  bool group_scan_tiles_blocks() const override { return true; }
  float ExactDistance(int64_t id) override;

 private:
  const float* base_;
  int64_t size_;
  int64_t dim_;
  const float* query_ = nullptr;
};

}  // namespace resinfer::index

#endif  // RESINFER_INDEX_DISTANCE_COMPUTER_H_
