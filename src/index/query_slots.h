// Per-query state slots behind the query-group API of DistanceComputer and
// core::ApproxDistanceEstimator.
//
// A computer's per-query state (rotated query, ADC tables, cascade bounds)
// is one struct, built by one function. QuerySlots implements the group API
// of either base class over it: BeginQuery rebuilds a solo slot,
// SetQueryBatch builds one slot per group member, and SelectQuery moves the
// current-slot pointer. The estimate paths read only query_state(), so a
// selected member is bit-identical to BeginQuery on its query, and
// BeginQuery between selects never touches a member's slot.
#ifndef RESINFER_INDEX_QUERY_SLOTS_H_
#define RESINFER_INDEX_QUERY_SLOTS_H_

#include <array>
#include <cstdint>

#include "util/macros.h"

namespace resinfer::index {

// Upper bound on the query-group sizes the library's computers support:
// the tiled scan paths keep per-member scratch (taus, per-member results,
// ADC table pointers) on the stack, sized by this. Multi-query entry points
// (IvfIndex::SearchBatch) chunk larger batches into groups of at most this
// many queries. 32 keeps the largest per-group scratch (32 queries x
// 32-candidate block of EstimateResults) at 8KB while giving co-probing
// queries enough company that popular buckets are streamed once for many
// members.
inline constexpr int kMaxQueryGroup = 32;

// The query group SetQueryBatch declares: member g's ORIGINAL-space query
// starts at queries + g * stride floats.
class QueryBatch {
 public:
  void Set(const float* queries, int count, int64_t stride, int64_t dim) {
    RESINFER_CHECK(queries != nullptr && count > 0 &&
                   count <= kMaxQueryGroup && stride >= dim);
    queries_ = queries;
    count_ = count;
    stride_ = stride;
  }

  const float* query(int g) const {
    RESINFER_DCHECK(queries_ != nullptr && g >= 0 && g < count_);
    return queries_ + static_cast<int64_t>(g) * stride_;
  }
  int count() const { return count_; }

 private:
  const float* queries_ = nullptr;
  int count_ = 0;
  int64_t stride_ = 0;
};

// `Base` is DistanceComputer or core::ApproxDistanceEstimator; both record
// the declared group in a protected QueryBatch `batch_`.
template <typename Base, typename State>
class QuerySlots : public Base {
 public:
  QuerySlots() = default;
  // current_ points into the object itself.
  QuerySlots(const QuerySlots&) = delete;
  QuerySlots& operator=(const QuerySlots&) = delete;

  void BeginQuery(const float* query) final {
    BuildQueryState(query, solo_);
    current_ = &solo_;
    query_ = query;
  }

  // Builds every member's slot; the current slot is left alone until
  // SelectQuery picks a member.
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) final {
    Base::SetQueryBatch(queries, count, stride);
    for (int g = 0; g < count; ++g) {
      BuildQueryState(this->batch_.query(g), members_[g]);
    }
  }

  void SelectQuery(int g) final {
    query_ = this->batch_.query(g);
    current_ = &members_[g];
  }

 protected:
  // The one function that writes a slot: fills `state` for one
  // ORIGINAL-space query.
  virtual void BuildQueryState(const float* query, State& state) = 0;

  const State& query_state() const { return *current_; }
  // Member g's slot, for the tiled group kernels that read every member.
  const State& member_state(int g) const {
    RESINFER_DCHECK(g >= 0 && g < this->batch_.count());
    return members_[g];
  }
  // The ORIGINAL-space query the current slot was built from.
  const float* query() const { return query_; }

 private:
  State solo_;
  std::array<State, kMaxQueryGroup> members_;
  const State* current_ = &solo_;
  const float* query_ = nullptr;
};

}  // namespace resinfer::index

#endif  // RESINFER_INDEX_QUERY_SLOTS_H_
