// Outside-in layer tracing for bench_resinfer.
//
// Every span is recorded on the benchmark's side of a call into the
// library; nothing inside src/ is instrumented. Two mechanisms cover the
// layers:
//
//   * Tracer::Time wraps a direct call into a module's public function
//     (PCA fit, OPQ training, index build, Save*/Load*, kernel probes).
//   * TracingComputer wraps each worker's DistanceComputer. It forwards
//     every virtual of the interface and times each call, so the index
//     layer's calls into core become visible from outside. A scan group
//     runs from SetQueryBatch (or BeginQuery, a group of one) to the
//     group's last computer call; the time the index spends between
//     computer calls is the index layer's self time.
//
// The false-prune audit samples 1 in 256 estimate calls per query by a hash
// of (query, first candidate id). For every candidate such a call pruned
// it recomputes the exact distance from the base rows itself -- never
// through the wrapped computer -- and counts those with exact <= tau:
// candidates the corrector pruned although they would have entered the
// result queue. Sampling whole calls keeps the per-candidate cost of the
// trace at zero; the audited candidates are a few per query.
//
// Spans are kept in memory and written at exit as Chrome trace-event JSON
// (open it at ui.perfetto.dev or chrome://tracing).
#ifndef RESBENCH_TRACE_H_
#define RESBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "index/distance_computer.h"
#include "linalg/matrix.h"
#include "simd/kernels.h"

namespace resbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cycle counter for timing single computer calls: a steady_clock read
// costs tens of ns on virtualized hosts, as much as a short call. Assumes
// an invariant TSC (constant_tsc), which every x86 host of the last decade
// has; elsewhere it falls back to steady_clock.
inline uint64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(NowNs());
#endif
}

// Nanoseconds per tick, calibrated once against steady_clock over 20 ms.
inline double NsPerTick() {
  static const double ns_per_tick = [] {
#if defined(__x86_64__) || defined(__i386__)
    const int64_t t0 = NowNs();
    const uint64_t c0 = Ticks();
    while (NowNs() - t0 < 20000000) {
    }
    const int64_t t1 = NowNs();
    const uint64_t c1 = Ticks();
    return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
#else
    return 1.0;
#endif
  }();
  return ns_per_tick;
}

// splitmix64 finalizer.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// Identity of a query by its bytes: serve requests are matched to the
// scan groups that served them through this hash.
inline uint64_t HashQuery(const float* query, int64_t dim) {
  const std::size_t bytes = static_cast<std::size_t>(dim) * sizeof(float);
  uint64_t h = 0x243F6A8885A308D3ull ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, reinterpret_cast<const char*>(query) + i, 8);
    h = (h ^ word) * 0x100000001B3ull;
  }
  for (; i < bytes; ++i) {
    h = (h ^ static_cast<uint8_t>(reinterpret_cast<const char*>(query)[i])) *
        0x100000001B3ull;
  }
  return Mix64(h);
}

// One timed call. `name` is "<layer>.<call>" with static storage.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;   // span id of the caller, -1 at the root
  int64_t request = -1;  // shared by every span of one serve request
  int tid = 0;
};

// One scan group as one TracingComputer saw it.
struct GroupRecord {
  int64_t start_ns = 0;  // SetQueryBatch / BeginQuery entry
  int64_t end_ns = 0;    // return of the group's last computer call
  int tid = 0;
  int members = 0;
  int64_t setup_ns = 0;     // BeginQuery / SetQueryBatch
  int64_t estimate_ns = 0;  // Estimate* calls (estimate, correct, prune,
                            // exact rescore of survivors)
  int64_t exact_ns = 0;     // ExactDistance calls
  int64_t other_ns = 0;     // SelectQuery, SetExpansionAnchor
  int64_t audit_ns = 0;     // false-prune audit, excluded from busy time
  resinfer::index::ComputerStats stats;  // counter delta over the group
  int64_t audited = 0;
  int64_t false_prunes = 0;
  std::vector<uint64_t> member_hashes;

  int64_t BusyNs() const { return end_ns - start_ns - audit_ns; }
  int64_t CoreNs() const { return setup_ns + estimate_ns + exact_ns + other_ns; }
};

class Tracer {
 public:
  // The audit compares rows of `audit_base` with queries mapped into that
  // row space by `to_audit_space` (identity when empty); `audit_base`
  // must outlive the tracer and every computer wrapping it.
  Tracer(const resinfer::linalg::Matrix* audit_base,
         std::function<void(const float*, float*)> to_audit_space)
      : audit_base_(audit_base),
        to_audit_space_(std::move(to_audit_space)),
        origin_ns_(NowNs()) {
    NsPerTick();  // calibrate before anything is measured
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t AddSpan(const char* name, int64_t start_ns, int64_t end_ns,
                  int64_t parent = -1, int64_t request = -1, int tid = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.id = next_span_id_++;
    span.parent = parent;
    span.request = request;
    span.tid = tid;
    spans_.push_back(span);
    return span.id;
  }

  void AddGroups(std::vector<GroupRecord> groups) {
    std::lock_guard<std::mutex> lock(mu_);
    for (GroupRecord& g : groups) groups_.push_back(std::move(g));
  }

  std::vector<GroupRecord> TakeGroups() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(groups_);
  }

  int NextTid() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_tid_++;
  }

  // 1 in 256 estimate calls, keyed by (query, first candidate id) so runs
  // reproduce.
  static bool SampledForAudit(uint64_t query_hash, int64_t first_id) {
    return ((query_hash ^ static_cast<uint64_t>(first_id)) *
            0x9E3779B97F4A7C15ull) >> 56 == 0;
  }

  int64_t audit_dim() const { return audit_base_->cols(); }
  bool has_audit_transform() const { return to_audit_space_ != nullptr; }
  void ToAuditSpace(const float* query, float* out) const {
    to_audit_space_(query, out);
  }
  // Exact squared L2 between `audit_query` (already in audit space) and
  // base row `id`.
  float AuditDistance(const float* audit_query, int64_t id) const {
    return resinfer::simd::L2Sqr(audit_base_->Row(id), audit_query,
                                 static_cast<std::size_t>(audit_dim()));
  }

  // Writes spans and scan groups as Chrome trace events, capped at
  // `max_events` (the first events in time order are kept).
  bool WriteChromeTrace(const std::string& path, std::size_t max_events) {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    std::size_t written = 0;
    bool first = true;
    const auto us = [this](int64_t ns) {
      return static_cast<double>(ns - origin_ns_) / 1e3;
    };
    for (const Span& s : spans_) {
      if (written >= max_events) break;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"id\":%lld,\"parent\":%lld,"
                   "\"request\":%lld}}\n",
                   first ? "" : ",", s.name, LayerLength(s.name), s.name,
                   us(s.start_ns), static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   s.tid, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
      first = false;
      ++written;
    }
    for (const GroupRecord& g : groups_) {
      if (written >= max_events) break;
      std::fprintf(
          f,
          "%s{\"name\":\"index.group\",\"cat\":\"index\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
          "\"members\":%d,\"core_setup_us\":%.3f,\"core_estimate_us\":%.3f,"
          "\"core_exact_us\":%.3f,\"candidates\":%lld,\"pruned\":%lld,"
          "\"exact\":%lld}}\n",
          first ? "" : ",", us(g.start_ns),
          static_cast<double>(g.end_ns - g.start_ns) / 1e3, g.tid, g.members,
          static_cast<double>(g.setup_ns) / 1e3,
          static_cast<double>(g.estimate_ns) / 1e3,
          static_cast<double>(g.exact_ns) / 1e3,
          static_cast<long long>(g.stats.candidates),
          static_cast<long long>(g.stats.pruned),
          static_cast<long long>(g.stats.exact_computations));
      first = false;
      ++written;
    }
    const std::size_t total = spans_.size() + groups_.size();
    std::fprintf(f, "],\"otherData\":{\"events\":%zu,\"dropped\":%zu}}\n",
                 total, total - written);
    return std::fclose(f) == 0;
  }

 private:
  static int LayerLength(const char* name) {
    const char* dot = std::strchr(name, '.');
    return dot == nullptr ? static_cast<int>(std::strlen(name))
                          : static_cast<int>(dot - name);
  }

  const resinfer::linalg::Matrix* audit_base_;
  std::function<void(const float*, float*)> to_audit_space_;
  const int64_t origin_ns_;

  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<GroupRecord> groups_;
  int64_t next_span_id_ = 0;
  int next_tid_ = 1;  // 0 is the benchmark's main thread
};

// Times `fn` as one call into a layer: adds its seconds to `*seconds` and,
// when `tracer` is non-null, records a span.
template <typename Fn>
void TimeLayer(Tracer* tracer, const char* name, double* seconds, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  *seconds += static_cast<double>(end - start) / 1e9;
  if (tracer != nullptr) tracer->AddSpan(name, start, end);
}

// Forwarding DistanceComputer that times every call of the wrapped one.
// One instance per worker thread, like the computers it wraps; its group
// records reach the tracer when it is destroyed.
class TracingComputer final : public resinfer::index::DistanceComputer {
 public:
  using EstimateResult = resinfer::index::EstimateResult;

  TracingComputer(std::unique_ptr<resinfer::index::DistanceComputer> inner,
                  Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer), tid_(tracer->NextTid()) {}

  ~TracingComputer() override {
    CloseGroup();
    tracer_->AddGroups(std::move(groups_));
  }

  TracingComputer(const TracingComputer&) = delete;
  TracingComputer& operator=(const TracingComputer&) = delete;

  int64_t dim() const override { return inner_->dim(); }
  int64_t size() const override { return inner_->size(); }
  std::string name() const override { return inner_->name(); }

  void BeginQuery(const float* query) override {
    const int64_t start_ns = NowNs();
    const uint64_t start = Ticks();
    inner_->BeginQuery(query);
    OpenGroup(start_ns, start, query, 1, 0);
    Account(&ticks_.setup, start);
  }

  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override {
    const int64_t start_ns = NowNs();
    const uint64_t start = Ticks();
    inner_->SetQueryBatch(queries, count, stride);
    OpenGroup(start_ns, start, queries, count, stride);
    Account(&ticks_.setup, start);
  }

  void SelectQuery(int g) override {
    const uint64_t start = Ticks();
    inner_->SelectQuery(g);
    Account(&ticks_.other, start);
    current_ = g;
  }

  EstimateResult EstimateWithThreshold(int64_t id, float tau) override {
    const uint64_t start = Ticks();
    const EstimateResult result = inner_->EstimateWithThreshold(id, tau);
    Account(&ticks_.estimate, start);
    AuditBlock(current_, &id, 1, tau, &result);
    return result;
  }

  void EstimateBatch(const int64_t* ids, int count, float tau,
                     EstimateResult* out) override {
    const uint64_t start = Ticks();
    inner_->EstimateBatch(ids, count, tau, out);
    Account(&ticks_.estimate, start);
    AuditBlock(current_, ids, count, tau, out);
  }

  std::string code_tag() const override { return inner_->code_tag(); }
  resinfer::quant::CodeStore MakeCodeStore() const override {
    return inner_->MakeCodeStore();
  }

  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids, int count,
                          float tau, EstimateResult* out) override {
    const uint64_t start = Ticks();
    inner_->EstimateBatchCodes(codes, ids, count, tau, out);
    Account(&ticks_.estimate, start);
    AuditBlock(current_, ids, count, tau, out);
  }

  void EstimateBatchGroup(const int64_t* ids, int count, const int* members,
                          int num_members, const float* taus,
                          EstimateResult* out) override {
    const uint64_t start = Ticks();
    inner_->EstimateBatchGroup(ids, count, members, num_members, taus, out);
    Account(&ticks_.estimate, start);
    AuditMembers(ids, count, members, num_members, taus, out);
  }

  void EstimateBatchCodesGroup(const uint8_t* codes, const int64_t* ids,
                               int count, const int* members, int num_members,
                               const float* taus,
                               EstimateResult* out) override {
    const uint64_t start = Ticks();
    inner_->EstimateBatchCodesGroup(codes, ids, count, members, num_members,
                                    taus, out);
    Account(&ticks_.estimate, start);
    AuditMembers(ids, count, members, num_members, taus, out);
  }

  bool group_scan_tiles_blocks() const override {
    return inner_->group_scan_tiles_blocks();
  }

  float ExactDistance(int64_t id) override {
    const uint64_t start = Ticks();
    const float d = inner_->ExactDistance(id);
    Account(&ticks_.exact, start);
    return d;
  }

  void SetExpansionAnchor(int64_t node, float distance_to_node) override {
    const uint64_t start = Ticks();
    inner_->SetExpansionAnchor(node, distance_to_node);
    Account(&ticks_.other, start);
  }

  resinfer::index::ComputerStats& stats() override { return inner_->stats(); }
  const resinfer::index::ComputerStats& stats() const override {
    return inner_->stats();
  }

 private:
  // Tick counts of the open group, converted to ns when it closes.
  struct OpenTicks {
    uint64_t start = 0, last_end = 0;
    uint64_t setup = 0, estimate = 0, exact = 0, other = 0, audit = 0;
  };

  void Account(uint64_t* bucket, uint64_t start) {
    const uint64_t end = Ticks();
    *bucket += end - start;
    ticks_.last_end = end;
  }

  void OpenGroup(int64_t start_ns, uint64_t start, const float* queries,
                 int count, int64_t stride) {
    CloseGroup();
    ticks_ = OpenTicks();
    ticks_.start = start;
    open_ = GroupRecord();
    open_.start_ns = start_ns;
    open_.tid = tid_;
    open_.members = count;
    open_.member_hashes.resize(static_cast<std::size_t>(count));
    for (int g = 0; g < count; ++g) {
      open_.member_hashes[static_cast<std::size_t>(g)] =
          HashQuery(queries + g * stride, inner_->dim());
    }
    queries_ = queries;
    stride_ = stride;
    current_ = 0;
    audit_ready_.assign(static_cast<std::size_t>(count), false);
    audit_queries_.resize(static_cast<std::size_t>(count * inner_->dim()));
    stats_before_ = inner_->stats();
    group_open_ = true;
  }

  void CloseGroup() {
    if (!group_open_) return;
    const double k = NsPerTick();
    const auto ns = [k](uint64_t ticks) {
      return static_cast<int64_t>(static_cast<double>(ticks) * k);
    };
    open_.end_ns = open_.start_ns + ns(ticks_.last_end - ticks_.start);
    open_.setup_ns = ns(ticks_.setup);
    open_.estimate_ns = ns(ticks_.estimate);
    open_.exact_ns = ns(ticks_.exact);
    open_.other_ns = ns(ticks_.other);
    open_.audit_ns = ns(ticks_.audit);
    open_.stats = inner_->stats();
    open_.stats -= stats_before_;
    groups_.push_back(std::move(open_));
    group_open_ = false;
  }

  void AuditMembers(const int64_t* ids, int count, const int* members,
                    int num_members, const float* taus,
                    const EstimateResult* out) {
    for (int j = 0; j < num_members; ++j) {
      AuditBlock(members[j], ids, count, taus[j], out + j * count);
    }
    if (num_members > 0) current_ = members[num_members - 1];
  }

  void AuditBlock(int member, const int64_t* ids, int count, float tau,
                  const EstimateResult* out) {
    if (!group_open_ || count == 0 ||
        !Tracer::SampledForAudit(
            open_.member_hashes[static_cast<std::size_t>(member)], ids[0])) {
      return;
    }
    const uint64_t start = Ticks();
    for (int i = 0; i < count; ++i) {
      if (!out[i].pruned) continue;
      ++open_.audited;
      if (tracer_->AuditDistance(AuditQuery(member), ids[i]) <= tau) {
        ++open_.false_prunes;
      }
    }
    ticks_.audit += Ticks() - start;
  }

  const float* AuditQuery(int member) {
    const float* query = queries_ + member * stride_;
    if (!tracer_->has_audit_transform()) return query;
    float* mapped = audit_queries_.data() + member * inner_->dim();
    if (!audit_ready_[static_cast<std::size_t>(member)]) {
      tracer_->ToAuditSpace(query, mapped);
      audit_ready_[static_cast<std::size_t>(member)] = true;
    }
    return mapped;
  }

  std::unique_ptr<resinfer::index::DistanceComputer> inner_;
  Tracer* tracer_;
  const int tid_;

  bool group_open_ = false;
  GroupRecord open_;
  OpenTicks ticks_;
  resinfer::index::ComputerStats stats_before_;
  const float* queries_ = nullptr;
  int64_t stride_ = 0;
  int current_ = 0;
  std::vector<bool> audit_ready_;
  std::vector<float> audit_queries_;
  std::vector<GroupRecord> groups_;
};

}  // namespace resbench

#endif  // RESBENCH_TRACE_H_
