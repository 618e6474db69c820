// Coalescing admission for online IVF serving.
//
// The grouped scan (IvfIndex::SearchBatchRange, PR 4) shares bucket
// streams and per-query setup across up to kMaxQueryGroup queries — but
// until now a caller had to materialize thousands of queries and pre-sort
// them by probe list to reach it. A server does not get that luxury:
// queries arrive one at a time, in arbitrary order, from many clients.
//
// IvfServer makes batching emerge from traffic instead. Submit(query, k,
// nprobe) ranks the query's probe centroids once (the same ranking Search
// would perform first — handing the list to SearchBatchRange means it is
// never paid twice) and files the request under the coalescing key
// (k, nprobe, lead centroid). Requests sharing a key accumulate into a
// pending group. Admission is work-conserving: a group is dispatched to
// the executor's FIFO (serve/executor.h) when
//
//   * a worker is free: fewer than num_threads groups are in flight (the
//     oldest pending group goes, from Submit or from the worker that just
//     completed a group — an idle dispatch), or
//   * it reaches max_group_size members (a full flush), or
//   * Flush()/Shutdown() drains it.
//
// So requests wait and coalesce only while every worker is busy: that is
// adaptive batching under saturation. Dispatching a group then would only
// move its wait from the admission side into the executor queue, as a
// needlessly small group; holding it costs no end-to-end latency to first
// order (the members wait either way) but lets it keep coalescing with
// incoming traffic, so occupancy (and throughput) rises exactly when the
// system needs it. On an idle server no request waits for company.
//
// Submit and group completion count in-flight groups and pick the next
// group under one lock, so no pending group can be left behind a free
// worker: whenever a group is pending, every worker has a group.
//
// Dispatched groups run through SearchBatchRange, whose contract makes
// every member's answer bit-identical to a solo Search(query, k, nprobe)
// — coalescing changes memory traffic and throughput, never results. Keys
// include k and nprobe so requests with different parameters are never
// mixed into one grouped scan.
//
// Lead-centroid affinity is deliberately coarse: queries whose nearest
// centroid agrees overlap heavily in their remaining probe lists (they are
// close in space), so grouping by the lead captures most of the co-probe
// sharing that full lexicographic sorting finds, at O(1) admission cost.
// An idle dispatch additionally tops the oldest group up to
// max_group_size with members of pending same-(k, nprobe) groups whose
// lead centroid is spatially closest to that group's lead (a
// centroid-to-centroid neighbor ranking computed once at construction) —
// each member carries its own probe list, so mixed leads stay
// bit-identical — which rebuilds the dense packing of a pre-sorted batch
// (whose groups also span several adjacent leads) from online traffic.
#ifndef RESINFER_SERVE_ADMISSION_H_
#define RESINFER_SERVE_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "index/batch.h"
#include "index/distance_computer.h"
#include "index/ivf_index.h"
#include "serve/executor.h"
#include "util/histogram.h"
#include "util/thread_annotations.h"

namespace resinfer::serve {

struct AdmissionOptions {
  // Executor width; <= 0 resolves to DefaultThreadCount().
  int num_threads = 0;
  // Coalescing cap per group, clamped to [1, index::kMaxQueryGroup] (the
  // grouped-scan tiling width — larger groups would be chunked anyway).
  int max_group_size = index::kMaxQueryGroup;
  // When false, every request is dispatched solo the moment it arrives —
  // the baseline an A/B against coalescing wants.
  bool coalesce = true;
};

struct ServingStats {
  int64_t requests = 0;
  int64_t groups = 0;           // groups dispatched
  int64_t full_flushes = 0;     // dispatched at max_group_size
  // Dispatched because a worker was free (an idle dispatch; the name
  // predates work-conserving admission).
  int64_t linger_flushes = 0;
  int64_t drain_flushes = 0;    // dispatched by Flush()/Shutdown()
  // Members per dispatched group; mean() is the achieved occupancy.
  Histogram group_occupancy;
  // Submit-to-completion wall per request (includes admission wait and
  // queueing — the latency a client observes, not just the scan).
  Histogram latency_seconds;
  // Computer counters summed across workers. Each dispatched group's
  // counter delta is folded in under the stats mutex when its scan
  // completes, so a snapshot is always coherent — it reflects exactly the
  // groups that had finished at snapshot time, and reading it concurrently
  // with in-flight searches is race-free. (This used to be an unguarded
  // sweep over the live worker computers, the kind of lock-discipline hole
  // the thread-safety annotations now make a compile error.)
  index::ComputerStats computer_stats;

  double MeanOccupancy() const { return group_occupancy.mean(); }
};

class IvfServer {
 public:
  // `index` and the computers `factory` builds must outlive the server;
  // one computer is built per executor worker up front. The index must
  // have at least one cluster.
  IvfServer(const index::IvfIndex* index, index::ComputerFactory factory);
  IvfServer(const index::IvfIndex* index, index::ComputerFactory factory,
            const AdmissionOptions& options);
  ~IvfServer();  // calls Shutdown()

  IvfServer(const IvfServer&) = delete;
  IvfServer& operator=(const IvfServer&) = delete;

  // Admits one query (dim() floats; copied, the caller's buffer may be
  // reused immediately). Thread-safe. The future resolves to the same
  // neighbors Search(computer, query, k, nprobe) returns, bit-identically;
  // k <= 0 resolves to an empty result without being grouped. Must not be
  // called once Shutdown has begun.
  std::future<std::vector<index::Neighbor>> Submit(const float* query, int k,
                                                   int nprobe)
      RESINFER_EXCLUDES(pending_mu_, stats_mu_);

  // Dispatches every pending group immediately, even while every worker is
  // busy. Does not wait for them to finish.
  void Flush() RESINFER_EXCLUDES(pending_mu_, stats_mu_);

  // Stops admission, drains pending groups, and waits for every in-flight
  // search to complete. Idempotent; the destructor calls it.
  void Shutdown() RESINFER_EXCLUDES(pending_mu_, stats_mu_);

  // Safe to call at any time, including while searches are in flight.
  ServingStats stats() const RESINFER_EXCLUDES(stats_mu_);
  Executor::Stats executor_stats() const { return executor_.stats(); }
  int num_threads() const { return executor_.num_threads(); }
  int64_t dim() const { return dim_; }

 private:
  struct GroupKey {
    int k = 0;
    int nprobe = 0;
    int32_t lead_centroid = 0;
    bool operator<(const GroupKey& other) const {
      if (k != other.k) return k < other.k;
      if (nprobe != other.nprobe) return nprobe < other.nprobe;
      return lead_centroid < other.lead_centroid;
    }
  };

  struct PendingGroup {
    GroupKey key;
    // Member queries back to back (count * dim floats) and their probe
    // lists (count * nprobe_used ids) — already the layout the grouped
    // scan wants.
    std::vector<float> queries;
    std::vector<int32_t> probes;
    std::vector<std::promise<std::vector<index::Neighbor>>> promises;
    // Members are appended as they are filed; front() dates the group.
    std::vector<std::chrono::steady_clock::time_point> admitted_at;
    int64_t count() const {
      return static_cast<int64_t>(promises.size());
    }
  };

  // Which ServingStats flush counter a dispatch adds to.
  enum class Trigger { kSolo, kFull, kIdle, kDrain };

  // Moves the group onto the executor. The caller has already counted it
  // in in_flight_.
  void Dispatch(std::shared_ptr<PendingGroup> group, Trigger trigger)
      RESINFER_EXCLUDES(pending_mu_, stats_mu_);
  // When a worker is free and a group is pending: removes the oldest
  // pending group, topped up with nearest-lead donors, and counts it in
  // in_flight_. Otherwise returns null.
  std::shared_ptr<PendingGroup> TakeGroupForIdleWorker()
      RESINFER_REQUIRES(pending_mu_);
  // Moves members from `from` into `to` up to max_group_size (both must
  // share (k, nprobe)).
  void TakeMembers(PendingGroup& from, PendingGroup& to)
      RESINFER_REQUIRES(pending_mu_);

  const index::IvfIndex* index_;
  int64_t dim_ = 0;
  AdmissionOptions options_;
  // Row c: centroid ids nearest centroid c (c itself first), used to pick
  // spatially-adjacent donors when topping up a dispatched group. Capped
  // at kNeighborLeads entries per centroid; immutable after construction.
  static constexpr int kNeighborLeads = 64;
  std::vector<std::vector<int32_t>> centroid_neighbors_;

  Executor executor_;
  std::vector<std::unique_ptr<index::DistanceComputer>> computers_;

  // Lock order: pending_mu_ and stats_mu_ are never held together —
  // Submit, Dispatch, Flush, and group completion all drop one before
  // taking the other.
  mutable util::Mutex pending_mu_;
  std::map<GroupKey, std::shared_ptr<PendingGroup>> pending_
      RESINFER_GUARDED_BY(pending_mu_);
  // Groups dispatched and not yet completed (queued or running). Whenever
  // pending_ is non-empty, in_flight_ >= num_threads().
  int64_t in_flight_ RESINFER_GUARDED_BY(pending_mu_) = 0;
  bool shut_down_ RESINFER_GUARDED_BY(pending_mu_) = false;

  mutable util::Mutex stats_mu_;
  ServingStats stats_ RESINFER_GUARDED_BY(stats_mu_);
};

}  // namespace resinfer::serve

#endif  // RESINFER_SERVE_ADMISSION_H_
