// The library's one fork-join primitive, for embarrassingly parallel loops
// (ground truth, k-means assignment, HNSW construction, batch search).
// Every call starts threads - 1 std::threads and runs the caller as
// thread_id 0; the threads claim indices from one atomic cursor and are
// joined before the call returns. An exception thrown by fn stops the
// hand-out and is rethrown on the caller after the join.
#ifndef RESINFER_UTIL_PARALLEL_H_
#define RESINFER_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace resinfer {

// Number of worker threads used by ParallelFor and the serving executor.
// Resolution order: SetDefaultThreadCount (explicit, for tests and
// single-thread benchmarking), then the RESINFER_THREADS environment
// variable (a positive integer, mirroring RESINFER_SIMD_LEVEL's
// run-without-recompiling override; invalid values are ignored with a
// one-time stderr note), then hardware concurrency.
int DefaultThreadCount();
void SetDefaultThreadCount(int threads);

// Resolves a caller-requested thread count: positive values pass through,
// zero and negative values (e.g. a BatchOptions::num_threads accidentally
// initialized to -1) clamp to DefaultThreadCount().
int ResolveThreadCount(int requested);

// Invokes fn(begin, end) on one contiguous shard of [0, n) per thread. fn
// must be thread-safe across disjoint ranges. Runs inline when n < 1024 or
// only one thread is configured.
void ParallelFor(int64_t n,
                 const std::function<void(int64_t begin, int64_t end)>& fn);

// Per-index convenience wrapper: fn(i, thread_id) for i in [0, n), handed
// out 64 indices at a time. Runs inline when n < 256.
void ParallelForEach(
    int64_t n, const std::function<void(int64_t index, int thread_id)>& fn);

// fn(i, thread_id) for i in [0, n) on at most `threads` threads, so
// thread_id < threads and callers can size per-thread state up front.
// Hands out one index at a time: for short loops of costly items (one HNSW
// insertion, one batch query group), where ParallelForEach's 64-item grain
// would leave threads idle. Runs inline when n or threads is at most one.
void ParallelForEachCostly(
    int64_t n, int threads,
    const std::function<void(int64_t index, int thread_id)>& fn);

}  // namespace resinfer

#endif  // RESINFER_UTIL_PARALLEL_H_
