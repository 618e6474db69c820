#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/macros.h"

namespace resinfer {

namespace {
std::atomic<int> g_thread_count{0};  // 0 = env override, then hardware

// Parses RESINFER_THREADS on every call (it is consulted once per batch /
// executor construction, never per query) so tests can flip the variable
// without ordering constraints. Returns 0 when unset or invalid.
int EnvThreadCount() {
  const char* env = std::getenv("RESINFER_THREADS");
  if (env == nullptr || env[0] == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end != nullptr && *end == '\0' && value > 0 && value <= 1 << 20) {
    return static_cast<int>(value);
  }
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "resinfer: ignoring invalid RESINFER_THREADS=%s "
                 "(expected a positive integer)\n",
                 env);
  }
  return 0;
}
}  // namespace

int DefaultThreadCount() {
  int configured = g_thread_count.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  if (int env = EnvThreadCount(); env > 0) return env;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(int requested) {
  return requested > 0 ? requested : DefaultThreadCount();
}

void SetDefaultThreadCount(int threads) {
  RESINFER_CHECK(threads >= 0);
  g_thread_count.store(threads, std::memory_order_relaxed);
}

void ParallelFor(int64_t n,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  int threads = std::min<int64_t>(DefaultThreadCount(), n);
  if (threads <= 1 || n < 1024) {
    fn(0, n);
    return;
  }
  int64_t chunk = (n + threads - 1) / threads;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    int64_t begin = t * chunk;
    int64_t end = std::min<int64_t>(begin + chunk, n);
    if (begin >= end) break;
    workers.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (auto& w : workers) w.join();
}

namespace {

// fn(i, t) for i in [0, n) on `threads` threads that claim `grain` indices
// per atomic increment; the caller has checked threads > 1.
void RunDynamic(int64_t n, int threads, int64_t grain,
                const std::function<void(int64_t, int)>& fn) {
  std::atomic<int64_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&next, &fn, n, grain, t] {
      while (true) {
        int64_t begin = next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) return;
        int64_t end = std::min<int64_t>(begin + grain, n);
        for (int64_t i = begin; i < end; ++i) fn(i, t);
      }
    });
  }
  for (auto& w : workers) w.join();
}

}  // namespace

void ParallelForEach(int64_t n,
                     const std::function<void(int64_t, int)>& fn) {
  if (n <= 0) return;
  int threads = std::min<int64_t>(DefaultThreadCount(), n);
  if (threads <= 1 || n < 256) {
    for (int64_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  // Grab moderately sized batches to amortize the atomic increment while
  // keeping load balanced for skewed per-item costs.
  RunDynamic(n, threads, /*grain=*/64, fn);
}

void ParallelForEachCostly(int64_t n, int threads,
                           const std::function<void(int64_t, int)>& fn) {
  if (n <= 0) return;
  threads = static_cast<int>(std::min<int64_t>(threads, n));
  if (threads <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  RunDynamic(n, threads, /*grain=*/1, fn);
}

}  // namespace resinfer
