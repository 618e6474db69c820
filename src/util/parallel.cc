#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
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

// The one fork-join loop: fn(i, t) for i in [0, n) on `threads` threads,
// the caller running as t = 0 beside threads - 1 started for this call.
// Each thread claims `grain` indices per atomic increment. The first
// exception stops the hand-out and is rethrown on the caller once every
// thread has joined.
void ForkJoin(int64_t n, int threads, int64_t grain,
              const std::function<void(int64_t, int)>& fn) {
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written by the first thrower only
  const auto work = [&](int t) {
    try {
      int64_t begin;
      while ((begin = next.fetch_add(grain, std::memory_order_relaxed)) < n) {
        const int64_t end = std::min(begin + grain, n);
        for (int64_t i = begin; i < end; ++i) fn(i, t);
      }
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
      next.store(n, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) workers.emplace_back(work, t);
  work(0);
  for (auto& w : workers) w.join();
  if (error != nullptr) std::rethrow_exception(error);
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
  const int64_t threads =
      n < 1024 ? 1 : std::min<int64_t>(DefaultThreadCount(), n);
  const int64_t chunk = (n + threads - 1) / threads;
  const int64_t chunks = (n + chunk - 1) / chunk;
  ForkJoin(chunks, static_cast<int>(chunks), /*grain=*/1,
           [&fn, n, chunk](int64_t c, int) {
             fn(c * chunk, std::min(c * chunk + chunk, n));
           });
}

void ParallelForEach(int64_t n,
                     const std::function<void(int64_t, int)>& fn) {
  if (n <= 0) return;
  const int threads = static_cast<int>(
      n < 256 ? 1 : std::min<int64_t>(DefaultThreadCount(), n));
  // Moderately sized grains amortize the atomic increment while keeping
  // load balanced for skewed per-item costs.
  ForkJoin(n, threads, /*grain=*/64, fn);
}

void ParallelForEachCostly(int64_t n, int threads,
                           const std::function<void(int64_t, int)>& fn) {
  if (n <= 0) return;
  ForkJoin(n, static_cast<int>(std::clamp<int64_t>(threads, 1, n)),
           /*grain=*/1, fn);
}

}  // namespace resinfer
