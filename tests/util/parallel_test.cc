#include "util/parallel.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

namespace resinfer {
namespace {

TEST(ParallelTest, ParallelForCoversRangeExactlyOnce) {
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  ParallelFor(kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelTest, ParallelForEachCoversRangeExactlyOnce) {
  constexpr int64_t kN = 5000;
  std::vector<std::atomic<int>> touched(kN);
  ParallelForEach(kN, [&](int64_t i, int /*thread*/) {
    touched[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelTest, ParallelForEachCostlyStaysWithinItsThreads) {
  // Callers size per-thread state by `threads`, so every thread_id must
  // stay below it, and short ranges still cover every index once.
  for (int threads : {1, 3}) {
    for (int64_t n : {0, 1, 2, 7, 128}) {
      std::vector<std::atomic<int>> touched(static_cast<std::size_t>(n));
      std::atomic<int> out_of_range{0};
      ParallelForEachCostly(n, threads, [&](int64_t i, int thread_id) {
        if (thread_id < 0 || thread_id >= threads) out_of_range.fetch_add(1);
        touched[static_cast<std::size_t>(i)].fetch_add(1);
      });
      EXPECT_EQ(out_of_range.load(), 0) << "threads=" << threads;
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(touched[static_cast<std::size_t>(i)].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParallelTest, ThrowingFnRethrowsOnCallerAndNextCallRuns) {
  // A throw on a started thread would std::terminate if it escaped the
  // thread body; the loop must hand it to the caller instead, at one thread
  // (inline) and at several, and leave nothing behind that upsets the
  // next call.
  for (int threads : {1, 4}) {
    SetDefaultThreadCount(threads);
    EXPECT_THROW(ParallelFor(10000,
                             [](int64_t begin, int64_t) {
                               if (begin == 0) throw std::runtime_error("a");
                             }),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_THROW(ParallelForEach(5000,
                                 [](int64_t i, int) {
                                   if (i == 300) throw std::logic_error("b");
                                 }),
                 std::logic_error)
        << "threads=" << threads;
    EXPECT_THROW(ParallelForEachCostly(64, threads,
                                       [](int64_t i, int) {
                                         if (i % 8 == 3) throw std::bad_cast();
                                       }),
                 std::bad_cast)
        << "threads=" << threads;

    std::atomic<int64_t> sum{0};
    ParallelFor(10000, [&](int64_t begin, int64_t end) {
      sum.fetch_add(end - begin);
    });
    ParallelForEach(5000, [&](int64_t, int) { sum.fetch_add(1); });
    ParallelForEachCostly(64, threads,
                          [&](int64_t, int) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 10000 + 5000 + 64) << "threads=" << threads;
  }
  SetDefaultThreadCount(0);
}

TEST(ParallelTest, ThreadZeroIsTheCaller) {
  // The caller takes part as thread_id 0, so per-thread state slot 0 and
  // the caller's thread_locals are the same thread's. The other threads
  // hold their first index until thread 0 has run one, so the caller is
  // certain to get work however the threads are scheduled.
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {1, 3}) {
    std::atomic<bool> zero_ran{false};
    std::atomic<int> zero_elsewhere{0};
    std::atomic<int> others_on_caller{0};
    ParallelForEachCostly(64, threads, [&](int64_t, int thread_id) {
      const bool on_caller = std::this_thread::get_id() == caller;
      if (thread_id == 0) {
        if (!on_caller) zero_elsewhere.fetch_add(1);
        zero_ran.store(true);
        return;
      }
      if (on_caller) others_on_caller.fetch_add(1);
      while (!zero_ran.load()) std::this_thread::yield();
    });
    EXPECT_TRUE(zero_ran.load()) << "threads=" << threads;
    EXPECT_EQ(zero_elsewhere.load(), 0) << "threads=" << threads;
    EXPECT_EQ(others_on_caller.load(), 0) << "threads=" << threads;
  }
}

TEST(ParallelTest, EmptyAndSmallRanges) {
  int calls = 0;
  ParallelFor(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(1, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, ThreadCountOverride) {
  int saved = DefaultThreadCount();
  SetDefaultThreadCount(1);
  EXPECT_EQ(DefaultThreadCount(), 1);
  // With one thread the callback thread_id is always 0.
  ParallelForEach(2000, [&](int64_t, int thread_id) {
    EXPECT_EQ(thread_id, 0);
  });
  SetDefaultThreadCount(0);  // restore auto
  EXPECT_GE(DefaultThreadCount(), 1);
  SetDefaultThreadCount(saved == DefaultThreadCount() ? 0 : 0);
}

TEST(ParallelTest, EnvThreadOverride) {
  // RESINFER_THREADS mirrors RESINFER_SIMD_LEVEL: a run-without-recompiling
  // override, consulted when no explicit SetDefaultThreadCount is active.
  SetDefaultThreadCount(0);
  ::setenv("RESINFER_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3);
  // Invalid values are ignored (hardware fallback, >= 1).
  ::setenv("RESINFER_THREADS", "zero", 1);
  EXPECT_GE(DefaultThreadCount(), 1);
  ::setenv("RESINFER_THREADS", "-2", 1);
  EXPECT_GE(DefaultThreadCount(), 1);
  // An explicit SetDefaultThreadCount beats the environment.
  ::setenv("RESINFER_THREADS", "3", 1);
  SetDefaultThreadCount(2);
  EXPECT_EQ(DefaultThreadCount(), 2);
  SetDefaultThreadCount(0);
  ::unsetenv("RESINFER_THREADS");
}

TEST(ParallelTest, ResolveThreadCountClampsNonPositiveToDefault) {
  SetDefaultThreadCount(5);
  EXPECT_EQ(ResolveThreadCount(2), 2);
  EXPECT_EQ(ResolveThreadCount(0), 5);
  // Accidental negatives (e.g. an uninitialized BatchOptions::num_threads
  // sentinel) clamp to the default instead of flowing into thread math.
  EXPECT_EQ(ResolveThreadCount(-1), 5);
  EXPECT_EQ(ResolveThreadCount(-100), 5);
  SetDefaultThreadCount(0);
}

TEST(ParallelTest, ResultsMatchSequential) {
  constexpr int64_t kN = 100000;
  std::vector<double> values(kN);
  for (int64_t i = 0; i < kN; ++i) values[i] = 0.5 * i;
  std::vector<double> out(kN);
  ParallelFor(kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) out[i] = values[i] * 2.0;
  });
  for (int64_t i = 0; i < kN; i += 997) EXPECT_DOUBLE_EQ(out[i], values[i] * 2);
}

}  // namespace
}  // namespace resinfer
