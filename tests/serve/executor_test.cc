// Work-stealing executor conformance: every task runs exactly once no
// matter which queue it entered through, imbalance is corrected by
// stealing, task-spawned tasks are always drained, and shutdown is clean
// with work still queued. The CI TSan job runs this suite — the scheduling
// assertions double as race detectors.
#include "serve/executor.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.h"

namespace resinfer::serve {
namespace {

TEST(ServeExecutorTest, ExecutesEverySubmittedTaskExactlyOnce) {
  Executor::Options options;
  options.num_threads = 3;
  Executor executor(options);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> ran(kTasks);
  WaitGroup wait;
  wait.Add(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    executor.Submit([&, i](int worker) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 3);
      ran[i].fetch_add(1);
      wait.Done();
    });
  }
  wait.Wait();
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  executor.Shutdown();
  Executor::Stats stats = executor.stats();
  EXPECT_EQ(stats.executed, kTasks);
  EXPECT_EQ(stats.admitted, kTasks);  // all entered via the shared queue
  ASSERT_EQ(stats.busy_seconds.size(), 3u);
}

TEST(ServeExecutorTest, SubmitToPreDistributesAcrossDeques) {
  Executor::Options options;
  options.num_threads = 2;
  Executor executor(options);
  constexpr int kTasks = 100;
  std::atomic<int> ran{0};
  WaitGroup wait;
  wait.Add(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    executor.SubmitTo(i % 2, [&](int) {
      ran.fetch_add(1);
      wait.Done();
    });
  }
  wait.Wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ServeExecutorTest, IdleWorkerStealsFromSkewedDeque) {
  // Every task lands on worker 0's deque and each costs ~1ms, so the
  // backlog stays non-empty for tens of milliseconds no matter how
  // submission interleaves with execution (this box may have one core).
  // Worker 1's own deque never receives work: any progress it makes is a
  // steal, and the slow victim guarantees it gets the chance.
  Executor::Options options;
  options.num_threads = 2;
  Executor executor(options);
  constexpr int kTasks = 64;
  std::atomic<int> ran_on_other{0};
  WaitGroup wait;
  wait.Add(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    executor.SubmitTo(0, [&](int worker) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (worker != 0) ran_on_other.fetch_add(1);
      wait.Done();
    });
  }
  wait.Wait();
  executor.Shutdown();
  EXPECT_GT(ran_on_other.load(), 0);
  EXPECT_GT(executor.stats().stolen, 0);
  EXPECT_EQ(executor.stats().executed, kTasks);
}

TEST(ServeExecutorTest, TaskSpawnedTasksAreDrainedByShutdown) {
  Executor::Options options;
  options.num_threads = 2;
  Executor executor(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    executor.Submit([&](int) {
      ran.fetch_add(1);
      // Follow-up work submitted from inside a task must also run, even
      // if Shutdown has already begun by the time it is enqueued.
      executor.Submit([&](int) { ran.fetch_add(1); });
    });
  }
  executor.Shutdown();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ServeExecutorTest, ShutdownDrainsQueuedBacklog) {
  Executor::Options options;
  options.num_threads = 2;
  Executor executor(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    executor.Submit([&](int) { ran.fetch_add(1); });
  }
  executor.Shutdown();  // must not return before the backlog is served
  EXPECT_EQ(ran.load(), 500);
  EXPECT_EQ(executor.stats().executed, 500);
}

TEST(ServeExecutorTest, ShutdownIsIdempotent) {
  Executor executor(Executor::Options{2});
  std::atomic<int> ran{0};
  executor.Submit([&](int) { ran.fetch_add(1); });
  executor.Shutdown();
  executor.Shutdown();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ServeExecutorTest, DefaultsToResolvedThreadCount) {
  SetDefaultThreadCount(2);
  Executor executor;
  EXPECT_EQ(executor.num_threads(), 2);
  SetDefaultThreadCount(0);
}

TEST(ServeExecutorTest, BusyTimeAccumulatesWhereWorkRan) {
  Executor::Options options;
  options.num_threads = 2;
  Executor executor(options);
  WaitGroup wait;
  wait.Add(1);
  executor.Submit([&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    wait.Done();
  });
  wait.Wait();
  executor.Shutdown();
  double total_busy = 0.0;
  for (double b : executor.stats().busy_seconds) total_busy += b;
  EXPECT_GE(total_busy, 0.010);
}

TEST(ServeExecutorTest, NoLostWakeupUnderPingPong) {
  // One task in flight at a time: after every round both workers run dry
  // and park, so each Submit must wake a sleeper. The submitter spins on
  // the completion count instead of blocking, so its next Submit often
  // lands while the worker that ran the last task is on its way to park —
  // the window a lost wake hides in. A lost wake strands the task with
  // every worker asleep, and the rounds miss their deadline.
  Executor::Options options;
  options.num_threads = 2;
  Executor executor(options);
  constexpr int kRounds = 10000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<int> completed{0};
  bool late = false;
  for (int round = 0; round < kRounds && !late; ++round) {
    executor.Submit([&completed](int) { completed.fetch_add(1); });
    while (completed.load() <= round) {
      if (std::chrono::steady_clock::now() > deadline) {
        late = true;
        break;
      }
      std::this_thread::yield();
    }
  }
  EXPECT_FALSE(late) << "a submitted task was never picked up; "
                     << completed.load() << " of " << kRounds << " ran";
}

TEST(ServeExecutorTest, ShutdownRacesTaskSpawnedSubmits) {
  // Chains of tasks, each link submitting the next through Submit or
  // SubmitTo, race a Shutdown that begins while the chains are still
  // growing. The drain must run every link: Shutdown may not finish while
  // a running task can still enqueue work. A slow task outlives the
  // chains, so the other workers park until it ends; the end of the drain
  // must wake them, or Shutdown never returns.
  constexpr int kChains = 16;
  constexpr int kLinks = 40;
  for (int trial = 0; trial < 10; ++trial) {
    Executor::Options options;
    options.num_threads = 3;
    Executor executor(options);
    std::atomic<int> ran{0};
    std::function<void(int, int)> link = [&](int worker, int remaining) {
      ran.fetch_add(1);
      if (remaining == 0) return;
      if (remaining % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const auto next = [&link, remaining](int w) { link(w, remaining - 1); };
      if (remaining % 2 == 0) {
        executor.Submit(next);
      } else {
        executor.SubmitTo((worker + 1) % 3, next);
      }
    };
    executor.Submit([&ran](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ran.fetch_add(1);
    });
    for (int c = 0; c < kChains; ++c) {
      executor.Submit([&link](int w) { link(w, kLinks - 1); });
    }
    executor.Shutdown();
    EXPECT_EQ(ran.load(), kChains * kLinks + 1) << "trial " << trial;
    EXPECT_EQ(executor.stats().executed, kChains * kLinks + 1)
        << "trial " << trial;
  }
}

TEST(ServeExecutorTest, WaitGroupIsReusable) {
  WaitGroup wait;
  wait.Add(2);
  std::thread a([&] { wait.Done(); });
  std::thread b([&] { wait.Done(); });
  wait.Wait();
  a.join();
  b.join();
  wait.Add(1);
  std::thread c([&] { wait.Done(); });
  wait.Wait();
  c.join();
}

}  // namespace
}  // namespace resinfer::serve
