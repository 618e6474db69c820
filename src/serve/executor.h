// Worker pool for the serving runtime (serve::IvfServer).
//
// Queries arrive continuously and vary wildly in cost (DDC pruning makes
// some 10x cheaper than others), so the server needs long-lived workers
// behind a queue rather than a fork-join loop: any thread may Submit a
// task onto one shared FIFO, and the first free worker takes the oldest
// one. (Offline batches, whose work is known up front, use the fork-join
// primitive in util/parallel.h instead.)
//
// Tasks receive the index of the worker that executes them, so clients
// keep per-worker state (one DistanceComputer per worker — they are
// stateful per query) without locks: workers[i] is touched only by worker
// thread i.
//
// Locking over lock-freedom is deliberate: tasks here are whole query
// groups (tens of microseconds to milliseconds), so a mutex around the
// queue costs noise, stays portable, and is trivially
// ThreadSanitizer-clean — the CI TSan job runs the serving suites on every
// push.
//
// Parking: a worker that finds the queue empty parks on a futex
// eventcount. It registers in sleepers_, reads the wake epoch_, re-checks
// its wake condition (a task pending, or Shutdown with nothing running),
// and only then FUTEX_WAITs on the epoch it read. A submitter bumps the
// epoch and issues FUTEX_WAKE only when sleepers_ is non-zero; with no
// sleeper its wake is one atomic load. Neither side takes a lock, so a
// wake never waits for a worker woken earlier to run (a condition
// variable's notify can: it shares the sleepers' mutex and, in glibc's
// implementation, its internal state). A bump between a sleeper's epoch
// read and its wait makes the kernel return at once, so no wake is lost.
#ifndef RESINFER_SERVE_EXECUTOR_H_
#define RESINFER_SERVE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace resinfer::serve {

class Executor {
 public:
  struct Options {
    // <= 0 resolves to DefaultThreadCount() (which itself honors the
    // RESINFER_THREADS environment override).
    int num_threads = 0;
  };

  // `worker` is the index of the executing worker thread, in
  // [0, num_threads()).
  using Task = std::function<void(int worker)>;

  struct Stats {
    // Tasks run to completion.
    int64_t executed = 0;
    // Per-worker wall time spent inside tasks since construction.
    std::vector<double> busy_seconds;
  };

  Executor();  // Options with all defaults
  explicit Executor(const Options& options);
  ~Executor();  // calls Shutdown()

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues at the back of the queue; any thread. Running tasks may
  // Submit follow-up work at any time — the Shutdown drain always serves
  // it. External threads must not Submit once Shutdown has begun (such a
  // task may never run).
  void Submit(Task task) RESINFER_EXCLUDES(queue_mu_);

  // Runs every submitted task (including tasks submitted by tasks) to
  // completion, then joins the workers. Idempotent and safe to call
  // concurrently; the destructor calls it.
  void Shutdown() RESINFER_EXCLUDES(shutdown_mu_);

  Stats stats() const;

 private:
  struct Worker {
    std::thread thread;
    std::atomic<int64_t> busy_nanos{0};
    std::atomic<int64_t> executed{0};
  };

  // Pops the oldest task and runs it on worker `self`. Returns false when
  // the queue is empty.
  bool TryRunOne(int self) RESINFER_EXCLUDES(queue_mu_);
  void WorkerLoop(int self) RESINFER_EXCLUDES(queue_mu_);
  // True when a parked worker must get up: a task is pending, or Shutdown
  // has begun and nothing is running (time to check for exit).
  bool HasWakeReason() const;
  // Sleeps until HasWakeReason may have become true (see the header).
  void Park();
  // Wakes one parked worker, or all of them; never blocks.
  void Wake(bool all);

  std::vector<std::unique_ptr<Worker>> workers_;

  util::Mutex queue_mu_;  // a leaf: never held across another acquisition
  std::deque<Task> queue_ RESINFER_GUARDED_BY(queue_mu_);

  // Queued-but-not-started tasks; the sleep predicate.
  std::atomic<int64_t> pending_{0};
  // Tasks currently executing; Shutdown completes only when both counters
  // reach zero, so task-spawned tasks always run.
  std::atomic<int64_t> running_{0};

  // The parking eventcount: workers registered to sleep, and the futex
  // word they sleep on, bumped by every wake that finds a sleeper.
  std::atomic<int32_t> sleepers_{0};
  std::atomic<uint32_t> epoch_{0};

  std::atomic<bool> shutdown_{false};
  util::Mutex shutdown_mu_;  // serializes Shutdown; guards joined_
  bool joined_ RESINFER_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace resinfer::serve

#endif  // RESINFER_SERVE_EXECUTOR_H_
