// Work-stealing executor for the serving runtime.
//
// The batch runner used to drain a pre-materialized query list through a
// single atomic cursor — fine for offline batches, but a serving layer
// needs tasks that arrive continuously, vary wildly in cost (DDC pruning
// makes some queries 10x cheaper than others), and must never strand
// behind a straggling worker. The executor owns that pattern:
//
//   * one deque per worker, locked individually. A worker pops its own
//     deque LIFO (hot end, cache-warm) and steals FIFO from a victim's
//     other end (oldest work first, minimizing contention on the hot end);
//   * a shared MPMC admission queue for externally submitted tasks — any
//     thread may Submit(); idle workers drain it before stealing;
//   * SubmitTo(worker, task) pre-distributes a known work list across the
//     deques (the batch runner round-robins its query groups), after which
//     imbalance is corrected by stealing instead of a global cursor.
//
// Tasks receive the index of the worker that executes them, so clients
// keep per-worker state (one DistanceComputer per worker — they are
// stateful per query) without locks: workers[i] is touched only by worker
// thread i, no matter which deque the task came from.
//
// Locking over lock-freedom is deliberate: tasks here are whole query
// groups (tens of microseconds to milliseconds), so a mutex per deque
// costs noise, stays portable, and is trivially ThreadSanitizer-clean —
// the CI TSan job runs the serving suites on every push.
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

// Completion latch for fork-join clients: Add the number of tasks before
// submitting them, Done() from each task, Wait() for all of them. Reusable
// after Wait returns.
class WaitGroup {
 public:
  void Add(int64_t n) RESINFER_EXCLUDES(mu_);
  void Done() RESINFER_EXCLUDES(mu_);
  void Wait() RESINFER_EXCLUDES(mu_);

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  int64_t outstanding_ RESINFER_GUARDED_BY(mu_) = 0;
};

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
    // Tasks a worker took from another worker's deque.
    int64_t stolen = 0;
    // Tasks taken from the shared admission queue.
    int64_t admitted = 0;
    // Per-worker wall time spent inside tasks since construction.
    std::vector<double> busy_seconds;
  };

  Executor();  // Options with all defaults
  explicit Executor(const Options& options);
  ~Executor();  // calls Shutdown()

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues onto the shared admission queue; any thread. Running tasks
  // may Submit follow-up work at any time — the Shutdown drain always
  // serves it. External threads must not Submit once Shutdown has begun
  // (such a task may never run).
  void Submit(Task task) RESINFER_EXCLUDES(admission_mu_, idle_mu_);

  // Enqueues onto worker `worker`'s own deque. Used to pre-distribute a
  // known work list; the owner pops it LIFO, idle workers steal it FIFO.
  // Same Shutdown contract as Submit.
  void SubmitTo(int worker, Task task) RESINFER_EXCLUDES(idle_mu_);

  // Runs every submitted task (including tasks submitted by tasks) to
  // completion, then joins the workers. Idempotent and safe to call
  // concurrently; the destructor calls it.
  void Shutdown() RESINFER_EXCLUDES(shutdown_mu_, idle_mu_);

  Stats stats() const;

 private:
  struct Worker {
    util::Mutex mu;
    std::deque<Task> deque RESINFER_GUARDED_BY(mu);
    std::thread thread;
    std::atomic<int64_t> busy_nanos{0};
    std::atomic<int64_t> executed{0};
    std::atomic<int64_t> stolen{0};
    std::atomic<int64_t> admitted{0};
  };

  // Pops one task for worker `self` (own deque back, admission queue
  // front, then steal from victims front). Returns false when every queue
  // is empty at the time of the scan.
  bool TryRunOne(int self) RESINFER_EXCLUDES(admission_mu_, idle_mu_);
  void WorkerLoop(int self) RESINFER_EXCLUDES(admission_mu_, idle_mu_);

  std::vector<std::unique_ptr<Worker>> workers_;

  util::Mutex admission_mu_;
  std::deque<Task> admission_ RESINFER_GUARDED_BY(admission_mu_);

  // Queued-but-not-started tasks across all queues; the sleep predicate.
  std::atomic<int64_t> pending_{0};
  // Tasks currently executing; Shutdown completes only when both counters
  // reach zero, so task-spawned tasks always run.
  std::atomic<int64_t> running_{0};

  // Lock order: shutdown_mu_ before idle_mu_ (Shutdown takes both);
  // admission_mu_ and the per-worker mus are leaves, never held across
  // another acquisition.
  util::Mutex idle_mu_ RESINFER_ACQUIRED_AFTER(shutdown_mu_);
  util::CondVar idle_cv_;
  std::atomic<bool> shutdown_{false};
  util::Mutex shutdown_mu_;  // serializes Shutdown; guards joined_
  bool joined_ RESINFER_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace resinfer::serve

#endif  // RESINFER_SERVE_EXECUTOR_H_
