#include "serve/executor.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <memory>
#include <utility>

#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace resinfer::serve {

namespace {

// The futex word is the atomic's own storage.
static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
              std::atomic<uint32_t>::is_always_lock_free);

// Sleeps while *word == expected; the kernel compares atomically with
// queueing the caller, so a change after the caller's read returns at once.
// May also return spuriously or on a signal: callers re-check.
void FutexWait(std::atomic<uint32_t>* word, uint32_t expected) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT_PRIVATE,
          expected, nullptr, nullptr, 0);
}

void FutexWake(std::atomic<uint32_t>* word, int count) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE_PRIVATE,
          count, nullptr, nullptr, 0);
}

}  // namespace

void WaitGroup::Add(int64_t n) {
  RESINFER_CHECK(n >= 0);
  util::MutexLock lock(mu_);
  outstanding_ += n;
}

void WaitGroup::Done() {
  util::MutexLock lock(mu_);
  RESINFER_CHECK(outstanding_ > 0);
  if (--outstanding_ == 0) cv_.NotifyAll();
}

void WaitGroup::Wait() {
  util::MutexLock lock(mu_);
  // Inline predicate loop (not the lambda-predicate overload): the analysis
  // does not propagate lock state into lambda bodies, so reading
  // outstanding_ from a closure would defeat the GUARDED_BY contract.
  while (outstanding_ != 0) cv_.Wait(mu_);
}

Executor::Executor() : Executor(Options()) {}

Executor::Executor(const Options& options) {
  const int threads = ResolveThreadCount(options.num_threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Start after every Worker exists: a worker scans all sibling deques.
  for (int t = 0; t < threads; ++t) {
    workers_[static_cast<std::size_t>(t)]->thread =
        std::thread(&Executor::WorkerLoop, this, t);
  }
}

Executor::~Executor() { Shutdown(); }

void Executor::Submit(Task task) {
  RESINFER_CHECK(task != nullptr);
  {
    util::MutexLock lock(admission_mu_);
    admission_.push_back(std::move(task));
  }
  pending_.fetch_add(1);
  Wake(/*all=*/false);
}

void Executor::SubmitTo(int worker, Task task) {
  RESINFER_CHECK(task != nullptr);
  RESINFER_CHECK(worker >= 0 && worker < num_threads());
  Worker& w = *workers_[static_cast<std::size_t>(worker)];
  {
    util::MutexLock lock(w.mu);
    w.deque.push_back(std::move(task));
  }
  pending_.fetch_add(1);
  Wake(/*all=*/true);  // the owner or any potential thief may be asleep
}

bool Executor::TryRunOne(int self) {
  Worker& me = *workers_[static_cast<std::size_t>(self)];
  Task task;
  bool stolen = false;
  bool admitted = false;

  // 1. Own deque, LIFO end.
  {
    util::MutexLock lock(me.mu);
    if (!me.deque.empty()) {
      task = std::move(me.deque.back());
      me.deque.pop_back();
    }
  }
  // 2. Shared admission queue, FIFO.
  if (task == nullptr) {
    util::MutexLock lock(admission_mu_);
    if (!admission_.empty()) {
      task = std::move(admission_.front());
      admission_.pop_front();
      admitted = true;
    }
  }
  // 3. Steal FIFO from the first victim with work, scanning round-robin
  // from the next worker so thieves spread across victims.
  if (task == nullptr) {
    const int n = num_threads();
    for (int i = 1; i < n && task == nullptr; ++i) {
      Worker& victim = *workers_[static_cast<std::size_t>((self + i) % n)];
      util::MutexLock lock(victim.mu);
      if (!victim.deque.empty()) {
        task = std::move(victim.deque.front());
        victim.deque.pop_front();
        stolen = true;
      }
    }
  }
  if (task == nullptr) return false;

  // Count the task running before it stops counting as pending, so the
  // two never read zero together while a task is in hand.
  running_.fetch_add(1);
  pending_.fetch_sub(1);
  WallTimer timer;
  task(self);
  me.busy_nanos.fetch_add(static_cast<int64_t>(timer.ElapsedSeconds() * 1e9),
                          std::memory_order_relaxed);
  me.executed.fetch_add(1, std::memory_order_relaxed);
  if (stolen) me.stolen.fetch_add(1, std::memory_order_relaxed);
  if (admitted) me.admitted.fetch_add(1, std::memory_order_relaxed);
  if (running_.fetch_sub(1) == 1 && shutdown_.load()) {
    // Possibly the last task of a drain: workers parked waiting for
    // quiescence must re-check the exit condition.
    Wake(/*all=*/true);
  }
  return true;
}

// The parking protocol (see the header) needs sequentially consistent
// order between a waker's update of pending_/running_/shutdown_ and its
// read of sleepers_, and between a sleeper's registration and its re-check
// of those counters: either the waker sees the sleeper, or the sleeper
// sees the update. Every access below therefore uses the default
// memory_order_seq_cst.
bool Executor::HasWakeReason() const {
  return pending_.load() > 0 || (shutdown_.load() && running_.load() == 0);
}

void Executor::Park() {
  sleepers_.fetch_add(1);
  const uint32_t epoch = epoch_.load();
  if (!HasWakeReason()) FutexWait(&epoch_, epoch);
  sleepers_.fetch_sub(1);
}

void Executor::Wake(bool all) {
  if (sleepers_.load() == 0) return;
  epoch_.fetch_add(1);
  FutexWake(&epoch_, all ? INT_MAX : 1);
}

void Executor::WorkerLoop(int self) {
  while (true) {
    if (TryRunOne(self)) continue;
    // Exit only at quiescence: Shutdown has begun, nothing is queued, and
    // nothing is running (a running task may still submit follow-up work).
    if (shutdown_.load() && pending_.load() == 0 && running_.load() == 0) {
      return;
    }
    Park();
  }
}

void Executor::Shutdown() {
  // Serializes concurrent Shutdown calls (including the destructor after
  // an explicit call) so the worker threads are joined exactly once.
  util::MutexLock shutdown_lock(shutdown_mu_);
  if (joined_) return;
  shutdown_.store(true);
  Wake(/*all=*/true);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  joined_ = true;
}

Executor::Stats Executor::stats() const {
  Stats stats;
  stats.busy_seconds.reserve(workers_.size());
  for (const auto& w : workers_) {
    stats.executed += w->executed.load(std::memory_order_relaxed);
    stats.stolen += w->stolen.load(std::memory_order_relaxed);
    stats.admitted += w->admitted.load(std::memory_order_relaxed);
    stats.busy_seconds.push_back(
        static_cast<double>(w->busy_nanos.load(std::memory_order_relaxed)) *
        1e-9);
  }
  return stats;
}

}  // namespace resinfer::serve
