#include "core/exec/steal.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace netclients::core::exec::detail {
namespace {

/// One worker's task store. Tasks are coarse (a record chunk is tens of
/// thousands of records), so a plain mutex-guarded deque costs noise next
/// to the work it hands out; the lock-free Chase-Lev structure would buy
/// nothing measurable here.
struct WorkerDeque {
  std::mutex mu;
  std::deque<std::size_t> tasks;
};

/// The task count depends on the input alone; steal tallies stay out of
/// the registry (see steal.h).
void record_metrics(std::size_t tasks) {
  static obs::Counter& tasks_metric =
      obs::Registry::global().counter("exec.steal.tasks");
  tasks_metric.add(tasks);
}

}  // namespace

void steal_run(std::size_t n, int threads,
               const std::function<void(std::size_t)>& task,
               StealTelemetry* telemetry) {
  StealTelemetry local;
  local.tasks = n;
  if (n == 0) {
    if (telemetry) *telemetry = local;
    return;
  }
  if (threads <= 0) threads = thread_count();
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  local.workers = workers;

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    record_metrics(n);
    if (telemetry) *telemetry = local;
    return;
  }

  std::vector<WorkerDeque> deques(workers);
  // Initial block partition: contiguous index runs so each owner walks its
  // slice in order (cache-friendly for chunk scans) before stealing.
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = n * w / workers;
    const std::size_t end = n * (w + 1) / workers;
    for (std::size_t i = begin; i < end; ++i) deques[w].tasks.push_back(i);
  }

  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> steals{0};
  std::atomic<std::size_t> stolen_tasks{0};
  std::atomic<std::size_t> attempts{0};
  // Guarded by done_mu; see parallel_map for why the last decrement and
  // its broadcast must happen under the lock.
  std::size_t remaining = workers;
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::mutex error_mu;
  std::exception_ptr error;

  auto run_one = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
    executed.fetch_add(1, std::memory_order_acq_rel);
  };

  auto body = [&](std::size_t self) {
    WorkerDeque& mine = deques[self];
    std::vector<std::size_t> grabbed;
    while (executed.load(std::memory_order_acquire) < n) {
      // Drain the local deque from the back (most recently acquired).
      bool ran = false;
      for (;;) {
        std::size_t i;
        {
          std::lock_guard<std::mutex> lock(mine.mu);
          if (mine.tasks.empty()) break;
          i = mine.tasks.back();
          mine.tasks.pop_back();
        }
        run_one(i);
        ran = true;
      }
      if (executed.load(std::memory_order_acquire) >= n) break;
      // Local deque dry: probe the other workers and steal half of the
      // first non-empty deque, from the *front* (the victim works from
      // the back, so fronts are the coldest tasks — least contended).
      grabbed.clear();
      for (std::size_t step = 1; step < workers && grabbed.empty(); ++step) {
        const std::size_t victim = (self + step) % workers;
        attempts.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(deques[victim].mu);
        auto& vt = deques[victim].tasks;
        const std::size_t take = (vt.size() + 1) / 2;
        for (std::size_t k = 0; k < take; ++k) {
          grabbed.push_back(vt.front());
          vt.pop_front();
        }
      }
      if (grabbed.empty()) {
        // Everything is either done or in flight on another worker; yield
        // until the stragglers finish (or push new... they won't — the
        // task set is fixed, so this loop exits as soon as executed == n).
        if (!ran) std::this_thread::yield();
        continue;
      }
      steals.fetch_add(1, std::memory_order_relaxed);
      stolen_tasks.fetch_add(grabbed.size(), std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mine.mu);
        for (std::size_t i : grabbed) mine.tasks.push_back(i);
      }
    }
    std::lock_guard<std::mutex> lock(done_mu);
    if (--remaining == 0) done_cv.notify_all();
  };

  for (std::size_t w = 1; w < workers; ++w) {
    shared_pool().submit([&body, w] { body(w); });
  }
  body(0);  // the calling thread is worker 0
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }

  local.steals = steals.load(std::memory_order_relaxed);
  local.stolen_tasks = stolen_tasks.load(std::memory_order_relaxed);
  local.attempts = attempts.load(std::memory_order_relaxed);
  record_metrics(n);
  if (telemetry) *telemetry = local;
  if (error) std::rethrow_exception(error);
}

}  // namespace netclients::core::exec::detail
