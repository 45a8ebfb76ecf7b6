#include "exec/thread_pool.h"

#include <chrono>
#include <string>

#include "obs/trace.h"
#include "util/error.h"

namespace fp::exec {

namespace detail {
// Set while the current thread executes chunks of a region (worker or
// caller); exec.h routes nested regions inline when it is up.
thread_local bool g_in_region = false;
}  // namespace detail

bool in_parallel_region() { return detail::g_in_region; }

namespace {

/// How long a thread polls before it blocks on a condition variable.
constexpr auto kSpin = std::chrono::microseconds(200);

/// Polls `ready` (yielding the core between polls) until it holds or
/// kSpin has passed; the caller then blocks as usual.
template <typename Ready>
void spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (!ready() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  require(threads >= 1, "ThreadPool: thread count must be >= 1");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::drain(Job& job, int first) {
  detail::g_in_region = true;
  const auto blocks = static_cast<std::size_t>(job.blocks);
  for (std::size_t step = 0; step < blocks; ++step) {
    const std::size_t block = (static_cast<std::size_t>(first) + step) % blocks;
    const std::size_t end = (block + 1) * job.count / blocks;
    while (true) {
      const std::size_t i =
          job.cursors[block].next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) break;
      if (job.failed.load(std::memory_order_relaxed)) continue;
      try {
        (*job.fn)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
  }
  detail::g_in_region = false;
}

void ThreadPool::worker_main(int index) {
  // Register with the trace tid registry up front, so every span or
  // counter this worker ever records lands on a labelled track.
  obs::set_thread_name("exec.worker" + std::to_string(index));
  std::uint64_t seen_generation = 0;
  while (true) {
    spin_until([&] { return generation_.load() != seen_generation; });
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;  // null when the job finished before this worker woke
      if (job != nullptr) ++active_workers_;
    }
    if (job == nullptr) continue;
    drain(*job, index);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (detail::g_in_region || workers_.empty()) {
    // Nested or poolless: execute inline. Chunk arithmetic is identical
    // to the pooled path, only the scheduling differs.
    Cursor cursor;
    Job job;
    job.fn = &fn;
    job.count = count;
    job.cursors = &cursor;
    const bool was_in_region = detail::g_in_region;
    drain(job, 0);
    detail::g_in_region = was_in_region;
    if (job.error) std::rethrow_exception(job.error);
    return;
  }

  const auto blocks = static_cast<std::size_t>(threads_);
  std::vector<Cursor> cursors(blocks);
  for (std::size_t block = 0; block < blocks; ++block) {
    cursors[block].next.store(block * count / blocks,
                              std::memory_order_relaxed);
  }
  Job job;
  job.fn = &fn;
  job.count = count;
  job.blocks = threads_;
  job.cursors = cursors.data();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();
  drain(job, 0);
  // All chunks are claimed once drain() returns (the caller only exits
  // when every block's cursor passed its end), so the job is withdrawn
  // at once: a worker that wakes later has nothing to adopt. Waiting for
  // the adopted workers to let go then guarantees every chunk finished
  // and nobody touches the stack-allocated job afterwards.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = nullptr;
  }
  spin_until([&] { return active_workers_.load() == 0; });
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace fp::exec
