// Fixed-size worker pool behind exec.h's parallel regions.
//
// The pool owns `threads - 1` workers; the caller of run() participates
// as the remaining thread, so a pool of size 1 is the inline path with
// no threads at all. One region runs at a time: run() publishes a job
// (an indexed chunk set) and returns once all chunks finished and every
// adopted worker has let go of the job. Chunk-to-result mapping is by
// index, so the schedule never affects what a region computes (see
// exec.h for the determinism contract).
//
// The schedule is built for regions of tens of microseconds issued back
// to back, like a solver's sweeps over one mesh:
//   * the chunks form one contiguous block per thread, and a thread
//     claims its own block's chunks first and then helps with the
//     others, so a thread keeps working on the same rows, which stay in
//     its cache, from one region to the next;
//   * idle workers poll for the next job for a short while before they
//     block, and run() polls for its workers before it blocks: a
//     sleeping thread takes about as long as such a region to wake.
//
// Most code should use the exec.h free functions (which manage a shared
// process-wide pool); the class is public for tests and for callers that
// need an isolated pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fp::exec {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; `threads` must be >= 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, count), caller participating; blocks
  /// until every invocation finished. Rethrows the first exception a
  /// chunk threw (remaining chunks are skipped once one failed). Calls
  /// from inside a running region execute inline.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  /// The next unclaimed chunk of one thread's block, on its own cache
  /// line so that claims in different blocks do not contend.
  struct alignas(64) Cursor {
    std::atomic<std::size_t> next{0};
  };

  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    // Block b holds chunks [b * count / blocks, (b + 1) * count / blocks).
    int blocks = 1;
    Cursor* cursors = nullptr;  // one per block
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  /// `index` is the worker's stable 1-based slot (the caller is thread
  /// 0); it names the thread in exported traces ("exec.worker3").
  void worker_main(int index);
  /// Claims and executes chunks of `job` until none remain, starting
  /// with block `first`.
  static void drain(Job& job, int first);

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;  // guarded by mutex_
  // Written under mutex_; atomic so that a spinning thread may poll it.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> active_workers_{0};  // workers currently adopted
  bool stop_ = false;  // guarded by mutex_
};

}  // namespace fp::exec
