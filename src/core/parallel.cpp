#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace dagmap {

unsigned resolve_num_threads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct ThreadPool::State {
  std::mutex mutex;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  // Incremented per job; workers run a job when it moves past what they
  // have already processed, so a late worker can never miss (or
  // double-run) a job.  The job fields below are written before the
  // release store of `epoch` and read after an acquire load of it.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<bool> stop{false};
  const std::function<void(std::size_t, unsigned)>* body = nullptr;
  const char* trace_name = nullptr;
  std::size_t count = 0;
  std::size_t chunk = 1;
  /// Next unclaimed index, on its own cache line: every claim writes it.
  alignas(64) std::atomic<std::size_t> next{0};
  /// Spawned workers that have not finished the job; the caller polls it.
  alignas(64) std::atomic<unsigned> running{0};
  std::exception_ptr error;  ///< guarded by `mutex`
};

namespace {

// How long a waiting thread polls before it blocks on a condition
// variable.  Labeling waves of a deep subject last tens to hundreds of
// microseconds, so most waits end inside the poll and skip a futex
// sleep and wake-up per wave.
constexpr auto kSpinWait = std::chrono::microseconds(100);

// Waits until `ready()` holds: polls for up to kSpinWait, then blocks on
// `cv`.  Whoever makes `ready()` true notifies `cv` under `mutex`, so
// the blocking wait cannot miss it.
template <class Ready>
void await(std::mutex& mutex, std::condition_variable& cv, Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWait;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, ready);
      return;
    }
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads)
    : state_(std::make_unique<State>()) {
  for (unsigned w = 1; w < num_threads; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stop.store(true, std::memory_order_release);
  }
  state_->start_cv.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_main(unsigned worker) {
  State& s = *state_;
  std::uint64_t seen = 0;
  bool named = false;
  for (;;) {
    await(s.mutex, s.start_cv, [&] {
      return s.stop.load(std::memory_order_acquire) ||
             s.epoch.load(std::memory_order_acquire) != seen;
    });
    if (s.stop.load(std::memory_order_acquire)) return;
    seen = s.epoch.load(std::memory_order_acquire);
    if (!named && obs::enabled()) {
      obs::set_thread_name("pool worker " + std::to_string(worker));
      named = true;
    }
    run_chunks(worker);
    if (s.running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.done_cv.notify_one();
    }
  }
}

void ThreadPool::run_chunks(unsigned worker) {
  State& s = *state_;
  // One scope per worker per job: the per-thread tracks of the Chrome
  // trace export.  No-op (and no clock reads) unless profiling is on.
  obs::Scope trace(s.trace_name);
  for (;;) {
    std::size_t begin = s.next.fetch_add(s.chunk, std::memory_order_relaxed);
    if (begin >= s.count) return;
    std::size_t end = std::min(begin + s.chunk, s.count);
    try {
      for (std::size_t i = begin; i < end; ++i) (*s.body)(i, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(s.mutex);
      if (!s.error) s.error = std::current_exception();
      // Fast-forward the counter so everyone drains quickly.
      s.next.store(s.count, std::memory_order_relaxed);
      return;
    }
  }
}

std::size_t ThreadPool::chunk_size(std::size_t count) const {
  std::size_t per_chunk = 8 * std::size_t{num_workers()};
  return std::clamp<std::size_t>((count + per_chunk - 1) / per_chunk, 1,
                                 kMaxChunk);
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t, unsigned)>& body,
    const char* trace_name) {
  if (count == 0) return;
  State& s = *state_;
  if (threads_.empty()) {
    // Inline sequential path (also taken by ThreadPool(1)).
    obs::Scope trace(trace_name);
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.body = &body;
    s.trace_name = trace_name;
    s.count = count;
    s.chunk = chunk_size(count);
    s.next.store(0, std::memory_order_relaxed);
    s.running.store(static_cast<unsigned>(threads_.size()),
                    std::memory_order_relaxed);
    s.epoch.fetch_add(1, std::memory_order_release);
  }
  s.start_cv.notify_all();
  run_chunks(0);
  await(s.mutex, s.done_cv,
        [&] { return s.running.load(std::memory_order_acquire) == 0; });
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    error = std::exchange(s.error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dagmap
