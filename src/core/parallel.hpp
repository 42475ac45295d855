// Minimal worker pool for the parallel wavefront labeler.
//
// No external dependencies: std::thread workers claim contiguous
// chunks of indices off a shared atomic counter, one `fetch_add` per
// chunk.  The chunk size follows from the job size — about eight chunks
// per worker, at most `kMaxChunk` indices — so a short job still
// spreads over every worker, while a long one (a wide labeling wave of
// cheap nodes) does not pay one contended atomic per index.  Small
// chunks keep the tail short when a worker is descheduled mid-chunk.
// The calling thread participates as worker 0, so a pool of n threads
// spawns n-1 workers, and a pool of 1 runs everything inline — the
// sequential path stays byte-for-byte the sequential path.
//
// `parallel_for` is a barrier: it returns only after every index has
// been processed and every worker has quiesced, so writes made by the
// body are visible to the caller (and to the next `parallel_for`)
// without further synchronization.  Waiting threads (idle workers, and
// the caller at the barrier) poll for about 100 microseconds before
// they block on a condition variable, so back-to-back jobs — one per
// labeling wave, thousands on a deep subject — rarely pay a sleep and
// wake-up.  The first exception thrown by a body cancels remaining work
// and is rethrown on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace dagmap {

/// The largest thread count a front end accepts (`--threads`): every
/// worker is an OS thread, and no host this runs on has more cores.
inline constexpr unsigned kMaxThreads = 256;

/// Resolves a user-facing thread-count knob: 0 means "all hardware
/// threads", anything else is taken literally (minimum 1).
unsigned resolve_num_threads(unsigned requested);

class ThreadPool {
 public:
  /// Creates a pool of `num_threads` total workers (the constructing
  /// thread included); `num_threads <= 1` spawns nothing.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, calling thread included.
  unsigned num_workers() const {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Largest number of indices one `fetch_add` claims.
  static constexpr std::size_t kMaxChunk = 16;

  /// Indices claimed per `fetch_add` for a job of `count` indices:
  /// ceil(count / (8 * num_workers())), clamped to [1, kMaxChunk].
  std::size_t chunk_size(std::size_t count) const;

  /// Runs `body(index, worker)` for every index in [0, count), spread
  /// over the workers; `worker` ranges over [0, num_workers()).  Blocks
  /// until all indices are done.  Must not be called reentrantly from
  /// inside a body.
  ///
  /// `trace_name`, when non-null, must point at storage outliving the
  /// call (string literals in practice): each worker's participation in
  /// the job is recorded as one obs::Scope of that name, giving the
  /// per-thread tracks in Chrome trace exports.  Null = no tracing.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, unsigned)>& body,
                    const char* trace_name = nullptr);

 private:
  struct State;

  void worker_main(unsigned worker);
  void run_chunks(unsigned worker);

  std::unique_ptr<State> state_;
  std::vector<std::thread> threads_;
};

}  // namespace dagmap
