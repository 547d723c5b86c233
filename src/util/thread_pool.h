// A shared work-crew for nested data parallelism.
//
// The sharded dispatch engine (src/core/event_engine.cc) fans each
// synchronization round out over shards, and SweepRunner fans cases out over
// one pool — and a case may itself run sharded on that same pool. Naive
// per-layer thread spawning would multiply: `cases x shards` threads for a
// budget of `hardware_concurrency`. This pool makes the budget explicit and
// nesting safe:
//   - ParallelFor is caller-participating: the calling thread claims indices
//     alongside the pool's workers, so a ParallelFor issued from inside
//     another ParallelFor body (or from a pool with zero threads) always
//     completes — the caller alone can drain its own job. No job ever waits
//     on a free worker, so nesting cannot deadlock.
//   - Workers steal indices from any active job, so concurrent ParallelFor
//     calls from different threads (sweep cases running sharded dispatch)
//     share the same physical threads instead of oversubscribing.
//
// Completion counts are published under the pool mutex, which is what makes
// the join a happens-before edge: every write a worker made while running
// body(i) is visible to the caller when ParallelFor returns. The sharded
// engine's phase barriers lean on exactly that guarantee.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace daydream {

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped at 0). A zero-thread pool is valid and
  // useful: ParallelFor degrades to an inline serial loop.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs body(i) for every i in [0, n), returning once all n calls finished.
  // The caller participates, so this is safe to call from inside another
  // ParallelFor body on the same pool. Bodies must not throw.
  void ParallelFor(int n, const std::function<void(int)>& body);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  struct Job {
    Job(int size, const std::function<void(int)>& fn) : n(size), body(fn) {}
    const int n;
    const std::function<void(int)>& body;  // lives across ParallelFor only
    std::atomic<int> next{0};   // next unclaimed index
    int completed = 0;          // guarded by the pool mutex
    std::condition_variable done;
  };

  // Claims and runs indices of `job` until none remain; publishes completions
  // under the lock. Returns with the lock held.
  void RunIndices(std::unique_lock<std::mutex>& lock, const std::shared_ptr<Job>& job);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;  // jobs with unclaimed indices
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace daydream

#endif  // SRC_UTIL_THREAD_POOL_H_
