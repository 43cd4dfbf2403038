// Persistent worker pool for deterministic fan-outs: the search runs its
// portfolio trajectories on it, `oobp bench` its scenarios and `oobp fuzz`
// its seeds. The contract is deliberately tiny:
//
//   WorkerPool pool(n);                 // spawns n threads iff n > 1
//   pool.Run(count, [&](size_t i, int worker) { ... });
//
// Run() executes fn(i, worker) for every i in [0, count); it returns only
// after all calls completed, establishing happens-before in both directions
// (workers see all caller writes made before Run; the caller sees all worker
// writes on return). When the pool has no workers or count <= 1 the calls
// run inline on the caller's thread in index order with worker == -1 — the
// reference path the byte-identity batteries compare against. Tasks are
// claimed from a shared cursor under one mutex; tasks are coarse (a whole
// search trajectory, scenario or fuzz seed), so contention is nil and the
// protocol is trivially race-free (tools/check.sh runs it under
// ThreadSanitizer).
//
// Determinism note: callers must not let results depend on which worker ran
// a task or in what order tasks finished. Every caller satisfies this
// structurally: tasks share no mutable state, each writes its own result
// slot, and results are merged in task-index order after Run() returns.

#ifndef OOBP_SRC_SIM_WORKER_POOL_H_
#define OOBP_SRC_SIM_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace oobp {

class WorkerPool {
 public:
  // Spawns `num_threads` workers when num_threads > 1; otherwise the pool is
  // inert and Run() always takes the inline path.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Executes fn(i, worker) for i in [0, count); blocks until all complete.
  // Inline (worker == -1, index order) when the pool is inert or count <= 1.
  // Not reentrant: fn must not call Run on the same pool.
  void Run(size_t count, const std::function<void(size_t, int)>& fn);

 private:
  void WorkerLoop(int worker);

  std::vector<std::thread> workers_;
  // Pool state, all guarded by mu_ — including every read of fn_/count_,
  // because a worker that overslept one batch can wake during the next
  // batch's publication and inspect it.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(size_t, int)>* fn_ = nullptr;
  size_t count_ = 0;
  size_t next_task_ = 0;
  size_t done_tasks_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace oobp

#endif  // OOBP_SRC_SIM_WORKER_POOL_H_
