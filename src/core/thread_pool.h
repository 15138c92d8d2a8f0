// A small work-stealing thread pool: the batch analysis service runs
// one long-lived pool per service, whose tasks build closures and check
// requirements.
//
// Design notes. Each worker owns a deque: it pops its own work LIFO
// (the task it just produced is the one whose data is still hot) and
// steals from siblings FIFO (the oldest task in a victim's queue is the
// least likely to still be cache-resident there). Submission
// round-robins across the worker deques so a batch fans out evenly
// before any stealing is needed.
//
// All deques sit behind one mutex. That is deliberate: the tasks this
// pool runs — closure fixpoints and requirement checks over unfolded
// programs — cost milliseconds each, so per-deque locks or lock-free
// Chase-Lev deques would buy nothing measurable while costing a great
// deal of subtlety. The lock is held only to move one std::function in
// or out.
#ifndef OODBSEC_CORE_THREAD_POOL_H_
#define OODBSEC_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace oodbsec::core {

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to at least 1). With `obs`, the
  // pool reports scheduling metrics: tasks executed per worker
  // ("pool.worker<i>.tasks"), steal counts ("pool.steals"), and the
  // queue depth observed at each submit ("pool.queue_depth"). All of
  // these are scheduling-dependent — the "pool." prefix marks them as
  // nondeterministic, unlike every other layer's metrics.
  explicit ThreadPool(int threads, obs::Observability* obs = nullptr);

  // Drains nothing: outstanding tasks still run to completion before the
  // workers exit. Call Wait() first if completion must precede other
  // shutdown work.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task`. Tasks may themselves call Submit (the pending count
  // covers transitively spawned work), but must not call Wait.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing. Only the
  // owning thread may call this, never a worker of this pool.
  void Wait();

  int thread_count() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop(size_t index);
  // Pops own work LIFO, else steals FIFO. Caller holds mu_.
  bool PopTask(size_t index, std::function<void()>& task);

  std::mutex mu_;
  std::condition_variable work_cv_;  // signalled on Submit and shutdown
  std::condition_variable done_cv_;  // signalled when pending_ hits 0
  std::vector<std::deque<std::function<void()>>> queues_;
  std::vector<std::thread> workers_;
  size_t next_queue_ = 0;  // round-robin submission cursor
  size_t pending_ = 0;     // submitted but not yet finished
  bool stop_ = false;

  // Metric handles (null when the pool runs unobserved); resolved once
  // at construction, incremented with relaxed atomics thereafter.
  obs::Counter* tasks_counter_ = nullptr;
  obs::Counter* steals_counter_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;
  std::vector<obs::Counter*> worker_tasks_;
};

}  // namespace oodbsec::core

#endif  // OODBSEC_CORE_THREAD_POOL_H_
