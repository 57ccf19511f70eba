// Shared work-stealing thread pool for every data-parallel subsystem.
//
// Before this existed, each parallel path — the partitioned sketch ANALYZE
// (storage/analyze.cc) and the predicate-transfer Bloom build
// (pt/reducer.cc) among them — spawned its own std::threads per call. Concurrent
// sessions therefore oversubscribed the machine (8 sessions x 8 threads on
// an 8-core box) and paid a thread create/join per query. This pool is the
// single process-wide replacement: subsystems submit tasks, workers run
// them, and concurrent sessions share one fixed set of workers.
//
// Design (Chase–Lev-style stealing, mutex-guarded for tsan cleanliness):
//  * one deque per worker. The owning worker pushes and pops at the BACK
//    (LIFO — freshly spawned subtasks are cache-hot); idle workers steal
//    from the FRONT of a victim's deque (FIFO — the oldest, largest-grained
//    work moves). Each deque is guarded by its own mutex rather than the
//    classic lock-free protocol: tasks here are morsel-sized (thousands of
//    rows), so the lock is noise, and every access is tsan-provable.
//  * external submissions round-robin across the worker deques; a task
//    running on a worker submits to that worker's own deque (locality).
//  * bounded submission: beyond kMaxPendingPerWorker queued tasks per
//    worker the submitting thread runs the task inline instead of queueing
//    — producers cannot outrun the workers without becoming workers.
//  * TaskGroup::Wait() HELPS: the waiting thread executes the group's
//    not-yet-started tasks itself instead of blocking, so nested
//    fork/join (a pool task forking its own TaskGroup) cannot deadlock
//    even on a pool with zero workers.
//
// Sizing: SharedThreadPool() owns NumPoolThreads() - 1 workers — the
// calling thread is the remaining worker (it always helps via TaskGroup),
// so JOINEST_THREADS=1 means zero pool workers and fully inline,
// deterministic execution.
//
// Layering: this lives in common/ and therefore cannot see the metrics
// registry (obs/ sits above common/). Telemetry goes through the
// ThreadPoolObserver hook; obs/pool_obs.{h,cc} installs the registry-backed
// implementation (pool_tasks_total / pool_steals_total / pool_queue_depth
// and per-task trace spans).

#ifndef JOINEST_COMMON_THREAD_POOL_H_
#define JOINEST_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace joinest {

// Process-wide telemetry hook (see obs/pool_obs.h for the registry-backed
// implementation). TaskStarted returns an opaque token handed back to
// TaskFinished — the span the trace layer opens for the task, when tracing
// is active.
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;
  // `worker` is the executing worker index (-1: ran inline on a submitter
  // or waiter); `stolen` is true when the task came off another worker's
  // deque.
  virtual void* TaskStarted(int worker, bool stolen) = 0;
  virtual void TaskFinished(int worker, bool stolen, void* token) = 0;
  // Approximate queued-task count, reported at submission.
  virtual void QueueDepth(int64_t depth) = 0;
};

// Installs the process-wide observer. Call once (idempotent installs of the
// same pointer are fine); the observer must outlive every pool. Passing an
// observer while tasks run is safe — the pointer is read with acquire
// semantics per task.
void InstallThreadPoolObserver(ThreadPoolObserver* observer);

class ThreadPool {
 public:
  using Task = std::function<void()>;

  // Beyond this many queued tasks per worker, Submit runs the task inline
  // on the submitting thread (bounded submission).
  static constexpr int64_t kMaxPendingPerWorker = 256;

  // `num_workers` may be 0: every Submit then runs inline — the
  // deterministic JOINEST_THREADS=1 configuration.
  explicit ThreadPool(int num_workers);
  // Completes every pending task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task` (or runs it inline when the pool has no workers or the
  // queues are saturated). Never blocks on queue space.
  void Submit(Task task);

  int num_workers() const { return static_cast<int>(workers_.size()); }

  struct Stats {
    int64_t tasks_run = 0;     // Tasks executed by pool workers.
    int64_t tasks_stolen = 0;  // Subset of tasks_run taken from a victim.
    int64_t tasks_inline = 0;  // Tasks run on the submitting thread.
    int64_t pending = 0;       // Currently queued (approximate).
  };
  Stats stats() const;

 private:
  friend class TaskGroup;

  struct WorkerQueue {
    Mutex mu;
    std::deque<Task> tasks JOINEST_GUARDED_BY(mu);
  };

  void WorkerLoop(int index);
  // Pops the back of `index`'s own deque, else steals the front of another
  // worker's. Returns false when every deque is empty.
  bool TryRunOneTask(int index);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  Mutex sleep_mu_;
  CondVar sleep_cv_;
  bool stop_ JOINEST_GUARDED_BY(sleep_mu_) = false;

  std::atomic<size_t> next_queue_{0};
  std::atomic<int64_t> pending_{0};
  std::atomic<int64_t> tasks_run_{0};
  std::atomic<int64_t> tasks_stolen_{0};
  std::atomic<int64_t> tasks_inline_{0};
};

// Fork/join over a pool. Run() enqueues; Wait() executes not-yet-started
// tasks of THIS group on the waiting thread until none remain, then blocks
// for the in-flight ones. Safe to use from inside a pool task (nested
// parallelism) and on a pool with zero workers (everything runs in Wait).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool);
  ~TaskGroup();  // Waits if the caller did not.

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);
  void Wait();

 private:
  struct State {
    Mutex mu;
    CondVar cv;
    std::deque<std::function<void()>> unstarted JOINEST_GUARDED_BY(mu);
    // Queued + running tasks of this group.
    int64_t outstanding JOINEST_GUARDED_BY(mu) = 0;
  };

  // Pops one unstarted task and runs it; false when none were queued.
  static bool RunOne(const std::shared_ptr<State>& state);

  ThreadPool& pool_;
  std::shared_ptr<State> state_;
};

// Worker-thread budget for the process: JOINEST_THREADS when set to a
// positive integer (deterministic CI), otherwise hardware_concurrency();
// always at least 1.
int NumPoolThreads();

// The process-wide pool every subsystem shares, sized NumPoolThreads() - 1
// (the submitting thread is the last worker). Constructed on first use;
// never destroyed (workers park when idle). JOINEST_THREADS is read once,
// at first call.
ThreadPool& SharedThreadPool();

}  // namespace joinest

#endif  // JOINEST_COMMON_THREAD_POOL_H_
