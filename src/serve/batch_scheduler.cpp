#include "serve/batch_scheduler.h"

#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.h"
#include "exec/parallel_for.h"

namespace dwi::serve {

/// The process-wide workers that drain every scheduler's FIFO. One
/// mutex guards the ready list and every scheduler's queue and
/// counters: each critical section is a few pointer moves, far below
/// the cost of the batch it hands out.
///
/// A scheduler is on `ready` exactly when its queue is non-empty and
/// no worker is between popping it from `ready` and claiming from it.
/// The claiming worker puts it back at the tail while jobs remain, so
/// the next free worker can claim the scheduler's next batch while the
/// first still runs, and schedulers with queued work take turns.
struct SharedWorkers {
  std::mutex mutex;
  std::condition_variable work;
  std::deque<BatchScheduler*> ready;
  /// Slot i runs worker i; workers [0, active) claim batches, a worker
  /// at or above `active` exits when it is next free.
  std::vector<std::thread> threads;
  std::vector<bool> running;  ///< slot i's thread has not exited
  unsigned active = 0;
  bool stop = false;

  static SharedWorkers& instance() {
    static SharedWorkers workers;
    return workers;
  }

  ~SharedWorkers() {
    {
      std::lock_guard lock(mutex);
      stop = true;
    }
    work.notify_all();
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }

  /// Make `n` workers claim batches: start the missing ones, and let
  /// the ones above `n` exit once they are free.
  void resize(unsigned n) {
    std::lock_guard lock(mutex);
    if (n == active) return;
    active = n;
    if (threads.size() < n) {
      threads.resize(n);
      running.resize(n, false);
    }
    for (unsigned i = 0; i < n; ++i) {
      if (running[i]) continue;  // busy or idle, it stays on
      // An exited worker released the mutex before it returned, so
      // this join cannot wait on it.
      if (threads[i].joinable()) threads[i].join();
      running[i] = true;
      threads[i] = std::thread([this, i] { loop(i); });
    }
    work.notify_all();
  }

  void loop(unsigned index) {
    std::vector<Job> batch;
    std::vector<Job> retired;
    std::unique_lock lock(mutex);
    for (;;) {
      work.wait(lock, [&] {
        return stop || index >= active || !ready.empty();
      });
      if (stop) return;
      if (index >= active) {
        running[index] = false;
        // This worker may have taken the wakeup meant for another.
        if (!ready.empty()) work.notify_one();
        return;
      }
      BatchScheduler* s = ready.front();
      ready.pop_front();
      s->claim_locked(&batch);
      retired.swap(s->finished_);
      lock.unlock();
      retired.clear();

      s->metrics_->record_batch(batch.size());
      // Jobs are independent (each computes from its own substream), so
      // the batch fans out over the exec pool with this worker taking
      // part. run() never throws by contract.
      exec::parallel_for(batch.size(),
                         [&](std::size_t i) { batch[i].run(); });

      lock.lock();
      for (Job& job : batch) s->finished_.push_back(std::move(job));
      batch.clear();
      if (--s->running_ == 0 && !s->accepting_ && s->queue_.empty()) {
        // Notified under the mutex: once it is released, shutdown() may
        // return and the scheduler die.
        s->drained_.notify_all();
      }
    }
  }
};

BatchScheduler::BatchScheduler(SchedulerConfig cfg, ServerMetrics* metrics)
    : cfg_(cfg),
      metrics_(metrics),
      workers_(SharedWorkers::instance()),
      queue_(cfg.queue_capacity) {
  DWI_REQUIRE(cfg.queue_capacity > 0, "serve: queue capacity must be > 0");
  DWI_REQUIRE(cfg.max_batch > 0, "serve: max_batch must be > 0");
  DWI_ASSERT(metrics_ != nullptr);
  workers_.resize(exec::thread_count());  // always >= 1
}

BatchScheduler::~BatchScheduler() { shutdown(); }

ServeStatus BatchScheduler::try_enqueue(Job job) {
  DWI_ASSERT(job.run != nullptr);
  std::size_t depth = 0;
  {
    std::lock_guard lock(workers_.mutex);
    if (!accepting_) return ServeStatus::kShuttingDown;
    if (queue_.full()) return ServeStatus::kQueueFull;
    queue_.push(std::move(job));
    depth = queue_.size();
    if (!listed_) {
      listed_ = true;
      workers_.ready.push_back(this);
    }
  }
  metrics_->record_admitted(depth);
  workers_.work.notify_one();
  return ServeStatus::kAdmitted;
}

void BatchScheduler::shutdown() {
  std::vector<Job> retired;
  std::unique_lock lock(workers_.mutex);
  accepting_ = false;
  drained_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
  retired.swap(finished_);
  lock.unlock();
}

std::size_t BatchScheduler::queue_depth() const {
  std::lock_guard lock(workers_.mutex);
  return queue_.size();
}

void BatchScheduler::claim_locked(std::vector<Job>* batch) {
  DWI_ASSERT(listed_ && !queue_.empty());
  const RequestKind kind = queue_.front().kind;
  const std::size_t limit = cfg_.batching ? cfg_.max_batch : 1;
  while (!queue_.empty() && batch->size() < limit &&
         queue_.front().kind == kind) {
    batch->push_back(queue_.pop());
  }
  ++running_;
  if (queue_.empty()) {
    listed_ = false;
  } else {
    workers_.ready.push_back(this);
  }
}

}  // namespace dwi::serve
