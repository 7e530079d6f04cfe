// Batched admission and dispatch for the sampling service.
//
// Each scheduler owns a bounded FIFO of admitted jobs (a
// common/ring_buffer.h RingBuffer — the same structure the FPGA
// simulator uses for its channel queues). Producers (client threads)
// enqueue with explicit backpressure — try_enqueue() returns kQueueFull
// instead of ever blocking the caller.
//
// No scheduler owns a thread. Every scheduler's FIFO is drained by one
// process-wide set of workers, exec::thread_count() of them (at least
// one), read when a scheduler is constructed: DWI_THREADS and
// exec::set_thread_count size it. A free worker claims the next batch
// from whichever scheduler has queued work (round-robin over the
// schedulers with queued jobs), so N servers or cluster shards share
// the host's cores instead of each computing on a thread of its own —
// the paper's decoupled work-items meeting only at a shared channel.
// A batch is a contiguous prefix of the FIFO of *same-kind* jobs, at
// most `max_batch` long; the claiming worker runs it through
// exec::parallel_for on the process-wide exec pool.
//
// Several workers may run batches of one scheduler at once, so batches
// may finish out of admission order. Batching and claiming are pure
// scheduling decisions — each job computes from its own request-derived
// substream (sampling_server.cpp), so results are bit-identical
// whether a job ran alone, in a full batch, on any worker, or under
// any thread count.
//
// Shutdown contract: shutdown() stops admission (subsequent
// try_enqueue → kShuttingDown) and waits until this scheduler's queued
// and running jobs have finished. It joins no thread and never waits
// on another scheduler's jobs. No admitted job is ever dropped — every
// accepted future is eventually fulfilled.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ring_buffer.h"
#include "serve/metrics.h"
#include "serve/request.h"

namespace dwi::serve {

/// One admitted unit of work. `run` executes the request and fulfills
/// its promise; it must not throw (wrap failures into the promise).
struct Job {
  RequestKind kind = RequestKind::kGamma;
  RequestId request_id = 0;
  std::function<void()> run;
  std::chrono::steady_clock::time_point admitted_at{};
};

struct SchedulerConfig {
  std::size_t queue_capacity = 256;  ///< bounded admission depth
  std::size_t max_batch = 16;        ///< jobs coalesced per claim
  /// false = claim one job per batch (the batching ablation knob;
  /// results are identical either way, only latency/throughput move).
  bool batching = true;
};

struct SharedWorkers;  // the process-wide worker set (batch_scheduler.cpp)

class BatchScheduler {
 public:
  /// Registers with the shared workers, sizing them to
  /// exec::thread_count(). `metrics` must outlive the scheduler.
  BatchScheduler(SchedulerConfig cfg, ServerMetrics* metrics);
  ~BatchScheduler();  ///< shutdown(): waits for admitted work

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Non-blocking admission. kAdmitted means `job.run` will execute
  /// exactly once (possibly during shutdown drain); kQueueFull and
  /// kShuttingDown mean the job was NOT taken.
  ServeStatus try_enqueue(Job job);

  /// Stop admitting and wait until every job this scheduler admitted
  /// has run. Idempotent; safe to call concurrently with producers.
  void shutdown();

  const SchedulerConfig& config() const { return cfg_; }

  /// Jobs admitted but not yet claimed by a worker.
  std::size_t queue_depth() const;

 private:
  friend struct SharedWorkers;

  /// Pop the next batch into *batch and count it as running. Caller
  /// holds the shared workers' mutex and the queue is non-empty.
  void claim_locked(std::vector<Job>* batch);

  SchedulerConfig cfg_;
  ServerMetrics* metrics_;
  SharedWorkers& workers_;
  // Guarded by the shared workers' mutex.
  RingBuffer<Job> queue_;
  bool accepting_ = true;
  bool listed_ = false;        ///< on the workers' ready list
  std::size_t running_ = 0;    ///< claimed batches not yet finished
  /// Jobs that have run, destroyed at the next claim or at shutdown().
  /// A failed job's promise co-owns the exception its client may still
  /// be reading; the exception's reference count lives in the C++
  /// runtime, which ThreadSanitizer cannot see, so the promise is
  /// released only by a thread that took this mutex after the client
  /// did (its next admission, or shutdown()).
  std::vector<Job> finished_;
  std::condition_variable drained_;  ///< shutdown() waits here
};

}  // namespace dwi::serve
