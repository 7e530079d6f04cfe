// Batched admission and dispatch for the sampling service.
//
// The scheduler owns the *only* shared mutable state of the serving
// layer: a bounded FIFO of admitted jobs (a common/ring_buffer.h
// RingBuffer under one mutex — the same structure the FPGA simulator
// uses for its channel queues). Producers (client threads) enqueue
// with explicit backpressure — try_enqueue() returns kQueueFull
// instead of ever blocking the caller — and one scheduler thread
// drains the FIFO, coalescing *runs of same-kind jobs from the front*
// into batches of at most `max_batch`, which it executes on the
// process-wide exec::ThreadPool via parallel_for.
//
// Coalescing never reorders: a batch is a contiguous prefix of the
// FIFO, so admission order is completion-batch order and a slow kind
// cannot starve the other. Batching is a pure scheduling decision —
// each job computes from its own request-derived substream
// (sampling_server.cpp), so results are bit-identical whether a job
// ran alone, in a full batch, or under any thread count.
//
// Shutdown contract: shutdown() stops admission (subsequent
// try_enqueue → kShuttingDown), lets the scheduler drain every
// already-admitted job, then joins. No admitted job is ever dropped —
// every accepted future is eventually fulfilled.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

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
  std::size_t max_batch = 16;        ///< jobs coalesced per dispatch
  /// false = dispatch one job per batch (the batching ablation knob;
  /// results are identical either way, only latency/throughput move).
  bool batching = true;
};

class BatchScheduler {
 public:
  /// Starts the scheduler thread. `metrics` must outlive the scheduler.
  BatchScheduler(SchedulerConfig cfg, ServerMetrics* metrics);
  ~BatchScheduler();  ///< shutdown(): drains admitted work, then joins

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Non-blocking admission. kAdmitted means `job.run` will execute
  /// exactly once (possibly during shutdown drain); kQueueFull and
  /// kShuttingDown mean the job was NOT taken.
  ServeStatus try_enqueue(Job job);

  /// Stop admitting, drain every admitted job, join the scheduler
  /// thread. Idempotent; safe to call concurrently with producers.
  void shutdown();

  const SchedulerConfig& config() const { return cfg_; }

  /// Approximate admission-queue occupancy (for observability).
  std::size_t queue_depth() const;

 private:
  void loop();

  SchedulerConfig cfg_;
  ServerMetrics* metrics_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  RingBuffer<Job> queue_;
  bool accepting_ = true;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace dwi::serve
