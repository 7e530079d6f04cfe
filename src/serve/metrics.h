// Serving metrics: admission counters, queue depth, batch occupancy
// and per-request latency with order-statistic summaries.
//
// The recorder is deliberately simple — one mutex, plain counters, two
// latency reservoirs — because the serving hot path (the batch compute
// itself) runs on the shared workers and touches the recorder once per
// request, not per sample. snapshot() is the only reader and
// copies everything out, so a live server can be observed at any time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/request.h"

namespace dwi::serve {

/// Order statistics over a latency sample set (nearest-rank
/// percentiles, the convention load-testing tools report).
struct LatencySummary {
  std::size_t count = 0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Bounded uniform sample of a latency stream (Vitter's Algorithm R
/// with a deterministic splitmix64 replacement draw) plus EXACT
/// count/min/max/sum over everything ever recorded. Keeps the metrics
/// mutex hold time and memory bounded no matter how many requests the
/// server has served: record() is O(1), and a snapshot copies at most
/// `capacity` samples — the old recorder kept every latency forever
/// and copied the whole history under the lock on every snapshot().
/// Percentiles become estimates once count exceeds capacity;
/// count/min/max/mean stay exact.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = kDefaultCapacity);

  void record(double seconds);

  std::uint64_t count() const { return seen_; }
  std::size_t stored() const { return samples_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Summary with exact count/min/max/mean and reservoir-estimated
  /// percentiles. Copies at most capacity() samples.
  LatencySummary summarize() const;

  static constexpr std::size_t kDefaultCapacity = 8192;

 private:
  std::size_t capacity_;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_state_;
  double min_seconds_ = 0.0;
  double max_seconds_ = 0.0;
  double sum_seconds_ = 0.0;
};

/// Nearest-rank summary of `seconds` (consumed; empty input yields an
/// all-zero summary).
LatencySummary summarize_latencies(std::vector<double> seconds);

/// Point-in-time copy of every metric the server tracks. The latency
/// summary covers *finished* requests (completed or failed),
/// admission→completion; `queue_wait` covers the same requests,
/// admission→the moment a worker started the job. Percentiles are
/// reservoir estimates once more requests have finished than
/// LatencyReservoir::kDefaultCapacity (count, min, max and mean remain
/// exact).
struct MetricsSnapshot {
  std::uint64_t submitted = 0;          ///< all submission attempts
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;      ///< backpressure rejections
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;             ///< future carries an exception
  /// Response-cache outcomes (serve/response_cache.h). A hit counts as
  /// submitted + completed but never admitted; both stay zero when the
  /// cache is disabled (ServeConfig::response_cache_entries == 0).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Per-RequestKind slices of `submitted` / `completed`, indexed by
  /// static_cast<std::size_t>(kind) and named via to_string(kind) —
  /// the observability the multi-workload zoo needs (which kinds a
  /// shard actually serves). Sums equal the totals above.
  std::array<std::uint64_t, kNumRequestKinds> submitted_by_kind{};
  std::array<std::uint64_t, kNumRequestKinds> completed_by_kind{};
  std::size_t queue_high_water = 0;     ///< max observed admission depth
  std::uint64_t batches = 0;            ///< batches dispatched
  std::size_t max_batch_occupancy = 0;
  double mean_batch_occupancy = 0.0;    ///< requests per batch
  LatencySummary latency;
  /// Time queued before a worker started the job. A cache hit never
  /// queues and records 0, as its latency does.
  LatencySummary queue_wait;
};

class ServerMetrics {
 public:
  void record_submitted(RequestKind kind);
  void record_rejected(ServeStatus status);
  /// `queue_depth`: admission queue occupancy right after the push.
  void record_admitted(std::size_t queue_depth);
  void record_batch(std::size_t occupancy);
  /// `queue_wait_seconds`: admission until a worker started the job.
  void record_completed(double latency_seconds, double queue_wait_seconds,
                        RequestKind kind);
  void record_failed(double latency_seconds, double queue_wait_seconds);
  /// A cache hit also records submitted + completed (the caller
  /// observed both); this only bumps the hit counter itself.
  void record_cache_hit();
  void record_cache_miss();

  MetricsSnapshot snapshot() const;

  /// Latencies currently held by the reservoir (bounded by
  /// LatencyReservoir::kDefaultCapacity; the regression test pins
  /// this).
  std::size_t latency_samples_stored() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t submitted_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t rejected_invalid_ = 0;
  std::uint64_t rejected_shutdown_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::array<std::uint64_t, kNumRequestKinds> submitted_by_kind_{};
  std::array<std::uint64_t, kNumRequestKinds> completed_by_kind_{};
  std::size_t queue_high_water_ = 0;
  std::uint64_t batches_ = 0;
  std::size_t max_batch_occupancy_ = 0;
  std::uint64_t batched_requests_ = 0;
  LatencyReservoir latencies_;
  LatencyReservoir queue_waits_;
};

}  // namespace dwi::serve
