// SamplingServer: sampling-as-a-service over the repo's deterministic
// parallel machinery.
//
// The ROADMAP's north star is a service shape — many tenants, heavy
// traffic — and the paper's core asset (fully decoupled work-items
// that synchronize only at a shared channel) is exactly what a
// multi-tenant sampling backend needs: every request is an independent
// work-item. This server is the request/response layer every future
// scaling PR (sharding, multi-backend dispatch, result caching) plugs
// into.
//
// Pipeline: submit() validates and admits into the BatchScheduler's
// bounded FIFO (reject-with-typed-error on overload — the caller is
// never blocked indefinitely); the process-wide shared workers, which
// drain every server's FIFO, claim same-kind runs as batches and fan
// them out over the exec pool (the server owns no dispatch thread);
// each request computes on RNG substreams derived from
// (server_seed, request_id) via the counter-based
// rng::CounterSubstreams (one Philox counter write per substream).
//
// Determinism contract (pinned by tests/test_serve.cpp): a request's
// result is a pure function of the server seed and the request itself.
// Request id r owns substream indices
//   [r · substreams_per_request, (r+1) · substreams_per_request)
// of the master Philox sequence — gamma and zoo requests use slot 0, a
// CreditRisk+ request uses slot 1+k for sector k plus a Poisson seed
// mixed from (server_seed, id). Arrival order, batch boundaries,
// DWI_THREADS, the worker that claims a batch, and batching on/off
// cannot move a single bit of any response. Each slot owns
// substream_stride outputs; a request that reads past that budget
// fails with StreamBudgetError.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "common/error.h"
#include "rng/mersenne_twister.h"
#include "rng/philox.h"
#include "serve/batch_scheduler.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/response_cache.h"

namespace dwi::serve {

struct ServeConfig {
  /// Master seed of the substream family; the whole service's output
  /// is a deterministic function of this and the request stream.
  std::uint32_t server_seed = 1;

  /// Admission bounds, handed to the BatchScheduler as set: 0 in
  /// either throws dwi::Error at construction. A max_batch above
  /// queue_capacity stays as given (a claim never takes more than the
  /// queue holds).
  std::size_t queue_capacity = 256;
  std::size_t max_batch = 16;
  bool batching = true;

  /// Per-request limits (violations reject with kInvalidRequest).
  std::uint32_t max_gamma_count = 1u << 20;
  std::uint64_t max_scenarios = 1u << 20;
  /// Divergent-kernel zoo limits (src/workloads). Sized so the largest
  /// request's uniform consumption (2 draws per update/edge, 1+2·nnz
  /// per row plus the dense vector) stays far below substream_stride.
  std::uint32_t max_histogram_updates = 1u << 20;
  std::uint32_t max_histogram_bins = 1u << 16;
  std::uint32_t max_spmv_rows = 1u << 12;
  std::uint32_t max_spmv_nnz_per_row = 64;
  std::uint32_t max_matching_vertices = 1u << 16;
  std::uint32_t max_matching_edges = 1u << 20;

  /// Substream indices reserved per request id: slot 0 for gamma, slots
  /// 1..substreams_per_request-1 for CreditRisk+ sectors (so a
  /// portfolio may have at most substreams_per_request - 1 sectors).
  std::uint64_t substreams_per_request = 16;

  /// Master-sequence outputs reserved per substream: the budget every
  /// slot may consume. The default gives max_gamma_count samples a
  /// 64-uniform budget each (the Marsaglia-Tsang expectation is ~4–6).
  /// A request that reads past it fails with StreamBudgetError rather
  /// than returning values drawn from its neighbour's window.
  std::uint64_t substream_stride = 1ull << 26;

  /// MT geometry of the retired jump-ahead serve streams. The server no
  /// longer reads it; it stays so callers that replay jump-ahead
  /// substreams on the serve geometry keep compiling.
  rng::MtParams mt = rng::mt521_params();

  /// Bounded deterministic response cache
  /// (serve/response_cache.h): entries retained per request kind.
  /// 0 (default) disables caching entirely — no lookup, no counters —
  /// so existing baselines and determinism matrices are unaffected.
  std::size_t response_cache_entries = 0;
};

class SamplingServer {
 public:
  explicit SamplingServer(ServeConfig cfg = {});
  ~SamplingServer();  ///< shutdown(): drains in-flight work

  SamplingServer(const SamplingServer&) = delete;
  SamplingServer& operator=(const SamplingServer&) = delete;

  /// Non-blocking admission of any request kind: on kAdmitted, *out
  /// receives the future; any other status leaves *out untouched.
  /// Never blocks, never throws on overload. `cache_hit` (may be null)
  /// reports whether the response came from the response cache (the
  /// future is then already ready and nothing entered the admission
  /// queue); the cluster router uses it to skip modeled-device
  /// accounting for cached answers. Zoo requests derive their input
  /// trace from the request's slot-0 substream — the one gamma_stream()
  /// exposes — so every response (payload and cycle stats) is a pure
  /// function of (server_seed, request content).
  template <ServeRequest Request>
  ServeStatus try_submit(const Request& req,
                         std::future<ResultOf<Request>>* out,
                         bool* cache_hit = nullptr);

  /// Throwing wrapper: returns the future or throws RejectedError.
  template <ServeRequest Request>
  std::future<ResultOf<Request>> submit(const Request& req) {
    std::future<ResultOf<Request>> f;
    const ServeStatus s = try_submit(req, &f);
    if (s != ServeStatus::kAdmitted) {
      throw_rejected("serve", kind_of<Request>, s);
    }
    return f;
  }

  /// Synchronous convenience: submit and wait.
  template <ServeRequest Request>
  ResultOf<Request> run(const Request& req) {
    return submit(req).get();
  }

  /// Stop admitting, wait until every request this server admitted has
  /// run, fulfill every accepted future. Joins no thread of the shared
  /// workers and never waits on another server's requests. Idempotent.
  void shutdown();

  /// Snapshot of the server's counters and latency summary.
  MetricsSnapshot metrics() const;
  /// The configuration exactly as the caller set it.
  const ServeConfig& config() const { return cfg_; }

  /// Current admission-queue occupancy. The cluster router's
  /// least-loaded placement reads this.
  std::size_t queue_depth() const;

  /// The substream a gamma or zoo request with this id draws from
  /// (exposed so tests and offline pipelines can reproduce server
  /// results without a server): the Philox stream positioned at the
  /// request's slot 0, derived in O(1). skip() or seek() reaches any
  /// position of the request's uniform tape in O(1), so offline
  /// recomputation of a served response (or any suffix of one) never
  /// replays the master sequence.
  rng::Philox gamma_stream(RequestId id) const;
  /// The substream sector `k` of CreditRisk+ request `id` draws from.
  rng::Philox sector_stream(RequestId id, std::size_t k) const;
  /// The Poisson seed CreditRisk+ request `id` conditions on.
  std::uint64_t poisson_seed(RequestId id) const;

  /// Stream-budget guard every compute path runs on each substream a
  /// request used, once the request is done: throws StreamBudgetError
  /// when `stream` consumed more than substream_stride outputs (`slot`
  /// as in StreamBudgetError::slot()).
  void check_budget(const rng::Philox& stream, RequestId id,
                    std::uint64_t slot) const;

 private:
  /// Per-kind parameter checks (try_submit range-checks the id once for
  /// every kind) and the per-kind kernels.
  ServeStatus validate(const GammaRequest& req) const;
  ServeStatus validate(const CreditRiskRequest& req) const;
  ServeStatus validate(const HistogramRequest& req) const;
  ServeStatus validate(const SpmvRequest& req) const;
  ServeStatus validate(const MatchingRequest& req) const;
  GammaResult compute(const GammaRequest& req) const;
  CreditRiskResult compute(const CreditRiskRequest& req) const;
  HistogramResult compute(const HistogramRequest& req) const;
  SpmvResult compute(const SpmvRequest& req) const;
  MatchingResult compute(const MatchingRequest& req) const;

  /// Serve `req` from the cache if present: fulfills *out with an
  /// already-ready future, records submitted/hit/completed (never
  /// admitted), sets *cache_hit. Returns false (recording a miss) when
  /// the cache is enabled but cold; no-op false when disabled.
  template <ServeRequest Request>
  bool serve_from_cache(const Request& req,
                        std::future<ResultOf<Request>>* out, bool* cache_hit);

  /// Admit `req` onto the batch scheduler.
  template <ServeRequest Request>
  ServeStatus enqueue(const Request& req, std::future<ResultOf<Request>>* out);

  ServeConfig cfg_;
  /// Largest id whose substream block [id·spr, (id+1)·spr) fits below
  /// 2^64 (spr = substreams_per_request); larger ids are invalid.
  RequestId max_request_id_ = 0;
  rng::CounterSubstreams streams_;
  ServerMetrics metrics_;
  /// Response cache (cfg_.response_cache_entries; null when disabled).
  /// Declared before the scheduler so in-flight jobs can still insert
  /// while it drains on shutdown.
  std::unique_ptr<ResponseCache> cache_;
  std::unique_ptr<BatchScheduler> scheduler_;
};

template <ServeRequest Request>
ServeStatus SamplingServer::try_submit(const Request& req,
                                       std::future<ResultOf<Request>>* out,
                                       bool* cache_hit) {
  DWI_ASSERT(out != nullptr);
  if (cache_hit) *cache_hit = false;
  metrics_.record_submitted(kind_of<Request>);
  ServeStatus status = req.id <= max_request_id_
                           ? validate(req)
                           : ServeStatus::kInvalidRequest;
  if (status == ServeStatus::kAdmitted) {
    if (serve_from_cache(req, out, cache_hit)) return status;
    status = enqueue(req, out);
  }
  if (status != ServeStatus::kAdmitted) metrics_.record_rejected(status);
  return status;
}

template <ServeRequest Request>
bool SamplingServer::serve_from_cache(const Request& req,
                                      std::future<ResultOf<Request>>* out,
                                      bool* cache_hit) {
  if (!cache_) return false;
  ResultOf<Request> cached;
  if (!cache_->lookup(req, &cached)) {
    metrics_.record_cache_miss();
    return false;
  }
  metrics_.record_cache_hit();
  // Answered in-line, nothing queued.
  metrics_.record_completed(0.0, 0.0, kind_of<Request>);
  std::promise<ResultOf<Request>> promise;
  promise.set_value(std::move(cached));
  *out = promise.get_future();
  if (cache_hit) *cache_hit = true;
  return true;
}

template <ServeRequest Request>
ServeStatus SamplingServer::enqueue(const Request& req,
                                    std::future<ResultOf<Request>>* out) {
  using Result = ResultOf<Request>;
  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> future = promise->get_future();
  Job job;
  job.kind = kind_of<Request>;
  job.request_id = req.id;
  job.admitted_at = std::chrono::steady_clock::now();
  // The job owns everything it touches (scheduler contract); `this`
  // outlives it because shutdown() drains before the server dies.
  // Metrics are recorded before the promise is fulfilled so a caller
  // that sees the future ready also sees the completion counted.
  job.run = [this, req, promise, admitted_at = job.admitted_at] {
    const auto elapsed = [admitted_at] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           admitted_at)
          .count();
    };
    const double queue_wait = elapsed();
    try {
      Result result = compute(req);
      if (cache_) cache_->insert(req, result);
      metrics_.record_completed(elapsed(), queue_wait, kind_of<Request>);
      promise->set_value(std::move(result));
    } catch (...) {
      metrics_.record_failed(elapsed(), queue_wait);
      promise->set_exception(std::current_exception());
    }
  };
  const ServeStatus status = scheduler_->try_enqueue(std::move(job));
  if (status == ServeStatus::kAdmitted) *out = std::move(future);
  return status;
}

}  // namespace dwi::serve
