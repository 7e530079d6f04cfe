// Resident CreditRisk+ serving pipeline: the serve-path fusion of the
// inter-kernel pipe work (hls/pipe.h, finance/pipeline).
//
// The classic path treats every CreditRisk+ request as one kernel
// launch: a shared worker claims the closure from the server's
// BatchScheduler queue and runs it, sampling all sector draws and then
// aggregating them, request by request. The resident path instead keeps TWO kernels permanently
// running — a sector-sampler and a conditional-Poisson aggregator —
// connected by bounded pipes:
//
//   admission ─Pipe<Job>→ sampler ─Pipe<Job>──────→ aggregator
//                                 └Pipe<RowBlock>─↗
//
// Requests stream in, scenario rows stream across, results stream out;
// no per-request thread launches, and aggregation of a request's early
// scenarios overlaps sampling of its later ones (and of the next
// request's) — the paper's decoupling, applied between serving stages.
//
// Determinism (pinned by tests/test_serve.cpp): the resident path
// reproduces the classic path BYTE FOR BYTE. It derives the same
// per-sector substreams from (server_seed, id) through the server's
// public stream accessors, consumes them in the same scenario-major,
// sector-minor order, and feeds the same rows in the same order to a
// ScenarioAggregator seeded with the same Poisson seed — so every
// CreditRiskResult field is bit-identical whether `resident` is on or
// off, for every row-block size and pipe depth.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "hls/pipe.h"
#include "serve/metrics.h"
#include "serve/request.h"

namespace dwi::serve {

class ResponseCache;
class SamplingServer;

class ResidentPipeline {
 public:
  /// `server` must outlive the pipeline (it is a member of the server;
  /// the server destroys it first). `cache` may be null; when set, the
  /// aggregator inserts every finished result so idempotent retries of
  /// a served id are answered without re-entering the chain.
  ResidentPipeline(const SamplingServer& server, ServerMetrics* metrics,
                   std::size_t queue_capacity, std::size_t pipe_depth,
                   std::size_t row_block, ResponseCache* cache = nullptr);
  ~ResidentPipeline();

  ResidentPipeline(const ResidentPipeline&) = delete;
  ResidentPipeline& operator=(const ResidentPipeline&) = delete;

  /// Non-blocking admission into the resident chain. The request must
  /// already be validated.
  ServeStatus try_enqueue(const CreditRiskRequest& req,
                          std::future<CreditRiskResult>* out);

  /// Stop admitting, drain every admitted request, join the resident
  /// kernels. Idempotent.
  void shutdown();

  /// Admission-queue occupancy (for the queue high-water metric).
  std::size_t queue_depth() const { return admission_.size(); }

  /// Current blocking-stall counts of the three pipes; merged into the
  /// server's MetricsSnapshot. Monotone over the pipeline's lifetime.
  PipeStallCounters pipe_stalls() const;

 private:
  struct Job {
    CreditRiskRequest req;
    std::shared_ptr<std::promise<CreditRiskResult>> promise;
    std::chrono::steady_clock::time_point admitted_at;
    std::chrono::steady_clock::time_point started_at;  ///< sampler read it
  };
  /// A block of consecutive scenario rows (rows x num_sectors,
  /// scenario-major) for the job most recently handed to the
  /// aggregator. One sampler and FIFO pipes keep blocks in job order.
  struct RowBlock {
    std::size_t rows = 0;
    std::vector<double> data;
    /// Set on a job's final block when its streams overran their
    /// budget (SamplingServer::check_budget); the aggregator fails the
    /// job with it.
    std::exception_ptr error;
  };

  void sampler_loop();
  void aggregator_loop();

  const SamplingServer* server_;
  ServerMetrics* metrics_;
  ResponseCache* cache_;  ///< may be null (caching disabled)
  std::size_t row_block_;

  hls::Pipe<Job> admission_;
  hls::Pipe<Job> handoff_;   ///< sampler → aggregator job metadata
  hls::Pipe<RowBlock> rows_; ///< sampler → aggregator scenario rows

  std::mutex submit_mutex_;  ///< serializes try_enqueue vs close()
  bool accepting_ = true;

  std::thread sampler_;
  std::thread aggregator_;
};

}  // namespace dwi::serve
