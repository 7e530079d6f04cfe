#include "serve/resident_pipeline.h"

#include <utility>

#include "common/error.h"
#include "finance/creditrisk_plus.h"
#include "rng/gamma.h"
#include "rng/philox.h"
#include "serve/metrics.h"
#include "serve/response_cache.h"
#include "serve/sampling_server.h"

namespace dwi::serve {

namespace {

double duration_seconds(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

ResidentPipeline::ResidentPipeline(const SamplingServer& server,
                                   ServerMetrics* metrics,
                                   std::size_t queue_capacity,
                                   std::size_t pipe_depth,
                                   std::size_t row_block,
                                   ResponseCache* cache)
    : server_(&server),
      metrics_(metrics),
      cache_(cache),
      row_block_(row_block),
      admission_(queue_capacity, "resident.admission"),
      handoff_(pipe_depth, "resident.handoff"),
      rows_(pipe_depth, "resident.rows") {
  DWI_REQUIRE(row_block_ >= 1, "resident pipeline: row block must be >= 1");
  sampler_ = std::thread([this] { sampler_loop(); });
  aggregator_ = std::thread([this] { aggregator_loop(); });
}

ResidentPipeline::~ResidentPipeline() { shutdown(); }

void ResidentPipeline::shutdown() {
  {
    std::lock_guard lock(submit_mutex_);
    if (!accepting_) return;
    accepting_ = false;
    admission_.close();
  }
  sampler_.join();
  aggregator_.join();
}

PipeStallCounters ResidentPipeline::pipe_stalls() const {
  PipeStallCounters s;
  s.admission_write_stalls = admission_.write_stalls();
  s.admission_read_stalls = admission_.read_stalls();
  s.handoff_write_stalls = handoff_.write_stalls();
  s.handoff_read_stalls = handoff_.read_stalls();
  s.rows_write_stalls = rows_.write_stalls();
  s.rows_read_stalls = rows_.read_stalls();
  return s;
}

ServeStatus ResidentPipeline::try_enqueue(const CreditRiskRequest& req,
                                          std::future<CreditRiskResult>* out) {
  Job job;
  job.req = req;
  job.promise = std::make_shared<std::promise<CreditRiskResult>>();
  job.admitted_at = std::chrono::steady_clock::now();
  std::future<CreditRiskResult> future = job.promise->get_future();
  {
    std::lock_guard lock(submit_mutex_);
    if (!accepting_) return ServeStatus::kShuttingDown;
    if (!admission_.try_write(job)) return ServeStatus::kQueueFull;
  }
  *out = std::move(future);
  return ServeStatus::kAdmitted;
}

void ResidentPipeline::sampler_loop() {
  Job job;
  while (admission_.read(&job)) {
    job.started_at = std::chrono::steady_clock::now();
    // Hand the job forward first so the aggregator can start consuming
    // rows while this kernel is still producing them.
    handoff_.write(job);

    const finance::Portfolio& portfolio = *job.req.portfolio;
    const std::size_t K = portfolio.num_sectors();
    // Same streams, same construction order as the classic
    // SamplingServer::compute path — this is what makes the two paths
    // byte-identical.
    struct SectorStream {
      rng::GammaSampler sampler;
      rng::Philox px;
    };
    std::vector<SectorStream> streams;
    streams.reserve(K);
    for (std::size_t k = 0; k < K; ++k) {
      streams.push_back(SectorStream{
          rng::GammaSampler(
              rng::GammaConstants::from_sector_variance(static_cast<float>(
                  portfolio.sectors()[k].variance)),
              rng::NormalTransform::kMarsagliaBray),
          server_->sector_stream(job.req.id, k)});
    }

    RowBlock block;
    block.data.reserve(row_block_ * K);
    for (std::uint64_t s = 0; s < job.req.num_scenarios; ++s) {
      for (std::size_t k = 0; k < K; ++k) {
        SectorStream& st = streams[k];
        block.data.push_back(static_cast<double>(
            st.sampler.sample([&st] { return st.px.next(); })));
      }
      // The job's final block (never empty: num_scenarios >= 2) is
      // written after the budget check below.
      if (++block.rows == row_block_ && s + 1 < job.req.num_scenarios) {
        rows_.write(std::move(block));
        block = RowBlock{};
        block.data.reserve(row_block_ * K);
      }
    }
    try {
      for (std::size_t k = 0; k < K; ++k) {
        server_->check_budget(streams[k].px, job.req.id, 1 + k);
      }
    } catch (...) {
      block.error = std::current_exception();
    }
    rows_.write(std::move(block));
  }
  handoff_.close();
  rows_.close();
}

void ResidentPipeline::aggregator_loop() {
  Job job;
  while (handoff_.read(&job)) {
    const auto fail = [&](std::exception_ptr e) {
      metrics_->record_failed(
          duration_seconds(job.admitted_at, std::chrono::steady_clock::now()),
          duration_seconds(job.admitted_at, job.started_at));
      job.promise->set_exception(std::move(e));
    };
    try {
      const finance::Portfolio& portfolio = *job.req.portfolio;
      const std::size_t K = portfolio.num_sectors();
      finance::ScenarioAggregator agg(portfolio,
                                      server_->poisson_seed(job.req.id));
      std::uint64_t consumed = 0;
      RowBlock block;
      while (consumed < job.req.num_scenarios) {
        const bool ok = rows_.read(&block);
        DWI_REQUIRE(ok, "resident pipeline: row stream ended early");
        for (std::size_t r = 0; r < block.rows; ++r) {
          agg.consume_row(block.data.data() + r * K);
        }
        consumed += block.rows;
      }
      DWI_ASSERT(consumed == job.req.num_scenarios);
      if (block.error) std::rethrow_exception(block.error);

      const finance::LossDistribution dist = std::move(agg).finish();
      CreditRiskResult res;
      res.id = job.req.id;
      res.scenarios = dist.scenarios();
      res.mean = dist.mean();
      res.variance = dist.variance();
      res.var95 = dist.value_at_risk(0.95);
      res.var999 = dist.value_at_risk(0.999);
      res.es999 = dist.expected_shortfall(0.999);
      if (cache_) cache_->insert(job.req, res);
      metrics_->record_completed(
          duration_seconds(job.admitted_at, std::chrono::steady_clock::now()),
          duration_seconds(job.admitted_at, job.started_at),
          RequestKind::kCreditRisk);
      job.promise->set_value(res);
    } catch (...) {
      fail(std::current_exception());
    }
  }
}

}  // namespace dwi::serve
