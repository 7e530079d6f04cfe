#include "serve/sampling_server.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/error.h"
#include "finance/creditrisk_plus.h"
#include "rng/gamma.h"
#include "workloads/histogram.h"
#include "workloads/matching.h"
#include "workloads/spmv.h"

namespace dwi::serve {

namespace {

/// splitmix64 finalizer: mixes (server_seed, request_id) into the
/// Poisson seed so CreditRisk+ scenario noise is decorrelated across
/// requests yet fully reproducible.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

WorkloadStatsResult to_stats_result(const workloads::WorkloadStats& s) {
  WorkloadStatsResult r;
  r.cycles = s.cycles;
  r.initiations = s.initiations;
  r.hazard_stall_cycles = s.hazard_stall_cycles;
  r.forwarded = s.forwarded;
  r.skipped = s.skipped;
  return r;
}

}  // namespace

SamplingServer::SamplingServer(ServeConfig cfg)
    : cfg_(cfg), streams_(cfg.server_seed, cfg.substream_stride) {
  DWI_REQUIRE(cfg_.substreams_per_request >= 2,
              "serve: need at least one gamma slot and one sector slot "
              "per request id");
  const std::uint64_t spr = cfg_.substreams_per_request;
  max_request_id_ = (~std::uint64_t{0} - (spr - 1)) / spr;
  if (cfg_.response_cache_entries > 0) {
    cache_ = std::make_unique<ResponseCache>(cfg_.response_cache_entries);
  }
  SchedulerConfig sched;
  sched.queue_capacity = cfg_.queue_capacity;
  sched.max_batch = cfg_.max_batch;
  sched.batching = cfg_.batching;
  scheduler_ = std::make_unique<BatchScheduler>(sched, &metrics_);
}

SamplingServer::~SamplingServer() { shutdown(); }

void SamplingServer::shutdown() { scheduler_->shutdown(); }

MetricsSnapshot SamplingServer::metrics() const { return metrics_.snapshot(); }

std::size_t SamplingServer::queue_depth() const {
  return scheduler_->queue_depth();
}

rng::Philox SamplingServer::gamma_stream(RequestId id) const {
  return streams_.stream(id * cfg_.substreams_per_request);
}

rng::Philox SamplingServer::sector_stream(RequestId id, std::size_t k) const {
  DWI_REQUIRE(k + 1 < cfg_.substreams_per_request,
              "serve: sector index exceeds the request's substream block");
  return streams_.stream(id * cfg_.substreams_per_request + 1 + k);
}

std::uint64_t SamplingServer::poisson_seed(RequestId id) const {
  return mix64((static_cast<std::uint64_t>(cfg_.server_seed) << 32) ^ id);
}

void SamplingServer::check_budget(const rng::Philox& stream, RequestId id,
                                  std::uint64_t slot) const {
  if (stream.consumed() > cfg_.substream_stride) {
    throw StreamBudgetError(id, slot, stream.consumed(),
                            cfg_.substream_stride);
  }
}

ServeStatus SamplingServer::validate(const GammaRequest& req) const {
  if (req.count == 0 || req.count > cfg_.max_gamma_count) {
    return ServeStatus::kInvalidRequest;
  }
  if (!(req.alpha > 0.0f) || !std::isfinite(req.alpha)) {
    return ServeStatus::kInvalidRequest;
  }
  if (!(req.scale > 0.0f) || !std::isfinite(req.scale)) {
    return ServeStatus::kInvalidRequest;
  }
  return ServeStatus::kAdmitted;
}

ServeStatus SamplingServer::validate(const CreditRiskRequest& req) const {
  if (!req.portfolio) return ServeStatus::kInvalidRequest;
  if (req.num_scenarios < 2 || req.num_scenarios > cfg_.max_scenarios) {
    return ServeStatus::kInvalidRequest;
  }
  const std::size_t sectors = req.portfolio->num_sectors();
  if (sectors == 0 || sectors > cfg_.substreams_per_request - 1) {
    return ServeStatus::kInvalidRequest;
  }
  return ServeStatus::kAdmitted;
}

ServeStatus SamplingServer::validate(const HistogramRequest& req) const {
  if (req.num_updates == 0 || req.num_updates > cfg_.max_histogram_updates) {
    return ServeStatus::kInvalidRequest;
  }
  if (req.num_bins == 0 || req.num_bins > cfg_.max_histogram_bins) {
    return ServeStatus::kInvalidRequest;
  }
  if (!(req.hot_fraction >= 0.0f) || !(req.hot_fraction <= 1.0f) ||
      !std::isfinite(req.hot_fraction)) {
    return ServeStatus::kInvalidRequest;
  }
  return ServeStatus::kAdmitted;
}

ServeStatus SamplingServer::validate(const SpmvRequest& req) const {
  if (req.rows == 0 || req.rows > cfg_.max_spmv_rows) {
    return ServeStatus::kInvalidRequest;
  }
  if (req.nnz_per_row_min > req.nnz_per_row_max ||
      req.nnz_per_row_max > cfg_.max_spmv_nnz_per_row) {
    return ServeStatus::kInvalidRequest;
  }
  return ServeStatus::kAdmitted;
}

ServeStatus SamplingServer::validate(const MatchingRequest& req) const {
  if (req.num_vertices < 2 || req.num_vertices > cfg_.max_matching_vertices) {
    return ServeStatus::kInvalidRequest;
  }
  if (req.num_edges == 0 || req.num_edges > cfg_.max_matching_edges) {
    return ServeStatus::kInvalidRequest;
  }
  return ServeStatus::kAdmitted;
}

GammaResult SamplingServer::compute(const GammaRequest& req) const {
  rng::GammaSampler sampler(rng::GammaConstants::make(req.alpha, req.scale),
                            req.transform);
  GammaResult res;
  res.id = req.id;
  res.samples.resize(req.count);
  rng::Philox px = gamma_stream(req.id);
  sampler.sample_block(px, res.samples.data(), res.samples.size());
  check_budget(px, req.id, 0);
  res.attempts = sampler.attempts();
  res.accepted = sampler.accepted();
  return res;
}

CreditRiskResult SamplingServer::compute(const CreditRiskRequest& req) const {
  const finance::Portfolio& portfolio = *req.portfolio;
  // One gamma sampler over its own substream per sector.
  struct SectorStream {
    rng::GammaSampler sampler;
    rng::Philox px;
  };
  std::vector<SectorStream> streams;
  streams.reserve(portfolio.num_sectors());
  for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
    streams.push_back(SectorStream{
        rng::GammaSampler(rng::GammaConstants::from_sector_variance(
                              static_cast<float>(
                                  portfolio.sectors()[k].variance)),
                          rng::NormalTransform::kMarsagliaBray),
        sector_stream(req.id, k)});
  }
  const finance::GammaSource source =
      [&streams](std::uint64_t, std::size_t sector) -> double {
    SectorStream& s = streams[sector];
    return static_cast<double>(s.sampler.sample([&s] { return s.px.next(); }));
  };

  finance::McConfig mc;
  mc.num_scenarios = req.num_scenarios;
  mc.seed = poisson_seed(req.id);
  const finance::LossDistribution dist =
      finance::simulate_losses(portfolio, mc, source);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    check_budget(streams[k].px, req.id, 1 + k);
  }

  CreditRiskResult res;
  res.id = req.id;
  res.scenarios = dist.scenarios();
  res.mean = dist.mean();
  res.variance = dist.variance();
  res.var95 = dist.value_at_risk(0.95);
  res.var999 = dist.value_at_risk(0.999);
  res.es999 = dist.expected_shortfall(0.999);
  return res;
}

HistogramResult SamplingServer::compute(const HistogramRequest& req) const {
  rng::Philox px = gamma_stream(req.id);
  const workloads::HistogramTrace trace = workloads::make_histogram_trace(
      req.num_updates, req.num_bins, req.hot_fraction,
      [&px] { return px.next(); });
  check_budget(px, req.id, 0);

  workloads::HistogramConfig kcfg;
  kcfg.num_bins = req.num_bins;
  kcfg.mode = req.mode;
  workloads::HistogramOutput out =
      workloads::run_histogram(kcfg, trace.addrs, trace.weights);

  HistogramResult res;
  res.id = req.id;
  res.bins = std::move(out.bins);
  res.updates = req.num_updates;
  res.stats = to_stats_result(out.stats);
  return res;
}

SpmvResult SamplingServer::compute(const SpmvRequest& req) const {
  rng::Philox px = gamma_stream(req.id);
  const auto next = [&px] { return px.next(); };
  const workloads::CsrMatrix matrix = workloads::make_spmv_matrix(
      req.rows, req.rows, req.nnz_per_row_min, req.nnz_per_row_max, next);
  const std::vector<float> x = workloads::make_dense_vector(req.rows, next);
  check_budget(px, req.id, 0);

  workloads::SpmvConfig kcfg;
  kcfg.mode = req.mode;
  workloads::SpmvOutput out = workloads::run_spmv(kcfg, matrix, x);

  SpmvResult res;
  res.id = req.id;
  res.y = std::move(out.y);
  res.nnz = matrix.nnz();
  res.stats = to_stats_result(out.stats);
  return res;
}

MatchingResult SamplingServer::compute(const MatchingRequest& req) const {
  rng::Philox px = gamma_stream(req.id);
  const workloads::EdgeList graph = workloads::make_edge_list(
      req.num_vertices, req.num_edges, [&px] { return px.next(); });
  check_budget(px, req.id, 0);

  workloads::MatchingConfig kcfg;
  kcfg.mode = req.mode;
  kcfg.target_pairs = req.target_pairs;
  workloads::MatchingOutput out = workloads::run_matching(kcfg, graph);

  MatchingResult res;
  res.id = req.id;
  res.match = std::move(out.match);
  res.pairs = out.pairs;
  res.edges_examined = out.edges_examined;
  res.stats = to_stats_result(out.stats);
  return res;
}

}  // namespace dwi::serve
