#include "finance/creditrisk_plus.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>

#include "common/error.h"
#include "rng/gamma.h"
#include "rng/mersenne_twister.h"

namespace dwi::finance {

GammaSource buffered_gamma_source(std::span<const float> buffer,
                                  std::size_t num_sectors) {
  DWI_REQUIRE(num_sectors >= 1, "need at least one sector");
  return [buffer, num_sectors](std::uint64_t scenario,
                               std::size_t sector) -> double {
    const std::uint64_t idx = scenario * num_sectors + sector;
    DWI_REQUIRE(idx < buffer.size(),
                "gamma buffer exhausted: generate more scenarios");
    return static_cast<double>(buffer[idx]);
  };
}

GammaSource sampler_gamma_source(const Portfolio& portfolio,
                                 std::uint32_t seed) {
  // One independent sampler + twister per sector, shared across calls.
  struct SectorStream {
    rng::GammaSampler sampler;
    rng::MersenneTwister mt;
  };
  auto streams = std::make_shared<std::vector<SectorStream>>();
  streams->reserve(portfolio.num_sectors());
  for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
    streams->push_back(SectorStream{
        rng::GammaSampler(
            rng::GammaConstants::from_sector_variance(
                static_cast<float>(portfolio.sectors()[k].variance)),
            rng::NormalTransform::kMarsagliaBray),
        rng::MersenneTwister(rng::mt19937_params(),
                             seed + static_cast<std::uint32_t>(k) * 7919u)});
  }
  return [streams](std::uint64_t, std::size_t sector) -> double {
    auto& s = (*streams)[sector];
    return static_cast<double>(
        s.sampler.sample([&s] { return s.mt.next(); }));
  };
}

LossDistribution::LossDistribution(std::vector<double> losses)
    : losses_(std::move(losses)) {
  DWI_REQUIRE(!losses_.empty(), "empty loss distribution");
  std::sort(losses_.begin(), losses_.end());
}

double LossDistribution::mean() const {
  double sum = 0.0;
  for (double l : losses_) sum += l;
  return sum / static_cast<double>(losses_.size());
}

double LossDistribution::variance() const {
  DWI_REQUIRE(losses_.size() > 1, "variance needs two scenarios");
  const double m = mean();
  double sum = 0.0;
  for (double l : losses_) sum += (l - m) * (l - m);
  return sum / static_cast<double>(losses_.size() - 1);
}

double LossDistribution::value_at_risk(double p) const {
  DWI_REQUIRE(p > 0.0 && p < 1.0, "confidence must be in (0, 1)");
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(losses_.size())) - 1);
  return losses_[std::min(idx, losses_.size() - 1)];
}

double LossDistribution::expected_shortfall(double p) const {
  // var + mean(loss - var) over the tail: every excess is >= 0, so a
  // tied tail returns exactly var and rounding never lands below it (a
  // plain mean of tied losses can, by one ulp).
  const double var = value_at_risk(p);
  double excess = 0.0;
  std::size_t n = 0;
  for (auto it = losses_.rbegin(); it != losses_.rend() && *it >= var; ++it) {
    excess += *it - var;
    ++n;
  }
  DWI_ASSERT(n > 0);
  return var + excess / static_cast<double>(n);
}

ScenarioAggregator::ScenarioAggregator(const Portfolio& portfolio,
                                       std::uint64_t poisson_seed)
    : portfolio_(&portfolio),
      engine_(poisson_seed),
      row_(portfolio.num_sectors()) {}

void ScenarioAggregator::consume_row(const double* sector_draws) {
  const Portfolio& p = *portfolio_;
  double loss = 0.0;
  for (const auto& o : p.obligors()) {
    // λ_i = p_i · (w_0 + Σ_k w_ik S_k): the CreditRisk+ conditional
    // Poisson intensity.
    double factor = o.idiosyncratic_weight();
    for (std::size_t k = 0; k < p.num_sectors(); ++k) {
      factor += o.sector_weights[k] * sector_draws[k];
    }
    const double lambda = o.default_probability * factor;
    std::poisson_distribution<unsigned> poisson(lambda);
    loss += static_cast<double>(poisson(engine_)) * o.exposure;
  }
  losses_.push_back(loss);
}

void ScenarioAggregator::consume_row(const float* sector_draws) {
  for (std::size_t k = 0; k < row_.size(); ++k) {
    row_[k] = static_cast<double>(sector_draws[k]);
  }
  consume_row(row_.data());
}

LossDistribution ScenarioAggregator::finish() && {
  return LossDistribution(std::move(losses_));
}

LossDistribution simulate_losses(const Portfolio& portfolio,
                                 const McConfig& config,
                                 const GammaSource& gamma) {
  DWI_REQUIRE(config.num_scenarios >= 2, "need at least two scenarios");
  ScenarioAggregator agg(portfolio, config.seed);
  std::vector<double> sector_draw(portfolio.num_sectors());
  for (std::uint64_t s = 0; s < config.num_scenarios; ++s) {
    for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
      sector_draw[k] = gamma(s, k);
    }
    agg.consume_row(sector_draw.data());
  }
  return std::move(agg).finish();
}

}  // namespace dwi::finance
