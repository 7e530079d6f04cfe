// CreditRisk+ Monte-Carlo engine: the consumer of the paper's gamma
// random numbers (§II-D4). Each scenario draws one gamma variable per
// sector, conditions every obligor's Poisson default intensity on the
// sector draw, and accumulates the portfolio loss; the loss
// distribution yields Value-at-Risk and expected shortfall.
//
// The gamma variables can come from any source — the library sampler,
// the double-precision reference, or a buffer produced by the FPGA
// pipeline (examples/credit_risk_plus wires the full decoupled
// work-item path in) — so the engine doubles as an end-to-end
// validation consumer for every generator in the repository.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include "finance/portfolio.h"

namespace dwi::finance {

/// Supplies the gamma draw for (scenario, sector). Must return samples
/// from Gamma(1/v_k, v_k) for the portfolio's sector k.
using GammaSource =
    std::function<double(std::uint64_t scenario, std::size_t sector)>;

/// A GammaSource over a pre-generated buffer laid out scenario-major
/// (scenario · num_sectors + sector) — the layout the FPGA transfer
/// units produce per §IV-B.
GammaSource buffered_gamma_source(std::span<const float> buffer,
                                  std::size_t num_sectors);

/// A GammaSource drawing live from the library's Marsaglia-Tsang
/// sampler (one independent stream per sector).
GammaSource sampler_gamma_source(const Portfolio& portfolio,
                                 std::uint32_t seed);

struct McConfig {
  std::uint64_t num_scenarios = 10'000;
  std::uint64_t seed = 1;  ///< for the Poisson default draws
};

class LossDistribution {
 public:
  explicit LossDistribution(std::vector<double> losses);

  double mean() const;
  double variance() const;
  /// Empirical quantile (VaR at confidence `p`, e.g. 0.999).
  double value_at_risk(double p) const;
  /// Expected shortfall: mean loss beyond the VaR.
  double expected_shortfall(double p) const;
  std::size_t scenarios() const { return losses_.size(); }
  const std::vector<double>& losses() const { return losses_; }

 private:
  std::vector<double> losses_;  ///< sorted ascending
};

/// Run the Monte-Carlo simulation.
LossDistribution simulate_losses(const Portfolio& portfolio,
                                 const McConfig& config,
                                 const GammaSource& gamma);

/// Streaming form of the Monte-Carlo consumer: the conditional-Poisson
/// loss accumulator of the CreditRisk+/Panjer model, fed one scenario
/// row (all sector draws) at a time. simulate_losses is expressed on
/// top of this, and the pipelined engines (finance/pipeline) feed it
/// from a pipe instead of a callback — consuming rows in scenario order
/// reproduces simulate_losses bit for bit, because the Poisson engine
/// state advances identically.
class ScenarioAggregator {
 public:
  /// `poisson_seed` is McConfig::seed.
  ScenarioAggregator(const Portfolio& portfolio, std::uint64_t poisson_seed);

  /// Consume one scenario: `sector_draws` holds num_sectors() gamma
  /// draws. Rows must arrive in scenario order.
  void consume_row(const double* sector_draws);
  /// Same, over the float rows the FPGA-shaped stages emit (each draw
  /// widened exactly as buffered_gamma_source widens a buffer entry).
  void consume_row(const float* sector_draws);

  std::uint64_t scenarios() const { return losses_.size(); }

  /// Finish: sort and wrap the losses. The aggregator is spent.
  LossDistribution finish() &&;

 private:
  const Portfolio* portfolio_;
  std::mt19937_64 engine_;
  std::vector<double> losses_;
  std::vector<double> row_;  ///< widening scratch for float rows
};

}  // namespace dwi::finance
