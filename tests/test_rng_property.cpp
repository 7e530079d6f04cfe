// Property-based tests across the RNG substrate: parameterized
// equidistribution sweeps, transform invariants (symmetry,
// monotonicity, acceptance bounds), enable-pattern properties of the
// adapted twister, and cross-implementation agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <random>
#include <span>
#include <vector>

#include "common/bits.h"
#include "rng/erfinv.h"
#include "rng/gamma.h"
#include "rng/icdf_bitwise.h"
#include "rng/mersenne_twister.h"
#include "rng/normal.h"
#include "stats/distributions.h"
#include "stats/ks_test.h"
#include "stats/moments.h"
#include "stats/special.h"

namespace dwi::rng {
namespace {

// --- Mersenne-Twister sweeps ----------------------------------------------

struct MtCase {
  const char* name;
  bool use_521;
  std::uint32_t seed;
};

// Without this, gtest prints the parameter as a raw byte dump, which
// holds the address of `name` and makes the discovered test names
// change with every build.
void PrintTo(const MtCase& param, std::ostream* os) { *os << param.name; }

class MtEquidistribution : public ::testing::TestWithParam<MtCase> {};

TEST_P(MtEquidistribution, PairsFillTheUnitSquare) {
  // 2-D equidistribution: successive pairs land uniformly in a 8x8
  // grid (chi-square on 64 cells).
  const auto& param = GetParam();
  MersenneTwister mt(param.use_521 ? mt521_params() : mt19937_params(),
                     param.seed);
  constexpr int kPairs = 120000;
  std::array<int, 64> cells{};
  for (int i = 0; i < kPairs; ++i) {
    const auto x = static_cast<unsigned>(mt.next() >> 29);  // 3 bits
    const auto y = static_cast<unsigned>(mt.next() >> 29);
    ++cells[x * 8 + y];
  }
  const double expected = kPairs / 64.0;
  double x2 = 0.0;
  for (int c : cells) {
    const double d = c - expected;
    x2 += d * d / expected;
  }
  // 63 dof: reject only far in the tail.
  EXPECT_LT(x2, 120.0) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Generators, MtEquidistribution,
    ::testing::Values(MtCase{"mt19937_s1", false, 1u},
                      MtCase{"mt19937_s42", false, 42u},
                      MtCase{"mt521_s1", true, 1u},
                      MtCase{"mt521_s42", true, 42u},
                      MtCase{"mt521_s777", true, 777u}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

TEST(AdaptedMtProperty, RandomEnablePatternsNeverDistort) {
  // For many random enable patterns, the filtered output equals the
  // plain sequence — the §II-E guarantee, hammered.
  for (std::uint32_t pattern_seed = 1; pattern_seed <= 8; ++pattern_seed) {
    MersenneTwister plain(mt521_params(), 5u);
    AdaptedMersenneTwister gated(mt521_params(), 5u);
    std::mt19937 pattern(pattern_seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const double enable_prob = 0.1 + 0.8 * u(pattern);
    for (int step = 0; step < 3000; ++step) {
      const bool enable = u(pattern) < enable_prob;
      const std::uint32_t out = gated.next(enable);
      if (enable) {
        ASSERT_EQ(out, plain.next())
            << "pattern " << pattern_seed << " step " << step;
      }
    }
  }
}

// --- transform invariants ---------------------------------------------------

TEST(ErfinvProperty, MonotoneIncreasing) {
  float prev = -std::numeric_limits<float>::infinity();
  for (float x = -0.9999f; x < 0.9999f; x += 1e-3f) {
    const float y = erfinv_giles(x);
    ASSERT_GE(y, prev) << "x=" << x;
    prev = y;
  }
}

TEST(IcdfBitwiseProperty, QuantileMappingPreservesOrderStatistics) {
  // For uniform u, P(icdf(u) <= t) must equal Φ(t): check at a grid of
  // thresholds with exact counting over a random sample.
  std::mt19937 eng(3);
  constexpr int kN = 300000;
  std::vector<float> xs;
  xs.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    const auto r = normal_icdf_bitwise(static_cast<std::uint32_t>(eng()));
    if (r.valid) xs.push_back(r.value);
  }
  for (double t : {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0}) {
    const auto below = static_cast<double>(
        std::count_if(xs.begin(), xs.end(),
                      [&](float v) { return v <= t; }));
    const double empirical = below / static_cast<double>(xs.size());
    EXPECT_NEAR(empirical, stats::normal_cdf(t), 0.004) << "t=" << t;
  }
}

TEST(MarsagliaBrayProperty, AcceptedSamplesIndependentOfRejectionCount) {
  // The distribution of an accepted sample must not depend on how many
  // rejections preceded it (memorylessness of rejection sampling):
  // split accepted samples by preceding-rejection parity and compare.
  MersenneTwister mt(mt19937_params(), 31u);
  stats::RunningMoments after_even;
  stats::RunningMoments after_odd;
  int rejections = 0;
  for (int i = 0; i < 400000; ++i) {
    const auto a = marsaglia_bray_attempt(mt.next(), mt.next());
    if (!a.valid) {
      ++rejections;
      continue;
    }
    ((rejections % 2 == 0) ? after_even : after_odd)
        .add(static_cast<double>(a.value));
    rejections = 0;
  }
  EXPECT_NEAR(after_even.mean(), after_odd.mean(), 0.02);
  EXPECT_NEAR(after_even.variance(), after_odd.variance(), 0.03);
}

TEST(GammaProperty, AcceptanceProbabilityIncreasesWithShape) {
  // Marsaglia-Tsang acceptance grows with d (larger α): sweep.
  double prev_rate = 0.0;
  for (float alpha : {1.1f, 2.0f, 4.0f, 16.0f}) {
    GammaSampler sampler(GammaConstants::make(alpha),
                         NormalTransform::kIcdfCuda);
    MersenneTwister mt(mt19937_params(), 71u);
    auto src = [&] { return mt.next(); };
    for (int i = 0; i < 30000; ++i) (void)sampler.sample(src);
    const double acceptance = 1.0 - sampler.rejection_rate();
    EXPECT_GT(acceptance, prev_rate) << "alpha=" << alpha;
    prev_rate = acceptance;
  }
  EXPECT_GT(prev_rate, 0.99);  // large shapes accept nearly always
}

TEST(GammaProperty, ScalingIdentity) {
  // Gamma(α, b) == b · Gamma(α, 1) in distribution: compare moments of
  // the same stream scaled two ways.
  const float alpha = 0.72f;
  GammaSampler unit(GammaConstants::make(alpha, 1.0f),
                    NormalTransform::kMarsagliaBray);
  GammaSampler scaled(GammaConstants::make(alpha, 3.0f),
                      NormalTransform::kMarsagliaBray);
  MersenneTwister mt_a(mt19937_params(), 81u);
  MersenneTwister mt_b(mt19937_params(), 81u);  // identical stream
  auto src_a = [&] { return mt_a.next(); };
  auto src_b = [&] { return mt_b.next(); };
  for (int i = 0; i < 20000; ++i) {
    const float u = unit.sample(src_a);
    const float s = scaled.sample(src_b);
    ASSERT_NEAR(s, 3.0f * u, 3e-4f * (1.0f + std::fabs(3.0f * u)));
  }
}

TEST(GammaProperty, SumOfGammasIsGamma) {
  // Gamma(α1,b) + Gamma(α2,b) ~ Gamma(α1+α2,b): KS on the sum.
  MersenneTwister mt(mt19937_params(), 91u);
  auto src = [&] { return mt.next(); };
  GammaSampler g1(GammaConstants::make(0.8f), NormalTransform::kIcdfCuda);
  GammaSampler g2(GammaConstants::make(1.4f), NormalTransform::kIcdfCuda);
  std::vector<double> sums(60000);
  for (auto& s : sums) {
    s = static_cast<double>(g1.sample(src)) +
        static_cast<double>(g2.sample(src));
  }
  const auto ks = stats::ks_test(std::span<const double>(sums),
                                 [](double x) {
                                   return stats::gamma_cdf(x, 2.2, 1.0);
                                 });
  EXPECT_GT(ks.p_value, 1e-4) << "KS D=" << ks.statistic;
}

TEST(TransformAgreement, BothIcdfVariantsConvergeToTheSameLaw) {
  // CUDA-style and FPGA-style ICDF differ in arithmetic but implement
  // the same function: quantiles of their outputs must agree closely.
  std::mt19937 eng(7);
  std::vector<float> cuda;
  std::vector<float> bitwise;
  for (int i = 0; i < 200000; ++i) {
    const auto u = static_cast<std::uint32_t>(eng());
    cuda.push_back(normal_icdf_cuda(u));
    const auto r = normal_icdf_bitwise(u);
    if (r.valid) bitwise.push_back(r.value);
  }
  std::sort(cuda.begin(), cuda.end());
  std::sort(bitwise.begin(), bitwise.end());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const auto ic = static_cast<std::size_t>(
        q * static_cast<double>(cuda.size() - 1));
    const auto ib = static_cast<std::size_t>(
        q * static_cast<double>(bitwise.size() - 1));
    EXPECT_NEAR(cuda[ic], bitwise[ib], 2e-3)
        << "quantile " << q;
  }
}

}  // namespace
}  // namespace dwi::rng
