// Fixed-size probes of single layers for the traced run: each call into
// a layer's public function is a span, and each metric is work done per
// unit of span time. Inputs derive from the run's seed; sizes match the
// requests the serve and cluster workloads send.
#include <vector>

#include "common.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "finance/creditrisk_plus.h"
#include "finance/pipeline.h"
#include "rng/gamma.h"
#include "rng/jump.h"
#include "rng/mersenne_twister.h"
#include "rng/philox.h"
#include "workloads/histogram.h"
#include "workloads/matching.h"
#include "workloads/spmv.h"

namespace perfbench {
namespace {

/// Run `f` inside a span named `name`; returns the span's seconds.
template <typename F>
double timed(const char* name, F&& f) {
  ScopedSpan span(name);
  const std::int64_t t0 = now_ns();
  f();
  return seconds_between(t0, now_ns());
}

volatile std::uint64_t g_sink = 0;  // keeps probe results observable

void rng_probes(std::uint64_t seed, Report& report) {
  const auto seed32 = static_cast<std::uint32_t>(mix64(seed ^ 0x726e67ull));
  constexpr std::size_t kBlock = 1 << 16;
  std::vector<std::uint32_t> buf(kBlock);
  std::vector<double> mt_ns, px_ns;
  dwi::rng::MersenneTwister mt(dwi::rng::mt521_params(), seed32);
  dwi::rng::Philox px(seed32);
  for (int rep = 0; rep < 64; ++rep) {
    mt_ns.push_back(timed("rng.mt_generate_block",
                          [&] { mt.generate_block(buf.data(), kBlock); }) *
                    1e9 / kBlock);
    g_sink = g_sink + buf[kBlock - 1];
    px_ns.push_back(timed("rng.philox_generate_block",
                          [&] { px.generate_block(buf.data(), kBlock); }) *
                    1e9 / kBlock);
    g_sink = g_sink + buf[kBlock - 1];
  }
  report.metrics.set("rng.mt_block_ns_per_u32", median(mt_ns), "ns");
  report.metrics.set("rng.philox_block_ns_per_u32", median(px_ns), "ns");

  // Gamma sampling over the serve mix's shapes, 2048 samples a call.
  std::vector<double> gamma_ns;
  std::uint64_t attempts = 0, accepted = 0;
  std::vector<float> out(2048);
  for (const float alpha : {0.72f, 1.5f, 2.47f, 5.0f}) {
    dwi::rng::GammaSampler sampler(dwi::rng::GammaConstants::make(alpha),
                                   dwi::rng::NormalTransform::kMarsagliaBray);
    for (int rep = 0; rep < 32; ++rep) {
      gamma_ns.push_back(timed("rng.gamma_sample_block",
                               [&] { sampler.sample_block(mt, out.data(), out.size()); }) *
                         1e9 / static_cast<double>(out.size()));
    }
    attempts += sampler.attempts();
    accepted += sampler.accepted();
  }
  report.metrics.set("rng.gamma_ns_per_sample", median(gamma_ns), "ns");
  report.metrics.set("rng.gamma_accept_ratio",
                     static_cast<double>(accepted) / static_cast<double>(attempts),
                     "ratio");

  // Substream derivation at the ids serve requests carry (request_id)
  // and the slots a gamma or 2-sector CreditRisk+ request uses, with
  // the serve geometry (16 slots per id, 2^26 stride).
  constexpr std::uint64_t kSlots = 16, kStride = 1ull << 26;
  dwi::rng::SubstreamSplitter splitter(dwi::rng::mt521_params(), seed32, kStride);
  (void)splitter.stream(~std::uint32_t{0} * kSlots);  // grow the cached chain
  std::vector<double> jump_us;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t index = request_id(seed, 5, i) * kSlots + i % 3;
    jump_us.push_back(timed("rng.substream_derive", [&] {
                        dwi::rng::MersenneTwister s = splitter.stream(index);
                        g_sink = g_sink + s.next();
                      }) *
                      1e6);
  }
  report.metrics.set("rng.jump_derive_us", median(jump_us), "us");

  dwi::rng::CounterSubstreams counters(seed32, kStride);
  std::vector<double> counter_ns;
  constexpr std::uint64_t kBatch = 1024;
  for (std::uint64_t b = 0; b < 64; ++b) {
    counter_ns.push_back(timed("rng.counter_derive", [&] {
                           std::uint64_t sum = 0;
                           for (std::uint64_t i = 0; i < kBatch; ++i) {
                             const std::uint64_t index =
                                 request_id(seed, 5, b * kBatch + i) * kSlots + i % 3;
                             dwi::rng::Philox s = counters.stream(index);
                             sum += s.next();
                           }
                           g_sink = g_sink + sum;
                         }) *
                         1e9 / kBatch);
  }
  report.metrics.set("rng.counter_derive_ns", median(counter_ns), "ns");
}

void exec_probe(Report& report) {
  const std::size_t n = dwi::exec::thread_count();
  std::vector<double> us;
  for (int rep = 0; rep < 2000; ++rep) {
    us.push_back(timed("exec.parallel_for",
                       [&] { dwi::exec::parallel_for(n, [](std::size_t) {}); }) *
                 1e6);
  }
  report.metrics.set("exec.parallel_for_us", median(us), "us");
}

void finance_probes(std::uint64_t seed, Report& report) {
  const auto shared = serve_portfolio(seed);
  const dwi::finance::Portfolio& portfolio = *shared;
  constexpr std::uint64_t kScenarios = 4096;
  const auto seed32 = static_cast<std::uint32_t>(mix64(seed ^ 0x66696eull));
  std::vector<double> scalar_us, staged_us;
  for (int rep = 0; rep < 3; ++rep) {
    // The scalar tape serve's compute() uses today: one gamma sampler
    // per sector over its own substream, behind a GammaSource.
    std::vector<dwi::rng::GammaSampler> samplers;
    std::vector<dwi::rng::MersenneTwister> streams;
    for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
      samplers.emplace_back(dwi::rng::GammaConstants::from_sector_variance(
                                static_cast<float>(portfolio.sectors()[k].variance)),
                            dwi::rng::NormalTransform::kMarsagliaBray);
      streams.emplace_back(dwi::rng::mt521_params(),
                           seed32 + static_cast<std::uint32_t>(k + 1));
    }
    const dwi::finance::GammaSource source = [&](std::uint64_t, std::size_t k) {
      return static_cast<double>(samplers[k].sample([&] { return streams[k].next(); }));
    };
    dwi::finance::McConfig mc;
    mc.num_scenarios = kScenarios;
    mc.seed = seed32;
    scalar_us.push_back(timed("finance.simulate_losses", [&] {
                          const auto d = dwi::finance::simulate_losses(portfolio, mc, source);
                          g_sink = g_sink + d.scenarios();
                        }) *
                        1e6 / kScenarios);

    dwi::finance::PipelineConfig pc;
    pc.num_scenarios = kScenarios;
    pc.seed = seed32;
    staged_us.push_back(timed("finance.run_staged", [&] {
                          const auto d = dwi::finance::run_staged(portfolio, pc);
                          g_sink = g_sink + d.scenarios();
                        }) *
                        1e6 / kScenarios);
  }
  report.metrics.set("finance.scalar_us_per_scenario", median(scalar_us), "us");
  report.metrics.set("finance.staged_us_per_scenario", median(staged_us), "us");
}

void workloads_probes(std::uint64_t seed, Report& report) {
  SplitMix draws(mix64(seed ^ 0x7a6f6full));
  const auto next = [&] { return static_cast<std::uint32_t>(draws.next()); };
  const dwi::workloads::HistogramTrace trace =
      dwi::workloads::make_histogram_trace(4096, 256, 0.5f, next);
  const dwi::workloads::CsrMatrix matrix = dwi::workloads::make_spmv_matrix(256, 256, 0, 16, next);
  const std::vector<float> x = dwi::workloads::make_dense_vector(256, next);
  const dwi::workloads::EdgeList graph = dwi::workloads::make_edge_list(1024, 4096, next);

  dwi::workloads::HistogramConfig hcfg;
  hcfg.num_bins = 256;
  std::vector<double> hist_us, spmv_us, match_us;
  double busy_s = 0.0;
  std::uint64_t cycles = 0, hazard_stalls = 0;
  for (int rep = 0; rep < 20; ++rep) {
    dwi::workloads::HistogramOutput h;
    const double hs = timed("workloads.run_histogram",
                            [&] { h = dwi::workloads::run_histogram(hcfg, trace.addrs, trace.weights); });
    dwi::workloads::SpmvOutput s;
    const double ss = timed("workloads.run_spmv", [&] {
      s = dwi::workloads::run_spmv(dwi::workloads::SpmvConfig{}, matrix, x);
    });
    dwi::workloads::MatchingOutput m;
    const double ms = timed("workloads.run_matching", [&] {
      m = dwi::workloads::run_matching(dwi::workloads::MatchingConfig{}, graph);
    });
    hist_us.push_back(hs * 1e6);
    spmv_us.push_back(ss * 1e6);
    match_us.push_back(ms * 1e6);
    busy_s += hs + ss + ms;
    cycles += h.stats.cycles + s.stats.cycles + m.stats.cycles;
    hazard_stalls = h.stats.hazard_stall_cycles;
    if (rep == 0) {
      // The kernels must agree with their scalar oracles.
      if (h.bins != dwi::workloads::histogram_oracle(256, trace.addrs, trace.weights)) {
        report.mismatch("run_histogram differs from its oracle");
      }
      if (s.y != dwi::workloads::spmv_oracle(matrix, x)) {
        report.mismatch("run_spmv differs from its oracle");
      }
      if (m.match != dwi::workloads::matching_oracle(graph).match) {
        report.mismatch("run_matching differs from its oracle");
      }
    }
  }
  report.metrics.set("workloads.histogram_us", median(hist_us), "us");
  report.metrics.set("workloads.spmv_us", median(spmv_us), "us");
  report.metrics.set("workloads.matching_us", median(match_us), "us");
  report.metrics.set("workloads.sim_cycles_per_s", static_cast<double>(cycles) / busy_s, "1/s");
  report.metrics.set("workloads.hazard_stall_cycles", static_cast<double>(hazard_stalls),
                     "count");
}

}  // namespace

void run_layer_probes(const RunOptions& options, Report& report) {
  TracedWindow window(*options.tracer);
  rng_probes(options.seed, report);
  exec_probe(report);
  finance_probes(options.seed, report);
  workloads_probes(options.seed, report);
}

}  // namespace perfbench
