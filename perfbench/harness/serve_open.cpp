// Workload `serve_open`: independent users against one SamplingServer
// with the default configuration (response cache off). One pacer and
// one collector drive it open loop (open_loop.h); every request id is
// unique. The mix is seven gamma batches (2048 samples, shape cycling
// over 0.72/1.5/2.47/5) per CreditRisk+ job (256 scenarios over a
// 48-obligor, 2-sector portfolio).
//
// A run measures latency from due time at a fixed reference rate.
#include <algorithm>
#include <cmath>
#include <future>
#include <optional>
#include <sstream>

#include "checks.h"
#include "common.h"
#include "exec/thread_pool.h"
#include "finance/creditrisk_plus.h"
#include "open_loop.h"
#include "rng/gamma.h"
#include "rng/jump.h"
#include "serve/sampling_server.h"

namespace perfbench {
namespace {

namespace serve = dwi::serve;

/// Offered rate of the latency measurement: under half the open-loop
/// saturation of the seed's server on a 4-core host (about 4.5k req/s).
/// Lower rates put p99 on the edge between lone CreditRisk+ jobs and
/// jobs queued behind another one, where it flips between two modes.
constexpr double kReferenceRate = 2000.0;
constexpr std::uint32_t kGammaSamples = 2048;
constexpr std::uint64_t kScenarios = 256;
constexpr std::size_t kWarmupRequests = 64;
/// One response in this many is kept and re-served for the bit check.
constexpr std::uint64_t kKeepEvery = 97;
constexpr std::size_t kMaxKept = 600;

// Id spaces (request_id): one per phase so no id repeats in a run.
constexpr unsigned kSpaceWarmup = 0;
constexpr unsigned kSpaceReference = 1;
constexpr unsigned kSpaceTraced = 2;

struct Inputs {
  std::uint64_t seed = 1;
  std::shared_ptr<const dwi::finance::Portfolio> portfolio;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.portfolio = serve_portfolio(seed);
  return in;
}

struct Request {
  bool gamma = true;
  serve::GammaRequest g;
  serve::CreditRiskRequest c;
};

Request make_request(const Inputs& in, unsigned space, std::uint64_t seq) {
  static constexpr float kAlphas[4] = {0.72f, 1.5f, 2.47f, 5.0f};
  Request r;
  const std::uint64_t id = request_id(in.seed, space, seq);
  if (seq % 8 == 7) {
    r.gamma = false;
    r.c.id = id;
    r.c.portfolio = in.portfolio;
    r.c.num_scenarios = kScenarios;
  } else {
    r.g.id = id;
    r.g.alpha = kAlphas[seq % 4];
    r.g.scale = 1.0f;
    r.g.count = kGammaSamples;
  }
  return r;
}

bool check(const serve::GammaRequest& q, const serve::GammaResult& r) {
  if (r.id != q.id || r.samples.size() != q.count) return false;
  if (r.accepted != r.samples.size() || r.attempts < r.accepted) return false;
  return std::all_of(r.samples.begin(), r.samples.end(),
                     [](float v) { return std::isfinite(v) && v > 0.0f; });
}

/// A sample of served responses, re-served later on a fresh server.
/// Written only by the collector thread of the window that owns it.
struct Kept {
  Request request;
  serve::GammaResult gamma;
  serve::CreditRiskResult credit;
};

template <typename Result>
class FuturePending final : public Pending {
 public:
  FuturePending(std::future<Result> f, Request request, std::vector<Kept>* keep)
      : future_(std::move(f)), request_(std::move(request)), keep_(keep) {}

  bool wait_for(std::chrono::nanoseconds timeout) override {
    return future_.wait_for(timeout) == std::future_status::ready;
  }

  bool finish() override {
    Result r;
    try {
      r = future_.get();
    } catch (...) {
      return false;
    }
    bool ok = false;
    if constexpr (std::is_same_v<Result, serve::GammaResult>) {
      ok = check(request_.g, r);
    } else {
      ok = credit_risk_ok(request_.c, r);
    }
    if (ok && keep_ != nullptr && keep_->size() < kMaxKept) {
      Kept k{request_, {}, {}};
      if constexpr (std::is_same_v<Result, serve::GammaResult>) {
        k.gamma = std::move(r);
      } else {
        k.credit = r;
      }
      keep_->push_back(std::move(k));
    }
    return ok;
  }

 private:
  std::future<Result> future_;
  Request request_;
  std::vector<Kept>* keep_;
};

class ServeTarget final : public OpenLoopTarget {
 public:
  ServeTarget(serve::SamplingServer& server, const Inputs& in, unsigned space,
              std::vector<Kept>* keep)
      : server_(server), in_(in), space_(space), keep_(keep) {}

  std::unique_ptr<Pending> submit(std::uint64_t seq) override {
    Request r = make_request(in_, space_, seq);
    std::vector<Kept>* keep = seq % kKeepEvery == 0 ? keep_ : nullptr;
    if (r.gamma) {
      std::future<serve::GammaResult> f;
      if (server_.try_submit(r.g, &f) != serve::ServeStatus::kAdmitted) return nullptr;
      return std::make_unique<FuturePending<serve::GammaResult>>(std::move(f),
                                                                  std::move(r), keep);
    }
    std::future<serve::CreditRiskResult> f;
    if (server_.try_submit(r.c, &f) != serve::ServeStatus::kAdmitted) return nullptr;
    return std::make_unique<FuturePending<serve::CreditRiskResult>>(std::move(f),
                                                                     std::move(r), keep);
  }

 private:
  serve::SamplingServer& server_;
  const Inputs& in_;
  unsigned space_;
  std::vector<Kept>* keep_;
};

/// Admit the warm-up requests and wait for them: fills the exec pool
/// and the splitter's cached squaring chain before anything is timed.
void warm_up(serve::SamplingServer& server, const Inputs& in) {
  std::vector<std::future<serve::GammaResult>> gs;
  std::vector<std::future<serve::CreditRiskResult>> cs;
  for (std::uint64_t i = 0; i < kWarmupRequests; ++i) {
    const Request r = make_request(in, kSpaceWarmup, i);
    if (r.gamma) {
      gs.push_back(server.submit(r.g));
    } else {
      cs.push_back(server.submit(r.c));
    }
  }
  for (auto& f : gs) f.get();
  for (auto& f : cs) f.get();
}

OpenLoopRun window(serve::SamplingServer& server, const Inputs& in,
                   unsigned space, double rate,
                   double seconds, std::vector<Kept>* keep) {
  ServeTarget target(server, in, space, keep);
  OpenLoopSpec spec;
  spec.rate = rate;
  spec.seconds = seconds;
  spec.submit_span = "serve.try_submit";
  spec.request_span = "serve.request";
  return run_open_loop(target, spec);
}

double ms(double s) { return s * 1e3; }

/// Single-threaded replay of request `seq` through the rng and finance
/// calls the server makes for it, on the default serve geometry.
/// Returns its host seconds. Used only to split in-flight time into
/// compute and waiting; the values are not compared.
class Replayer {
 public:
  explicit Replayer(const Inputs& in)
      : in_(in),
        splitter_(defaults_.mt, defaults_.server_seed, defaults_.substream_stride) {
    // Grow the lazily cached squaring chain to the largest request id,
    // as the warm-up requests do for the server's own splitter.
    (void)splitter_.stream(~std::uint32_t{0} * defaults_.substreams_per_request);
  }

  double replay(unsigned space, std::uint64_t seq) {
    const Request r = make_request(in_, space, seq);
    const std::uint64_t spr = defaults_.substreams_per_request;
    const std::int64_t t0 = now_ns();
    if (r.gamma) {
      dwi::rng::GammaSampler sampler(dwi::rng::GammaConstants::make(r.g.alpha, r.g.scale),
                                     r.g.transform);
      std::vector<float> out(r.g.count);
      std::optional<dwi::rng::MersenneTwister> mt;
      {
        ScopedSpan span("rng.substream_derive", r.g.id);
        mt.emplace(splitter_.stream(r.g.id * spr));
      }
      ScopedSpan span("rng.gamma_sample_block", r.g.id);
      sampler.sample_block(*mt, out.data(), out.size());
    } else {
      const auto& portfolio = *r.c.portfolio;
      std::vector<dwi::rng::GammaSampler> samplers;
      std::vector<dwi::rng::MersenneTwister> streams;
      for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
        samplers.emplace_back(dwi::rng::GammaConstants::from_sector_variance(
                                  static_cast<float>(portfolio.sectors()[k].variance)),
                              dwi::rng::NormalTransform::kMarsagliaBray);
        ScopedSpan span("rng.substream_derive", r.c.id);
        streams.push_back(splitter_.stream(r.c.id * spr + 1 + k));
      }
      const dwi::finance::GammaSource source =
          [&](std::uint64_t, std::size_t k) -> double {
        return static_cast<double>(
            samplers[k].sample([&] { return streams[k].next(); }));
      };
      dwi::finance::McConfig mc;
      mc.num_scenarios = r.c.num_scenarios;
      mc.seed = mix64(r.c.id);
      ScopedSpan span("finance.simulate_losses", r.c.id);
      const auto dist = dwi::finance::simulate_losses(portfolio, mc, source);
      sink_ += dist.expected_shortfall(0.999);
    }
    return seconds_between(t0, now_ns());
  }

 private:
  const Inputs& in_;
  const serve::ServeConfig defaults_{};
  dwi::rng::SubstreamSplitter splitter_;
  double sink_ = 0.0;
};

/// serve.* per-layer metrics from a traced window, its server's
/// snapshot and a replay of a sample of its requests.
void window_metrics(const Inputs& in, const OpenLoopRun& run,
                    const serve::MetricsSnapshot& snap, Tracer& tracer,
                    Report& report) {
  std::vector<double> wait_ms;
  {
    TracedWindow replay_window(tracer);
    Replayer replayer(in);
    for (std::size_t i = 0; i < run.seqs.size() && wait_ms.size() < 1000; i += 5) {
      const double compute = replayer.replay(kSpaceTraced, run.seqs[i]);
      wait_ms.push_back(ms(run.inflight_s[i] - compute));
    }
  }
  std::vector<double> admit_us;
  for (const double s : run.admit_s) admit_us.push_back(s * 1e6);
  std::vector<double> inflight_ms;
  for (const double s : run.inflight_s) inflight_ms.push_back(ms(s));
  std::vector<double> lag_ms;
  for (const double s : run.gen_lag_s) lag_ms.push_back(ms(s));

  auto& m = report.metrics;
  m.set("serve.admit_us_p50", median(admit_us), "us");
  m.set("serve.admit_us_p99", tail_percentile(admit_us).value, "us");
  m.set("serve.inflight_ms_p50", median(inflight_ms), "ms");
  m.set("serve.inflight_ms_p99", tail_percentile(inflight_ms).value, "ms");
  m.set("serve.wait_ms_p50", median(wait_ms), "ms");
  m.set("serve.server_latency_ms_p99", ms(snap.latency.p99_seconds), "ms");
  m.set("serve.batches", static_cast<double>(snap.batches), "count");
  m.set("serve.mean_batch", snap.mean_batch_occupancy, "count");
  m.set("serve.queue_high_water", static_cast<double>(snap.queue_high_water), "count");
  m.set("serve.rejected_full", static_cast<double>(snap.rejected_full), "count");
  m.set("harness.gen_lag_ms_p99", tail_percentile(lag_ms).value, "ms");
}

/// A traced reference-rate window on a fresh, warmed server.
struct TracedServe {
  OpenLoopRun run;
  serve::MetricsSnapshot snapshot;
};

TracedServe traced_window(const Inputs& in, double seconds, Tracer& tracer,
                          std::vector<Kept>* keep) {
  serve::SamplingServer server;
  warm_up(server, in);
  TracedServe t;
  {
    TracedWindow w(tracer);
    t.run = window(server, in, kSpaceTraced, kReferenceRate, seconds, keep);
  }
  t.snapshot = server.metrics();
  return t;
}

void count(const OpenLoopRun& run, Report& report) {
  report.attempted += run.sent;
  report.failed += run.refused;
  if (run.failed != 0) {
    report.mismatch(std::to_string(run.failed) + " responses failed their invariants",
                    run.failed);
  }
}

/// Re-serve every kept request on a fresh single-thread server; the
/// bytes must match what the measured server returned.
void reserve_check(const std::vector<Kept>& kept, Report& report) {
  dwi::exec::set_thread_count(1);
  {
    serve::SamplingServer fresh;
    for (const Kept& k : kept) {
      ++report.attempted;
      const bool same = k.request.gamma
                            ? bytes_of(fresh.run(k.request.g)) == bytes_of(k.gamma)
                            : bytes_of(fresh.run(k.request.c)) == bytes_of(k.credit);
      if (!same) {
        report.mismatch("re-served response differs for id " +
                        std::to_string(k.request.gamma ? k.request.g.id
                                                       : k.request.c.id));
      }
    }
  }
  dwi::exec::set_thread_count(host_threads());
  report.note("serve_open re-served " + std::to_string(kept.size()) +
              " responses on a fresh 1-thread server");
}

std::string describe_tail(const char* what, const std::vector<double>& v) {
  const TailPercentile t = tail_percentile(v);
  std::ostringstream o;
  o << what << ": samples=" << t.count << " tail percentile=p" << t.q * 100
    << " beyond=" << t.beyond;
  return o.str();
}

}  // namespace

void run_serve_open(const RunOptions& options, Report& report) {
  const Inputs in = make_inputs(options.seed);
  std::vector<Kept> kept;
  kept.reserve(kMaxKept);

  auto server = std::make_unique<serve::SamplingServer>();
  warm_up(*server, in);
  report.first_op_ns = now_ns();
  if (options.setup_only) return;

  if (options.trace) {
    // Untraced and traced reference windows of equal length; the
    // traced one yields the per-layer metrics and the attribution.
    const OpenLoopRun untraced = window(*server, in, kSpaceReference,
                                        kReferenceRate, 0.35 * options.seconds, &kept);
    server.reset();
    const TracedServe traced =
        traced_window(in, 0.35 * options.seconds, *options.tracer, &kept);
    report_attribution(attribute(options.tracer->spans(), traced.run.start_ns,
                                 traced.run.end_ns), report);
    report.metrics.set("harness.tracing_overhead",
                       median(traced.run.latency_s) / median(untraced.latency_s) - 1.0,
                       "ratio");
    window_metrics(in, traced.run, traced.snapshot, *options.tracer, report);
    count(untraced, report);
    count(traced.run, report);
    reserve_check(kept, report);
    if (const std::string es = es_rounding_report(); !es.empty()) report.note(es);
    return;
  }

  const OpenLoopRun reference = window(*server, in, kSpaceReference, kReferenceRate,
                                       options.seconds, &kept);
  server.reset();
  const double rss = peak_rss_mb();

  std::vector<double> latency_ms;
  for (const double s : reference.latency_s) latency_ms.push_back(ms(s));
  auto& m = report.metrics;
  m.set("latency_p50_ms", median(latency_ms), "ms");
  m.set("wall_s", median(latency_ms) * 1e-3, "s");
  m.set("throughput_rps",
        static_cast<double>(reference.latency_s.size()) / reference.wall_seconds(),
        "req/s");
  m.set("latency_p99_ms", tail_percentile(latency_ms).value, "ms");
  m.set("success_frac",
        reference.sent == 0 ? 0.0
                            : 1.0 - static_cast<double>(reference.refused + reference.failed) /
                                        static_cast<double>(reference.sent),
        "ratio");
  m.set("peak_rss_mb", rss, "MB");
  report.note(describe_tail("serve_open latency at reference rate", latency_ms));
  {
    std::vector<double> lag_ms;
    for (const double s : reference.gen_lag_s) lag_ms.push_back(ms(s));
    std::ostringstream o;
    o << "serve_open reference rate " << kReferenceRate << " req/s, sent "
      << reference.sent << ", generator lag p99 " << tail_percentile(lag_ms).value
      << " ms";
    report.note(o.str());
  }

  count(reference, report);
  reserve_check(kept, report);
  if (const std::string es = es_rounding_report(); !es.empty()) report.note(es);
}

void serve_layer_metrics(const RunOptions& options, double seconds, Report& report) {
  const Inputs in = make_inputs(options.seed);
  const TracedServe traced = traced_window(in, seconds, *options.tracer, nullptr);
  window_metrics(in, traced.run, traced.snapshot, *options.tracer, report);
}

}  // namespace perfbench
