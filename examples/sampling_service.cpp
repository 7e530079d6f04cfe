// Sampling-as-a-service walkthrough (src/serve).
//
// A SamplingServer turns the paper's decoupled work-items into a
// multi-tenant service: clients submit typed requests (gamma batches,
// CreditRisk+ portfolio jobs), a bounded admission queue applies
// explicit backpressure, and a batch scheduler fans compatible
// requests out over the process-wide exec pool. Every request draws
// from its own counter-based Philox substream keyed by (server_seed,
// request_id), so results are bit-identical no matter how requests
// were interleaved, batched or threaded.
//
// This example walks the full surface: mixed async submission,
// synchronous calls, the determinism guarantee (resubmit == replay),
// offline reproduction of a served result without a server, typed
// backpressure on a tiny queue, and the metrics snapshot.
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "finance/portfolio.h"
#include "rng/gamma.h"
#include "serve/sampling_server.h"

int main() {
  using namespace dwi;

  serve::ServeConfig cfg;
  cfg.server_seed = 20240706u;
  cfg.max_batch = 8;
  serve::SamplingServer server(cfg);

  std::cout << "== mixed async workload ==\n";

  // Tenant A: gamma batches for three sector variances.
  std::vector<std::future<serve::GammaResult>> gammas;
  const float alphas[3] = {0.72f, 1.5f, 4.0f};
  for (std::uint64_t i = 0; i < 3; ++i) {
    serve::GammaRequest req;
    req.id = 100 + i;  // client-assigned: the id *is* the substream key
    req.alpha = alphas[i];
    req.scale = 1.39f;
    req.count = 10'000;
    gammas.push_back(server.submit(req));
  }

  // Tenant B: a CreditRisk+ loss distribution over a shared portfolio.
  auto portfolio =
      std::make_shared<const finance::Portfolio>(finance::Portfolio::synthetic(
          64, {{1.39, "representative"}, {0.8, "stable"}}, 7u));
  serve::CreditRiskRequest crq;
  crq.id = 500;
  crq.portfolio = portfolio;
  crq.num_scenarios = 20'000;
  std::future<serve::CreditRiskResult> loss = server.submit(crq);

  for (auto& f : gammas) {
    const serve::GammaResult r = f.get();
    std::cout << "  gamma id=" << r.id << ": " << r.samples.size()
              << " samples, rejection rate "
              << std::fixed << std::setprecision(3)
              << 1.0 - static_cast<double>(r.accepted) /
                           static_cast<double>(r.attempts)
              << "\n";
  }
  const serve::CreditRiskResult cr = loss.get();
  std::cout << "  creditrisk id=" << cr.id << ": mean loss "
            << std::setprecision(2) << cr.mean << ", VaR99.9 " << cr.var999
            << ", ES99.9 " << cr.es999 << " over " << cr.scenarios
            << " scenarios\n";

  std::cout << "== determinism: resubmit replays the stream ==\n";
  serve::GammaRequest probe;
  probe.id = 100;
  probe.alpha = alphas[0];
  probe.scale = 1.39f;
  probe.count = 10'000;
  const serve::GammaResult replay = server.run(probe);
  const serve::GammaResult once = server.run(probe);
  std::cout << "  two runs of id=100 identical: "
            << (replay.samples == once.samples ? "yes" : "NO — BUG")
            << "\n";

  // Offline reproduction: the served result is a pure function of the
  // request's substream — no server needed to recompute it.
  rng::Philox px = server.gamma_stream(probe.id);
  rng::GammaSampler sampler(
      rng::GammaConstants::make(probe.alpha, probe.scale), probe.transform);
  std::vector<float> offline(probe.count);
  sampler.sample_block(px, offline.data(), offline.size());
  std::cout << "  offline recomputation matches served result: "
            << (offline == once.samples ? "yes" : "NO — BUG") << "\n";

  std::cout << "== backpressure on an overloaded server ==\n";
  serve::ServeConfig tiny = cfg;
  tiny.queue_capacity = 4;
  serve::SamplingServer small(tiny);
  std::size_t admitted = 0, rejected = 0;
  std::vector<std::future<serve::GammaResult>> accepted;
  for (std::uint64_t i = 0; i < 64; ++i) {
    serve::GammaRequest req;
    req.id = i + 1;
    req.alpha = 1.0f;
    req.count = 50'000;  // heavy enough to keep the queue busy
    std::future<serve::GammaResult> f;
    switch (small.try_submit(req, &f)) {
      case serve::ServeStatus::kAdmitted:
        ++admitted;
        accepted.push_back(std::move(f));
        break;
      case serve::ServeStatus::kQueueFull:
        ++rejected;  // typed fast-fail: back off, retry, or shed load
        break;
      default:
        break;
    }
  }
  for (auto& f : accepted) (void)f.get();  // every admitted future resolves
  std::cout << "  64 submissions against queue_capacity=4: " << admitted
            << " admitted, " << rejected << " rejected with kQueueFull\n";

  std::cout << "== metrics snapshot ==\n";
  const serve::MetricsSnapshot m = server.metrics();
  std::cout << "  submitted " << m.submitted << ", completed " << m.completed
            << ", batches " << m.batches << " (mean occupancy "
            << std::setprecision(2) << m.mean_batch_occupancy
            << "), p99 latency " << std::setprecision(1)
            << m.latency.p99_seconds * 1e3 << " ms\n";

  server.shutdown();  // idempotent; drains in-flight work
  return 0;
}
