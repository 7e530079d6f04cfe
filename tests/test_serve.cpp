// Serving-layer tests (src/serve):
//   * determinism contract: a fixed request set with a fixed server
//     seed yields bit-identical per-request results across thread
//     counts (1, 4, hardware), batching on/off, and shuffled
//     submission order;
//   * the served result equals the offline computation on the
//     request's Philox substream (no hidden server state), including
//     O(1) seek()s into it;
//   * the stream-budget guard fails exactly the request that reads
//     past its substream window;
//   * backpressure: a full admission queue rejects fast with a typed
//     status, nothing admitted is ever dropped;
//   * graceful shutdown drains all in-flight work and rejects late
//     submissions;
//   * validation rejects malformed requests with kInvalidRequest;
//   * shared workers: jobs of one server run on several workers at
//     once, and one server's shutdown never waits on another's jobs;
//   * metrics: counters, nearest-rank latency percentiles and queue
//     wait;
//   * RingBuffer edge cases under the serve workload shapes (job-sized
//     payloads): full-queue rejection, wraparound at capacity
//     boundaries, destruction with items still enqueued.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/ring_buffer.h"
#include "exec/thread_pool.h"
#include "finance/creditrisk_plus.h"
#include "finance/portfolio.h"
#include "rng/gamma.h"
#include "serve/batch_scheduler.h"
#include "serve/metrics.h"
#include "serve/sampling_server.h"
#include "workloads/histogram.h"
#include "workloads/matching.h"
#include "workloads/spmv.h"

namespace dwi {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { exec::set_thread_count(0); }
};

std::shared_ptr<const finance::Portfolio> test_portfolio() {
  static const auto portfolio =
      std::make_shared<const finance::Portfolio>(finance::Portfolio::synthetic(
          16, {{1.39, "representative"}, {0.8, "stable"}}, 7u));
  return portfolio;
}

struct RequestItem {
  bool is_gamma = true;
  serve::GammaRequest gamma;
  serve::CreditRiskRequest credit;
};

std::vector<RequestItem> mixed_request_set() {
  const float alphas[3] = {0.72f, 1.5f, 4.0f};
  std::vector<RequestItem> items;
  for (std::size_t i = 0; i < 18; ++i) {
    RequestItem item;
    if (i % 6 == 5) {
      item.is_gamma = false;
      item.credit.id = i + 1;
      item.credit.portfolio = test_portfolio();
      item.credit.num_scenarios = 64;
    } else {
      item.gamma.id = i + 1;
      item.gamma.alpha = alphas[i % 3];
      item.gamma.scale = 1.39f;
      item.gamma.count = 257;  // off a block boundary on purpose
    }
    items.push_back(item);
  }
  return items;
}

struct ServedResults {
  std::vector<serve::GammaResult> gamma;        // by set position
  std::vector<serve::CreditRiskResult> credit;  // by set position
};

/// Submits `items` in `order`. After every `window` submissions it
/// waits for them to finish, so a queue of `window` entries never fills.
ServedResults serve_set(serve::SamplingServer& server,
                        const std::vector<RequestItem>& items,
                        const std::vector<std::size_t>& order,
                        std::size_t window = SIZE_MAX) {
  std::vector<std::future<serve::GammaResult>> gf(items.size());
  std::vector<std::future<serve::CreditRiskResult>> cf(items.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    if (items[i].is_gamma) {
      gf[i] = server.submit(items[i].gamma);
    } else {
      cf[i] = server.submit(items[i].credit);
    }
    if ((k + 1) % window != 0) continue;
    for (std::size_t j = k + 1 - window; j <= k; ++j) {
      const std::size_t w = order[j];
      if (items[w].is_gamma) {
        gf[w].wait();
      } else {
        cf[w].wait();
      }
    }
  }
  ServedResults out;
  out.gamma.resize(items.size());
  out.credit.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].is_gamma) {
      out.gamma[i] = gf[i].get();
    } else {
      out.credit[i] = cf[i].get();
    }
  }
  return out;
}

void expect_identical(const ServedResults& a, const ServedResults& b,
                      const std::vector<RequestItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].is_gamma) {
      ASSERT_EQ(a.gamma[i].id, b.gamma[i].id);
      ASSERT_EQ(a.gamma[i].attempts, b.gamma[i].attempts);
      // Bit-identity: the float vectors must match exactly.
      ASSERT_EQ(a.gamma[i].samples, b.gamma[i].samples) << "request " << i;
    } else {
      ASSERT_EQ(a.credit[i].id, b.credit[i].id);
      ASSERT_EQ(a.credit[i].mean, b.credit[i].mean) << "request " << i;
      ASSERT_EQ(a.credit[i].variance, b.credit[i].variance);
      ASSERT_EQ(a.credit[i].var95, b.credit[i].var95);
      ASSERT_EQ(a.credit[i].var999, b.credit[i].var999);
      ASSERT_EQ(a.credit[i].es999, b.credit[i].es999);
    }
  }
}

// ---------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------

/// The determinism matrix: a single-threaded, unbatched reference
/// against 4/hardware threads, batching on/off and shuffled arrival.
void expect_matrix_identical(serve::ServeConfig cfg,
                             const std::vector<RequestItem>& items) {
  std::vector<std::size_t> natural(items.size());
  std::iota(natural.begin(), natural.end(), std::size_t{0});
  std::vector<std::size_t> shuffled = natural;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(99));
  cfg.queue_capacity = items.size() + 1;

  exec::set_thread_count(1);
  cfg.batching = false;
  ServedResults reference;
  {
    serve::SamplingServer server(cfg);
    reference = serve_set(server, items, natural);
  }

  struct Cell {
    unsigned threads;
    bool batching;
    bool shuffle;
  };
  const unsigned hw = exec::ExecConfig{}.resolved();
  for (const Cell cell : {Cell{4, true, false}, Cell{4, false, true},
                          Cell{hw, true, true}, Cell{1, true, true}}) {
    exec::set_thread_count(cell.threads);
    cfg.batching = cell.batching;
    serve::SamplingServer server(cfg);
    const ServedResults got =
        serve_set(server, items, cell.shuffle ? shuffled : natural);
    expect_identical(reference, got, items);
  }
}

TEST(ServeDeterminism, BitIdenticalAcrossThreadsBatchingAndOrder) {
  ThreadCountGuard guard;
  serve::ServeConfig cfg;
  cfg.server_seed = 42;
  expect_matrix_identical(cfg, mixed_request_set());
}

TEST(ServeDeterminism, CounterBasedBitIdenticalAcrossThreadsBatchingAndOrder) {
  // The same matrix on a non-default substream geometry with ids near
  // the top of the valid range, where index·stride no longer fits 64
  // bits: the 128-bit counter derivation must uphold the contract
  // there too.
  ThreadCountGuard guard;
  serve::ServeConfig cfg;
  cfg.server_seed = 42;
  cfg.substreams_per_request = 4;
  cfg.substream_stride = 1ull << 40;
  auto items = mixed_request_set();
  const std::uint64_t top = ~std::uint64_t{0} / cfg.substreams_per_request - 1;
  for (RequestItem& item : items) {
    item.gamma.id = top - item.gamma.id;
    item.credit.id = top - item.credit.id;
  }
  expect_matrix_identical(cfg, items);
}

TEST(ServeDeterminism, ResubmittingAnIdReplaysTheExactStream) {
  serve::SamplingServer server;
  serve::GammaRequest req;
  req.id = 12345;
  req.alpha = 0.72f;
  req.count = 100;
  const serve::GammaResult a = server.run(req);
  const serve::GammaResult b = server.run(req);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.attempts, b.attempts);
}

TEST(ServeDeterminism, MatchesOfflineSubstreamComputation) {
  serve::ServeConfig cfg;
  cfg.server_seed = 17;
  serve::SamplingServer server(cfg);

  serve::GammaRequest req;
  req.id = 9;
  req.alpha = 1.5f;
  req.scale = 2.0f;
  req.count = 500;
  const serve::GammaResult served = server.run(req);

  // Offline reproduction without a server: derive the request's Philox
  // stream (a counter write, no master-sequence replay) and rerun.
  rng::Philox px = server.gamma_stream(req.id);
  rng::GammaSampler sampler(rng::GammaConstants::make(req.alpha, req.scale),
                            req.transform);
  std::vector<float> expect(req.count);
  sampler.sample_block(px, expect.data(), expect.size());
  EXPECT_EQ(served.samples, expect);
  EXPECT_EQ(served.attempts, sampler.attempts());
}

TEST(ServeDeterminism, CounterBasedMatchesOfflineSubstreamComputation) {
  // CreditRisk+ offline: one gamma sampler per sector over
  // sector_stream(id, k), the request's Poisson seed, the scalar tape.
  serve::ServeConfig cfg;
  cfg.server_seed = 17;
  serve::SamplingServer server(cfg);

  serve::CreditRiskRequest req;
  req.id = 31;
  req.portfolio = test_portfolio();
  req.num_scenarios = 300;
  const serve::CreditRiskResult served = server.run(req);

  const finance::Portfolio& portfolio = *req.portfolio;
  std::vector<rng::GammaSampler> samplers;
  std::vector<rng::Philox> streams;
  for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
    samplers.emplace_back(
        rng::GammaConstants::from_sector_variance(
            static_cast<float>(portfolio.sectors()[k].variance)),
        rng::NormalTransform::kMarsagliaBray);
    streams.push_back(server.sector_stream(req.id, k));
  }
  const finance::GammaSource source = [&](std::uint64_t, std::size_t k) {
    return static_cast<double>(
        samplers[k].sample([&] { return streams[k].next(); }));
  };
  finance::McConfig mc;
  mc.num_scenarios = req.num_scenarios;
  mc.seed = server.poisson_seed(req.id);
  const finance::LossDistribution dist =
      finance::simulate_losses(portfolio, mc, source);
  EXPECT_EQ(served.mean, dist.mean());
  EXPECT_EQ(served.variance, dist.variance());
  EXPECT_EQ(served.var999, dist.value_at_risk(0.999));
  EXPECT_EQ(served.es999, dist.expected_shortfall(0.999));
}

TEST(ServeDeterminism, CounterStreamSeekRecomputesAServedSuffix) {
  // Because a request's tape is a Philox counter range, any *suffix* of
  // its uniform stream is reachable by seek() without replaying the
  // prefix. Reproduce the served samples' uniform tape from an offset
  // and check it matches the same stream drawn sequentially.
  serve::SamplingServer server;

  rng::Philox full = server.gamma_stream(4242);
  std::vector<std::uint32_t> tape(1000);
  full.generate_block(tape.data(), tape.size());
  EXPECT_EQ(full.consumed(), 1000u);

  rng::Philox suffix = server.gamma_stream(4242);
  suffix.skip(900);  // O(1), no matter how far in
  for (std::size_t i = 900; i < 1000; ++i) {
    ASSERT_EQ(suffix.next(), tape[i]) << "position " << i;
  }

  // Absolute seek(): the slot starts at (id · substreams_per_request)
  // · substream_stride of the master sequence keyed by server_seed.
  const serve::ServeConfig& cfg = server.config();
  rng::Philox master(cfg.server_seed);
  master.seek(4242 * cfg.substreams_per_request * cfg.substream_stride + 900);
  EXPECT_EQ(master.next(), tape[900]);
}

TEST(ServeDeterminism, CounterBasedDistinctIdsGetDisjointSubstreams) {
  // Slots are exact stride windows of one master sequence: the sector
  // slots of id follow its gamma slot, and id+1 follows the last one.
  serve::SamplingServer server;
  const serve::ServeConfig& cfg = server.config();
  const std::uint64_t slots = cfg.substreams_per_request;
  for (std::uint64_t slot = 1; slot <= slots; ++slot) {
    rng::Philox from_gamma = server.gamma_stream(5);
    from_gamma.skip(slot * cfg.substream_stride);
    rng::Philox direct = slot < slots ? server.sector_stream(5, slot - 1)
                                      : server.gamma_stream(6);
    EXPECT_EQ(from_gamma.position(), direct.position()) << "slot " << slot;
    for (int i = 0; i < 8; ++i) ASSERT_EQ(from_gamma.next(), direct.next());
  }
}

TEST(ServeDeterminism, DistinctIdsGetDisjointSubstreams) {
  serve::SamplingServer server;
  // Adjacent ids start stride·substreams_per_request apart in the
  // master sequence; their first outputs must differ (overlap would
  // replicate them).
  rng::Philox a = server.gamma_stream(1);
  rng::Philox b = server.gamma_stream(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= a.next() != b.next();
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------
// Stream-budget guard
// ---------------------------------------------------------------------

/// The Philox gamma block path draws whole rounds of
/// GammaSampler::kAttemptRound attempts (~3.6k uniforms each), so a
/// 2^13 stride holds a one-round request and not a twenty-round one.
constexpr std::uint64_t kTinyStride = 1u << 13;

serve::ServeConfig tiny_budget_config() {
  serve::ServeConfig cfg;
  cfg.substream_stride = kTinyStride;
  return cfg;
}

TEST(ServeBudget, OverrunFailsOnlyThatRequest) {
  serve::SamplingServer server(tiny_budget_config());
  serve::GammaRequest big;
  big.id = 1;
  big.alpha = 0.72f;
  big.count = 20 * rng::GammaSampler::kAttemptRound;
  serve::GammaRequest small = big;
  small.id = 2;
  small.count = 1;

  std::future<serve::GammaResult> fb = server.submit(big);
  std::future<serve::GammaResult> fs = server.submit(small);
  try {
    (void)fb.get();
    FAIL() << "overrunning request must fail";
  } catch (const serve::StreamBudgetError& e) {
    EXPECT_EQ(e.id(), 1u);
    EXPECT_EQ(e.slot(), 0u);
    EXPECT_EQ(e.budget(), kTinyStride);
    EXPECT_GT(e.consumed(), kTinyStride);
  }
  const serve::GammaResult ok = fs.get();
  EXPECT_EQ(ok.samples.size(), 1u);
  // Same bytes as on a server that never saw the overrun.
  serve::SamplingServer alone(tiny_budget_config());
  EXPECT_EQ(ok.samples, alone.run(small).samples);

  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(ServeBudget, EveryKindAndPathIsGuarded) {
  // CreditRisk+ sector slots and the zoo's slot 0 are checked as
  // well; a failed request is never cached.
  {
    serve::ServeConfig cfg = tiny_budget_config();
    cfg.response_cache_entries = 4;
    serve::SamplingServer server(cfg);
    serve::CreditRiskRequest credit;
    credit.id = 3;
    credit.portfolio = test_portfolio();
    credit.num_scenarios = 5000;
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        (void)server.run(credit);
        FAIL() << "attempt " << attempt;
      } catch (const serve::StreamBudgetError& e) {
        EXPECT_EQ(e.slot(), 1u);  // sector 0 overruns first
      }
    }
    EXPECT_EQ(server.metrics().failed, 2u);
    EXPECT_EQ(server.metrics().cache_hits, 0u);
  }
  serve::SamplingServer server(tiny_budget_config());
  serve::HistogramRequest hist;
  hist.id = 4;
  hist.num_updates = 10000;
  EXPECT_THROW((void)server.run(hist), serve::StreamBudgetError);
  serve::SpmvRequest spmv;
  spmv.id = 5;
  spmv.rows = 2048;
  EXPECT_THROW((void)server.run(spmv), serve::StreamBudgetError);
  serve::MatchingRequest matching;
  matching.id = 6;
  matching.num_vertices = 1024;
  matching.num_edges = 10000;
  EXPECT_THROW((void)server.run(matching), serve::StreamBudgetError);
  EXPECT_EQ(server.metrics().failed, 3u);
}

// ---------------------------------------------------------------------
// Backpressure and shutdown
// ---------------------------------------------------------------------

TEST(ServeBackpressure, FullQueueRejectsFastWithTypedStatus) {
  // One shared worker: while the blocker holds it, nothing else is
  // claimed and the queue fills.
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  serve::ServerMetrics metrics;
  serve::SchedulerConfig cfg;
  cfg.queue_capacity = 3;
  cfg.batching = false;  // the blocker must occupy the scheduler alone
  serve::BatchScheduler scheduler(cfg, &metrics);

  std::promise<void> started;
  std::promise<void> release;
  auto release_future = release.get_future().share();
  std::atomic<int> ran{0};

  serve::Job blocker;
  blocker.kind = serve::RequestKind::kGamma;
  blocker.run = [&, release_future] {
    started.set_value();
    release_future.wait();
    ran.fetch_add(1);
  };
  ASSERT_EQ(scheduler.try_enqueue(std::move(blocker)),
            serve::ServeStatus::kAdmitted);
  started.get_future().wait();  // scheduler is now stuck in the blocker

  // Fill the queue to capacity behind it.
  for (std::size_t i = 0; i < cfg.queue_capacity; ++i) {
    serve::Job job;
    job.run = [&] { ran.fetch_add(1); };
    ASSERT_EQ(scheduler.try_enqueue(std::move(job)),
              serve::ServeStatus::kAdmitted);
  }
  EXPECT_EQ(scheduler.queue_depth(), cfg.queue_capacity);

  // Overload: rejected fast, caller never blocked.
  serve::Job overflow;
  overflow.run = [&] { ran.fetch_add(1); };
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(scheduler.try_enqueue(std::move(overflow)),
            serve::ServeStatus::kQueueFull);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);

  // Nothing admitted is dropped: release and drain.
  release.set_value();
  scheduler.shutdown();
  EXPECT_EQ(ran.load(), 1 + static_cast<int>(cfg.queue_capacity));
  EXPECT_EQ(metrics.snapshot().admitted,
            1 + static_cast<std::uint64_t>(cfg.queue_capacity));
}

TEST(ServeBackpressure, ShutdownDrainsAdmittedWorkAndRejectsLate) {
  serve::ServeConfig cfg;
  cfg.queue_capacity = 64;
  serve::SamplingServer server(cfg);

  std::vector<std::future<serve::GammaResult>> futures;
  for (std::uint64_t i = 0; i < 16; ++i) {
    serve::GammaRequest req;
    req.id = i + 1;
    req.alpha = 1.0f;
    req.count = 64;
    futures.push_back(server.submit(req));
  }
  server.shutdown();

  // Every admitted future is fulfilled with a real result.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::GammaResult r = futures[i].get();
    EXPECT_EQ(r.id, i + 1);
    EXPECT_EQ(r.samples.size(), 64u);
  }
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.completed, futures.size());
  EXPECT_EQ(m.failed, 0u);

  // Late submission: typed rejection, no future.
  serve::GammaRequest late;
  late.id = 999;
  late.count = 8;
  std::future<serve::GammaResult> f;
  EXPECT_EQ(server.try_submit(late, &f),
            serve::ServeStatus::kShuttingDown);
  try {
    (void)server.submit(late);
    FAIL() << "submit after shutdown must throw";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kShuttingDown);
  }
  EXPECT_EQ(server.metrics().rejected_shutdown, 2u);
}

TEST(ServeBackpressure, InvalidRequestsRejectWithoutAdmission) {
  serve::SamplingServer server;
  std::future<serve::GammaResult> f;

  serve::GammaRequest zero_count;
  zero_count.id = 1;
  zero_count.count = 0;
  EXPECT_EQ(server.try_submit(zero_count, &f),
            serve::ServeStatus::kInvalidRequest);

  serve::GammaRequest bad_alpha;
  bad_alpha.id = 2;
  bad_alpha.alpha = -1.0f;
  bad_alpha.count = 10;
  EXPECT_EQ(server.try_submit(bad_alpha, &f),
            serve::ServeStatus::kInvalidRequest);

  serve::GammaRequest too_big;
  too_big.id = 3;
  too_big.count = server.config().max_gamma_count + 1;
  EXPECT_EQ(server.try_submit(too_big, &f),
            serve::ServeStatus::kInvalidRequest);

  std::future<serve::CreditRiskResult> cf;
  serve::CreditRiskRequest no_portfolio;
  no_portfolio.id = 4;
  no_portfolio.num_scenarios = 100;
  EXPECT_EQ(server.try_submit(no_portfolio, &cf),
            serve::ServeStatus::kInvalidRequest);

  serve::CreditRiskRequest one_scenario;
  one_scenario.id = 5;
  one_scenario.portfolio = test_portfolio();
  one_scenario.num_scenarios = 1;
  EXPECT_EQ(server.try_submit(one_scenario, &cf),
            serve::ServeStatus::kInvalidRequest);

  try {
    (void)server.submit(zero_count);
    FAIL() << "invalid request must throw";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kInvalidRequest);
  }

  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.admitted, 0u);
  EXPECT_EQ(m.rejected_invalid, 6u);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(ServeMetrics, NearestRankPercentiles) {
  std::vector<double> xs(100);
  std::iota(xs.begin(), xs.end(), 1.0);  // 1..100
  std::shuffle(xs.begin(), xs.end(), std::mt19937_64(3));
  const serve::LatencySummary s = serve::summarize_latencies(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.max_seconds, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_seconds, 50.5);
  EXPECT_DOUBLE_EQ(s.p50_seconds, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_seconds, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_seconds, 99.0);

  const serve::LatencySummary empty = serve::summarize_latencies({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99_seconds, 0.0);

  const serve::LatencySummary one = serve::summarize_latencies({2.5});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.p50_seconds, 2.5);
  EXPECT_DOUBLE_EQ(one.p99_seconds, 2.5);
}

TEST(ServeMetrics, CountersTrackTheRequestLifecycle) {
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  serve::SamplingServer server(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    serve::GammaRequest req;
    req.id = i + 1;
    req.count = 32;
    (void)server.run(req);
  }
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.submitted, 10u);
  EXPECT_EQ(m.admitted, 10u);
  EXPECT_EQ(m.completed, 10u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GE(m.batches, 1u);
  EXPECT_LE(m.max_batch_occupancy, cfg.max_batch);
  EXPECT_EQ(m.latency.count, 10u);
  EXPECT_GE(m.latency.p99_seconds, m.latency.p50_seconds);
}

// ---------------------------------------------------------------------
// Ring buffers under serve workload shapes
// ---------------------------------------------------------------------

/// Job-shaped payload: a closure plus shared ownership, like the
/// scheduler's admission entries.
struct FakeJob {
  std::shared_ptr<int> payload;
  std::function<void()> run;
};

TEST(ServeRingBuffer, FullQueueRejectionAndRecovery) {
  RingBuffer<FakeJob> q(2);
  EXPECT_TRUE(q.try_push(FakeJob{std::make_shared<int>(1), [] {}}));
  EXPECT_TRUE(q.try_push(FakeJob{std::make_shared<int>(2), [] {}}));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(FakeJob{std::make_shared<int>(3), [] {}}));
  EXPECT_EQ(*q.pop().payload, 1);  // FIFO preserved across rejection
  EXPECT_TRUE(q.try_push(FakeJob{std::make_shared<int>(4), [] {}}));
  EXPECT_EQ(*q.pop().payload, 2);
  EXPECT_EQ(*q.pop().payload, 4);
  EXPECT_TRUE(q.empty());
}

TEST(ServeRingBuffer, WraparoundAtCapacityBoundary) {
  // Admission-queue shape: repeated partial fill/drain marching the
  // head and tail across the capacity boundary many times.
  RingBuffer<FakeJob> q(3);
  int next = 0, expect = 0;
  for (int round = 0; round < 100; ++round) {
    while (!q.full()) {
      q.push(FakeJob{std::make_shared<int>(next++), [] {}});
    }
    const std::size_t drain = 1 + static_cast<std::size_t>(round % 3);
    for (std::size_t d = 0; d < drain && !q.empty(); ++d) {
      ASSERT_EQ(*q.pop().payload, expect++);
    }
  }
  while (!q.empty()) ASSERT_EQ(*q.pop().payload, expect++);
  EXPECT_EQ(next, expect);
}

TEST(ServeRingBuffer, DestructionReleasesEnqueuedItems) {
  std::weak_ptr<int> leaked_a, leaked_b;
  {
    RingBuffer<FakeJob> q(4);
    auto a = std::make_shared<int>(1);
    auto b = std::make_shared<int>(2);
    leaked_a = a;
    leaked_b = b;
    q.push(FakeJob{std::move(a), [] {}});
    q.push(FakeJob{std::move(b), [] {}});
    (void)q.pop();  // one consumed, one still enqueued at destruction
  }
  EXPECT_TRUE(leaked_a.expired());
  EXPECT_TRUE(leaked_b.expired());
}

// ---------------------------------------------------------------------
// Shared workers: every scheduler drains from one process-wide set
// ---------------------------------------------------------------------

/// A job that holds the shared worker running it until released.
struct BlockingJob {
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  serve::Job job() {
    serve::Job j;
    j.run = [this] {
      started.set_value();
      released.wait();
    };
    return j;
  }
};

TEST(ServeExecutor, SameServerJobsRunConcurrentlyWithoutBatching) {
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  // Each job waits (bounded) until both have started: that only
  // happens when two workers run jobs of the same scheduler at once.
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  std::atomic<int> overlapped{0};
  serve::ServerMetrics metrics;
  serve::SchedulerConfig cfg;
  cfg.batching = false;  // one job per claim: two claims, two workers
  serve::BatchScheduler scheduler(cfg, &metrics);
  const auto rendezvous = [&] {
    std::unique_lock lock(mutex);
    ++started;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return started == 2; })) {
      overlapped.fetch_add(1);
    }
  };
  for (int i = 0; i < 2; ++i) {
    serve::Job job;
    job.run = rendezvous;
    ASSERT_EQ(scheduler.try_enqueue(std::move(job)),
              serve::ServeStatus::kAdmitted);
  }
  scheduler.shutdown();
  EXPECT_EQ(overlapped.load(), 2);
}

TEST(ServeExecutor, ShutdownReturnsWhileAnotherServersBlockerIsHeld) {
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  BlockingJob blocker;
  serve::ServerMetrics metrics_b;
  serve::BatchScheduler server_b(serve::SchedulerConfig{}, &metrics_b);
  ASSERT_EQ(server_b.try_enqueue(blocker.job()),
            serve::ServeStatus::kAdmitted);
  blocker.started.get_future().wait();  // one worker is now held by B

  serve::SamplingServer server_a;
  std::vector<std::future<serve::GammaResult>> futures;
  for (std::uint64_t i = 0; i < 8; ++i) {
    serve::GammaRequest req;
    req.id = i + 1;
    req.count = 64;
    futures.push_back(server_a.submit(req));
  }
  auto shutdown_a = std::async(std::launch::async,
                               [&server_a] { server_a.shutdown(); });
  const bool returned = shutdown_a.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  EXPECT_TRUE(returned) << "A's shutdown waited on B's blocker";
  EXPECT_EQ(server_a.metrics().completed, futures.size());
  blocker.release.set_value();
  shutdown_a.wait();
  for (auto& f : futures) EXPECT_EQ(f.get().samples.size(), 64u);
  server_b.shutdown();
  EXPECT_EQ(metrics_b.snapshot().batches, 1u);
}

TEST(ServeMetrics, QueueWaitCoversTheTimeTheOnlyWorkerWasHeld) {
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  // A blocker on another scheduler holds the one shared worker.
  BlockingJob blocker;
  serve::ServerMetrics blocker_metrics;
  serve::BatchScheduler other(serve::SchedulerConfig{}, &blocker_metrics);
  ASSERT_EQ(other.try_enqueue(blocker.job()), serve::ServeStatus::kAdmitted);
  blocker.started.get_future().wait();

  serve::SamplingServer server;
  serve::GammaRequest req;
  req.id = 5;
  req.count = 32;
  auto future = server.submit(req);
  const auto admitted_by = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double held =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    admitted_by)
          .count();
  blocker.release.set_value();
  (void)future.get();
  other.shutdown();

  const serve::MetricsSnapshot m = server.metrics();
  ASSERT_EQ(m.queue_wait.count, 1u);
  EXPECT_GE(m.queue_wait.min_seconds, held);
  EXPECT_LE(m.queue_wait.max_seconds, m.latency.max_seconds);
}

// ---------------------------------------------------------------------
// CreditRisk+ admission and shutdown
// ---------------------------------------------------------------------

TEST(ServeCreditRisk, ShutdownDrainsAdmittedWorkAndRejectsLate) {
  serve::SamplingServer server;
  serve::CreditRiskRequest req;
  req.id = 1;
  req.portfolio = test_portfolio();
  req.num_scenarios = 400;
  std::future<serve::CreditRiskResult> f;
  ASSERT_EQ(server.try_submit(req, &f), serve::ServeStatus::kAdmitted);
  server.shutdown();
  // Admitted before shutdown → fulfilled.
  EXPECT_EQ(f.get().scenarios, 400u);
  // Late submission → typed rejection, no future.
  std::future<serve::CreditRiskResult> late;
  EXPECT_EQ(server.try_submit(req, &late),
            serve::ServeStatus::kShuttingDown);
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.rejected_shutdown, 1u);
}

TEST(ServeCreditRisk, InvalidRequestsRejectWithoutAdmission) {
  serve::ServeConfig cfg;
  cfg.max_scenarios = 1000;
  cfg.substreams_per_request = 2;  // room for one sector only
  serve::SamplingServer server(cfg);
  serve::CreditRiskRequest req;
  req.id = 1;
  req.portfolio = std::make_shared<const finance::Portfolio>(
      finance::Portfolio::synthetic(16, {{1.39, "representative"}}, 7u));
  std::future<serve::CreditRiskResult> f;
  req.num_scenarios = 1;  // below the minimum
  EXPECT_EQ(server.try_submit(req, &f),
            serve::ServeStatus::kInvalidRequest);
  req.num_scenarios = cfg.max_scenarios + 1;  // above the limit
  EXPECT_EQ(server.try_submit(req, &f),
            serve::ServeStatus::kInvalidRequest);
  req.num_scenarios = 64;
  req.portfolio = test_portfolio();  // two sectors: one too many
  EXPECT_EQ(server.try_submit(req, &f),
            serve::ServeStatus::kInvalidRequest);
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.admitted, 0u);
  EXPECT_EQ(m.rejected_invalid, 3u);
}

// ---------------------------------------------------------------------
// Latency reservoir (bounded-memory metrics)
// ---------------------------------------------------------------------

TEST(ServeMetrics, ReservoirIsExactBelowCapacity) {
  serve::LatencyReservoir r(128);
  for (int i = 1; i <= 100; ++i) r.record(static_cast<double>(i));
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.stored(), 100u);
  const serve::LatencySummary s = r.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.max_seconds, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_seconds, 50.5);
  EXPECT_DOUBLE_EQ(s.p50_seconds, 50.0);  // matches the exact recorder
}

TEST(ServeMetrics, ReservoirBoundsStorageAndKeepsExactAggregates) {
  constexpr std::size_t kCap = 64;
  serve::LatencyReservoir r(kCap);
  constexpr int kN = 10'000;
  for (int i = 1; i <= kN; ++i) r.record(static_cast<double>(i));
  EXPECT_EQ(r.count(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(r.stored(), kCap);  // the regression: storage stays bounded
  const serve::LatencySummary s = r.summarize();
  EXPECT_EQ(s.count, static_cast<std::size_t>(kN));
  EXPECT_DOUBLE_EQ(s.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.max_seconds, static_cast<double>(kN));
  EXPECT_DOUBLE_EQ(s.mean_seconds, (1.0 + kN) / 2.0);
  // Percentile estimates from a uniform 1..N stream land near their
  // exact ranks (loose band: 64 samples).
  EXPECT_NEAR(s.p50_seconds / (0.50 * kN), 1.0, 0.35);
  EXPECT_GE(s.p99_seconds, s.p50_seconds);
}

TEST(ServeMetrics, ReservoirIsDeterministic) {
  serve::LatencyReservoir a(32), b(32);
  for (int i = 0; i < 5'000; ++i) {
    const double v =
        static_cast<double>((static_cast<unsigned>(i) * 2654435761u) % 1000);
    a.record(v);
    b.record(v);
  }
  const serve::LatencySummary sa = a.summarize();
  const serve::LatencySummary sb = b.summarize();
  EXPECT_DOUBLE_EQ(sa.p50_seconds, sb.p50_seconds);
  EXPECT_DOUBLE_EQ(sa.p95_seconds, sb.p95_seconds);
  EXPECT_DOUBLE_EQ(sa.p99_seconds, sb.p99_seconds);
}

TEST(ServeMetrics, RecorderStorageStaysBoundedUnderLoad) {
  // Regression for the unbounded-latency-vector bug: the recorder's
  // stored sample count can never exceed the reservoir capacity while
  // the completion count keeps growing, and snapshot() keeps working.
  serve::ServerMetrics metrics;
  const std::size_t n = serve::LatencyReservoir::kDefaultCapacity + 5'000;
  for (std::size_t i = 0; i < n; ++i) {
    metrics.record_completed(1e-6 * static_cast<double>(i + 1), 0.0,
                             serve::RequestKind::kGamma);
  }
  EXPECT_EQ(metrics.latency_samples_stored(),
            serve::LatencyReservoir::kDefaultCapacity);
  const serve::MetricsSnapshot m = metrics.snapshot();
  EXPECT_EQ(m.completed, n);
  EXPECT_EQ(m.latency.count, n);  // exact even though storage is bounded
  EXPECT_DOUBLE_EQ(m.latency.min_seconds, 1e-6);
  EXPECT_DOUBLE_EQ(m.latency.max_seconds, 1e-6 * static_cast<double>(n));
  EXPECT_GT(m.latency.p99_seconds, 0.0);
}

// ---------------------------------------------------------------------
// Admission bounds: the constants the caller sets
// ---------------------------------------------------------------------

TEST(ServeCapacity, DisabledPlanKeepsTheExplicitConstants) {
  // config() echoes the caller's bounds, including a max_batch above
  // the queue size (a claim never takes more than the queue holds).
  serve::ServeConfig cfg;
  cfg.queue_capacity = 77;
  cfg.max_batch = 9;
  serve::SamplingServer server(cfg);
  EXPECT_EQ(server.config().queue_capacity, 77u);
  EXPECT_EQ(server.config().max_batch, 9u);

  serve::ServeConfig wide;
  wide.queue_capacity = 4;
  wide.max_batch = 64;
  serve::SamplingServer wide_server(wide);
  EXPECT_EQ(wide_server.config().queue_capacity, 4u);
  EXPECT_EQ(wide_server.config().max_batch, 64u);
}

TEST(ServeCapacity, DerivedBoundsDoNotMoveResponseBits) {
  // Small explicit bounds change the queueing and batching shape only.
  // The 5-deep queue is fed in windows of 5 so no submit meets a full
  // queue.
  const auto items = mixed_request_set();
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  serve::SamplingServer plain{serve::ServeConfig{}};
  const ServedResults reference = serve_set(plain, items, order);
  for (const auto& [queue, batch] :
       {std::pair<std::size_t, std::size_t>{200, 8}, {5, 1}}) {
    SCOPED_TRACE(testing::Message() << "queue " << queue << " batch "
                                    << batch);
    serve::ServeConfig cfg;
    cfg.queue_capacity = queue;
    cfg.max_batch = batch;
    serve::SamplingServer server(cfg);
    expect_identical(reference, serve_set(server, items, order, queue),
                     items);
  }
}

// ---------------------------------------------------------------------
// Bounded deterministic response cache
// ---------------------------------------------------------------------

TEST(ServeCache, RepeatRequestHitsAndServesIdenticalBytes) {
  serve::ServeConfig cached_cfg;
  cached_cfg.response_cache_entries = 32;
  serve::SamplingServer cached(cached_cfg);
  serve::SamplingServer plain{serve::ServeConfig{}};

  serve::GammaRequest req;
  req.id = 42;
  req.alpha = 1.39f;
  req.scale = 1.0f;
  req.count = 257;

  const serve::GammaResult first = cached.run(req);
  const serve::GammaResult again = cached.run(req);
  const serve::GammaResult uncached = plain.run(req);
  // A hit replays the stored bytes; caching can never move a bit
  // relative to an uncached server with the same seed.
  ASSERT_EQ(first.samples, again.samples);
  ASSERT_EQ(first.samples, uncached.samples);
  EXPECT_EQ(first.attempts, again.attempts);

  const serve::MetricsSnapshot m = cached.metrics();
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.admitted, 1u);  // the hit never entered the queue
  // The cache-off server records no cache traffic at all.
  EXPECT_EQ(plain.metrics().cache_hits, 0u);
  EXPECT_EQ(plain.metrics().cache_misses, 0u);
}

TEST(ServeCache, TrySubmitReportsTheHit) {
  serve::ServeConfig cfg;
  cfg.response_cache_entries = 8;
  serve::SamplingServer server(cfg);
  serve::GammaRequest req;
  req.id = 7;
  req.alpha = 2.0f;
  req.scale = 1.0f;
  req.count = 64;
  std::future<serve::GammaResult> f1, f2;
  bool hit1 = true, hit2 = false;
  ASSERT_EQ(server.try_submit(req, &f1, &hit1),
            serve::ServeStatus::kAdmitted);
  EXPECT_FALSE(hit1);
  (void)f1.get();
  ASSERT_EQ(server.try_submit(req, &f2, &hit2),
            serve::ServeStatus::kAdmitted);
  EXPECT_TRUE(hit2);
  (void)f2.get();
}

TEST(ServeCache, SameIdDifferentParametersIsNotAHit) {
  serve::ServeConfig cfg;
  cfg.response_cache_entries = 8;
  serve::SamplingServer server(cfg);
  serve::GammaRequest req;
  req.id = 11;
  req.alpha = 1.5f;
  req.scale = 1.0f;
  req.count = 64;
  (void)server.run(req);
  req.alpha = 4.0f;  // same id, different request content
  (void)server.run(req);
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.cache_misses, 2u);
}

TEST(ServeCache, FifoEvictionKeepsTheCacheBounded) {
  serve::ServeConfig cfg;
  cfg.response_cache_entries = 2;
  serve::SamplingServer server(cfg);
  serve::GammaRequest req;
  req.alpha = 1.5f;
  req.scale = 1.0f;
  req.count = 64;
  for (serve::RequestId id = 1; id <= 3; ++id) {
    req.id = id;
    (void)server.run(req);  // id 1 is evicted when id 3 lands
  }
  req.id = 1;
  (void)server.run(req);  // miss: evicted
  req.id = 3;
  (void)server.run(req);  // hit: still resident
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 4u);
}

// ---------------------------------------------------------------------
// Divergent-kernel zoo request kinds (src/workloads via serve)
// ---------------------------------------------------------------------

TEST(ServeKinds, RequestKindNamesRoundTrip) {
  for (std::size_t i = 0; i < serve::kNumRequestKinds; ++i) {
    const auto kind = static_cast<serve::RequestKind>(i);
    const auto parsed = serve::parse_request_kind(serve::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << serve::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(serve::parse_request_kind("poisson").has_value());
  EXPECT_FALSE(serve::parse_request_kind("").has_value());
  EXPECT_FALSE(serve::parse_request_kind("unknown").has_value());
}

TEST(ServeZoo, HistogramResponseIsReproducibleOffline) {
  serve::ServeConfig cfg;
  cfg.server_seed = 2024;
  serve::SamplingServer server(cfg);

  serve::HistogramRequest req;
  req.id = 9;
  req.num_updates = 3000;
  req.num_bins = 128;
  req.hot_fraction = 0.4f;
  const serve::HistogramResult res = server.run(req);

  // Offline: replay the request's slot-0 substream through the same
  // trace generator and kernel — no server required.
  rng::Philox px = server.gamma_stream(req.id);
  const workloads::HistogramTrace trace = workloads::make_histogram_trace(
      req.num_updates, req.num_bins, req.hot_fraction,
      [&px] { return px.next(); });
  workloads::HistogramConfig kcfg;
  kcfg.num_bins = req.num_bins;
  kcfg.mode = req.mode;
  const workloads::HistogramOutput offline =
      workloads::run_histogram(kcfg, trace.addrs, trace.weights);

  ASSERT_EQ(res.bins, offline.bins);
  EXPECT_EQ(res.stats.cycles, offline.stats.cycles);
  EXPECT_EQ(res.stats.forwarded, offline.stats.forwarded);
}

TEST(ServeZoo, ResponsesAreIdenticalAcrossServersAndBatching) {
  serve::ServeConfig base;
  base.server_seed = 404;
  serve::ServeConfig unbatched = base;
  unbatched.batching = false;
  serve::SamplingServer a(base), b(unbatched);

  serve::HistogramRequest hreq;
  hreq.id = 1;
  hreq.num_updates = 1000;
  hreq.hot_fraction = 0.25f;
  serve::SpmvRequest sreq;
  sreq.id = 2;
  sreq.rows = 200;
  sreq.nnz_per_row_max = 6;
  serve::MatchingRequest mreq;
  mreq.id = 3;
  mreq.num_vertices = 300;
  mreq.num_edges = 900;
  mreq.target_pairs = 40;

  EXPECT_EQ(a.run(hreq).bins, b.run(hreq).bins);
  EXPECT_EQ(a.run(sreq).y, b.run(sreq).y);
  const serve::MatchingResult ma = a.run(mreq), mb = b.run(mreq);
  EXPECT_EQ(ma.match, mb.match);
  EXPECT_EQ(ma.pairs, mb.pairs);
  EXPECT_EQ(ma.stats.cycles, mb.stats.cycles);
}

TEST(ServeZoo, SchedulingModeMovesCyclesNeverPayloadBytes) {
  serve::SamplingServer server{serve::ServeConfig{}};
  serve::HistogramRequest req;
  req.id = 5;
  req.num_updates = 2000;
  req.hot_fraction = 0.8f;  // heavy collisions
  req.mode = workloads::SchedulingMode::kStatic;
  const serve::HistogramResult st = server.run(req);
  req.mode = workloads::SchedulingMode::kDynamic;
  const serve::HistogramResult dyn = server.run(req);
  EXPECT_EQ(st.bins, dyn.bins);  // same payload bytes
  EXPECT_LT(dyn.stats.cycles, st.stats.cycles);  // different schedule
  EXPECT_GT(dyn.stats.forwarded, 0u);
}

TEST(ServeZoo, CounterBasedStrategyIsInternallyDeterministic) {
  serve::ServeConfig cfg;
  serve::SamplingServer a(cfg), b(cfg);
  serve::SpmvRequest req;
  req.id = 12;
  req.rows = 128;
  req.nnz_per_row_max = 10;
  const serve::SpmvResult ra = a.run(req), rb = b.run(req);
  EXPECT_EQ(ra.y, rb.y);
  EXPECT_EQ(ra.nnz, rb.nnz);

  // Offline reproduction over the Philox slot.
  rng::Philox px = a.gamma_stream(req.id);
  const auto next = [&px] { return px.next(); };
  const workloads::CsrMatrix m = workloads::make_spmv_matrix(
      req.rows, req.rows, req.nnz_per_row_min, req.nnz_per_row_max, next);
  const std::vector<float> x = workloads::make_dense_vector(req.rows, next);
  workloads::SpmvConfig kcfg;
  kcfg.mode = req.mode;
  EXPECT_EQ(ra.y, workloads::run_spmv(kcfg, m, x).y);
}

TEST(ServeZoo, ValidationRejectsOutOfRangeRequests) {
  serve::SamplingServer server{serve::ServeConfig{}};
  {
    serve::HistogramRequest req;  // num_updates == 0
    std::future<serve::HistogramResult> f;
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
    req.num_updates = 100;
    req.hot_fraction = 1.5f;  // out of [0, 1]
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
  }
  {
    serve::SpmvRequest req;
    req.rows = 100;
    req.nnz_per_row_min = 9;
    req.nnz_per_row_max = 3;  // min > max
    std::future<serve::SpmvResult> f;
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
    req.nnz_per_row_min = 0;
    req.nnz_per_row_max = server.config().max_spmv_nnz_per_row + 1;
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
  }
  {
    serve::MatchingRequest req;
    req.num_vertices = 1;  // below the 2-vertex minimum
    req.num_edges = 4;
    std::future<serve::MatchingResult> f;
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
  }
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.rejected_invalid, 5u);
  EXPECT_EQ(m.completed, 0u);
}

TEST(ServeZoo, PerKindCountersTrackSubmissionsAndCompletions) {
  serve::SamplingServer server{serve::ServeConfig{}};
  serve::GammaRequest g;
  g.id = 1;
  g.count = 32;
  serve::HistogramRequest h;
  h.id = 2;
  h.num_updates = 64;
  serve::MatchingRequest match;
  match.id = 3;
  match.num_vertices = 16;
  match.num_edges = 20;
  (void)server.run(g);
  (void)server.run(h);
  (void)server.run(h);
  (void)server.run(match);
  const serve::MetricsSnapshot m = server.metrics();
  const auto at = [&](serve::RequestKind k) {
    return static_cast<std::size_t>(k);
  };
  EXPECT_EQ(m.submitted_by_kind[at(serve::RequestKind::kGamma)], 1u);
  EXPECT_EQ(m.submitted_by_kind[at(serve::RequestKind::kHistogram)], 2u);
  EXPECT_EQ(m.submitted_by_kind[at(serve::RequestKind::kSpmv)], 0u);
  EXPECT_EQ(m.submitted_by_kind[at(serve::RequestKind::kMatching)], 1u);
  EXPECT_EQ(m.completed_by_kind[at(serve::RequestKind::kGamma)], 1u);
  EXPECT_EQ(m.completed_by_kind[at(serve::RequestKind::kHistogram)], 2u);
  EXPECT_EQ(m.completed_by_kind[at(serve::RequestKind::kMatching)], 1u);
  EXPECT_EQ(m.completed, 4u);
}

TEST(ServeCache, InterleavedKindsEvictIndependentlyAtCapacity) {
  // Satellite check: the FIFO bound is PER KIND — a burst of one kind
  // at capacity cannot evict another kind's entries, and hit/miss
  // accounting stays exact under interleaving.
  serve::ServeConfig cfg;
  cfg.response_cache_entries = 2;
  serve::SamplingServer server(cfg);

  serve::GammaRequest g;
  g.alpha = 1.5f;
  g.scale = 1.0f;
  g.count = 32;
  serve::HistogramRequest h;
  h.num_updates = 64;

  // Interleave: gamma ids 1..3 and histogram ids 1..3 at capacity 2.
  for (serve::RequestId id = 1; id <= 3; ++id) {
    g.id = id;
    h.id = id;
    (void)server.run(g);
    (void)server.run(h);
  }
  // 6 misses so far; each kind holds {2, 3} having FIFO-evicted id 1.
  g.id = 1;
  (void)server.run(g);  // miss; re-inserting 1 FIFO-evicts gamma id 2
  h.id = 3;
  (void)server.run(h);  // hit (histogram store was not disturbed)
  g.id = 2;
  (void)server.run(g);  // miss: evicted by the re-insert above
  h.id = 2;
  (void)server.run(h);  // hit: the histogram store saw no new inserts

  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.cache_hits, 2u);
  EXPECT_EQ(m.cache_misses, 8u);
  EXPECT_EQ(m.completed_by_kind[static_cast<std::size_t>(
                serve::RequestKind::kGamma)],
            5u);
  EXPECT_EQ(m.completed_by_kind[static_cast<std::size_t>(
                serve::RequestKind::kHistogram)],
            5u);
}

TEST(ServeCache, ZooHitReplaysBitsAndSkipsTheQueue) {
  serve::ServeConfig cfg;
  cfg.response_cache_entries = 8;
  serve::SamplingServer server(cfg);
  serve::MatchingRequest req;
  req.id = 21;
  req.num_vertices = 100;
  req.num_edges = 250;
  const serve::MatchingResult first = server.run(req);
  std::future<serve::MatchingResult> f;
  bool hit = false;
  ASSERT_EQ(server.try_submit(req, &f, &hit), serve::ServeStatus::kAdmitted);
  EXPECT_TRUE(hit);
  const serve::MatchingResult again = f.get();
  EXPECT_EQ(first.match, again.match);
  EXPECT_EQ(first.stats.cycles, again.stats.cycles);
  // Same id, different mode is a DIFFERENT key (stats differ).
  req.mode = workloads::SchedulingMode::kStatic;
  bool hit2 = true;
  std::future<serve::MatchingResult> f2;
  ASSERT_EQ(server.try_submit(req, &f2, &hit2),
            serve::ServeStatus::kAdmitted);
  EXPECT_FALSE(hit2);
  EXPECT_EQ(f2.get().match, first.match);  // payload still identical
}

TEST(ServeCache, CreditRiskHitReplaysBitsAndSkipsTheQueue) {
  serve::ServeConfig cfg;
  cfg.response_cache_entries = 8;
  serve::SamplingServer server(cfg);
  serve::CreditRiskRequest req;
  req.id = 77;
  req.portfolio = test_portfolio();
  req.num_scenarios = 64;
  const serve::CreditRiskResult first = server.run(req);
  std::future<serve::CreditRiskResult> f;
  bool hit = false;
  ASSERT_EQ(server.try_submit(req, &f, &hit), serve::ServeStatus::kAdmitted);
  EXPECT_TRUE(hit);
  const serve::CreditRiskResult again = f.get();
  // Bit-identity: exact double comparison on purpose.
  EXPECT_EQ(first.scenarios, again.scenarios);
  EXPECT_EQ(first.mean, again.mean);
  EXPECT_EQ(first.variance, again.variance);
  EXPECT_EQ(first.var95, again.var95);
  EXPECT_EQ(first.var999, again.var999);
  EXPECT_EQ(first.es999, again.es999);
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.admitted, 1u);  // the hit never entered the queue
}

}  // namespace
}  // namespace dwi
