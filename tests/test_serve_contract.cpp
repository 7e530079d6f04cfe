// Serve-contract tests shared by SamplingServer and
// ShardedSamplingServer, written once over all five request kinds:
//   * golden response fingerprints: one request of each kind on the
//     default server (seed 1) hashes to a pinned FNV-1a value, through
//     a single server and through a 4-shard cluster alike;
//   * modeled device accounting: a 1-shard cluster charges each kind
//     exactly ShardBackend::estimate_seconds(outputs, variance) under
//     the router's per-kind launch formulas;
//   * shutdown racing concurrent submitters: every admitted future is
//     fulfilled exactly once (value or exception) and the counters
//     balance (admitted == completed + failed);
//   * the request-id bound, typed over every kind: the largest id whose
//     substream block fits in 64 bits is served, the next is invalid.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "finance/portfolio.h"
#include "serve/cluster.h"
#include "serve/sampling_server.h"

namespace dwi {
namespace {

std::shared_ptr<const finance::Portfolio> test_portfolio() {
  static const auto portfolio =
      std::make_shared<const finance::Portfolio>(finance::Portfolio::synthetic(
          16, {{1.39, "representative"}, {0.8, "stable"}}, 7u));
  return portfolio;
}

// ---------------------------------------------------------------------
// Golden fingerprints
// ---------------------------------------------------------------------

/// FNV-1a (64-bit) over a result's fields in declaration order: each
/// scalar as its in-memory bytes, each vector as its element bytes,
/// WorkloadStatsResult field by field.
class Fnv1a {
 public:
  template <typename T>
  Fnv1a& add(const T& value) {
    return bytes(&value, sizeof value);
  }
  template <typename T>
  Fnv1a& add(const std::vector<T>& values) {
    return bytes(values.data(), values.size() * sizeof(T));
  }
  Fnv1a& add(const serve::WorkloadStatsResult& s) {
    return add(s.cycles)
        .add(s.initiations)
        .add(s.hazard_stall_cycles)
        .add(s.forwarded)
        .add(s.skipped);
  }
  std::uint64_t value() const { return h_; }

 private:
  Fnv1a& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const serve::GammaResult& r) {
  return Fnv1a().add(r.id).add(r.samples).add(r.attempts).add(r.accepted)
      .value();
}
std::uint64_t fingerprint(const serve::CreditRiskResult& r) {
  return Fnv1a()
      .add(r.id)
      .add(r.scenarios)
      .add(r.mean)
      .add(r.variance)
      .add(r.var95)
      .add(r.var999)
      .add(r.es999)
      .value();
}
std::uint64_t fingerprint(const serve::HistogramResult& r) {
  return Fnv1a().add(r.id).add(r.bins).add(r.updates).add(r.stats).value();
}
std::uint64_t fingerprint(const serve::SpmvResult& r) {
  return Fnv1a().add(r.id).add(r.y).add(r.nnz).add(r.stats).value();
}
std::uint64_t fingerprint(const serve::MatchingResult& r) {
  return Fnv1a()
      .add(r.id)
      .add(r.match)
      .add(r.pairs)
      .add(r.edges_examined)
      .add(r.stats)
      .value();
}

/// The five reference requests: gamma id 1 (α 1.5, scale 1.39, 1000
/// samples), CreditRisk+ id 2 (16-obligor 2-sector synthetic portfolio,
/// seed 7, 1000 scenarios), histogram id 3 (2048 updates, 128 bins, hot
/// fraction 0.5), SpMV id 4 (256 rows, default 0–8 nnz per row) and
/// matching id 5 (512 vertices, 1024 edges).
struct GoldenRequests {
  serve::GammaRequest gamma;
  serve::CreditRiskRequest credit;
  serve::HistogramRequest histogram;
  serve::SpmvRequest spmv;
  serve::MatchingRequest matching;

  GoldenRequests() {
    gamma.id = 1;
    gamma.alpha = 1.5f;
    gamma.scale = 1.39f;
    gamma.count = 1000;
    credit.id = 2;
    credit.portfolio = test_portfolio();
    credit.num_scenarios = 1000;
    histogram.id = 3;
    histogram.num_updates = 2048;
    histogram.num_bins = 128;
    histogram.hot_fraction = 0.5f;
    spmv.id = 4;
    spmv.rows = 256;
    matching.id = 5;
    matching.num_vertices = 512;
    matching.num_edges = 1024;
  }
};

constexpr std::uint64_t kGoldenGamma = 0xf6526a115fd3e745ull;
constexpr std::uint64_t kGoldenCredit = 0xb69cd07a8b8ca81dull;
constexpr std::uint64_t kGoldenHistogram = 0x5a8af020e8deb087ull;
constexpr std::uint64_t kGoldenSpmv = 0x24d8a913984d93b5ull;
constexpr std::uint64_t kGoldenMatching = 0xb7a3ed65ffb2a16full;

template <typename Target>
void expect_golden(Target& target) {
  const GoldenRequests q;
  EXPECT_EQ(fingerprint(target.run(q.gamma)), kGoldenGamma);
  EXPECT_EQ(fingerprint(target.run(q.credit)), kGoldenCredit);
  EXPECT_EQ(fingerprint(target.run(q.histogram)), kGoldenHistogram);
  EXPECT_EQ(fingerprint(target.run(q.spmv)), kGoldenSpmv);
  EXPECT_EQ(fingerprint(target.run(q.matching)), kGoldenMatching);
}

TEST(ServeGolden, DefaultServerFingerprints) {
  serve::SamplingServer server;
  expect_golden(server);
}

TEST(ServeGolden, FourShardClusterFingerprints) {
  serve::ClusterConfig cfg;
  cfg.num_shards = 4;
  serve::ShardedSamplingServer cluster(cfg);
  expect_golden(cluster);
}

// ---------------------------------------------------------------------
// Modeled device accounting
// ---------------------------------------------------------------------

/// Serves `req` on the cluster's only shard and checks the device
/// ledger grew by exactly the launch (outputs, variance) prices.
template <typename Request>
void expect_charged(serve::ShardedSamplingServer& cluster,
                    const Request& req, std::uint64_t outputs,
                    float variance) {
  const minicl::ShardBackend& backend = cluster.backend(0);
  const double before = backend.modeled_busy_seconds();
  const double price = backend.estimate_seconds(outputs, variance);
  (void)cluster.run(req);
  EXPECT_EQ(backend.modeled_busy_seconds(), before + price)
      << "request " << req.id;
}

TEST(ServeModeledLoad, EachKindChargesItsLaunchFormula) {
  // Sizes sit above the 65,536-output NDRange floor so every formula's
  // output count reaches the device model unclamped.
  serve::ClusterConfig cfg;
  cfg.num_shards = 1;
  cfg.model_devices = true;
  serve::ShardedSamplingServer cluster(cfg);

  // Gamma: one output per sample, variance 1/alpha.
  serve::GammaRequest gamma;
  gamma.id = 11;
  gamma.alpha = 2.5f;
  gamma.count = 70'000;
  expect_charged(cluster, gamma, 70'000, 1.0f / 2.5f);

  // CreditRisk+: scenarios × sectors outputs at the mean sector
  // variance (1.39 and 0.8).
  serve::CreditRiskRequest credit;
  credit.id = 12;
  credit.portfolio = test_portfolio();
  credit.num_scenarios = 40'000;
  expect_charged(cluster, credit, 80'000,
                 static_cast<float>((1.39 + 0.8) / 2.0));

  // Histogram: one output per update at variance 1 + hot_fraction.
  serve::HistogramRequest histogram;
  histogram.id = 13;
  histogram.num_updates = 90'000;
  histogram.num_bins = 64;
  histogram.hot_fraction = 0.25f;
  expect_charged(cluster, histogram, 90'000, 1.0f + 0.25f);

  // SpMV: rows × ceil-midpoint of the nnz range, at least rows.
  serve::SpmvRequest spmv;
  spmv.id = 14;
  spmv.rows = 4096;
  spmv.nnz_per_row_min = 20;
  spmv.nnz_per_row_max = 41;
  expect_charged(cluster, spmv, 4096u * 31u, 1.0f);

  // Matching: one output per edge.
  serve::MatchingRequest matching;
  matching.id = 15;
  matching.num_vertices = 20'000;
  matching.num_edges = 75'000;
  expect_charged(cluster, matching, 75'000, 1.0f);

  EXPECT_EQ(cluster.backend(0).modeled_launches(), 5u);
}

// ---------------------------------------------------------------------
// Shutdown racing concurrent submitters
// ---------------------------------------------------------------------

/// A small valid request of each kind with id `id`.
template <typename Request>
Request small_request(serve::RequestId id);

template <>
serve::GammaRequest small_request(serve::RequestId id) {
  serve::GammaRequest r;
  r.id = id;
  r.alpha = 1.5f;
  r.count = 64;
  return r;
}
template <>
serve::CreditRiskRequest small_request(serve::RequestId id) {
  serve::CreditRiskRequest r;
  r.id = id;
  r.portfolio = test_portfolio();
  r.num_scenarios = 32;
  return r;
}
template <>
serve::HistogramRequest small_request(serve::RequestId id) {
  serve::HistogramRequest r;
  r.id = id;
  r.num_updates = 256;
  r.num_bins = 32;
  r.hot_fraction = 0.5f;
  return r;
}
template <>
serve::SpmvRequest small_request(serve::RequestId id) {
  serve::SpmvRequest r;
  r.id = id;
  r.rows = 32;
  return r;
}
template <>
serve::MatchingRequest small_request(serve::RequestId id) {
  serve::MatchingRequest r;
  r.id = id;
  r.num_vertices = 64;
  r.num_edges = 128;
  return r;
}

/// One submitter's admitted futures, one vector per kind.
struct Admitted {
  std::tuple<std::vector<std::future<serve::GammaResult>>,
             std::vector<std::future<serve::CreditRiskResult>>,
             std::vector<std::future<serve::HistogramResult>>,
             std::vector<std::future<serve::SpmvResult>>,
             std::vector<std::future<serve::MatchingResult>>>
      futures;
  std::uint64_t count = 0;
};

template <typename Target, typename Request, typename Result>
serve::ServeStatus try_one(Target& target, const Request& req,
                           std::vector<std::future<Result>>& into,
                           Admitted& tally) {
  std::future<Result> f;
  const serve::ServeStatus status = target.try_submit(req, &f);
  if (status == serve::ServeStatus::kAdmitted) {
    into.push_back(std::move(f));
    ++tally.count;
  }
  return status;
}

/// `threads` submitters loop over mixed kinds until they see
/// kShuttingDown, while the main thread shuts the target down
/// mid-stream. Returns every submitter's admitted futures.
template <typename Target>
std::vector<Admitted> race_shutdown(Target& target, unsigned threads) {
  std::vector<Admitted> admitted(threads);
  std::atomic<unsigned> started{0};
  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < threads; ++t) {
    submitters.emplace_back([&target, &admitted, &started, t] {
      Admitted& mine = admitted[t];
      auto& [g, c, h, s, m] = mine.futures;
      started.fetch_add(1);
      serve::ServeStatus status = serve::ServeStatus::kAdmitted;
      // The cap only bounds a broken shutdown; the test then fails on
      // rejected_shutdown.
      for (std::uint64_t i = 0;
           status != serve::ServeStatus::kShuttingDown && i < 10'000'000;
           ++i) {
        const serve::RequestId id = 1 + t * 100'000'000 + i;
        switch (i % 5) {
          case 0:
            status = try_one(target, small_request<serve::GammaRequest>(id),
                             g, mine);
            break;
          case 1:
            status = try_one(
                target, small_request<serve::CreditRiskRequest>(id), c, mine);
            break;
          case 2:
            status = try_one(
                target, small_request<serve::HistogramRequest>(id), h, mine);
            break;
          case 3:
            status = try_one(target, small_request<serve::SpmvRequest>(id), s,
                             mine);
            break;
          case 4:
            status = try_one(
                target, small_request<serve::MatchingRequest>(id), m, mine);
            break;
        }
      }
    });
  }
  while (started.load() < threads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  target.shutdown();
  for (std::thread& th : submitters) th.join();
  return admitted;
}

/// Every admitted future is already ready once shutdown() returned, and
/// yields exactly one outcome. Returns {values, exceptions}.
std::pair<std::uint64_t, std::uint64_t> drain(std::vector<Admitted>& all) {
  std::uint64_t values = 0;
  std::uint64_t errors = 0;
  const auto settle = [&](auto& futures) {
    for (auto& f : futures) {
      EXPECT_TRUE(f.valid());
      EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      try {
        (void)f.get();
        ++values;
      } catch (...) {
        ++errors;
      }
      EXPECT_FALSE(f.valid());  // the one outcome has been taken
    }
  };
  for (Admitted& a : all) {
    std::apply([&](auto&... per_kind) { (settle(per_kind), ...); }, a.futures);
  }
  return {values, errors};
}

std::uint64_t total_admitted(const std::vector<Admitted>& all) {
  std::uint64_t n = 0;
  for (const Admitted& a : all) n += a.count;
  return n;
}

void expect_server_drained(bool batching) {
  serve::ServeConfig cfg;
  cfg.queue_capacity = 64;
  cfg.batching = batching;
  serve::SamplingServer server(cfg);
  std::vector<Admitted> admitted = race_shutdown(server, 4);
  const auto [values, errors] = drain(admitted);
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_GT(total_admitted(admitted), 0u);
  EXPECT_EQ(values + errors, total_admitted(admitted));
  EXPECT_EQ(m.admitted, total_admitted(admitted));
  EXPECT_EQ(m.admitted, m.completed + m.failed);
  EXPECT_EQ(m.failed, errors);
  EXPECT_GE(m.rejected_shutdown, 4u);  // each submitter saw one
}

TEST(ServeShutdownRace, EveryAdmittedFutureIsFulfilledOnce) {
  expect_server_drained(/*batching=*/true);
}

TEST(ServeShutdownRace, UnbatchedEveryAdmittedFutureIsFulfilledOnce) {
  expect_server_drained(/*batching=*/false);
}

TEST(ServeShutdownRace, ClusterEveryAdmittedFutureIsFulfilledOnce) {
  serve::ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.shard.queue_capacity = 16;
  serve::ShardedSamplingServer cluster(cfg);
  std::vector<Admitted> admitted = race_shutdown(cluster, 4);
  const auto [values, errors] = drain(admitted);
  const serve::ClusterSnapshot snap = cluster.metrics();
  EXPECT_GT(total_admitted(admitted), 0u);
  EXPECT_EQ(values + errors, total_admitted(admitted));
  EXPECT_EQ(snap.admitted, total_admitted(admitted));
  std::uint64_t shard_admitted = 0;
  std::uint64_t shard_done = 0;
  for (const serve::ShardSnapshot& s : snap.shards) {
    shard_admitted += s.metrics.admitted;
    shard_done += s.metrics.completed + s.metrics.failed;
  }
  EXPECT_EQ(shard_admitted, snap.admitted);
  EXPECT_EQ(shard_done, snap.admitted);
  EXPECT_GE(snap.rejected_shutdown, 4u);  // each submitter saw one
}

// ---------------------------------------------------------------------
// Request-id bound
// ---------------------------------------------------------------------

/// Largest id whose whole substream block [id·spr, (id+1)·spr) fits
/// in 64 bits: floor(2^64 / spr) - 1.
serve::RequestId largest_valid_id(std::uint64_t spr) {
  // 2^64 - 1 = q·spr + r, so 2^64 = q·spr + (r + 1).
  const std::uint64_t q = ~std::uint64_t{0} / spr;
  const std::uint64_t r = ~std::uint64_t{0} % spr;
  const std::uint64_t blocks = r + 1 == spr ? q + 1 : q;
  return blocks - 1;
}

template <typename Request>
class ServeIdBound : public ::testing::Test {};

using AllRequests =
    ::testing::Types<serve::GammaRequest, serve::CreditRiskRequest,
                     serve::HistogramRequest, serve::SpmvRequest,
                     serve::MatchingRequest>;
TYPED_TEST_SUITE(ServeIdBound, AllRequests);

/// The largest valid id is admitted and computes; the next id up is
/// rejected as invalid. spr 16 (the default) is a power of two, where
/// the bound is tightest; 3 is not.
template <typename Target, typename Request>
void expect_id_bound(Target& target, std::uint64_t spr) {
  const serve::RequestId top = largest_valid_id(spr);
  const auto result = target.run(small_request<Request>(top));
  EXPECT_EQ(result.id, top);

  std::future<decltype(target.run(small_request<Request>(top)))> f;
  EXPECT_EQ(target.try_submit(small_request<Request>(top + 1), &f),
            serve::ServeStatus::kInvalidRequest);
  EXPECT_FALSE(f.valid());
}

TYPED_TEST(ServeIdBound, LargestIdComputesNextIsInvalid) {
  for (const std::uint64_t spr : {std::uint64_t{16}, std::uint64_t{3}}) {
    SCOPED_TRACE(::testing::Message() << "substreams_per_request " << spr);
    serve::ServeConfig cfg;
    cfg.substreams_per_request = spr;
    serve::SamplingServer server(cfg);
    expect_id_bound<serve::SamplingServer, TypeParam>(server, spr);

    serve::ClusterConfig ccfg;
    ccfg.num_shards = 4;
    ccfg.shard = cfg;
    serve::ShardedSamplingServer cluster(ccfg);
    expect_id_bound<serve::ShardedSamplingServer, TypeParam>(cluster, spr);
  }
}

}  // namespace
}  // namespace dwi
