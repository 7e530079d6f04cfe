// Sharded-cluster tests (serve/cluster.h):
//   * the cross-shard determinism matrix — a fixed request set with a
//     fixed server seed yields bit-identical responses across shard
//     counts {1, 2, 4, 8}, both routing policies, stealing on/off,
//     batching on/off, thread counts, and heterogeneous device
//     bindings (FPGA / CPU / GPU / PHI shards);
//   * consistent-hash ring properties: per-shard load balanced within
//     bounds, minimal remap when a shard is added or removed,
//     preference order starts at the owner and covers every shard;
//   * router backpressure: a full shard surfaces typed kQueueFull
//     through the router (steal off), and retry-on-next-shard admits
//     the overflow elsewhere (steal on) with identical response bytes;
//   * offline reproduction at cluster scope: any served response is
//     recomputable from (server_seed, request id) alone via
//     Philox::seek, placement unknown and unneeded.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "finance/creditrisk_plus.h"
#include "finance/portfolio.h"
#include "minicl/shard_backend.h"
#include "rng/gamma.h"
#include "rng/philox.h"
#include "serve/cluster.h"

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

/// One matrix item — any of the five request kinds, discriminated the
/// same way the scheduler does.
struct RequestItem {
  serve::RequestKind kind = serve::RequestKind::kGamma;
  serve::GammaRequest gamma;
  serve::CreditRiskRequest credit;
  serve::HistogramRequest histogram;
  serve::SpmvRequest spmv;
  serve::MatchingRequest matching;
};

/// Mixed set over ALL FIVE request kinds with ids spread enough for
/// the hash ring to scatter them across shards. The zoo kinds ride the
/// same matrix cells as gamma/CreditRisk+ — placement must be
/// invisible in their payloads AND their cycle stats.
std::vector<RequestItem> mixed_request_set() {
  const float alphas[3] = {0.72f, 1.5f, 4.0f};
  std::vector<RequestItem> items;
  for (std::size_t i = 0; i < 24; ++i) {
    RequestItem item;
    const serve::RequestId id = 1000 + i * 17;
    switch (i % 6) {
      case 2:
        item.kind = serve::RequestKind::kCreditRisk;
        item.credit.id = id;
        item.credit.portfolio = test_portfolio();
        item.credit.num_scenarios = 48;
        break;
      case 3:
        item.kind = serve::RequestKind::kHistogram;
        item.histogram.id = id;
        item.histogram.num_updates = 600;
        item.histogram.num_bins = 64;
        item.histogram.hot_fraction = 0.3f;
        if (i % 2 == 1) {
          item.histogram.mode = workloads::SchedulingMode::kStatic;
        }
        break;
      case 4:
        item.kind = serve::RequestKind::kSpmv;
        item.spmv.id = id;
        item.spmv.rows = 96;
        item.spmv.nnz_per_row_max = 5;
        break;
      case 5:
        item.kind = serve::RequestKind::kMatching;
        item.matching.id = id;
        item.matching.num_vertices = 120;
        item.matching.num_edges = 300;
        item.matching.target_pairs = (i % 4 == 1) ? 20u : 0u;
        break;
      default:
        item.gamma.id = id;
        item.gamma.alpha = alphas[i % 3];
        item.gamma.scale = 1.39f;
        item.gamma.count = 129;  // off a block boundary on purpose
        break;
    }
    items.push_back(item);
  }
  return items;
}

struct ServedResults {
  std::vector<serve::GammaResult> gamma;        // by set position
  std::vector<serve::CreditRiskResult> credit;  // by set position
  std::vector<serve::HistogramResult> histogram;
  std::vector<serve::SpmvResult> spmv;
  std::vector<serve::MatchingResult> matching;
};

ServedResults serve_set(serve::ShardedSamplingServer& cluster,
                        const std::vector<RequestItem>& items) {
  std::vector<std::future<serve::GammaResult>> gf(items.size());
  std::vector<std::future<serve::CreditRiskResult>> cf(items.size());
  std::vector<std::future<serve::HistogramResult>> hf(items.size());
  std::vector<std::future<serve::SpmvResult>> sf(items.size());
  std::vector<std::future<serve::MatchingResult>> mf(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    switch (items[i].kind) {
      case serve::RequestKind::kGamma:
        gf[i] = cluster.submit(items[i].gamma);
        break;
      case serve::RequestKind::kCreditRisk:
        cf[i] = cluster.submit(items[i].credit);
        break;
      case serve::RequestKind::kHistogram:
        hf[i] = cluster.submit(items[i].histogram);
        break;
      case serve::RequestKind::kSpmv:
        sf[i] = cluster.submit(items[i].spmv);
        break;
      case serve::RequestKind::kMatching:
        mf[i] = cluster.submit(items[i].matching);
        break;
    }
  }
  ServedResults out;
  out.gamma.resize(items.size());
  out.credit.resize(items.size());
  out.histogram.resize(items.size());
  out.spmv.resize(items.size());
  out.matching.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    switch (items[i].kind) {
      case serve::RequestKind::kGamma: out.gamma[i] = gf[i].get(); break;
      case serve::RequestKind::kCreditRisk: out.credit[i] = cf[i].get(); break;
      case serve::RequestKind::kHistogram:
        out.histogram[i] = hf[i].get();
        break;
      case serve::RequestKind::kSpmv: out.spmv[i] = sf[i].get(); break;
      case serve::RequestKind::kMatching:
        out.matching[i] = mf[i].get();
        break;
    }
  }
  return out;
}

void expect_identical_stats(const serve::WorkloadStatsResult& a,
                            const serve::WorkloadStatsResult& b) {
  // Cycle accounting is part of the response, so it is held to the
  // same bit-identity bar as the payload.
  ASSERT_EQ(a.cycles, b.cycles);
  ASSERT_EQ(a.initiations, b.initiations);
  ASSERT_EQ(a.hazard_stall_cycles, b.hazard_stall_cycles);
  ASSERT_EQ(a.forwarded, b.forwarded);
  ASSERT_EQ(a.skipped, b.skipped);
}

void expect_identical(const ServedResults& a, const ServedResults& b,
                      const std::vector<RequestItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE(::testing::Message()
                 << "request " << i << " kind="
                 << serve::to_string(items[i].kind));
    switch (items[i].kind) {
      case serve::RequestKind::kGamma:
        ASSERT_EQ(a.gamma[i].id, b.gamma[i].id);
        ASSERT_EQ(a.gamma[i].attempts, b.gamma[i].attempts);
        // Bit-identity: the float vectors must match exactly.
        ASSERT_EQ(a.gamma[i].samples, b.gamma[i].samples);
        break;
      case serve::RequestKind::kCreditRisk:
        ASSERT_EQ(a.credit[i].id, b.credit[i].id);
        ASSERT_EQ(a.credit[i].mean, b.credit[i].mean);
        ASSERT_EQ(a.credit[i].variance, b.credit[i].variance);
        ASSERT_EQ(a.credit[i].var95, b.credit[i].var95);
        ASSERT_EQ(a.credit[i].var999, b.credit[i].var999);
        ASSERT_EQ(a.credit[i].es999, b.credit[i].es999);
        break;
      case serve::RequestKind::kHistogram:
        ASSERT_EQ(a.histogram[i].bins, b.histogram[i].bins);
        expect_identical_stats(a.histogram[i].stats, b.histogram[i].stats);
        break;
      case serve::RequestKind::kSpmv:
        ASSERT_EQ(a.spmv[i].y, b.spmv[i].y);
        ASSERT_EQ(a.spmv[i].nnz, b.spmv[i].nnz);
        expect_identical_stats(a.spmv[i].stats, b.spmv[i].stats);
        break;
      case serve::RequestKind::kMatching:
        ASSERT_EQ(a.matching[i].match, b.matching[i].match);
        ASSERT_EQ(a.matching[i].pairs, b.matching[i].pairs);
        ASSERT_EQ(a.matching[i].edges_examined, b.matching[i].edges_examined);
        expect_identical_stats(a.matching[i].stats, b.matching[i].stats);
        break;
    }
  }
}

// ---------------------------------------------------------------------
// Cross-shard determinism matrix
// ---------------------------------------------------------------------

struct MatrixCell {
  std::size_t shards;
  serve::RouterPolicy policy;
  bool steal;
  bool batching;
  unsigned threads;  // exec pool size for the cell
};

TEST(ClusterDeterminism, MatrixBitIdenticalAcrossShardsPoliciesStealBatching) {
  ThreadCountGuard guard;
  const auto items = mixed_request_set();

  serve::ClusterConfig base;
  base.shard.server_seed = 42;
  base.shard.queue_capacity = items.size() + 1;
  // Heterogeneous device bindings, cycled across shards: WHERE a
  // request lands (which shard, which accelerator model) must be
  // invisible in the bytes.
  base.devices = {minicl::BackendKind::kFpga, minicl::BackendKind::kCpu,
                  minicl::BackendKind::kGpu, minicl::BackendKind::kPhi};

  // Reference: one shard, no stealing, batching on, one thread.
  exec::set_thread_count(1);
  ServedResults reference;
  {
    serve::ClusterConfig cfg = base;
    cfg.num_shards = 1;
    cfg.steal = false;
    serve::ShardedSamplingServer cluster(cfg);
    reference = serve_set(cluster, items);
  }

  const MatrixCell cells[] = {
      // Shard-count sweep at defaults (hash routing, steal on).
      {1, serve::RouterPolicy::kConsistentHash, true, true, 1},
      {2, serve::RouterPolicy::kConsistentHash, true, true, 1},
      {4, serve::RouterPolicy::kConsistentHash, true, true, 1},
      {8, serve::RouterPolicy::kConsistentHash, true, true, 1},
      // Each remaining dimension flipped at 4 shards.
      {4, serve::RouterPolicy::kLeastLoaded, true, true, 1},
      {4, serve::RouterPolicy::kConsistentHash, false, true, 1},
      {4, serve::RouterPolicy::kConsistentHash, true, false, 1},
      {4, serve::RouterPolicy::kConsistentHash, true, true, 4},
      // Everything at once.
      {2, serve::RouterPolicy::kLeastLoaded, false, false, 4},
      {8, serve::RouterPolicy::kLeastLoaded, true, false, 2},
  };

  for (const MatrixCell& cell : cells) {
    exec::set_thread_count(cell.threads);
    serve::ClusterConfig cfg = base;
    cfg.num_shards = cell.shards;
    cfg.policy = cell.policy;
    cfg.steal = cell.steal;
    cfg.shard.batching = cell.batching;
    serve::ShardedSamplingServer cluster(cfg);
    const ServedResults got = serve_set(cluster, items);
    SCOPED_TRACE(::testing::Message()
                 << "shards=" << cell.shards << " policy="
                 << serve::to_string(cell.policy) << " steal=" << cell.steal
                 << " batching=" << cell.batching
                 << " threads=" << cell.threads);
    expect_identical(reference, got, items);

    const serve::ClusterSnapshot snap = cluster.metrics();
    EXPECT_EQ(snap.submitted, items.size());
    EXPECT_EQ(snap.admitted, items.size());
    EXPECT_EQ(snap.rejected_full, 0u);
    // Every admitted request was mirrored onto exactly one device.
    std::uint64_t launches = 0;
    std::uint64_t placed = 0;
    for (const serve::ShardSnapshot& s : snap.shards) {
      launches += s.modeled_launches;
      placed += s.routed_primary + s.stolen_in;
    }
    EXPECT_EQ(launches, items.size());
    EXPECT_EQ(placed, items.size());
  }
}

TEST(ClusterDeterminism, CounterBasedMatrixMatchesSingleShard) {
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  const auto items = mixed_request_set();

  serve::ClusterConfig cfg;
  cfg.shard.server_seed = 7;
  cfg.shard.queue_capacity = items.size() + 1;

  cfg.num_shards = 1;
  ServedResults reference;
  {
    serve::ShardedSamplingServer cluster(cfg);
    reference = serve_set(cluster, items);
  }
  for (const std::size_t shards : {2u, 4u, 8u}) {
    cfg.num_shards = shards;
    cfg.shard.batching = (shards != 4);  // one unbatched cell here too
    serve::ShardedSamplingServer cluster(cfg);
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    expect_identical(reference, serve_set(cluster, items), items);
  }
}

// ---------------------------------------------------------------------
// Consistent-hash ring properties
// ---------------------------------------------------------------------

TEST(ConsistentHashRing, BalanceWithinBounds) {
  serve::ConsistentHashRing ring(64);
  const std::size_t shards = 8;
  for (std::size_t s = 0; s < shards; ++s) ring.add_shard(s);

  const std::size_t keys = 20'000;
  std::vector<std::size_t> hits(shards, 0);
  for (std::size_t k = 0; k < keys; ++k) ++hits[ring.shard_for(k)];

  const double mean = static_cast<double>(keys) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    // 64 vnodes per shard keeps arc-length variance modest; the hash is
    // fixed, so these bounds are deterministic, not statistical.
    EXPECT_GT(hits[s], mean / 2.5) << "shard " << s << " starved";
    EXPECT_LT(hits[s], mean * 2.5) << "shard " << s << " overloaded";
  }
}

TEST(ConsistentHashRing, AddingShardRemapsOnlyToTheNewShard) {
  serve::ConsistentHashRing before(64);
  serve::ConsistentHashRing after(64);
  for (std::size_t s = 0; s < 4; ++s) {
    before.add_shard(s);
    after.add_shard(s);
  }
  after.add_shard(4);

  const std::size_t keys = 10'000;
  std::size_t moved = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    const std::size_t a = before.shard_for(k);
    const std::size_t b = after.shard_for(k);
    if (a != b) {
      // A key may only move TO the new shard — everything else is owned
      // by the same vnode arc it was owned by before.
      EXPECT_EQ(b, 4u) << "key " << k << " moved " << a << "->" << b;
      ++moved;
    }
  }
  // Expected share of the new shard is 1/5 of the keys; minimal remap
  // means the moved fraction is near that, not near 1.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys * 2 / 5);
}

TEST(ConsistentHashRing, RemovingShardStrandsOnlyItsKeys) {
  serve::ConsistentHashRing before(64);
  serve::ConsistentHashRing after(64);
  for (std::size_t s = 0; s < 5; ++s) {
    before.add_shard(s);
    after.add_shard(s);
  }
  after.remove_shard(2);
  EXPECT_EQ(after.num_shards(), 4u);

  const std::size_t keys = 10'000;
  for (std::size_t k = 0; k < keys; ++k) {
    const std::size_t a = before.shard_for(k);
    const std::size_t b = after.shard_for(k);
    if (a != 2) {
      // Keys not owned by the removed shard must not move at all.
      EXPECT_EQ(a, b) << "key " << k;
    } else {
      EXPECT_NE(b, 2u) << "key " << k << " still on removed shard";
    }
  }
}

TEST(ConsistentHashRing, PreferenceOrderStartsAtOwnerAndCoversAllShards) {
  serve::ConsistentHashRing ring(32);
  for (std::size_t s = 0; s < 6; ++s) ring.add_shard(s);
  for (std::uint64_t key = 0; key < 500; ++key) {
    const std::vector<std::size_t> order = ring.preference_order(key);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order.front(), ring.shard_for(key));
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t s = 0; s < 6; ++s) EXPECT_EQ(sorted[s], s);
  }
}

// ---------------------------------------------------------------------
// Router backpressure: typed kQueueFull, retry-on-next-shard
// ---------------------------------------------------------------------

/// Saturate the primary shard for `id`: one heavy blocker occupying its
/// scheduler plus queue_capacity queued requests behind it. Returns the
/// admitted futures.
std::vector<std::future<serve::CreditRiskResult>> saturate_primary(
    serve::ShardedSamplingServer& cluster, serve::RequestId id,
    std::uint64_t heavy_scenarios) {
  serve::CreditRiskRequest req;
  req.id = id;
  req.portfolio = test_portfolio();
  req.num_scenarios = heavy_scenarios;

  std::vector<std::future<serve::CreditRiskResult>> futures;
  futures.push_back(cluster.submit(req));

  // Wait for a shared worker to claim the blocker; from here it is busy
  // for a long while, and with one worker (the callers pin
  // set_thread_count(1)) everything below queues behind it.
  serve::SamplingServer& primary =
      cluster.shard(cluster.placement_order(id)[0]);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (primary.queue_depth() != 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "blocker never dispatched";
      return futures;
    }
    std::this_thread::yield();
  }
  for (std::size_t i = 0; i < cluster.config().shard.queue_capacity; ++i) {
    futures.push_back(cluster.submit(req));
  }
  return futures;
}

serve::ClusterConfig backpressure_config(bool steal) {
  serve::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.steal = steal;
  cfg.shard.queue_capacity = 2;
  cfg.shard.batching = false;  // the blocker must occupy the shard alone
  return cfg;
}

TEST(ClusterBackpressure, FullShardReturnsTypedQueueFullWithoutStealing) {
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  serve::ShardedSamplingServer cluster(backpressure_config(false));

  const serve::RequestId id = 77;
  auto futures = saturate_primary(cluster, id, 20'000);

  serve::CreditRiskRequest overflow;
  overflow.id = id;
  overflow.portfolio = test_portfolio();
  overflow.num_scenarios = 20'000;
  std::future<serve::CreditRiskResult> f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(cluster.try_submit(overflow, &f), serve::ServeStatus::kQueueFull);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Rejected fast and typed — the router never blocks the caller.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);

  const serve::ClusterSnapshot snap = cluster.metrics();
  EXPECT_EQ(snap.rejected_full, 1u);
  EXPECT_EQ(snap.stolen, 0u);
  EXPECT_EQ(snap.admitted, futures.size());

  // No silent drop: every admitted future is fulfilled with a real
  // result, and — same id, same seed — all results are byte-identical.
  const serve::CreditRiskResult first = futures[0].get();
  for (std::size_t i = 1; i < futures.size(); ++i) {
    const serve::CreditRiskResult r = futures[i].get();
    EXPECT_EQ(r.mean, first.mean);
    EXPECT_EQ(r.var999, first.var999);
  }
}

TEST(ClusterBackpressure, StealRetriesNextShardWhenPrimaryIsFull) {
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  serve::ShardedSamplingServer cluster(backpressure_config(true));

  const serve::RequestId id = 77;
  auto futures = saturate_primary(cluster, id, 20'000);
  const std::vector<std::size_t> order = cluster.placement_order(id);

  serve::CreditRiskRequest overflow;
  overflow.id = id;
  overflow.portfolio = test_portfolio();
  overflow.num_scenarios = 20'000;
  std::future<serve::CreditRiskResult> stolen_future;
  // Primary full -> retry-on-next-shard admits on the secondary.
  ASSERT_EQ(cluster.try_submit(overflow, &stolen_future),
            serve::ServeStatus::kAdmitted);

  const serve::ClusterSnapshot snap = cluster.metrics();
  EXPECT_EQ(snap.stolen, 1u);
  EXPECT_EQ(snap.rejected_full, 0u);
  EXPECT_EQ(snap.shards[order[1]].stolen_in, 1u);
  EXPECT_EQ(snap.shards[order[1]].routed_primary, 0u);

  // The stolen response is byte-identical to the primary's — placement
  // is invisible in the bytes.
  const serve::CreditRiskResult primary_result = futures[0].get();
  const serve::CreditRiskResult stolen_result = stolen_future.get();
  EXPECT_EQ(stolen_result.mean, primary_result.mean);
  EXPECT_EQ(stolen_result.variance, primary_result.variance);
  EXPECT_EQ(stolen_result.var95, primary_result.var95);
  EXPECT_EQ(stolen_result.var999, primary_result.var999);
  EXPECT_EQ(stolen_result.es999, primary_result.es999);
  for (std::size_t i = 1; i < futures.size(); ++i) futures[i].get();
}

TEST(ClusterRouting, LeastLoadedPrefersTheIdleShard) {
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  serve::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.policy = serve::RouterPolicy::kLeastLoaded;
  cfg.shard.queue_capacity = 8;
  cfg.shard.batching = false;
  serve::ShardedSamplingServer cluster(cfg);

  serve::CreditRiskRequest heavy;
  heavy.id = 1;
  heavy.portfolio = test_portfolio();
  heavy.num_scenarios = 20'000;

  // Empty cluster: depths tie, lowest index wins.
  EXPECT_EQ(cluster.placement_order(1)[0], 0u);
  auto blocker = cluster.submit(heavy);  // -> shard 0
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cluster.shard(0).queue_depth() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  auto queued = cluster.submit(heavy);  // -> shard 0, stays queued
  // Shard 0 now has queued work; the next placement prefers shard 1.
  EXPECT_EQ(cluster.placement_order(2)[0], 1u);
  blocker.get();
  queued.get();
}

TEST(ClusterLifecycle, ShutdownDrainsAllShardsAndRejectsLate) {
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  serve::ClusterConfig cfg;
  cfg.num_shards = 4;
  serve::ShardedSamplingServer cluster(cfg);

  std::vector<std::future<serve::GammaResult>> futures;
  for (std::uint64_t i = 0; i < 16; ++i) {
    serve::GammaRequest req;
    req.id = i + 1;
    req.count = 64;
    futures.push_back(cluster.submit(req));
  }
  cluster.shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::GammaResult r = futures[i].get();
    EXPECT_EQ(r.id, i + 1);
    EXPECT_EQ(r.samples.size(), 64u);
  }
  serve::GammaRequest late;
  late.id = 999;
  late.count = 8;
  std::future<serve::GammaResult> f;
  EXPECT_EQ(cluster.try_submit(late, &f),
            serve::ServeStatus::kShuttingDown);
  EXPECT_EQ(cluster.metrics().rejected_shutdown, 1u);
}

TEST(ClusterLifecycle, OneSharedWorkerCompletesWorkOnEveryShard) {
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  serve::ClusterConfig cfg;
  cfg.num_shards = 4;
  serve::ShardedSamplingServer cluster(cfg);

  std::vector<std::future<serve::GammaResult>> futures;
  for (std::uint64_t i = 0; i < 64; ++i) {
    serve::GammaRequest req;
    req.id = i + 1;
    req.count = 32;
    futures.push_back(cluster.submit(req));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().samples.size(), 32u);
  const serve::ClusterSnapshot snap = cluster.metrics();
  ASSERT_EQ(snap.shards.size(), 4u);
  std::uint64_t completed = 0;
  for (const serve::ShardSnapshot& s : snap.shards) {
    EXPECT_GT(s.metrics.completed, 0u) << "a shard was never drained";
    completed += s.metrics.completed;
  }
  EXPECT_EQ(completed, futures.size());
}

TEST(ClusterValidation, InvalidRequestRejectsThroughRouter) {
  serve::ShardedSamplingServer cluster{serve::ClusterConfig{}};
  serve::GammaRequest bad;
  bad.id = 1;
  bad.count = 0;  // invalid
  std::future<serve::GammaResult> f;
  EXPECT_EQ(cluster.try_submit(bad, &f), serve::ServeStatus::kInvalidRequest);
  EXPECT_EQ(cluster.metrics().rejected_invalid, 1u);
  EXPECT_EQ(cluster.metrics().admitted, 0u);
}

// ---------------------------------------------------------------------
// Offline reproduction at cluster scope (Philox::seek)
// ---------------------------------------------------------------------

TEST(ClusterOfflineReproduction, SeekRecomputesServedResponsesByteExact) {
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  serve::ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.shard.server_seed = 42;
  serve::ShardedSamplingServer cluster(cfg);

  serve::GammaRequest greq;
  greq.id = 31337;
  greq.alpha = 1.5f;
  greq.scale = 2.0f;
  greq.count = 500;
  const serve::GammaResult served_gamma = cluster.run(greq);

  serve::CreditRiskRequest creq;
  creq.id = 424242;
  creq.portfolio = test_portfolio();
  creq.num_scenarios = 200;
  const serve::CreditRiskResult served_credit = cluster.run(creq);
  cluster.shutdown();

  // Gamma: rebuild the request's uniform tape from scratch — a fresh
  // Philox seeked to the request's substream base, no cluster state.
  {
    rng::Philox px(cfg.shard.server_seed);
    px.seek(greq.id * cfg.shard.substreams_per_request *
            cfg.shard.substream_stride);
    rng::GammaSampler sampler(
        rng::GammaConstants::make(greq.alpha, greq.scale), greq.transform);
    std::vector<float> expect(greq.count);
    sampler.sample_block(px, expect.data(), expect.size());
    EXPECT_EQ(served_gamma.samples, expect);
    EXPECT_EQ(served_gamma.attempts, sampler.attempts());
  }

  // CreditRisk+: recompute the full response on the cluster's stream
  // accessors (shard-independent by construction).
  {
    const finance::Portfolio& portfolio = *creq.portfolio;
    struct SectorStream {
      rng::GammaSampler sampler;
      rng::Philox px;
    };
    std::vector<SectorStream> streams;
    for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
      streams.push_back(SectorStream{
          rng::GammaSampler(rng::GammaConstants::from_sector_variance(
                                static_cast<float>(
                                    portfolio.sectors()[k].variance)),
                            rng::NormalTransform::kMarsagliaBray),
          cluster.sector_stream(creq.id, k)});
    }
    const finance::GammaSource source =
        [&streams](std::uint64_t, std::size_t sector) -> double {
      SectorStream& s = streams[sector];
      return static_cast<double>(
          s.sampler.sample([&s] { return s.px.next(); }));
    };
    finance::McConfig mc;
    mc.num_scenarios = creq.num_scenarios;
    mc.seed = cluster.poisson_seed(creq.id);
    const finance::LossDistribution dist =
        finance::simulate_losses(portfolio, mc, source);
    EXPECT_EQ(served_credit.mean, dist.mean());
    EXPECT_EQ(served_credit.variance, dist.variance());
    EXPECT_EQ(served_credit.var95, dist.value_at_risk(0.95));
    EXPECT_EQ(served_credit.var999, dist.value_at_risk(0.999));
    EXPECT_EQ(served_credit.es999, dist.expected_shortfall(0.999));
  }
}

// ---------------------------------------------------------------------
// Shard backends
// ---------------------------------------------------------------------

TEST(ShardBackend, FreshDevicePerShardAccumulatesModeledTime) {
  auto fpga = minicl::make_shard_backend(minicl::BackendKind::kFpga, 0);
  auto cpu = minicl::make_shard_backend(minicl::BackendKind::kCpu, 1);
  EXPECT_NE(fpga->name(), cpu->name());
  EXPECT_EQ(fpga->modeled_launches(), 0u);

  fpga->account(4096, 1.39f);
  const double once = fpga->modeled_busy_seconds();
  EXPECT_GT(once, 0.0);
  fpga->account(4096, 1.39f);  // memoized shape: same time again
  EXPECT_EQ(fpga->modeled_launches(), 2u);
  EXPECT_DOUBLE_EQ(fpga->modeled_busy_seconds(), 2.0 * once);

  cpu->account(4096, 1.39f);
  EXPECT_GT(cpu->modeled_busy_seconds(), 0.0);
  // Independent instances: the FPGA's account is untouched.
  EXPECT_DOUBLE_EQ(fpga->modeled_busy_seconds(), 2.0 * once);
}

TEST(ShardBackend, EstimateSecondsPricesWithoutAccounting) {
  auto backend = minicl::make_shard_backend(minicl::BackendKind::kFpga, 0);
  const double est = backend->estimate_seconds(4096, 1.39f);
  EXPECT_GT(est, 0.0);
  // Pure pricing: the capacity planner must be able to ask "how fast is
  // this device" without polluting the shard's busy-time ledger.
  EXPECT_EQ(backend->modeled_launches(), 0u);
  EXPECT_DOUBLE_EQ(backend->modeled_busy_seconds(), 0.0);
  // And it must agree with what account() would have charged.
  backend->account(4096, 1.39f);
  EXPECT_DOUBLE_EQ(backend->modeled_busy_seconds(), est);
}

// ---------------------------------------------------------------------
// Capacity-derived admission + response cache at cluster scope
// ---------------------------------------------------------------------

TEST(ClusterDeterminism, CapacityPlansAndCacheCannotMoveBits) {
  // The tuning-on cluster derives per-shard admission bounds from
  // heterogeneous capacity plans AND serves repeats from the per-shard
  // response cache; every response must stay bit-identical to the
  // constants-only, cache-off cluster.
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  const auto items = mixed_request_set();

  serve::ClusterConfig plain;
  plain.num_shards = 4;
  ServedResults reference;
  {
    serve::ShardedSamplingServer cluster(plain);
    reference = serve_set(cluster, items);
  }

  serve::ClusterConfig tuned = plain;
  tuned.shard.response_cache_entries = 64;
  serve::CapacityPlan fast, slow;
  fast.modeled_rps = 20000.0;
  fast.device = "fast-device";
  slow.modeled_rps = 5000.0;
  slow.device = "slow-device";
  tuned.shard_capacity = {fast, slow};  // cycled across the 4 shards
  serve::ShardedSamplingServer cluster(tuned);
  // Per-shard bounds really did diverge by plan before any traffic.
  EXPECT_EQ(cluster.shard(0).config().queue_capacity, 1000u);
  EXPECT_EQ(cluster.shard(1).config().queue_capacity, 250u);
  EXPECT_EQ(cluster.shard(2).config().queue_capacity, 1000u);

  const ServedResults first = serve_set(cluster, items);
  const ServedResults repeat = serve_set(cluster, items);  // cache hits
  expect_identical(reference, first, items);
  expect_identical(reference, repeat, items);

  std::uint64_t hits = 0;
  const serve::ClusterSnapshot snap = cluster.metrics();
  for (const serve::ShardSnapshot& shard : snap.shards) {
    hits += shard.metrics.cache_hits;
  }
  EXPECT_EQ(hits, items.size());  // the whole second pass was served hot
}

TEST(ClusterCache, HitSkipsTheModeledDeviceAccount) {
  // A cached answer never reaches the device, so the router must not
  // charge the shard's modeled-occupancy ledger for it.
  serve::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.response_cache_entries = 16;
  serve::ShardedSamplingServer cluster(cfg);

  serve::GammaRequest req;
  req.id = 99;
  req.alpha = 1.39f;
  req.scale = 1.0f;
  req.count = 129;
  (void)cluster.run(req);

  const auto launches = [&] {
    std::uint64_t total = 0;
    for (const auto& shard : cluster.metrics().shards) {
      total += shard.modeled_launches;
    }
    return total;
  };
  const std::uint64_t after_first = launches();
  EXPECT_EQ(after_first, 1u);

  (void)cluster.run(req);  // served from the shard's cache
  EXPECT_EQ(launches(), after_first);
  const serve::ClusterSnapshot snap = cluster.metrics();
  EXPECT_EQ(snap.submitted, 2u);
  std::uint64_t hits = 0;
  for (const auto& shard : snap.shards) hits += shard.metrics.cache_hits;
  EXPECT_EQ(hits, 1u);
}

}  // namespace
}  // namespace dwi
