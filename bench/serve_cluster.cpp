// Sharded-cluster load generator: cross-shard determinism and modeled
// multi-device capacity of the serve/cluster ShardedSamplingServer.
//
// Two phases:
//   1. Cross-shard determinism fingerprints — one fixed request set is
//      served through clusters of {1, 2, 4, 8} shards, under both
//      routing policies and stealing on and off; per-request results
//      must be bit-identical in every cell (the cluster determinism
//      contract, pinned by tests/test_cluster.cpp). Any divergence
//      fails the bench (exit 1) and trips compare_bench.py via
//      cross_shard_identical=false.
//   2. Open-loop shard sweep — per --shards entry, a pacer offers the
//      whole set at --rate req/s to an S-shard cluster of simulated
//      FPGAs. Every admitted request is mirrored onto its shard's
//      modeled device timeline (minicl::ShardBackend), and the sweep's
//      headline metric is the modeled aggregate capacity
//          throughput_rps = admitted / busiest-shard modeled seconds
//      — the multi-device scaling signal (host wall time on the CI
//      box measures one CPU serving all shards and is reported as
//      context only). The modeled metric is deterministic: same
//      placement, same simulated devices, same number on any host.
//      compare_bench.py polices these entries against
//      bench/baselines/serve_cluster.json; scaling_1_to_4 summarizes
//      the 1 -> 4 shard capacity ratio.
//   3. Measured host capacity, beside the modeled one — per --shards
//      entry, a fresh S-shard cluster serves the set kCapacityPasses
//      times to a closed loop of 2 x threads clients (each keeps one
//      request in flight, so the shared workers never idle):
//          host_capacity_rps = completed / host wall seconds.
//      It depends on the host and is not policed; host_scaling_1_to_4
//      is its 1 -> 4 shard ratio.
//
// Emits BENCH_serve_cluster.json (schema: docs/SERVE.md).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "common/table.h"
#include "exec/thread_pool.h"
#include "finance/portfolio.h"
#include "serve/cluster.h"

namespace {

using namespace dwi;

struct RequestItem {
  bool is_gamma = true;
  serve::GammaRequest gamma;
  serve::CreditRiskRequest credit;
};

struct LoadSpec {
  std::size_t requests = 256;
  std::uint32_t samples = 1024;    ///< gamma variates per request
  double open_loop_rate = 4000.0;  ///< offered req/s
  std::vector<unsigned> shards = {1, 2, 4, 8};
  std::uint32_t seed = 1;
};

/// Closed-loop passes over the set per host-capacity point: 2048
/// requests at the default set size, ~0.2 s on a 4-core host.
constexpr unsigned kCapacityPasses = 8;

std::vector<RequestItem> build_request_set(
    const LoadSpec& spec,
    const std::shared_ptr<const finance::Portfolio>& portfolio) {
  const float alphas[4] = {0.72f, 1.5f, 2.47f, 5.0f};
  std::vector<RequestItem> items;
  items.reserve(spec.requests);
  for (std::size_t i = 0; i < spec.requests; ++i) {
    RequestItem item;
    if (i % 8 == 7) {
      item.is_gamma = false;
      item.credit.id = i + 1;
      item.credit.portfolio = portfolio;
      item.credit.num_scenarios = 256;
    } else {
      item.is_gamma = true;
      item.gamma.id = i + 1;
      item.gamma.alpha = alphas[i % 4];
      item.gamma.scale = 1.0f;
      item.gamma.count = spec.samples;
    }
    items.push_back(item);
  }
  return items;
}

std::uint64_t fnv_mix(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Serve the whole set through the cluster, then fingerprint every
/// result in set order so the hash is independent of completion
/// interleaving and of WHERE each request was computed.
std::uint64_t run_set_fingerprint(serve::ShardedSamplingServer& cluster,
                                  const std::vector<RequestItem>& items) {
  std::vector<std::future<serve::GammaResult>> gamma_futures(items.size());
  std::vector<std::future<serve::CreditRiskResult>> credit_futures(
      items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].is_gamma) {
      gamma_futures[i] = cluster.submit(items[i].gamma);
    } else {
      credit_futures[i] = cluster.submit(items[i].credit);
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].is_gamma) {
      const serve::GammaResult r = gamma_futures[i].get();
      h = fnv_mix(h, &r.id, sizeof r.id);
      h = fnv_mix(h, r.samples.data(), r.samples.size() * sizeof(float));
      h = fnv_mix(h, &r.attempts, sizeof r.attempts);
    } else {
      const serve::CreditRiskResult r = credit_futures[i].get();
      h = fnv_mix(h, &r.id, sizeof r.id);
      const double stats[5] = {r.mean, r.variance, r.var95, r.var999,
                               r.es999};
      h = fnv_mix(h, stats, sizeof stats);
    }
  }
  return h;
}

/// Closed loop at saturation: `clients` threads each keep one request
/// in flight, cycling through their share of the set kCapacityPasses
/// times. Returns completed requests per host wall second.
double measure_host_capacity(serve::ShardedSamplingServer& cluster,
                             const std::vector<RequestItem>& items,
                             unsigned clients) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (unsigned p = 0; p < kCapacityPasses; ++p) {
        for (std::size_t i = c; i < items.size(); i += clients) {
          if (items[i].is_gamma) {
            (void)cluster.run(items[i].gamma);
          } else {
            (void)cluster.run(items[i].credit);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return static_cast<double>(items.size() * kCapacityPasses) / wall;
}

serve::ClusterConfig cluster_config(const LoadSpec& spec,
                                    std::size_t shards) {
  serve::ClusterConfig cfg;
  cfg.num_shards = shards;
  cfg.shard.server_seed = spec.seed;
  // The sweep's capacity metric wants every offered request admitted:
  // size each shard's queue for the worst case (everything on one).
  cfg.shard.queue_capacity = spec.requests + 1;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> extra;
  const auto args = bench::parse_bench_args(
      argc, argv, "serve_cluster", "BENCH_serve_cluster.json",
      "[--requests=N] [--samples=N] [--rate=RPS] [--shards=1,2,4,8]",
      &extra);
  if (!args) return 2;

  LoadSpec spec;
  spec.seed = static_cast<std::uint32_t>(args->seed);
  for (const std::string& arg : extra) {
    if (arg.rfind("--requests=", 0) == 0) {
      spec.requests = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 11, nullptr, 10));
    } else if (arg.rfind("--samples=", 0) == 0) {
      spec.samples = static_cast<std::uint32_t>(
          std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--rate=", 0) == 0) {
      spec.open_loop_rate = std::strtod(arg.c_str() + 7, nullptr);
    } else if (arg.rfind("--shards=", 0) == 0) {
      spec.shards = bench::parse_uint_list(
          std::string_view(arg).substr(9));
    } else {
      std::cerr << "serve_cluster: unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (spec.requests < 16 || spec.samples == 0 || spec.shards.empty() ||
      !(spec.open_loop_rate > 0.0)) {
    std::cerr << "serve_cluster: need requests>=16, samples>0, "
                 "shards non-empty, rate>0\n";
    return 2;
  }

  const auto portfolio = std::make_shared<const finance::Portfolio>(
      finance::Portfolio::synthetic(
          48, {{1.39, "representative"}, {0.8, "stable"}}, spec.seed));
  const std::vector<RequestItem> items = build_request_set(spec, portfolio);
  const unsigned max_threads =
      *std::max_element(args->threads.begin(), args->threads.end());
  exec::set_thread_count(max_threads);

  std::cout << "seed: " << spec.seed << "\n";
  std::cout << "request set: " << items.size() << " requests ("
            << items.size() - items.size() / 8 << " gamma x "
            << spec.samples << " samples, " << items.size() / 8
            << " CreditRisk+ x 256 scenarios)\n";

  // ==== Phase 1: cross-shard determinism fingerprints =================
  struct Cell {
    const char* name;
    std::size_t shards;
    serve::RouterPolicy policy;
    bool steal;
  };
  const Cell cells[] = {
      {"1 shard, hash, steal", 1, serve::RouterPolicy::kConsistentHash, true},
      {"2 shards, hash, steal", 2, serve::RouterPolicy::kConsistentHash, true},
      {"4 shards, hash, steal", 4, serve::RouterPolicy::kConsistentHash, true},
      {"8 shards, hash, steal", 8, serve::RouterPolicy::kConsistentHash, true},
      {"4 shards, least-loaded", 4, serve::RouterPolicy::kLeastLoaded, true},
      {"4 shards, hash, no steal", 4, serve::RouterPolicy::kConsistentHash,
       false},
  };
  constexpr std::size_t kCells = sizeof(cells) / sizeof(cells[0]);
  std::uint64_t fingerprints[kCells] = {};
  for (std::size_t c = 0; c < kCells; ++c) {
    serve::ClusterConfig cfg = cluster_config(spec, cells[c].shards);
    cfg.policy = cells[c].policy;
    cfg.steal = cells[c].steal;
    serve::ShardedSamplingServer cluster(cfg);
    fingerprints[c] = run_set_fingerprint(cluster, items);
  }
  bool identical = true;
  std::cout << "\n=== Cross-shard determinism (per-request fingerprints) "
               "===\n";
  for (std::size_t c = 0; c < kCells; ++c) {
    const bool ok = fingerprints[c] == fingerprints[0];
    identical &= ok;
    std::cout << "  " << cells[c].name << ": " << std::hex
              << fingerprints[c] << std::dec << (ok ? "" : "  MISMATCH")
              << "\n";
  }
  std::cout << (identical
                    ? "All cluster topologies produced bit-identical "
                      "results."
                    : "ERROR: responses depend on shard placement!")
            << "\n";

  // ==== Phase 2: open-loop shard sweep ================================
  struct SweepPoint {
    unsigned shards = 0;
    double wall_seconds = 0.0;            ///< host wall (context only)
    double bottleneck_seconds = 0.0;      ///< busiest modeled device
    double total_modeled_seconds = 0.0;   ///< sum over devices
    double throughput_rps = 0.0;          ///< modeled aggregate capacity
    double host_capacity_rps = 0.0;       ///< measured, closed loop
    double max_shard_share = 0.0;         ///< admitted fraction, busiest
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t stolen = 0;
  };
  std::vector<SweepPoint> sweep;
  for (const unsigned shards : spec.shards) {
    serve::ShardedSamplingServer cluster(cluster_config(spec, shards));
    std::vector<std::future<serve::GammaResult>> gfs;
    std::vector<std::future<serve::CreditRiskResult>> cfs;
    gfs.reserve(items.size());
    cfs.reserve(items.size());
    std::uint64_t rejected = 0;
    const auto period = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / spec.open_loop_rate));
    const auto t0 = std::chrono::steady_clock::now();
    auto next_arrival = t0;
    for (const RequestItem& item : items) {
      std::this_thread::sleep_until(next_arrival);
      next_arrival += period;
      if (item.is_gamma) {
        std::future<serve::GammaResult> f;
        if (cluster.try_submit(item.gamma, &f) ==
            serve::ServeStatus::kAdmitted) {
          gfs.push_back(std::move(f));
        } else {
          ++rejected;
        }
      } else {
        std::future<serve::CreditRiskResult> f;
        if (cluster.try_submit(item.credit, &f) ==
            serve::ServeStatus::kAdmitted) {
          cfs.push_back(std::move(f));
        } else {
          ++rejected;
        }
      }
    }
    for (auto& f : gfs) (void)f.get();
    for (auto& f : cfs) (void)f.get();
    const auto t1 = std::chrono::steady_clock::now();

    const serve::ClusterSnapshot snap = cluster.metrics();
    SweepPoint p;
    p.shards = shards;
    p.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    p.bottleneck_seconds = snap.bottleneck_modeled_seconds();
    p.admitted = snap.admitted;
    p.rejected = rejected;
    p.stolen = snap.stolen;
    std::uint64_t busiest = 0;
    for (const serve::ShardSnapshot& s : snap.shards) {
      p.total_modeled_seconds += s.modeled_busy_seconds;
      busiest = std::max(busiest, s.routed_primary + s.stolen_in);
    }
    p.max_shard_share = snap.admitted > 0
                            ? static_cast<double>(busiest) /
                                  static_cast<double>(snap.admitted)
                            : 0.0;
    p.throughput_rps = p.bottleneck_seconds > 0.0
                           ? static_cast<double>(p.admitted) /
                                 p.bottleneck_seconds
                           : 0.0;
    {
      serve::ShardedSamplingServer closed(cluster_config(spec, shards));
      p.host_capacity_rps =
          measure_host_capacity(closed, items, 2 * max_threads);
    }
    sweep.push_back(p);
  }
  exec::set_thread_count(0);  // back to the environment default

  std::cout << "\n=== Open-loop shard sweep (offered "
            << spec.open_loop_rate << " req/s, modeled FPGA shards) ===\n";
  {
    TextTable t;
    t.set_header({"Shards", "Admitted", "Stolen", "Max share",
                  "Bottleneck [s]", "Capacity [req/s]", "Host wall [s]",
                  "Host capacity [req/s]"});
    for (const auto& p : sweep) {
      t.add_row({TextTable::integer(p.shards),
                 TextTable::integer(static_cast<long long>(p.admitted)),
                 TextTable::integer(static_cast<long long>(p.stolen)),
                 TextTable::num(p.max_shard_share, 2),
                 TextTable::num(p.bottleneck_seconds, 4),
                 TextTable::num(p.throughput_rps, 0),
                 TextTable::num(p.wall_seconds, 3),
                 TextTable::num(p.host_capacity_rps, 0)});
    }
    t.render(std::cout);
  }

  double scaling_1_to_4 = 0.0;
  double host_scaling_1_to_4 = 0.0;
  {
    const SweepPoint* one = nullptr;
    const SweepPoint* four = nullptr;
    for (const auto& p : sweep) {
      if (p.shards == 1) one = &p;
      if (p.shards == 4) four = &p;
    }
    if (one && four && one->throughput_rps > 0.0) {
      scaling_1_to_4 = four->throughput_rps / one->throughput_rps;
      std::cout << "Modeled capacity scaling 1 -> 4 shards: "
                << TextTable::num(scaling_1_to_4, 2) << "x\n";
    }
    if (one && four && one->host_capacity_rps > 0.0) {
      host_scaling_1_to_4 = four->host_capacity_rps / one->host_capacity_rps;
      std::cout << "Measured host capacity scaling 1 -> 4 shards ("
                << 2 * max_threads << " closed-loop clients): "
                << TextTable::num(host_scaling_1_to_4, 2) << "x\n";
    }
  }

  // ==== Artifact ======================================================
  if (auto jf = bench::open_bench_json(args->json_path)) {
    bench::JsonWriter j(jf);
    j.begin_object();
    bench::write_bench_header(j, "serve_cluster", args->seed);
    j.kv("requests", static_cast<std::uint64_t>(items.size()));
    j.kv("gamma_samples_per_request", spec.samples);
    j.kv("offered_rps", spec.open_loop_rate);
    j.kv("closed_loop_clients", 2 * max_threads);
    j.kv("closed_loop_passes", kCapacityPasses);
    j.kv("cross_shard_identical", identical);
    j.key("sweep").begin_array();
    for (const auto& p : sweep) {
      j.begin_object();
      j.kv("shards", p.shards);
      j.kv("wall_seconds", p.wall_seconds);
      j.kv("modeled_bottleneck_seconds", p.bottleneck_seconds);
      j.kv("modeled_total_seconds", p.total_modeled_seconds);
      j.kv("throughput_rps", p.throughput_rps);
      j.kv("host_capacity_rps", p.host_capacity_rps);
      j.kv("max_shard_share", p.max_shard_share);
      j.kv("admitted", p.admitted);
      j.kv("rejected_queue_full", p.rejected);
      j.kv("stolen", p.stolen);
      j.end_object();
    }
    j.end_array();
    j.kv("scaling_1_to_4", scaling_1_to_4);
    j.kv("host_scaling_1_to_4", host_scaling_1_to_4);
    j.end_object();
    jf << "\n";
    std::cout << "Wrote " << args->json_path << "\n";
  }
  return identical ? 0 : 1;
}
