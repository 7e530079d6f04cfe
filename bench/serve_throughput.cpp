// Serving-layer load generator: latency/throughput of the
// src/serve SamplingServer under closed-loop and open-loop traffic.
//
// Three phases:
//   1. Determinism matrix — one fixed request set (mixed gamma +
//      CreditRisk+) is served under serial/parallel, batching on/off,
//      natural/shuffled submission order; per-request results must be
//      bit-identical in every cell (the serving determinism contract,
//      also pinned by tests/test_serve.cpp). Any divergence fails the
//      bench (exit 1) and trips compare_bench.py via
//      identical_across_threads=false.
//   2. Closed loop — per --threads entry, C client threads submit the
//      set synchronously back-to-back; wall time gives req/s, server
//      metrics give admission→completion p50/p95/p99. These are the
//      "sweep" entries the perf-regression CI job polices against
//      bench/baselines/serve_throughput.json.
//   3. Open loop — a single pacer offers requests at a fixed arrival
//      rate (--rate) regardless of completions; overload shows up as
//      typed queue-full rejections, never as a blocked client.
//
// Emits BENCH_serve.json (schema: docs/SERVE.md) via bench/bench_json.h.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "common/table.h"
#include "exec/thread_pool.h"
#include "finance/portfolio.h"
#include "serve/sampling_server.h"

namespace {

using namespace dwi;

struct RequestItem {
  bool is_gamma = true;
  serve::GammaRequest gamma;
  serve::CreditRiskRequest credit;
};

struct LoadSpec {
  std::size_t requests = 384;
  std::uint32_t samples = 2048;     ///< gamma variates per request
  double open_loop_rate = 4000.0;   ///< offered req/s
  unsigned clients = 4;             ///< closed-loop client threads
  std::uint32_t seed = 1;
};

/// The fixed request mix: seven gamma batches (shapes cycling through
/// the paper's CreditRisk+ regime and heavier tails) per CreditRisk+
/// portfolio job.
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

/// Serve the whole set (submission order given by `order`), then
/// fingerprint every result in ascending-id order so the hash is
/// independent of completion interleaving.
std::uint64_t run_set_fingerprint(serve::SamplingServer& server,
                                  const std::vector<RequestItem>& items,
                                  const std::vector<std::size_t>& order) {
  std::vector<std::future<serve::GammaResult>> gamma_futures(items.size());
  std::vector<std::future<serve::CreditRiskResult>> credit_futures(
      items.size());
  for (const std::size_t i : order) {
    if (items[i].is_gamma) {
      gamma_futures[i] = server.submit(items[i].gamma);
    } else {
      credit_futures[i] = server.submit(items[i].credit);
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

serve::ServeConfig server_config(const LoadSpec& spec, bool batching) {
  serve::ServeConfig cfg;
  cfg.server_seed = spec.seed;
  cfg.batching = batching;
  // Determinism runs submit the whole set before draining; size the
  // queue for it so admission never rejects in that phase.
  cfg.queue_capacity = spec.requests + 1;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> extra;
  const auto args = bench::parse_bench_args(
      argc, argv, "serve_throughput", "BENCH_serve.json",
      "[--requests=N] [--samples=N] [--rate=RPS] [--clients=C]", &extra);
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
    } else if (arg.rfind("--clients=", 0) == 0) {
      spec.clients = static_cast<unsigned>(
          std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else {
      std::cerr << "serve_throughput: unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (spec.requests < 8 || spec.samples == 0 || spec.clients == 0 ||
      !(spec.open_loop_rate > 0.0)) {
    std::cerr << "serve_throughput: need requests>=8, samples>0, "
                 "clients>0, rate>0\n";
    return 2;
  }

  const auto portfolio = std::make_shared<const finance::Portfolio>(
      finance::Portfolio::synthetic(
          48, {{1.39, "representative"}, {0.8, "stable"}}, spec.seed));
  const std::vector<RequestItem> items = build_request_set(spec, portfolio);
  std::vector<std::size_t> natural(items.size());
  std::iota(natural.begin(), natural.end(), std::size_t{0});
  std::vector<std::size_t> shuffled = natural;
  std::shuffle(shuffled.begin(), shuffled.end(),
               std::mt19937_64(args->seed ^ 0xD1CEull));

  const unsigned max_threads =
      *std::max_element(args->threads.begin(), args->threads.end());

  std::cout << "seed: " << spec.seed << "\n";
  std::cout << "request set: " << items.size() << " requests ("
            << items.size() - items.size() / 8 << " gamma x "
            << spec.samples << " samples, " << items.size() / 8
            << " CreditRisk+ x 256 scenarios)\n";

  // ==== Phase 1: determinism matrix ===================================
  struct Cell {
    const char* name;
    unsigned threads;
    bool batching;
    const std::vector<std::size_t>* order;
  };
  const Cell cells[4] = {
      {"serial, unbatched, natural", 1, false, &natural},
      {"parallel, batched, natural", max_threads, true, &natural},
      {"parallel, batched, shuffled", max_threads, true, &shuffled},
      {"parallel, unbatched, shuffled", max_threads, false, &shuffled},
  };
  std::uint64_t fingerprints[4] = {0, 0, 0, 0};
  for (int c = 0; c < 4; ++c) {
    exec::set_thread_count(cells[c].threads);
    serve::SamplingServer server(server_config(spec, cells[c].batching));
    fingerprints[c] = run_set_fingerprint(server, items, *cells[c].order);
  }
  bool identical = true;
  std::cout << "\n=== Determinism matrix (per-request fingerprints) ===\n";
  for (int c = 0; c < 4; ++c) {
    const bool ok = fingerprints[c] == fingerprints[0];
    identical &= ok;
    std::cout << "  " << cells[c].name << ": " << std::hex
              << fingerprints[c] << std::dec << (ok ? "" : "  MISMATCH")
              << "\n";
  }
  std::cout << (identical
                    ? "All serving schedules produced bit-identical results."
                    : "ERROR: serving results depend on the schedule!")
            << "\n";

  // ==== Phase 2: closed loop per thread count =========================
  struct SweepPoint {
    unsigned threads = 0;
    double wall_seconds = 0.0;
    double throughput_rps = 0.0;
    serve::MetricsSnapshot metrics;
  };
  std::vector<SweepPoint> sweep;
  for (const unsigned threads : args->threads) {
    exec::set_thread_count(threads);
    serve::SamplingServer server(server_config(spec, true));
    const unsigned clients = spec.clients;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        for (std::size_t i = c; i < items.size(); i += clients) {
          if (items[i].is_gamma) {
            (void)server.run(items[i].gamma);
          } else {
            (void)server.run(items[i].credit);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const auto t1 = std::chrono::steady_clock::now();
    SweepPoint p;
    p.threads = threads;
    p.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    p.throughput_rps =
        static_cast<double>(items.size()) / p.wall_seconds;
    p.metrics = server.metrics();
    sweep.push_back(p);
  }

  std::cout << "\n=== Closed loop (" << spec.clients << " clients, "
            << items.size() << " requests) ===\n";
  {
    TextTable t;
    t.set_header({"Threads", "Wall [s]", "Req/s", "p50 [ms]", "p95 [ms]",
                  "p99 [ms]", "Mean batch"});
    for (const auto& p : sweep) {
      t.add_row({TextTable::integer(p.threads),
                 TextTable::num(p.wall_seconds, 3),
                 TextTable::num(p.throughput_rps, 0),
                 TextTable::num(p.metrics.latency.p50_seconds * 1e3, 2),
                 TextTable::num(p.metrics.latency.p95_seconds * 1e3, 2),
                 TextTable::num(p.metrics.latency.p99_seconds * 1e3, 2),
                 TextTable::num(p.metrics.mean_batch_occupancy, 2)});
    }
    t.render(std::cout);
  }

  // ==== Phase 2b: substream derivation ===============================
  // The counter-based serve streams: closed-loop throughput at the
  // widest thread count, determinism across submission orders, and the
  // per-request substream derivation cost (one Philox counter write).
  struct StrategyPoint {
    const char* name = "counter_based";
    double wall_seconds = 0.0;
    double throughput_rps = 0.0;
    double derivation_ns = 0.0;
    bool identical = true;
  };
  StrategyPoint sp;

  // Derivation microcost: serve-realistic spread of request ids.
  {
    serve::SamplingServer server(server_config(spec, true));
    constexpr std::size_t kDerivations = 20'000;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      std::uint32_t sink = 0;
      for (std::size_t i = 0; i < kDerivations; ++i) {
        const serve::RequestId id = (i * 2654435761u) % 1'000'000u;
        rng::Philox px = server.gamma_stream(id);
        sink ^= px.next();
      }
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      best = std::min(best, s / kDerivations * 1e9);
      if (sink == 0xdeadbeefu) std::cout << "";  // defeat DCE
    }
    sp.derivation_ns = best;
  }

  // Closed loop at the widest thread count, plus an order-shuffled
  // fingerprint pass pinning determinism.
  {
    exec::set_thread_count(max_threads);
    const serve::ServeConfig cfg = server_config(spec, true);
    std::uint64_t fp_natural = 0, fp_shuffled = 0;
    {
      serve::SamplingServer server(cfg);
      fp_natural = run_set_fingerprint(server, items, natural);
    }
    {
      serve::SamplingServer server(cfg);
      fp_shuffled = run_set_fingerprint(server, items, shuffled);
    }
    sp.identical = fp_natural == fp_shuffled;
    identical &= sp.identical;

    serve::SamplingServer server(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(spec.clients);
    for (unsigned c = 0; c < spec.clients; ++c) {
      workers.emplace_back([&, c] {
        for (std::size_t i = c; i < items.size(); i += spec.clients) {
          if (items[i].is_gamma) {
            (void)server.run(items[i].gamma);
          } else {
            (void)server.run(items[i].credit);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    sp.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    sp.throughput_rps = static_cast<double>(items.size()) / sp.wall_seconds;
  }

  std::cout << "\n=== Substream derivation (" << max_threads
            << " threads) ===\n";
  {
    TextTable t;
    t.set_header({"Strategy", "Wall [s]", "Req/s", "Derivation [ns]",
                  "Deterministic"});
    t.add_row({sp.name, TextTable::num(sp.wall_seconds, 3),
               TextTable::num(sp.throughput_rps, 0),
               TextTable::num(sp.derivation_ns, 0),
               sp.identical ? "yes" : "NO"});
    t.render(std::cout);
  }

  // ==== Phase 3: open loop at a fixed offered rate ====================
  exec::set_thread_count(max_threads);
  serve::MetricsSnapshot open_metrics;
  std::uint64_t open_submitted = 0, open_admitted = 0, open_rejected = 0;
  double open_wall = 0.0;
  {
    serve::ServeConfig cfg = server_config(spec, true);
    cfg.queue_capacity = 64;  // small on purpose: overload must reject
    serve::SamplingServer server(cfg);
    std::vector<std::future<serve::GammaResult>> gfs;
    std::vector<std::future<serve::CreditRiskResult>> cfs;
    gfs.reserve(items.size());
    cfs.reserve(items.size());
    const auto period = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / spec.open_loop_rate));
    const auto t0 = std::chrono::steady_clock::now();
    auto next_arrival = t0;
    for (const std::size_t i : natural) {
      std::this_thread::sleep_until(next_arrival);
      next_arrival += period;
      ++open_submitted;
      if (items[i].is_gamma) {
        std::future<serve::GammaResult> f;
        if (server.try_submit(items[i].gamma, &f) ==
            serve::ServeStatus::kAdmitted) {
          gfs.push_back(std::move(f));
          ++open_admitted;
        } else {
          ++open_rejected;
        }
      } else {
        std::future<serve::CreditRiskResult> f;
        if (server.try_submit(items[i].credit, &f) ==
            serve::ServeStatus::kAdmitted) {
          cfs.push_back(std::move(f));
          ++open_admitted;
        } else {
          ++open_rejected;
        }
      }
    }
    for (auto& f : gfs) (void)f.get();
    for (auto& f : cfs) (void)f.get();
    const auto t1 = std::chrono::steady_clock::now();
    open_wall = std::chrono::duration<double>(t1 - t0).count();
    open_metrics = server.metrics();
  }
  exec::set_thread_count(0);  // back to the environment default

  std::cout << "\n=== Open loop (offered " << spec.open_loop_rate
            << " req/s, queue capacity 64) ===\n"
            << "  submitted " << open_submitted << ", admitted "
            << open_admitted << ", rejected (queue full) " << open_rejected
            << "\n  achieved "
            << static_cast<double>(open_admitted) / open_wall
            << " req/s, p99 latency "
            << open_metrics.latency.p99_seconds * 1e3 << " ms\n";

  // ==== Artifact ======================================================
  if (auto jf = bench::open_bench_json(args->json_path)) {
    bench::JsonWriter j(jf);
    j.begin_object();
    bench::write_bench_header(j, "serve_throughput", args->seed);
    j.kv("requests", static_cast<std::uint64_t>(items.size()));
    j.kv("gamma_samples_per_request", spec.samples);
    j.kv("clients", spec.clients);
    j.kv("identical_across_threads", identical);
    j.key("sweep").begin_array();
    for (const auto& p : sweep) {
      j.begin_object();
      j.kv("threads", p.threads);
      j.kv("wall_seconds", p.wall_seconds);
      j.kv("throughput_rps", p.throughput_rps);
      j.kv("latency_p50_seconds", p.metrics.latency.p50_seconds);
      j.kv("latency_p95_seconds", p.metrics.latency.p95_seconds);
      j.kv("latency_p99_seconds", p.metrics.latency.p99_seconds);
      j.kv("mean_batch_occupancy", p.metrics.mean_batch_occupancy);
      j.kv("queue_high_water",
           static_cast<std::uint64_t>(p.metrics.queue_high_water));
      j.end_object();
    }
    j.end_array();
    j.key("strategy_sweep").begin_array();
    j.begin_object();
    j.kv("strategy", sp.name);
    j.kv("wall_seconds", sp.wall_seconds);
    j.kv("throughput_rps", sp.throughput_rps);
    j.kv("derivation_ns_per_request", sp.derivation_ns);
    j.kv("order_identical", sp.identical);
    j.end_object();
    j.end_array();
    j.key("open_loop").begin_object();
    j.kv("offered_rps", spec.open_loop_rate);
    j.kv("submitted", open_submitted);
    j.kv("admitted", open_admitted);
    j.kv("rejected_queue_full", open_rejected);
    j.kv("wall_seconds", open_wall);
    j.kv("achieved_rps", static_cast<double>(open_admitted) / open_wall);
    j.kv("latency_p50_seconds", open_metrics.latency.p50_seconds);
    j.kv("latency_p95_seconds", open_metrics.latency.p95_seconds);
    j.kv("latency_p99_seconds", open_metrics.latency.p99_seconds);
    j.end_object();
    j.end_object();
    jf << "\n";
    std::cout << "Wrote " << args->json_path << "\n";
  }
  return identical ? 0 : 1;
}
