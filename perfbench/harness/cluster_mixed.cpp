// Workload `cluster_mixed`: nproc closed-loop clients against a
// 4-shard ShardedSamplingServer with the default router and a response
// cache on every shard. The mix is mostly divergent-kernel zoo requests
// (histogram with hot_fraction 0.5, SpMV, matching) plus CreditRisk+.
// About half the requests repeat one of a small hot set that fits the
// caches; the rest are fresh ids that are computed and inserted.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <optional>
#include <sstream>
#include <thread>

#include "checks.h"
#include "common.h"
#include "serve/cluster.h"

namespace perfbench {
namespace {

namespace serve = dwi::serve;

constexpr std::size_t kShards = 4;
/// Cached responses per request kind per shard: the size the cluster
/// tests give a tuned shard cache.
constexpr std::size_t kCacheEntries = 64;
/// Hot requests, about 4 per kind per shard: every store holds its hot
/// entries with room to spare, and each hot request recurs about every
/// 128 requests, hundreds of times a run. A hot entry is evicted (FIFO)
/// after 64 fresh inserts into its store, about 14 reuses, so the
/// expected cache-hit share is about 0.5 * 13/14 = 0.46.
constexpr std::size_t kHotSet = 64;
constexpr double kHotShare = 0.5;
constexpr std::size_t kWarmupPerKind = 8;
/// Latency slots reserved per second of a window, over all clients:
/// ten times the seed's rate on a 4-core host. Untouched reserved pages
/// do not count in RSS.
constexpr double kReservedRps = 200000.0;

// Id spaces (request_id). Fresh request j of client c of n is counter
// j * n + c, so every client count gets unique ids.
constexpr unsigned kSpaceWarmup = 0;
constexpr unsigned kSpaceHot = 1;
constexpr unsigned kSpaceFresh = 2;

enum class Kind { kHistogram, kSpmv, kMatching, kCreditRisk };

struct Inputs {
  std::uint64_t seed = 1;
  std::shared_ptr<const dwi::finance::Portfolio> portfolio;
};

struct Request {
  Kind kind = Kind::kHistogram;
  std::uint64_t id = 0;
  serve::HistogramRequest histogram;
  serve::SpmvRequest spmv;
  serve::MatchingRequest matching;
  serve::CreditRiskRequest credit;
};

/// Kind shares: one CreditRisk+ job in eight, as in the serve mix
/// (serve_open); the rest split evenly over the three zoo kinds, as the
/// workload_zoo bench's serve phase submits them.
Kind kind_from(std::uint64_t draw) {
  const std::uint64_t d = draw % 24;
  if (d >= 21) return Kind::kCreditRisk;
  return d % 3 == 0 ? Kind::kHistogram : d % 3 == 1 ? Kind::kSpmv : Kind::kMatching;
}

/// Request shapes: the zoo sizes of the workload_zoo bench's serve
/// phase (SpMV rows at the request's default 0-8 nonzeros), the issue's
/// hot_fraction 0.5, and the serve mix's CreditRisk+ job.
Request make_request(const Inputs& in, Kind kind, unsigned space,
                     std::uint64_t counter) {
  Request r;
  r.kind = kind;
  r.id = request_id(in.seed, space, counter);
  switch (kind) {
    case Kind::kHistogram:
      r.histogram.id = r.id;
      r.histogram.num_updates = 2048;
      r.histogram.num_bins = 128;
      r.histogram.hot_fraction = 0.5f;
      break;
    case Kind::kSpmv:
      r.spmv.id = r.id;
      r.spmv.rows = 256;
      break;
    case Kind::kMatching:
      r.matching.id = r.id;
      r.matching.num_vertices = 512;
      r.matching.num_edges = 1024;
      break;
    case Kind::kCreditRisk:
      r.credit.id = r.id;
      r.credit.portfolio = in.portfolio;
      r.credit.num_scenarios = 256;
      break;
  }
  return r;
}

Request hot_request(const Inputs& in, std::size_t h) {
  return make_request(in, kind_from(mix64(in.seed + h)), kSpaceHot, h);
}

void put_stats(Bytes& b, const serve::WorkloadStatsResult& s) {
  put(b, s.cycles);
  put(b, s.initiations);
  put(b, s.hazard_stall_cycles);
  put(b, s.forwarded);
  put(b, s.skipped);
}

/// Structural checks of each kind; the serialized response on success.
std::optional<Bytes> check(const Request& q, const serve::HistogramResult& r) {
  if (r.id != q.id || r.updates != q.histogram.num_updates ||
      r.bins.size() != q.histogram.num_bins) {
    return std::nullopt;
  }
  for (const float v : r.bins) {
    if (!std::isfinite(v) || v < 0.0f) return std::nullopt;
  }
  Bytes b;
  put(b, r.id);
  put_all(b, r.bins);
  put(b, r.updates);
  put_stats(b, r.stats);
  return b;
}

std::optional<Bytes> check(const Request& q, const serve::SpmvResult& r) {
  const std::uint64_t rows = q.spmv.rows;
  if (r.id != q.id || r.y.size() != rows || r.nnz < rows * q.spmv.nnz_per_row_min ||
      r.nnz > rows * q.spmv.nnz_per_row_max) {
    return std::nullopt;
  }
  for (const float v : r.y) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  Bytes b;
  put(b, r.id);
  put_all(b, r.y);
  put(b, r.nnz);
  put_stats(b, r.stats);
  return b;
}

std::optional<Bytes> check(const Request& q, const serve::MatchingResult& r) {
  const std::size_t n = q.matching.num_vertices;
  if (r.id != q.id || r.match.size() != n) return std::nullopt;
  std::uint64_t matched = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::int32_t m = r.match[v];
    if (m < 0) continue;
    const auto u = static_cast<std::size_t>(m);
    if (u >= n || u == v || r.match[u] != static_cast<std::int32_t>(v)) {
      return std::nullopt;
    }
    ++matched;
  }
  if (matched != 2ull * r.pairs) return std::nullopt;
  Bytes b;
  put(b, r.id);
  put_all(b, r.match);
  put(b, r.pairs);
  put(b, r.edges_examined);
  put_stats(b, r.stats);
  return b;
}

std::optional<Bytes> check(const Request& q, const serve::CreditRiskResult& r) {
  if (!credit_risk_ok(q.credit, r)) return std::nullopt;
  return bytes_of(r);
}

/// One request: not admitted, or admitted with its serialized response
/// when it passed its checks (nullopt when it threw or broke an
/// invariant). `done_ns` is when the result was observed, before the
/// checks ran.
struct Outcome {
  bool admitted = false;
  std::optional<Bytes> bytes;
  std::int64_t done_ns = 0;
};

template <typename Req, typename Result>
Outcome submit_and_check(serve::ShardedSamplingServer& cluster, const Request& q,
                         const Req& req) {
  Outcome o;
  std::future<Result> f;
  serve::ServeStatus status;
  {
    ScopedSpan span("cluster.try_submit", q.id);
    status = cluster.try_submit(req, &f);
  }
  const std::int64_t returned = now_ns();
  o.done_ns = returned;
  if (status != serve::ServeStatus::kAdmitted) return o;
  o.admitted = true;
  try {
    const Result r = f.get();
    o.done_ns = now_ns();
    if (Tracer* t = Tracer::active()) t->record("cluster.request", returned, o.done_ns, 0, q.id);
    o.bytes = check(q, r);
  } catch (...) {
    o.done_ns = now_ns();
  }
  return o;
}

/// Submit, wait for and check one request.
Outcome serve_one(serve::ShardedSamplingServer& cluster, const Request& q) {
  switch (q.kind) {
    case Kind::kHistogram:
      return submit_and_check<serve::HistogramRequest, serve::HistogramResult>(
          cluster, q, q.histogram);
    case Kind::kSpmv:
      return submit_and_check<serve::SpmvRequest, serve::SpmvResult>(cluster, q, q.spmv);
    case Kind::kMatching:
      return submit_and_check<serve::MatchingRequest, serve::MatchingResult>(
          cluster, q, q.matching);
    case Kind::kCreditRisk:
      return submit_and_check<serve::CreditRiskRequest, serve::CreditRiskResult>(
          cluster, q, q.credit);
  }
  return {};
}

struct Client {
  /// Latency of each completed request. Kept as float and reserved up
  /// front, so this buffer adds to peak RSS in proportion to the
  /// requests completed, not in steps of reallocation.
  std::vector<float> latency_ms;
  std::int64_t last_done_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t failed = 0;
  std::uint64_t hot_mismatches = 0;
  /// First response seen for each hot request, compared to every later
  /// response of the same request.
  std::vector<std::optional<Bytes>> first;
};

std::unique_ptr<serve::ShardedSamplingServer> make_cluster(const Inputs& in) {
  serve::ClusterConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.response_cache_entries = kCacheEntries;
  auto cluster = std::make_unique<serve::ShardedSamplingServer>(cfg);
  // Warm-up ids are outside the hot set, so no hot entry is cached
  // before timing starts.
  for (std::uint64_t i = 0; i < 4 * kWarmupPerKind; ++i) {
    const Request q = make_request(in, kind_from(i), kSpaceWarmup, i);
    (void)serve_one(*cluster, q);
  }
  return cluster;
}

struct Window {
  std::vector<Client> clients;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  serve::ClusterSnapshot snapshot;

  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const Client& c : clients) n += c.latency_ms.size();
    return n;
  }
  double throughput_rps() const {
    return static_cast<double>(completed()) / seconds_between(start_ns, end_ns);
  }
};

Window closed_loop(serve::ShardedSamplingServer& cluster, const Inputs& in,
                   double seconds) {
  const unsigned n = host_threads();
  Window w;
  w.clients.resize(n);
  for (Client& c : w.clients) {
    c.latency_ms.reserve(static_cast<std::size_t>(seconds * kReservedRps / n));
    c.first.resize(kHotSet);
  }
  w.start_ns = now_ns();
  const std::int64_t deadline = w.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Client& me = w.clients[c];
      SplitMix draws(mix64(in.seed) ^ (0x636c69656e74ull + c));
      for (std::uint64_t j = 0; now_ns() < deadline; ++j) {
        const bool hot = draws.uniform() < kHotShare;
        const std::size_t h = draws.next() % kHotSet;
        const Request q = hot ? hot_request(in, h)
                              : make_request(in, kind_from(draws.next()), kSpaceFresh,
                                             j * n + c);
        if (Tracer::active() != nullptr) {
          ScopedSpan span("cluster.placement_order", q.id);
          (void)cluster.placement_order(q.id);
        }
        ++me.attempted;
        const std::int64_t t0 = now_ns();
        Outcome o;
        try {
          o = serve_one(cluster, q);
        } catch (...) {
          o.admitted = true;  // a throwing submission is a failed request
          o.done_ns = now_ns();
        }
        if (!o.admitted) {
          ++me.refused;
          continue;
        }
        if (!o.bytes) {
          ++me.failed;
          continue;
        }
        me.latency_ms.push_back(static_cast<float>(seconds_between(t0, o.done_ns) * 1e3));
        me.last_done_ns = o.done_ns;
        if (hot) {
          if (!me.first[h]) {
            me.first[h] = std::move(o.bytes);
          } else if (*me.first[h] != *o.bytes) {
            ++me.hot_mismatches;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  w.end_ns = w.start_ns;
  for (const Client& c : w.clients) {
    w.end_ns = std::max(w.end_ns, c.last_done_ns);
  }
  w.snapshot = cluster.metrics();
  return w;
}

void count(const Window& w, Report& report) {
  std::uint64_t failed = 0, mismatches = 0;
  for (const Client& c : w.clients) {
    report.attempted += c.attempted;
    report.failed += c.refused;
    failed += c.failed;
    mismatches += c.hot_mismatches;
  }
  if (failed != 0) {
    report.mismatch(std::to_string(failed) + " responses failed their structural checks",
                    failed);
  }
  if (mismatches != 0) {
    report.mismatch(std::to_string(mismatches) +
                        " hot responses differ from the first response of their id",
                    mismatches);
  }
  // Every client's first response of a hot request must also agree.
  for (std::size_t h = 0; h < kHotSet; ++h) {
    const std::optional<Bytes>* ref = nullptr;
    for (const Client& c : w.clients) {
      if (!c.first[h]) continue;
      if (ref == nullptr) {
        ref = &c.first[h];
      } else if (**ref != *c.first[h]) {
        report.mismatch("clients disagree on hot request " + std::to_string(h));
      }
    }
  }
}

std::vector<double> latencies_ms(const Window& w) {
  std::vector<double> v;
  for (const Client& c : w.clients) {
    v.insert(v.end(), c.latency_ms.begin(), c.latency_ms.end());
  }
  return v;
}

/// cluster.* and minicl.* per-layer metrics of a traced window.
void window_metrics(const Window& w, const std::vector<Span>& spans, Report& report) {
  std::vector<double> route_us;
  for (const Span& s : spans) {
    if (s.start_ns >= w.start_ns && std::strcmp(s.name, "cluster.placement_order") == 0) {
      route_us.push_back(seconds_between(s.start_ns, s.end_ns) * 1e6);
    }
  }
  std::uint64_t completed = 0, max_completed = 0, hits = 0, misses = 0;
  for (const auto& shard : w.snapshot.shards) {
    completed += shard.metrics.completed;
    max_completed = std::max(max_completed, shard.metrics.completed);
    hits += shard.metrics.cache_hits;
    misses += shard.metrics.cache_misses;
  }
  const double bottleneck = w.snapshot.bottleneck_modeled_seconds();
  auto& m = report.metrics;
  m.set("cluster.route_us", median(route_us), "us");
  m.set("cluster.stolen", static_cast<double>(w.snapshot.stolen), "count");
  m.set("cluster.max_shard_share",
        completed == 0 ? 0.0 : static_cast<double>(max_completed) / static_cast<double>(completed),
        "ratio");
  m.set("cluster.cache_hit_ratio",
        hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses),
        "ratio");
  // Modeled: admitted requests over the busiest shard's modeled device
  // time (minicl::ShardBackend), as serve_cluster reports it. It sits
  // beside the measured throughput_rps and never replaces it.
  m.set("minicl.modeled_rps",
        bottleneck > 0.0 ? static_cast<double>(w.snapshot.admitted) / bottleneck : 0.0,
        "req/s");
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.portfolio = serve_portfolio(seed);
  return in;
}

Window traced_window(const Inputs& in, double seconds, Tracer& tracer) {
  auto cluster = make_cluster(in);
  TracedWindow traced(tracer);
  return closed_loop(*cluster, in, seconds);
}

}  // namespace

void run_cluster_mixed(const RunOptions& options, Report& report) {
  const Inputs in = make_inputs(options.seed);
  auto cluster = make_cluster(in);
  report.first_op_ns = now_ns();
  if (options.setup_only) return;

  if (options.trace) {
    const Window untraced = closed_loop(*cluster, in, 0.35 * options.seconds);
    cluster.reset();
    const Window traced = traced_window(in, 0.35 * options.seconds, *options.tracer);
    const std::vector<Span> spans = options.tracer->spans();
    report_attribution(attribute(spans, traced.start_ns, traced.end_ns), report);
    report.metrics.set("harness.tracing_overhead",
                       untraced.throughput_rps() / traced.throughput_rps() - 1.0,
                       "ratio");
    window_metrics(traced, spans, report);
    count(untraced, report);
    count(traced, report);
    return;
  }

  const Window w = closed_loop(*cluster, in, options.seconds);
  cluster.reset();
  const double rss = peak_rss_mb();
  count(w, report);

  const std::vector<double> latency = latencies_ms(w);
  const TailPercentile tail = tail_percentile(latency);
  auto& m = report.metrics;
  m.set("latency_p50_ms", median(latency), "ms");
  m.set("latency_p99_ms", tail.value, "ms");
  m.set("throughput_rps", w.throughput_rps(), "req/s");
  m.set("wall_s", median(latency) * 1e-3, "s");
  m.set("success_frac",
        1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
        "ratio");
  m.set("peak_rss_mb", rss, "MB");

  std::uint64_t hits = 0, misses = 0;
  for (const auto& shard : w.snapshot.shards) {
    hits += shard.metrics.cache_hits;
    misses += shard.metrics.cache_misses;
  }
  std::ostringstream o;
  o << "cluster_mixed: clients=" << w.clients.size() << " completed=" << w.completed()
    << " over " << seconds_between(w.start_ns, w.end_ns) << " s (" << w.throughput_rps()
    << " req/s), latency samples=" << tail.count << " p" << tail.q * 100 << "="
    << tail.value << " ms (beyond=" << tail.beyond << "), cache hits=" << hits
    << " misses=" << misses << " hit share="
    << static_cast<double>(hits) / static_cast<double>(std::max<std::uint64_t>(1, hits + misses))
    << " stolen=" << w.snapshot.stolen;
  report.note(o.str());
  if (const std::string es = es_rounding_report(); !es.empty()) report.note(es);
}

void cluster_layer_metrics(const RunOptions& options, double seconds, Report& report) {
  const Inputs in = make_inputs(options.seed);
  const Window traced = traced_window(in, seconds, *options.tracer);
  window_metrics(traced, options.tracer->spans(), report);
}

}  // namespace perfbench
