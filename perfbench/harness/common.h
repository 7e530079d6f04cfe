// Shared pieces of the benchmark workloads: run options, the report
// every workload fills, seeded input helpers and process statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "finance/portfolio.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  /// The run's span recorder (traced runs only); workloads install it
  /// around their traced windows with TracedWindow.
  Tracer* tracer = nullptr;
};

/// Installs a tracer for the scope's lifetime and remembers the
/// window's bounds for attribution.
class TracedWindow {
 public:
  explicit TracedWindow(Tracer& t) : start_ns_(now_ns()) { Tracer::install(&t); }
  ~TracedWindow() { Tracer::install(nullptr); }
  TracedWindow(const TracedWindow&) = delete;
  TracedWindow& operator=(const TracedWindow&) = delete;
  std::int64_t start_ns() const { return start_ns_; }

 private:
  std::int64_t start_ns_;
};

struct Report {
  /// End-to-end metrics (untraced run) or per-layer metrics (traced).
  MetricTable metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Steady-clock time of the first timed operation (set-up ends).
  std::int64_t first_op_ns = 0;
  std::vector<std::string> notes;

  void note(const std::string& line) { notes.push_back(line); }
  /// Record a correctness failure: counts as a failed operation and
  /// makes the run incorrect.
  void mismatch(const std::string& what, std::uint64_t operations = 1) {
    failed += operations;
    correct = false;
    notes.push_back("MISMATCH: " + what);
  }
};

/// splitmix64 finalizer (a bijection on 64-bit words).
std::uint64_t mix64(std::uint64_t x);

/// Unique request ids: a bijection of (space, counter) onto 32-bit ids
/// keyed by the seed, so ids are spread over the id range the way
/// independent clients' ids are, and never repeat within a seed.
/// space < 16, counter < 2^28.
std::uint64_t request_id(std::uint64_t seed, unsigned space,
                         std::uint64_t counter);

/// Small seeded generator for workload choices (not the library RNG).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ull); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The CreditRisk+ portfolio the serving workloads and the finance
/// probes use: 48 obligors over two sectors (variance 1.39 and 0.8).
std::shared_ptr<const dwi::finance::Portfolio> serve_portfolio(std::uint64_t seed);

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

/// Host threads the benchmark runs the exec pool with (nproc).
unsigned host_threads();

/// Warm the exec pool at the current thread count.
void warm_pool();

/// Seconds between two steady-clock readings.
inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// Workload entry points (one per BENCHMARK.json workload). Each does
// its set-up, stamps report.first_op_ns, returns early when
// options.setup_only, and otherwise measures for options.seconds.
void run_reproduce(const RunOptions& options, Report& report);
void run_serve_open(const RunOptions& options, Report& report);
void run_cluster_mixed(const RunOptions& options, Report& report);

// Traced-run pieces reused by other workloads' traced runs, so every
// traced run reports every per-layer metric.
void reproduce_layer_metrics(const RunOptions& options, Report& report);
void serve_layer_metrics(const RunOptions& options, double seconds,
                         Report& report);
void cluster_layer_metrics(const RunOptions& options, double seconds,
                           Report& report);
/// Fixed-size probes of the rng, exec, finance and workloads layers.
void run_layer_probes(const RunOptions& options, Report& report);

/// Report the wall-time attribution of a workload's traced phase as
/// `<layer>.self_frac` for every layer a workload calls directly
/// (exec, core, simt, serve, cluster) plus `unattributed_frac`.
void report_attribution(const Attribution& a, Report& report);

}  // namespace perfbench
