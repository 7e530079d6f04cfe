// Self-tests of the benchmark harness: the tail-percentile rule,
// open-loop due-time accounting, wall-time attribution and metric
// naming. Run with
//   python3 perfbench/run.py --selftest
// Exits non-zero on the first failed check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_tail_rule() {
  // Plenty of samples: a true p99 with 1% of them beyond it.
  TailPercentile t = tail_percentile(one_to(2000));
  CHECK(t.q == 0.99 && t.value == 1980.0 && t.beyond == 20 && t.count == 2000);
  // Exactly ten beyond the p99 rank still qualifies.
  t = tail_percentile(one_to(1000));
  CHECK(t.q == 0.99 && t.value == 990.0 && t.beyond == 10);
  // Too few for p99: the highest rank with ten samples beyond it.
  t = tail_percentile(one_to(500));
  CHECK(t.value == 490.0 && t.beyond == 10 && std::fabs(t.q - 0.98) < 1e-12);
  // No rank has ten samples beyond: reported as q = 0 (maximum).
  t = tail_percentile(one_to(10));
  CHECK(t.q == 0.0 && t.value == 10.0 && t.beyond == 0 && t.count == 10);
  CHECK(tail_percentile({}).count == 0);
  CHECK(median(one_to(5)) == 3.0);
  CHECK(percentile(one_to(100), 0.5) == 50.0);
}

void test_metric_names() {
  for (const char* ok : {"wall_s", "latency_p99_ms", "rng.jump_derive_us",
                         "serve.admit_us_p50", "1st-metric"}) {
    CHECK(valid_metric_name(ok));
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/unit",
                          "quote\"", "x[0]"}) {
    CHECK(!valid_metric_name(bad));
  }
  CHECK(!valid_metric_name(std::string(65, 'a')));
  MetricTable m;
  m.set("b", 2.5, "ms");
  m.set("a", 1, "count");
  CHECK(m.to_json() ==
        "{\"a\": {\"value\": 1, \"unit\": \"count\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}");
}

/// Completes immediately, or `delay` after it was created.
class FakePending final : public Pending {
 public:
  explicit FakePending(std::chrono::nanoseconds delay)
      : ready_at_(std::chrono::steady_clock::now() + delay) {}
  bool wait_for(std::chrono::nanoseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::this_thread::sleep_until(std::min(deadline, ready_at_));
    return std::chrono::steady_clock::now() >= ready_at_;
  }
  bool finish() override { return true; }

 private:
  std::chrono::steady_clock::time_point ready_at_;
};

/// Stalls inside submit() of `stall_seq`, and delays the completion of
/// `slow_seq`; everything else completes at once.
class StallingTarget final : public OpenLoopTarget {
 public:
  std::unique_ptr<Pending> submit(std::uint64_t seq) override {
    if (seq == kStallSeq) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const auto delay = seq == kSlowSeq ? std::chrono::milliseconds(50)
                                       : std::chrono::milliseconds(0);
    return std::make_unique<FakePending>(delay);
  }
  static constexpr std::uint64_t kStallSeq = 100;
  static constexpr std::uint64_t kSlowSeq = 600;
};

double latency_of(const OpenLoopRun& run, std::uint64_t seq) {
  for (std::size_t i = 0; i < run.seqs.size(); ++i) {
    if (run.seqs[i] == seq) return run.latency_s[i];
  }
  return -1.0;
}

void test_open_loop_due_time() {
  StallingTarget target;
  OpenLoopSpec spec;
  spec.rate = 1000.0;
  spec.seconds = 1.0;
  const OpenLoopRun run = run_open_loop(target, spec);
  CHECK(run.sent == 1000 && run.refused == 0 && run.failed == 0);
  CHECK(run.latency_s.size() == 1000);
  // The pacer was stuck for 60 ms inside request 100's submit: every
  // request due during the stall is late by the rest of it, and that
  // lateness is part of its latency from due time.
  CHECK(latency_of(run, 110) >= 0.045);
  CHECK(latency_of(run, 140) >= 0.015);
  std::vector<double> lag;
  for (const double s : run.gen_lag_s) lag.push_back(s);
  CHECK(tail_percentile(lag).value >= 0.030);
  // Well after the stall the generator has caught up.
  CHECK(latency_of(run, 400) < 0.010);
  // A slow completion is charged to its own request only; requests
  // behind it are observed within the collector's poll, not held back.
  CHECK(latency_of(run, StallingTarget::kSlowSeq) >= 0.050);
  CHECK(latency_of(run, StallingTarget::kSlowSeq + 5) < 0.010);
}

void test_attribution() {
  // Window [0, 100] ns. A [10, 60] has child B [20, 40] on another
  // thread; C [30, 50] is unrelated.
  std::vector<Span> spans = {
      {"a.outer", 10, 60, 1, 0, 0, 0},
      {"b.child", 20, 40, 2, 1, 0, 1},
      {"c.other", 30, 50, 3, 0, 7, 2},
  };
  const Attribution a = attribute(spans, 0, 100);
  const auto near = [](double x, double y) { return std::fabs(x - y) < 1e-15; };
  CHECK(near(a.wall_seconds, 100e-9));
  CHECK(near(a.layer_seconds.at("a"), 25e-9));
  CHECK(near(a.layer_seconds.at("b"), 15e-9));
  CHECK(near(a.layer_seconds.at("c"), 10e-9));
  CHECK(near(a.unattributed_seconds, 50e-9));
  // Clipping: only [40, 50] of the window lies inside spans here.
  const Attribution clipped = attribute(spans, 40, 50);
  CHECK(near(clipped.unattributed_seconds, 0.0));
  CHECK(near(clipped.layer_seconds.at("a") + clipped.layer_seconds.at("c"), 10e-9));
  CHECK(layer_of("serve.try_submit") == "serve" && layer_of("plain") == "plain");

  // Spans recorded through the Tracer nest on one thread.
  Tracer tracer;
  Tracer::install(&tracer);
  {
    ScopedSpan outer("x.outer");
    ScopedSpan inner("y.inner", 42);
    CHECK(inner.id() != 0 && inner.id() != outer.id());
  }
  Tracer::install(nullptr);
  {
    ScopedSpan off("z.untraced");
    CHECK(off.id() == 0);
  }
  const std::vector<Span> recorded = tracer.spans();
  CHECK(recorded.size() == 2);
  if (recorded.size() == 2) {
    CHECK(recorded[0].parent == recorded[1].id && recorded[0].request == 42);
  }
}

}  // namespace

int main() {
  test_tail_rule();
  test_metric_names();
  test_attribution();
  test_open_loop_due_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
