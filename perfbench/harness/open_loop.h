// Open-loop load generator: one pacer sends request `seq` at its due
// time t0 + seq/rate whether or not earlier requests have finished,
// and one collector observes completions. Latency is measured from the
// due time, so a stall anywhere (target, pacer or collector) shows up
// in the latency of every request it delays, and the pacer's own
// lateness is reported separately as generator lag.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

/// One submitted request whose result has not been observed yet.
class Pending {
 public:
  virtual ~Pending() = default;
  /// Block for at most `timeout`; true once the result is ready.
  virtual bool wait_for(std::chrono::nanoseconds timeout) = 0;
  /// Consume the ready result and check it; false when the request
  /// failed (threw) or its result fails a correctness check.
  virtual bool finish() = 0;
};

class OpenLoopTarget {
 public:
  virtual ~OpenLoopTarget() = default;
  /// Submit request number `seq` without blocking; null when the
  /// target refused it.
  virtual std::unique_ptr<Pending> submit(std::uint64_t seq) = 0;
};

struct OpenLoopSpec {
  double rate = 1000.0;    ///< offered requests per second
  double seconds = 1.0;    ///< send window
  /// The collector blocks on the oldest outstanding request for at
  /// most this long, then polls the others once without blocking; an
  /// out-of-order completion is observed at most this late.
  std::chrono::nanoseconds poll{std::chrono::microseconds(100)};
  /// Span names recorded when a Tracer is installed.
  const char* submit_span = "target.submit";
  const char* request_span = "target.request";
};

struct OpenLoopRun {
  std::int64_t start_ns = 0;  ///< first due time
  std::int64_t end_ns = 0;    ///< last observation (or end of sending)
  std::uint64_t sent = 0;
  std::uint64_t refused = 0;  ///< submit() returned null
  std::uint64_t failed = 0;   ///< finish() returned false
  /// Per successful request: due -> observed, submit() duration,
  /// submit return -> observed, and the request's seq.
  std::vector<double> latency_s;
  std::vector<double> admit_s;
  std::vector<double> inflight_s;
  std::vector<std::uint64_t> seqs;
  /// Per sent request: submit start - due time.
  std::vector<double> gen_lag_s;

  double wall_seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Run one open-loop window against `target` and wait for every
/// admitted request to be observed.
OpenLoopRun run_open_loop(OpenLoopTarget& target, const OpenLoopSpec& spec);

}  // namespace perfbench
