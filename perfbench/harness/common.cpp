#include "common.h"

#include <sys/resource.h>

#include <thread>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t request_id(std::uint64_t seed, unsigned space,
                         std::uint64_t counter) {
  auto x = static_cast<std::uint32_t>((static_cast<std::uint64_t>(space & 0xfu) << 28) |
                                      (counter & 0x0fffffffu));
  x ^= static_cast<std::uint32_t>(mix64(seed));
  // lowbias32: every step is invertible, so distinct inputs give
  // distinct ids.
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

std::shared_ptr<const dwi::finance::Portfolio> serve_portfolio(std::uint64_t seed) {
  return std::make_shared<const dwi::finance::Portfolio>(dwi::finance::Portfolio::synthetic(
      48, {{1.39, "representative"}, {0.8, "stable"}}, mix64(seed)));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

unsigned host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

void warm_pool() {
  const std::size_t n = dwi::exec::thread_count();
  for (int i = 0; i < 64; ++i) {
    dwi::exec::parallel_for(n, [](std::size_t) {});
  }
}

void report_attribution(const Attribution& a, Report& report) {
  const double wall = a.wall_seconds > 0.0 ? a.wall_seconds : 1.0;
  for (const std::string layer : {"exec", "core", "simt", "serve", "cluster"}) {
    const auto it = a.layer_seconds.find(layer);
    const double s = it == a.layer_seconds.end() ? 0.0 : it->second;
    report.metrics.set(layer + ".self_frac", s / wall, "ratio");
  }
  report.metrics.set("unattributed_frac", a.unattributed_seconds / wall,
                     "ratio");
}

}  // namespace perfbench
