// Workload `reproduce`: the paper's artifact as a batch job. One pass
// runs the four Table III FPGA configurations through
// core::run_fpga_application at table3's scale and every Table III and
// Fig 5 simt::estimate_runtime cell, on an exec pool of nproc threads.
// Passes repeat for the run's duration; wall_s is their median.
#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>

#include "common.h"
#include "core/fpga_app.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "rng/configs.h"
#include "simt/runtime_estimator.h"

namespace perfbench {
namespace {

using dwi::rng::AppConfig;
using dwi::rng::NormalTransform;
using dwi::simt::PlatformId;

struct Cell {
  const AppConfig* config = nullptr;
  PlatformId platform = PlatformId::kCpu;
  NormalTransform transform = NormalTransform::kMarsagliaBray;
  dwi::simt::NdRangeWorkload workload;
};

struct Inputs {
  std::uint32_t fpga_seed = 1;
  std::uint32_t simt_seed = 1;
  dwi::core::FpgaWorkload fpga;
  std::vector<Cell> cells;
};

struct Pass {
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::vector<dwi::core::FpgaRunResult> fpga;
};

constexpr std::array<PlatformId, 3> kPlatforms = {
    PlatformId::kCpu, PlatformId::kGpu, PlatformId::kPhi};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.fpga_seed = static_cast<std::uint32_t>(mix64(seed ^ 0x7461626c6533ull));
  in.simt_seed = static_cast<std::uint32_t>(mix64(seed ^ 0x66696735ull));
  in.fpga.scale_divisor = 512;  // table3_runtime's scale
  const auto& configs = dwi::rng::all_configs();
  // Table III: every config on every fixed-architecture platform, plus
  // the "ICDF FPGA-style" rows of the ICDF configs.
  for (const AppConfig& c : configs) {
    for (const PlatformId p : kPlatforms) {
      in.cells.push_back({&c, p, c.fixed_arch_transform, {}});
    }
    if (!c.uses_marsaglia_bray) {
      for (const PlatformId p : kPlatforms) {
        in.cells.push_back({&c, p, NormalTransform::kIcdfBitwise, {}});
      }
    }
  }
  // Fig 5a (localSize sweep) and 5b (globalSize sweep) for Config1/3.
  for (const auto id : {dwi::rng::ConfigId::kConfig1, dwi::rng::ConfigId::kConfig3}) {
    const AppConfig& c = dwi::rng::config(id);
    for (unsigned l = 1; l <= 512; l *= 2) {
      for (const PlatformId p : kPlatforms) {
        Cell cell{&c, p, c.fixed_arch_transform, {}};
        cell.workload.local_size = l;
        in.cells.push_back(cell);
      }
    }
    for (std::uint64_t g = 1024; g <= (1ull << 20); g *= 4) {
      for (const PlatformId p : kPlatforms) {
        Cell cell{&c, p, c.fixed_arch_transform, {}};
        cell.workload.global_size = g;
        in.cells.push_back(cell);
      }
    }
  }
  return in;
}

template <typename T>
std::uint64_t mix_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof v);
}

Pass run_pass(const Inputs& in) {
  const auto& configs = dwi::rng::all_configs();
  Pass pass;
  std::vector<double> cell_seconds;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span("exec.parallel_map");
    const std::uint64_t parent = span.id();
    pass.fpga = dwi::exec::parallel_map(configs.size(), [&](std::size_t i) {
      ScopedSpan call("core.run_fpga_application", 0, parent);
      return dwi::core::run_fpga_application(configs[i], in.fpga, in.fpga_seed);
    });
  }
  {
    ScopedSpan span("exec.parallel_map");
    const std::uint64_t parent = span.id();
    cell_seconds = dwi::exec::parallel_map(in.cells.size(), [&](std::size_t i) {
      ScopedSpan call("simt.estimate_runtime", 0, parent);
      const Cell& c = in.cells[i];
      return dwi::simt::estimate_runtime(dwi::simt::platform(c.platform),
                                         *c.config, c.transform, c.workload, 4,
                                         400, in.simt_seed)
          .seconds;
    });
  }
  pass.wall_s = seconds_between(t0, now_ns());

  // Simulated-statistics fingerprint: every count the FPGA simulation
  // produces plus every modeled runtime. Host timing never enters it.
  std::uint64_t h = kFnvBasis;
  for (const auto& r : pass.fpga) {
    h = mix_value(h, r.sim.cycles);
    h = mix_value(h, r.sim.outputs);
    h = mix_value(h, r.sim.attempts);
    h = mix_value(h, r.sim.compute_stall_cycles);
    h = mix_value(h, r.sim.bursts);
    h = mix_value(h, r.work_items);
    h = mix_value(h, r.seconds_full);
  }
  for (const double s : cell_seconds) h = mix_value(h, s);
  pass.fingerprint = h;
  return pass;
}

std::vector<Pass> timed_passes(const Inputs& in, double seconds,
                               std::size_t min_passes) {
  std::vector<Pass> passes;
  const std::int64_t t0 = now_ns();
  while (passes.size() < min_passes || seconds_between(t0, now_ns()) < seconds) {
    passes.push_back(run_pass(in));
  }
  return passes;
}

double median_wall(const std::vector<Pass>& passes) {
  std::vector<double> w;
  for (const Pass& p : passes) w.push_back(p.wall_s);
  return median(w);
}

std::string hex(std::uint64_t v) {
  std::ostringstream o;
  o << "0x" << std::hex << v;
  return o.str();
}

std::string describe(const Pass& p) {
  std::ostringstream o;
  o << "reproduce fingerprint " << hex(p.fingerprint) << " (";
  for (std::size_t i = 0; i < p.fpga.size(); ++i) {
    const auto& r = p.fpga[i];
    o << (i ? "; " : "") << dwi::rng::all_configs()[i].name
      << ": cycles=" << r.sim.cycles << " outputs=" << r.sim.outputs
      << " attempts=" << r.sim.attempts
      << " stalls=" << r.sim.compute_stall_cycles
      << " bursts=" << r.sim.bursts << " modeled_ms=" << r.seconds_full * 1e3;
  }
  o << ")";
  return o.str();
}

/// core/fpga/simt per-layer metrics from the spans of traced passes.
void add_layer_metrics(const std::vector<Span>& spans, std::int64_t from_ns,
                       const std::vector<Pass>& traced, Report& report) {
  double fpga_s = 0.0, simt_s = 0.0;
  std::size_t fpga_calls = 0, simt_calls = 0;
  for (const Span& s : spans) {
    if (s.start_ns < from_ns) continue;
    const double d = seconds_between(s.start_ns, s.end_ns);
    if (std::strcmp(s.name, "core.run_fpga_application") == 0) {
      fpga_s += d;
      ++fpga_calls;
    } else if (std::strcmp(s.name, "simt.estimate_runtime") == 0) {
      simt_s += d;
      ++simt_calls;
    }
  }
  std::uint64_t cycles = 0, bursts = 0, outputs = 0, attempts = 0;
  double stall_fraction = 0.0;  // per work-item, averaged over configs
  for (const auto& r : traced.back().fpga) {
    cycles += r.sim.cycles;
    bursts += r.sim.bursts;
    outputs += r.sim.outputs;
    attempts += r.sim.attempts;
    stall_fraction += r.compute_stall_fraction / static_cast<double>(traced.back().fpga.size());
  }
  const auto cycles_simulated =
      static_cast<double>(cycles) * static_cast<double>(traced.size());
  report.metrics.set("core.fpga_app_s",
                     fpga_s / static_cast<double>(std::max<std::size_t>(fpga_calls, 1)),
                     "s");
  report.metrics.set("fpga.sim_cycles_per_s",
                     fpga_s > 0.0 ? cycles_simulated / fpga_s : 0.0, "1/s");
  report.metrics.set("fpga.cycles", static_cast<double>(cycles), "count");
  report.metrics.set("fpga.bursts", static_cast<double>(bursts), "count");
  report.metrics.set("fpga.compute_stall_fraction", stall_fraction, "ratio");
  report.metrics.set("core.rejection_rate",
                     1.0 - static_cast<double>(outputs) /
                               static_cast<double>(attempts),
                     "ratio");
  report.metrics.set("simt.estimate_s",
                     simt_s / static_cast<double>(std::max<std::size_t>(simt_calls, 1)),
                     "s");
}

}  // namespace

void run_reproduce(const RunOptions& options, Report& report) {
  const Inputs in = make_inputs(options.seed);
  warm_pool();
  report.first_op_ns = now_ns();
  if (options.setup_only) return;

  std::vector<Pass> passes;  // the passes whose fingerprints are checked
  if (!options.trace) {
    passes = timed_passes(in, options.seconds, 3);
    // A pass is this workload's unit of work ("request"): the
    // end-to-end metrics shared with the serving workloads are pass
    // latency and passes per host second.
    std::vector<double> pass_ms;
    double busy_s = 0.0;
    for (const Pass& p : passes) {
      pass_ms.push_back(p.wall_s * 1e3);
      busy_s += p.wall_s;
    }
    const double wall = median_wall(passes);
    auto& m = report.metrics;
    m.set("wall_s", wall, "s");
    m.set("latency_p50_ms", wall * 1e3, "ms");
    m.set("latency_p99_ms", tail_percentile(pass_ms).value, "ms");
    m.set("throughput_rps", static_cast<double>(passes.size()) / busy_s, "req/s");
  } else {
    const std::vector<Pass> untraced = timed_passes(in, 0.35 * options.seconds, 3);
    std::vector<Pass> traced;
    std::int64_t start = 0, end = 0;
    {
      TracedWindow window(*options.tracer);
      start = window.start_ns();
      traced = timed_passes(in, 0.35 * options.seconds, 3);
      end = now_ns();
    }
    const std::vector<Span> spans = options.tracer->spans();
    report_attribution(attribute(spans, start, end), report);
    report.metrics.set("harness.tracing_overhead",
                       median_wall(traced) / median_wall(untraced) - 1.0,
                       "ratio");
    add_layer_metrics(spans, start, traced, report);
    passes = untraced;
    passes.insert(passes.end(), traced.begin(), traced.end());
  }
  const double rss = peak_rss_mb();

  // The same simulation on one host thread must give the same bits.
  dwi::exec::set_thread_count(1);
  const Pass serial = run_pass(in);
  dwi::exec::set_thread_count(host_threads());

  report.attempted = passes.size() + 1;
  for (const Pass& p : passes) {
    if (p.fingerprint != serial.fingerprint) {
      report.mismatch("pass fingerprint " + hex(p.fingerprint) +
                      " != 1-thread fingerprint " + hex(serial.fingerprint));
    }
  }
  for (const auto& r : serial.fpga) {
    if (r.sim.outputs == 0 || r.sim.attempts < r.sim.outputs) {
      report.mismatch("implausible FPGA simulation counts");
    }
  }
  report.note(describe(serial));
  report.note("reproduce passes: " + std::to_string(passes.size()) +
              ", cells per pass: " + std::to_string(in.cells.size()) +
              ", threads: " + std::to_string(host_threads()));
  if (!options.trace) {
    report.metrics.set("success_frac",
                       1.0 - static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted),
                       "ratio");
    report.metrics.set("peak_rss_mb", rss, "MB");
  }
}

void reproduce_layer_metrics(const RunOptions& options, Report& report) {
  const Inputs in = make_inputs(options.seed);
  std::vector<Pass> traced;
  std::int64_t start = 0;
  {
    TracedWindow window(*options.tracer);
    start = window.start_ns();
    for (int i = 0; i < 2; ++i) traced.push_back(run_pass(in));
  }
  add_layer_metrics(options.tracer->spans(), start, traced, report);
}

}  // namespace perfbench
