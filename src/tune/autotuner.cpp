#include "tune/autotuner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include "common/error.h"
#include "core/fpga_app.h"
#include "core/gamma_work_item.h"
#include "fpga/kernel_sim.h"
#include "fpga/resource_model.h"
#include "simt/runtime_estimator.h"

namespace dwi::tune {

namespace {

std::uint64_t splitmix64(std::uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One discrete search dimension.
struct Knob {
  const char* name;
  std::vector<std::uint64_t> values;
  std::size_t start;  ///< index of the default value
};

using Point = std::vector<std::uint64_t>;
using FeasibleFn = std::function<bool(const Point&)>;
using ObjectiveFn = std::function<double(const Point&)>;

std::string point_summary(const std::vector<Knob>& knobs, const Point& p) {
  std::ostringstream out;
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    if (i > 0) out << ' ';
    out << knobs[i].name << '=' << p[i];
  }
  return out.str();
}

struct SearchOutcome {
  Point best;
  double best_objective = 0.0;
  Point defaults;
  double default_objective = 0.0;
  std::vector<TrajectoryPoint> trajectory;
  unsigned evaluations = 0;
  unsigned pruned = 0;
};

/// Seeded coordinate descent: evaluate the default, then sweep each
/// knob in a splitmix64-shuffled order (re-shuffled per pass), keeping
/// any strict improvement. Infeasible points are pruned by `feasible`
/// before the objective runs — they cost nothing against the budget.
/// Previously-seen points are memoized, so re-visiting the incumbent's
/// coordinates never re-simulates.
SearchOutcome coordinate_descent(const std::vector<Knob>& knobs,
                                 const FeasibleFn& feasible,
                                 const ObjectiveFn& objective,
                                 const TunerOptions& opt) {
  DWI_REQUIRE(!knobs.empty(), "tuner: need at least one knob");
  DWI_REQUIRE(opt.budget >= 1, "tuner: need a positive budget");

  SearchOutcome out;
  out.defaults.reserve(knobs.size());
  for (const Knob& k : knobs) {
    DWI_REQUIRE(k.start < k.values.size(), "tuner: default index out of range");
    out.defaults.push_back(k.values[k.start]);
  }

  std::map<Point, double> memo;  // objective; <0 marks infeasible
  bool exhausted = false;

  // Returns the point's objective (<0 when infeasible), consuming
  // budget only for fresh feasible evaluations. Sets `exhausted` when
  // the budget would be exceeded.
  const auto evaluate = [&](const Point& p) -> double {
    const auto it = memo.find(p);
    if (it != memo.end()) return it->second;
    if (!feasible(p)) {
      ++out.pruned;
      out.trajectory.push_back(TrajectoryPoint{
          out.evaluations, point_summary(knobs, p), 0.0, false, false});
      memo.emplace(p, -1.0);
      return -1.0;
    }
    if (out.evaluations >= opt.budget) {
      exhausted = true;
      return -1.0;  // not memoized: a future run with budget left may eval
    }
    const double value = objective(p);
    ++out.evaluations;
    out.trajectory.push_back(TrajectoryPoint{
        out.evaluations, point_summary(knobs, p), value, true, false});
    memo.emplace(p, value);
    return value;
  };

  out.default_objective = evaluate(out.defaults);
  DWI_REQUIRE(out.default_objective >= 0.0,
              "tuner: the default configuration must be feasible");
  out.best = out.defaults;
  out.best_objective = out.default_objective;
  if (!out.trajectory.empty()) out.trajectory.back().improved = true;

  std::uint64_t rng = opt.seed;
  for (unsigned pass = 0; pass < opt.passes && !exhausted; ++pass) {
    // Fisher-Yates over the knob visiting order — the seed's only job.
    std::vector<std::size_t> order(knobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[splitmix64(&rng) % i]);
    }
    for (const std::size_t k : order) {
      for (const std::uint64_t value : knobs[k].values) {
        Point candidate = out.best;
        candidate[k] = value;
        const double obj = evaluate(candidate);
        if (exhausted) break;
        if (obj > out.best_objective) {
          out.best = std::move(candidate);
          out.best_objective = obj;
          out.trajectory.back().improved = true;
        }
      }
      if (exhausted) break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// table3: FPGA design-point tuning
// ---------------------------------------------------------------------

/// Host-harness overhead factor of the two host-side knobs. The kernel
/// itself is unaffected (its outputs are bit-identical for every
/// batch_iterations and cycle_skipping value); what these knobs move is
/// how fast the HOST can drive and simulate the kernel:
///   * batch_iterations b: the GammaWorkItem tape amortizes per-call
///     overhead over b block-generated iterations; bench/block_rng
///     measures the scalar path (b = 1) ~33x slower per iteration, so
///     the factor is 1 + 32/b.
///   * cycle_skipping off: the cycle simulator walks every stalled
///     cycle individually, ~3x the wall time of the skipping engine on
///     the Table III workloads (bench/kernel_sim).
double host_overhead_factor(std::uint64_t batch_iterations,
                            bool cycle_skipping) {
  const double batch =
      static_cast<double>(std::max<std::uint64_t>(1, batch_iterations));
  return (1.0 + 32.0 / batch) * (cycle_skipping ? 1.0 : 3.0);
}

/// Modeled kernel outputs/cycle of one design point: the cycle-level
/// simulation of a 1/(scale·work_items) slice of the §IV-B workload,
/// with the real Listing 2 numerics as producers (same scaling shape as
/// core::run_fpga_application).
double modeled_outputs_per_cycle(const rng::AppConfig& app,
                                 unsigned work_items, unsigned burst_beats,
                                 std::size_t stream_depth,
                                 std::uint64_t scale_divisor) {
  core::FpgaWorkload wl;
  const std::uint64_t scenarios_sim = std::max<std::uint64_t>(
      16, wl.num_scenarios / (scale_divisor * work_items));
  const std::uint64_t outputs_per_sector = (scenarios_sim / 16) * 16;
  const std::uint64_t quota = outputs_per_sector * wl.num_sectors;

  fpga::KernelSimConfig cfg;
  cfg.work_items = work_items;
  cfg.burst_beats = burst_beats;
  cfg.stream_depth = stream_depth;
  cfg.outputs_per_work_item = quota;
  const auto result = fpga::simulate_kernel(
      cfg, [&](unsigned wid) -> std::unique_ptr<fpga::ProducerModel> {
        core::GammaWorkItemConfig wcfg;
        wcfg.app = app;
        wcfg.sector_variances.assign(wl.num_sectors, wl.sector_variance);
        wcfg.outputs_per_sector =
            static_cast<std::uint32_t>(outputs_per_sector);
        wcfg.work_item_id = wid;
        wcfg.seed = 1 + 0x1000u * wid;
        return std::make_unique<core::GammaWorkItem>(wcfg);
      });
  return static_cast<double>(result.outputs) /
         static_cast<double>(result.cycles);
}

std::string fpga_device_name(const fpga::DeviceSpec& dev) {
  if (dev.slices == fpga::adm_pcie_7v3().slices) return "adm-pcie-7v3";
  if (dev.slices == fpga::aws_f1_vu9p().slices) return "aws-f1-vu9p";
  return "fpga";
}

}  // namespace

TuneResult tune_table3(const fpga::DeviceSpec& dev, const rng::AppConfig& app,
                       const TunerOptions& options) {
  const unsigned nmax = fpga::max_work_items(dev, app);
  const unsigned default_burst = core::config_burst_beats(app);

  // Knob order matters only for display; visiting order is seeded.
  std::vector<Knob> knobs;
  {
    std::vector<std::uint64_t> wi = {2, 4, 6, 8, 10, 12};
    if (std::find(wi.begin(), wi.end(), nmax) == wi.end()) {
      wi.push_back(nmax);
      std::sort(wi.begin(), wi.end());
    }
    const std::size_t start = static_cast<std::size_t>(
        std::find(wi.begin(), wi.end(), nmax) - wi.begin());
    knobs.push_back(Knob{"work_items", std::move(wi), start});
  }
  knobs.push_back(Knob{"stream_depth", {32, 64, 128, 256, 1024}, 1});
  {
    std::vector<std::uint64_t> bursts = {8, 16, 18, 32, 64, 128};
    const std::size_t start = static_cast<std::size_t>(
        std::find(bursts.begin(), bursts.end(), default_burst) -
        bursts.begin());
    DWI_ASSERT(start < bursts.size());
    knobs.push_back(Knob{"burst_beats", std::move(bursts), start});
  }
  knobs.push_back(Knob{"cycle_skipping", {1, 0}, 0});
  knobs.push_back(Knob{"batch_iterations", {1, 256, 2048, 8192}, 2});

  enum { kWi, kDepth, kBurst, kSkip, kBatch };

  const FeasibleFn feasible = [&](const Point& p) {
    fpga::DesignPoint point;
    point.work_items = static_cast<unsigned>(p[kWi]);
    point.stream_depth = static_cast<std::size_t>(p[kDepth]);
    point.burst_beats = static_cast<unsigned>(p[kBurst]);
    return fpga::estimate_utilization(dev, app, point).routable;
  };
  const ObjectiveFn objective = [&](const Point& p) {
    const double per_cycle = modeled_outputs_per_cycle(
        app, static_cast<unsigned>(p[kWi]), static_cast<unsigned>(p[kBurst]),
        static_cast<std::size_t>(p[kDepth]), options.sim_scale_divisor);
    return per_cycle * dev.clock_hz /
           host_overhead_factor(p[kBatch], p[kSkip] != 0);
  };

  const SearchOutcome search =
      coordinate_descent(knobs, feasible, objective, options);

  const auto to_config = [&](const Point& p, double obj) {
    TunedConfig cfg;
    cfg.workload = std::string("table3:") + app.name;
    cfg.device = fpga_device_name(dev);
    cfg.seed = options.seed;
    cfg.work_items = static_cast<unsigned>(p[kWi]);
    cfg.stream_depth = static_cast<std::size_t>(p[kDepth]);
    cfg.burst_beats = static_cast<unsigned>(p[kBurst]);
    cfg.cycle_skipping = p[kSkip] != 0;
    cfg.batch_iterations = static_cast<std::uint32_t>(p[kBatch]);
    cfg.modeled_throughput = obj;
    cfg.feasible = true;
    return cfg;
  };
  TuneResult result;
  result.best = to_config(search.best, search.best_objective);
  result.fallback = to_config(search.defaults, search.default_objective);
  result.trajectory = std::move(search.trajectory);
  result.evaluations = search.evaluations;
  result.pruned_infeasible = search.pruned;
  return result;
}

TuneResult tune_fig5(simt::PlatformId platform, const rng::AppConfig& app,
                     const TunerOptions& options) {
  const simt::PlatformModel& plat = simt::platform(platform);
  const unsigned paper_local = simt::paper_optimal_local_size(platform);

  std::vector<Knob> knobs;
  {
    std::vector<std::uint64_t> locals = {1, 2, 4, 8, 16, 32, 64, 128, 256,
                                         512};
    const std::size_t start = static_cast<std::size_t>(
        std::find(locals.begin(), locals.end(), paper_local) -
        locals.begin());
    DWI_ASSERT(start < locals.size());
    knobs.push_back(Knob{"local_size", std::move(locals), start});
  }
  knobs.push_back(
      Knob{"global_size", {16'384, 65'536, 262'144, 1'048'576}, 1});

  enum { kLocal, kGlobal };

  const FeasibleFn feasible = [&](const Point& p) {
    // The OpenCL NDRange rule: local divides global.
    return p[kLocal] <= p[kGlobal] && p[kGlobal] % p[kLocal] == 0;
  };
  const ObjectiveFn objective = [&](const Point& p) {
    simt::NdRangeWorkload wl;
    wl.local_size = static_cast<unsigned>(p[kLocal]);
    wl.global_size = p[kGlobal];
    const auto est =
        simt::estimate_runtime(plat, app, app.fixed_arch_transform, wl);
    return 1.0 / est.seconds;  // full kernel runs per second
  };

  const SearchOutcome search =
      coordinate_descent(knobs, feasible, objective, options);

  const auto to_config = [&](const Point& p, double obj) {
    TunedConfig cfg;
    cfg.workload =
        std::string("fig5:") + simt::to_string(platform) + ":" + app.name;
    cfg.device = plat.name;
    cfg.seed = options.seed;
    cfg.local_size = static_cast<unsigned>(p[kLocal]);
    cfg.global_size = p[kGlobal];
    cfg.modeled_throughput = obj;
    cfg.feasible = true;
    return cfg;
  };
  TuneResult result;
  result.best = to_config(search.best, search.best_objective);
  result.fallback = to_config(search.defaults, search.default_objective);
  result.trajectory = std::move(search.trajectory);
  result.evaluations = search.evaluations;
  result.pruned_infeasible = search.pruned;
  return result;
}

// ---------------------------------------------------------------------
// serve: analytic host cost model
// ---------------------------------------------------------------------

namespace {

// Calibrated on the reference single-core host against
// bench/serve_throughput (docs/TUNING.md documents the fit):
//   * counter-based substream derivation: ~29 ns (one Philox counter
//     write);
//   * per-sample compute: fitted against the measured closed-loop rate
//     of the default mix;
//   * per-obligor aggregation cost of a CreditRisk+ scenario;
//   * scheduler dispatch overhead per batch, amortized over the batch.
constexpr double kDeriveSeconds = 2.9e-8;
constexpr double kSampleSeconds = 4.15e-8;
constexpr double kObligorSeconds = 2.0e-8;
constexpr double kDispatchSeconds = 2.0e-5;
/// Amdahl serial fraction of the serving loop (admission + metrics
/// mutexes) and the concurrency the dispatch overlap can actually use.
constexpr double kSerialFraction = 0.08;
constexpr double kModeledConcurrency = 4.0;

}  // namespace

double modeled_serve_rps(const ServeWorkloadSpec& spec,
                         std::size_t max_batch, std::size_t queue_capacity,
                         unsigned threads) {
  DWI_REQUIRE(threads >= 1, "serve model: need at least one thread");
  DWI_REQUIRE(max_batch >= 1 && queue_capacity >= 1,
              "serve model: batch/queue bounds must be >= 1");
  DWI_REQUIRE(spec.gamma_fraction >= 0.0 && spec.gamma_fraction <= 1.0,
              "serve model: gamma_fraction must be in [0, 1]");

  // Dispatch cost amortizes over the coalesced batch, but overlap is
  // bounded by the modeled concurrency of the drain loop.
  const double effective_batch = std::min(
      static_cast<double>(max_batch), kModeledConcurrency);
  const double dispatch = kDispatchSeconds / std::max(1.0, effective_batch);

  const double t_gamma = kDeriveSeconds +
                         static_cast<double>(spec.gamma_count) *
                             kSampleSeconds +
                         dispatch;

  double t_credit = 0.0;
  const double credit_fraction = 1.0 - spec.gamma_fraction;
  if (credit_fraction > 0.0) {
    const double sectors = static_cast<double>(spec.credit_sectors);
    t_credit = kDeriveSeconds * sectors +
               static_cast<double>(spec.credit_scenarios) *
                   (sectors * kSampleSeconds +
                    static_cast<double>(spec.credit_obligors) *
                        kObligorSeconds) +
               dispatch;
  }

  const double t = spec.gamma_fraction * t_gamma +
                   credit_fraction * t_credit;
  DWI_REQUIRE(t > 0.0, "serve model: degenerate workload");

  const double amdahl =
      1.0 / (kSerialFraction +
             (1.0 - kSerialFraction) / static_cast<double>(threads));
  // A queue that cannot hold two batches starves the drain loop.
  const double starvation = std::min(
      1.0, static_cast<double>(queue_capacity) /
               (2.0 * static_cast<double>(max_batch)));
  return starvation * amdahl / t;
}

TuneResult tune_serve(const ServeWorkloadSpec& spec,
                      const TunerOptions& options) {
  DWI_REQUIRE(!spec.thread_candidates.empty(),
              "tune_serve: need at least one thread candidate");

  std::vector<Knob> knobs;
  knobs.push_back(Knob{"max_batch", {1, 4, 16, 64}, 2});
  knobs.push_back(Knob{"queue_capacity", {16, 64, 256, 1024}, 2});
  {
    std::vector<std::uint64_t> threads;
    for (const unsigned t : spec.thread_candidates) {
      DWI_REQUIRE(t >= 1, "tune_serve: thread candidates must be >= 1");
      threads.push_back(t);
    }
    knobs.push_back(Knob{"threads", std::move(threads), 0});
  }

  enum { kBatch, kQueue, kThreads };

  const FeasibleFn feasible = [&](const Point& p) {
    return p[kBatch] <= p[kQueue];
  };
  const ObjectiveFn objective = [&](const Point& p) {
    return modeled_serve_rps(spec, static_cast<std::size_t>(p[kBatch]),
                             static_cast<std::size_t>(p[kQueue]),
                             static_cast<unsigned>(p[kThreads]));
  };

  const SearchOutcome search =
      coordinate_descent(knobs, feasible, objective, options);

  const auto to_config = [&](const Point& p, double obj) {
    TunedConfig cfg;
    cfg.workload = "serve:classic";
    cfg.device = "host";
    cfg.seed = options.seed;
    cfg.max_batch = static_cast<std::size_t>(p[kBatch]);
    cfg.queue_capacity = static_cast<std::size_t>(p[kQueue]);
    cfg.threads = static_cast<unsigned>(p[kThreads]);
    cfg.modeled_throughput = obj;
    cfg.feasible = true;
    return cfg;
  };
  TuneResult result;
  result.best = to_config(search.best, search.best_objective);
  result.fallback = to_config(search.defaults, search.default_objective);
  result.trajectory = std::move(search.trajectory);
  result.evaluations = search.evaluations;
  result.pruned_infeasible = search.pruned;
  return result;
}

}  // namespace dwi::tune
