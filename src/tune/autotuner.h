// Resource-aware throughput autotuner.
//
// One search skeleton — seeded coordinate descent over a small set of
// discrete knobs — applied to the repo's three workload families:
//
//   * table3 (FPGA): joint {work-items, stream depth, burst beats,
//     cycle_skipping, batch_iterations} against the cycle-level kernel
//     simulation. Every candidate design point is first priced by the
//     Table II resource model (fpga::estimate_utilization with a
//     DesignPoint); points whose slices/DSP/BRAM exceed the modeled
//     device's budget are PRUNED — counted, recorded in the
//     trajectory, never simulated. This reproduces §IV-C's
//     "grow until place-and-route fails" as a feasibility constraint
//     inside a joint search instead of a one-knob sweep.
//   * fig5 (SIMT): {local size, global size} against the
//     fixed-architecture runtime estimator. Feasibility = the OpenCL
//     NDRange rule (local divides global).
//   * serve (host): {batch window, queue bound, thread count} against
//     a calibrated analytic cost model (modeled_serve_rps below) —
//     deterministic, so CI can gate on it without timing noise.
//
// Determinism: the search is a pure function of (workload, options).
// The only randomness is a splitmix64-seeded knob visiting order; no
// wall-clock, no global RNG. Same seed → same trajectory → same
// TunedConfig (tests/test_tune.cpp pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/device.h"
#include "rng/configs.h"
#include "simt/platform.h"
#include "tune/tuned_config.h"

namespace dwi::tune {

struct TunerOptions {
  /// Seed of the knob-order shuffle. Same seed → same search.
  std::uint64_t seed = 1;
  /// Hard cap on objective evaluations (pruned points are free — the
  /// resource model is why the budget stretches).
  unsigned budget = 96;
  /// Coordinate-descent sweeps over the knob set.
  unsigned passes = 2;
  /// FPGA probe scale: simulate 1/(scale·work_items) of the paper
  /// workload's scenarios per evaluation. Larger = cheaper and still
  /// steady-state (the sim floor is 16 scenarios/work-item).
  std::uint64_t sim_scale_divisor = 4096;
};

/// One objective evaluation (or resource-model rejection) in search
/// order — the audit trail BENCH_tuner.json serializes.
struct TrajectoryPoint {
  unsigned eval = 0;       ///< evaluation index (pruned points share it)
  std::string point;       ///< "knob=value ..." summary
  double objective = 0.0;  ///< units/second; 0 when pruned
  bool feasible = true;    ///< false = resource model rejected it
  bool improved = false;   ///< became the incumbent best
};

struct TuneResult {
  TunedConfig best;
  /// The untouched default configuration, scored with the same
  /// objective — the baseline "tuned vs default" ratios compare
  /// against, and the fallback callers keep when tuning is off.
  TunedConfig fallback;
  std::vector<TrajectoryPoint> trajectory;
  unsigned evaluations = 0;
  unsigned pruned_infeasible = 0;

  double speedup() const {
    return fallback.modeled_throughput > 0.0
               ? best.modeled_throughput / fallback.modeled_throughput
               : 0.0;
  }
};

/// Tune the Table III FPGA configuration `app` for `dev`. Objective:
/// modeled kernel samples/second (cycle sim × device clock) divided by
/// the host-harness overhead factor of {batch_iterations,
/// cycle_skipping}. Default point: the §IV-C N_max design at the
/// calibrated burst/depth.
TuneResult tune_table3(const fpga::DeviceSpec& dev, const rng::AppConfig& app,
                       const TunerOptions& options = {});

/// Tune the Fig 5 NDRange shape of `app` on `platform`. Objective:
/// modeled kernel runs/second. The estimator's default local size is
/// already the paper's Fig 5a optimum, so an honest tuner mostly
/// CONFIRMS the paper here (speedup ≈ 1.0) — the point of the sweep is
/// that the search finds the published optimum from scratch.
TuneResult tune_fig5(simt::PlatformId platform, const rng::AppConfig& app,
                     const TunerOptions& options = {});

/// The serve workload the analytic model prices: the request mix of
/// bench/serve_throughput.cpp by default (7/8 gamma x 2048 samples,
/// 1/8 CreditRisk+ x 256 scenarios over a 48-obligor/2-sector
/// portfolio).
struct ServeWorkloadSpec {
  double gamma_fraction = 7.0 / 8.0;
  std::uint32_t gamma_count = 2048;
  std::uint64_t credit_scenarios = 256;
  std::size_t credit_sectors = 2;
  std::size_t credit_obligors = 48;
  /// Thread counts the deployment can actually use (the host's core
  /// budget); the tuner picks among these, never invents one.
  std::vector<unsigned> thread_candidates = {1};
};

/// Tune the serving configuration for `spec`. Objective:
/// modeled_serve_rps. Default point: ServeConfig's defaults
/// (max_batch 16, queue 256, 1 thread).
TuneResult tune_serve(const ServeWorkloadSpec& spec,
                      const TunerOptions& options = {});

/// The calibrated analytic serve cost model (deterministic; no clocks).
/// Per-request cost = substream derivation + sample compute + amortized
/// dispatch, scaled by Amdahl thread speedup and the queue-starvation
/// factor; constants calibrated against bench/serve_throughput on the
/// reference host (docs/TUNING.md lists them with their provenance).
double modeled_serve_rps(const ServeWorkloadSpec& spec,
                         std::size_t max_batch, std::size_t queue_capacity,
                         unsigned threads);

}  // namespace dwi::tune
