// Tests for the resource-aware autotuner (src/tune): search
// determinism, resource-model pruning, TunedConfig round-trips, the
// capacity planner's device sensitivity, and the capacity-derived
// admission bounds' floors and fallbacks.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/error.h"
#include "fpga/device.h"
#include "fpga/resource_model.h"
#include "minicl/shard_backend.h"
#include "rng/configs.h"
#include "serve/capacity.h"
#include "simt/platform.h"
#include "tune/autotuner.h"
#include "tune/capacity_planner.h"
#include "tune/tuned_config.h"

namespace dwi::tune {
namespace {

TunerOptions fast_options(std::uint64_t seed = 1) {
  TunerOptions opt;
  opt.seed = seed;
  opt.budget = 24;
  opt.passes = 2;
  opt.sim_scale_divisor = 16384;  // cheap probes; tests care about the
                                  // search contract, not the numbers
  return opt;
}

// ---- search determinism ----------------------------------------------

TEST(Autotuner, SameSeedSameTable3Config) {
  const auto& dev = fpga::adm_pcie_7v3();
  const auto& app = rng::config(rng::ConfigId::kConfig3);
  const TuneResult a = tune_table3(dev, app, fast_options(7));
  const TuneResult b = tune_table3(dev, app, fast_options(7));
  EXPECT_EQ(format_tuned_config(a.best), format_tuned_config(b.best));
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].point, b.trajectory[i].point) << i;
    EXPECT_DOUBLE_EQ(a.trajectory[i].objective, b.trajectory[i].objective)
        << i;
  }
}

TEST(Autotuner, SameSeedSameServeConfig) {
  ServeWorkloadSpec spec;
  spec.thread_candidates = {1, 2, 4};
  const TuneResult a = tune_serve(spec, fast_options(3));
  const TuneResult b = tune_serve(spec, fast_options(3));
  EXPECT_EQ(format_tuned_config(a.best), format_tuned_config(b.best));
}

TEST(Autotuner, BudgetCapsEvaluations) {
  TunerOptions opt = fast_options();
  opt.budget = 6;
  const auto& dev = fpga::adm_pcie_7v3();
  const TuneResult r =
      tune_table3(dev, rng::config(rng::ConfigId::kConfig1), opt);
  EXPECT_LE(r.evaluations, opt.budget);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_GE(r.best.modeled_throughput, r.fallback.modeled_throughput);
}

// ---- resource-model pruning ------------------------------------------

TEST(Autotuner, Table3PrunesInfeasiblePointsWithoutSpendingBudget) {
  // The table3 knob set deliberately includes work-item counts past
  // N_max and very deep FIFOs — the Table II model must reject them.
  const auto& dev = fpga::adm_pcie_7v3();
  const TuneResult r =
      tune_table3(dev, rng::config(rng::ConfigId::kConfig1), fast_options());
  EXPECT_GT(r.pruned_infeasible, 0u);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_LE(r.evaluations, fast_options().budget);
  // Pruned trajectory points carry feasible=false and a zero objective.
  bool saw_pruned = false;
  for (const TrajectoryPoint& p : r.trajectory) {
    if (!p.feasible) {
      saw_pruned = true;
      EXPECT_EQ(p.objective, 0.0);
      EXPECT_FALSE(p.improved);
    }
  }
  EXPECT_TRUE(saw_pruned);
  // The winner itself must price within the device budget.
  fpga::DesignPoint point;
  point.work_items = r.best.work_items;
  point.stream_depth = r.best.stream_depth;
  point.burst_beats = r.best.burst_beats;
  EXPECT_TRUE(fpga::estimate_utilization(
                  dev, rng::config(rng::ConfigId::kConfig1), point)
                  .routable);
}

TEST(ResourceModel, DesignPointAtDefaultsMatchesTableIIPath) {
  // The tunable DesignPoint overload must be a strict generalization:
  // at the calibrated depth/burst it reproduces the legacy Table II
  // numbers bit-for-bit for every configuration at N_max.
  const auto& dev = fpga::adm_pcie_7v3();
  for (const rng::AppConfig& app : rng::all_configs()) {
    const unsigned nmax = fpga::max_work_items(dev, app);
    const auto legacy = fpga::estimate_utilization(dev, app, nmax);
    fpga::DesignPoint point;
    point.work_items = nmax;
    point.stream_depth = 64;
    point.burst_beats = app.uses_marsaglia_bray ? 16u : 18u;
    const auto tuned = fpga::estimate_utilization(dev, app, point);
    EXPECT_EQ(tuned.total.luts, legacy.total.luts) << app.name;
    EXPECT_EQ(tuned.total.ffs, legacy.total.ffs) << app.name;
    EXPECT_EQ(tuned.total.dsps, legacy.total.dsps) << app.name;
    EXPECT_EQ(tuned.total.bram36, legacy.total.bram36) << app.name;
    EXPECT_DOUBLE_EQ(tuned.slice_util, legacy.slice_util) << app.name;
    EXPECT_EQ(tuned.routable, legacy.routable) << app.name;
  }
}

TEST(ResourceModel, DepthAndBurstExtrasAreZeroAtDefaultsOnly) {
  const auto zero = [](const fpga::BlockResources& r) {
    return r.luts == 0 && r.ffs == 0 && r.dsps == 0 && r.bram36 == 0;
  };
  EXPECT_TRUE(zero(fpga::stream_fifo_extra(32)));
  EXPECT_TRUE(zero(fpga::stream_fifo_extra(64)));
  EXPECT_FALSE(zero(fpga::stream_fifo_extra(1024)));
  EXPECT_TRUE(zero(fpga::transfer_unit_extra(18)));
  EXPECT_FALSE(zero(fpga::transfer_unit_extra(128)));
  // Monotone: more storage never costs less.
  EXPECT_GE(fpga::stream_fifo_extra(2048).bram36,
            fpga::stream_fifo_extra(1024).bram36);
  EXPECT_GE(fpga::transfer_unit_extra(256).bram36,
            fpga::transfer_unit_extra(128).bram36);
}

// ---- fig5 ------------------------------------------------------------

TEST(Autotuner, Fig5RespectsNdRangeRuleAndNeverLoses) {
  for (const simt::PlatformId plat :
       {simt::PlatformId::kCpu, simt::PlatformId::kGpu,
        simt::PlatformId::kPhi}) {
    const TuneResult r = tune_fig5(
        plat, rng::config(rng::ConfigId::kConfig1), fast_options());
    EXPECT_TRUE(r.best.feasible);
    ASSERT_GT(r.best.local_size, 0u);
    EXPECT_EQ(r.best.global_size % r.best.local_size, 0u)
        << simt::to_string(plat);
    // The default local size is the paper's Fig 5a optimum; coordinate
    // descent only adopts strict improvements, so tuned >= default.
    EXPECT_GE(r.speedup(), 1.0) << simt::to_string(plat);
  }
}

// ---- serve tuner -----------------------------------------------------

TEST(Autotuner, ServeTunedNeverLosesToDefaults) {
  // Every serve knob preserves response values, so the search may move
  // all of them; with more cores on offer it takes them.
  ServeWorkloadSpec spec;
  spec.thread_candidates = {1, 2, 4};
  const TuneResult r = tune_serve(spec, fast_options());
  EXPECT_TRUE(r.best.feasible);
  EXPECT_GE(r.best.modeled_throughput, r.fallback.modeled_throughput);
  EXPECT_EQ(r.best.threads, 4u);
  EXPECT_DOUBLE_EQ(r.fallback.modeled_throughput,
                   modeled_serve_rps(spec, 16, 256, 1));
}

// ---- TunedConfig wire format -----------------------------------------

TEST(TunedConfigFormat, RoundTripsEveryField) {
  TunedConfig cfg;
  cfg.workload = "table3:Config3";
  cfg.device = "adm-pcie-7v3";
  cfg.seed = 42;
  cfg.work_items = 8;
  cfg.stream_depth = 128;
  cfg.burst_beats = 64;
  cfg.cycle_skipping = false;
  cfg.batch_iterations = 8192;
  cfg.global_size = 1u << 20;
  cfg.local_size = 256;
  cfg.threads = 4;
  cfg.max_batch = 64;
  cfg.queue_capacity = 1024;
  cfg.modeled_throughput = 1478712039.25;
  cfg.feasible = true;
  const std::string text = format_tuned_config(cfg);
  const TunedConfig back = parse_tuned_config(text);
  EXPECT_EQ(format_tuned_config(back), text);
  EXPECT_EQ(back.workload, cfg.workload);
  EXPECT_EQ(back.stream_depth, cfg.stream_depth);
  EXPECT_EQ(back.cycle_skipping, cfg.cycle_skipping);
  EXPECT_DOUBLE_EQ(back.modeled_throughput, cfg.modeled_throughput);
}

TEST(TunedConfigFormat, RejectsMalformedInput) {
  const std::string good = format_tuned_config(TunedConfig{});
  EXPECT_THROW((void)parse_tuned_config("nonsense v9\n"), dwi::Error);
  EXPECT_THROW((void)parse_tuned_config(good + "mystery_knob=3\n"),
               dwi::Error);
  // Retired serve knobs are unknown keys like any other.
  EXPECT_THROW(
      (void)parse_tuned_config(good + "stream_strategy=counter-based\n"),
      dwi::Error);
  EXPECT_THROW((void)parse_tuned_config(good + "pipe_depth=8\n"),
               dwi::Error);
  EXPECT_THROW((void)parse_tuned_config(good + "work_items=eight\n"),
               dwi::Error);
  EXPECT_THROW(
      (void)parse_tuned_config("dwi-tuned-config v1\nno_equals_sign\n"),
      dwi::Error);
}

// ---- capacity planner ------------------------------------------------

TEST(CapacityPlanner, RatesDifferByDeviceKind) {
  const WorkloadMix mix;
  const auto fpga_backend =
      minicl::make_shard_backend(minicl::BackendKind::kFpga, 0);
  const auto cpu_backend =
      minicl::make_shard_backend(minicl::BackendKind::kCpu, 0);
  const auto fpga_plan = plan_capacity(*fpga_backend, mix);
  const auto cpu_plan = plan_capacity(*cpu_backend, mix);
  EXPECT_TRUE(fpga_plan.enabled());
  EXPECT_TRUE(cpu_plan.enabled());
  // The modeled FPGA serves the mix far faster than the modeled CPU,
  // so its derived admission bounds are wider.
  EXPECT_GT(fpga_plan.modeled_rps, cpu_plan.modeled_rps);
  EXPECT_GT(serve::derived_queue_capacity(fpga_plan, 256),
            serve::derived_queue_capacity(cpu_plan, 256));
}

TEST(CapacityPlanner, HeavierMixLowersTheRate) {
  const auto backend =
      minicl::make_shard_backend(minicl::BackendKind::kFpga, 0);
  WorkloadMix light;
  WorkloadMix heavy = light;
  heavy.gamma_outputs = light.gamma_outputs * 64;
  heavy.credit_outputs = light.credit_outputs * 64;
  EXPECT_GT(plan_capacity(*backend, light).modeled_rps,
            plan_capacity(*backend, heavy).modeled_rps);
}

TEST(CapacityPlanner, ClusterPlansFollowTheDeviceCycle) {
  serve::ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.devices = {minicl::BackendKind::kFpga, minicl::BackendKind::kCpu};
  const auto plans = plan_cluster_capacity(cfg, WorkloadMix{});
  ASSERT_EQ(plans.size(), 4u);
  // Shards 0/2 are FPGA, 1/3 CPU — same kind, same modeled rate.
  EXPECT_DOUBLE_EQ(plans[0].modeled_rps, plans[2].modeled_rps);
  EXPECT_DOUBLE_EQ(plans[1].modeled_rps, plans[3].modeled_rps);
  EXPECT_GT(plans[0].modeled_rps, plans[1].modeled_rps);
}

// ---- capacity-derived bounds (serve/capacity.h) ----------------------

TEST(CapacityBounds, DisabledPlanKeepsTheFallback) {
  const serve::CapacityPlan off;  // modeled_rps == 0
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(serve::derived_queue_capacity(off, 256), 256u);
  EXPECT_EQ(serve::derived_max_batch(off, 16, 256), 16u);
}

TEST(CapacityBounds, NeverBelowOneEvenForGlacialDevices) {
  serve::CapacityPlan slow;
  slow.modeled_rps = 1e-9;
  const std::size_t queue = serve::derived_queue_capacity(slow, 256);
  EXPECT_GE(queue, 1u);
  EXPECT_GE(serve::derived_max_batch(slow, 16, queue), 1u);
  EXPECT_LE(serve::derived_max_batch(slow, 16, queue), queue);
}

TEST(CapacityBounds, FastDevicesAreClampedToTheHardCeiling) {
  serve::CapacityPlan fast;
  fast.modeled_rps = 1e12;
  EXPECT_EQ(serve::derived_queue_capacity(fast, 256),
            serve::kMaxDerivedQueue);
}

}  // namespace
}  // namespace dwi::tune
