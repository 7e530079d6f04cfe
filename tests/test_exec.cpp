// Determinism tests for the parallel execution engine (src/exec):
//   * parallel_for / parallel_map / parallel_reduce cover every index
//     exactly once, keep results in index order, and propagate
//     exceptions;
//   * the prerun+replay KernelSim engine is bit-identical to the
//     serial reference for 1 / 2 / 8 threads;
//   * SubstreamSplitter serves order-independent jump-ahead substreams
//     that tile the master sequence;
//   * the SIMT runtime estimate and GammaWorkItem streams do not
//     depend on the thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/gamma_work_item.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "fpga/kernel_sim.h"
#include "rng/configs.h"
#include "rng/jump.h"
#include "simt/runtime_estimator.h"

namespace dwi {
namespace {

/// Restores the default thread count when a test returns early.
struct ThreadCountGuard {
  ~ThreadCountGuard() { exec::set_thread_count(0); }
};

/// Restores DWI_THREADS (value or absence) when a test returns.
class EnvThreadsGuard {
 public:
  EnvThreadsGuard() {
    if (const char* v = std::getenv("DWI_THREADS")) saved_ = v;
  }
  ~EnvThreadsGuard() {
    if (saved_) {
      ::setenv("DWI_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("DWI_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

// ---------------------------------------------------------------------
// parallel_for / parallel_map / parallel_reduce
// ---------------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    std::vector<std::atomic<int>> hits(1000);
    exec::parallel_for(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ZeroAndOneIndexWork) {
  exec::parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  exec::parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SingleIndexRunsInlineWithoutResolvingThePool) {
  // One index needs no helper, so parallel_for(1, f) must not size the
  // pool: with no override and a DWI_THREADS that parse_threads
  // rejects, it still runs f exactly once on the caller.
  ThreadCountGuard threads;
  exec::set_thread_count(0);
  EnvThreadsGuard env;  // destroyed first: the pool reset re-reads it
  ::setenv("DWI_THREADS", "0", 1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  std::thread::id ran_on;
  EXPECT_NO_THROW(exec::parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
    ran_on = std::this_thread::get_id();
  }));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, caller);
  EXPECT_THROW(exec::parallel_for(1,
                                  [](std::size_t) {
                                    throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionsAndDoesNotHang) {
  ThreadCountGuard guard;
  exec::set_thread_count(4);
  EXPECT_THROW(exec::parallel_for(100,
                                  [](std::size_t i) {
                                    if (i == 37) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // The caller participates in its own loop, so a body that itself
  // calls parallel_for cannot starve: even with every pool worker
  // blocked in outer bodies, each blocked caller keeps claiming its
  // inner indices.
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  std::atomic<int> total{0};
  exec::parallel_for(8, [&](std::size_t) {
    exec::parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelMap, ResultsAreInIndexOrderForAnyThreadCount) {
  ThreadCountGuard guard;
  for (const unsigned threads : {1u, 3u, 8u}) {
    exec::set_thread_count(threads);
    const auto squares =
        exec::parallel_map(257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 257u);
    for (std::size_t i = 0; i < squares.size(); ++i) {
      ASSERT_EQ(squares[i], i * i);
    }
  }
}

TEST(ParallelReduce, FoldsInIndexOrder) {
  // Floating-point reduction: the fold happens on the caller in index
  // order, so the sum is bitwise identical to the serial loop no
  // matter how many threads computed the terms.
  ThreadCountGuard guard;
  const auto term = [](std::size_t i) {
    return 1.0 / static_cast<double>(i + 1);
  };
  double serial = 0.0;
  for (std::size_t i = 0; i < 5000; ++i) serial += term(i);
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    const double parallel = exec::parallel_reduce(
        5000, 0.0, term, [](double a, double b) { return a + b; });
    ASSERT_EQ(serial, parallel) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------

TEST(ExecConfig, ParseThreadsAcceptsPlainPositiveCounts) {
  EXPECT_EQ(exec::ExecConfig::parse_threads("1"), 1u);
  EXPECT_EQ(exec::ExecConfig::parse_threads("8"), 8u);
  EXPECT_EQ(exec::ExecConfig::parse_threads("007"), 7u);
  EXPECT_EQ(exec::ExecConfig::parse_threads("4096"),
            exec::ExecConfig::kMaxThreads);
}

TEST(ExecConfig, ParseThreadsRejectsMisconfigurations) {
  // A silently ignored bad DWI_THREADS used to misconfigure the pool;
  // each of these must now fail loudly instead.
  EXPECT_THROW(exec::ExecConfig::parse_threads(""), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("0"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("000"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("-2"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("+4"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads(" 8"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("8 "), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("4x"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("not-a-number"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("0x10"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("4097"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("99999999999"), Error);
}

TEST(ExecConfig, EnvParsingAndOverride) {
  ThreadCountGuard guard;
  EnvThreadsGuard env;  // destroyed first: the pool reset re-reads it
  ::setenv("DWI_THREADS", "3", 1);
  EXPECT_EQ(exec::ExecConfig::from_env().resolved(), 3u);
  ::setenv("DWI_THREADS", "not-a-number", 1);
  EXPECT_THROW(exec::ExecConfig::from_env(), Error);
  ::setenv("DWI_THREADS", "0", 1);
  EXPECT_THROW(exec::ExecConfig::from_env(), Error);
  ::unsetenv("DWI_THREADS");
  EXPECT_GE(exec::ExecConfig::from_env().resolved(), 1u);

  exec::set_thread_count(5);
  EXPECT_EQ(exec::thread_count(), 5u);
  exec::set_thread_count(0);
  EXPECT_GE(exec::thread_count(), 1u);
}

// ---------------------------------------------------------------------
// KernelSim: parallel engine == serial engine, bit for bit
// ---------------------------------------------------------------------

fpga::KernelSimConfig small_sim_config(fpga::SimEngine engine) {
  fpga::KernelSimConfig cfg;
  cfg.work_items = 4;
  cfg.outputs_per_work_item = 3000;
  cfg.stream_depth = 16;
  cfg.burst_beats = 8;
  cfg.record_outputs = true;
  cfg.engine = engine;
  return cfg;
}

void expect_identical(const fpga::KernelSimResult& a,
                      const fpga::KernelSimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.compute_stall_cycles, b.compute_stall_cycles);
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_EQ(a.channel_bytes_per_cycle, b.channel_bytes_per_cycle);
  ASSERT_EQ(a.outputs_data.size(), b.outputs_data.size());
  for (std::size_t i = 0; i < a.outputs_data.size(); ++i) {
    ASSERT_EQ(a.outputs_data[i], b.outputs_data[i]) << "output " << i;
  }
}

fpga::ProducerFactory bernoulli_factory() {
  return [](unsigned wid) {
    return std::make_unique<fpga::BernoulliProducer>(0.7, 1000u + wid);
  };
}

fpga::ProducerFactory gamma_factory() {
  return [](unsigned wid) {
    core::GammaWorkItemConfig wc;
    wc.app = rng::config(rng::ConfigId::kConfig1);
    wc.sector_variances = {1.39f, 0.25f};
    wc.outputs_per_sector = 1500;
    wc.work_item_id = wid;
    wc.seed = 7u;
    return std::make_unique<core::GammaWorkItem>(wc);
  };
}

TEST(KernelSimEngines, ParallelMatchesSerialBernoulli) {
  ThreadCountGuard guard;
  const auto serial =
      fpga::simulate_kernel(small_sim_config(fpga::SimEngine::kSerial),
                            bernoulli_factory());
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    const auto parallel =
        fpga::simulate_kernel(small_sim_config(fpga::SimEngine::kParallel),
                              bernoulli_factory());
    SCOPED_TRACE(threads);
    expect_identical(serial, parallel);
  }
}

TEST(KernelSimEngines, ParallelMatchesSerialGammaNumerics) {
  // The real Listing 2 producer: rejection sampling with enable-gated
  // twisters. quota = outputs_per_sector x sectors.
  ThreadCountGuard guard;
  auto cfg = small_sim_config(fpga::SimEngine::kSerial);
  cfg.outputs_per_work_item = 3000;
  const auto serial = fpga::simulate_kernel(cfg, gamma_factory());
  EXPECT_EQ(serial.outputs, 4u * 3000u);
  for (const unsigned threads : {2u, 8u}) {
    exec::set_thread_count(threads);
    cfg.engine = fpga::SimEngine::kParallel;
    const auto parallel = fpga::simulate_kernel(cfg, gamma_factory());
    SCOPED_TRACE(threads);
    expect_identical(serial, parallel);
  }
}

TEST(KernelSimEngines, ParallelMatchesSerialTrace) {
  // The per-cycle Fig 3 trace is the most schedule-sensitive artifact;
  // replay must reproduce it character for character.
  ThreadCountGuard guard;
  exec::set_thread_count(4);
  auto cfg = small_sim_config(fpga::SimEngine::kSerial);
  cfg.outputs_per_work_item = 200;
  fpga::ScheduleTrace serial_trace;
  cfg.trace = &serial_trace;
  (void)fpga::simulate_kernel(cfg, bernoulli_factory());

  fpga::ScheduleTrace parallel_trace;
  cfg.engine = fpga::SimEngine::kParallel;
  cfg.trace = &parallel_trace;
  (void)fpga::simulate_kernel(cfg, bernoulli_factory());

  ASSERT_EQ(serial_trace.work_items.size(), parallel_trace.work_items.size());
  for (std::size_t w = 0; w < serial_trace.work_items.size(); ++w) {
    EXPECT_EQ(serial_trace.work_items[w], parallel_trace.work_items[w]);
  }
  EXPECT_EQ(serial_trace.channel, parallel_trace.channel);
}

// ---------------------------------------------------------------------
// RNG substreams
// ---------------------------------------------------------------------

TEST(SubstreamSplitter, TilesTheMasterSequence) {
  const auto p = rng::mt521_params();
  constexpr std::uint64_t kStride = 2000;
  const rng::SubstreamSplitter splitter(p, 11u, kStride);
  rng::MersenneTwister master(p, 11u);
  for (std::uint64_t s = 0; s < 4; ++s) {
    rng::MersenneTwister stream = splitter.stream(s);
    for (std::uint64_t i = 0; i < kStride; ++i) {
      ASSERT_EQ(stream.next(), master.next())
          << "substream " << s << " output " << i;
    }
  }
}

TEST(SubstreamSplitter, AccessOrderDoesNotMatter) {
  // Parallel shards claim indices dynamically; stream(i) must depend
  // only on i. Query out of order and compare with in-order access.
  const auto p = rng::mt521_params();
  const rng::SubstreamSplitter splitter(p, 3u, 777);
  rng::MersenneTwister late_first = splitter.stream(5);
  rng::MersenneTwister early = splitter.stream(1);
  rng::MersenneTwister late_again = splitter.stream(5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(late_first.next(), late_again.next());
  }
  // And it equals the eager partitioning helper.
  auto eager = rng::make_parallel_streams(p, 3u, 2, 777);
  for (int i = 0; i < 500; ++i) ASSERT_EQ(early.next(), eager[1].next());
}

TEST(GammaWorkItem, JumpAheadStrategyIsDeterministic) {
  // Jump-ahead needs a small DCMT geometry — Config2/4 (MT521), not
  // Config1/3 (MT19937).
  const auto run = [] {
    core::GammaWorkItemConfig wc;
    wc.app = rng::config(rng::ConfigId::kConfig2);
    wc.outputs_per_sector = 200;
    wc.stream_strategy = core::StreamStrategy::kJumpAhead;
    wc.work_item_id = 2;
    wc.seed = 5u;
    core::GammaWorkItem wi(wc);
    std::vector<float> out;
    float v = 0.0f;
    while (!wi.finished()) {
      if (wi.produce(&v)) out.push_back(v);
    }
    return out;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 200u);
  ASSERT_EQ(a, b);
}

TEST(GammaWorkItem, JumpAheadWorkItemsDrawDisjointSubstreams) {
  // Work-items 0 and 1 use substream indices 0..3 and 4..7 of one
  // master sequence — their outputs must differ.
  const auto run = [](unsigned wid) {
    core::GammaWorkItemConfig wc;
    wc.app = rng::config(rng::ConfigId::kConfig2);
    wc.outputs_per_sector = 100;
    wc.stream_strategy = core::StreamStrategy::kJumpAhead;
    wc.work_item_id = wid;
    wc.seed = 5u;
    core::GammaWorkItem wi(wc);
    std::vector<float> out;
    float v = 0.0f;
    while (!wi.finished()) {
      if (wi.produce(&v)) out.push_back(v);
    }
    return out;
  };
  EXPECT_NE(run(0), run(1));
}

TEST(GammaWorkItem, JumpAheadRejectsHugeGeometries) {
  // MT19937's dense GF(2) matrix is out of range for rng/jump; the
  // strategy must fail loudly rather than silently fall back.
  core::GammaWorkItemConfig wc;
  wc.app = rng::config(rng::ConfigId::kConfig1);  // MT19937
  wc.stream_strategy = core::StreamStrategy::kJumpAhead;
  EXPECT_THROW(core::GammaWorkItem{wc}, Error);
}

// ---------------------------------------------------------------------
// SIMT estimator thread-invariance
// ---------------------------------------------------------------------

TEST(RuntimeEstimator, ResultIsThreadCountInvariant) {
  ThreadCountGuard guard;
  const auto& cfg = rng::config(rng::ConfigId::kConfig1);
  simt::NdRangeWorkload w;
  exec::set_thread_count(1);
  const auto serial = simt::estimate_runtime(
      simt::platform(simt::PlatformId::kGpu), cfg,
      cfg.fixed_arch_transform, w);
  for (const unsigned threads : {2u, 8u}) {
    exec::set_thread_count(threads);
    const auto parallel = simt::estimate_runtime(
        simt::platform(simt::PlatformId::kGpu), cfg,
        cfg.fixed_arch_transform, w);
    EXPECT_EQ(serial.seconds, parallel.seconds);
    EXPECT_EQ(serial.slots_total, parallel.slots_total);
    EXPECT_EQ(serial.simd_efficiency, parallel.simd_efficiency);
    EXPECT_EQ(serial.rejection_rate, parallel.rejection_rate);
    EXPECT_EQ(serial.slots_per_output, parallel.slots_per_output);
  }
}

}  // namespace
}  // namespace dwi
