#include "workloads/histogram.h"

#include <optional>

#include "common/error.h"
#include "common/ring_buffer.h"
#include "workloads/forwarding_buffer.h"

namespace dwi::workloads {

namespace {

struct Update {
  std::uint32_t addr = 0;
  float weight = 0.0f;
};

}  // namespace

std::vector<float> histogram_oracle(std::uint32_t num_bins,
                                    const std::vector<std::uint32_t>& addrs,
                                    const std::vector<float>& weights) {
  DWI_REQUIRE(num_bins >= 1, "histogram: need at least one bin");
  DWI_REQUIRE(addrs.size() == weights.size(),
              "histogram: addrs/weights length mismatch");
  std::vector<float> bins(num_bins, 0.0f);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    DWI_REQUIRE(addrs[i] < num_bins, "histogram: address out of range");
    bins[addrs[i]] += weights[i];
  }
  return bins;
}

HistogramOutput run_histogram(const HistogramConfig& cfg,
                              const std::vector<std::uint32_t>& addrs,
                              const std::vector<float>& weights) {
  DWI_REQUIRE(cfg.num_bins >= 1, "histogram: need at least one bin");
  DWI_REQUIRE(cfg.chain_latency >= 1, "histogram: chain latency >= 1");
  DWI_REQUIRE(cfg.forward_stall >= 1 &&
                  cfg.forward_stall < cfg.chain_latency,
              "histogram: forward stall must be in [1, chain_latency)");
  DWI_REQUIRE(addrs.size() == weights.size(),
              "histogram: addrs/weights length mismatch");

  HistogramOutput out;
  out.bins.assign(cfg.num_bins, 0.0f);

  // The in-flight window: an update issued k cycles ago,
  // k in [1, chain_latency-1], has not stored yet and must be snooped.
  const unsigned window =
      cfg.chain_latency > 1 ? cfg.chain_latency - 1 : 0;
  std::optional<ForwardingBuffer<std::uint32_t>> fb;
  if (cfg.mode == SchedulingMode::kDynamic && window > 0) {
    fb.emplace(window);
  }

  // The fetch→update FIFO. Both work-items step in this one loop, so
  // the plain single-threaded ring models it without a lock.
  RingBuffer<Update> channel(cfg.stream_depth);
  const std::size_t n = addrs.size();
  std::size_t fetched = 0;    // next trace element the fetch stage sends
  std::size_t processed = 0;  // updates retired by the update stage
  unsigned stall = 0;         // update-stage bubble cycles outstanding
  WorkloadStats& stats = out.stats;

  // One iteration = one cycle; both work-items advance concurrently.
  // The update stage runs first within the cycle, so a value written by
  // the fetch stage is visible one cycle later — the FIFO's registered
  // output.
  while (processed < n) {
    // --- update work-item -------------------------------------------
    if (stall > 0) {
      --stall;
      ++stats.hazard_stall_cycles;
      if (fb) fb->push_bubble();
    } else {
      if (!channel.empty()) {
        const Update u = channel.pop();
        DWI_REQUIRE(u.addr < cfg.num_bins,
                    "histogram: address out of range");
        out.bins[u.addr] += u.weight;  // trace order in both modes
        ++stats.initiations;
        ++processed;
        if (cfg.mode == SchedulingMode::kStatic) {
          // Conservative schedule: the next update may hit the same
          // bin, so it waits out the whole RMW chain.
          stall = cfg.chain_latency - 1;
        } else if (fb) {
          const bool collide = fb->snoop(u.addr);
          fb->push(u.addr);
          if (collide) {
            ++stats.forwarded;
            stall = cfg.forward_stall;
          }
        }
      } else {
        ++stats.pipe_empty_stall_cycles;
        if (fb) fb->push_bubble();
      }
    }

    // --- fetch work-item --------------------------------------------
    if (fetched < n) {
      if (channel.try_push(Update{addrs[fetched], weights[fetched]})) {
        ++fetched;
      } else {
        ++stats.pipe_full_stall_cycles;
      }
    }

    ++stats.cycles;
  }
  return out;
}

}  // namespace dwi::workloads
