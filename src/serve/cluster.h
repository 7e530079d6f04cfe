// ShardedSamplingServer: the sampling service scaled out across
// simulated devices.
//
// The paper scales by replicating fully decoupled work-items that
// synchronize only at a shared channel; the serving layer scales the
// same way one level up: N independent SamplingServer shards, each
// bound to its own simulated device (minicl::ShardBackend — an
// fpgasim FPGA or a SIMT CPU/GPU/PHI instance it owns exclusively),
// behind one router. The scheduler model follows the
// tasks-across-device-owning-workers shape of "Enabling OpenMP Task
// Parallelism on Multi-FPGAs" (PAPERS.md): placement is a routing
// decision, and shards share nothing but the router and the
// process-wide serve workers (serve/batch_scheduler.h) that drain every
// shard's queue — a cluster starts no thread per shard.
//
// Placement policies:
//   * kConsistentHash — a virtual-node hash ring over the request id.
//     Hot/hot-retry ids land on a stable shard (idempotent retries,
//     future result caching); adding or removing a shard remaps only
//     the keys the ring moves (ConsistentHashRing pins this as a
//     property test).
//   * kLeastLoaded — shards ordered by current admission occupancy
//     (SamplingServer::queue_depth()), ties to the lowest index.
//
// Cross-shard stealing (ClusterConfig::steal): when the placed shard's
// bounded queue is full, the router retries the remaining shards in
// placement order instead of rejecting — hot keys overflow onto idle
// shards. Only when EVERY candidate is full does the caller see
// kQueueFull; the router never blocks and never drops an admitted
// request.
//
// Determinism contract (tests/test_cluster.cpp): every shard is
// configured with the SAME server_seed, so a request's response is
// derived from (server_seed, request id) counter-based substreams
// no matter which shard computes it. Shard count, routing policy,
// stealing, batching and thread count cannot move a single bit of
// any response — placement is invisible in the bytes, which is what
// makes stealing and re-sharding safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "minicl/shard_backend.h"
#include "serve/request.h"
#include "serve/sampling_server.h"

namespace dwi::serve {

/// The launch the router mirrors onto a shard's modeled device for one
/// computed request (minicl::ShardBackend::account).
struct ModeledLoad {
  std::uint64_t outputs = 0;
  float sector_variance = 1.0f;
};

/// Per-kind launch shape of a request: its modeled output count and
/// the sector variance that prices its rejection rate.
ModeledLoad modeled_load(const GammaRequest& req);
ModeledLoad modeled_load(const CreditRiskRequest& req);
ModeledLoad modeled_load(const HistogramRequest& req);
ModeledLoad modeled_load(const SpmvRequest& req);
ModeledLoad modeled_load(const MatchingRequest& req);

/// How the router places a request's primary shard.
enum class RouterPolicy { kConsistentHash, kLeastLoaded };

const char* to_string(RouterPolicy policy);

/// Consistent-hash ring with virtual nodes. Each shard owns
/// `vnodes_per_shard` pseudo-random points on a 64-bit ring; a key
/// belongs to the first vnode clockwise from its hash. Adding or
/// removing a shard only moves the keys whose owning arc changed —
/// the minimal-remap property the cluster relies on for re-sharding.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(std::size_t vnodes_per_shard = 64);

  void add_shard(std::size_t shard);
  void remove_shard(std::size_t shard);

  std::size_t num_shards() const { return num_shards_; }
  std::size_t vnodes_per_shard() const { return vnodes_; }
  bool empty() const { return ring_.empty(); }

  /// The shard owning `key` (the request id). Requires a non-empty
  /// ring.
  std::size_t shard_for(std::uint64_t key) const;

  /// Every distinct shard in clockwise ring order starting from the
  /// key's owner — the router's steal/retry order.
  std::vector<std::size_t> preference_order(std::uint64_t key) const;

 private:
  struct VNode {
    std::uint64_t point;
    std::size_t shard;
  };

  std::size_t vnodes_;
  std::size_t num_shards_ = 0;
  std::vector<VNode> ring_;  ///< sorted by point
};

struct ClusterConfig {
  std::size_t num_shards = 4;
  RouterPolicy policy = RouterPolicy::kConsistentHash;
  /// Retry-on-next-shard when the placed shard's queue is full.
  bool steal = true;
  /// Virtual nodes per shard on the consistent-hash ring.
  std::size_t virtual_nodes = 64;

  /// Per-shard server configuration. Every shard gets an identical
  /// copy — one server_seed for the whole cluster is precisely what
  /// makes placement irrelevant to response bytes. queue_capacity,
  /// max_batch, batching, substream geometry etc. all apply per shard
  /// exactly as set here.
  /// (shard.response_cache_entries turns on a PER-SHARD response
  /// cache; with consistent-hash placement, retries of an id land on
  /// the shard that cached it.)
  ServeConfig shard;

  /// Simulated device kind per shard; cycled when shorter than
  /// num_shards, all-FPGA when empty.
  std::vector<minicl::BackendKind> devices;

  /// Mirror admitted requests onto each shard's modeled device
  /// timeline (minicl::ShardBackend::account). Off leaves the device
  /// binding purely nominal.
  bool model_devices = true;
};

/// Per-shard slice of a cluster snapshot.
struct ShardSnapshot {
  std::string device;                 ///< backend name ("fpgasim:0 (...)")
  std::uint64_t routed_primary = 0;   ///< admitted here as first choice
  std::uint64_t stolen_in = 0;        ///< admitted here after a full primary
  double modeled_busy_seconds = 0.0;  ///< device-model busy time
  std::uint64_t modeled_launches = 0;
  std::size_t queue_depth = 0;        ///< admission occupancy at snapshot
  MetricsSnapshot metrics;            ///< the shard server's own counters
};

/// Router-level counters plus every shard's snapshot.
struct ClusterSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t stolen = 0;            ///< admitted on a non-primary shard
  std::uint64_t rejected_full = 0;     ///< every candidate shard was full
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_shutdown = 0;
  std::vector<ShardSnapshot> shards;

  /// Busy time of the most-loaded device — the modeled completion
  /// bound of the work admitted so far (capacity = admitted /
  /// bottleneck seconds).
  double bottleneck_modeled_seconds() const;
};

class ShardedSamplingServer {
 public:
  explicit ShardedSamplingServer(ClusterConfig cfg = {});
  ~ShardedSamplingServer();  ///< shutdown(): drains every shard

  ShardedSamplingServer(const ShardedSamplingServer&) = delete;
  ShardedSamplingServer& operator=(const ShardedSamplingServer&) = delete;

  /// Non-blocking admission through the router; same contract as
  /// SamplingServer::try_submit. kQueueFull means every candidate
  /// shard (one without stealing) was full.
  template <ServeRequest Request>
  ServeStatus try_submit(const Request& req,
                         std::future<ResultOf<Request>>* out);

  /// Throwing / synchronous wrappers, as on SamplingServer.
  template <ServeRequest Request>
  std::future<ResultOf<Request>> submit(const Request& req) {
    std::future<ResultOf<Request>> f;
    const ServeStatus s = try_submit(req, &f);
    if (s != ServeStatus::kAdmitted) {
      throw_rejected("cluster", kind_of<Request>, s);
    }
    return f;
  }
  template <ServeRequest Request>
  ResultOf<Request> run(const Request& req) {
    return submit(req).get();
  }

  /// Stop admitting cluster-wide, then drain every shard. Idempotent.
  void shutdown();

  ClusterSnapshot metrics() const;
  const ClusterConfig& config() const { return cfg_; }
  std::size_t num_shards() const { return shards_.size(); }
  SamplingServer& shard(std::size_t i) { return *shards_[i]->server; }
  const minicl::ShardBackend& backend(std::size_t i) const {
    return *shards_[i]->backend;
  }
  const ConsistentHashRing& ring() const { return ring_; }

  /// The shards the router would try for `id`, in order (index 0 is
  /// the primary; the rest is the steal order). Least-loaded placement
  /// is a point-in-time answer.
  std::vector<std::size_t> placement_order(RequestId id) const;

  /// Offline-reproduction accessors, identical on every shard (same
  /// seed, same geometry) — delegated to shard 0 so cluster responses
  /// can be recomputed without knowing placement.
  rng::Philox gamma_stream(RequestId id) const;
  rng::Philox sector_stream(RequestId id, std::size_t k) const;
  std::uint64_t poisson_seed(RequestId id) const;

 private:
  struct Shard {
    std::unique_ptr<SamplingServer> server;
    std::unique_ptr<minicl::ShardBackend> backend;
    std::atomic<std::uint64_t> routed_primary{0};
    std::atomic<std::uint64_t> stolen_in{0};
  };

  ClusterConfig cfg_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_invalid_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
};

template <ServeRequest Request>
ServeStatus ShardedSamplingServer::try_submit(
    const Request& req, std::future<ResultOf<Request>>* out) {
  DWI_ASSERT(out != nullptr);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!accepting_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return ServeStatus::kShuttingDown;
  }
  const std::vector<std::size_t> order = placement_order(req.id);
  // Without stealing only the placed shard is tried; with it, a full
  // primary falls through to the rest of the placement order.
  const std::size_t candidates = cfg_.steal ? order.size() : 1;
  for (std::size_t i = 0; i < candidates; ++i) {
    Shard& shard = *shards_[order[i]];
    bool cache_hit = false;
    const ServeStatus status = shard.server->try_submit(req, out, &cache_hit);
    switch (status) {
      case ServeStatus::kAdmitted:
        admitted_.fetch_add(1, std::memory_order_relaxed);
        if (i == 0) {
          shard.routed_primary.fetch_add(1, std::memory_order_relaxed);
        } else {
          shard.stolen_in.fetch_add(1, std::memory_order_relaxed);
          stolen_.fetch_add(1, std::memory_order_relaxed);
        }
        // A cached answer never reached the device: charging the
        // modeled timeline for it would overstate occupancy, so
        // accounting is for computed work only.
        if (cfg_.model_devices && !cache_hit) {
          const ModeledLoad load = modeled_load(req);
          shard.backend->account(load.outputs, load.sector_variance);
        }
        return status;
      case ServeStatus::kQueueFull:
        continue;  // retry-on-next-shard (or fall out of the loop)
      case ServeStatus::kInvalidRequest:
        rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
        return status;
      case ServeStatus::kShuttingDown:
        rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
        return status;
    }
  }
  rejected_full_.fetch_add(1, std::memory_order_relaxed);
  return ServeStatus::kQueueFull;
}

}  // namespace dwi::serve
