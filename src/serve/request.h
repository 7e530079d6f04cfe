// Typed requests and responses of the sampling service (src/serve).
//
// The serving layer exposes the paper's two workloads as multi-tenant
// request types: raw Marsaglia-Tsang gamma batches (the work-item
// kernel of Listing 2) and full CreditRisk+ portfolio loss
// distributions (§II-D4, the consumer those gammas exist for). Both
// carry a *client-assigned* request id: the id, together with the
// server seed, fully determines the request's RNG substream, so a
// request's result is a pure function of (server_seed, request
// content) — never of arrival order, batching decisions or thread
// count. See docs/SERVE.md for the determinism contract.
#pragma once

#include <compare>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "finance/portfolio.h"
#include "rng/normal.h"
#include "workloads/scheduling.h"

namespace dwi::serve {

/// Client-assigned request identity. Ids select disjoint counter-based
/// substream blocks; clients must keep them unique per server if they
/// want statistically independent results (reusing an id deliberately
/// replays the exact same stream — useful for idempotent retries).
using RequestId = std::uint64_t;

/// Workload class of a request; only same-kind jobs share a batch
/// (they have comparable per-request cost, which keeps batch tail
/// latency predictable). KindTraits below maps each request type to
/// its kind.
enum class RequestKind : std::uint8_t {
  kGamma,       ///< Marsaglia-Tsang gamma batch (the paper's kernel)
  kCreditRisk,  ///< CreditRisk+ loss distribution
  kHistogram,   ///< hazard-aware histogram (src/workloads)
  kSpmv,        ///< CSR SpMV with data-dependent trip counts
  kMatching,    ///< greedy maximal matching with a dynamic loop bound
};

/// Number of RequestKind members; keep in sync with the enum (the
/// exhaustive switches in to_string/parse are the compile-time check).
inline constexpr std::size_t kNumRequestKinds = 5;

/// Stable wire/JSON name of a kind — metrics and bench artifacts key
/// per-kind numbers by this instead of raw enum integers.
const char* to_string(RequestKind kind);

/// Round-trip inverse of to_string(); nullopt on unknown names.
std::optional<RequestKind> parse_request_kind(std::string_view name);

/// Admission verdict for a submission attempt.
enum class ServeStatus {
  kAdmitted,        ///< queued; the future will be fulfilled
  kQueueFull,       ///< bounded admission queue is full — back off and retry
  kShuttingDown,    ///< server no longer accepts work
  kInvalidRequest,  ///< request failed validation (limits, parameters)
};

const char* to_string(ServeStatus s);

/// Typed rejection thrown by the throwing submit()/run() wrappers.
/// try_submit() reports the same condition as a return status instead.
class RejectedError : public Error {
 public:
  RejectedError(ServeStatus status, const std::string& what)
      : Error(what), status_(status) {}

  ServeStatus status() const { return status_; }

 private:
  ServeStatus status_;
};

/// Throws the RejectedError the throwing submit() wrappers raise:
/// "<layer>: <kind> request rejected: <status>".
[[noreturn]] void throw_rejected(const char* layer, RequestKind kind,
                                 ServeStatus status);

/// Typed failure of an admitted request whose compute consumed more
/// than ServeConfig::substream_stride outputs from one of its
/// substreams, i.e. read into the next slot's window. The request's
/// future carries this error (counted as failed); other requests are
/// unaffected.
class StreamBudgetError : public Error {
 public:
  StreamBudgetError(RequestId id, std::uint64_t slot, std::uint64_t consumed,
                    std::uint64_t budget);

  RequestId id() const { return id_; }
  /// Slot within the request's substream block (0 = gamma/zoo slot,
  /// 1 + k = CreditRisk+ sector k).
  std::uint64_t slot() const { return slot_; }
  std::uint64_t consumed() const { return consumed_; }
  std::uint64_t budget() const { return budget_; }

 private:
  RequestId id_;
  std::uint64_t slot_;
  std::uint64_t consumed_;
  std::uint64_t budget_;
};

/// A batch of Gamma(alpha, scale) variates.
struct GammaRequest {
  RequestId id = 0;
  float alpha = 1.0f;        ///< shape; must be > 0
  float scale = 1.0f;        ///< scale; must be > 0
  std::uint32_t count = 0;   ///< variates requested; must be in (0, max]
  /// Uniform→normal transform for the nested sampler (§II-D3). The
  /// default is the paper's Config1/2 choice.
  rng::NormalTransform transform = rng::NormalTransform::kMarsagliaBray;

  auto operator<=>(const GammaRequest&) const = default;
};

struct GammaResult {
  RequestId id = 0;
  std::vector<float> samples;
  std::uint64_t attempts = 0;  ///< main-loop iterations spent
  std::uint64_t accepted = 0;  ///< == samples.size()
};

/// A CreditRisk+ Monte-Carlo loss-distribution job over a shared
/// (immutable) portfolio. One gamma substream per sector plus a
/// derived Poisson seed, all keyed by (server_seed, id).
struct CreditRiskRequest {
  RequestId id = 0;
  std::shared_ptr<const finance::Portfolio> portfolio;
  std::uint64_t num_scenarios = 0;  ///< must be in [2, max]

  auto operator<=>(const CreditRiskRequest&) const = default;
};

struct CreditRiskResult {
  RequestId id = 0;
  std::uint64_t scenarios = 0;
  double mean = 0.0;
  double variance = 0.0;
  double var95 = 0.0;   ///< VaR at 95%
  double var999 = 0.0;  ///< VaR at 99.9% (the regulatory quantile)
  double es999 = 0.0;   ///< expected shortfall beyond var999
};

// --- divergent-kernel zoo (src/workloads) ---------------------------------
//
// The zoo requests carry GENERATION PARAMETERS, not input data: the
// server derives the update trace / matrix / edge list from the
// request's own (server_seed, id) substream (slot 0 of the request's
// block, the same slot gamma batches use), so the response — values
// AND modeled cycle stats — stays a pure function of (server_seed,
// request content) and joins the cross-shard determinism matrix. The
// SchedulingMode knob moves cycles, never bytes of the payload.

/// Cycle accounting echoed into every zoo response. Deterministic
/// (derived from the trace, not from host timing), so it is part of
/// the response's determinism contract like any other field.
struct WorkloadStatsResult {
  std::uint64_t cycles = 0;
  std::uint64_t initiations = 0;
  std::uint64_t hazard_stall_cycles = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t skipped = 0;
};

/// Hazard-aware histogram (workloads/histogram.h).
struct HistogramRequest {
  RequestId id = 0;
  std::uint32_t num_updates = 0;  ///< must be in (0, max]
  std::uint32_t num_bins = 256;   ///< must be in [1, max]
  /// Fraction of updates hitting bin 0 — the RAW-collision knob.
  float hot_fraction = 0.0f;      ///< must be in [0, 1]
  workloads::SchedulingMode mode = workloads::SchedulingMode::kDynamic;

  auto operator<=>(const HistogramRequest&) const = default;
};

struct HistogramResult {
  RequestId id = 0;
  std::vector<float> bins;
  std::uint64_t updates = 0;
  WorkloadStatsResult stats;
};

/// CSR SpMV with data-dependent row trip counts (workloads/spmv.h);
/// the matrix is square (cols == rows).
struct SpmvRequest {
  RequestId id = 0;
  std::uint32_t rows = 0;          ///< must be in [1, max]
  std::uint32_t nnz_per_row_min = 0;
  std::uint32_t nnz_per_row_max = 8;  ///< >= min, <= max limit
  workloads::SchedulingMode mode = workloads::SchedulingMode::kDynamic;

  auto operator<=>(const SpmvRequest&) const = default;
};

struct SpmvResult {
  RequestId id = 0;
  std::vector<float> y;
  std::uint64_t nnz = 0;
  WorkloadStatsResult stats;
};

/// Greedy maximal matching with a dynamically-modified loop bound
/// (workloads/matching.h).
struct MatchingRequest {
  RequestId id = 0;
  std::uint32_t num_vertices = 0;  ///< must be in [2, max]
  std::uint32_t num_edges = 0;     ///< must be in (0, max]
  /// Pair quota turning the loop bound dynamic (0 = full pass).
  std::uint32_t target_pairs = 0;
  workloads::SchedulingMode mode = workloads::SchedulingMode::kDynamic;

  auto operator<=>(const MatchingRequest&) const = default;
};

struct MatchingResult {
  RequestId id = 0;
  std::vector<std::int32_t> match;
  std::uint32_t pairs = 0;
  std::uint64_t edges_examined = 0;
  WorkloadStatsResult stats;
};

/// The request-kind trait table: each request type's RequestKind tag
/// and result type. Every per-kind layer (server admission, cluster
/// routing, response cache) is one template over this table; what
/// really differs per kind lives in the validate()/compute()/
/// modeled_load() overloads.
template <typename Request>
struct KindTraits;

template <>
struct KindTraits<GammaRequest> {
  static constexpr RequestKind kind = RequestKind::kGamma;
  using Result = GammaResult;
};
template <>
struct KindTraits<CreditRiskRequest> {
  static constexpr RequestKind kind = RequestKind::kCreditRisk;
  using Result = CreditRiskResult;
};
template <>
struct KindTraits<HistogramRequest> {
  static constexpr RequestKind kind = RequestKind::kHistogram;
  using Result = HistogramResult;
};
template <>
struct KindTraits<SpmvRequest> {
  static constexpr RequestKind kind = RequestKind::kSpmv;
  using Result = SpmvResult;
};
template <>
struct KindTraits<MatchingRequest> {
  static constexpr RequestKind kind = RequestKind::kMatching;
  using Result = MatchingResult;
};

/// A type with a KindTraits entry, i.e. one of the served requests.
template <typename Request>
concept ServeRequest = requires {
  { KindTraits<Request>::kind } -> std::convertible_to<RequestKind>;
};

template <ServeRequest Request>
using ResultOf = typename KindTraits<Request>::Result;

template <ServeRequest Request>
inline constexpr RequestKind kind_of = KindTraits<Request>::kind;

}  // namespace dwi::serve
