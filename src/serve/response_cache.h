// Bounded deterministic response cache (per server / per cluster
// shard, behind ServeConfig::response_cache_entries).
//
// The serving determinism contract makes responses cacheable by
// construction: a result is a pure function of (server_seed, request
// content), so two submissions of the SAME request to the SAME server
// must produce byte-identical responses — the second one can be
// answered from memory without touching the scheduler or the modeled
// backend. That is exactly the idempotent-retry shape the cluster's
// stable-hash placement produces: a retried request id hashes to the
// same shard, so a per-shard cache sees every retry of the ids it
// owns.
//
// Correctness over cleverness:
//   - The lookup key is the request itself, ordered by its defaulted
//     operator<=>: the FULL request content, not a hash — a hash
//     collision must never serve another request's bytes, and a field
//     added to a request joins the key automatically. (The cluster
//     still routes by stable hash; the cache just refuses to trust
//     one.)
//   - A CreditRisk+ key holds the request's portfolio shared_ptr.
//     Requests identify the portfolio by pointer (the portfolio is
//     immutable by contract, request.h), and holding it guarantees
//     the pointed-to object outlives the entry — a freed-and-reused
//     address can never alias a stale hit.
//   - Eviction is FIFO in insertion order: deterministic, independent
//     of wall-clock and of lookup timing, so a run's hit/miss sequence
//     is reproducible.
//
// A hit counts as submitted + completed (the client observed both) but
// NOT admitted — nothing entered the queue — and the cluster router
// skips ShardBackend::account() for it, so modeled device occupancy
// charges real work only. Hit/miss totals surface in MetricsSnapshot.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <tuple>

#include "serve/request.h"

namespace dwi::serve {

class ResponseCache {
 public:
  /// `max_entries` bounds EACH kind's store; 0 makes every lookup a
  /// miss and every insert a no-op (disabled).
  explicit ResponseCache(std::size_t max_entries)
      : max_entries_(max_entries) {}

  /// Exact-match lookup. On a hit, *out receives a copy of the cached
  /// result and the call returns true.
  template <ServeRequest Request>
  bool lookup(const Request& req, ResultOf<Request>* out) {
    if (max_entries_ == 0) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto& entries = store<Request>().entries;
    const auto it = entries.find(req);
    if (it == entries.end()) return false;
    *out = it->second;
    return true;
  }

  /// Record a computed response. Overwriting an existing entry keeps
  /// its FIFO position (the determinism contract guarantees the value
  /// is identical); the oldest entry of the same kind is evicted once
  /// max_entries is reached.
  template <ServeRequest Request>
  void insert(const Request& req, const ResultOf<Request>& result) {
    if (max_entries_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    KindStore<Request>& kind = store<Request>();
    const auto [it, inserted] = kind.entries.insert_or_assign(req, result);
    if (!inserted) return;
    kind.order.push_back(it);
    if (kind.order.size() > max_entries_) {
      kind.entries.erase(kind.order.front());
      kind.order.pop_front();
    }
  }

  std::size_t max_entries() const { return max_entries_; }
  std::size_t size() const;  ///< entries currently stored (all kinds)

 private:
  /// One kind's exact-key store with FIFO eviction in insertion order.
  /// std::map keeps lookups exact and iteration deterministic without
  /// inventing a request hash.
  template <typename Request>
  struct KindStore {
    using Map = std::map<Request, ResultOf<Request>>;
    Map entries;
    std::deque<typename Map::iterator> order;  ///< FIFO insertion order
  };

  /// The store of `Request`'s kind; a store placed out of RequestKind
  /// order in Stores fails to compile here.
  template <typename Request>
  KindStore<Request>& store() {
    return std::get<static_cast<std::size_t>(kind_of<Request>)>(stores_);
  }

  /// One store per kind, in RequestKind order.
  using Stores =
      std::tuple<KindStore<GammaRequest>, KindStore<CreditRiskRequest>,
                 KindStore<HistogramRequest>, KindStore<SpmvRequest>,
                 KindStore<MatchingRequest>>;
  static_assert(std::tuple_size_v<Stores> == kNumRequestKinds,
                "one response store per RequestKind");

  std::size_t max_entries_;
  mutable std::mutex mutex_;
  Stores stores_;
};

}  // namespace dwi::serve
