// Structured, deterministic parallel loops over the global pool.
//
// parallel_for(n, f) runs f(0..n-1) with the calling thread
// participating: helper tasks are submitted to the pool, every thread
// (caller included) claims indices from a shared atomic counter, and
// the call returns once all n iterations completed. Because the caller
// always makes progress, nesting is safe — an inner parallel_for
// inside a pool task degrades gracefully instead of deadlocking, and
// the whole process shares one pool (no oversubscription spiral).
//
// Determinism: the *schedule* (which thread runs which index, in what
// order) is nondeterministic; anything affecting results must
// therefore depend only on the index. parallel_map writes slot i from
// f(i) and parallel_reduce folds the slots in index order on the
// caller — floating-point sums come out bit-identical for any thread
// count, which is what lets the simulators use these loops without
// perturbing calibrated outputs (tests/test_exec.cpp pins this).
//
// Exceptions: the first exception thrown by any f(i) is captured and
// rethrown on the calling thread after all claimed iterations drain;
// unclaimed indices are abandoned.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace dwi::exec {

namespace detail {

struct ParallelForState {
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure, guarded by mutex

  void finish_one() {
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      // Lock so the notify cannot race ahead of the waiter's predicate
      // check (classic missed-wakeup guard).
      std::lock_guard lock(mutex);
      cv.notify_all();
    }
  }

  void fail(std::exception_ptr e) {
    {
      std::lock_guard lock(mutex);
      if (!error) error = std::move(e);
    }
    failed.store(true, std::memory_order_release);
  }
};

/// Claim-and-run loop shared by the caller and the helper tasks.
/// Every index is claimed and counted even after a failure (its body
/// is just skipped), so `done` always converges to n and the waiter
/// cannot hang. `f` is only dereferenced for claimed in-range indices,
/// so a helper dequeued after parallel_for returned touches nothing
/// stale.
template <typename F>
void drain(ParallelForState& st, F* f) {
  for (;;) {
    const std::size_t i = st.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st.n) return;
    if (!st.failed.load(std::memory_order_acquire)) {
      try {
        (*f)(i);
      } catch (...) {
        st.fail(std::current_exception());
      }
    }
    st.finish_one();
  }
}

}  // namespace detail

/// Run f(i) for every i in [0, n), in parallel over the global pool.
/// A single index runs inline on the caller without touching the pool.
template <typename F>
void parallel_for(std::size_t n, F&& f) {
  if (n == 0) return;
  if (n == 1) {
    f(std::size_t{0});
    return;
  }
  ThreadPool& pool = global_pool();
  const std::size_t helpers =
      std::min<std::size_t>(pool.workers(), n - 1);
  if (helpers == 0) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }

  auto st = std::make_shared<detail::ParallelForState>();
  st->n = n;
  using Fn = std::remove_reference_t<F>;
  Fn* fp = &f;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([st, fp] { detail::drain(*st, fp); });
  }
  detail::drain(*st, fp);

  std::unique_lock lock(st->mutex);
  st->cv.wait(lock, [&] {
    return st->done.load(std::memory_order_acquire) == st->n;
  });
  if (st->error) std::rethrow_exception(st->error);
}

/// Map i -> f(i) into a vector, slot i written by iteration i only:
/// the result is independent of the schedule. R must be
/// default-constructible and move-assignable.
template <typename F>
auto parallel_map(std::size_t n, F&& f)
    -> std::vector<decltype(f(std::size_t{0}))> {
  std::vector<decltype(f(std::size_t{0}))> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

/// Deterministic reduction: compute the n partial results in parallel,
/// then fold them *in index order* on the calling thread —
/// acc = reduce(move(acc), part[0]), then part[1], ... — so
/// non-associative folds (floating-point accumulation) match the
/// serial loop bit-for-bit.
template <typename T, typename F, typename R>
T parallel_reduce(std::size_t n, T init, F&& f, R&& reduce) {
  auto parts = parallel_map(n, std::forward<F>(f));
  T acc = std::move(init);
  for (auto& p : parts) acc = reduce(std::move(acc), std::move(p));
  return acc;
}

}  // namespace dwi::exec
