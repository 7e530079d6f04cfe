#include "open_loop.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "trace.h"

namespace perfbench {
namespace {

struct Entry {
  std::uint64_t seq = 0;
  std::int64_t due_ns = 0;
  std::int64_t returned_ns = 0;
  double admit_s = 0.0;
  std::unique_ptr<Pending> pending;
};

}  // namespace

OpenLoopRun run_open_loop(OpenLoopTarget& target, const OpenLoopSpec& spec) {
  OpenLoopRun run;
  const auto n = static_cast<std::uint64_t>(std::llround(spec.rate * spec.seconds));
  run.gen_lag_s.reserve(n);
  run.latency_s.reserve(n);
  run.admit_s.reserve(n);
  run.inflight_s.reserve(n);
  run.seqs.reserve(n);

  std::mutex mutex;  // guards inbox and sending_done
  std::condition_variable cv;
  std::deque<Entry> inbox;
  bool sending_done = false;
  std::int64_t last_observed_ns = 0;
  Tracer* tracer = Tracer::active();

  std::thread collector([&] {
    std::vector<Entry> pending;
    for (;;) {
      {
        std::unique_lock lock(mutex);
        if (pending.empty()) {
          cv.wait(lock, [&] { return !inbox.empty() || sending_done; });
        }
        while (!inbox.empty()) {
          pending.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
        if (pending.empty() && sending_done) break;
      }
      if (pending.empty()) continue;
      const bool front_ready = pending.front().pending->wait_for(spec.poll);
      std::size_t kept = 0;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        Entry& e = pending[i];
        const bool ready =
            (i == 0 && front_ready) ||
            e.pending->wait_for(std::chrono::nanoseconds(0));
        if (!ready) {
          if (kept != i) pending[kept] = std::move(e);
          ++kept;
          continue;
        }
        const std::int64_t observed = now_ns();
        last_observed_ns = std::max(last_observed_ns, observed);
        if (tracer != nullptr) {
          tracer->record(spec.request_span, e.returned_ns, observed, 0, e.seq);
        }
        if (e.pending->finish()) {
          run.latency_s.push_back(static_cast<double>(observed - e.due_ns) * 1e-9);
          run.admit_s.push_back(e.admit_s);
          run.inflight_s.push_back(
              static_cast<double>(observed - e.returned_ns) * 1e-9);
          run.seqs.push_back(e.seq);
        } else {
          ++run.failed;
        }
      }
      pending.resize(kept);
    }
  });

  const std::int64_t t0 = now_ns();
  run.start_ns = t0;
  const auto stop_collector = [&] {
    {
      std::lock_guard lock(mutex);
      sending_done = true;
    }
    cv.notify_one();
    collector.join();
  };
  try {
    for (std::uint64_t seq = 0; seq < n; ++seq) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(static_cast<double>(seq) / spec.rate * 1e9);
      const std::int64_t now = now_ns();
      if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      const std::int64_t submit_ns = now_ns();
      run.gen_lag_s.push_back(static_cast<double>(submit_ns - due) * 1e-9);
      std::unique_ptr<Pending> p = target.submit(seq);
      const std::int64_t returned = now_ns();
      if (tracer != nullptr) {
        tracer->record(spec.submit_span, submit_ns, returned, 0, seq);
      }
      ++run.sent;
      if (!p) {
        ++run.refused;
        continue;
      }
      {
        std::lock_guard lock(mutex);
        inbox.push_back(Entry{seq, due, returned,
                              static_cast<double>(returned - submit_ns) * 1e-9,
                              std::move(p)});
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_collector();  // a throwing target must not leave it unjoined
    throw;
  }
  const std::int64_t send_end = now_ns();
  stop_collector();
  run.end_ns = std::max(send_end, last_observed_ns);
  return run;
}

}  // namespace perfbench
