// Span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call
// into a library layer; the library itself is not instrumented. A span
// holds its name ("<layer>.<function>"), start and end on the
// steady clock, the span that caused it, and the request it serves.
// Each thread appends to its own buffer (no lock on the hot path); the
// buffers are merged when the run ends.
//
// With no Tracer installed every ScopedSpan is a null check, which is
// how the untraced runs that produce the end-to-end metrics execute.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";      ///< "<layer>.<function>", static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< unique within a Tracer, never 0
  std::uint64_t parent = 0;   ///< 0 = no parent
  std::uint64_t request = 0;  ///< request id, 0 = not request-scoped
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or null when tracing is off.
  static Tracer* active();
  /// Install `t` (null uninstalls). Call only while no span is open.
  static void install(Tracer* t);

  /// Append a finished span on the calling thread; returns its id.
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t request);
  /// Reserve an id for a span whose end is recorded later.
  std::uint64_t next_id();
  /// Append a finished span with an id from next_id() on the calling
  /// thread (its thread field is filled in).
  void append(Span span);

  /// Every span recorded so far, merged over threads.
  std::vector<Span> spans() const;

 private:
  struct ThreadBuffer {
    std::uint32_t index = 0;
    std::uint64_t next_local = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer& buffer();

  const std::uint64_t generation_;
  mutable std::mutex mutex_;  ///< guards buffers_ (registration, merge)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span on the calling thread. Spans opened on one thread nest
/// automatically; a span opened for another thread's work names its
/// parent explicitly.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ScopedSpan(const char* name, std::uint64_t request, std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off): pass it as the parent of
  /// work handed to other threads.
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t request_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t saved_current_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Wall-time attribution of one timed pass. At every instant the pass
/// interval is split evenly among the innermost spans open at that
/// instant (a span whose children are all closed counts as innermost),
/// and each share goes to the span's layer (the name up to the first
/// '.'). Instants with no open span are unattributed. The shares and
/// the unattributed remainder add up to the pass wall time exactly.
struct Attribution {
  double wall_seconds = 0.0;
  double unattributed_seconds = 0.0;
  std::map<std::string, double> layer_seconds;
};

Attribution attribute(const std::vector<Span>& spans, std::int64_t start_ns,
                      std::int64_t end_ns);

/// Layer prefix of a span name ("serve.try_submit" -> "serve").
std::string layer_of(const char* name);

/// Chrome trace-event JSON ("X" events, microseconds) of `spans`.
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench
