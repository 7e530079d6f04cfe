#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<std::uint64_t> g_generation{0};

// Per-thread cache of the buffer registered with the current tracer;
// the generation check re-registers after a new tracer is installed.
struct ThreadState {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
  std::uint64_t current_span = 0;  ///< innermost open ScopedSpan
};
thread_local ThreadState t_state;

}  // namespace

Tracer::Tracer() : generation_(g_generation.fetch_add(1) + 1) {}

Tracer::~Tracer() {
  if (g_active.load() == this) g_active.store(nullptr);
}

Tracer* Tracer::active() { return g_active.load(std::memory_order_acquire); }

void Tracer::install(Tracer* t) {
  g_active.store(t, std::memory_order_release);
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (t_state.generation != generation_ || t_state.buffer == nullptr) {
    std::lock_guard lock(mutex_);
    auto b = std::make_unique<ThreadBuffer>();
    b->index = static_cast<std::uint32_t>(buffers_.size());
    b->spans.reserve(1024);
    t_state.buffer = b.get();
    t_state.generation = generation_;
    t_state.current_span = 0;
    buffers_.push_back(std::move(b));
  }
  return *static_cast<ThreadBuffer*>(t_state.buffer);
}

std::uint64_t Tracer::next_id() {
  ThreadBuffer& b = buffer();
  // Thread index in the high bits keeps ids unique without a shared
  // counter.
  return (static_cast<std::uint64_t>(b.index + 1) << 40) | ++b.next_local;
}

void Tracer::append(Span span) {
  ThreadBuffer& b = buffer();
  span.thread = b.index;
  b.spans.push_back(span);
}

std::uint64_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request) {
  const std::uint64_t id = next_id();
  append(Span{name, start_ns, end_ns, id, parent, request, 0});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request)
    : tracer_(Tracer::active()), name_(name), request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = t_state.current_span;
  saved_current_ = t_state.current_span;
  t_state.current_span = id_;
  start_ns_ = now_ns();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request,
                       std::uint64_t parent)
    : tracer_(Tracer::active()), name_(name), request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = parent;
  saved_current_ = t_state.current_span;
  t_state.current_span = id_;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = now_ns();
  t_state.current_span = saved_current_;
  tracer_->append(Span{name_, start_ns_, end, id_, parent_, request_, 0});
}

std::string layer_of(const char* name) {
  const std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

Attribution attribute(const std::vector<Span>& all, std::int64_t start_ns,
                      std::int64_t end_ns) {
  Attribution a;
  if (end_ns <= start_ns) return a;
  a.wall_seconds = static_cast<double>(end_ns - start_ns) * 1e-9;

  // Clip to the pass and index the surviving spans.
  std::vector<const Span*> spans;
  for (const Span& s : all) {
    if (s.end_ns > start_ns && s.start_ns < end_ns && s.end_ns > s.start_ns) {
      spans.push_back(&s);
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i]->id] = i;

  std::vector<std::string> layer_names;
  std::unordered_map<std::string, std::size_t> layer_index;
  std::vector<std::size_t> layer(spans.size());
  std::vector<long> parent(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string l = layer_of(spans[i]->name);
    auto [it, inserted] = layer_index.emplace(l, layer_names.size());
    if (inserted) layer_names.push_back(l);
    layer[i] = it->second;
    const auto p = index.find(spans[i]->parent);
    if (p != index.end()) parent[i] = static_cast<long>(p->second);
  }

  struct Event {
    std::int64_t t;
    int kind;  ///< 0 = end, 1 = start (ends first at equal times)
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(2 * spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    events.push_back({std::max(spans[i]->start_ns, start_ns), 1, i});
    events.push_back({std::min(spans[i]->end_ns, end_ns), 0, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    return x.t != y.t ? x.t < y.t : x.kind < y.kind;
  });

  std::vector<int> open_children(spans.size(), 0);
  std::vector<char> open(spans.size(), 0);
  std::vector<long> leaf_count(layer_names.size(), 0);
  long leaves = 0;
  std::vector<double> seconds(layer_names.size(), 0.0);
  const auto set_leaf = [&](std::size_t i, int delta) {
    leaf_count[layer[i]] += delta;
    leaves += delta;
  };

  std::int64_t t = start_ns;
  for (const Event& e : events) {
    if (e.t > t) {
      const double dt = static_cast<double>(e.t - t) * 1e-9;
      if (leaves == 0) {
        a.unattributed_seconds += dt;
      } else {
        for (std::size_t l = 0; l < seconds.size(); ++l) {
          if (leaf_count[l] != 0) {
            seconds[l] += dt * static_cast<double>(leaf_count[l]) /
                          static_cast<double>(leaves);
          }
        }
      }
      t = e.t;
    }
    const std::size_t i = e.span;
    const long p = parent[i];
    const bool parent_open = p >= 0 && open[static_cast<std::size_t>(p)];
    if (e.kind == 1) {
      open[i] = 1;
      if (open_children[i] == 0) set_leaf(i, +1);
      if (parent_open) {
        const auto pi = static_cast<std::size_t>(p);
        if (open_children[pi]++ == 0) set_leaf(pi, -1);
      }
    } else {
      if (!open[i]) continue;
      open[i] = 0;
      if (open_children[i] == 0) set_leaf(i, -1);
      if (parent_open) {
        const auto pi = static_cast<std::size_t>(p);
        if (--open_children[pi] == 0) set_leaf(pi, +1);
      }
    }
  }
  if (end_ns > t) a.unattributed_seconds += static_cast<double>(end_ns - t) * 1e-9;
  for (std::size_t l = 0; l < seconds.size(); ++l) {
    a.layer_seconds[layer_names[l]] = seconds[l];
  }
  return a;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) return;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  f << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) f << ",\n";
    first = false;
    f << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s.name)
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
      << ",\"ts\":" << static_cast<double>(s.start_ns - origin) * 1e-3
      << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}}";
  }
  f << "\n]}\n";
}

}  // namespace perfbench
