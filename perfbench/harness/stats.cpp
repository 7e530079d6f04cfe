#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

namespace perfbench {
namespace {

/// Shortest round-trip decimal text of `v`; non-finite values are null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

TailPercentile tail_percentile(std::vector<double> values, double cap,
                               std::size_t min_beyond) {
  TailPercentile t;
  t.count = values.size();
  if (values.empty()) return t;
  const std::size_t n = values.size();
  // Nearest rank of the cap, then lowered until min_beyond samples
  // lie strictly beyond it.
  auto rank = static_cast<std::size_t>(std::ceil(cap * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) {
    if (n <= min_beyond) {
      t.value = *std::max_element(values.begin(), values.end());
      return t;
    }
    rank = n - min_beyond;
  }
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  t.value = values[rank - 1];
  t.q = std::min(cap, static_cast<double>(rank) / static_cast<double>(n));
  t.beyond = n - rank;
  return t;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricTable::set(const std::string& name, double value,
                      const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

std::string MetricTable::to_json() const {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) o << ", ";
    first = false;
    o << "\"" << name << "\": {\"value\": " << json_number(m.value)
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}";
  return o.str();
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
