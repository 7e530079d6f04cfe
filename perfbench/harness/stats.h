// Order statistics and the metric table the benchmark prints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (q in (0, 1]); 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The tail rule: the highest percentile, capped at `cap`, that has at
/// least `min_beyond` samples strictly beyond its rank. `q` reports the
/// percentile actually used, so 0.99 means a true p99; with too few
/// samples for any such rank, `q` is 0 and `value` is the maximum.
struct TailPercentile {
  double value = 0.0;
  double q = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;
};
TailPercentile tail_percentile(std::vector<double> values, double cap = 0.99,
                               std::size_t min_beyond = 10);

/// Metric names are [A-Za-z0-9_.-]+ and start with a letter or digit.
bool valid_metric_name(const std::string& name);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion-independent (sorted) order.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return metrics_; }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

}  // namespace perfbench
