#include "checks.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>

namespace perfbench {
namespace {

std::mutex g_es_mutex;  // guards the two counters below
std::uint64_t g_es_rounded = 0;
double g_es_max_gap = 0.0;

}  // namespace

bool credit_risk_ok(const dwi::serve::CreditRiskRequest& q,
                    const dwi::serve::CreditRiskResult& r) {
  const double fields[] = {r.mean, r.variance, r.var95, r.var999, r.es999};
  for (const double v : fields) {
    if (!std::isfinite(v) || v < 0.0) return false;
  }
  if (r.id != q.id || r.scenarios != q.num_scenarios || r.var95 > r.var999) {
    return false;
  }
  if (r.es999 >= r.var999) return true;
  const double gap = (r.var999 - r.es999) / r.var999;
  if (gap > kEsRoundingTolerance) return false;
  std::lock_guard lock(g_es_mutex);
  ++g_es_rounded;
  g_es_max_gap = std::max(g_es_max_gap, gap);
  return true;
}

Bytes bytes_of(const dwi::serve::GammaResult& r) {
  Bytes b;
  put(b, r.id);
  put_all(b, r.samples);
  put(b, r.attempts);
  put(b, r.accepted);
  return b;
}

Bytes bytes_of(const dwi::serve::CreditRiskResult& r) {
  Bytes b;
  put(b, r.id);
  put(b, r.scenarios);
  for (const double v : {r.mean, r.variance, r.var95, r.var999, r.es999}) put(b, v);
  return b;
}

std::string es_rounding_report() {
  std::lock_guard lock(g_es_mutex);
  if (g_es_rounded == 0) return "";
  std::ostringstream o;
  o << "es999 < var999 by rounding only: " << g_es_rounded
    << " responses, largest relative gap " << g_es_max_gap;
  return o.str();
}

}  // namespace perfbench
