// Response invariants and byte serialization shared by the serve and
// cluster workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.h"

namespace perfbench {

/// A response's fields as raw bytes, for bit-identity comparisons.
using Bytes = std::vector<unsigned char>;

template <typename T>
void put(Bytes& b, const T& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  b.insert(b.end(), p, p + sizeof v);
}

template <typename T>
void put_all(Bytes& b, const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  b.insert(b.end(), p, p + v.size() * sizeof(T));
}

Bytes bytes_of(const dwi::serve::GammaResult& r);
Bytes bytes_of(const dwi::serve::CreditRiskResult& r);

/// CreditRisk+ invariants: id and scenario count echo the request, all
/// moments are finite and non-negative, and var95 <= var999 <= es999.
///
/// es999 is a floating-point mean of the losses at or beyond var999.
/// When several scenarios tie at var999 that mean can round one ulp
/// below it, so es999 may fall short of var999 by at most
/// kEsRoundingTolerance (relative); anything larger is a failure.
/// Every rounding-only shortfall is counted (es_rounding_report()).
bool credit_risk_ok(const dwi::serve::CreditRiskRequest& q,
                    const dwi::serve::CreditRiskResult& r);

inline constexpr double kEsRoundingTolerance = 1e-12;

/// "es999 < var999 by rounding: N responses, largest relative gap G"
/// for the notes, or "" when none occurred in this process.
std::string es_rounding_report();

}  // namespace perfbench
