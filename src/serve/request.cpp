#include "serve/request.h"

namespace dwi::serve {

StreamBudgetError::StreamBudgetError(RequestId id, std::uint64_t slot,
                                     std::uint64_t consumed,
                                     std::uint64_t budget)
    : Error("serve: request " + std::to_string(id) + " slot " +
            std::to_string(slot) + " consumed " + std::to_string(consumed) +
            " outputs, over its substream budget of " +
            std::to_string(budget)),
      id_(id),
      slot_(slot),
      consumed_(consumed),
      budget_(budget) {}

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kGamma:
      return "gamma";
    case RequestKind::kCreditRisk:
      return "creditrisk";
    case RequestKind::kHistogram:
      return "histogram";
    case RequestKind::kSpmv:
      return "spmv";
    case RequestKind::kMatching:
      return "matching";
  }
  return "unknown";
}

std::optional<RequestKind> parse_request_kind(std::string_view name) {
  for (std::size_t i = 0; i < kNumRequestKinds; ++i) {
    const auto kind = static_cast<RequestKind>(i);
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

void throw_rejected(const char* layer, RequestKind kind, ServeStatus status) {
  throw RejectedError(status, std::string(layer) + ": " + to_string(kind) +
                                  " request rejected: " + to_string(status));
}

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kAdmitted: return "admitted";
    case ServeStatus::kQueueFull: return "queue-full";
    case ServeStatus::kShuttingDown: return "shutting-down";
    case ServeStatus::kInvalidRequest: return "invalid-request";
  }
  return "unknown";
}

}  // namespace dwi::serve
