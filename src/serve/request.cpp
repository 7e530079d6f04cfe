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
