#include "serve/response_cache.h"

namespace dwi::serve {

std::size_t ResponseCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::apply(
      [](const auto&... kind) { return (kind.entries.size() + ...); },
      stores_);
}

}  // namespace dwi::serve
