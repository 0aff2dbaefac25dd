#include "geometry/filter.hpp"

#include <cstdlib>
#include <cstring>

namespace thsr::filt {

bool runtime_enabled_init() noexcept {
  const char* v = std::getenv("THSR_NO_FILTER");
  if (!v || !*v) return true;
  return std::strcmp(v, "0") == 0;  // THSR_NO_FILTER=0 keeps the filter on
}

}  // namespace thsr::filt
