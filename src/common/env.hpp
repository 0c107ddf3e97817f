// Environment-variable toggles (STORESCHED_AUDIT, core/audit.hpp).
#pragma once

#include <cstdlib>

namespace storesched {

/// True iff the environment variable `name` is set to a non-empty value
/// other than "0".
inline bool env_flag_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace storesched
