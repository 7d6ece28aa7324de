#include "host/host_os.hpp"

#include <chrono>

namespace cherinet::host {

std::uint64_t HostOS::clock_gettime_ns() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace cherinet::host
