#include "host/host_os.hpp"

#include <thread>

namespace cherinet::host {

std::uint64_t HostOS::clock_gettime_ns(ClockId id) const {
  switch (id) {
    case ClockId::kMonotonicRaw: {
      const auto now = std::chrono::steady_clock::now().time_since_epoch();
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
    }
    case ClockId::kVirtual:
      return vclock_ != nullptr
                 ? static_cast<std::uint64_t>(vclock_->now().count())
                 : 0;
  }
  return 0;
}

void HostOS::nanosleep_ns(std::uint64_t ns) const {
  if (vclock_ != nullptr) {
    vclock_->advance_to(vclock_->now() + sim::Ns{static_cast<std::int64_t>(ns)});
    return;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds{ns});
}

}  // namespace cherinet::host
