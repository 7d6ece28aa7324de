// The Intravisor: the trusted monitor that configures compartments,
// distributes memory capabilities, proxies syscalls, and contains faults
// (CAP-VMs model, paper §II-B).
//
// It is the only component holding the root capability; every cVM receives
// exactly the bounded capabilities the configuration grants it. Its minimal
// trusted computing base is what makes the design "practical for
// integration into embedded systems" (paper §II-B) — correspondingly this
// class is small: lifecycle, memory carving, the proxy table, sealed-entry
// installation and the fault log.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cheri/fault.hpp"
#include "host/host_os.hpp"
#include "intravisor/cvm.hpp"
#include "intravisor/syscall_router.hpp"
#include "machine/address_space.hpp"
#include "machine/domain.hpp"
#include "sim/cost_model.hpp"
#include "sim/virtual_clock.hpp"

namespace cherinet::iv {

/// What the Intravisor logs when a compartment faults — rendered exactly
/// like the console output in the paper's Fig. 3.
struct FaultReport {
  std::string cvm_name;
  cheri::FaultKind kind{};
  std::uint64_t address = 0;
  std::string message;

  [[nodiscard]] std::string to_console() const;
};

class Intravisor {
 public:
  struct Config {
    std::size_t memory_bytes = 128u << 20;
    sim::CostModel cost = sim::CostModel::morello();
    sim::VirtualClock* vclock = nullptr;
  };

  Intravisor();
  explicit Intravisor(Config cfg);

  [[nodiscard]] machine::AddressSpace& address_space() noexcept { return as_; }
  [[nodiscard]] host::HostOS& host() noexcept { return host_; }
  [[nodiscard]] SyscallRouter& router() noexcept { return router_; }
  [[nodiscard]] machine::EntryRegistry& entries() noexcept { return entries_; }
  [[nodiscard]] const sim::CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] const machine::CompartmentContext& context() const noexcept {
    return ctx_;
  }

  /// Create and register a new cVM with a freshly carved heap region.
  CVM& create_cvm(const std::string& name, std::size_t heap_bytes = 8u << 20);
  [[nodiscard]] CVM& cvm(std::size_t i) { return *cvms_.at(i); }

  /// Carve a shared region and return the Intravisor's full view of it;
  /// grant slices to cVMs by deriving from the returned view.
  [[nodiscard]] machine::CapView grant_shared(std::size_t bytes,
                                              const std::string& name);

  void record_fault(FaultReport report);
  [[nodiscard]] std::vector<FaultReport> fault_log() const;

 private:
  machine::AddressSpace as_;
  sim::CostModel cost_;
  host::HostOS host_;
  SyscallRouter router_;
  machine::EntryRegistry entries_;
  machine::CompartmentContext ctx_;
  std::vector<std::unique_ptr<CVM>> cvms_;
  mutable std::mutex fault_mu_;
  std::vector<FaultReport> faults_;
};

}  // namespace cherinet::iv
