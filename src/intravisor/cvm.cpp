#include "intravisor/cvm.hpp"

#include "cheri/fault.hpp"
#include "intravisor/intravisor.hpp"

namespace cherinet::iv {

CVM::CVM(Intravisor& iv, CvmConfig cfg, int id)
    : iv_(iv), cfg_(std::move(cfg)), id_(id) {
  // Carve the compartment's memory and configure its context: the DDC is
  // the heap region; the PCC covers the same range executable (hybrid-mode
  // payloads share the host text segment, modeled by the region itself).
  auto& as = iv_.address_space();
  const cheri::Capability region = as.carve(
      cfg_.heap_bytes, cheri::PermSet::data_rw(), cfg_.name + "-heap");
  ctx_.name = cfg_.name;
  ctx_.cvm_id = id_;
  ctx_.ddc = region;
  ctx_.pcc =
      as.root()
          .with_bounds(region.base(),
                       static_cast<std::uint64_t>(region.length()))
          .with_perms(cheri::PermSet::code());
  heap_ = std::make_unique<machine::CompartmentHeap>(&as.mem(), region);
  tramp_ = std::make_unique<Trampoline>(&iv_.router(), &ctx_,
                                        &iv_.context(), &iv_.cost());
  // musl's static scratch (timespec landing zone) lives in the cVM heap.
  libc_ = std::make_unique<MuslLibc>(tramp_.get(), heap_->alloc_view(64));
}

void CVM::run(const std::function<void()>& body) {
  try {
    enter(body);
  } catch (const cheri::CapFault& f) {
    faulted_ = true;
    iv_.record_fault(FaultReport{cfg_.name, f.kind(), f.address(), f.what()});
  }
}

}  // namespace cherinet::iv
