#include "sod/node.h"

namespace sod::mig {

SodNode::SodNode(std::string name, const bc::Program& prog, Config cfg)
    : prog_(&prog), cfg_(cfg) {
  node_.name = std::move(name);
  node_.cpu_scale = cfg.cpu_scale;
  node_.instr_cost = cfg.instr_cost;
  node_.debug_multiplier = cfg.debug_multiplier;
  stdlib_.install(reg_);
  vm_ = std::make_unique<svm::VM>(prog, &reg_, cfg.heap_limit_bytes);
  ti_ = std::make_unique<vmti::ToolInterface>(*vm_, cfg.vmti_costs);
}

svm::RunResult SodNode::run_guest(int tid, uint64_t budget) {
  uint64_t i0 = vm_->instr_count();
  vm_->reset_charged();
  svm::RunResult rr = vm_->run(tid, budget);
  node_.charge_instrs(vm_->instr_count() - i0, vm_->debug_mode());
  node_.busy(vm_->charged());
  vm_->reset_charged();
  sync_ti_cost();
  return rr;
}

bc::Value SodNode::call_guest(std::string_view entry, std::span<const bc::Value> args) {
  uint16_t mid = prog_->find_method(entry);
  SOD_CHECK(mid != bc::kNoId, "call_guest: unknown method " + std::string(entry));
  int tid = vm_->spawn(mid, args);
  svm::RunResult rr = run_guest(tid);
  if (rr.reason == svm::StopReason::Crashed) {
    const auto& th = vm_->thread(tid);
    SOD_UNREACHABLE("guest crashed with " + prog_->cls(vm_->class_of(th.uncaught)).name + ": " +
                    vm_->exception_message(th.uncaught));
  }
  SOD_CHECK(rr.reason == svm::StopReason::Done, "call_guest: did not finish");
  return vm_->thread(tid).result;
}

void SodNode::sync_ti_cost() {
  VDur d = ti_->spent();
  if (d.ns != 0) {
    node_.charge_host(d);
    ti_->reset_spent();
  }
}

void SodNode::enable_class_fetch(SodNode* home, sim::Link link, HomeGate* gate) {
  vm_->on_class_load = [this, home, link, gate](svm::VM&, uint16_t cls) {
    GateSection section(gate, HomeShardMap::key_class(cls));
    if (class_shipped(cls)) return;
    shipped_.insert(cls);
    size_t img = prog_->class_image_size(cls);
    class_bytes_ += img;
    // Request/response round trip + home-side serialization cost.
    VDur before = node_.clock.now();
    VDur home_service = home->serde().cost(img);
    sim::round_trip(node_, home->node(), link, 64, img, home_service);
    class_fetch_time_ += node_.clock.now() - before;
    // Image serialization served on the class's stripe only: fetches of
    // classes on other home shards overlap this wall window.
    section.service(home_service);
  };
}

}  // namespace sod::mig
