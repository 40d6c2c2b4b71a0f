#include "vmti/vmti.h"

namespace sod::vmti {

const svm::Frame& ToolInterface::frame_at(int tid, int depth) {
  auto& th = vm_->thread(tid);
  SOD_CHECK(depth >= 0 && static_cast<size_t>(depth) < th.frames.size(), "bad frame depth");
  return th.frames[th.frames.size() - 1 - static_cast<size_t>(depth)];
}

int ToolInterface::get_stack_depth(int tid) {
  spent_ += cm_.get_stack_depth;
  return static_cast<int>(vm_->thread(tid).frames.size());
}

FrameLocation ToolInterface::get_frame_location(int tid, int depth) {
  spent_ += cm_.get_frame_location;
  const svm::Frame& f = frame_at(tid, depth);
  return FrameLocation{f.method, f.pc};
}

const std::vector<bc::LocalVar>& ToolInterface::get_local_variable_table(uint16_t method) {
  spent_ += cm_.get_local_table;
  return vm_->program().method(method).var_table;
}

Value ToolInterface::get_local(int tid, int depth, uint16_t slot) {
  spent_ += cm_.get_local;
  const svm::Frame& f = frame_at(tid, depth);
  SOD_CHECK(slot < f.locals.size(), "bad local slot");
  return f.locals[slot];
}

Value ToolInterface::get_static_field(uint16_t field_id) {
  spent_ += cm_.get_static;
  return vm_->get_static(field_id);
}

void ToolInterface::set_breakpoint(uint16_t method, uint32_t pc) {
  spent_ += cm_.set_breakpoint;
  vm_->add_breakpoint(method, pc);
}

void ToolInterface::clear_breakpoint(uint16_t method, uint32_t pc) {
  spent_ += cm_.set_breakpoint;
  vm_->remove_breakpoint(method, pc);
}

void ToolInterface::raise_exception(int tid, uint16_t ex_cls, std::string_view msg) {
  spent_ += cm_.raise_exception;
  vm_->raise_in_thread(tid, ex_cls, msg);
}

void ToolInterface::pop_frame(int tid) {
  spent_ += cm_.pop_frame;
  auto& th = vm_->thread(tid);
  SOD_CHECK(!th.frames.empty(), "pop_frame on empty stack");
  th.frames.pop_back();
}

void ToolInterface::force_early_return(int tid, Value v) {
  spent_ += cm_.force_early_return;
  auto& th = vm_->thread(tid);
  SOD_CHECK(!th.frames.empty(), "force_early_return on empty stack");
  const bc::Method& m = vm_->program().method(th.frames.back().method);
  th.frames.pop_back();
  if (th.frames.empty()) {
    th.status = svm::ThreadStatus::Done;
    th.result = v;
    return;
  }
  if (m.ret != Ty::Void) {
    SOD_CHECK(v.tag == m.ret, "force_early_return type mismatch");
    th.frames.back().ostack.push_back(v);
  }
}

Ref ToolInterface::resolve_object(Ref r) {
  spent_ += cm_.get_object;
  return r;
}

}  // namespace sod::vmti
