#include "svm/vm.h"

#include <algorithm>

#include "bytecode/disasm.h"

// Direct-threaded dispatch: the interpreter loop uses computed goto (a
// per-opcode label table, a GCC/Clang extension — the only compilers that
// build this tree) so each handler jumps straight to the next handler
// instead of round-tripping through a switch.

namespace sod::svm {

using bc::Instr;
using bc::Method;
using bc::Op;
using bc::Program;

VM::VM(const Program& prog, const NativeRegistry* natives, size_t heap_limit_bytes)
    : prog_(&prog), natives_(natives), heap_(heap_limit_bytes) {
  rt_.resize(prog.classes.size());
  for (size_t c = 0; c < prog.classes.size(); ++c) {
    auto& r = rt_[c];
    r.inst_types.resize(prog.classes[c].num_inst_slots, Ty::I64);
    r.static_types.resize(prog.classes[c].num_static_slots, Ty::I64);
    for (uint16_t fid : prog.classes[c].field_ids) {
      const bc::Field& f = prog.field(fid);
      (f.is_static ? r.static_types : r.inst_types)[f.slot] = f.type;
    }
  }
  local_types_cache_.resize(prog.methods.size());
}

const std::vector<Ty>& VM::local_types(uint16_t method_id) {
  auto& cache = local_types_cache_[method_id];
  if (cache.empty()) {
    const Method& m = prog_->method(method_id);
    cache.assign(m.num_locals, Ty::I64);
    for (const auto& v : m.var_table) cache[v.slot] = v.type;
    if (m.num_locals == 0) cache.push_back(Ty::I64);  // keep non-empty as "computed" marker
  }
  return cache;
}

Frame VM::make_frame(uint16_t method_id) {
  const Method& m = prog_->method(method_id);
  Frame f;
  f.method = method_id;
  f.pc = 0;
  const auto& lt = local_types(method_id);
  f.locals.reserve(m.num_locals);
  for (uint16_t i = 0; i < m.num_locals; ++i) f.locals.push_back(Value::zero_of(lt[i]));
  f.ostack.reserve(m.max_stack);
  return f;
}

int VM::spawn(uint16_t method_id, std::span<const Value> args) {
  const Method& m = prog_->method(method_id);
  SOD_CHECK(args.size() == m.params.size(), "spawn: arg count mismatch for " + m.name);
  ensure_loaded(m.owner);
  GuestThread th;
  th.id = static_cast<int>(threads_.size());
  Frame f = make_frame(method_id);
  for (size_t i = 0; i < args.size(); ++i) {
    SOD_CHECK(args[i].tag == m.params[i], "spawn: arg type mismatch for " + m.name);
    f.locals[i] = args[i];
  }
  th.frames.push_back(std::move(f));
  threads_.push_back(std::move(th));
  return threads_.back().id;
}

int VM::adopt_frames(std::vector<Frame> frames) {
  SOD_CHECK(!frames.empty(), "adopt_frames: empty stack");
  for (const Frame& f : frames) ensure_loaded(prog_->method(f.method).owner);
  GuestThread th;
  th.id = static_cast<int>(threads_.size());
  th.frames = std::move(frames);
  threads_.push_back(std::move(th));
  return threads_.back().id;
}

GuestThread& VM::thread(int tid) {
  SOD_CHECK(tid >= 0 && tid < static_cast<int>(threads_.size()), "bad tid");
  return threads_[tid];
}

Value VM::call(std::string_view qname, std::span<const Value> args) {
  uint16_t mid = prog_->find_method(qname);
  SOD_CHECK(mid != bc::kNoId, "call: unknown method " + std::string(qname));
  int tid = spawn(mid, args);
  RunResult rr = run(tid);
  if (rr.reason == StopReason::Crashed) {
    const GuestThread& th = thread(tid);
    std::string cls = prog_->cls(class_of(th.uncaught)).name;
    SOD_UNREACHABLE("guest crashed with " + cls + ": " + exception_message(th.uncaught));
  }
  SOD_CHECK(rr.reason == StopReason::Done, "call: guest did not finish");
  return thread(tid).result;
}

void VM::ensure_loaded(uint16_t cls) {
  ClassRT& r = rt_[cls];
  if (r.loaded) return;
  r.loaded = true;
  r.statics.clear();
  r.statics.reserve(r.static_types.size());
  for (Ty t : r.static_types) r.statics.push_back(Value::zero_of(t));
  if (on_class_load) on_class_load(*this, cls);
}

Value VM::get_static(uint16_t field_id) {
  const bc::Field& f = prog_->field(field_id);
  SOD_CHECK(f.is_static, "get_static on instance field");
  ensure_loaded(f.owner);
  return rt_[f.owner].statics[f.slot];
}

void VM::set_static(uint16_t field_id, Value v) {
  const bc::Field& f = prog_->field(field_id);
  SOD_CHECK(f.is_static, "set_static on instance field");
  ensure_loaded(f.owner);
  rt_[f.owner].statics[f.slot] = v;
}

void VM::overwrite_statics(uint16_t cls, std::vector<Value> vals) {
  ensure_loaded(cls);
  SOD_CHECK(vals.size() == rt_[cls].statics.size(), "statics size mismatch");
  rt_[cls].statics = std::move(vals);
}

void VM::throw_guest(uint16_t ex_cls, std::string_view msg) {
  SOD_CHECK(!pending_, "guest exception already pending");
  pending_ = true;
  pending_cls_ = ex_cls;
  pending_msg_ = std::string(msg);
}

Ref VM::make_exception(uint16_t ex_cls, std::string_view msg) {
  ensure_loaded(ex_cls);
  Ref r = heap_.alloc_obj(ex_cls, rt_[ex_cls].inst_types);
  if (r == bc::kNull) {
    // No room left even for the exception: the guest gets OutOfMemory.
    // Its one object is made past the budget on first need, not up front,
    // so runs that never fill the heap keep their ref numbering.
    if (oom_ == bc::kNull) {
      ensure_loaded(bc::builtin::kOutOfMemory);
      ObjCell o{bc::builtin::kOutOfMemory, {}};
      for (Ty t : rt_[bc::builtin::kOutOfMemory].inst_types) o.fields.push_back(Value::zero_of(t));
      oom_ = heap_.alloc_past_limit(std::move(o));
    }
    r = oom_;
  }
  if (!msg.empty()) ex_msgs_[r] = std::string(msg);
  return r;
}

std::string VM::exception_message(Ref r) const {
  auto it = ex_msgs_.find(r);
  return it == ex_msgs_.end() ? "" : it->second;
}

Ref VM::intern_pool_string(uint16_t idx) {
  auto it = pool_strings_.find(idx);
  if (it != pool_strings_.end()) return it->second;
  Ref r = heap_.alloc_str(prog_->strings[idx]);
  if (r != bc::kNull) pool_strings_[idx] = r;
  return r;
}

bool VM::dispatch_exception(GuestThread& th, Ref ex, uint32_t throw_pc) {
  uint16_t ex_cls = heap_.obj(ex).cls;
  uint32_t look = throw_pc;
  while (!th.frames.empty()) {
    Frame& f = th.frames.back();
    const Method& m = prog_->method(f.method);
    for (const auto& e : m.ex_table) {
      if (look >= e.from_pc && look < e.to_pc &&
          (e.ex_class == bc::kAnyClass || e.ex_class == ex_cls)) {
        f.ostack.clear();
        f.ostack.push_back(Value::of_ref(ex));
        f.pc = e.handler_pc;
        return true;
      }
    }
    th.frames.pop_back();
    if (!th.frames.empty()) {
      // Caller's pc is the return address; the INVOKE instruction that is
      // conceptually "throwing" sits just before it.
      look = th.frames.back().pc - 1;
    }
  }
  th.status = ThreadStatus::Crashed;
  th.uncaught = ex;
  return false;
}

void VM::raise_in_thread(int tid, uint16_t ex_cls, std::string_view msg) {
  GuestThread& th = thread(tid);
  SOD_CHECK(th.status == ThreadStatus::Ready && !th.frames.empty(),
            "raise_in_thread on non-runnable thread");
  Ref ex = make_exception(ex_cls, msg);
  dispatch_exception(th, ex, th.frames.back().pc);
}

RunResult VM::run(int tid, uint64_t budget) {
  GuestThread& th = thread(tid);
  if (th.status == ThreadStatus::Done) return {StopReason::Done, 0};
  if (th.status == ThreadStatus::Crashed) return {StopReason::Crashed, 0};
  return loop(th, budget);
}

// Dispatch plumbing.  VM_LABEL names a handler's goto label, and every
// handler ends in VM_NEXT()/VM_JUMP() instead of falling through.
// Frame-changing ops (INVOKE, RETURN..., THROW, pending exceptions) always
// re-enter through vm_top, which runs the full prologue: budget,
// pause/breakpoint/safepoint checks, and frame re-seating.  The fast path
// between straight-line instructions skips all of that and only re-checks
// the flags that could have been set by the handler itself.
#define VM_LABEL(name) h_##name
#define VM_DISPATCH_FAST()                                        \
  do {                                                            \
    if (executed >= budget || pause_req_ || debug_) goto vm_top;  \
    pc = f->pc;                                                   \
    in = bc::decode(m->code, pc);                                 \
    next = pc + in.size;                                          \
    ++executed;                                                   \
    ++instrs_;                                                    \
    goto* kJump[static_cast<size_t>(in.op)];                      \
  } while (0)
#define VM_NEXT()          \
  do {                     \
    f->pc = next;          \
    VM_DISPATCH_FAST();    \
  } while (0)
#define VM_JUMP(target)    \
  do {                     \
    f->pc = (target);      \
    VM_DISPATCH_FAST();    \
  } while (0)

RunResult VM::loop(GuestThread& th, uint64_t budget) {
  uint64_t executed = 0;
  const Program& P = *prog_;

  Frame* f = nullptr;
  const Method* m = nullptr;
  uint32_t pc = 0;
  uint32_t next = 0;
  Instr in{};

  auto push = [&](Value v) { f->ostack.push_back(v); };
  auto pop = [&]() {
    Value v = f->ostack.back();
    f->ostack.pop_back();
    return v;
  };

#define THROW_GUEST(cls, msg)            \
  do {                                   \
    throw_guest((cls), (msg));           \
    goto handle_pending;                 \
  } while (0)

  // One entry per opcode, in bc::Op declaration order.
  static const void* const kJump[] = {
      &&h_NOP,        &&h_ICONST,     &&h_DCONST,     &&h_ACONST_NULL, &&h_LDC_STR,
      &&h_ILOAD,      &&h_DLOAD,      &&h_ALOAD,      &&h_ISTORE,      &&h_DSTORE,
      &&h_ASTORE,     &&h_POP,        &&h_DUP,        &&h_SWAP,        &&h_IADD,
      &&h_ISUB,       &&h_IMUL,       &&h_IDIV,       &&h_IREM,        &&h_INEG,
      &&h_ISHL,       &&h_ISHR,       &&h_IAND,       &&h_IOR,         &&h_IXOR,
      &&h_DADD,       &&h_DSUB,       &&h_DMUL,       &&h_DDIV,        &&h_DNEG,
      &&h_I2D,        &&h_D2I,        &&h_DCMP,       &&h_GOTO,        &&h_IFEQ,
      &&h_IFNE,       &&h_IFLT,       &&h_IFLE,       &&h_IFGT,        &&h_IFGE,
      &&h_IF_ICMPEQ,  &&h_IF_ICMPNE,  &&h_IF_ICMPLT,  &&h_IF_ICMPLE,   &&h_IF_ICMPGT,
      &&h_IF_ICMPGE,  &&h_IFNULL,     &&h_IFNONNULL,  &&h_LOOKUPSWITCH, &&h_GETFIELD,
      &&h_PUTFIELD,   &&h_GETSTATIC,  &&h_PUTSTATIC,  &&h_NEW,         &&h_NEWARRAY,
      &&h_IALOAD,     &&h_IASTORE,    &&h_DALOAD,     &&h_DASTORE,     &&h_AALOAD,
      &&h_AASTORE,    &&h_ARRAYLEN,   &&h_INVOKE,     &&h_INVOKENATIVE, &&h_RETURN,
      &&h_IRETURN,    &&h_DRETURN,    &&h_ARETURN,    &&h_THROW,
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) == static_cast<size_t>(bc::kNumOps),
                "jump table out of sync with bc::Op");

vm_top:
  if (executed >= budget) return {StopReason::Budget, executed};
  if (th.frames.empty()) goto vm_done;

  f = &th.frames.back();
  m = &P.method(f->method);
  pc = f->pc;

  if (pause_req_) {
    pause_req_ = false;
    return {StopReason::Trap, executed};
  }
  if (debug_) {
    if (!th.resume_skip_bp && bps_.count(bp_key(f->method, pc))) {
      th.resume_skip_bp = true;
      return {StopReason::Breakpoint, executed};
    }
    th.resume_skip_bp = false;
    if (safepoint_req_ && m->is_stmt_start(pc) && f->ostack.empty()) {
      return {StopReason::SafePoint, executed};
    }
  }

  in = bc::decode(m->code, pc);
  next = pc + in.size;
  ++executed;
  ++instrs_;

  goto* kJump[static_cast<size_t>(in.op)];

  VM_LABEL(NOP) : VM_NEXT();

  VM_LABEL(ICONST) : push(Value::of_i64(in.imm_i)); VM_NEXT();
  VM_LABEL(DCONST) : push(Value::of_f64(in.imm_d)); VM_NEXT();
  VM_LABEL(ACONST_NULL) : push(Value::null()); VM_NEXT();
  VM_LABEL(LDC_STR) : {
    Ref s = intern_pool_string(static_cast<uint16_t>(in.arg));
    if (s == bc::kNull) THROW_GUEST(bc::builtin::kOutOfMemory, "string");
    push(Value::of_ref(s));
    VM_NEXT();
  }

  VM_LABEL(ILOAD) :
  VM_LABEL(DLOAD) :
  VM_LABEL(ALOAD) : push(f->locals[in.arg]); VM_NEXT();
  VM_LABEL(ISTORE) :
  VM_LABEL(DSTORE) :
  VM_LABEL(ASTORE) : f->locals[in.arg] = pop(); VM_NEXT();

  VM_LABEL(POP) : f->ostack.pop_back(); VM_NEXT();
  VM_LABEL(DUP) : push(f->ostack.back()); VM_NEXT();
  VM_LABEL(SWAP) : {
    std::swap(f->ostack[f->ostack.size() - 1], f->ostack[f->ostack.size() - 2]);
    VM_NEXT();
  }

  VM_LABEL(IADD) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a + b)); VM_NEXT(); }
  VM_LABEL(ISUB) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a - b)); VM_NEXT(); }
  VM_LABEL(IMUL) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a * b)); VM_NEXT(); }
  VM_LABEL(IDIV) : {
    int64_t b = pop().i, a = pop().i;
    if (b == 0) THROW_GUEST(bc::builtin::kArithmetic, "/ by zero");
    // INT64_MIN / -1 wraps to INT64_MIN (Java semantics); negate via
    // unsigned so the wrap is defined instead of UB.
    push(Value::of_i64(b == -1 ? static_cast<int64_t>(-static_cast<uint64_t>(a)) : a / b));
    VM_NEXT();
  }
  VM_LABEL(IREM) : {
    int64_t b = pop().i, a = pop().i;
    if (b == 0) THROW_GUEST(bc::builtin::kArithmetic, "% by zero");
    push(Value::of_i64(b == -1 ? 0 : a % b));
    VM_NEXT();
  }
  // Negate via unsigned so INT64_MIN wraps to itself (Java semantics)
  // instead of being signed-overflow UB.
  VM_LABEL(INEG) : {
    int64_t a = pop().i;
    push(Value::of_i64(static_cast<int64_t>(-static_cast<uint64_t>(a))));
    VM_NEXT();
  }
  VM_LABEL(ISHL) : {
    int64_t b = pop().i, a = pop().i;
    push(Value::of_i64(a << (b & 63)));
    VM_NEXT();
  }
  VM_LABEL(ISHR) : {
    int64_t b = pop().i, a = pop().i;
    push(Value::of_i64(a >> (b & 63)));
    VM_NEXT();
  }
  VM_LABEL(IAND) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a & b)); VM_NEXT(); }
  VM_LABEL(IOR) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a | b)); VM_NEXT(); }
  VM_LABEL(IXOR) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a ^ b)); VM_NEXT(); }

  VM_LABEL(DADD) : { double b = pop().d, a = pop().d; push(Value::of_f64(a + b)); VM_NEXT(); }
  VM_LABEL(DSUB) : { double b = pop().d, a = pop().d; push(Value::of_f64(a - b)); VM_NEXT(); }
  VM_LABEL(DMUL) : { double b = pop().d, a = pop().d; push(Value::of_f64(a * b)); VM_NEXT(); }
  VM_LABEL(DDIV) : { double b = pop().d, a = pop().d; push(Value::of_f64(a / b)); VM_NEXT(); }
  VM_LABEL(DNEG) : { double a = pop().d; push(Value::of_f64(-a)); VM_NEXT(); }

  VM_LABEL(I2D) : { int64_t a = pop().i; push(Value::of_f64(static_cast<double>(a))); VM_NEXT(); }
  VM_LABEL(D2I) : { double a = pop().d; push(Value::of_i64(static_cast<int64_t>(a))); VM_NEXT(); }
  VM_LABEL(DCMP) : {
    double b = pop().d, a = pop().d;
    push(Value::of_i64(a < b ? -1 : (a > b ? 1 : 0)));
    VM_NEXT();
  }

  VM_LABEL(GOTO) : VM_JUMP(in.arg);
  VM_LABEL(IFEQ) : { if (pop().i == 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFNE) : { if (pop().i != 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFLT) : { if (pop().i < 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFLE) : { if (pop().i <= 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFGT) : { if (pop().i > 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFGE) : { if (pop().i >= 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPEQ) : {
    int64_t b = pop().i, a = pop().i;
    if (a == b) VM_JUMP(in.arg);
    VM_NEXT();
  }
  VM_LABEL(IF_ICMPNE) : {
    int64_t b = pop().i, a = pop().i;
    if (a != b) VM_JUMP(in.arg);
    VM_NEXT();
  }
  VM_LABEL(IF_ICMPLT) : { int64_t b = pop().i, a = pop().i; if (a < b) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPLE) : {
    int64_t b = pop().i, a = pop().i;
    if (a <= b) VM_JUMP(in.arg);
    VM_NEXT();
  }
  VM_LABEL(IF_ICMPGT) : { int64_t b = pop().i, a = pop().i; if (a > b) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPGE) : {
    int64_t b = pop().i, a = pop().i;
    if (a >= b) VM_JUMP(in.arg);
    VM_NEXT();
  }
  VM_LABEL(IFNULL) : { if (pop().r == bc::kNull) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFNONNULL) : { if (pop().r != bc::kNull) VM_JUMP(in.arg); VM_NEXT(); }

  VM_LABEL(LOOKUPSWITCH) : {
    int64_t key = pop().i;
    uint32_t tgt = 0;
    {
      // A computed-goto jump runs no destructors: the decoded table must
      // go out of scope before VM_JUMP.
      bc::SwitchInfo si = bc::decode_switch(m->code, pc);
      tgt = si.default_target;
      for (auto& [k, t] : si.pairs)
        if (k == key) {
          tgt = t;
          break;
        }
    }
    VM_JUMP(tgt);
  }

  VM_LABEL(GETFIELD) : {
    const bc::Field& fd = P.field(static_cast<uint16_t>(in.arg));
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r))
      THROW_GUEST(bc::builtin::kNullPointer, fd.name);
    push(heap_.obj(r).fields[fd.slot]);
    VM_NEXT();
  }
  VM_LABEL(PUTFIELD) : {
    const bc::Field& fd = P.field(static_cast<uint16_t>(in.arg));
    Value v = pop();
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r))
      THROW_GUEST(bc::builtin::kNullPointer, fd.name);
    heap_.obj(r).fields[fd.slot] = v;
    VM_NEXT();
  }
  VM_LABEL(GETSTATIC) : {
    const bc::Field& fd = P.field(static_cast<uint16_t>(in.arg));
    ensure_loaded(fd.owner);
    push(rt_[fd.owner].statics[fd.slot]);
    VM_NEXT();
  }
  VM_LABEL(PUTSTATIC) : {
    const bc::Field& fd = P.field(static_cast<uint16_t>(in.arg));
    ensure_loaded(fd.owner);
    rt_[fd.owner].statics[fd.slot] = pop();
    VM_NEXT();
  }

  VM_LABEL(NEW) : {
    uint16_t cid = static_cast<uint16_t>(in.arg);
    ensure_loaded(cid);
    Ref r = heap_.alloc_obj(cid, rt_[cid].inst_types);
    if (r == bc::kNull) THROW_GUEST(bc::builtin::kOutOfMemory, P.cls(cid).name);
    push(Value::of_ref(r));
    VM_NEXT();
  }
  VM_LABEL(NEWARRAY) : {
    int64_t n = pop().i;
    if (n < 0) THROW_GUEST(bc::builtin::kIndexOutOfBounds, "negative array size");
    Ref r;
    switch (static_cast<Ty>(in.arg)) {
      case Ty::I64: r = heap_.alloc_arr_i(static_cast<size_t>(n)); break;
      case Ty::F64: r = heap_.alloc_arr_d(static_cast<size_t>(n)); break;
      case Ty::Ref: r = heap_.alloc_arr_r(static_cast<size_t>(n)); break;
      default: SOD_UNREACHABLE("bad array type");
    }
    if (r == bc::kNull) THROW_GUEST(bc::builtin::kOutOfMemory, "array");
    push(Value::of_ref(r));
    VM_NEXT();
  }

  VM_LABEL(IALOAD) : {
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "iaload");
    auto& a = heap_.arr_i(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "iaload");
    push(Value::of_i64(a.v[static_cast<size_t>(i)]));
    VM_NEXT();
  }
  VM_LABEL(IASTORE) : {
    int64_t v = pop().i;
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "iastore");
    auto& a = heap_.arr_i(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "iastore");
    a.v[static_cast<size_t>(i)] = v;
    VM_NEXT();
  }
  VM_LABEL(DALOAD) : {
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "daload");
    auto& a = heap_.arr_d(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "daload");
    push(Value::of_f64(a.v[static_cast<size_t>(i)]));
    VM_NEXT();
  }
  VM_LABEL(DASTORE) : {
    double v = pop().d;
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "dastore");
    auto& a = heap_.arr_d(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "dastore");
    a.v[static_cast<size_t>(i)] = v;
    VM_NEXT();
  }
  VM_LABEL(AALOAD) : {
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "aaload");
    auto& a = heap_.arr_r(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "aaload");
    push(Value::of_ref(a.v[static_cast<size_t>(i)]));
    VM_NEXT();
  }
  VM_LABEL(AASTORE) : {
    Ref v = pop().r;
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "aastore");
    auto& a = heap_.arr_r(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "aastore");
    a.v[static_cast<size_t>(i)] = v;
    VM_NEXT();
  }
  VM_LABEL(ARRAYLEN) : {
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "arraylen");
    const Cell& c = heap_.cell(r);
    size_t n = 0;
    if (const auto* ai = std::get_if<ArrICell>(&c)) n = ai->v.size();
    else if (const auto* ad = std::get_if<ArrDCell>(&c)) n = ad->v.size();
    else if (const auto* ar = std::get_if<ArrRCell>(&c)) n = ar->v.size();
    else if (const auto* s = std::get_if<StrCell>(&c)) n = s->s.size();
    else SOD_UNREACHABLE("arraylen of non-array");
    push(Value::of_i64(static_cast<int64_t>(n)));
    VM_NEXT();
  }

  VM_LABEL(INVOKE) : {
    uint16_t mid = static_cast<uint16_t>(in.arg);
    const Method& callee = P.method(mid);
    SOD_CHECK(!callee.code.empty(), "invoke of bodyless method " + callee.name);
    if (th.frames.size() >= kMaxFrames)
      SOD_UNREACHABLE("guest stack overflow in " + callee.name);
    ensure_loaded(callee.owner);
    f->pc = next;  // return address
    Frame nf = make_frame(mid);
    for (size_t i = callee.params.size(); i-- > 0;) {
      nf.locals[i] = f->ostack.back();
      f->ostack.pop_back();
    }
    th.frames.push_back(std::move(nf));
    goto vm_top;
  }

  VM_LABEL(INVOKENATIVE) : {
    const bc::NativeDecl& nd = P.natives[in.arg];
    const NativeFn* fn = natives_ ? natives_->find(nd.name) : nullptr;
    SOD_CHECK(fn, "unbound native: " + nd.name);
    size_t np = nd.params.size();
    std::vector<Value> args(np);
    for (size_t i = np; i-- > 0;) {
      args[i] = f->ostack.back();
      f->ostack.pop_back();
    }
    native_frame_ = f;
    native_tid_ = th.id;
    Value ret = (*fn)(*this, args);
    native_frame_ = nullptr;
    native_tid_ = -1;
    if (pending_) goto handle_pending;
    if (nd.ret != Ty::Void) {
      SOD_CHECK(ret.tag == nd.ret, "native returned wrong type: " + nd.name);
      // Re-acquire the frame: the native may have grown this thread's
      // heap but frames vector is stable (natives cannot push frames).
      th.frames.back().ostack.push_back(ret);
    }
    f->pc = next;
    goto vm_top;
  }

  VM_LABEL(RETURN) :
  VM_LABEL(IRETURN) :
  VM_LABEL(DRETURN) :
  VM_LABEL(ARETURN) : {
    Value rv{};
    bool has = in.op != Op::RETURN;
    if (has) rv = pop();
    th.frames.pop_back();
    if (th.frames.empty()) {
      th.status = ThreadStatus::Done;
      th.result = rv;
      return {StopReason::Done, executed};
    }
    if (has) th.frames.back().ostack.push_back(rv);
    goto vm_top;
  }

  VM_LABEL(THROW) : {
    Ref ex = pop().r;
    if (ex == bc::kNull || heap_.is_stub(ex))
      THROW_GUEST(bc::builtin::kNullPointer, "throw null");
    if (!dispatch_exception(th, ex, pc)) return {StopReason::Crashed, executed};
    goto vm_top;
  }

handle_pending: {
  SOD_CHECK(pending_, "handle_pending without pending exception");
  pending_ = false;
  Ref ex = make_exception(pending_cls_, pending_msg_);
  Frame& hf = th.frames.back();
  if (!dispatch_exception(th, ex, hf.pc)) return {StopReason::Crashed, executed};
  goto vm_top;
}

#undef THROW_GUEST
#undef VM_LABEL
#undef VM_NEXT
#undef VM_JUMP
#undef VM_DISPATCH_FAST

vm_done:
  th.status = ThreadStatus::Done;
  return {StopReason::Done, 0};
}

}  // namespace sod::svm
