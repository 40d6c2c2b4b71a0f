// Fluent builders for constructing Programs.
//
// Guest applications (Fib, NQueens, FFT, TSP, doc-search, photo-share) are
// written against this API, which plays the role of javac: it emits
// *statement-flattened* code — `stmt()` marks statement starts, and by
// convention app codegen keeps the operand stack empty across statement
// boundaries (three-address style, call results stored to temps).  The
// preprocessor (src/prep) then *verifies* that discipline, derives the
// migration-safe-point table, and injects restoration / object-fault
// handlers exactly as the paper's BCEL-based class preprocessor does.
//
// Method and field operands may be referenced by (forward) name; names are
// resolved when ProgramBuilder::build() runs, so mutually recursive
// methods are straightforward.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bytecode/program.h"

namespace sod::bc {

class ProgramBuilder;
class ClassBuilder;

/// Branch label; create with MethodBuilder::label(), place with bind().
struct Label {
  uint32_t id = UINT32_MAX;
};

class MethodBuilder {
 public:
  MethodBuilder(const MethodBuilder&) = delete;
  MethodBuilder& operator=(const MethodBuilder&) = delete;

  uint16_t method_id() const { return id_; }

  /// Allocate a named local variable (recorded in the variable table).
  uint16_t local(std::string_view name, Ty type);
  /// Slot of a previously declared local/parameter by name.
  uint16_t slot(std::string_view name) const;

  Label label();
  MethodBuilder& bind(Label l);
  /// Current emit position.
  uint32_t here() const { return static_cast<uint32_t>(code_.size()); }

  /// Mark the next instruction as a statement start (MSP candidate).
  MethodBuilder& stmt();

  // --- constants ---
  MethodBuilder& iconst(int64_t v);
  MethodBuilder& dconst(double v);
  MethodBuilder& aconst_null();
  MethodBuilder& ldc_str(std::string_view s);

  // --- locals (by slot or by declared name) ---
  MethodBuilder& iload(uint16_t s);
  MethodBuilder& dload(uint16_t s);
  MethodBuilder& aload(uint16_t s);
  MethodBuilder& istore(uint16_t s);
  MethodBuilder& dstore(uint16_t s);
  MethodBuilder& astore(uint16_t s);
  MethodBuilder& iload(std::string_view n) { return iload(slot(n)); }
  MethodBuilder& dload(std::string_view n) { return dload(slot(n)); }
  MethodBuilder& aload(std::string_view n) { return aload(slot(n)); }
  MethodBuilder& istore(std::string_view n) { return istore(slot(n)); }
  MethodBuilder& dstore(std::string_view n) { return dstore(slot(n)); }
  MethodBuilder& astore(std::string_view n) { return astore(slot(n)); }

  // --- stack ---
  MethodBuilder& pop();

  // --- arithmetic ---
  MethodBuilder& iadd();
  MethodBuilder& isub();
  MethodBuilder& imul();
  MethodBuilder& idiv();
  MethodBuilder& irem();
  MethodBuilder& ineg();
  MethodBuilder& ishl();
  MethodBuilder& ishr();
  MethodBuilder& iand();
  MethodBuilder& ior();
  MethodBuilder& ixor();
  MethodBuilder& dadd();
  MethodBuilder& dsub();
  MethodBuilder& dmul();
  MethodBuilder& ddiv();
  MethodBuilder& dneg();
  MethodBuilder& i2d();
  MethodBuilder& d2i();

  // --- control flow ---
  MethodBuilder& go(Label l);
  MethodBuilder& ifeq(Label l);
  MethodBuilder& ifne(Label l);
  MethodBuilder& if_icmpeq(Label l);
  MethodBuilder& if_icmplt(Label l);
  MethodBuilder& if_icmple(Label l);
  MethodBuilder& if_icmpgt(Label l);
  MethodBuilder& if_icmpge(Label l);
  MethodBuilder& ifnull(Label l);
  MethodBuilder& lookupswitch(Label dflt, const std::vector<std::pair<int64_t, Label>>& pairs);

  // --- fields (qualified "Class.field") ---
  MethodBuilder& getfield(std::string_view qname);
  MethodBuilder& putfield(std::string_view qname);
  MethodBuilder& getstatic(std::string_view qname);
  MethodBuilder& putstatic(std::string_view qname);

  // --- objects / arrays ---
  MethodBuilder& new_(std::string_view class_name);
  MethodBuilder& newarray(Ty elem);
  MethodBuilder& iaload();
  MethodBuilder& iastore();
  MethodBuilder& daload();
  MethodBuilder& dastore();
  MethodBuilder& aaload();
  MethodBuilder& aastore();
  MethodBuilder& arraylen();

  // --- calls ---
  MethodBuilder& invoke(std::string_view qname);
  MethodBuilder& invokenative(std::string_view name);
  MethodBuilder& ret();      // RETURN
  MethodBuilder& iret();
  MethodBuilder& dret();
  MethodBuilder& aret();

  // --- exceptions ---
  MethodBuilder& throw_();
  /// Add an exception-table entry [from, to) -> handler for ex_class
  /// (kAnyClass = catch everything).
  MethodBuilder& ex_entry(uint32_t from, uint32_t to, Label handler, uint16_t ex_class);

 private:
  friend class ClassBuilder;
  friend class ProgramBuilder;
  MethodBuilder(ProgramBuilder* pb, uint16_t id);

  MethodBuilder& op(Op o, int64_t operand = 0);
  MethodBuilder& branch(Op o, Label l);
  MethodBuilder& named_u16(Op o, std::string_view qname, bool is_field);
  void finish();  // move code into Program

  ProgramBuilder* pb_;
  uint16_t id_;
  std::vector<uint8_t> code_;
  std::vector<LocalVar> vars_;
  std::vector<ExEntry> ex_;
  std::vector<uint32_t> stmts_;
  std::vector<uint32_t> label_pc_;
  struct Fixup {
    size_t patch_at;
    uint32_t label;
  };
  std::vector<Fixup> fixups_;
  struct ExFix {
    size_t index;
    uint32_t label;
  };
  std::vector<ExFix> ex_fixups_;
  uint16_t next_slot_ = 0;
  bool finished_ = false;
};

class ClassBuilder {
 public:
  uint16_t class_id() const { return id_; }

  /// Declare a field; returns its global field id.
  uint16_t field(std::string_view name, Ty type, bool is_static = false);

  /// Begin a method; parameters become locals 0..n-1.
  MethodBuilder& method(std::string_view name, std::vector<std::pair<std::string, Ty>> params,
                        Ty ret);

 private:
  friend class ProgramBuilder;
  ClassBuilder(ProgramBuilder* pb, uint16_t id) : pb_(pb), id_(id) {}
  ProgramBuilder* pb_;
  uint16_t id_;
};

class ProgramBuilder {
 public:
  /// Registers the built-in exception classes (stable ids, see
  /// bc::builtin) and no natives.
  ProgramBuilder();

  ClassBuilder& cls(std::string_view name, bool is_exception = false);

  /// Builder for an already-declared class (class ids and builders are
  /// created in lockstep, so they index identically).
  ClassBuilder& class_builder(uint16_t class_id) {
    SOD_CHECK(class_id < class_builders_.size(), "no builder for class id");
    return *class_builders_[class_id];
  }

  /// Declare a native function; idempotent per name.
  uint16_t native(std::string_view name, std::vector<Ty> params, Ty ret);

  /// Resolve name references, run the verifier over every method
  /// (computing max_stack), and return the finished program.
  Program build();

  Program& prog() { return prog_; }

 private:
  friend class MethodBuilder;
  friend class ClassBuilder;

  struct NameFix {
    uint16_t method_id;
    size_t patch_at;
    std::string name;
    bool is_field;  // else method
  };

  Program prog_;
  std::vector<std::unique_ptr<ClassBuilder>> class_builders_;
  std::vector<std::unique_ptr<MethodBuilder>> method_builders_;
  std::vector<NameFix> name_fixups_;
  bool built_ = false;
};

}  // namespace sod::bc
