// Big.sum — the allocation-heavy kernel of exception-driven offload
// (Section II.B): a device too small for its array raises OutOfMemory,
// and the whole stack moves to a cloud node with room for it.
#include "apps/apps.h"

namespace sod::apps {

bc::Program build_bigsum() {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("Big").method("sum", {{"n", Ty::I64}}, Ty::I64);
  uint16_t a = f.local("a", Ty::Ref);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::I64);
  bc::Label h1 = f.label(), d1 = f.label(), h2 = f.label(), d2 = f.label();
  f.stmt().iload("n").newarray(Ty::I64).astore(a);
  f.stmt().iconst(0).istore(i);
  f.bind(h1).stmt().iload(i).iload("n").if_icmpge(d1);
  f.stmt().aload(a).iload(i).iload(i).iastore();
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h1);
  f.bind(d1).stmt().iconst(0).istore(s);
  f.stmt().iconst(0).istore(i);
  f.bind(h2).stmt().iload(i).iload("n").if_icmpge(d2);
  f.stmt().iload(s).aload(a).iload(i).iaload().iadd().istore(s);
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h2);
  f.bind(d2).stmt().iload(s).iret();
  return pb.build();
}

}  // namespace sod::apps
