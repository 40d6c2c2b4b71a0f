#include "prep/prep.h"

namespace sod::prep {

PrepReport preprocess_program(bc::Program& p, const PrepOptions& opts) {
  PrepReport rep;
  rep.image_size_before = p.total_image_size();

  declare_prep_natives(p);
  if (opts.miss == MissDetection::StatusChecking) add_status_fields(p);

  for (auto& m : p.methods) {
    if (m.code.empty()) continue;
    if (opts.flatten) {
      FlattenStats fs = flatten_method(p, m);
      rep.flatten.temps_added += fs.temps_added;
      rep.flatten.calls_extracted += fs.calls_extracted;
      rep.flatten.statements_out += fs.statements_out;
    }
    if (opts.miss == MissDetection::ObjectFaulting) {
      InjectStats is = inject_object_fault_handlers(p, m);
      rep.faults.fault_handlers += is.fault_handlers;
      rep.faults.repair_calls += is.repair_calls;
      rep.faults.guest_entries_extended += is.guest_entries_extended;
    } else if (opts.miss == MissDetection::StatusChecking) {
      ChecksStats cs = inject_status_checks(p, m);
      rep.checks.checks_inserted += cs.checks_inserted;
      rep.checks.news_rewritten += cs.news_rewritten;
    }
    if (opts.offload_handlers) rep.offload_handlers += inject_offload_handlers(p, m);
    if (opts.restore_handlers) inject_restore_handler(p, m);
  }

  for (auto& c : p.classes) {
    c.image_bytes = p.class_image(c.id).size();
    rep.image_size_after += c.image_bytes;
  }
  return rep;
}

}  // namespace sod::prep
