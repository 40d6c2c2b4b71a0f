// Exception-driven offload (paper Section II.B): a device with a small
// heap runs programs preprocessed with OutOfMemory handlers.  When an
// allocation fails, the handler traps, the whole stack hops to a cloud
// node with an unlimited heap, the failing statement re-runs there, and
// the result comes home in the write-back.  A write-back whose objects do
// not fit the device heap is refused whole, and the device keeps its
// state.  When not even the OutOfMemory object fits, the VM makes it past
// the limit, which is why the TSP row's 700 B device holds 704 B.
#include <cstdio>

#include "apps/apps.h"
#include "cli/scenario.h"
#include "prep/prep.h"
#include "sod/migrate.h"

using namespace sod;
using bc::Value;

namespace {

struct Row {
  const char* label;
  bc::Program prog;
  std::string entry;
  std::vector<Value> args;
  size_t device_heap;
};

/// Runs one row on a fresh device + cloud pair; false when the result
/// differs from a run on one node with an unlimited heap.
bool run_row(Row& row) {
  prep::PrepOptions opts;
  opts.offload_handlers = true;
  prep::preprocess_program(row.prog, opts);
  const int64_t expected =
      mig::SodNode("reference", row.prog, {}).call_guest(row.entry, row.args).as_i64();

  mig::SodNode::Config dev_cfg;
  dev_cfg.heap_limit_bytes = row.device_heap;
  mig::SodNode device("device", row.prog, dev_cfg);
  mig::SodNode cloud("cloud", row.prog, {});
  mig::OffloadGuard guard;
  guard.install(device);
  mig::ObjectManager om;
  om.install(device);  // binds objman.* for the fault handlers

  int tid = device.vm().spawn(row.prog.find_method(row.entry), row.args);
  mig::ElasticOutcome out =
      mig::run_elastic(device, tid, cloud, sim::Link::wifi_kbps(384), guard);
  const long long result = out.result.as_i64();
  std::printf("\n%s on a %zu B device heap\n", row.label, row.device_heap);
  if (!out.offloaded) {
    std::printf("  fits on the device: result %lld\n", result);
    return result == expected;
  }
  const mig::MigrationTiming& t = out.timing;
  std::printf("  OutOfMemory trapped; whole stack hopped: state %zu B + class %zu B\n",
              t.state_bytes, t.class_bytes);
  std::printf("  capture %.3f ms + transfer %.3f ms + restore %.3f ms\n", t.capture.ms(),
              t.transfer.ms(), t.restore.ms());
  std::printf("  result %lld from the cloud\n", result);
  if (out.shortfall)
    std::printf("  write-back does not fit: needs %zu B, %zu B free; device heap stays %zu B\n",
                out.shortfall->needed, out.shortfall->free, device.vm().heap().used_bytes());
  return result == expected;
}

int run(const cli::ScenarioOptions&) {
  const int64_t n = 64 << 10;  // a 512 KB array
  apps::AppSpec fft = apps::fft_app();
  apps::AppSpec tsp = apps::tsp_app();
  Row rows[] = {
      {"Big.sum(100)", apps::build_bigsum(), "Big.sum", {Value::of_i64(100)}, 64 << 10},
      {"Big.sum(65536)", apps::build_bigsum(), "Big.sum", {Value::of_i64(n)}, 64 << 10},
      {"tsp (bench args)", tsp.build(), tsp.entry, tsp.bench_args, 700},
      {"fft (bench args)", fft.build(), fft.entry, fft.bench_args, 4 << 10},
  };
  std::printf("exception-driven offload (Section II.B): small device heap, unlimited cloud "
              "heap, 384 kbps link\n");
  bool ok = true;
  for (Row& row : rows) ok = run_row(row) && ok;
  return ok ? 0 : 1;
}

SOD_REGISTER_SCENARIO("oom_offload", cli::ScenarioKind::Example,
                      "OutOfMemory on a small device moves the whole stack to the cloud "
                      "(Section II.B)",
                      run);

}  // namespace
