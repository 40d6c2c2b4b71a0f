// Property sweep: the core resume-equivalence invariant of DESIGN.md.
// For every Table I app, pause at many different execution points and
// segment sizes, offload, and require the final result to be identical to
// the undisturbed run.  Parameterized gtest generates the grid.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "testlib.h"

namespace sod {
namespace {

using apps::AppSpec;
using bc::Value;
using mig::SodNode;

struct Grid {
  int app;        // index into table1_apps()
  int pause_pct;  // % of total instructions before pausing
  int seg_frac;   // migrate 1..depth frames: depth * seg_frac / 100, min 1
};

class MigrationSweep : public ::testing::TestWithParam<Grid> {};

TEST_P(MigrationSweep, ResumeEquivalence) {
  Grid g = GetParam();
  AppSpec spec = apps::table1_apps()[static_cast<size_t>(g.app)];
  bc::Program p = spec.build();
  prep::preprocess_program(p);
  uint16_t entry = p.find_method(spec.entry);

  // Reference run + total instruction count.
  int64_t expected;
  uint64_t total;
  {
    SodNode ref("ref", p, {});
    int tid = ref.vm().spawn(entry, spec.bench_args);
    uint64_t i0 = ref.vm().instr_count();
    auto rr = ref.run_guest(tid);
    ASSERT_EQ(rr.reason, svm::StopReason::Done);
    expected = ref.vm().thread(tid).result.as_i64();
    total = ref.vm().instr_count() - i0;
  }

  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  int tid = home.vm().spawn(entry, spec.bench_args);
  home.run_guest(tid, total * static_cast<uint64_t>(g.pause_pct) / 100);
  if (!testing::pause_at_next_msp(home, tid)) {
    // Thread finished before the pause point (tiny apps at high %).
    EXPECT_EQ(home.vm().thread(tid).result.as_i64(), expected);
    return;
  }
  int depth = static_cast<int>(home.vm().thread(tid).frames.size());
  int nframes = std::max(1, depth * g.seg_frac / 100);

  mig::offload_and_return(home, tid, nframes, dest, sim::Link::gigabit());
  home.ti().set_debug_enabled(false);
  auto rr = home.run_guest(tid);
  ASSERT_TRUE(rr.reason == svm::StopReason::Done ||
              home.vm().thread(tid).status == svm::ThreadStatus::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), expected)
      << spec.name << " pause " << g.pause_pct << "% seg " << g.seg_frac << "%";
}

std::vector<Grid> make_grid() {
  std::vector<Grid> gs;
  for (int app = 0; app < 4; ++app)
    for (int pct : {5, 25, 50, 75, 95})
      for (int frac : {1, 50, 100})
        gs.push_back(Grid{app, pct, frac});
  return gs;
}

std::string grid_name(const ::testing::TestParamInfo<Grid>& info) {
  static const char* names[] = {"Fib", "NQ", "FFT", "TSP"};
  return std::string(names[info.param.app]) + "_p" + std::to_string(info.param.pause_pct) +
         "_s" + std::to_string(info.param.seg_frac);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MigrationSweep, ::testing::ValuesIn(make_grid()), grid_name);

// Double migration: offload, resume, offload again later.
class DoubleMigration : public ::testing::TestWithParam<int> {};

TEST_P(DoubleMigration, TwoHopsPreserveResult) {
  AppSpec spec = apps::table1_apps()[static_cast<size_t>(GetParam())];
  bc::Program p = spec.build();
  prep::preprocess_program(p);
  uint16_t entry = p.find_method(spec.entry);

  int64_t expected;
  uint64_t total;
  {
    SodNode ref("ref", p, {});
    int tid = ref.vm().spawn(entry, spec.bench_args);
    uint64_t i0 = ref.vm().instr_count();
    ref.run_guest(tid);
    expected = ref.vm().thread(tid).result.as_i64();
    total = ref.vm().instr_count() - i0;
  }

  SodNode home("home", p, {});
  SodNode d1("dest1", p, {});
  SodNode d2("dest2", p, {});
  int tid = home.vm().spawn(entry, spec.bench_args);
  home.run_guest(tid, total / 4);
  if (testing::pause_at_next_msp(home, tid))
    mig::offload_and_return(home, tid, 1, d1, sim::Link::gigabit());
  home.ti().set_debug_enabled(false);
  home.run_guest(tid, total / 4);
  if (home.vm().thread(tid).status == svm::ThreadStatus::Ready &&
      testing::pause_at_next_msp(home, tid))
    mig::offload_and_return(home, tid, 1, d2, sim::Link::gigabit());
  home.ti().set_debug_enabled(false);
  home.run_guest(tid);
  ASSERT_EQ(home.vm().thread(tid).status, svm::ThreadStatus::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), expected) << spec.name;
}

std::string app_param_name(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"Fib", "NQ", "FFT", "TSP"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllApps, DoubleMigration, ::testing::Range(0, 4), app_param_name);

}  // namespace
}  // namespace sod
