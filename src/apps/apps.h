// Guest applications — the paper's benchmark programs (Table I) plus the
// document-search and photo-share workloads of Sections IV.C/IV.D, written
// against the SODEE bytecode builder.
//
// Each app provides:
//   - build():     the unpreprocessed program (callers run prep on it)
//   - bench-scale entry + args + expected result (real interpreted runs,
//     used by tests and the real-time micro benches)
//   - paper-scale args + the trigger (method, depth) at which the paper's
//     migration fires, used by the virtual-time experiments; reaching the
//     trigger is cheap even at paper scale (leftmost descent)
//   - Table I characteristics (n, h, F) and the measured Sun-JDK runtime
//     from Table II used as the virtual-time calibration anchor
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bytecode/builder.h"

namespace sod::apps {

using bc::Ty;
using bc::Value;

struct AppSpec {
  std::string name;
  std::function<bc::Program()> build;
  /// Emit the app's classes into an existing builder with `prefix`
  /// prepended to every class name (and thus to every qualified method /
  /// field reference).  Emitting the same app under two prefixes yields
  /// two fully independent class sets — separate statics, separate
  /// images — which is how the multi-tenant load generator isolates
  /// tenants inside one shared program.  build() is emit with an empty
  /// prefix into a fresh builder.  Entry / trigger names in this spec are
  /// unprefixed; callers qualify them with the same prefix.
  std::function<void(bc::ProgramBuilder&, const std::string&)> emit;

  std::string entry;                ///< qualified entry method
  std::vector<Value> bench_args;    ///< scaled-down, runs in tests
  int64_t bench_expected = 0;       ///< expected entry result at bench scale

  std::vector<Value> paper_args;    ///< paper-scale args (Table I "n")
  std::string trigger_method;       ///< method whose entry triggers migration
  int paper_depth = 1;              ///< stack height h at migration (Table I)
  double paper_jdk_seconds = 0;     ///< Table II "JDK" column (calibration)
  int64_t paper_n = 0;              ///< Table I problem size
  const char* paper_F = "";         ///< Table I accumulated field size
};

AppSpec fib_app();        ///< n-th Fibonacci, recursive (n=46, h=46, F<10)
AppSpec nqueens_app();    ///< n-queens, recursive (n=14, h=16, F<10)
AppSpec fft_app();        ///< n-point 2-D FFT, >64 MB statics (n=256, h=4)
AppSpec tsp_app();        ///< travelling salesman B&B (n=12, h=4, F~2500)

/// All four Table I apps in declaration order.
std::vector<AppSpec> table1_apps();

/// Prefix-parameterized emitters behind AppSpec::emit (exposed so callers
/// can compose several apps — or several tenants' copies of one app —
/// into a single program).
void emit_fib(bc::ProgramBuilder& pb, const std::string& prefix);
void emit_nqueens(bc::ProgramBuilder& pb, const std::string& prefix);
void emit_fft(bc::ProgramBuilder& pb, const std::string& prefix);
void emit_tsp(bc::ProgramBuilder& pb, const std::string& prefix);

/// Document search over the simulated fs (Section IV.C): searches `nfiles`
/// files named "doc0".."docN" for a needle; returns hit count.
/// Entry: Search.run(nfiles) ; per-file method: Search.search_one(idx).
bc::Program build_docsearch();

/// Exception-driven offload kernel (Section II.B): Big.sum(n) allocates an
/// n-element i64 array, fills it with 0..n-1 and returns the sum, n(n-1)/2.
/// The array dies inside the call, so a whole-stack offload ships back
/// nothing but the sum.
bc::Program build_bigsum();

/// Photo-share server (Section IV.D): Photo.find(count) lists photos on
/// the device fs; Photo.fetch(idx) returns one photo's data string.
/// Entry wrappers live in class Photo.
bc::Program build_photoshare();

}  // namespace sod::apps
