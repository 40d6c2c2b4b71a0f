// Object manager — both halves of the paper's Section III.C design.
//
// Worker side: implements the objman.* natives the preprocessor's fault
// handlers call.  A missing reference is repaired by asking the home node:
//   bring_local  -> home reads the suspended frame's local via the tool
//                   interface (GetLocal) and serializes the object
//   bring_static -> home reads the static field
//   bring_field / bring_elem -> resolved through the stub the holder's
//                   deserialization left in that field / element, which
//                   carries the home ref
// Fetches are shallow: one object per round trip, references inside it
// arrive as stubs and fault later — the paper's "heap-on-demand".
//
// objman.enter implements the paper's application-NPE passthrough: if a
// statement retries without any repair making progress, the NPE is a real
// application bug and is rethrown (caught by whatever guest handler the
// preprocessor extended over the fault handler).
//
// Home side: the agent thread that serves object requests; here it is the
// serve_* methods, charged with tool-interface and serialization costs on
// the home node's clock.  In wall-clock mode every home touch runs inside
// a HomeGate section keyed by the home ref (or owning class), so requests
// for objects on different home shards overlap their service windows while
// the virtual-clock accounting stays on the gate's ordered path.
//
// The home-object table (home ref -> local ref) belongs to one segment and
// is touched by one lane at a time, so it is a single unlocked map.  The
// canonical iteration order for write-backs is home_entries() — sorted by
// home ref — so the wire record order (and with it the home-side creation
// ids) does not depend on hash-map iteration order.
#pragma once

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sod/homegate.h"
#include "sod/node.h"
#include "sod/state.h"

namespace sod::mig {

struct FaultStats {
  int faults = 0;           ///< fetch round trips (object misses)
  int prefetched = 0;       ///< extra objects piggybacked on those trips
  size_t bytes = 0;         ///< serialized bytes fetched
  int app_npe_rethrown = 0; ///< genuine application NPEs passed through
};

class ObjectManager {
 public:
  /// Install objman.* natives into `worker`'s registry.  Standalone (no
  /// home bound) the natives only implement application-NPE passthrough,
  /// which is also the correct behaviour for never-migrated runs.
  void install(SodNode& worker);

  /// Bind to the home node whose thread `home_tid` holds the suspended
  /// segment: the worker's bottom `seg_len` frames mirror home's top
  /// `seg_len` frames.
  void bind_home(SodNode* home, int home_tid, int seg_len, sim::Link link);
  void unbind_home() { home_ = nullptr; }

  /// Serialize every home-side touch (tool-interface reads, object fetch
  /// round trips) through `gate`.  The wall-clock engine installs itself
  /// here so concurrent worker lanes take the key's stripe plus the
  /// ordered home lock; nullptr (the default) keeps the lock-free
  /// single-threaded behaviour of the virtual-time scheduler.
  void set_home_gate(HomeGate* gate) { home_gate_ = gate; }
  HomeGate* home_gate() const { return home_gate_; }

  const FaultStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Everything fetched so far as (home ref, local ref), sorted by home
  /// ref — the canonical write-back iteration order, independent of
  /// hash-map iteration order.
  std::vector<std::pair<Ref, Ref>> home_entries() const;
  /// Local ref of a fetched home object (kNull if never fetched).
  Ref local_of_home(Ref home_ref) const;

  /// Record a (home, local) identity established outside a fetch: a
  /// checkpoint that shipped a locally created object home adopts the new
  /// home id, so later checkpoints and the final write-back treat the
  /// object as an update of that home object instead of re-creating it.
  void adopt_mapping(Ref home_ref, Ref local_ref) {
    home_map_[home_ref] = local_ref;
    local_map_[local_ref] = home_ref;
  }

  /// Fetch a home object into the worker heap (public for write-back and
  /// prefetch policies).
  Ref fetch(Ref home_ref);

  /// Reachability prefetch (paper Section VI future work): each miss also
  /// ships the home objects reachable within `depth` hops in the same
  /// response — one round trip, bigger payload, fewer later misses.
  void set_prefetch_depth(int depth) { prefetch_depth_ = depth; }
  int prefetch_depth() const { return prefetch_depth_; }

  /// Record that `stub` stands for the home value of (frame_idx, slot) of
  /// the migrated segment (set while the restoration handler runs).
  void register_local_stub(Ref stub, int frame_idx, uint16_t slot);
  /// Home ref a stub stands for: from the stub itself (deserialized
  /// objects), by reading the home static it carries (captured statics),
  /// or via GetLocal on the suspended home frame (captured locals).
  /// kNull if unresolvable.
  Ref resolve_stub_home(Ref stub);
  /// Reverse map: home ref of a fetched local object (kNull if local-new).
  Ref home_of_local(Ref local) const {
    auto it = local_map_.find(local);
    return it == local_map_.end() ? bc::kNull : it->second;
  }

 private:
  void bring_local(svm::VM& vm, int64_t slot);
  void bring_static(svm::VM& vm, int64_t field_id);
  void bring_field(svm::VM& vm, Ref base, int64_t field_id);
  void bring_elem(svm::VM& vm, Ref base, int64_t idx);
  void enter(svm::VM& vm, int64_t uid);

  SodNode* worker_ = nullptr;
  SodNode* home_ = nullptr;
  HomeGate* home_gate_ = nullptr;
  int home_tid_ = -1;
  int seg_len_ = 0;
  sim::Link link_{};
  int prefetch_depth_ = 0;

  std::unordered_map<Ref, Ref> home_map_;   // home -> local
  std::unordered_map<Ref, Ref> local_map_;  // local -> home
  std::unordered_map<Ref, std::pair<int, uint16_t>> local_stub_origin_;  // stub -> (frame, slot)

  // no-progress retry detection (per worker thread); progress counts
  // *repair actions* (slots actually filled in), so cache-hit repairs on
  // later loop iterations register as progress too.
  int repairs_done_ = 0;
  struct EnterState {
    int64_t uid = -1;
    int fetches = -1;
  };
  std::unordered_map<int, EnterState> enter_state_;

  FaultStats stats_;
};

}  // namespace sod::mig
