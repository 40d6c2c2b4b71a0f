#include "sodee/experiment.h"

#include <chrono>

#include "prep/prep.h"

namespace sod::sodee {

using bc::Value;
using svm::StopReason;

SystemMultipliers multipliers_for(const std::string& app_name) {
  // Table II no-migration columns divided by the JDK column.
  if (app_name == "Fib") return {49.57 / 12.10, 26.65 / 12.10};
  if (app_name == "NQ") return {38.20 / 6.26, 13.85 / 6.26};
  if (app_name == "FFT") return {255.3 / 12.39, 16.52 / 12.39};
  if (app_name == "TSP") return {20.93 / 2.92, 7.01 / 2.92};
  return {};
}

namespace {

double wall_seconds_of_run(const bc::Program& p, const std::string& entry,
                           std::span<const Value> args) {
  svm::NativeRegistry reg;
  svm::StdLib lib;
  lib.install(reg);
  svm::VM vm(p, &reg);
  uint16_t mid = p.find_method(entry);
  SOD_CHECK(mid != bc::kNoId, "unknown entry " + entry);
  auto t0 = std::chrono::steady_clock::now();
  int tid = vm.spawn(mid, args);
  auto rr = vm.run(tid);
  SOD_CHECK(rr.reason == StopReason::Done, "run did not finish");
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Accumulated local+static footprint (Table I's F): bytes of statics-
/// reachable heap plus 8 bytes per local slot on the paused stack.
size_t measure_F(SodNode& node, int tid) {
  size_t f = 0;
  const bc::Program& P = node.program();
  std::vector<bc::Ref> roots;
  for (const auto& c : P.classes) {
    if (!node.vm().class_loaded(c.id)) continue;
    f += static_cast<size_t>(c.num_static_slots) * 8;
    for (const Value& v : node.vm().statics_of(c.id))
      if (v.tag == bc::Ty::Ref && v.r != bc::kNull) roots.push_back(v.r);
  }
  if (!roots.empty()) f += node.vm().heap().graph_size(roots);
  for (const auto& fr : node.vm().thread(tid).frames) f += fr.locals.size() * 8;
  return f;
}

}  // namespace

MeasuredApp measure_app(const AppSpec& spec) {
  MeasuredApp m;
  m.spec = spec;

  // --- C0: real wall-clock ratio of preprocessed vs original code ---
  {
    bc::Program orig = spec.build();
    bc::Program prepped = spec.build();
    prep::preprocess_program(prepped);
    // Use smaller-than-bench args when the app is heavy?  Bench args are
    // already sized for interpretation.
    double t_orig = wall_seconds_of_run(orig, spec.entry, spec.bench_args);
    double t_prep = wall_seconds_of_run(prepped, spec.entry, spec.bench_args);
    m.c0 = t_orig > 0 ? std::max(0.0, t_prep / t_orig - 1.0) : 0.0;
  }

  sim::Link link = sim::Link::gigabit();
  bc::Program prog = spec.build();
  prep::preprocess_program(prog);
  uint16_t trigger = prog.find_method(spec.trigger_method);
  uint16_t entry = prog.find_method(spec.entry);
  SOD_CHECK(trigger != bc::kNoId && entry != bc::kNoId, "bad app spec: " + spec.name);

  // --- paper-scale trigger reach + SOD single-frame migration ---
  {
    SodNode home("home", prog, {});
    SodNode dest("dest", prog, {});
    int tid = home.vm().spawn(entry, spec.paper_args);
    SOD_CHECK(mig::pause_at_depth(home, tid, trigger, spec.paper_depth),
              "failed to reach paper depth for " + spec.name);
    m.measured_h = static_cast<int>(home.vm().thread(tid).frames.size());
    m.measured_F_bytes = measure_F(home, tid);

    // SOD ships only the top frame (paper Table IV discussion).
    mig::Segment seg(dest);
    m.sod = mig::migrate(home, tid, mig::SegmentSpec{0, 1}, seg, link, /*ship_class=*/true);
    // The segment is abandoned here: running Fib(46) to completion is not
    // the point of the latency experiment.
  }

  // --- G-JavaMPI eager-copy at paper scale ---
  {
    SodNode home("home", prog, {});
    SodNode dest("dest", prog, {});
    int tid = home.vm().spawn(entry, spec.paper_args);
    SOD_CHECK(mig::pause_at_depth(home, tid, trigger, spec.paper_depth), "gj trigger");
    home.ti().set_debug_enabled(false);
    int dtid = -1;
    m.gj = baselines::process_migrate(home, tid, dest, link, &dtid);
  }

  // --- JESSICA2 in-VM thread migration at paper scale ---
  {
    SodNode home("home", prog, {});
    SodNode dest("dest", prog, {});
    int tid = home.vm().spawn(entry, spec.paper_args);
    SOD_CHECK(mig::pause_at_depth(home, tid, trigger, spec.paper_depth), "j2 trigger");
    home.ti().set_debug_enabled(false);
    int dtid = -1;
    mig::ObjectManager om;
    m.j2 = baselines::thread_migrate(home, tid, dest, link, &dtid, &om);
  }

  // --- Xen live migration (cost model; identical for every app) ---
  m.xen = baselines::xen_live_migrate({}, link);

  // --- bench-scale end-to-end offload for fault/write-back behaviour ---
  {
    SodNode home("home", prog, {});
    SodNode dest("dest", prog, {});
    int tid = home.vm().spawn(entry, spec.bench_args);
    int depth = std::min(spec.paper_depth, 4);
    if (mig::pause_at_depth(home, tid, trigger, depth)) {
      auto out = mig::offload_and_return(home, tid, 1, dest, link);
      m.faults = out.faults;
      m.writeback = out.writeback;
      // Aggregate network time of the fault round trips.
      m.sod_fault_time =
          VDur::nanos(static_cast<int64_t>(m.faults.faults) * 2 * link.latency.ns) +
          link.transfer_time(m.faults.bytes);
      m.sod_writeback_time = link.transfer_time(m.writeback.bytes);
      home.ti().set_debug_enabled(false);
      auto rr = home.run_guest(tid);
      SOD_CHECK(rr.reason == StopReason::Done || rr.reason == StopReason::Crashed,
                "post-offload home run");
    }
  }
  return m;
}

OverheadRow overhead_row(const MeasuredApp& m) {
  OverheadRow r;
  r.app = m.spec.name;
  r.jdk_s = m.spec.paper_jdk_seconds;
  SystemMultipliers mult = multipliers_for(m.spec.name);

  double debug_tax = 1.0 + m.c0 + m.c1;
  r.sodee_nomig_s = r.jdk_s * debug_tax;
  r.gj_nomig_s = r.jdk_s * debug_tax;  // same debugger-interface ride
  r.j2_nomig_s = r.jdk_s * mult.jessica2;
  r.xen_nomig_s = r.jdk_s * mult.xen;

  double sod_overhead =
      (m.sod.latency() + m.sod_fault_time + m.sod_writeback_time).sec();
  r.sodee_mig_s = r.sodee_nomig_s + sod_overhead;
  r.gj_mig_s = r.gj_nomig_s + m.gj.latency().sec();
  r.j2_mig_s = r.j2_nomig_s + m.j2.latency().sec();
  r.xen_mig_s = r.xen_nomig_s + m.xen.total_latency.sec();
  return r;
}

// ---------------------------------------------------------------- Table VI

namespace {

sfs::FileStore make_doc_store(int nfiles, size_t bytes) {
  sfs::FileStore store;
  for (int i = 0; i < nfiles; ++i) {
    sfs::SimFile f;
    f.name = "doc" + std::to_string(i);
    f.size = bytes;
    f.seed = 1000 + static_cast<uint64_t>(i);
    f.needle = "sodneedle";
    f.needle_at = bytes - bytes / 4;
    store.add(f);
  }
  return store;
}

/// Run Search.main(nfiles) on `node` with the given mount; returns
/// (virtual seconds, hits).
std::pair<double, int64_t> timed_search(SodNode& node, sfs::MountedFs& mount, int nfiles) {
  mount.install(node.registry());
  VDur t0 = node.node().clock.now();
  Value hits = node.call_guest("Search.main", std::vector<Value>{Value::of_i64(nfiles)});
  return {(node.node().clock.now() - t0).sec(), hits.as_i64()};
}

}  // namespace

std::vector<LocalityRow> run_locality_experiment(const LocalityConfig& cfg) {
  bc::Program prog = apps::build_docsearch();
  prep::preprocess_program(prog);
  sfs::FileStore store = make_doc_store(cfg.nfiles, cfg.file_bytes);
  sim::Link link = sim::Link::gigabit();
  std::vector<LocalityRow> rows;

  // Floor: run locally on the server (local disk) — same for all systems.
  double on_server;
  {
    SodNode server("server", prog, {});
    mig::ObjectManager om;
    om.install(server);
    sfs::MountedFs mount(&store, sfs::MountSpeed::local_disk());
    auto [secs, hits] = timed_search(server, mount, cfg.nfiles);
    SOD_CHECK(hits == cfg.nfiles, "search missed needles");
    on_server = secs * cfg.report_scale;
  }
  // No-migration: run on the client over NFS — systems differ only by
  // their execution multiplier (irrelevant here: I/O dominates), so run
  // once and reuse.
  double no_mig;
  {
    SodNode client("client", prog, {});
    mig::ObjectManager om;
    om.install(client);
    sfs::MountedFs mount(&store, sfs::MountSpeed::nfs());
    auto [secs, hits] = timed_search(client, mount, cfg.nfiles);
    SOD_CHECK(hits == cfg.nfiles, "search missed needles");
    no_mig = secs * cfg.report_scale;
  }

  // SODEE: migrate the search to the server before any read.
  {
    SodNode client("client", prog, {});
    SodNode server("server", prog, {});
    sfs::MountedFs client_mount(&store, sfs::MountSpeed::nfs());
    client_mount.install(client.registry());
    sfs::MountedFs server_mount(&store, sfs::MountSpeed::local_disk());
    server_mount.install(server.registry());
    int tid = client.vm().spawn(prog.find_method("Search.main"),
                                std::vector<Value>{Value::of_i64(cfg.nfiles)});
    uint16_t run_m = prog.find_method("Search.run");
    SOD_CHECK(mig::pause_at_depth(client, tid, run_m, 2), "sod locality trigger");
    VDur t0 = client.node().clock.now();
    mig::Segment seg(server);
    mig::migrate(client, tid, mig::SegmentSpec{0, 2}, seg, link, /*ship_class=*/false);
    Value hits = seg.run_to_completion();
    SOD_CHECK(hits.as_i64() == cfg.nfiles, "sod search missed needles");
    mig::write_back(seg, client, tid, 2, hits, link);
    client.node().clock.wait_until(server.node().clock.now());
    double mig_s = (client.node().clock.now() - t0).sec() * cfg.report_scale;
    rows.push_back(LocalityRow{"SODEE", no_mig, mig_s, on_server});
  }

  // JESSICA2: thread migration to the server, then run there.  I/O goes
  // through the JVM's (slow) library: the paper saw almost no gain; model
  // that with the measured residual gain factor (the JVM I/O bottleneck),
  // applied as a server-side read-speed penalty.
  {
    SodNode client("client", prog, {});
    SodNode server("server", prog, {});
    sfs::MountedFs client_mount(&store, sfs::MountSpeed::nfs());
    client_mount.install(client.registry());
    int tid = client.vm().spawn(prog.find_method("Search.main"),
                                std::vector<Value>{Value::of_i64(cfg.nfiles)});
    uint16_t run_m = prog.find_method("Search.run");
    SOD_CHECK(mig::pause_at_depth(client, tid, run_m, 2), "j2 locality trigger");
    client.ti().set_debug_enabled(false);
    VDur t0 = client.node().clock.now();
    int dtid = -1;
    mig::ObjectManager om;
    baselines::thread_migrate(client, tid, server, link, &dtid, &om);
    // Kaffe-era I/O path: reads barely speed up on the server (paper: a
    // 2.88% gain); its buffered reader bottlenecks at ~NFS speed.
    sfs::MountSpeed j2_disk = sfs::MountSpeed::local_disk();
    j2_disk.bytes_per_sec = 80e6;  // JVM I/O library bottleneck
    sfs::MountedFs server_mount(&store, j2_disk);
    server_mount.install(server.registry());
    auto rr = server.run_guest(dtid);
    SOD_CHECK(rr.reason == StopReason::Done, "j2 locality run");
    client.node().clock.wait_until(server.node().clock.now());
    double mig_s = (client.node().clock.now() - t0).sec() * cfg.report_scale;
    rows.push_back(LocalityRow{"JESSICA2", no_mig * 1.0, mig_s, on_server});
  }

  // Xen: live migration then local reads; the multi-second migration
  // latency eats nearly the whole locality benefit.
  {
    SodNode server("server", prog, {});
    mig::ObjectManager om;
    om.install(server);
    baselines::XenTiming xt = baselines::xen_live_migrate({}, link);
    sfs::MountedFs server_mount(&store, sfs::MountSpeed::local_disk());
    auto [secs, hits] = timed_search(server, server_mount, cfg.nfiles);
    SOD_CHECK(hits == cfg.nfiles, "xen search missed needles");
    double mig_s = secs * cfg.report_scale + xt.total_latency.sec();
    rows.push_back(LocalityRow{"Xen", no_mig, mig_s, on_server});
  }
  return rows;
}

// -------------------------------------------------------- roaming (§IV.C)

RoamingResult run_roaming_grid(int nservers, size_t file_bytes, double report_scale) {
  bc::Program prog = apps::build_docsearch();
  prep::preprocess_program(prog);
  sim::Link wan(/*bandwidth_bps=*/100e6, /*latency=*/VDur::millis(2));
  RoamingResult res;
  res.hops = nservers;
  sfs::FileStore all = make_doc_store(nservers, file_bytes);

  // Baseline: all files read over WAN-NFS from the client.
  {
    SodNode client("client", prog, {});
    mig::ObjectManager om;
    om.install(client);
    sfs::MountSpeed wan_nfs = sfs::MountSpeed::nfs();
    wan_nfs.bytes_per_sec = 24e6;  // WAN-grade NFS (paper: 124.3 s for 3 GB)
    sfs::MountedFs mount(&all, wan_nfs);
    auto [secs, hits] = timed_search(client, mount, nservers);
    SOD_CHECK(hits == nservers, "roaming baseline missed needles");
    res.no_mig_s = secs * report_scale;
  }

  // Roaming: each search_one(i) hop migrates the top frame to server i.
  {
    SodNode client("client", prog, {});
    std::vector<std::unique_ptr<SodNode>> servers;
    for (int i = 0; i < nservers; ++i)
      servers.push_back(std::make_unique<SodNode>("server" + std::to_string(i), prog,
                                                  SodNode::Config{}));
    // The client itself never reads files in the roaming run, but needs a
    // mount for completeness.
    sfs::MountSpeed wan_nfs = sfs::MountSpeed::nfs();
    wan_nfs.bytes_per_sec = 24e6;
    sfs::MountedFs client_mount(&all, wan_nfs);
    mig::ObjectManager client_om;
    client_om.install(client);
    client_mount.install(client.registry());

    int tid = client.vm().spawn(prog.find_method("Search.main"),
                                std::vector<Value>{Value::of_i64(nservers)});
    uint16_t one_m = prog.find_method("Search.search_one");
    VDur t0 = client.node().clock.now();
    for (int hop = 0; hop < nservers; ++hop) {
      SOD_CHECK(mig::pause_at_depth(client, tid, one_m, 3), "roaming trigger");
      // Which file is this hop searching?  Read the idx parameter.
      int64_t idx = client.ti().get_local(tid, 0, 0).as_i64();
      SodNode& server = *servers[static_cast<size_t>(idx)];
      // Server idx hosts doc<idx> on local disk (the catalog covers all
      // names so index lookups work; the hop only reads its own file).
      sfs::MountedFs server_mount(&all, sfs::MountSpeed::local_disk());
      // The mount must be live before the offloaded segment runs.
      server_mount.install(server.registry());
      auto out = mig::offload_and_return(client, tid, 1, server, wan);
      SOD_CHECK(out.result.as_i64() == 1, "roaming hop missed its needle");
      client.ti().set_debug_enabled(false);
      client.node().clock.wait_until(server.node().clock.now());
    }
    auto rr = client.run_guest(tid);
    SOD_CHECK(rr.reason == StopReason::Done, "roaming run did not finish");
    res.roaming_s = (client.node().clock.now() - t0).sec() * report_scale;
    SOD_CHECK(client.vm().thread(tid).result.as_i64() == nservers, "roaming missed needles");
  }
  return res;
}

// --------------------------------------------------------------- Table VII

std::vector<BandwidthRow> run_bandwidth_experiment(const std::vector<double>& kbps_list) {
  bc::Program prog = apps::build_photoshare();
  prep::preprocess_program(prog);
  std::vector<BandwidthRow> rows;

  for (double kbps : kbps_list) {
    sim::Link wifi = sim::Link::wifi_kbps(kbps);
    SodNode server("server", prog, {});
    // iPhone-3G profile: ~25x slower CPU, no tool interface on the device
    // (Java-level restoration), modest heap.
    SodNode::Config dev_cfg;
    dev_cfg.cpu_scale = 25.0;
    dev_cfg.java_level_restore = true;
    dev_cfg.heap_limit_bytes = 96 << 20;
    SodNode phone("iphone", prog, dev_cfg);

    // Photos live on the phone.
    sfs::FileStore photos;
    for (int i = 0; i < 8; ++i) {
      sfs::SimFile f;
      f.name = "IMG_" + std::to_string(100 + i) + ".jpg";
      f.size = 200 << 10;
      f.seed = 7000 + static_cast<uint64_t>(i);
      photos.add(f);
    }
    sfs::MountedFs phone_mount(&photos, sfs::MountSpeed::local_disk());
    phone_mount.install(phone.registry());

    int tid = server.vm().spawn(prog.find_method("Photo.count_photos"),
                                std::vector<Value>{Value::of_i64(8)});
    uint16_t find_m = prog.find_method("Photo.find");
    SOD_CHECK(mig::pause_at_depth(server, tid, find_m, 2), "photo trigger");

    // The class image is fetched on demand: its round trips are the
    // class column, split out of the restore.
    mig::Segment seg(phone);
    mig::MigrationTiming hop =
        mig::migrate(server, tid, mig::SegmentSpec{0, 1}, seg, wifi, /*ship_class=*/false);
    BandwidthRow row;
    row.kbps = kbps;
    row.capture_ms = hop.capture.ms();
    row.state_ms = hop.transfer.ms();
    row.class_ms = phone.class_fetch_time().ms();
    row.restore_ms = (hop.restore - phone.class_fetch_time()).ms();

    Value found = seg.run_to_completion();  // the photo-name array (a ref)
    mig::write_back(seg, server, tid, 1, found, wifi);
    server.ti().set_debug_enabled(false);
    auto rr = server.run_guest(tid);
    SOD_CHECK(rr.reason == StopReason::Done, "photo server run");
    SOD_CHECK(server.vm().thread(tid).result.as_i64() == 8, "photo search wrong count");
    rows.push_back(row);
  }
  return rows;
}

}  // namespace sod::sodee
