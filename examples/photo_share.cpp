// The paper's Section IV.D scenario: a web server shares photos stored on
// a phone *without installing any server software on the phone*.  The
// server-side search task migrates SOD-style onto the device, lists the
// photo directory there, and returns with the results; frames holding the
// server's sockets stay pinned at home.
#include <cstdio>

#include "apps/apps.h"
#include "cli/scenario.h"
#include "prep/prep.h"
#include "sod/migrate.h"

using namespace sod;
using bc::Value;

namespace {

int run(const cli::ScenarioOptions& opt) {
  const int kPhotos = opt.smoke ? 3 : 6;
  bc::Program prog = apps::build_photoshare();
  prep::preprocess_program(prog);

  mig::SodNode server("webserver", prog, {});
  mig::SodNode::Config phone_cfg;
  phone_cfg.cpu_scale = 25.0;         // iPhone-3G class CPU
  phone_cfg.java_level_restore = true;  // no tool interface on the device
  phone_cfg.heap_limit_bytes = 96 << 20;
  mig::SodNode phone("iphone", prog, phone_cfg);
  sim::Link wifi = sim::Link::wifi_kbps(384);

  // The phone's camera roll.
  sfs::FileStore photos;
  for (int i = 0; i < kPhotos; ++i) {
    sfs::SimFile f;
    f.name = "IMG_0" + std::to_string(42 + i) + ".jpg";
    f.size = (150 + 20 * static_cast<size_t>(i)) << 10;
    f.seed = 500 + static_cast<uint64_t>(i);
    photos.add(f);
  }
  sfs::MountedFs roll(&photos, sfs::MountSpeed::local_disk());

  // A client asks the server for the phone's photos.  The server starts
  // count_photos and migrates the find() frame to the device just before
  // the directory search (paper steps 1-2).
  uint16_t entry = prog.find_method("Photo.count_photos");
  uint16_t find = prog.find_method("Photo.find");
  int tid = server.vm().spawn(entry, std::vector<Value>{Value::of_i64(100)});
  mig::pause_at_depth(server, tid, find, 2);

  // count_photos (the socket-holding request handler) is pinned at home;
  // only the find() frame may leave.
  int migratable = mig::max_migratable_frames(server, tid, {entry});
  std::printf("stack depth 2, pinned handler below: %d frame(s) migratable\n", migratable);

  roll.install(phone.registry());
  mig::Segment seg(phone);
  mig::migrate(server, tid, mig::SegmentSpec{0, migratable}, seg, wifi, /*ship_class=*/false);
  std::printf("find() restored on the phone (restore %.1f ms at device speed)\n",
              phone.node().clock.now().ms());

  // Steps 3-4: the task searches the device directory and returns home.
  Value found = seg.run_to_completion();
  mig::write_back(seg, server, tid, migratable, found, wifi);
  server.node().clock.wait_until(phone.node().clock.now());
  server.ti().set_debug_enabled(false);
  server.run_guest(tid);
  std::printf("server resumed: %lld photos published as links\n",
              static_cast<long long>(server.vm().thread(tid).result.as_i64()));

  // Step 5: a client clicks a link; a new task fetches that photo's bytes.
  const int64_t kPick = kPhotos / 2;
  int tid2 = server.vm().spawn(prog.find_method("Photo.photo_size"),
                               std::vector<Value>{Value::of_i64(kPick)});
  mig::pause_at_depth(server, tid2, prog.find_method("Photo.fetch"), 2);
  auto out = mig::offload_and_return(server, tid2, 1, phone, wifi);
  server.ti().set_debug_enabled(false);
  server.run_guest(tid2);
  std::printf("photo #%lld fetched through the phone: %lld bytes (mig latency %.1f ms)\n",
              static_cast<long long>(kPick),
              static_cast<long long>(server.vm().thread(tid2).result.as_i64()),
              out.timing.latency().ms());
  return 0;
}

SOD_REGISTER_SCENARIO("photo_share", cli::ScenarioKind::Example,
                      "serverless photo sharing from a phone (Section IV.D)", run);

}  // namespace
