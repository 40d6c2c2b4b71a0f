// Unit tests for the support layer: byte buffers, rng, vclock, stats; and
// the CPU calendar every simulated node charges through.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/net.h"
#include "support/bytes.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/vclock.h"

namespace sod {
namespace {

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.25);
  w.str("hello");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.u8(7);
  w.patch_u32(0, 0xCAFEBABE);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.u8(), 7);
}

TEST(Bytes, EmptyString) {
  ByteWriter w;
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
}

TEST(Bytes, SeekAndRemaining) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.seek(4);
  EXPECT_EQ(r.u32(), 2u);
  EXPECT_TRUE(r.done());
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(VClock, AdvanceAndWait) {
  VClock c;
  EXPECT_EQ(c.now().ns, 0);
  c.advance(VDur::millis(2));
  EXPECT_DOUBLE_EQ(c.now().ms(), 2.0);
  c.wait_until(VDur::millis(1));  // already past; no-op
  EXPECT_DOUBLE_EQ(c.now().ms(), 2.0);
  c.wait_until(VDur::millis(5));
  EXPECT_DOUBLE_EQ(c.now().ms(), 5.0);
}

TEST(VClock, SetSwitchesTimelines) {
  VClock c;
  c.advance(VDur::millis(7));
  c.set(VDur::millis(3));  // back to an earlier timeline
  EXPECT_DOUBLE_EQ(c.now().ms(), 3.0);
  c.set(VDur::millis(9));
  EXPECT_DOUBLE_EQ(c.now().ms(), 9.0);
}

VDur us(double v) { return VDur::micros(v); }

TEST(CpuCalendar, BooksAtReadyWhenFree) {
  sim::CpuCalendar cal;
  EXPECT_EQ(cal.book(us(5), us(2)), us(5));
  EXPECT_EQ(cal.book(us(7), us(1)), us(7));  // starts where the first ends
  EXPECT_EQ(cal.book(us(20), us(1)), us(20));
  EXPECT_EQ(cal.booked(), us(4));
}

TEST(CpuCalendar, FillsTheFirstGapThatFits) {
  sim::CpuCalendar cal;
  cal.book(us(0), us(10));   // [0, 10)
  cal.book(us(15), us(10));  // [15, 25)
  cal.book(us(28), us(2));   // [28, 30)
  // A 5 us job ready at 2 fits exactly in [10, 15).
  EXPECT_EQ(cal.book(us(2), us(5)), us(10));
  // A 4 us job ready at 0 is too long for [25, 28): it goes after 30.
  EXPECT_EQ(cal.book(us(0), us(4)), us(30));
  // A 3 us job fits [25, 28) exactly; the core is now busy to 34.
  EXPECT_EQ(cal.book(us(1), us(3)), us(25));
  EXPECT_EQ(cal.book(us(0), us(1)), us(34));
  // Zero work needs no core.
  EXPECT_EQ(cal.book(us(3), VDur{}), us(3));
}

TEST(CpuCalendar, NeverOverlapsAndNeverStartsBeforeReady) {
  sim::CpuCalendar cal;
  Rng rng(17);
  std::vector<std::pair<VDur, VDur>> booked;  // [start, end)
  VDur total{};
  for (int i = 0; i < 400; ++i) {
    VDur ready = VDur::nanos(static_cast<int64_t>(rng.below(100000)));
    VDur d = VDur::nanos(1 + static_cast<int64_t>(rng.below(700)));
    VDur start = cal.book(ready, d);
    EXPECT_GE(start, ready);
    for (const auto& [s, e] : booked) ASSERT_TRUE(start + d <= s || e <= start) << i;
    booked.emplace_back(start, start + d);
    total += d;
  }
  EXPECT_EQ(cal.booked(), total);
}

TEST(CpuCalendar, ForgetBeforeDropsOnlyFinishedIntervals) {
  sim::CpuCalendar cal;
  cal.book(us(0), us(2));   // [0, 2)
  cal.book(us(4), us(2));   // [4, 6)
  cal.book(us(10), us(2));  // [10, 12)
  cal.forget_before(us(6));  // [4, 6) ends at 6: gone too
  EXPECT_EQ(cal.book(us(4), us(1)), us(4));
  cal.forget_before(us(11));  // [10, 12) is still running at 11
  EXPECT_EQ(cal.book(us(10), us(1)), us(12));
  EXPECT_EQ(cal.booked(), us(8));  // forgetting keeps the total
}

TEST(CpuCalendar, FreeFromSkipsTheIntervalInProgress) {
  sim::CpuCalendar cal;
  cal.book(us(0), us(4));   // [0, 4)
  cal.book(us(4), us(2));   // [4, 6): merged with the first
  cal.book(us(10), us(2));  // [10, 12)
  EXPECT_EQ(cal.free_from(us(1)), us(6));
  EXPECT_EQ(cal.free_from(us(6)), us(6));  // an interval's end is free
  EXPECT_EQ(cal.free_from(us(8)), us(8));  // idle, though booked later
  EXPECT_EQ(cal.free_from(us(10)), us(12));
  EXPECT_EQ(cal.free_from(us(30)), us(30));
}

TEST(SimNode, EveryChargeBooksTheCore) {
  // Two timelines share one node: the second, switched in at an earlier
  // instant, finds the core taken and queues behind the first's work —
  // whether the work is host-side, guest instructions, or a service a
  // round trip asks of the node.
  sim::Node home;
  sim::Node worker;
  home.clock.set(us(100));
  home.charge_host(us(50));  // [100, 150)
  EXPECT_EQ(home.clock.now(), us(150));
  home.clock.set(us(90));
  home.charge_instrs(10000);  // 20 us of guest code: no gap before 150
  EXPECT_EQ(home.clock.now(), us(170));
  home.clock.set(us(0));
  // The request lands at 100 + 0.1 ms latency = 200 us; the core is free.
  worker.clock.set(us(100));
  sim::round_trip(worker, home, sim::Link::gigabit(), 0, 0, us(5));
  EXPECT_EQ(home.clock.now(), us(205));
  // A second request, sent earlier, arrives at 160 while the core is busy
  // until 170: its 30 us service waits, then fills [170, 200) exactly.
  home.clock.set(us(0));
  worker.clock.set(us(60));
  sim::round_trip(worker, home, sim::Link::gigabit(), 0, 0, us(30));
  EXPECT_EQ(home.clock.now(), us(200));
  EXPECT_EQ(home.cpu.booked(), us(105));
}

TEST(VDur, UnitsAndArithmetic) {
  EXPECT_EQ(VDur::seconds(1.5).ns, 1'500'000'000);
  EXPECT_EQ(VDur::micros(3).ns, 3000);
  EXPECT_DOUBLE_EQ((VDur::millis(2) + VDur::millis(3)).ms(), 5.0);
  EXPECT_LT(VDur::millis(1), VDur::millis(2));
}

TEST(Stats, Moments) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Table, AlignsColumns) {
  Table t({"a", "bbbb"});
  t.row({"xx", "y"});
  std::string s = t.str();
  EXPECT_NE(s.find("a   bbbb"), std::string::npos);
  EXPECT_NE(s.find("xx  y"), std::string::npos);
}

}  // namespace
}  // namespace sod
