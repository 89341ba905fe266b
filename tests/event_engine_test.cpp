// Contract suite for the typed event engine (docs/event-engine.md):
// events execute in exact (time, seq) order across every kind —
// deliveries, deferred ICMP and timers — including same-timestamp
// bursts, handler reschedules and pool slot reuse. The Simulator-level
// scenario this order feeds is pinned in tests/golden_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "netsim/event_queue.hpp"

namespace odns::netsim {
namespace {

using util::Duration;
using util::Ipv4;
using util::SimTime;

/// Records every event the queue dispatches, in dispatch order: packet
/// events through the sink, timers through the target. `hook` lets a
/// timer handler schedule further events.
class Recorder : public PacketSink, public TimerTarget {
 public:
  struct Delivery {
    Ipv4 src, dst;
    HostId host;
    std::vector<std::uint8_t> payload;
  };
  struct Icmp {
    IcmpType type;
    Ipv4 router;
    Asn origin_as;
  };
  void deliver_event(Packet&& pkt, HostId host) override {
    order.push_back("deliver:" + std::to_string(host));
    deliveries.push_back(
        Delivery{pkt.src, pkt.dst, host, std::move(pkt.payload)});
  }
  void icmp_event(IcmpType type, Packet&&, Ipv4 router, Asn origin) override {
    order.push_back("icmp:" + std::to_string(origin));
    icmps.push_back(Icmp{type, router, origin});
  }
  void on_timer(std::uint64_t a, std::uint64_t b) override {
    order.push_back("timer:" + std::to_string(a));
    fired.emplace_back(a, b);
    if (hook) hook(a);
  }

  std::vector<std::string> order;
  std::vector<Delivery> deliveries;
  std::vector<Icmp> icmps;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fired;
  std::function<void(std::uint64_t)> hook;
};

TEST(EventEngineTest, FarFutureNamesTheDrainSentinel) {
  EXPECT_EQ(SimTime::far_future().nanos(), std::int64_t{1} << 62);
  EventQueue q;
  Recorder rec;
  q.schedule_timer(SimTime::from_nanos(42), &rec, 1, 0);
  q.run();  // default deadline = far_future(): drain, don't advance past
  EXPECT_EQ(rec.fired.size(), 1u);
  EXPECT_EQ(q.now(), SimTime::from_nanos(42));
}

TEST(EventEngineTest, KindsInterleaveBySequence) {
  EventQueue q;
  Recorder rec;
  q.bind_sink(&rec);

  // Every kind at the same timestamp: execution must follow scheduling
  // order exactly (the seq tie-break).
  const auto at = SimTime::from_nanos(100);
  q.schedule_timer(at, &rec, 0, 0);
  q.schedule_timer(at, &rec, 7, 9);
  Packet pkt;
  pkt.src = Ipv4{10, 0, 0, 1};
  pkt.dst = Ipv4{10, 0, 0, 2};
  pkt.payload = {1, 2, 3};
  q.schedule_deliver(at, std::move(pkt), HostId{5});
  q.schedule_deliver(at, Packet{}, HostId{6});
  Packet off;
  off.src = Ipv4{10, 0, 0, 3};
  q.schedule_icmp(at, IcmpType::ttl_exceeded, std::move(off), Ipv4{9, 9, 9, 9},
                  Asn{42});
  q.schedule_timer(at, &rec, 1, 0);

  EXPECT_EQ(q.run(at), 6u);
  EXPECT_EQ(rec.order,
            (std::vector<std::string>{"timer:0", "timer:7", "deliver:5",
                                      "deliver:6", "icmp:42", "timer:1"}));
  EXPECT_EQ(rec.fired[1], (std::pair<std::uint64_t, std::uint64_t>{7, 9}));
  ASSERT_EQ(rec.deliveries.size(), 2u);
  EXPECT_EQ(rec.deliveries[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_EQ(rec.icmps.size(), 1u);
  EXPECT_EQ(rec.icmps[0].router, (Ipv4{9, 9, 9, 9}));
  EXPECT_TRUE(q.empty());
}

TEST(EventEngineTest, RunAbsorbsSameTimestampReschedules) {
  EventQueue q;
  Recorder rec;
  // The first handler schedules two more events, one "in the past" —
  // both clamp to the current timestamp and must run after everything
  // already pending there, in scheduling order.
  rec.hook = [&](std::uint64_t a) {
    if (a != 0) return;
    q.schedule_timer(SimTime::from_nanos(10), &rec, 2, 0);
    q.schedule_timer(SimTime::from_nanos(50), &rec, 3, 0);
  };
  q.schedule_timer(SimTime::from_nanos(50), &rec, 0, 0);
  q.schedule_timer(SimTime::from_nanos(50), &rec, 1, 0);
  EXPECT_EQ(q.run(SimTime::from_nanos(50)), 4u);
  EXPECT_EQ(rec.order, (std::vector<std::string>{"timer:0", "timer:1",
                                                 "timer:2", "timer:3"}));
  EXPECT_EQ(q.now(), SimTime::from_nanos(50));
  EXPECT_EQ(q.run(SimTime::from_nanos(50)), 0u);  // empty: nothing to run
}

TEST(EventEngineTest, PoolSlotsAreRecycled) {
  EventQueue q;
  Recorder rec;
  q.bind_sink(&rec);
  constexpr std::size_t kWave = 64;
  std::size_t high_water = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (std::size_t i = 0; i < kWave; ++i) {
      Packet pkt;
      pkt.dst = Ipv4{10, 0, 0, static_cast<std::uint8_t>(i)};
      q.schedule_deliver(q.now() + Duration::nanos(static_cast<int>(i)),
                         std::move(pkt), HostId{static_cast<HostId>(i)});
    }
    q.run();
    if (cycle == 0) high_water = q.pool_slots();
  }
  // Freed slots are reused wave after wave: the slab never grows past
  // the first wave's high-water mark, and a drained queue has every
  // slot back on the freelist.
  EXPECT_EQ(q.pool_slots(), high_water);
  EXPECT_LE(high_water, kWave);
  EXPECT_EQ(q.free_slots(), q.pool_slots());
  EXPECT_EQ(rec.deliveries.size(), kWave * 10);
}

TEST(EventEngineTest, HandMixedScheduleRunsInTimeThenSequenceOrder) {
  // Timers and deliveries on clustered timestamps (i * 37 mod 5), so
  // every timestamp holds a tie: execution is by time, then by
  // scheduling order, whatever the kind.
  EventQueue q;
  Recorder rec;
  q.bind_sink(&rec);
  for (std::uint64_t i = 0; i < 16; ++i) {
    const auto at = SimTime::from_nanos(static_cast<std::int64_t>(
        (i * 37) % 5));
    if (i % 3 == 2) {
      q.schedule_deliver(at, Packet{}, static_cast<HostId>(i));
    } else {
      q.schedule_timer(at, &rec, i, 0);
    }
  }
  q.run();
  EXPECT_EQ(rec.order,
            (std::vector<std::string>{
                "timer:0", "deliver:5", "timer:10", "timer:15",  // t = 0
                "timer:3", "deliver:8", "timer:13",              // t = 1
                "timer:1", "timer:6", "deliver:11",              // t = 2
                "timer:4", "timer:9", "deliver:14",              // t = 3
                "deliver:2", "timer:7", "timer:12"}));           // t = 4
  EXPECT_EQ(q.now(), SimTime::from_nanos(4));
  EXPECT_EQ(q.executed(), 16u);
}

TEST(EventEngineTest, NullTimerTargetIsRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule_timer(SimTime::from_nanos(1), nullptr, 0, 0),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace odns::netsim
