#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

#include "netsim/event_queue.hpp"
#include "netsim/sim.hpp"
#include "util/rng.hpp"

namespace odns::netsim {
namespace {

using util::Duration;
using util::Ipv4;
using util::Prefix;
using util::SimTime;

// ---------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------

/// Test timer: records each firing's first argument word; `hook` lets
/// a handler schedule further events.
class RecordingTimer : public TimerTarget {
 public:
  void on_timer(std::uint64_t a, std::uint64_t) override {
    fired.push_back(static_cast<int>(a));
    if (hook) hook(a);
  }
  std::vector<int> fired;
  std::function<void(std::uint64_t)> hook;
};

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue q;
  RecordingTimer t;
  q.schedule_timer(SimTime::from_nanos(30), &t, 3, 0);
  q.schedule_timer(SimTime::from_nanos(10), &t, 1, 0);
  q.schedule_timer(SimTime::from_nanos(20), &t, 2, 0);
  q.run();
  EXPECT_EQ(t.fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  RecordingTimer t;
  for (int i = 0; i < 5; ++i) {
    q.schedule_timer(SimTime::from_nanos(100), &t, i, 0);
  }
  q.run();
  EXPECT_EQ(t.fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PastEventsClampToNow) {
  EventQueue q;
  RecordingTimer t;
  t.hook = [&](std::uint64_t a) {
    if (a == 0) q.schedule_timer(SimTime::from_nanos(50), &t, 1, 0);
  };
  q.schedule_timer(SimTime::from_nanos(100), &t, 0, 0);
  q.run();
  EXPECT_EQ(t.fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.now().nanos(), 100);
}

TEST(EventQueueTest, RunRespectsDeadline) {
  EventQueue q;
  RecordingTimer t;
  q.schedule_timer(SimTime::from_nanos(10), &t, 0, 0);
  q.schedule_timer(SimTime::from_nanos(1000), &t, 1, 0);
  q.run(SimTime::from_nanos(100));
  EXPECT_EQ(t.fired.size(), 1u);
  EXPECT_EQ(q.now(), SimTime::from_nanos(100));
  q.run();
  EXPECT_EQ(t.fired.size(), 2u);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  RecordingTimer t;
  t.hook = [&](std::uint64_t a) {
    if (a + 1 < 10) q.schedule_timer(q.now() + Duration::nanos(1), &t, a + 1, 0);
  };
  q.schedule_timer(SimTime::origin(), &t, 0, 0);
  q.run();
  EXPECT_EQ(t.fired.size(), 10u);
}

// ---------------------------------------------------------------------
// Network / routing fixture
// ---------------------------------------------------------------------

class NetworkFixture : public ::testing::Test {
 protected:
  // A -- B -- C chain plus D hanging off B.
  void SetUp() override {
    auto add = [&](Asn asn, int hops, bool sav = true) {
      AsConfig cfg;
      cfg.asn = asn;
      cfg.internal_hops = hops;
      cfg.source_address_validation = sav;
      net().add_as(cfg);
    };
    add(1, 1);
    add(2, 2);
    add(3, 1);
    add(4, 3, /*sav=*/false);
    net().link(1, 2);
    net().link(2, 3);
    net().link(2, 4);
    net().announce(1, Prefix{Ipv4{10, 1, 0, 0}, 16});
    net().announce(3, Prefix{Ipv4{10, 3, 0, 0}, 16});
    net().announce(4, Prefix{Ipv4{10, 4, 0, 0}, 16});
    a_ = net().add_host(1, {Ipv4{10, 1, 0, 1}});
    c_ = net().add_host(3, {Ipv4{10, 3, 0, 1}});
    d_ = net().add_host(4, {Ipv4{10, 4, 0, 1}});
  }

  Network& net() { return sim_.net(); }

  Simulator sim_;
  HostId a_ = kInvalidHost;
  HostId c_ = kInvalidHost;
  HostId d_ = kInvalidHost;
};

TEST_F(NetworkFixture, AsDistance) {
  EXPECT_EQ(net().as_distance(1, 1), 0);
  EXPECT_EQ(net().as_distance(1, 2), 1);
  EXPECT_EQ(net().as_distance(1, 3), 2);
  EXPECT_EQ(net().as_distance(1, 4), 2);
  EXPECT_EQ(net().as_distance(1, 999), -1);
}

TEST_F(NetworkFixture, AsIndexThrowsOnUnknownAsn) {
  EXPECT_EQ(net().as_index(1), 0u);
  EXPECT_EQ(net().as_index(4), 3u);
  EXPECT_THROW((void)net().as_index(999), std::out_of_range);
}

TEST_F(NetworkFixture, RouteConcatenatesInternalHops) {
  const auto route = net().route(a_, Ipv4{10, 3, 0, 1});
  ASSERT_TRUE(route.has_value());
  // AS1 (1 hop) + AS2 (2 hops) + AS3 (1 hop) = 4 router hops.
  EXPECT_EQ(route->router_hops.size(), 4u);
  EXPECT_EQ(route->as_path, (std::vector<Asn>{1, 2, 3}));
  EXPECT_EQ(route->dst_host, c_);
}

TEST_F(NetworkFixture, RouterHopsBelongToPathAses) {
  const auto route = net().route(a_, Ipv4{10, 3, 0, 1});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(net().router_owner(route->router_hops[0]), Asn{1});
  EXPECT_EQ(net().router_owner(route->router_hops[1]), Asn{2});
  EXPECT_EQ(net().router_owner(route->router_hops[2]), Asn{2});
  EXPECT_EQ(net().router_owner(route->router_hops[3]), Asn{3});
}

TEST_F(NetworkFixture, NoRouteToUnknownAddress) {
  EXPECT_FALSE(net().route(a_, Ipv4{172, 16, 0, 1}).has_value());
}

TEST_F(NetworkFixture, SourceLegitimacyFollowsAnnouncements) {
  EXPECT_TRUE(net().source_is_legitimate(1, Ipv4{10, 1, 2, 3}));
  EXPECT_FALSE(net().source_is_legitimate(1, Ipv4{10, 3, 0, 1}));
}

TEST_F(NetworkFixture, AnycastPicksNearestMember) {
  // Members in AS3 (2 hops from AS1) and AS4 (2 hops) — then add a
  // member in AS2 (1 hop) and expect it to win.
  const Ipv4 anycast{9, 9, 9, 9};
  net().announce(3, Prefix{anycast, 24});
  net().announce(4, Prefix{anycast, 24});
  const auto m3 = net().add_host(3, {Ipv4{10, 3, 0, 9}});
  const auto m4 = net().add_host(4, {Ipv4{10, 4, 0, 9}});
  net().join_anycast(anycast, m3);
  net().join_anycast(anycast, m4);
  EXPECT_EQ(net().resolve_destination(anycast, 1),
            m3);  // tie: first member wins deterministically
  net().announce(2, Prefix{anycast, 24});
  const auto m2 = net().add_host(2, {Ipv4{10, 3, 0, 10}});
  net().join_anycast(anycast, m2);
  EXPECT_EQ(net().resolve_destination(anycast, 1), m2);
}

TEST_F(NetworkFixture, AnycastTieBreaksOnMemberOrder) {
  // AS3 and AS4 are both 2 hops from AS1 and 1 hop from AS2. The AS4
  // member joins first, so it wins every tie — member order decides,
  // not host id or AS order.
  const Ipv4 anycast{9, 9, 9, 9};
  const auto m3 = net().add_host(3, {Ipv4{10, 3, 0, 9}});
  const auto m4 = net().add_host(4, {Ipv4{10, 4, 0, 9}});
  net().join_anycast(anycast, m4);
  net().join_anycast(anycast, m3);
  EXPECT_EQ(net().resolve_destination(anycast, 1), m4);
  EXPECT_EQ(net().resolve_destination(anycast, 2), m4);
  EXPECT_EQ(net().resolve_destination(anycast, 3), m3);  // 0 hops
  EXPECT_EQ(net().resolve_destination(anycast, 4), m4);
  EXPECT_EQ(net().resolve_destination(anycast, 999), kInvalidHost);
}

TEST_F(NetworkFixture, RoutingFollowsMutationsAfterFirstLookup) {
  const Ipv4 anycast{9, 9, 9, 9};
  const auto m3 = net().add_host(3, {Ipv4{10, 3, 0, 9}});
  const auto m4 = net().add_host(4, {Ipv4{10, 4, 0, 9}});
  net().join_anycast(anycast, m3);
  net().join_anycast(anycast, m4);
  ASSERT_EQ(net().route_view(1, anycast)->dst_host, m3);

  // link: AS4 moves to 1 hop from AS1, so its member wins.
  net().link(1, 4);
  auto view = net().route_view(1, anycast);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->dst_host, m4);
  EXPECT_EQ(*view->as_path, (std::vector<Asn>{1, 4}));

  // join_anycast: a member inside the source AS is 0 hops away.
  const auto m1 = net().add_host(1, {Ipv4{10, 1, 0, 9}});
  net().join_anycast(anycast, m1);
  view = net().route_view(1, anycast);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->dst_host, m1);
  EXPECT_EQ(*view->as_path, (std::vector<Asn>{1}));
  EXPECT_EQ(net().route_view(2, anycast)->dst_host, m3);

  // add_host: an address nobody owned becomes routable.
  const Ipv4 fresh{10, 3, 0, 77};
  EXPECT_FALSE(net().route_view(1, fresh).has_value());
  const auto owner = net().add_host(3, {fresh});
  view = net().route_view(1, fresh);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->dst_host, owner);
  EXPECT_EQ(*view->as_path, (std::vector<Asn>{1, 2, 3}));
}

TEST_F(NetworkFixture, DuplicateAddressThrows) {
  EXPECT_THROW(net().add_host(1, {Ipv4{10, 1, 0, 1}}), std::invalid_argument);
}

TEST_F(NetworkFixture, DuplicateAsnThrows) {
  AsConfig cfg;
  cfg.asn = 1;
  EXPECT_THROW(net().add_as(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Simulator behaviour
// ---------------------------------------------------------------------

class EchoApp : public App {
 public:
  explicit EchoApp(Simulator& sim, HostId host) : sim_(&sim), host_(host) {}
  void on_datagram(const Datagram& d) override {
    received.push_back(d.src);
    ttls.push_back(d.ttl);
    SendOptions opts;
    opts.dst = d.src;
    opts.src_port = d.dst_port;
    opts.dst_port = d.src_port;
    opts.payload = *d.payload;
    sim_->send_udp(host_, std::move(opts));
  }
  std::vector<Ipv4> received;
  std::vector<int> ttls;

 private:
  Simulator* sim_;
  HostId host_;
};

class SinkApp : public App {
 public:
  void on_datagram(const Datagram& d) override {
    received.push_back(d.src);
    ttls.push_back(d.ttl);
  }
  std::vector<Ipv4> received;
  std::vector<int> ttls;
};

TEST_F(NetworkFixture, DeliversAndEchoes) {
  EchoApp echo(sim_, c_);
  SinkApp sink;
  sim_.bind_udp(c_, 53, &echo);
  sim_.bind_udp_wildcard(a_, &sink);
  SendOptions opts;
  opts.dst = Ipv4{10, 3, 0, 1};
  opts.src_port = 1234;
  opts.dst_port = 53;
  opts.payload = {1, 2, 3};
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  ASSERT_EQ(echo.received.size(), 1u);
  EXPECT_EQ(echo.received[0], (Ipv4{10, 1, 0, 1}));
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0], (Ipv4{10, 3, 0, 1}));
  EXPECT_EQ(sim_.counters().delivered, 2u);
}

TEST_F(NetworkFixture, TtlDecrementsAcrossRouters) {
  SinkApp sink;
  sim_.bind_udp(c_, 53, &sink);
  SendOptions opts;
  opts.dst = Ipv4{10, 3, 0, 1};
  opts.dst_port = 53;
  opts.ttl = 64;
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  ASSERT_EQ(sink.ttls.size(), 1u);
  EXPECT_EQ(sink.ttls[0], 60);  // 4 router hops consumed
}

TEST_F(NetworkFixture, TtlExpiryGeneratesIcmpFromExpiringRouter) {
  std::vector<Packet> icmp;
  sim_.set_icmp_handler(a_, [&](const Packet& p) { icmp.push_back(p); });
  SendOptions opts;
  opts.dst = Ipv4{10, 3, 0, 1};
  opts.src_port = 777;
  opts.dst_port = 53;
  opts.ttl = 2;  // expires at the second router (inside AS2)
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  ASSERT_EQ(icmp.size(), 1u);
  EXPECT_EQ(icmp[0].icmp_type, IcmpType::ttl_exceeded);
  EXPECT_EQ(net().router_owner(icmp[0].src), Asn{2});
  EXPECT_EQ(icmp[0].icmp_quote.orig_src_port, 777);
  EXPECT_EQ(sim_.counters().ttl_expired, 1u);
}

TEST_F(NetworkFixture, UnboundPortTriggersPortUnreachable) {
  std::vector<Packet> icmp;
  sim_.set_icmp_handler(a_, [&](const Packet& p) { icmp.push_back(p); });
  SendOptions opts;
  opts.dst = Ipv4{10, 3, 0, 1};
  opts.dst_port = 9999;
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  ASSERT_EQ(icmp.size(), 1u);
  EXPECT_EQ(icmp[0].icmp_type, IcmpType::port_unreachable);
  EXPECT_EQ(icmp[0].src, (Ipv4{10, 3, 0, 1}));
}

TEST_F(NetworkFixture, SavDropsSpoofedTraffic) {
  // AS1 validates sources: spoofing from host A must be dropped.
  SinkApp sink;
  sim_.bind_udp(c_, 53, &sink);
  SendOptions opts;
  opts.dst = Ipv4{10, 3, 0, 1};
  opts.dst_port = 53;
  opts.spoof_src = Ipv4{10, 4, 0, 1};
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(sim_.counters().dropped_sav, 1u);
}

TEST_F(NetworkFixture, SavFreeNetworkAllowsSpoofing) {
  // AS4 does not validate: host D can spoof host A's address.
  SinkApp sink;
  sim_.bind_udp(c_, 53, &sink);
  SendOptions opts;
  opts.dst = Ipv4{10, 3, 0, 1};
  opts.dst_port = 53;
  opts.spoof_src = Ipv4{10, 1, 0, 1};
  sim_.send_udp(d_, std::move(opts));
  sim_.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0], (Ipv4{10, 1, 0, 1}));
}

TEST_F(NetworkFixture, RedirectRelaysWithSourcePreserved) {
  // Install a transparent redirect on D (SAV-free AS): DNS to D goes to
  // C; C must see A's address as the source.
  SinkApp sink;
  sim_.bind_udp(c_, 53, &sink);
  sim_.add_port_redirect(d_, 53, Ipv4{10, 3, 0, 1});
  SendOptions opts;
  opts.dst = Ipv4{10, 4, 0, 1};
  opts.src_port = 555;
  opts.dst_port = 53;
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0], (Ipv4{10, 1, 0, 1}));  // spoof preserved
  EXPECT_EQ(sim_.redirect_relays(d_), 1u);
  EXPECT_EQ(sim_.counters().redirected, 1u);
}

TEST_F(NetworkFixture, RedirectDecrementsTtlLikeARouter) {
  SinkApp sink;
  sim_.bind_udp(c_, 53, &sink);
  sim_.add_port_redirect(d_, 53, Ipv4{10, 3, 0, 1});
  SendOptions opts;
  opts.dst = Ipv4{10, 4, 0, 1};
  opts.dst_port = 53;
  opts.ttl = 64;
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  ASSERT_EQ(sink.ttls.size(), 1u);
  // a→d: AS1(1)+AS2(2)+AS4(3)=6 routers, device itself 1,
  // d→c: AS4(3)+AS2(2)+AS3(1)=6 routers → 64-13=51.
  EXPECT_EQ(sink.ttls[0], 51);
}

TEST_F(NetworkFixture, RedirectAnswersTtlExceededWhenExpiring) {
  // TTL dies exactly on the device: its own stack answers and nothing
  // is forwarded — the DNSRoute++ pivot behaviour.
  std::vector<Packet> icmp;
  sim_.set_icmp_handler(a_, [&](const Packet& p) { icmp.push_back(p); });
  SinkApp sink;
  sim_.bind_udp(c_, 53, &sink);
  sim_.add_port_redirect(d_, 53, Ipv4{10, 3, 0, 1});
  SendOptions opts;
  opts.dst = Ipv4{10, 4, 0, 1};
  opts.dst_port = 53;
  opts.ttl = 7;  // 6 routers + the device
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  ASSERT_EQ(icmp.size(), 1u);
  EXPECT_EQ(icmp[0].src, (Ipv4{10, 4, 0, 1}));  // the device, not a router
  EXPECT_TRUE(sink.received.empty());
}

TEST_F(NetworkFixture, SavBlocksTransparentRelayInValidatingAs) {
  // The same redirect installed in AS1 (SAV on) leaks nothing: the
  // spoofed relay is dropped at egress. This is why deployed
  // transparent forwarders imply missing SAV.
  SinkApp sink;
  sim_.bind_udp(c_, 53, &sink);
  const auto a2 = net().add_host(1, {Ipv4{10, 1, 0, 2}});
  sim_.add_port_redirect(a2, 53, Ipv4{10, 3, 0, 1});
  SendOptions opts;
  opts.dst = Ipv4{10, 1, 0, 2};
  opts.dst_port = 53;
  sim_.send_udp(d_, std::move(opts));
  sim_.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(sim_.counters().dropped_sav, 1u);
}

TEST(SimulatorLoss, LossRateDropsRoughlyProportionally) {
  SimConfig cfg;
  cfg.loss_rate = 0.3;
  cfg.seed = 9;
  Simulator sim(cfg);
  AsConfig ac;
  ac.asn = 1;
  ac.internal_hops = 1;
  sim.net().add_as(ac);
  ac.asn = 2;
  sim.net().add_as(ac);
  sim.net().link(1, 2);
  sim.net().announce(1, Prefix{Ipv4{10, 1, 0, 0}, 24});
  sim.net().announce(2, Prefix{Ipv4{10, 2, 0, 0}, 24});
  const auto a = sim.net().add_host(1, {Ipv4{10, 1, 0, 1}});
  const auto b = sim.net().add_host(2, {Ipv4{10, 2, 0, 1}});
  SinkApp sink;
  sim.bind_udp(b, 53, &sink);
  for (int i = 0; i < 1000; ++i) {
    SendOptions opts;
    opts.dst = Ipv4{10, 2, 0, 1};
    opts.dst_port = 53;
    sim.send_udp(a, std::move(opts));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(sink.received.size()), 700.0, 60.0);
  EXPECT_EQ(sim.counters().dropped_loss + sink.received.size(), 1000u);
}

// ---------------------------------------------------------------------
// Route cache: epoch invalidation and equivalence with a reference
// ---------------------------------------------------------------------

TEST_F(NetworkFixture, RouteCacheHitsOnRepeatAndInvalidatesOnLink) {
  const auto epoch0 = net().topology_epoch();
  const auto r1 = net().route(a_, Ipv4{10, 3, 0, 1});
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->as_path, (std::vector<Asn>{1, 2, 3}));

  const auto hits_before = net().route_cache_stats().hits;
  const auto r2 = net().route(a_, Ipv4{10, 3, 0, 1});
  EXPECT_GT(net().route_cache_stats().hits, hits_before);
  EXPECT_EQ(r2->router_hops, r1->router_hops);

  // A direct 1--3 link must be observed immediately: no stale cache hit.
  net().link(1, 3);
  EXPECT_GT(net().topology_epoch(), epoch0);
  const auto r3 = net().route(a_, Ipv4{10, 3, 0, 1});
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->as_path, (std::vector<Asn>{1, 3}));
  EXPECT_EQ(r3->router_hops.size(), 2u);  // AS1 (1 hop) + AS3 (1 hop)
  EXPECT_GE(net().route_cache_stats().stale_evictions, 1u);
}

TEST_F(NetworkFixture, RouteCacheInvalidatedByHostAnycastAndAnnounce) {
  // Warm a negative entry: nothing owns the address yet.
  const Ipv4 any{9, 9, 9, 9};
  EXPECT_FALSE(net().route(a_, any).has_value());

  // add_host + join_anycast must flip that negative entry.
  const auto m3 = net().add_host(3, {Ipv4{10, 3, 0, 9}});
  net().join_anycast(any, m3);
  auto r = net().route(a_, any);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->dst_host, m3);

  // A strictly closer member joining later wins the next lookup.
  const auto m2 = net().add_host(2, {Ipv4{10, 2, 0, 9}});
  net().join_anycast(any, m2);
  r = net().route(a_, any);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->dst_host, m2);

  // announce() bumps the epoch too — conservatively, so the epoch
  // invariant stays "any mutation invalidates" rather than tracking
  // which mutations routing consumes.
  const auto epoch_before = net().topology_epoch();
  net().announce(2, Prefix{Ipv4{10, 2, 0, 0}, 16});
  EXPECT_GT(net().topology_epoch(), epoch_before);
  EXPECT_TRUE(net().source_is_legitimate(2, Ipv4{10, 2, 5, 5}));
}

TEST_F(NetworkFixture, RouteViewBorrowsCacheStorage) {
  const auto view = net().route_view(1, Ipv4{10, 3, 0, 1});
  ASSERT_TRUE(view.has_value());
  const auto full = net().route_from_as(1, Ipv4{10, 3, 0, 1});
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*view->router_hops, full->router_hops);
  EXPECT_EQ(*view->as_path, full->as_path);
  EXPECT_EQ(view->dst_host, full->dst_host);
  // A repeat lookup is a cache hit onto the same underlying vectors.
  const auto view2 = net().route_view(1, Ipv4{10, 3, 0, 1});
  EXPECT_EQ(view->router_hops, view2->router_hops);
  EXPECT_EQ(view->as_path, view2->as_path);
}

/// Test-local routing reference: a plain BFS in neighbor order from the
/// source AS, the nearest-PoP member loop (fewest AS hops, then member
/// order) and an owner map — nothing shared with Network's tables.
struct ReferenceRouter {
  const Network* net;
  std::map<Ipv4, HostId> owners;
  std::map<Ipv4, std::vector<HostId>> members;  // in join order

  std::map<Asn, std::pair<int, Asn>> bfs(Asn src) const {  // dist, parent
    std::map<Asn, std::pair<int, Asn>> seen{{src, {0, src}}};
    std::deque<Asn> queue{src};
    while (!queue.empty()) {
      const Asn u = queue.front();
      queue.pop_front();
      for (const Asn v : net->find_as(u)->neighbors) {
        if (seen.try_emplace(v, seen[u].first + 1, u).second) {
          queue.push_back(v);
        }
      }
    }
    return seen;
  }

  std::optional<Route> route(Asn from, Ipv4 dst) const {
    const auto tree = bfs(from);
    HostId dst_host = kInvalidHost;
    if (const auto g = members.find(dst); g != members.end()) {
      int best = std::numeric_limits<int>::max();
      for (const HostId m : g->second) {
        const auto it = tree.find(net->host(m).asn);
        if (it != tree.end() && it->second.first < best) {
          best = it->second.first;
          dst_host = m;
        }
      }
    } else if (const auto o = owners.find(dst); o != owners.end()) {
      dst_host = o->second;
    }
    if (dst_host == kInvalidHost) return std::nullopt;
    const auto reached = tree.find(net->host(dst_host).asn);
    if (reached == tree.end()) return std::nullopt;
    Route r;
    r.dst_host = dst_host;
    for (Asn cur = reached->first;; cur = tree.at(cur).second) {
      r.as_path.insert(r.as_path.begin(), cur);
      if (cur == from) break;
    }
    for (const Asn asn : r.as_path) {
      const auto& ips = net->find_as(asn)->router_ips;
      r.router_hops.insert(r.router_hops.end(), ips.begin(), ips.end());
    }
    return r;
  }
};

TEST(RouteCache, MatchesReferenceOnRandomizedTopology) {
  util::Rng rng(20211207);
  Simulator sim;
  Network& net = sim.net();
  ReferenceRouter ref{&net, {}, {}};
  constexpr int kAses = 24;
  for (int i = 1; i <= kAses; ++i) {
    AsConfig cfg;
    cfg.asn = static_cast<Asn>(i);
    cfg.internal_hops = rng.uniform_int(1, 4);
    net.add_as(cfg);
  }
  // Random connected core over ASes 1..kAses-2; the last two ASes stay
  // isolated so unreachable destinations are exercised as well.
  for (int i = 2; i <= kAses - 2; ++i) {
    net.link(static_cast<Asn>(i),
             static_cast<Asn>(rng.uniform_int(1, i - 1)));
  }
  for (int e = 0; e < 10; ++e) {
    net.link(static_cast<Asn>(rng.uniform_int(1, kAses - 2)),
             static_cast<Asn>(rng.uniform_int(1, kAses - 2)));
  }
  std::vector<Ipv4> dsts;
  const auto add_host = [&](Asn asn, Ipv4 addr) {
    const HostId h = net.add_host(asn, {addr});
    ref.owners[addr] = h;
    return h;
  };
  for (int i = 1; i <= kAses; ++i) {
    const Ipv4 addr{10, static_cast<std::uint8_t>(i), 0, 1};
    add_host(static_cast<Asn>(i), addr);
    dsts.push_back(addr);
  }
  const Ipv4 any{9, 9, 9, 9};
  const auto join = [&](Asn asn, Ipv4 addr) {
    const HostId h = add_host(asn, addr);
    net.join_anycast(any, h);
    ref.members[any].push_back(h);
  };
  join(17, Ipv4{10, 17, 9, 9});
  join(3, Ipv4{10, 3, 9, 9});
  join(7, Ipv4{10, 7, 9, 9});
  dsts.push_back(any);
  const Ipv4 unowned{172, 16, 0, 1};
  dsts.push_back(unowned);

  const auto expect_matches_reference = [&] {
    for (int pass = 0; pass < 2; ++pass) {  // cold, then all span hits
      for (int from = 1; from <= kAses; ++from) {
        for (const auto d : dsts) {
          const auto asn = static_cast<Asn>(from);
          const auto got = net.route_from_as(asn, d);
          const auto want = ref.route(asn, d);
          ASSERT_EQ(got.has_value(), want.has_value())
              << "from " << from << " to " << d.to_string();
          if (!got) continue;
          EXPECT_EQ(got->dst_host, want->dst_host) << from;
          EXPECT_EQ(got->as_path, want->as_path) << from;
          EXPECT_EQ(got->router_hops, want->router_hops) << from;
        }
      }
    }
  };
  expect_matches_reference();
  // Mutate after lookups — connect an isolated AS, add an anycast
  // member, give the unowned address an owner — and re-verify: no
  // stale entry may survive.
  net.link(1, static_cast<Asn>(kAses));
  expect_matches_reference();
  join(kAses, Ipv4{10, 24, 9, 9});
  expect_matches_reference();
  add_host(static_cast<Asn>(kAses - 1), unowned);
  expect_matches_reference();
}

TEST_F(NetworkFixture, TraceRecorderObservesEvents) {
  sim_.set_packet_trace_enabled(true);
  SinkApp sink;
  sim_.bind_udp(c_, 53, &sink);
  SendOptions opts;
  opts.dst = Ipv4{10, 3, 0, 1};
  opts.dst_port = 53;
  sim_.send_udp(a_, std::move(opts));
  sim_.run();
  const auto trace = sim_.merged_trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].ev, TapEvent::sent);
  EXPECT_EQ(trace[1].ev, TapEvent::delivered);
  EXPECT_EQ(trace[1].dst, (Ipv4{10, 3, 0, 1}).value());
}

TEST_F(NetworkFixture, SameInstantDeliveriesDispatchOneAtATime) {
  // Each delivery runs its app before the next one is delivered, so
  // an echo's reply is recorded between the two arrivals.
  sim_.set_packet_trace_enabled(true);
  EchoApp echo(sim_, c_);
  SinkApp sink;
  sim_.bind_udp(c_, 53, &echo);
  sim_.bind_udp_wildcard(a_, &sink);
  for (const std::uint16_t src_port : {1000, 1001}) {
    SendOptions opts;
    opts.dst = Ipv4{10, 3, 0, 1};
    opts.src_port = src_port;
    opts.dst_port = 53;
    sim_.send_udp(a_, std::move(opts));
  }
  sim_.run();
  ASSERT_EQ(echo.received.size(), 2u);
  const auto trace = sim_.merged_trace();
  std::int64_t arrival = -1;
  for (const auto& r : trace) {
    if (r.ev == TapEvent::delivered) {
      arrival = r.at;
      break;
    }
  }
  std::vector<TapEvent> at_arrival;
  for (const auto& r : trace) {
    if (r.at == arrival) at_arrival.push_back(r.ev);
  }
  EXPECT_EQ(at_arrival,
            (std::vector<TapEvent>{TapEvent::delivered, TapEvent::sent,
                                   TapEvent::delivered, TapEvent::sent}));
}

// ---------------------------------------------------------------------
// API contract checks: always on, whatever the build type
// ---------------------------------------------------------------------

TEST(SimulatorContract, ShardedConfigNeedsPositiveHopLatency) {
  SimConfig cfg;
  cfg.shards = 4;
  cfg.hop_latency = Duration::nanos(0);
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
  cfg.hop_latency = Duration::nanos(-5);
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
  cfg.shards = 1;  // no window barrier, no constraint
  EXPECT_NO_THROW(Simulator{cfg});
}

TEST_F(NetworkFixture, BindingANullAppThrows) {
  EXPECT_THROW(sim_.bind_udp(c_, 53, nullptr), std::invalid_argument);
}

TEST_F(NetworkFixture, VantageCaptureNeedsMembersAndAnOwnedAddress) {
  EXPECT_THROW(sim_.set_vantage_capture(Ipv4{10, 1, 0, 1}, {}),
               std::invalid_argument);
  EXPECT_THROW(sim_.set_vantage_capture(Ipv4{10, 9, 9, 9}, {c_}),
               std::invalid_argument);
  EXPECT_FALSE(sim_.vantage_capture_active());
  sim_.set_vantage_capture(Ipv4{10, 1, 0, 1}, {c_});
  EXPECT_TRUE(sim_.vantage_capture_active());
}

TEST_F(NetworkFixture, UnknownHostsAreRejected) {
  // The sentinel would otherwise grow the dense host-state table to
  // 2^32 slots; any id past the last host is just as invalid.
  EXPECT_THROW(sim_.bind_udp_wildcard(kInvalidHost, nullptr),
               std::out_of_range);
  EXPECT_THROW(sim_.set_icmp_handler(d_ + 1, {}), std::out_of_range);
  EXPECT_THROW((void)sim_.shard_of(kInvalidHost), std::out_of_range);
  EXPECT_THROW((void)sim_.shard_of(d_ + 1), std::out_of_range);
}

TEST(SimulatorContract, ShardOfRejectsUnknownHostsWhenSharded) {
  SimConfig cfg;
  cfg.shards = 2;
  Simulator sim(cfg);
  AsConfig as;
  as.asn = 1;
  sim.net().add_as(as);
  const HostId host = sim.net().add_host(1, {Ipv4{10, 1, 0, 1}});
  EXPECT_NO_THROW((void)sim.shard_of(host));
  EXPECT_THROW((void)sim.shard_of(host + 1), std::out_of_range);
}

TEST_F(NetworkFixture, SendingFromAnAddresslessHostThrows) {
  const HostId bare = net().add_host(1, std::vector<Ipv4>{});
  SendOptions opts;
  opts.dst = Ipv4{10, 3, 0, 1};
  opts.dst_port = 53;
  EXPECT_THROW(sim_.send_udp(bare, std::move(opts)), std::invalid_argument);
}

TEST(NetworkContract, AsNeedsAtLeastOneInternalHop) {
  Network net;
  AsConfig cfg;
  cfg.asn = 7;
  cfg.internal_hops = 0;
  EXPECT_THROW(net.add_as(cfg), std::invalid_argument);
  EXPECT_EQ(net.find_as(7), nullptr);
}

}  // namespace
}  // namespace odns::netsim
