#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nodes/cache.hpp"
#include "nodes/forwarder_bank.hpp"
#include "nodes/ratelimit.hpp"
#include "testutil.hpp"

namespace odns::nodes {
namespace {

using dnswire::Name;
using dnswire::Rcode;
using dnswire::ResourceRecord;
using dnswire::RrType;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;
using util::SimTime;

// ---------------------------------------------------------------------
// DnsCache
// ---------------------------------------------------------------------

/// Stores owned records through the view API the nodes use.
void put(DnsCache& cache, const Name& name, RrType type,
         const std::vector<ResourceRecord>& records, SimTime now) {
  dnswire::WireArena arena;
  cache.put(dnswire::wire_key(name, type), dnswire::view_of(arena, records),
            now);
}

std::optional<CachedAnswer> get(DnsCache& cache, const Name& name, RrType type,
                                SimTime now) {
  return cache.get(dnswire::wire_key(name, type), now);
}

TEST(DnsCacheTest, HitAfterPut) {
  DnsCache cache;
  const auto name = *Name::parse("a.example");
  put(cache, name, RrType::a, {ResourceRecord::a(name, Ipv4{1, 2, 3, 4}, 300)},
      SimTime::origin());
  const auto hit = get(cache, name, RrType::a, SimTime::origin());
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->records.size(), 1u);
  EXPECT_EQ(hit->remaining_ttl, 300u);
}

TEST(DnsCacheTest, TtlDecaysWithClock) {
  DnsCache cache;
  const auto name = *Name::parse("a.example");
  put(cache, name, RrType::a, {ResourceRecord::a(name, Ipv4{1, 2, 3, 4}, 300)},
      SimTime::origin());
  const auto later = SimTime::origin() + Duration::seconds(250);
  const auto hit = get(cache, name, RrType::a, later);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->remaining_ttl, 50u);  // the Fig. 7 decayed-TTL effect
  dnswire::WireArena arena;
  EXPECT_EQ(hit->views(arena)[0].ttl, 50u);
}

TEST(DnsCacheTest, ExpiredEntryIsMiss) {
  DnsCache cache;
  const auto name = *Name::parse("a.example");
  put(cache, name, RrType::a, {ResourceRecord::a(name, Ipv4{1, 2, 3, 4}, 10)},
      SimTime::origin());
  EXPECT_FALSE(
      get(cache, name, RrType::a, SimTime::origin() + Duration::seconds(11))
          .has_value());
  EXPECT_EQ(cache.size(), 0u);  // lazily evicted
}

TEST(DnsCacheTest, NegativeEntries) {
  DnsCache cache;
  const auto name = *Name::parse("missing.example");
  cache.put_negative(dnswire::wire_key(name, RrType::a), Rcode::nxdomain, 60,
                     SimTime::origin());
  const auto hit = get(cache, name, RrType::a, SimTime::origin());
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative);
  EXPECT_EQ(hit->rcode, Rcode::nxdomain);
  EXPECT_EQ(cache.stats().negative_hits, 1u);
}

TEST(DnsCacheTest, TypesAreSeparateKeys) {
  DnsCache cache;
  const auto name = *Name::parse("a.example");
  put(cache, name, RrType::a, {ResourceRecord::a(name, Ipv4{1, 2, 3, 4}, 300)},
      SimTime::origin());
  EXPECT_FALSE(get(cache, name, RrType::ns, SimTime::origin()).has_value());
}

TEST(DnsCacheTest, KeyIsCaseInsensitive) {
  DnsCache cache;
  put(cache, *Name::parse("A.Example"), RrType::a,
      {ResourceRecord::a(*Name::parse("A.Example"), Ipv4{1, 2, 3, 4}, 300)},
      SimTime::origin());
  EXPECT_TRUE(
      get(cache, *Name::parse("a.example"), RrType::a, SimTime::origin())
          .has_value());
}

TEST(DnsCacheTest, DottedLabelIsNotTheSplitName) {
  // ["a.b","example","net"] and ["a","b","example","net"] share the
  // dotted spelling but are different names: no shared entry.
  DnsCache cache;
  const auto dotted = *Name::from_labels({"a.b", "example", "net"});
  const auto split = *Name::from_labels({"a", "b", "example", "net"});
  cache.put_negative(dnswire::wire_key(split, RrType::a), Rcode::nxdomain, 60,
                     SimTime::origin());
  EXPECT_FALSE(get(cache, dotted, RrType::a, SimTime::origin()).has_value());
}

TEST(DnsCacheTest, CapacityEviction) {
  DnsCache cache(86400, /*max_entries=*/4);
  for (int i = 0; i < 8; ++i) {
    const auto name = *Name::parse("n" + std::to_string(i) + ".example");
    put(cache, name, RrType::a, {ResourceRecord::a(name, Ipv4{1, 1, 1, 1}, 60)},
        SimTime::origin());
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 4u);
}

TEST(DnsCacheTest, MinTtlAcrossRecordSet) {
  DnsCache cache;
  const auto name = *Name::parse("two.example");
  put(cache, name, RrType::a,
      {ResourceRecord::a(name, Ipv4{1, 1, 1, 1}, 500),
       ResourceRecord::a(name, Ipv4{2, 2, 2, 2}, 100)},
      SimTime::origin());
  const auto hit =
      get(cache, name, RrType::a, SimTime::origin() + Duration::seconds(99));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->remaining_ttl, 1u);
}

// ---------------------------------------------------------------------
// PrefixRateLimiter
// ---------------------------------------------------------------------

TEST(RateLimiterTest, OneGrantPerWindowPerPrefix) {
  PrefixRateLimiter limiter{Duration::minutes(5)};
  const auto t0 = SimTime::origin();
  EXPECT_TRUE(limiter.allow(Ipv4{192, 0, 2, 1}, t0));
  // Same /24, different host: still limited (carpet-bomb protection).
  EXPECT_FALSE(limiter.allow(Ipv4{192, 0, 2, 99}, t0 + Duration::seconds(1)));
  // Different /24: independent budget.
  EXPECT_TRUE(limiter.allow(Ipv4{192, 0, 3, 1}, t0 + Duration::seconds(1)));
  // Window elapses: granted again.
  EXPECT_TRUE(limiter.allow(Ipv4{192, 0, 2, 7}, t0 + Duration::minutes(5)));
  EXPECT_EQ(limiter.granted(), 3u);
  EXPECT_EQ(limiter.denied(), 1u);
}

TEST(RateLimiterTest, DenialDoesNotResetWindow) {
  PrefixRateLimiter limiter{Duration::minutes(5)};
  const auto t0 = SimTime::origin();
  EXPECT_TRUE(limiter.allow(Ipv4{10, 0, 0, 1}, t0));
  EXPECT_FALSE(limiter.allow(Ipv4{10, 0, 0, 1}, t0 + Duration::minutes(4)));
  // 5 minutes after the *grant*, not after the denial.
  EXPECT_TRUE(limiter.allow(Ipv4{10, 0, 0, 1}, t0 + Duration::minutes(5)));
}

// ---------------------------------------------------------------------
// AuthServer via MiniWorld
// ---------------------------------------------------------------------

class AuthFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    client_host = world.add_access_host(Ipv4{20, 0, 0, 1});
    stub = std::make_unique<StubClient>(world.sim, client_host);
    stub->start();
  }

  dnswire::Message query_and_wait(Ipv4 server, const std::string& name,
                                  RrType type = RrType::a) {
    stub->clear();
    stub->query(server, *Name::parse(name), type);
    world.sim.run();
    EXPECT_EQ(stub->responses().size(), 1u)
        << "no (or multiple) responses for " << name;
    if (stub->responses().empty()) return {};
    return stub->responses().front().message;
  }

  MiniWorld world;
  netsim::HostId client_host{};
  std::unique_ptr<StubClient> stub;
};

TEST_F(AuthFixture, MirrorAnswersDynamicPlusControl) {
  const auto resp =
      query_and_wait(test::kAuthAddr, "scan.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 2u);
  const auto addrs = resp.answer_addresses();
  // Dynamic record mirrors the immediate client — the stub itself here.
  EXPECT_EQ(addrs[0], (Ipv4{20, 0, 0, 1}));
  EXPECT_EQ(addrs[1], test::kControlAddr);
  EXPECT_TRUE(resp.header.aa);
}

TEST_F(AuthFixture, ReferralForDelegatedZone) {
  const auto resp = query_and_wait(test::kRootAddr, "scan.odns-study.net");
  EXPECT_TRUE(resp.answers.empty());
  ASSERT_FALSE(resp.authorities.empty());
  EXPECT_EQ(resp.authorities[0].type, RrType::ns);
  ASSERT_FALSE(resp.additionals.empty());  // glue
  EXPECT_FALSE(resp.header.aa);
}

TEST_F(AuthFixture, NxdomainWithSoa) {
  const auto resp = query_and_wait(test::kAuthAddr, "nope.odns-study.net");
  EXPECT_EQ(resp.header.rcode, Rcode::nxdomain);
  ASSERT_EQ(resp.authorities.size(), 1u);
  EXPECT_EQ(resp.authorities[0].type, RrType::soa);
}

TEST_F(AuthFixture, RefusedOutsideZones) {
  const auto resp = query_and_wait(test::kAuthAddr, "example.com");
  EXPECT_EQ(resp.header.rcode, Rcode::refused);
}

TEST_F(AuthFixture, StaticRecordsServed) {
  const auto resp = query_and_wait(test::kAuthAddr, "ns1.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(resp.answer_addresses()[0], test::kAuthAddr);
}

TEST_F(AuthFixture, WildcardSynthesizesWhenEnabled) {
  world.auth->set_wildcard_a(Ipv4{198, 51, 100, 10});
  const auto resp =
      query_and_wait(test::kAuthAddr, "20-0-0-9.q.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(resp.answer_addresses()[0], (Ipv4{198, 51, 100, 10}));
}

TEST_F(AuthFixture, AnyQueryOnMirrorName) {
  const auto resp =
      query_and_wait(test::kAuthAddr, "scan.odns-study.net", RrType::any);
  EXPECT_EQ(resp.answers.size(), 2u);
}

TEST_F(AuthFixture, RateLimiterSilentlyDrops) {
  world.auth->enable_rate_limit(Duration::minutes(5));
  stub->query(test::kAuthAddr, world.scan_name);
  world.sim.run();
  EXPECT_EQ(stub->responses().size(), 1u);
  stub->query(test::kAuthAddr, world.scan_name);
  world.sim.run();
  EXPECT_EQ(stub->responses().size(), 1u);  // second answer suppressed
  EXPECT_EQ(world.auth->counters().rate_limited, 1u);
}

TEST_F(AuthFixture, QueryLogRecordsClient) {
  world.auth->enable_query_log();
  query_and_wait(test::kAuthAddr, "scan.odns-study.net");
  ASSERT_EQ(world.auth->query_log().size(), 1u);
  EXPECT_EQ(world.auth->query_log()[0].client, (Ipv4{20, 0, 0, 1}));
}

// ---------------------------------------------------------------------
// RecursiveResolver
// ---------------------------------------------------------------------

TEST_F(AuthFixture, ResolverPerformsFullIteration) {
  const auto resp = query_and_wait(test::kResolverAddr, "scan.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 2u);
  const auto addrs = resp.answer_addresses();
  // The auth server saw the resolver, not the stub.
  EXPECT_EQ(addrs[0], test::kResolverAddr);
  EXPECT_EQ(addrs[1], test::kControlAddr);
  EXPECT_TRUE(resp.header.ra);
  EXPECT_EQ(world.resolver->stats().full_resolutions, 1u);
  // Root → TLD → auth = 3 upstream queries.
  EXPECT_EQ(world.resolver->stats().upstream_queries, 3u);
}

TEST_F(AuthFixture, ResolverCachesAndDecaysTtl) {
  const auto first = query_and_wait(test::kResolverAddr, "scan.odns-study.net");
  ASSERT_EQ(first.answers.size(), 2u);
  EXPECT_EQ(first.answers[0].ttl, 300u);

  // 250 simulated seconds later the cached answer has ~50s left (the
  // tolerance absorbs resolver housekeeping events that advance the
  // clock a few seconds past the insert).
  world.sim.run_until(world.sim.now() + Duration::seconds(250));
  const auto second =
      query_and_wait(test::kResolverAddr, "scan.odns-study.net");
  ASSERT_EQ(second.answers.size(), 2u);
  EXPECT_NEAR(static_cast<double>(second.answers[0].ttl), 50.0, 5.0);
  EXPECT_EQ(world.resolver->stats().answered_from_cache, 1u);
  // No extra load on the authoritative server.
  EXPECT_EQ(world.auth->queries_answered(), 1u);
}

TEST_F(AuthFixture, ResolverNegativeCachesNxdomain) {
  const auto first = query_and_wait(test::kResolverAddr, "no.odns-study.net");
  EXPECT_EQ(first.header.rcode, Rcode::nxdomain);
  const auto auth_queries = world.auth->queries_answered();
  const auto second = query_and_wait(test::kResolverAddr, "no.odns-study.net");
  EXPECT_EQ(second.header.rcode, Rcode::nxdomain);
  EXPECT_EQ(world.auth->queries_answered(), auth_queries);  // served from cache
}

TEST_F(AuthFixture, RestrictedResolverRefusesOutsiders) {
  nodes::ResolverConfig rc;
  rc.open = false;
  rc.allowed = {util::Prefix{Ipv4{99, 0, 0, 0}, 8}};  // not the stub
  rc.root_hints = {test::kRootAddr};
  const auto host = world.sim.net().add_host(test::kResolverAsn,
                                             {Ipv4{8, 8, 8, 100}});
  RecursiveResolver restricted(world.sim, host, rc, 3);
  restricted.start();
  const auto resp = query_and_wait(Ipv4{8, 8, 8, 100}, "scan.odns-study.net");
  EXPECT_EQ(resp.header.rcode, Rcode::refused);
  EXPECT_EQ(restricted.stats().refused_acl, 1u);
}

TEST_F(AuthFixture, ResolverCoalescesConcurrentClients) {
  const auto host2 = world.add_access_host(Ipv4{20, 0, 1, 1});
  StubClient stub2(world.sim, host2);
  stub2.start();
  stub->query(test::kResolverAddr, world.scan_name);
  stub2.query(test::kResolverAddr, world.scan_name);
  world.sim.run();
  EXPECT_EQ(stub->responses().size(), 1u);
  EXPECT_EQ(stub2.responses().size(), 1u);
  // Coalesced: one full resolution for two clients.
  EXPECT_EQ(world.resolver->stats().full_resolutions, 1u);
  EXPECT_EQ(world.auth->queries_answered(), 1u);
}

TEST_F(AuthFixture, ResolverServfailsOnDeadServers) {
  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {Ipv4{198, 41, 0, 99}};  // nothing listens there
  rc.upstream_timeout = Duration::seconds(1);
  rc.max_retries = 1;
  const auto host = world.sim.net().add_host(test::kResolverAsn,
                                             {Ipv4{8, 8, 8, 101}});
  RecursiveResolver broken(world.sim, host, rc, 3);
  broken.start();
  const auto resp = query_and_wait(Ipv4{8, 8, 8, 101}, "scan.odns-study.net");
  EXPECT_EQ(resp.header.rcode, Rcode::servfail);
  EXPECT_GE(broken.stats().upstream_timeouts, 2u);  // initial + retry
}

TEST_F(AuthFixture, ResolverChasesCnames) {
  // A dedicated zone with a CNAME chain, served by its own auth host
  // which the test resolver uses as its root.
  const auto chain_host =
      world.sim.net().add_host(test::kInfraAsn, {Ipv4{198, 51, 100, 60}});
  AuthServer chain_auth(world.sim, chain_host);
  auto& chain_zone = chain_auth.add_zone(*Name::parse("chain.test"));
  chain_zone.add_record(ResourceRecord::cname(
      *Name::parse("www.chain.test"), *Name::parse("real.chain.test"), 300));
  chain_zone.add_a("real.chain.test", Ipv4{20, 7, 7, 7}, 300);
  chain_auth.start();

  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {Ipv4{198, 51, 100, 60}};  // treat chain auth as root
  const auto rhost = world.sim.net().add_host(test::kResolverAsn,
                                              {Ipv4{8, 8, 8, 102}});
  RecursiveResolver resolver(world.sim, rhost, rc, 3);
  resolver.start();
  const auto resp = query_and_wait(Ipv4{8, 8, 8, 102}, "www.chain.test");
  ASSERT_EQ(resp.answers.size(), 2u);  // CNAME + A
  EXPECT_EQ(resp.answers[0].type, RrType::cname);
  EXPECT_EQ(resp.answers[1].type, RrType::a);
  EXPECT_EQ(std::get<dnswire::ARecord>(resp.answers[1].rdata).addr,
            (Ipv4{20, 7, 7, 7}));
}

// ---------------------------------------------------------------------
// Dotted labels: ["a.b",...] and ["a","b",...] are different names
// ---------------------------------------------------------------------

/// The mirror zone also holds an A record for the split name.
class DottedNameFixture : public AuthFixture {
 protected:
  void SetUp() override {
    AuthFixture::SetUp();
    world.auth->zone_for_mutable(split)->add_record(
        ResourceRecord::a(split, Ipv4{192, 0, 2, 7}, 300));
  }

  const Name dotted = *Name::from_labels({"a.b", "odns-study", "net"});
  const Name split = *Name::from_labels({"a", "b", "odns-study", "net"});
};

TEST_F(DottedNameFixture, ZoneDoesNotServeTheSplitNameForTheDottedOne) {
  stub->query(test::kAuthAddr, dotted);
  world.sim.run();
  ASSERT_EQ(stub->responses().size(), 1u);
  EXPECT_EQ(stub->responses().front().message.header.rcode, Rcode::nxdomain);
  EXPECT_TRUE(stub->responses().front().message.answers.empty());
}

TEST_F(DottedNameFixture, ResolverResolvesDottedAndSplitSeparately) {
  StubClient stub2(world.sim, world.add_access_host(Ipv4{20, 0, 1, 2}));
  stub2.start();
  stub->query(test::kResolverAddr, dotted);
  stub2.query(test::kResolverAddr, split);
  world.sim.run();
  // Not coalesced: each client is answered for its own question.
  EXPECT_EQ(world.resolver->stats().full_resolutions, 2u);
  ASSERT_EQ(stub->responses().size(), 1u);
  ASSERT_EQ(stub2.responses().size(), 1u);
  const auto& to_dotted = stub->responses().front().message;
  const auto& to_split = stub2.responses().front().message;
  EXPECT_EQ(to_dotted.questions.at(0).name.labels(), dotted.labels());
  EXPECT_EQ(to_dotted.header.rcode, Rcode::nxdomain);
  EXPECT_EQ(to_split.questions.at(0).name.labels(), split.labels());
  EXPECT_EQ(to_split.answer_addresses(),
            (std::vector<Ipv4>{Ipv4{192, 0, 2, 7}}));
}

// ---------------------------------------------------------------------
// Forwarders
// ---------------------------------------------------------------------

TEST_F(AuthFixture, RecursiveForwarderRewritesSource) {
  const auto fwd_host = world.add_access_host(Ipv4{20, 0, 2, 1});
  RecursiveForwarder fwd(world.sim, fwd_host, test::kResolverAddr);
  fwd.start();

  const auto resp = query_and_wait(Ipv4{20, 0, 2, 1}, "scan.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 2u);
  // Response came *from the forwarder*, and the dynamic record shows
  // the resolver — the recursive-forwarder signature.
  EXPECT_EQ(stub->responses().front().from, (Ipv4{20, 0, 2, 1}));
  EXPECT_EQ(resp.answer_addresses()[0], test::kResolverAddr);
  EXPECT_EQ(fwd.stats().forwarded, 1u);
}

TEST_F(AuthFixture, RecursiveForwarderServesFromCache) {
  const auto fwd_host = world.add_access_host(Ipv4{20, 0, 2, 1});
  RecursiveForwarder fwd(world.sim, fwd_host, test::kResolverAddr);
  fwd.start();
  query_and_wait(Ipv4{20, 0, 2, 1}, "scan.odns-study.net");
  query_and_wait(Ipv4{20, 0, 2, 1}, "scan.odns-study.net");
  EXPECT_EQ(fwd.stats().cache_answers, 1u);
  EXPECT_EQ(fwd.stats().forwarded, 1u);
}

/// An empty bank; add_member() gives it a new access host at `addr`
/// relaying to `upstream`. Tests seal it themselves.
class BankFixture : public AuthFixture {
 protected:
  void add_member(Ipv4 addr, Ipv4 upstream,
                  ForwarderBank::MemberConfig mc = {}) {
    mc.addr = addr;
    mc.upstream = upstream;
    bank.add_member(world.add_access_host(addr), mc);
  }

  ForwarderBank bank{world.sim};
};

/// Answers every query with hand-written, uncompressed wire bytes: the
/// question is the asked name as ["a.b","example","net"] — a split
/// name's first two labels merged, dotted spelling and case kept — and
/// one A record is owned by ["a","b","example","net"].
class DottedUpstream : public netsim::App {
 public:
  DottedUpstream(netsim::Simulator& sim, netsim::HostId host)
      : sim_(&sim), host_(host) {}

  void on_datagram(const netsim::Datagram& dgram) override {
    const auto& query = *dgram.payload;
    const auto asked = dnswire::decode(query);
    if (!asked || asked.value().questions.size() != 1) return;
    auto labels = asked.value().questions[0].name.labels();
    if (labels.size() == 4) {
      labels[1] = labels[0] + "." + labels[1];
      labels.erase(labels.begin());
    }
    std::vector<std::uint8_t> wire{query[0], query[1], 0x81, 0x80, 0, 1,
                                   0,        1,        0,    0,    0, 0};
    auto name = [&wire](const std::vector<std::string>& name_labels) {
      for (const auto& l : name_labels) {
        wire.push_back(static_cast<std::uint8_t>(l.size()));
        wire.insert(wire.end(), l.begin(), l.end());
      }
      wire.push_back(0);
    };
    name(labels);
    wire.insert(wire.end(), {0, 1, 0, 1});  // A, IN
    name({"a", "b", "example", "net"});
    wire.insert(wire.end(), {0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 7});
    netsim::SendOptions reply;
    reply.dst = dgram.src;
    reply.src_port = dgram.dst_port;
    reply.dst_port = dgram.src_port;
    reply.payload = std::move(wire);
    sim_->send_udp(host_, std::move(reply));
  }

 private:
  netsim::Simulator* sim_;
  netsim::HostId host_;
};

/// Queries `relay` for the dotted name through an upstream answering
/// with DottedUpstream's bytes, and checks that the dotted question
/// and the split answer owner both reach the stub unchanged.
class DottedRelayFixture : public BankFixture {
 protected:
  static constexpr Ipv4 kUpstream{8, 8, 8, 104};

  void SetUp() override {
    BankFixture::SetUp();
    const auto up_host =
        world.sim.net().add_host(test::kResolverAsn, {kUpstream});
    upstream = std::make_unique<DottedUpstream>(world.sim, up_host);
    world.sim.bind_udp(up_host, kDnsPort, upstream.get());
  }

  void expect_dotted_labels_intact(Ipv4 relay) {
    const auto dotted = *Name::from_labels({"a.b", "example", "net"});
    const auto split = *Name::from_labels({"a", "b", "example", "net"});
    stub->query(relay, dotted);
    world.sim.run();
    ASSERT_EQ(stub->responses().size(), 1u);
    const auto& resp = stub->responses().front().message;
    ASSERT_EQ(resp.questions.size(), 1u);
    ASSERT_EQ(resp.answers.size(), 1u);
    EXPECT_EQ(resp.questions[0].name.labels(), dotted.labels());
    EXPECT_EQ(resp.answers[0].name.labels(), split.labels());
  }

  std::unique_ptr<DottedUpstream> upstream;
};

TEST_F(DottedRelayFixture, ResolverRejectsMergedLabelEchoUnder0x20) {
  // The upstream echoes the 0x20-cased split question with its first
  // two labels merged: the same text, case included, but not the name.
  nodes::ResolverConfig rc;
  rc.root_hints = {kUpstream};
  rc.max_retries = 0;
  rc.upstream_timeout = Duration::seconds(1);
  RecursiveResolver resolver(
      world.sim,
      world.sim.net().add_host(test::kResolverAsn, {Ipv4{8, 8, 8, 107}}), rc,
      3);
  resolver.start();
  const auto resp = query_and_wait(Ipv4{8, 8, 8, 107}, "a.b.example.net");
  EXPECT_EQ(resolver.stats().rejected_0x20, 1u);
  EXPECT_EQ(resp.header.rcode, Rcode::servfail);
}

TEST_F(DottedRelayFixture, RecursiveForwarderRelaysDottedLabelsIntact) {
  // The forwarder re-encodes the upstream answer.
  const auto fwd_host = world.add_access_host(Ipv4{20, 0, 2, 4});
  RecursiveForwarder fwd(world.sim, fwd_host, kUpstream);
  fwd.start();
  expect_dotted_labels_intact(Ipv4{20, 0, 2, 4});
}

// ---------------------------------------------------------------------
// ForwarderBank: the recursive-forwarder population
// ---------------------------------------------------------------------

TEST_F(BankFixture, ForwarderBankAnswersFromMemberWithClientTxid) {
  add_member(Ipv4{20, 0, 4, 1}, test::kResolverAddr);
  add_member(Ipv4{20, 0, 4, 2}, test::kResolverAddr);
  bank.seal();

  const auto txid = stub->query(Ipv4{20, 0, 4, 2}, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub->responses().size(), 1u);
  const auto& resp = stub->responses().front();
  // Answered from the probed member, under the stub's own txid, with
  // the resolver in the dynamic record: a recursive forwarder.
  EXPECT_EQ(resp.from, (Ipv4{20, 0, 4, 2}));
  EXPECT_EQ(resp.from_port, kDnsPort);
  EXPECT_EQ(resp.message.header.id, txid);
  ASSERT_EQ(resp.message.answers.size(), 2u);
  EXPECT_EQ(resp.message.answer_addresses()[0], test::kResolverAddr);
  EXPECT_EQ(resp.message.answer_addresses()[1], test::kControlAddr);
  EXPECT_EQ(bank.member_count(), 2u);
  EXPECT_EQ(bank.stats().client_queries, 1u);
  EXPECT_EQ(bank.stats().forwarded, 1u);
  EXPECT_EQ(bank.stats().upstream_responses, 1u);
  EXPECT_EQ(bank.pending(), 0u);
}

TEST_F(BankFixture, ManipulatingForwarderRewritesARecords) {
  ForwarderBank::MemberConfig mc;
  mc.rewrite_answers = true;
  mc.rewrite_target = Ipv4{203, 0, 113, 99};
  add_member(Ipv4{20, 0, 2, 2}, test::kResolverAddr, mc);
  bank.seal();
  const auto resp = query_and_wait(Ipv4{20, 0, 2, 2}, "scan.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 2u);
  for (const auto addr : resp.answer_addresses()) {
    EXPECT_EQ(addr, (Ipv4{203, 0, 113, 99}));
  }
}

TEST_F(BankFixture, StrippingForwarderDropsControlRecord) {
  ForwarderBank::MemberConfig mc;
  mc.strip_second_record = true;
  add_member(Ipv4{20, 0, 2, 3}, test::kResolverAddr, mc);
  bank.seal();
  const auto resp = query_and_wait(Ipv4{20, 0, 2, 3}, "scan.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(resp.answer_addresses()[0], test::kResolverAddr);
}

TEST_F(DottedRelayFixture, ForwarderBankRelaysDottedLabelsIntact) {
  // The bank re-encodes the upstream answer from its rx view.
  add_member(Ipv4{20, 0, 2, 5}, kUpstream);
  bank.seal();
  expect_dotted_labels_intact(Ipv4{20, 0, 2, 5});
}

TEST_F(BankFixture, ForwarderBankDropsMultiQuestionQuery) {
  add_member(Ipv4{20, 0, 4, 3}, test::kResolverAddr);
  bank.seal();
  auto query = dnswire::make_query(7, world.scan_name, RrType::a);
  query.questions.push_back(query.questions.front());
  netsim::SendOptions opts;
  opts.dst = Ipv4{20, 0, 4, 3};
  opts.src_port = 20001;
  opts.dst_port = kDnsPort;
  opts.payload = dnswire::encode(query);
  world.sim.send_udp(client_host, std::move(opts));
  world.sim.run();
  // No FORMERR (the caching node's answer) and nothing relayed.
  EXPECT_TRUE(stub->responses().empty());
  EXPECT_EQ(bank.stats().client_queries, 1u);
  EXPECT_EQ(bank.stats().forwarded, 0u);
}

/// Answers each query `delay` after it arrives.
class LateUpstream : public netsim::App, public netsim::TimerTarget {
 public:
  LateUpstream(netsim::Simulator& sim, netsim::HostId host,
               util::Duration delay)
      : sim_(&sim), host_(host), delay_(delay) {}

  void on_datagram(const netsim::Datagram& dgram) override {
    const auto query = dnswire::decode(*dgram.payload);
    if (!query) return;
    auto resp = dnswire::make_response(query.value());
    resp.answers.push_back(ResourceRecord::a(
        query.value().questions.front().name, Ipv4{192, 0, 2, 8}, 60));
    held_.push_back({dgram.src, dgram.src_port, dnswire::encode(resp)});
    sim_->schedule_timer(delay_, this, held_.size() - 1);
  }

  void on_timer(std::uint64_t index, std::uint64_t /*unused*/) override {
    auto& h = held_[index];
    netsim::SendOptions opts;
    opts.dst = h.client;
    opts.src_port = kDnsPort;
    opts.dst_port = h.client_port;
    opts.payload = std::move(h.wire);
    sim_->send_udp(host_, std::move(opts));
  }

 private:
  struct Held {
    Ipv4 client;
    std::uint16_t client_port = 0;
    std::vector<std::uint8_t> wire;
  };

  netsim::Simulator* sim_;
  netsim::HostId host_;
  util::Duration delay_;
  std::vector<Held> held_;
};

TEST_F(BankFixture, ForwarderBankCountsLateUpstreamResponseAsExpired) {
  const Ipv4 late_addr{8, 8, 8, 105};
  const auto late_host =
      world.sim.net().add_host(test::kResolverAsn, {late_addr});
  LateUpstream late(world.sim, late_host,
                    kForwarderUpstreamTimeout + Duration::seconds(1));
  world.sim.bind_udp(late_host, kDnsPort, &late);
  add_member(Ipv4{20, 0, 4, 4}, late_addr);
  bank.seal();

  stub->query(Ipv4{20, 0, 4, 4}, world.scan_name);
  world.sim.run();
  EXPECT_TRUE(stub->responses().empty());
  EXPECT_EQ(bank.stats().forwarded, 1u);
  EXPECT_EQ(bank.stats().upstream_responses, 1u);
  EXPECT_EQ(bank.stats().expired, 1u);
  EXPECT_EQ(bank.pending(), 0u);
}

TEST_F(BankFixture, ForwarderBankRejectsAddMemberAfterSeal) {
  add_member(Ipv4{20, 0, 4, 5}, test::kResolverAddr);
  bank.seal();
  EXPECT_THROW(add_member(Ipv4{20, 0, 4, 6}, test::kResolverAddr),
               std::logic_error);
  EXPECT_EQ(bank.member_count(), 1u);
}

TEST_F(BankFixture, ForwarderBankRejectsDatagramBeforeSeal) {
  add_member(Ipv4{20, 0, 4, 7}, test::kResolverAddr);
  const auto payload =
      dnswire::encode(dnswire::make_query(9, world.scan_name, RrType::a));
  netsim::Datagram dgram;
  dgram.src = Ipv4{20, 0, 0, 1};
  dgram.dst = Ipv4{20, 0, 4, 7};
  dgram.src_port = 20002;
  dgram.dst_port = kDnsPort;
  dgram.payload = &payload;
  EXPECT_THROW(bank.on_datagram(dgram), std::logic_error);
  bank.seal();
  EXPECT_NO_THROW(bank.on_datagram(dgram));
  EXPECT_EQ(bank.stats().forwarded, 1u);
}

TEST_F(AuthFixture, TransparentForwarderNeverSeesResponse) {
  const auto tf_host = world.add_access_host(Ipv4{20, 0, 3, 1});
  TransparentForwarder tf(world.sim, tf_host, test::kResolverAddr);
  tf.install();

  stub->query(Ipv4{20, 0, 3, 1}, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub->responses().size(), 1u);
  const auto& resp = stub->responses().front();
  // Answer arrives directly from the resolver — not from the probed
  // address. This is the transparent-forwarder observable.
  EXPECT_EQ(resp.from, test::kResolverAddr);
  EXPECT_EQ(resp.message.answer_addresses()[0], test::kResolverAddr);
  EXPECT_EQ(tf.relayed(), 1u);
}

TEST_F(AuthFixture, TransparentForwarderToRestrictedResolverRefused) {
  // TF relaying to a restricted resolver: the spoofed client source is
  // outside the ACL, so the scanner receives REFUSED — such devices are
  // not viable ODNS components (§2).
  nodes::ResolverConfig rc;
  rc.open = false;
  rc.allowed = {util::Prefix{Ipv4{20, 0, 3, 0}, 24}};  // only the TF's /24
  rc.root_hints = {test::kRootAddr};
  const auto rhost = world.sim.net().add_host(test::kResolverAsn,
                                              {Ipv4{8, 8, 8, 103}});
  RecursiveResolver restricted(world.sim, rhost, rc, 3);
  restricted.start();

  const auto tf_host = world.add_access_host(Ipv4{20, 0, 3, 2});
  TransparentForwarder tf(world.sim, tf_host, Ipv4{8, 8, 8, 103});
  tf.install();

  stub->query(Ipv4{20, 0, 3, 2}, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub->responses().size(), 1u);
  EXPECT_EQ(stub->responses().front().message.header.rcode, Rcode::refused);
}

}  // namespace
}  // namespace odns::nodes
