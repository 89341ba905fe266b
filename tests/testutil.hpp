#pragma once
// Shared fixtures: a hand-built miniature Internet with the DNS
// hierarchy (root / .net TLD / mirror-mode authoritative), one public
// resolver, and a SAV-free access network — small enough that tests
// can reason about exact hop counts and addresses.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "nodes/auth_server.hpp"
#include "nodes/forwarder.hpp"
#include "nodes/resolver.hpp"
#include "stub_client.hpp"
#include "netsim/sim.hpp"
#include "util/rng.hpp"

namespace odns::test {

using netsim::Asn;
using netsim::HostId;
using util::Ipv4;
using util::Prefix;

inline constexpr Asn kTier1Asn = 100;
inline constexpr Asn kInfraAsn = 200;
inline constexpr Asn kResolverAsn = 300;
inline constexpr Asn kAccessAsn = 400;   // SAV disabled
inline constexpr Asn kScannerAsn = 500;

inline constexpr Ipv4 kRootAddr{198, 41, 0, 4};
inline constexpr Ipv4 kTldAddr{192, 5, 6, 30};
inline constexpr Ipv4 kAuthAddr{198, 51, 100, 53};
inline constexpr Ipv4 kControlAddr{198, 51, 100, 200};
inline constexpr Ipv4 kResolverAddr{8, 8, 8, 8};
inline constexpr Ipv4 kScannerAddr{192, 0, 2, 1};

/// Heap-allocation audit hooks. The counters are inline and therefore
/// present (but dormant) in every test binary; the global operator
/// new/delete replacements that feed them are defined only in
/// tests/alloc_audit_test.cpp, so every other suite runs on the stock
/// allocator. AllocationScope reads the delta: zero inside a warmed
/// arena serving loop is the bar (docs/architecture.md,
/// "The DNS wire codec").
namespace allocaudit {

inline std::atomic<std::uint64_t> allocations{0};
inline std::atomic<std::uint64_t> deallocations{0};
/// Live heap bytes (allocated minus freed, usable sizes) — fed only by
/// binaries whose replacement operators track sizes
/// (tests/addr_plane_test.cpp); zero elsewhere.
inline std::atomic<std::int64_t> live_bytes{0};

class AllocationScope {
 public:
  AllocationScope()
      : start_allocs_(allocations.load(std::memory_order_relaxed)),
        start_frees_(deallocations.load(std::memory_order_relaxed)),
        start_bytes_(live_bytes.load(std::memory_order_relaxed)) {}

  [[nodiscard]] std::uint64_t allocations_in_scope() const {
    return allocations.load(std::memory_order_relaxed) - start_allocs_;
  }
  [[nodiscard]] std::uint64_t deallocations_in_scope() const {
    return deallocations.load(std::memory_order_relaxed) - start_frees_;
  }
  /// Net heap growth since scope start; negative if the scope freed
  /// more than it allocated.
  [[nodiscard]] std::int64_t live_bytes_in_scope() const {
    return live_bytes.load(std::memory_order_relaxed) - start_bytes_;
  }

 private:
  std::uint64_t start_allocs_;
  std::uint64_t start_frees_;
  std::int64_t start_bytes_;
};

}  // namespace allocaudit

/// Seeded DNS message corpus shared by the codec suites and the codec
/// goldens. It is adversarial on purpose: names drawn from a shared
/// pool (dense in shared suffixes, so compression pointers and
/// pointer-to-pointer chains), mixed-case labels (case-folded
/// compression), OPT pseudo-records, RawRecords of unmodeled types,
/// empty sections and every header flag randomized. The label alphabet
/// has no '.'.
namespace corpus {

inline std::string random_label(util::Rng& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  const int len = rng.uniform_int(1, 14);
  std::string s;
  for (int j = 0; j < len; ++j) {
    s.push_back(kAlphabet[rng.uniform(0, sizeof(kAlphabet) - 2)]);
  }
  return s;
}

/// Fresh, extend (a fresh prefix on a pooled name) or exact-reuse moves
/// over a per-message pool of up to 12 names.
inline dnswire::Name random_name(util::Rng& rng,
                                 std::vector<dnswire::Name>& pool) {
  const double move = rng.uniform_real(0.0, 1.0);
  if (!pool.empty() && move < 0.35) {
    return pool[rng.uniform(0, pool.size() - 1)];
  }
  std::vector<std::string> labels;
  if (!pool.empty() && move < 0.65) {
    const dnswire::Name& base = pool[rng.uniform(0, pool.size() - 1)];
    labels.push_back(random_label(rng));
    for (const auto& l : base.labels()) labels.push_back(l);
  } else {
    const int n = rng.uniform_int(1, 4);
    for (int i = 0; i < n; ++i) labels.push_back(random_label(rng));
  }
  auto name = dnswire::Name::from_labels(labels);
  if (!name) return dnswire::Name{};
  if (pool.size() < 12) pool.push_back(*name);
  return *name;
}

/// TXT character-strings of arbitrary bytes, including empty strings
/// and strings at the 255-octet limit.
inline std::vector<std::string> random_txt_strings(util::Rng& rng) {
  std::vector<std::string> strings;
  const int count = rng.uniform_int(1, 3);
  for (int i = 0; i < count; ++i) {
    std::size_t len = rng.uniform(0, 48);
    if (rng.chance(0.15)) len = 255;
    if (rng.chance(0.15)) len = 0;
    std::string s;
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform(0, 255)));
    }
    strings.push_back(std::move(s));
  }
  return strings;
}

inline dnswire::ResourceRecord random_record(
    util::Rng& rng, std::vector<dnswire::Name>& pool) {
  using dnswire::RrType;
  dnswire::ResourceRecord rr;
  rr.name = random_name(rng, pool);
  rr.ttl = static_cast<std::uint32_t>(rng.uniform(0, 86400));
  switch (rng.uniform_int(0, 7)) {
    case 0:
      rr.type = RrType::a;
      rr.rdata = dnswire::ARecord{
          Ipv4{static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff))}};
      break;
    case 1:
      rr.type = RrType::ns;
      rr.rdata = dnswire::NsRecord{random_name(rng, pool)};
      break;
    case 2:
      rr.type = RrType::cname;
      rr.rdata = dnswire::CnameRecord{random_name(rng, pool)};
      break;
    case 3:
      rr.type = RrType::ptr;
      rr.rdata = dnswire::PtrRecord{random_name(rng, pool)};
      break;
    case 4:
      rr.type = RrType::txt;
      rr.rdata = dnswire::TxtRecord{random_txt_strings(rng)};
      break;
    case 5: {
      rr.type = RrType::soa;
      dnswire::SoaRecord soa;
      soa.mname = random_name(rng, pool);
      soa.rname = random_name(rng, pool);
      soa.serial = static_cast<std::uint32_t>(rng.uniform(0, 1u << 30));
      soa.refresh = static_cast<std::uint32_t>(rng.uniform(0, 7200));
      soa.retry = static_cast<std::uint32_t>(rng.uniform(0, 7200));
      soa.expire = static_cast<std::uint32_t>(rng.uniform(0, 1u << 20));
      soa.minimum = static_cast<std::uint32_t>(rng.uniform(0, 3600));
      rr.rdata = soa;
      break;
    }
    case 6: {
      rr.type = static_cast<RrType>(rng.uniform_int(200, 250));
      dnswire::RawRecord raw;
      const std::size_t len = rng.uniform(0, 40);
      for (std::size_t i = 0; i < len; ++i) {
        raw.data.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
      }
      rr.rdata = std::move(raw);
      break;
    }
    default: {
      rr.type = RrType::opt;
      dnswire::OptRecord opt;
      opt.udp_payload_size =
          static_cast<std::uint16_t>(rng.uniform(512, 4096));
      rr.rdata = opt;
      break;
    }
  }
  return rr;
}

inline dnswire::RrType random_qtype(util::Rng& rng) {
  using dnswire::RrType;
  static constexpr RrType kTypes[] = {RrType::a,   RrType::ns, RrType::cname,
                                      RrType::txt, RrType::mx, RrType::any};
  return kTypes[rng.uniform(0, std::size(kTypes) - 1)];
}

inline dnswire::Message random_message(util::Rng& rng) {
  std::vector<dnswire::Name> pool;
  dnswire::Message msg;
  msg.header.id = static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
  msg.header.qr = rng.chance(0.5);
  msg.header.opcode = static_cast<dnswire::Opcode>(rng.uniform(0, 2));
  msg.header.aa = rng.chance(0.5);
  msg.header.tc = rng.chance(0.2);
  msg.header.rd = rng.chance(0.5);
  msg.header.ra = rng.chance(0.5);
  msg.header.rcode = static_cast<dnswire::Rcode>(rng.uniform(0, 5));
  const int questions = rng.uniform_int(0, 2);
  for (int i = 0; i < questions; ++i) {
    msg.questions.push_back({random_name(rng, pool), random_qtype(rng)});
  }
  const int answers = rng.uniform_int(0, 5);
  for (int i = 0; i < answers; ++i) {
    msg.answers.push_back(random_record(rng, pool));
  }
  const int authorities = rng.uniform_int(0, 2);
  for (int i = 0; i < authorities; ++i) {
    msg.authorities.push_back(random_record(rng, pool));
  }
  const int additionals = rng.uniform_int(0, 2);
  for (int i = 0; i < additionals; ++i) {
    msg.additionals.push_back(random_record(rng, pool));
  }
  return msg;
}

/// The fields the wire carries: an OPT pseudo-record puts its payload
/// size in the class field and sends a zero TTL.
inline dnswire::Message on_the_wire(dnswire::Message msg) {
  using dnswire::RrType;
  for (auto* section : {&msg.answers, &msg.authorities, &msg.additionals}) {
    for (auto& rr : *section) {
      if (rr.type != RrType::opt) continue;
      rr.klass = dnswire::RrClass::in;
      rr.ttl = 0;
    }
  }
  return msg;
}

/// Seeds of the round-trip corpus: 5 x kMessagesPerSeed messages.
inline constexpr std::uint64_t kSeeds[] = {0xC0FFEE, 0xDECAF1, 0x5CA1AB1E,
                                           0xB16B00B5, 0xCAFEF00D};
inline constexpr int kMessagesPerSeed = 2100;

using Wire = std::vector<std::uint8_t>;

/// Every proper prefix (including the empty one) of 50 encoded
/// messages.
inline std::vector<Wire> truncated_inputs() {
  util::Rng rng(0xBADC0DE);
  std::vector<Wire> out;
  for (int i = 0; i < 50; ++i) {
    const Wire wire = dnswire::encode(random_message(rng));
    for (std::size_t len = 0; len < wire.size(); ++len) {
      out.emplace_back(wire.begin(),
                       wire.begin() + static_cast<std::ptrdiff_t>(len));
    }
  }
  return out;
}

/// 100 encoded messages, each with 1-8 single-byte overwrites at
/// random offsets.
inline std::vector<Wire> corrupted_inputs() {
  util::Rng rng(0xFACADE);
  std::vector<Wire> out;
  for (int i = 0; i < 100; ++i) {
    Wire wire = dnswire::encode(random_message(rng));
    const int flips = rng.uniform_int(1, 8);
    for (int f = 0; f < flips; ++f) {
      wire[rng.uniform(0, wire.size() - 1)] =
          static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    out.push_back(std::move(wire));
  }
  return out;
}

/// 200 uniformly random buffers of 0-300 bytes.
inline std::vector<Wire> garbage_inputs() {
  util::Rng rng(0x5EED);
  std::vector<Wire> out;
  for (int i = 0; i < 200; ++i) {
    Wire junk(rng.uniform(0, 300));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    out.push_back(std::move(junk));
  }
  return out;
}

}  // namespace corpus

/// A five-AS world: tier1 in the middle, infra (root/TLD/auth),
/// a public resolver, an access network without SAV, and the scanner.
struct MiniWorld {
  explicit MiniWorld(netsim::SimConfig cfg = {});

  dnswire::Name scan_name = *dnswire::Name::parse("scan.odns-study.net");

  netsim::Simulator sim;
  HostId root_host;
  HostId tld_host;
  HostId auth_host;
  HostId resolver_host;
  HostId scanner_host;

  std::unique_ptr<nodes::AuthServer> root;
  std::unique_ptr<nodes::AuthServer> tld;
  std::unique_ptr<nodes::AuthServer> auth;
  std::unique_ptr<nodes::RecursiveResolver> resolver;

  /// Adds a host with `addr` to the access network.
  HostId add_access_host(Ipv4 addr) {
    return sim.net().add_host(kAccessAsn, {addr});
  }
};

inline MiniWorld::MiniWorld(netsim::SimConfig cfg) : sim(cfg) {
  auto& net = sim.net();
  auto add_as = [&](Asn asn, bool sav, int hops) {
    netsim::AsConfig ac;
    ac.asn = asn;
    ac.country = "TST";
    ac.source_address_validation = sav;
    ac.internal_hops = hops;
    net.add_as(ac);
  };
  add_as(kTier1Asn, true, 2);
  add_as(kInfraAsn, true, 1);
  add_as(kResolverAsn, true, 1);
  add_as(kAccessAsn, /*sav=*/false, 1);
  add_as(kScannerAsn, false, 1);
  net.link(kTier1Asn, kInfraAsn);
  net.link(kTier1Asn, kResolverAsn);
  net.link(kTier1Asn, kAccessAsn);
  net.link(kTier1Asn, kScannerAsn);

  net.announce(kInfraAsn, Prefix{kRootAddr, 24});
  net.announce(kInfraAsn, Prefix{kTldAddr, 24});
  net.announce(kInfraAsn, Prefix{kAuthAddr, 24});
  net.announce(kResolverAsn, Prefix{Ipv4{8, 8, 8, 0}, 24});
  net.announce(kAccessAsn, Prefix{Ipv4{20, 0, 0, 0}, 16});
  net.announce(kScannerAsn, Prefix{kScannerAddr, 24});

  root_host = net.add_host(kInfraAsn, {kRootAddr});
  tld_host = net.add_host(kInfraAsn, {kTldAddr});
  auth_host = net.add_host(kInfraAsn, {kAuthAddr});
  resolver_host = net.add_host(kResolverAsn, {kResolverAddr});
  scanner_host = net.add_host(kScannerAsn, {kScannerAddr});

  const auto net_name = *dnswire::Name::parse("net");
  const auto zone_name = *dnswire::Name::parse("odns-study.net");

  root = std::make_unique<nodes::AuthServer>(sim, root_host);
  root->add_zone(dnswire::Name{})
      .delegate(net_name, *dnswire::Name::parse("a.gtld-servers.net"),
                kTldAddr);
  root->start();

  tld = std::make_unique<nodes::AuthServer>(sim, tld_host);
  tld->add_zone(net_name)
      .delegate(zone_name, *dnswire::Name::parse("ns1.odns-study.net"),
                kAuthAddr);
  tld->start();

  auth = std::make_unique<nodes::AuthServer>(sim, auth_host);
  auto& zone = auth->add_zone(zone_name);
  zone.add_a("ns1.odns-study.net", kAuthAddr);
  nodes::MirrorConfig mirror;
  mirror.name = scan_name;
  mirror.control_addr = kControlAddr;
  auth->set_mirror(mirror);
  auth->start();

  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {kRootAddr};
  resolver = std::make_unique<nodes::RecursiveResolver>(sim, resolver_host,
                                                        rc, 77);
  resolver->start();
}

}  // namespace odns::test
