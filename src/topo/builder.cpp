// TopologyBuilder implementation: turns the country profiles in
// data.cpp into a wired world — ASes, prefixes, the DNS hierarchy,
// public-resolver anycast deployments, and the scaled ODNS population
// (recursive resolvers / recursive forwarders / transparent
// forwarders) — plus the ground truth the evaluation compares against.
// There is no builder.hpp: the public surface lives in deployment.hpp.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "topo/deployment.hpp"

namespace odns::topo {

using netsim::Asn;
using netsim::HostId;
using util::Ipv4;
using util::Prefix;

namespace {

// ---------------------------------------------------------------------
// Address plan (documented in DESIGN.md):
//   20.0.0.0 .. 73.255.255.255   ODNS host population (/24 pool)
//   100.64.0.0/10                router interfaces (netsim-owned)
//   192.0.2.0/24                 scanner network (TEST-NET-1)
//   198.51.100.0/24              measurement zone infra (TEST-NET-2)
//   198.41.0.0/24                root name server
//   192.5.6.0/24                 .net TLD server
//   8.8.8.0/24 etc.              public resolver service + egress blocks
// ---------------------------------------------------------------------

constexpr Ipv4 kScannerAddr{192, 0, 2, 1};
constexpr Ipv4 kAuthAddr{198, 51, 100, 53};
constexpr Ipv4 kControlAddr{198, 51, 100, 200};
constexpr Ipv4 kWildcardAddr{198, 51, 100, 10};
constexpr Ipv4 kRootAddr{198, 41, 0, 4};
constexpr Ipv4 kTldAddr{192, 5, 6, 30};

enum class Region { na, sa, eu, asia, africa, oceania };
constexpr int kRegionCount = 6;

Region region_of(const std::string& code) {
  static const std::unordered_map<std::string, Region> map = {
      {"USA", Region::na},    {"CAN", Region::na},  {"PRI", Region::na},
      {"GTM", Region::na},    {"BLZ", Region::na},  {"TTO", Region::na},
      {"BRA", Region::sa},    {"ARG", Region::sa},  {"COL", Region::sa},
      {"ECU", Region::sa},    {"PRY", Region::sa},  {"URY", Region::sa},
      {"CHL", Region::sa},    {"POL", Region::eu},  {"FRA", Region::eu},
      {"BGR", Region::eu},    {"RUS", Region::eu},  {"ESP", Region::eu},
      {"ITA", Region::eu},    {"HUN", Region::eu},  {"UKR", Region::eu},
      {"LVA", Region::eu},    {"CZE", Region::eu},  {"GBR", Region::eu},
      {"SRB", Region::eu},    {"SVK", Region::eu},  {"HRV", Region::eu},
      {"NLD", Region::eu},    {"DEU", Region::eu},  {"IND", Region::asia},
      {"TUR", Region::asia},  {"IDN", Region::asia},{"BGD", Region::asia},
      {"CHN", Region::asia},  {"THA", Region::asia},{"PHL", Region::asia},
      {"MYS", Region::asia},  {"IRN", Region::asia},{"JPN", Region::asia},
      {"KOR", Region::asia},  {"TWN", Region::asia},{"VNM", Region::asia},
      {"HKG", Region::asia},  {"AFG", Region::asia},{"IRQ", Region::asia},
      {"PSE", Region::asia},  {"ISR", Region::asia},{"PAK", Region::asia},
      {"MUS", Region::africa},{"ZAF", Region::africa},
      {"COD", Region::africa},{"BDI", Region::africa},
      {"EGY", Region::africa},{"AUS", Region::oceania},
      {"NRU", Region::oceania},
  };
  if (auto it = map.find(code); it != map.end()) return it->second;
  // Tail countries rotate deterministically through the regions.
  std::size_t h = 0;
  for (char c : code) h = h * 31 + static_cast<std::size_t>(c);
  return static_cast<Region>(h % kRegionCount);
}

/// Allocates /24 blocks for the ODNS host population.
class PrefixPool {
 public:
  PrefixPool() : next_(Ipv4{20, 0, 0, 0}.value()) {}

  Prefix take24() {
    if (next_ >= Ipv4{74, 0, 0, 0}.value()) {
      throw std::runtime_error("host /24 pool exhausted");
    }
    Prefix p{Ipv4{next_}, 24};
    next_ += 256;
    return p;
  }

 private:
  std::uint32_t next_;
};

class AsnPool {
 public:
  explicit AsnPool(std::unordered_set<Asn> reserved)
      : reserved_(std::move(reserved)) {}

  Asn take16() { return take_from(next16_); }
  Asn take32() { return take_from(next32_); }  // RFC 4893 4-byte ASNs

 private:
  Asn take_from(Asn& counter) {
    while (reserved_.contains(counter)) ++counter;
    return counter++;
  }
  std::unordered_set<Asn> reserved_;
  Asn next16_ = 7000;
  Asn next32_ = 262144;
};

std::uint64_t scaled(std::uint64_t paper_count, double scale) {
  if (paper_count == 0) return 0;
  const auto n = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(paper_count) * scale));
  return std::max<std::uint64_t>(n, 1);
}

}  // namespace

// =====================================================================
// Deployment accessors
// =====================================================================

std::vector<Ipv4> Deployment::scan_targets() const {
  std::vector<Ipv4> out;
  out.reserve(ground_truth_.size());
  for (const auto& gt : ground_truth_) out.push_back(gt.addr);
  return out;
}

nodes::CacheStats Deployment::aggregate_resolver_cache_stats() const {
  nodes::CacheStats total;
  for (const auto& resolver : resolvers_) {
    const auto& s = resolver->cache().stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.negative_hits += s.negative_hits;
    total.inserts += s.inserts;
    total.evictions += s.evictions;
  }
  return total;
}

std::optional<ResolverProject> Deployment::project_of_service_addr(
    Ipv4 addr) const {
  auto it = service_addr_project_.find(addr);
  if (it == service_addr_project_.end()) return std::nullopt;
  return it->second;
}

std::optional<ResolverProject> Deployment::project_of_asn(Asn asn) const {
  auto it = asn_project_.find(asn);
  if (it == asn_project_.end()) return std::nullopt;
  return it->second;
}

std::string Deployment::country_of_asn(Asn asn) const {
  auto it = asn_country_.find(asn);
  return it == asn_country_.end() ? std::string{} : it->second;
}

AsType Deployment::type_of_asn(Asn asn) const {
  auto it = asn_type_.find(asn);
  return it == asn_type_.end() ? AsType::unknown : it->second;
}

// =====================================================================
// Builder
// =====================================================================

namespace {

struct BuildState {
  Deployment* d = nullptr;
  netsim::Simulator* sim = nullptr;
  util::Rng rng{0};
  PrefixPool prefixes;
  std::unique_ptr<AsnPool> asns;
  std::vector<std::vector<Asn>> region_hubs;  // per region
  std::vector<Asn> tier1;
  std::vector<Asn> national_transit;  // all countries' transit ASes
  std::unordered_map<std::uint8_t, std::vector<Asn>> pop_asns_by_project;
};

void register_as(BuildState& st, Asn asn, const std::string& country,
                 AsType type) {
  st.d->asn_country_[asn] = country;
  st.d->asn_type_[asn] = type;
}

/// Creates the tier-1 full mesh and regional hub layer.
void build_core(BuildState& st, const TopologyConfig& cfg) {
  auto& net = st.sim->net();
  for (int i = 0; i < cfg.tier1_count; ++i) {
    const Asn asn = st.asns->take16();
    netsim::AsConfig ac;
    ac.asn = asn;
    ac.country = "USA";  // nominal registration; tier-1s are global
    ac.internal_hops = 2;
    net.add_as(ac);
    register_as(st, asn, "USA", AsType::tier1);
    st.tier1.push_back(asn);
  }
  for (std::size_t i = 0; i < st.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < st.tier1.size(); ++j) {
      net.link(st.tier1[i], st.tier1[j]);
    }
  }
  st.region_hubs.assign(kRegionCount, {});
  for (int r = 0; r < kRegionCount; ++r) {
    for (int h = 0; h < cfg.hubs_per_region; ++h) {
      const Asn asn = st.asns->take16();
      netsim::AsConfig ac;
      ac.asn = asn;
      ac.country = "";  // hub; country attribution not meaningful
      ac.internal_hops = 2;
      net.add_as(ac);
      register_as(st, asn, "", AsType::transit);
      // Each hub multihomes to three tier-1s (deterministic spread).
      for (int t = 0; t < 3; ++t) {
        const Asn upstream =
            st.tier1[(static_cast<std::size_t>(r) * 3 + h + t) %
                     st.tier1.size()];
        net.link(upstream, asn);
        st.d->provider_customer_.emplace_back(upstream, asn);
      }
      st.region_hubs[r].push_back(asn);
    }
  }
}

/// Root, .net TLD, the measurement zone, and the scanner vantage.
void build_infra(BuildState& st, Deployment& d) {
  auto& net = st.sim->net();

  netsim::AsConfig infra;
  infra.asn = st.asns->take16();
  infra.country = "DEU";
  infra.internal_hops = 1;
  net.add_as(infra);
  register_as(st, infra.asn, "DEU", AsType::infrastructure);
  net.link(infra.asn, st.tier1[0]);
  net.link(infra.asn, st.tier1[1]);
  net.announce(infra.asn, Prefix{kRootAddr, 24});
  net.announce(infra.asn, Prefix{kTldAddr, 24});
  net.announce(infra.asn, Prefix{kAuthAddr, 24});

  // Scanner network: SAV disabled so spoof-based experiments (sensor 3,
  // amplification study) can originate here.
  netsim::AsConfig scanner;
  scanner.asn = st.asns->take16();
  scanner.country = "DEU";
  scanner.internal_hops = 1;
  scanner.source_address_validation = false;
  net.add_as(scanner);
  register_as(st, scanner.asn, "DEU", AsType::infrastructure);
  net.link(scanner.asn, st.tier1[0]);
  net.announce(scanner.asn, Prefix{kScannerAddr, 24});

  const HostId root_host = net.add_host(infra.asn, {kRootAddr});
  const HostId tld_host = net.add_host(infra.asn, {kTldAddr});
  const HostId auth_host = net.add_host(infra.asn, {kAuthAddr});
  d.scanner_host_ = net.add_host(scanner.asn, {kScannerAddr});
  d.scanner_addr_ = kScannerAddr;

  d.scan_name_ = *dnswire::Name::parse("scan.odns-study.net");
  d.control_addr_ = kControlAddr;
  d.auth_addr_ = kAuthAddr;
  d.root_addr_ = kRootAddr;

  const auto net_name = *dnswire::Name::parse("net");
  const auto zone_name = *dnswire::Name::parse("odns-study.net");
  const auto tld_ns = *dnswire::Name::parse("a.gtld-servers.net");
  const auto zone_ns = *dnswire::Name::parse("ns1.odns-study.net");

  auto root = std::make_unique<nodes::AuthServer>(*st.sim, root_host);
  auto& root_zone = root->add_zone(dnswire::Name{});  // "."
  root_zone.delegate(net_name, tld_ns, kTldAddr);
  root->start();
  d.auth_servers_.push_back(std::move(root));

  auto tld = std::make_unique<nodes::AuthServer>(*st.sim, tld_host);
  auto& tld_zone = tld->add_zone(net_name);
  tld_zone.delegate(zone_name, zone_ns, kAuthAddr);
  tld->start();
  d.auth_servers_.push_back(std::move(tld));

  auto auth = std::make_unique<nodes::AuthServer>(*st.sim, auth_host);
  auto& zone = auth->add_zone(zone_name);
  zone.add_a("ns1.odns-study.net", kAuthAddr);
  nodes::MirrorConfig mirror;
  mirror.name = d.scan_name_;
  mirror.control_addr = kControlAddr;
  mirror.ttl = 300;
  auth->set_mirror(mirror);
  auth->set_wildcard_a(kWildcardAddr);
  auth->start();
  d.auth_server_ = auth.get();
  d.auth_servers_.push_back(std::move(auth));
}

/// Anycast PoPs for the four public resolver projects.
void build_projects(BuildState& st, Deployment& d) {
  auto& net = st.sim->net();
  for (const auto& bp : project_blueprints()) {
    d.asn_project_[bp.asn] = bp.project;
    for (auto addr : bp.service_addrs) {
      d.service_addr_project_[addr] = bp.project;
    }
    std::uint32_t egress_next = bp.egress_prefix.base().value() + 256;
    for (int p = 0; p < bp.pops; ++p) {
      netsim::AsConfig ac;
      // Per-PoP ASNs so anycast picks the topologically nearest site;
      // all are registered to the project for attribution.
      ac.asn = p == 0 ? bp.asn : st.asns->take32();
      ac.country = "";
      ac.internal_hops = bp.pop_internal_hops;
      net.add_as(ac);
      d.asn_project_[ac.asn] = bp.project;
      register_as(st, ac.asn, "", AsType::content);
      // Attach to hubs spread across regions; peering breadth controls
      // how short paths to this project get (Fig. 6's lever).
      for (int b = 0; b < bp.peering_breadth; ++b) {
        const int region = (p + b) % kRegionCount;
        const auto& hubs = st.region_hubs[static_cast<std::size_t>(region)];
        const Asn hub =
            hubs[static_cast<std::size_t>(p / kRegionCount) % hubs.size()];
        net.link(hub, ac.asn);
        d.provider_customer_.emplace_back(hub, ac.asn);
      }
      net.announce(ac.asn, bp.service_prefix);
      st.pop_asns_by_project[static_cast<std::uint8_t>(bp.project)]
          .push_back(ac.asn);
      const Ipv4 egress{egress_next + 10};
      egress_next += 256;
      net.announce(ac.asn, Prefix{egress, 24});
      const HostId host = net.add_host(ac.asn, {egress});
      for (auto addr : bp.service_addrs) net.join_anycast(addr, host);

      nodes::ResolverConfig rc;
      rc.open = true;
      rc.root_hints = {kRootAddr};
      // service_addr stays unset: replies leave from the address the
      // query arrived on — the anycast service address.
      auto resolver = std::make_unique<nodes::RecursiveResolver>(
          *st.sim, host, rc, st.rng.uniform(1, 1u << 30));
      resolver->start();
      d.resolvers_.push_back(std::move(resolver));
      d.pops_.push_back(PublicResolverPop{bp.project, host, ac.asn, egress});
    }
  }
}

struct CountryContext {
  const CountryProfile* profile = nullptr;
  std::vector<Asn> transit;
  std::vector<Ipv4> national_resolver_addrs;
  std::vector<Asn> eyeball;
  std::unordered_map<Asn, Prefix> eyeball_current_prefix;
};

/// National transit ASes + national ("other") open resolvers.
void build_country_backbone(BuildState& st, Deployment& d,
                            CountryContext& ctx) {
  auto& net = st.sim->net();
  const auto& p = *ctx.profile;
  const auto region = region_of(p.code);
  const auto& hubs = st.region_hubs[static_cast<std::size_t>(region)];

  const int transit_count =
      1 + (p.odns_total > 20000 ? 1 : 0) + (p.odns_total > 100000 ? 1 : 0);
  for (int t = 0; t < transit_count; ++t) {
    // Table 4 publishes the incumbent's ASN for some countries; use it
    // for the first (largest) transit network.
    const Asn asn =
        (t == 0 && p.top_asn != 0) ? p.top_asn : st.asns->take16();
    netsim::AsConfig ac;
    ac.asn = asn;
    ac.country = p.code;
    ac.internal_hops = 2;
    net.add_as(ac);
    register_as(st, asn, p.code, AsType::transit);
    for (std::size_t h = 0; h < 2 && h < hubs.size(); ++h) {
      const Asn hub =
          hubs[(static_cast<std::size_t>(t) + h) % hubs.size()];
      net.link(hub, asn);
      d.provider_customer_.emplace_back(hub, asn);
    }
    ctx.transit.push_back(asn);
    st.national_transit.push_back(asn);
  }

  // National open resolvers: the "other" share of Fig. 5 resolves here.
  for (int r = 0; r < std::max(1, p.national_resolvers); ++r) {
    const Asn asn = ctx.transit[static_cast<std::size_t>(r) %
                                ctx.transit.size()];
    const Prefix block = st.prefixes.take24();
    net.announce(asn, block);
    const Ipv4 addr{block.base().value() + 53};
    const HostId host = net.add_host(asn, {addr});
    nodes::ResolverConfig rc;
    rc.open = true;
    rc.root_hints = {kRootAddr};
    auto resolver = std::make_unique<nodes::RecursiveResolver>(
        *st.sim, host, rc, st.rng.uniform(1, 1u << 30));
    resolver->start();
    d.resolvers_.push_back(std::move(resolver));
    ctx.national_resolver_addrs.push_back(addr);
  }
}

/// Eyeball access networks, Zipf-weighted by rank.
void build_eyeballs(BuildState& st, Deployment& d, CountryContext& ctx,
                    const TopologyConfig& cfg) {
  auto& net = st.sim->net();
  const auto& p = *ctx.profile;
  const double scale = cfg.scale;
  // Sub-linear AS scaling: host counts shrink with `scale` but the AS
  // structure shrinks slower, preserving per-AS population shapes. The
  // multiplier widens the AS layer independently of the host count
  // (Internet-scale worlds want O(10^4) ASes).
  const int as_count = std::max(
      1, static_cast<int>(std::lround(p.as_count * std::pow(scale, 0.4) *
                                      cfg.eyeball_as_multiplier)));
  for (int i = 0; i < as_count; ++i) {
    // 4-byte ASNs dominate recent eyeball deployments in emerging
    // markets (§6: 65 of the top-100 TF ASes are 32-bit).
    const bool wide = st.rng.chance(p.emerging ? 0.70 : 0.20);
    const Asn asn = wide ? st.asns->take32() : st.asns->take16();
    netsim::AsConfig ac;
    ac.asn = asn;
    ac.country = p.code;
    ac.internal_hops = st.rng.uniform_int(1, 3);
    // Transparent forwarders can only spoof from SAV-free networks.
    ac.source_address_validation =
        p.tf_share > 0 ? false : st.rng.chance(0.5);
    net.add_as(ac);
    register_as(st, asn, p.code, AsType::eyeball_isp);
    // Dual-homed where possible: most access networks buy transit from
    // two upstreams, which also smooths per-country path variance.
    const std::size_t homes = std::min<std::size_t>(2, ctx.transit.size());
    for (std::size_t h = 0; h < homes; ++h) {
      const Asn provider = ctx.transit[(static_cast<std::size_t>(i) + h) %
                                       ctx.transit.size()];
      net.link(provider, asn);
      d.provider_customer_.emplace_back(provider, asn);
    }
    ctx.eyeball.push_back(asn);
  }
}

/// Hands out addresses inside an eyeball AS, packing /24s sequentially.
Ipv4 next_addr_in(BuildState& st, CountryContext& ctx, Asn asn, int& used,
                  int per_prefix) {
  auto it = ctx.eyeball_current_prefix.find(asn);
  if (it == ctx.eyeball_current_prefix.end() || used >= per_prefix) {
    const Prefix block = st.prefixes.take24();
    st.sim->net().announce(asn, block);
    it = ctx.eyeball_current_prefix.insert_or_assign(asn, block).first;
    used = 0;
  }
  const Ipv4 addr{it->second.base().value() + 1 +
                  static_cast<std::uint32_t>(used)};
  ++used;
  return addr;
}

ResolverProject pick_project(BuildState& st, const ResolverMix& mix) {
  const double weights[] = {mix.google, mix.cloudflare, mix.quad9,
                            mix.opendns, mix.other};
  return static_cast<ResolverProject>(st.rng.weighted(weights));
}

Ipv4 service_addr_of(BuildState& st, ResolverProject project) {
  for (const auto& bp : project_blueprints()) {
    if (bp.project == project) {
      return bp.service_addrs[st.rng.uniform(0, bp.service_addrs.size() - 1)];
    }
  }
  throw std::logic_error("no blueprint for project");
}

/// Vendor assignment with a per-country MikroTik quota: whole-/24
/// middleboxes skew MikroTik (§6: half the identified MikroTiks fully
/// cover their /24; overall ~23% of fingerprinted TFs are MikroTik).
/// Quota accounting keeps the share stable at any topology scale.
class VendorQuota {
 public:
  DeviceVendor pick(BuildState& st, PrefixStyle style, std::uint64_t units) {
    const double rate = style == PrefixStyle::full ? 0.36 : 0.17;
    target_units_ += rate * static_cast<double>(units);
    if (static_cast<double>(mikrotik_units_) +
            0.5 * static_cast<double>(units) <=
        target_units_) {
      mikrotik_units_ += units;
      return DeviceVendor::mikrotik;
    }
    const double rest[] = {0.25, 0.30, 0.25, 0.20};
    switch (st.rng.weighted(rest)) {
      case 0: return DeviceVendor::zyxel;
      case 1: return DeviceVendor::huawei;
      case 2: return DeviceVendor::tplink;
      default: return DeviceVendor::dlink;
    }
  }

 private:
  double target_units_ = 0.0;
  std::uint64_t mikrotik_units_ = 0;
};

}  // namespace

std::unique_ptr<Deployment> TopologyBuilder::build(const TopologyConfig& cfg) {
  auto d = std::make_unique<Deployment>();
  d->cfg_ = cfg;
  netsim::SimConfig sim_cfg = cfg.sim;
  sim_cfg.seed = cfg.seed ^ 0xD1B54A32D192ED03ull;
  d->sim_ = std::make_unique<netsim::Simulator>(sim_cfg);
  d->forwarder_banks_.resize(netsim::Simulator::kVirtualShards);

  BuildState st;
  st.d = d.get();
  st.sim = d->sim_.get();
  st.rng = util::Rng{cfg.seed};

  // Reserve every ASN that appears in embedded data so pool allocation
  // never collides with them.
  std::unordered_set<Asn> reserved;
  for (const auto& bp : project_blueprints()) reserved.insert(bp.asn);
  for (const auto& p : country_profiles()) {
    if (p.top_asn != 0) reserved.insert(p.top_asn);
  }
  st.asns = std::make_unique<AsnPool>(std::move(reserved));

  build_core(st, cfg);
  build_infra(st, *d);
  build_projects(st, *d);

  std::vector<CountryProfile> profiles = country_profiles();
  if (!cfg.include_tail_countries) {
    std::erase_if(profiles,
                  [](const CountryProfile& p) { return p.code[0] == 'X'; });
  } else {
    for (const auto& p : no_tf_country_profiles()) profiles.push_back(p);
  }
  if (cfg.max_countries > 0 && profiles.size() > cfg.max_countries) {
    profiles.resize(cfg.max_countries);
  }
  d->profiles_used_ = profiles;

  // Global /24-population-style quota (Fig. 8 targets are global
  // fractions): tracked across countries because a "full" batch needs
  // 254 forwarders at once, which small countries cannot realize —
  // large countries absorb the accumulated deficit instead.
  double style_target_units[3] = {0.0, 0.0, 0.0};
  std::uint64_t style_placed_units[3] = {0, 0, 0};

  for (const auto& profile : profiles) {
    CountryContext ctx;
    ctx.profile = &profile;
    build_country_backbone(st, *d, ctx);
    build_eyeballs(st, *d, ctx, cfg);

    const std::uint64_t total = scaled(profile.odns_total, cfg.scale);
    std::uint64_t tf_count =
        profile.tf_share > 0.0
            ? std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(std::llround(
                         static_cast<double>(profile.odns_total) *
                         profile.tf_share * cfg.scale)))
            : 0;
    const std::uint64_t rr_count = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(total) * profile.rr_share));
    const std::uint64_t rf_count =
        total > tf_count + rr_count ? total - tf_count - rr_count : 0;
    // Recursive forwarders Shadowserver sees but our strict two-record
    // validation rejects (manipulating middleboxes), derived from the
    // published Table-5 gap.
    const std::uint64_t shadow = scaled(profile.shadowserver_odns, cfg.scale);
    const std::uint64_t rf_manip =
        shadow > rr_count + rf_count ? shadow - rr_count - rf_count : 0;

    auto& net = st.sim->net();

    // Zipf weights over the country's eyeball ASes.
    std::vector<double> zipf(ctx.eyeball.size());
    for (std::size_t i = 0; i < zipf.size(); ++i) {
      zipf[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.85);
    }

    // ---- recursive resolvers (open, unicast) ------------------------
    std::unordered_map<Asn, int> used_rr;
    for (std::uint64_t i = 0; i < rr_count; ++i) {
      const Asn asn = ctx.eyeball[st.rng.weighted(zipf)];
      int& used = used_rr[asn];
      // Separate /24s from forwarders: pack 200 per block.
      static constexpr int kPerPrefix = 200;
      CountryContext& c = ctx;
      const Ipv4 addr = next_addr_in(st, c, asn, used, kPerPrefix);
      const HostId host = net.add_host(asn, {addr});
      nodes::ResolverConfig rc;
      rc.open = true;
      rc.root_hints = {kRootAddr};
      auto resolver = std::make_unique<nodes::RecursiveResolver>(
          *st.sim, host, rc, st.rng.uniform(1, 1u << 30));
      resolver->start();
      d->resolvers_.push_back(std::move(resolver));
      GroundTruth gt;
      gt.addr = addr;
      gt.kind = OdnsKind::recursive_resolver;
      gt.country = profile.code;
      gt.asn = asn;
      gt.host = host;
      d->ground_truth_.push_back(gt);
    }
    ctx.eyeball_current_prefix.clear();

    // ---- recursive forwarders ---------------------------------------
    // Per-AS restricted resolvers are created lazily for the ISP-bound
    // half of the forwarders.
    std::unordered_map<Asn, Ipv4> isp_resolver;
    auto isp_resolver_for = [&](Asn asn) -> Ipv4 {
      if (auto it = isp_resolver.find(asn); it != isp_resolver.end()) {
        return it->second;
      }
      const Prefix block = st.prefixes.take24();
      net.announce(asn, block);
      const Ipv4 addr{block.base().value() + 53};
      const HostId host = net.add_host(asn, {addr});
      nodes::ResolverConfig rc;
      rc.open = false;
      rc.root_hints = {kRootAddr};
      // Restricted ACL modeling shortcut: admit the whole ODNS host
      // pool (20.0.0.0–73.255.255.255) so ISP customers placed in
      // later-allocated blocks stay admitted, while external sources —
      // notably the scanner at 192.0.2.1, including when spoofed by a
      // transparent forwarder — are REFUSED. That is the behaviour the
      // paper relies on: TFs relaying to restricted resolvers never
      // appear as ODNS components.
      rc.allowed = {Prefix{Ipv4{0, 0, 0, 0}, 1}};
      auto resolver = std::make_unique<nodes::RecursiveResolver>(
          *st.sim, host, rc, st.rng.uniform(1, 1u << 30));
      resolver->start();
      d->resolvers_.push_back(std::move(resolver));
      isp_resolver.emplace(asn, addr);
      return addr;
    };

    std::unordered_map<Asn, int> used_rf;
    const std::uint64_t rf_total = rf_count + rf_manip;
    for (std::uint64_t i = 0; i < rf_total; ++i) {
      const Asn asn = ctx.eyeball[st.rng.weighted(zipf)];
      int& used = used_rf[asn];
      const Ipv4 addr = next_addr_in(st, ctx, asn, used, 200);
      const HostId host = net.add_host(asn, {addr});
      nodes::ForwarderBank::MemberConfig mc;
      mc.addr = addr;
      const bool to_isp = st.rng.chance(0.5);
      ResolverProject project;
      if (to_isp) {
        mc.upstream = isp_resolver_for(asn);
        project = ResolverProject::other;
      } else {
        project = pick_project(st, profile.mix);
        mc.upstream = project == ResolverProject::other
                          ? st.rng.pick(ctx.national_resolver_addrs)
                          : service_addr_of(st, project);
      }
      const bool manipulated = i >= rf_count;
      if (manipulated) {
        if (st.rng.chance(0.5)) {
          mc.rewrite_answers = true;
          mc.rewrite_target = Ipv4{203, 0, 113, 99};
        } else {
          mc.strip_second_record = true;
        }
      }
      // The forwarder becomes a row in its virtual shard's bank
      // (shard-safe for every shard count, since a virtual shard never
      // splits across execution shards).
      auto& bank = d->forwarder_banks_[st.sim->virtual_shard_of_as(asn)];
      if (!bank) bank = std::make_unique<nodes::ForwarderBank>(*st.sim);
      bank->add_member(host, mc);
      GroundTruth gt;
      gt.addr = addr;
      gt.kind = OdnsKind::recursive_forwarder;
      gt.country = profile.code;
      gt.asn = asn;
      gt.host = host;
      gt.upstream = mc.upstream;
      gt.project = project;
      gt.chained = manipulated;  // reused flag: fails strict validation
      d->ground_truth_.push_back(gt);
    }
    ctx.eyeball_current_prefix.clear();

    // ---- transparent forwarders -------------------------------------
    // Chain targets for indirect consolidation: local recursive
    // forwarders (same AS) relaying to a big-4 project.
    std::unordered_map<Asn, Ipv4> chain_rf;
    auto chain_rf_for = [&](Asn asn) -> Ipv4 {
      if (auto it = chain_rf.find(asn); it != chain_rf.end()) {
        return it->second;
      }
      const Prefix block = st.prefixes.take24();
      net.announce(asn, block);
      const Ipv4 addr{block.base().value() + 10};
      const HostId host = net.add_host(asn, {addr});
      const Ipv4 upstream = service_addr_of(
          st, st.rng.chance(0.7) ? ResolverProject::google
                                 : ResolverProject::cloudflare);
      auto fwd = std::make_unique<nodes::RecursiveForwarder>(*st.sim, host,
                                                             upstream);
      fwd->start();
      d->chain_relays_.push_back(std::move(fwd));
      chain_rf.emplace(asn, addr);
      return addr;
    };

    // Deterministic quota sampling for batch attributes: because one
    // middlebox (one /24 batch) shares a single resolver and style, iid
    // draws would give small countries wildly off-target shares. Quota
    // assignment keeps realized shares tracking the Fig. 4/5/8 profile
    // marginals at any scale while per-batch randomness (sizes, AS
    // choice, addresses) stays.
    std::uint64_t placed = 0;
    const double style_rate[3] = {profile.style_sparse,
                                  profile.style_medium, profile.style_full};
    const double project_target[5] = {
        profile.mix.google, profile.mix.cloudflare, profile.mix.quad9,
        profile.mix.opendns, profile.mix.other};
    std::uint64_t project_placed[5] = {0, 0, 0, 0, 0};
    std::uint64_t other_placed = 0;
    std::uint64_t indirect_placed = 0;
    VendorQuota vendors;

    while (placed < tf_count) {
      const Asn asn = ctx.eyeball[st.rng.weighted(zipf)];
      const std::uint64_t remaining = tf_count - placed;
      // Style with the largest deficit against its target share. A
      // style is only eligible if the remaining population can actually
      // realize it (a "full /24" of 100 forwarders would corrupt the
      // Fig. 8 density distribution).
      int style_idx = 0;
      double best_deficit = -1e18;
      for (int s = 0; s < 3; ++s) {
        if (s == 2 && remaining < 254) continue;
        if (s == 1 && remaining < 26) continue;
        const double deficit =
            style_target_units[s] + style_rate[s] -
            static_cast<double>(style_placed_units[s]);
        if (deficit > best_deficit) {
          best_deficit = deficit;
          style_idx = s;
        }
      }
      const auto style = static_cast<PrefixStyle>(style_idx);
      std::uint64_t batch = 0;
      switch (style) {
        case PrefixStyle::sparse:
          batch = st.rng.uniform(1, 25);
          break;
        case PrefixStyle::medium:
          batch = st.rng.uniform(26, 180);
          break;
        case PrefixStyle::full:
          batch = 254;
          break;
      }
      batch = std::min(batch, remaining);
      style_placed_units[static_cast<std::size_t>(style_idx)] += batch;
      for (int s = 0; s < 3; ++s) {
        style_target_units[s] += style_rate[s] * static_cast<double>(batch);
      }
      // Whole-prefix and partial-prefix deployments are one middlebox
      // owning many addresses; sparse deployments are per-customer CPE.
      const Prefix block = st.prefixes.take24();
      net.announce(asn, block);

      // Upstream decisions happen per *device*: each sparse CPE picks
      // its own resolver; a middlebox picks one for its whole block.
      std::uint64_t decided = placed;
      auto pick_project_quota = [&](std::uint64_t units) {
        int project_idx = 4;
        double best = -1e18;
        for (int p = 0; p < 5; ++p) {
          const double deficit =
              project_target[p] * static_cast<double>(decided + units) -
              static_cast<double>(project_placed[p]);
          if (deficit > best) {
            best = deficit;
            project_idx = p;
          }
        }
        project_placed[static_cast<std::size_t>(project_idx)] += units;
        decided += units;
        return static_cast<ResolverProject>(project_idx);
      };
      // Quota with probabilistic rounding on the indirect share within
      // "other": unbiased at every scale and granularity.
      auto pick_chained_quota = [&](std::uint64_t units) {
        const double indirect_deficit =
            profile.other_indirect *
                static_cast<double>(other_placed + units) -
            static_cast<double>(indirect_placed);
        other_placed += units;
        const double p_chain = std::clamp(
            indirect_deficit / static_cast<double>(units), 0.0, 1.0);
        if (st.rng.chance(p_chain)) {
          indirect_placed += units;
          return true;
        }
        return false;
      };
      auto upstream_for = [&](std::uint64_t units, ResolverProject project,
                              bool& chained) {
        chained = false;
        if (project != ResolverProject::other) {
          return service_addr_of(st, project);
        }
        if (pick_chained_quota(units)) {
          chained = true;
          return chain_rf_for(asn);
        }
        return st.rng.pick(ctx.national_resolver_addrs);
      };

      if (style == PrefixStyle::sparse) {
        // Per-customer CPE: each address is its own device with its
        // own upstream choice.
        const std::uint64_t start = st.rng.uniform(0, 253 - batch);
        for (std::uint64_t k = 0; k < batch; ++k) {
          const auto project = pick_project_quota(1);
          bool chained = false;
          const Ipv4 target = upstream_for(1, project, chained);
          const Ipv4 addr{block.base().value() + 1 +
                          static_cast<std::uint32_t>(start + k)};
          const HostId host = net.add_host(asn, {addr});
          d->transparent_.emplace_back(*st.sim, host, target);
          d->transparent_.back().install();
          GroundTruth gt;
          gt.addr = addr;
          gt.kind = OdnsKind::transparent_forwarder;
          gt.country = profile.code;
          gt.asn = asn;
          gt.host = host;
          gt.upstream = target;
          gt.project = project;
          gt.chained = chained;
          gt.vendor = vendors.pick(st, style, 1);
          gt.fingerprint_visible = st.rng.chance(0.13);
          gt.prefix_style = style;
          d->ground_truth_.push_back(gt);
        }
      } else {
        const auto project = pick_project_quota(batch);
        bool chained = false;
        const Ipv4 target = upstream_for(batch, project, chained);
        // One middlebox answering for the block: one vendor for the
        // whole device; banner-scanner visibility is per address
        // (search-engine coverage is an IP-level property).
        const DeviceVendor vendor = vendors.pick(st, style, batch);
        std::vector<Ipv4> addrs;
        addrs.reserve(batch);
        for (std::uint64_t k = 0; k < batch; ++k) {
          addrs.push_back(Ipv4{block.base().value() + 1 +
                               static_cast<std::uint32_t>(k)});
        }
        const HostId host = net.add_host(asn, addrs);
        d->transparent_.emplace_back(*st.sim, host, target);
        d->transparent_.back().install();
        for (auto addr : addrs) {
          GroundTruth gt;
          gt.addr = addr;
          gt.kind = OdnsKind::transparent_forwarder;
          gt.country = profile.code;
          gt.asn = asn;
          gt.host = host;
          gt.upstream = target;
          gt.project = project;
          gt.chained = chained;
          gt.vendor = vendor;
          gt.fingerprint_visible = st.rng.chance(0.13);
          gt.prefix_style = style;
          d->ground_truth_.push_back(gt);
        }
      }
      placed += batch;
    }
  }

  for (auto& bank : d->forwarder_banks_) {
    if (bank) bank->seal();
  }

  // IXP peering post-pass: each resolver project peers directly with a
  // project-specific fraction of national transit networks. Denser
  // edge presence shortens forwarder→resolver paths (Fig. 6 ordering:
  // Cloudflare < Google < OpenDNS).
  for (const auto& bp : project_blueprints()) {
    const auto& pops =
        st.pop_asns_by_project[static_cast<std::uint8_t>(bp.project)];
    if (pops.empty() || bp.national_peering <= 0.0) continue;
    std::size_t next_pop = 0;
    for (const Asn transit : st.national_transit) {
      if (!st.rng.chance(bp.national_peering)) continue;
      d->sim_->net().link(transit, pops[next_pop % pops.size()]);
      ++next_pop;
    }
  }

  // Merge the bulk address tail into the frozen lookup table and build
  // the routing tables now, off the packet path (and surface
  // duplicate-address bugs at build time).
  d->sim_->net().freeze_addr_plane();
  d->sim_->net().freeze_routing();

  return d;
}

}  // namespace odns::topo
