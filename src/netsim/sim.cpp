#include "netsim/sim.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "netsim/shard_state.hpp"
#include "netsim/stateless.hpp"

namespace odns::netsim {

namespace {

/// The app-facing view of a UDP packet; the payload pointer borrows
/// `pkt` for the duration of the dispatch.
Datagram datagram_of(const Packet& pkt) {
  return Datagram{pkt.src,      pkt.dst, pkt.src_port,
                  pkt.dst_port, pkt.ttl, &pkt.payload};
}

}  // namespace

thread_local Simulator::Shard* Simulator::tl_shard_ = nullptr;
thread_local const Simulator* Simulator::tl_owner_ = nullptr;

Simulator::Simulator(SimConfig cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.shards > 1 && cfg_.hop_latency <= util::Duration::nanos(0)) {
    // The window barrier advances one hop latency per window; a zero
    // window would never move past the next pending event.
    throw std::invalid_argument(
        "SimConfig: shards > 1 needs a positive hop_latency");
  }
  faults_.configure(cfg_.faults, cfg_.seed, cfg_.hop_latency);
  shards_.reserve(cfg_.shards);
  for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(*this, i, cfg_.shards));
  }
}

Simulator::~Simulator() { pool_.shutdown(); }

util::SimTime Simulator::now() const {
  // Outside a run every shard clock is synchronized (run_windows ends
  // on one clock), so shard 0's is the global "now".
  return active_shard().events.now();
}

Simulator::Shard& Simulator::active_shard() const {
  if (tl_owner_ == this && tl_shard_ != nullptr) return *tl_shard_;
  return *shards_[0];
}

void Simulator::schedule_timer(util::Duration delay, TimerTarget* target,
                               std::uint64_t a, std::uint64_t b) {
  Shard& sh = active_shard();
  sh.events.schedule_timer(sh.events.now() + delay, target, a, b);
}

void Simulator::schedule_timer_on(HostId affinity, util::Duration delay,
                                  TimerTarget* target, std::uint64_t a,
                                  std::uint64_t b) {
  Shard& sh = *shards_[shard_of(affinity)];
  sh.events.schedule_timer(sh.events.now() + delay, target, a, b);
}

void Simulator::run() {
  if (single_shard()) {
    shards_[0]->events.run();
    return;
  }
  run_windows(util::SimTime::far_future());
}

void Simulator::run_until(util::SimTime deadline) {
  if (single_shard()) {
    shards_[0]->events.run(deadline);
    return;
  }
  run_windows(deadline);
}

void Simulator::set_fault_config(const FaultConfig& faults) {
  cfg_.faults = faults;
  faults_.configure(faults, cfg_.seed, cfg_.hop_latency);
  if (!single_shard() && faults_.active()) {
    // Mirror freeze_partition's presizing so shard threads never
    // resize the bucket table (the partition may already be frozen
    // when the sweep lever flips faults on between runs).
    faults_.resize_buckets(net_.as_count());
  }
}

const SimCounters& Simulator::counters() const {
  if (single_shard()) return shards_[0]->counters;
  agg_counters_ = SimCounters{};
  for (const auto& sh : shards_) {
    agg_counters_.sent += sh->counters.sent;
    agg_counters_.delivered += sh->counters.delivered;
    agg_counters_.dropped_sav += sh->counters.dropped_sav;
    agg_counters_.dropped_loss += sh->counters.dropped_loss;
    agg_counters_.dropped_no_route += sh->counters.dropped_no_route;
    agg_counters_.ttl_expired += sh->counters.ttl_expired;
    agg_counters_.icmp_generated += sh->counters.icmp_generated;
    agg_counters_.redirected += sh->counters.redirected;
    agg_counters_.dropped_outage += sh->counters.dropped_outage;
    agg_counters_.jittered += sh->counters.jittered;
    agg_counters_.reordered += sh->counters.reordered;
    agg_counters_.duplicated += sh->counters.duplicated;
    agg_counters_.corrupted += sh->counters.corrupted;
    agg_counters_.icmp_unreachable_suppressed +=
        sh->counters.icmp_unreachable_suppressed;
  }
  return agg_counters_;
}

void Simulator::set_partition_load_hints(std::vector<std::uint64_t> weights) {
  partition_load_hints_ = std::move(weights);
  partition_epoch_ = 0;  // re-freeze with the new placement on next run
}

void Simulator::set_vantage_capture(util::Ipv4 capture_addr,
                                    std::vector<HostId> members) {
  if (members.empty()) {
    throw std::invalid_argument("set_vantage_capture: no members");
  }
  const HostId capture_host = net_.unicast_owner(capture_addr);
  if (capture_host == kInvalidHost) {
    throw std::invalid_argument("set_vantage_capture: " +
                                capture_addr.to_string() +
                                " has no unicast owner");
  }
  vantage_capture_host_ = capture_host;
  vantage_members_ = std::move(members);
  const auto n = shard_count();
  vantage_member_for_shard_.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    // Provisional round-robin assignment; partition freeze rebuilds
    // this table after pinning members to the lightest shards, keeping
    // the choice shard-local whenever members.size() >= n (and landing
    // on the member's own shard via the mailbox fabric otherwise).
    vantage_member_for_shard_[s] =
        vantage_members_[s % vantage_members_.size()];
  }
  partition_epoch_ = 0;  // re-freeze with the member pins applied
}

void Simulator::clear_vantage_capture() {
  vantage_capture_host_ = kInvalidHost;
  vantage_members_.clear();
  vantage_member_for_shard_.clear();
  partition_epoch_ = 0;
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->events.executed();
  return total;
}

Simulator::HostState& Simulator::state(HostId id) {
  // HostIds are dense (allocated by Network::add_host); a sentinel or
  // garbage id would turn the resize below into a giant allocation.
  if (id >= net_.host_count()) {
    throw std::out_of_range("unknown host " + std::to_string(id));
  }
  if (id >= host_state_.size()) host_state_.resize(id + 1);
  return host_state_[id];
}

void Simulator::bind_udp(HostId host, std::uint16_t port, App* app) {
  if (app == nullptr) throw std::invalid_argument("bind_udp: null app");
  HostState& st = state(host);
  if (st.extra) {
    if (auto it = st.extra->sockets.find(port);
        it != st.extra->sockets.end()) {
      it->second = app;
      return;
    }
  }
  if (st.app0 == nullptr || st.app0_port == port) {
    st.app0 = app;
    st.app0_port = port;
    return;
  }
  st.ensure_extra().sockets[port] = app;
}

void Simulator::unbind_udp(HostId host, std::uint16_t port) {
  HostState& st = state(host);
  if (st.app0 != nullptr && st.app0_port == port) {
    st.app0 = nullptr;
    st.app0_port = 0;
    return;
  }
  if (st.extra) st.extra->sockets.erase(port);
}

void Simulator::bind_udp_wildcard(HostId host, App* app) {
  state(host).wildcard = app;
}

void Simulator::set_icmp_handler(HostId host, IcmpHandler handler) {
  state(host).ensure_extra().icmp = std::move(handler);
}

void Simulator::add_port_redirect(HostId host, std::uint16_t dst_port,
                                  util::Ipv4 target) {
  HostState& st = state(host);
  if (st.extra) {
    if (auto it = st.extra->redirects.find(dst_port);
        it != st.extra->redirects.end()) {
      it->second = Redirect{target, 0};
      return;
    }
  }
  if (!st.has_redirect || st.redirect_port == dst_port) {
    st.has_redirect = true;
    st.redirect_port = dst_port;
    st.redirect_target = target;
    st.redirect_relays = 0;
    return;
  }
  st.ensure_extra().redirects[dst_port] = Redirect{target, 0};
}

void Simulator::remove_port_redirect(HostId host, std::uint16_t dst_port) {
  HostState& st = state(host);
  if (st.has_redirect && st.redirect_port == dst_port) {
    st.has_redirect = false;
    st.redirect_port = 0;
    st.redirect_relays = 0;
    return;
  }
  if (st.extra) st.extra->redirects.erase(dst_port);
}

std::uint64_t Simulator::redirect_relays(HostId host) const {
  if (host >= host_state_.size()) return 0;
  const HostState& st = host_state_[host];
  std::uint64_t total = st.has_redirect ? st.redirect_relays : 0;
  if (st.extra) {
    for (const auto& [port, rule] : st.extra->redirects) total += rule.relays;
  }
  return total;
}

void Simulator::emit(Shard& sh, TapEvent ev, const Packet& pkt) {
  if (trace_enabled_) {
    if (sh.trace.size() >= trace_limit_) {
      ++sh.trace_dropped;
      return;
    }
    TraceRecord r;
    r.at = sh.events.now().nanos();
    r.shard = sh.index;
    r.seq = sh.trace_seq++;
    r.ev = ev;
    r.proto = static_cast<std::uint8_t>(pkt.proto);
    r.ttl = pkt.ttl;
    r.src = pkt.src.value();
    r.dst = pkt.dst.value();
    r.src_port = pkt.src_port;
    r.dst_port = pkt.dst_port;
    sh.trace.push_back(r);
  }
}

bool Simulator::loss_drop(Asn origin_as, const Packet& pkt,
                          util::SimTime at) {
  if (cfg_.loss_rate >= 1.0) return true;
  // Stateless core: the decision depends on (seed, packet identity,
  // time), never on how many draws happened before — so loss patterns
  // are identical for every shard count and event interleaving.
  std::uint64_t h = mix64(cfg_.seed ^ kLossDomain);
  h = mix64(h ^ (std::uint64_t{pkt.src.value()} << 32 | pkt.dst.value()));
  h = mix64(h ^ (std::uint64_t{pkt.src_port} << 48 |
                 std::uint64_t{pkt.dst_port} << 32 |
                 static_cast<std::uint32_t>(pkt.ttl)));
  h = mix64(h ^ static_cast<std::uint64_t>(at.nanos()) ^
            (std::uint64_t{static_cast<std::uint8_t>(pkt.proto)} << 56));
  // Byte-identical packets at the same instant (only synthetic bursts
  // produce these) draw consecutive counter values instead of sharing
  // one fate. Occurrences are counted per content hash within the
  // nanosecond, so the set of fates drawn is independent of how
  // same-instant packets interleave (and of the shard count). The
  // slot is per origin AS, written only by its owning shard; sharded
  // runs presize the table at partition freeze.
  const std::size_t idx = net_.as_index(origin_as);
  if (idx >= loss_burst_.size()) {
    assert(single_shard());
    loss_burst_.resize(net_.as_count());
  }
  LossBurst& burst = loss_burst_[idx];
  if (burst.at != at.nanos()) {
    burst.at = at.nanos();
    burst.seen.clear();  // capacity retained
  }
  bool found = false;
  for (auto& [hash, count] : burst.seen) {
    if (hash == h) {
      h = mix64(h ^ ++count);
      found = true;
      break;
    }
  }
  if (!found) burst.seen.emplace_back(h, 0);
  const auto threshold =
      static_cast<std::uint64_t>(cfg_.loss_rate * 9007199254740992.0);  // 2^53
  return (h >> 11) < threshold;
}

void Simulator::send_udp(HostId from, SendOptions opts) {
  Shard& sh = *shards_[shard_of(from)];
  // From inside a handler, sends must originate on the shard that owns
  // the sending host (apps always do — they run there).
  assert(tl_owner_ != this || tl_shard_ == nullptr || tl_shard_ == &sh);
  if (net_.host(from).addr_count == 0) {
    throw std::invalid_argument("send_udp: host " + std::to_string(from) +
                                " has no address");
  }
  Packet pkt;
  pkt.src = opts.spoof_src.value_or(net_.primary_addr(from));
  pkt.dst = opts.dst;
  pkt.ttl = opts.ttl.value_or(cfg_.default_ttl);
  pkt.proto = Protocol::udp;
  pkt.src_port = opts.src_port;
  pkt.dst_port = opts.dst_port;
  pkt.payload = std::move(opts.payload);
  inject(sh, std::move(pkt), net_.host(from).asn, /*from_router=*/false);
}

void Simulator::send_icmp(Shard& sh, IcmpType type, util::Ipv4 from,
                          const Packet& offender, Asn origin_as) {
  assert(single_shard() || shard_of_as(origin_as) == sh.index);
  // RFC 1122: never generate ICMP errors about ICMP errors.
  if (offender.proto == Protocol::icmp) return;
  if (type == IcmpType::host_unreachable && faults_.active()) {
    // Dark-AS border routers rate-limit their unreachable chatter: a
    // deterministic per-AS token bucket whose admission verdict is
    // frozen per instant, so same-instant emissions are order-
    // independent (the RRL discipline). The bucket is touched only on
    // the AS-owning shard — the assert above already guarantees that.
    const std::size_t idx = net_.as_index(origin_as);
    if (idx >= faults_.bucket_count()) {
      assert(single_shard());
      faults_.resize_buckets(net_.as_count());
    }
    if (!faults_.allow_unreachable(idx, sh.events.now())) {
      ++sh.counters.icmp_unreachable_suppressed;
      return;
    }
  }
  Packet icmp;
  icmp.src = from;
  icmp.dst = offender.src;
  icmp.ttl = cfg_.default_ttl;
  icmp.proto = Protocol::icmp;
  icmp.icmp_type = type;
  icmp.icmp_quote = IcmpQuote{offender.src, offender.dst, offender.src_port,
                              offender.dst_port};
  ++sh.counters.icmp_generated;
  inject(sh, std::move(icmp), origin_as, /*from_router=*/true);
}

void Simulator::schedule_deliver_on(Shard& sh, std::uint32_t dst_shard,
                                    util::SimTime at, Packet&& pkt,
                                    HostId host) {
  if (dst_shard == sh.index) {
    sh.events.schedule_deliver(at, std::move(pkt), host);
    return;
  }
  if (tl_owner_ == this && tl_shard_ == &sh) {
    // Inside a window on a shard thread: cross-shard events travel
    // through the mail vector toward `dst_shard`, admitted at the
    // start of its next window.
    MailboxMsg m;
    m.kind = MailboxMsg::Kind::deliver;
    m.at = at;
    m.dst_host = host;
    m.pkt = std::move(pkt);
    sh.post(dst_shard, std::move(m));
    return;
  }
  // Outside the event loop (setup / main thread between runs) no shard
  // thread is running; scheduling directly keeps call order = seq.
  shards_[dst_shard]->events.schedule_deliver(at, std::move(pkt), host);
}

void Simulator::schedule_icmp_on(Shard& sh, std::uint32_t dst_shard,
                                 util::SimTime at, IcmpType type,
                                 Packet&& offender, util::Ipv4 router,
                                 Asn origin_as) {
  if (dst_shard == sh.index) {
    sh.events.schedule_icmp(at, type, std::move(offender), router, origin_as);
    return;
  }
  if (tl_owner_ == this && tl_shard_ == &sh) {
    MailboxMsg m;
    m.kind = MailboxMsg::Kind::icmp;
    m.icmp_type = type;
    m.at = at;
    m.router = router;
    m.origin_as = origin_as;
    m.pkt = std::move(offender);
    sh.post(dst_shard, std::move(m));
    return;
  }
  shards_[dst_shard]->events.schedule_icmp(at, type, std::move(offender),
                                           router, origin_as);
}

void Simulator::inject(Shard& sh, Packet pkt, Asn origin_as,
                       bool from_router) {
  ++sh.counters.sent;
  emit(sh, TapEvent::sent, pkt);

  // BCP 38 egress filtering: customer traffic leaving an AS that
  // validates source addresses must carry a source the AS announces.
  // Infrastructure (router-originated ICMP) is exempt.
  if (!from_router) {
    const auto* info = net_.find_as(origin_as);
    if (info != nullptr && info->cfg.source_address_validation &&
        !Network::owns_source(*info, pkt.src)) {
      ++sh.counters.dropped_sav;
      emit(sh, TapEvent::dropped_sav, pkt);
      return;
    }
  }

  const util::SimTime at_now = sh.events.now();
  // Origin-side outage: a dark AS can neither receive nor send (its
  // hosts went dark too), so traffic originated inside a scheduled
  // window is dropped at the send instant — silently, like a powered-
  // off CPE. Recovery is implicit: sends after the window pass again.
  // Router-originated ICMP is exempt, like the SAV check above: the
  // border router is exactly the component still powered during a
  // dark window — it's what emits the rate-limited host-unreachables.
  if (!from_router && faults_.active() && faults_.in_outage(origin_as, at_now)) {
    ++sh.counters.dropped_outage;
    emit(sh, TapEvent::dropped_outage, pkt);
    return;
  }
  if (cfg_.loss_rate > 0.0 && loss_drop(origin_as, pkt, at_now)) {
    ++sh.counters.dropped_loss;
    emit(sh, TapEvent::dropped_loss, pkt);
    return;
  }

  // Zero-copy lookup. Single-shard runs use the Network's default
  // cache (the classic observable-stats path); sharded runs use this
  // shard's private one.
  const std::optional<RouteView> route =
      single_shard() ? net_.route_view(origin_as, pkt.dst)
                     : net_.route_view(sh.route_cache, origin_as, pkt.dst);
  if (!route) {
    ++sh.counters.dropped_no_route;
    emit(sh, TapEvent::dropped_no_route, pkt);
    return;
  }

  const int hops = static_cast<int>(route->router_hops->size());
  if (pkt.ttl <= hops) {
    // TTL reaches zero at router index pkt.ttl (1-based) along the path.
    const int expiring = pkt.ttl;
    const util::Ipv4 router =
        (*route->router_hops)[static_cast<std::size_t>(expiring - 1)];
    const auto router_as = net_.router_owner(router);
    ++sh.counters.ttl_expired;
    emit(sh, TapEvent::ttl_expired, pkt);
    const Asn icmp_origin = router_as.value_or(origin_as);
    schedule_icmp_on(sh, single_shard() ? 0 : shard_of_as(icmp_origin),
                     at_now + cfg_.hop_latency * expiring,
                     IcmpType::ttl_exceeded, std::move(pkt), router,
                     icmp_origin);
    return;
  }

  HostId dst_host = route->dst_host;
  util::SimTime deliver_at = at_now + cfg_.hop_latency * (hops + 1);
  bool dup = false;
  if (faults_.active()) {
    // Every fault decision is made here, on the emitting shard, keyed
    // on the packet content and send instant, and checked against the
    // *routed* destination (before the vantage override below) — so
    // fault fates, counters, and trace records are invariant across
    // shard counts and vantage counts alike.
    const Asn dst_as = net_.host(dst_host).asn;
    if (faults_.in_outage(dst_as, deliver_at)) {
      // Destination went dark before the packet would arrive. The dark
      // AS's border router (still powered — the access link is what
      // failed) reports host-unreachable, rate-limited per AS at
      // emission time on the AS-owning shard (send_icmp's gate).
      ++sh.counters.dropped_outage;
      emit(sh, TapEvent::dropped_outage, pkt);
      if (cfg_.faults.unreachable_per_second > 0.0 &&
          pkt.proto != Protocol::icmp) {
        const util::Ipv4 dark_router = pkt.dst;
        schedule_icmp_on(sh, single_shard() ? 0 : shard_of_as(dst_as),
                         deliver_at, IcmpType::host_unreachable,
                         std::move(pkt), dark_router, dst_as);
      }
      return;
    }
    const FaultSkew skew = faults_.delivery_skew(pkt, at_now);
    if (skew.jittered) {
      ++sh.counters.jittered;
      emit(sh, TapEvent::jittered, pkt);
    }
    if (skew.reordered) {
      ++sh.counters.reordered;
      emit(sh, TapEvent::reordered, pkt);
    }
    // Skew only ever *adds* delay to a base already one full hop
    // latency past any cross-shard boundary, so the conservative
    // window barrier stays safe under maximum jitter.
    deliver_at = deliver_at + skew.extra;
    if (faults_.corrupt_payload(pkt, at_now)) {
      ++sh.counters.corrupted;
      emit(sh, TapEvent::corrupted, pkt);
    }
    if (faults_.duplicate(pkt, at_now)) {
      dup = true;
      ++sh.counters.duplicated;
      emit(sh, TapEvent::duplicated, pkt);
    }
  }
  // Multi-vantage capture: traffic for the capture address is handed
  // to the vantage member pinned to the *emitting* shard, after the
  // route (hop count, delivery time, TTL) has been computed against
  // the capture address's owning host — so the packet's observable
  // trace is byte-identical to the single-vantage run, but delivery
  // never crosses the shard fabric.
  if (dst_host == vantage_capture_host_) {
    dst_host = vantage_member_for_shard_[sh.index];
  }
  pkt.ttl -= hops;
  const std::uint32_t dst_shard = single_shard() ? 0 : host_shard_[dst_host];
  if (dup) {
    // The copy lands one hop latency after the (possibly corrupted)
    // original — duplication happens on the wire, so both carry the
    // same bytes.
    Packet copy = pkt;
    schedule_deliver_on(sh, dst_shard, deliver_at + cfg_.hop_latency,
                        std::move(copy), dst_host);
  }
  schedule_deliver_on(sh, dst_shard, deliver_at, std::move(pkt), dst_host);
}

void Simulator::deliver(Shard& sh, Packet pkt, HostId host) {
  assert(single_shard() || host_shard_[host] == sh.index);
  ++sh.counters.delivered;
  emit(sh, TapEvent::delivered, pkt);
  HostState* st = find_state(host);
  const Host& h = net_.host(host);

  if (pkt.proto == Protocol::icmp) {
    if (st != nullptr && st->extra && st->extra->icmp) st->extra->icmp(pkt);
    return;
  }

  // Transparent forwarding: an IP-level relay installed on the device.
  // The source address is preserved (this is the spoofing behaviour the
  // paper measures) and the TTL continues to decrement, which is what
  // makes DNSRoute++ able to see through the device.
  if (st != nullptr) {
    util::Ipv4* relay_target = nullptr;
    std::uint64_t* relay_count = nullptr;
    if (st->has_redirect && st->redirect_port == pkt.dst_port) {
      relay_target = &st->redirect_target;
      relay_count = &st->redirect_relays;
    } else if (st->extra) {
      if (auto rule = st->extra->redirects.find(pkt.dst_port);
          rule != st->extra->redirects.end()) {
        relay_target = &rule->second.target;
        relay_count = &rule->second.relays;
      }
    }
    if (relay_target != nullptr) {
      if (pkt.ttl - 1 <= 0) {
        // The device's IP stack answers (from the address the probe
        // was sent to); forwarding stops. This is the behaviour
        // DNSRoute++ keys on to locate the forwarder on the path.
        send_icmp(sh, IcmpType::ttl_exceeded, pkt.dst, pkt, h.asn);
        return;
      }
      ++*relay_count;
      ++sh.counters.redirected;
      emit(sh, TapEvent::redirected, pkt);
      Packet relayed = std::move(pkt);
      relayed.ttl -= 1;
      relayed.dst = *relay_target;
      // The relay is host-originated traffic: if this AS enforced SAV
      // the spoofed relay would be dropped, so deployed transparent
      // forwarders only exist behind SAV-free networks.
      inject(sh, std::move(relayed), h.asn, /*from_router=*/false);
      return;
    }
  }

  App* app = nullptr;
  if (st != nullptr) {
    app = st->find_socket(pkt.dst_port);
    if (app == nullptr) app = st->wildcard;
  }
  if (app == nullptr) {
    send_icmp(sh, IcmpType::port_unreachable, pkt.dst, pkt, h.asn);
    return;
  }

  app->on_datagram(datagram_of(pkt));
}

}  // namespace odns::netsim
