#include "nodes/auth_server.hpp"

#include <algorithm>

namespace odns::nodes {

using dnswire::MessageView;
using dnswire::Name;
using dnswire::NameView;
using dnswire::Rcode;
using dnswire::RecordView;
using dnswire::ResourceRecord;
using dnswire::RrType;

void Zone::add_record(ResourceRecord rr) {
  names_.insert(dnswire::wire_key(rr.name, std::nullopt));
  rrsets_[dnswire::wire_key(rr.name, rr.type)].push_back(std::move(rr));
}

void Zone::add_a(const std::string& name, util::Ipv4 addr, std::uint32_t ttl) {
  auto n = Name::parse(name);
  if (!n) return;
  add_record(ResourceRecord::a(*n, addr, ttl));
}

void Zone::delegate(const Name& child, const Name& ns_host,
                    util::Ipv4 glue_addr, std::uint32_t ttl) {
  Delegation* d = nullptr;
  for (auto& existing : delegations) {
    if (existing.child == child) {
      d = &existing;
      break;
    }
  }
  if (d == nullptr) {
    delegations.emplace_back();
    d = &delegations.back();
    d->child = child;
  }
  d->ns_records.push_back(ResourceRecord::ns(child, ns_host, ttl));
  d->glue.push_back(ResourceRecord::a(ns_host, glue_addr, ttl));
}

const std::vector<ResourceRecord>* Zone::find(const std::string& key) const {
  auto it = rrsets_.find(key);
  return it == rrsets_.end() ? nullptr : &it->second;
}

bool Zone::has_name(const std::string& name_key) const {
  return names_.contains(name_key);
}

const Delegation* Zone::find_delegation(const NameView& name) const {
  for (const auto& d : delegations) {
    if (name.is_subdomain_of(d.child)) return &d;
  }
  return nullptr;
}

AuthServer::AuthServer(netsim::Simulator& sim, netsim::HostId host)
    : DnsNode(sim, host) {}

Zone& AuthServer::add_zone(const Name& origin) {
  auto& z = zones_.emplace_back();
  z.origin = origin;
  return z;
}

Zone* AuthServer::zone_for_mutable(const Name& name) {
  dnswire::WireArena arena;
  return const_cast<Zone*>(zone_for(dnswire::view_of(arena, name)));
}

void AuthServer::start() { sim().bind_udp(host(), kDnsPort, this); }

const Zone* AuthServer::zone_for(const NameView& qname) const {
  // Longest-origin match so that a server hosting both "net" and
  // "odns-study.net" answers authoritatively for the deeper zone.
  const Zone* best = nullptr;
  for (const auto& z : zones_) {
    if (qname.is_subdomain_of(z.origin)) {
      if (best == nullptr ||
          z.origin.label_count() > best->origin.label_count()) {
        best = &z;
      }
    }
  }
  return best;
}

bool AuthServer::build_mirror_response(dnswire::WireArena& arena,
                                       const dnswire::MessageView& query,
                                       util::Ipv4 client,
                                       dnswire::MessageView& out) const {
  if (query.header.qr) return false;
  if (!mirror_) return false;
  if (query.questions.size() != 1) return false;
  const auto& q = query.questions.front();
  if (q.type != RrType::a && q.type != RrType::any) return false;
  if (!q.name.equals(mirror_->name)) return false;

  const auto& cfg = *mirror_;
  const std::size_t n = cfg.include_control ? 2 : 1;
  auto answers = arena.alloc_array<dnswire::RecordView>(n);
  // Dynamic record first: mirrors the immediate client — for relayed
  // queries this is the recursive resolver's egress address, which is
  // exactly what lets the scanner see *which* resolver served it. The
  // owner name reuses the question's view; the encoder compresses it
  // to a pointer at the echoed question.
  answers[0].name = q.name;
  answers[0].type = RrType::a;
  answers[0].ttl = cfg.ttl;
  answers[0].rdata.tag = dnswire::RdataView::Tag::a;
  answers[0].rdata.a_addr = client;
  if (cfg.include_control) {
    answers[1] = answers[0];
    answers[1].rdata.a_addr = cfg.control_addr;
  }

  out = dnswire::MessageView{};
  out.header.id = query.header.id;
  out.header.qr = true;
  out.header.rd = query.header.rd;
  out.header.aa = true;
  out.questions = query.questions;
  out.answers = answers;
  return true;
}

void AuthServer::on_message_view(const netsim::Datagram& dgram,
                                 const MessageView& msg) {
  if (msg.header.qr) return;  // not a query; ignore
  if (msg.questions.size() != 1) {
    reply(dgram, dnswire::make_response(msg, Rcode::formerr));
    return;
  }
  const auto& q = msg.questions.front();
  if (log_queries_) {
    query_log_.push_back(
        QueryLogEntry{q.name.to_name(), dgram.src, sim().now()});
  }
  if (limiter_ && !limiter_->allow(dgram.src, sim().now())) {
    ++counters_.rate_limited;
    return;  // silently dropped, like the deployed sensors
  }
  MessageView resp;
  if (build_mirror_response(scratch_arena(), msg, dgram.src, resp)) {
    ++queries_answered_;
  } else if (const Zone* zone = zone_for(q.name)) {
    resp = zone_response(*zone, msg, q);
    ++queries_answered_;
  } else {
    ++counters_.refused;
    resp = dnswire::make_response(msg, Rcode::refused);
  }
  reply(dgram, resp);
}

MessageView AuthServer::zone_response(const Zone& zone,
                                      const MessageView& query,
                                      const dnswire::QuestionView& q) {
  auto& arena = scratch_arena();
  MessageView resp = dnswire::make_response(query);
  // Delegation below us? Hand out a referral (never authoritative).
  if (const auto* d = zone.find_delegation(q.name)) {
    resp.authorities = dnswire::view_of(arena, d->ns_records);
    resp.additionals = dnswire::view_of(arena, d->glue);
    return resp;
  }
  resp.header.aa = true;
  const auto find = [&](RrType type) {
    return zone.find(dnswire::wire_key(q.name, type));
  };
  const std::string name_key = dnswire::wire_key(q.name, std::nullopt);
  if (const auto* rrs = find(q.type)) {
    resp.answers = dnswire::view_of(arena, *rrs);
  } else if (q.type == RrType::any && zone.has_name(name_key)) {
    const std::vector<ResourceRecord>* sets[] = {
        find(RrType::a), find(RrType::ns), find(RrType::txt),
        find(RrType::cname)};
    std::size_t n = 0;
    for (const auto* set : sets) n += set != nullptr ? set->size() : 0;
    const auto answers = arena.alloc_array<RecordView>(n);
    std::size_t i = 0;
    for (const auto* set : sets) {
      if (set == nullptr) continue;
      for (const auto& rr : *set) answers[i++] = dnswire::view_of(arena, rr);
    }
    resp.answers = answers;
  } else if (const auto* cname = find(RrType::cname)) {
    resp.answers = dnswire::view_of(arena, *cname);
  } else if (wildcard_a_ && !q.name.equals(zone.origin) &&
             (q.type == RrType::a || q.type == RrType::any)) {
    // Destination-encoded scan names: synthesize an answer for any
    // subdomain so the query-based method's unique names all resolve.
    auto* rr = arena.alloc<RecordView>();
    rr->name = q.name;
    rr->ttl = zone.default_ttl;
    rr->rdata.a_addr = *wildcard_a_;
    resp.answers = {rr, 1};
  } else {
    // NODATA when the name exists (type does not), else NXDOMAIN.
    if (!zone.has_name(name_key)) resp.header.rcode = Rcode::nxdomain;
    negative_soa_ =
        ResourceRecord::soa(zone.origin, zone.origin, 1, zone.negative_ttl);
    auto* soa = arena.alloc<RecordView>();
    *soa = dnswire::view_of(arena, negative_soa_);
    resp.authorities = {soa, 1};
  }
  return resp;
}

}  // namespace odns::nodes
