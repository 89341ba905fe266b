#include "nodes/resolver.hpp"

#include <algorithm>

namespace odns::nodes {

using dnswire::ARecord;
using dnswire::MessageView;
using dnswire::Name;
using dnswire::NsRecord;
using dnswire::Rcode;
using dnswire::RdataView;
using dnswire::RecordView;
using dnswire::RrType;

namespace {

/// Negative TTL from the SOA in the authority section (RFC 2308).
std::uint32_t negative_ttl_of(const MessageView& msg) {
  for (const auto& rr : msg.authorities) {
    if (rr.rdata.tag == RdataView::Tag::soa) {
      return std::min(rr.ttl, rr.rdata.soa->minimum);
    }
  }
  return 300;
}

/// The 0x20 check: the echoed name has the sent labels byte for byte,
/// case included.
bool same_spelling(const dnswire::NameView& echoed, const Name& sent) {
  return std::equal(echoed.labels.begin(), echoed.labels.end(),
                    sent.labels().begin(), sent.labels().end());
}

}  // namespace

RecursiveResolver::RecursiveResolver(netsim::Simulator& sim,
                                     netsim::HostId host, ResolverConfig cfg,
                                     std::uint64_t seed)
    : DnsNode(sim, host), cfg_(std::move(cfg)), cache_(cfg_.max_ttl),
      rng_(seed), seed_(seed) {
  if (cfg_.rrl.rate > 0) rrl_.emplace(cfg_.rrl, seed_);
}

void RecursiveResolver::set_rrl(RrlConfig rrl) {
  cfg_.rrl = rrl;
  if (rrl.rate > 0) {
    rrl_.emplace(rrl, seed_);
  } else {
    rrl_.reset();
  }
}

void RecursiveResolver::send_client_response(
    util::Ipv4 addr, std::uint16_t port, const MessageView& resp,
    std::optional<util::Ipv4> src_override) {
  if (rrl_) {
    const std::uint64_t flow = (std::uint64_t{port} << 16) | resp.header.id;
    switch (rrl_->check(addr, sim().now(), flow)) {
      case RrlAction::pass:
        ++stats_.rrl_passed;
        break;
      case RrlAction::slip: {
        ++stats_.rrl_slipped;
        ++counters_.rate_limited;
        MessageView tc;
        tc.header = resp.header;
        tc.header.tc = true;
        tc.questions = resp.questions;
        send(addr, kDnsPort, port, tc, src_override);
        return;
      }
      case RrlAction::drop:
        ++stats_.rrl_dropped;
        ++counters_.rate_limited;
        return;
    }
  }
  send(addr, kDnsPort, port, resp, src_override);
}

void RecursiveResolver::start() {
  sim().bind_udp(host(), kDnsPort, this);
  sim().bind_udp_wildcard(host(), this);
}

void RecursiveResolver::on_message_view(const netsim::Datagram& dgram,
                                        const MessageView& msg) {
  if (dgram.dst_port == kDnsPort && !msg.header.qr) {
    handle_client_query(dgram, msg);
  } else if (dgram.dst_port != kDnsPort && msg.header.qr) {
    handle_upstream_response(dgram, msg);
  }
  // Anything else (responses to port 53, queries to ephemeral ports) is
  // reflection noise; dropped.
}

void RecursiveResolver::handle_client_query(const netsim::Datagram& dgram,
                                            const MessageView& msg) {
  ++stats_.client_queries;
  if (msg.questions.size() != 1) {
    send_client_response(dgram.src, dgram.src_port,
                         dnswire::make_response(msg, Rcode::formerr),
                         dgram.dst);
    return;
  }
  const auto& q = msg.questions.front();

  if (!cfg_.open) {
    const bool allowed =
        std::any_of(cfg_.allowed.begin(), cfg_.allowed.end(),
                    [&](const util::Prefix& p) { return p.contains(dgram.src); });
    if (!allowed) {
      ++stats_.refused_acl;
      ++counters_.refused;
      send_client_response(dgram.src, dgram.src_port,
                           dnswire::make_response(msg, Rcode::refused),
                           cfg_.service_addr.value_or(dgram.dst));
      return;
    }
  }

  // Cache first: the response-based scan method deliberately reuses one
  // static name so that resolver caches absorb the load (§2, Table 2).
  std::string key = dnswire::wire_key(q.name, q.type);
  if (auto hit = cache_.get(key, sim().now())) {
    ++stats_.answered_from_cache;
    MessageView resp = dnswire::make_response(
        msg, hit->negative ? hit->rcode : Rcode::noerror);
    resp.header.ra = true;
    resp.answers = hit->views(scratch_arena());
    send_client_response(dgram.src, dgram.src_port, resp,
                         cfg_.service_addr.value_or(dgram.dst));
    return;
  }

  Client client{dgram.src, dgram.src_port, msg.header.id, dgram.dst,
                msg.header.rd};
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    tasks_[it->second].clients.push_back(client);
    return;
  }
  const std::uint32_t slot = new_task();
  Task& task = tasks_[slot];
  task.original = dnswire::Question{q.name.to_name(), q.type, q.klass};
  task.current_name = task.original.name;
  task.clients.push_back(client);
  task.key = key;
  inflight_.emplace(std::move(key), slot);
  ++stats_.full_resolutions;
  begin_iteration(slot);
}

std::uint32_t RecursiveResolver::new_task() {
  if (free_slots_.empty()) {
    tasks_.emplace_back();
    return static_cast<std::uint32_t>(tasks_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

std::vector<util::Ipv4> RecursiveResolver::best_servers_for(const Name& name) {
  // Walk from the query name toward the root, looking for a cached
  // delegation whose glue we also have. Dropping a wire key's first
  // label (its length byte and bytes) gives the parent's key.
  std::string zone_key = dnswire::wire_key(name, RrType::ns);
  while (true) {
    if (auto ns_set = cache_.get(zone_key, sim().now());
        ns_set && !ns_set->negative) {
      std::vector<util::Ipv4> addrs;
      for (const auto& rr : ns_set->records) {
        if (const auto* ns = std::get_if<NsRecord>(&rr.rdata)) {
          if (auto glue = cache_.get(dnswire::wire_key(ns->host, RrType::a),
                                     sim().now());
              glue && !glue->negative) {
            for (const auto& g : glue->records) {
              if (const auto* a = std::get_if<ARecord>(&g.rdata)) {
                addrs.push_back(a->addr);
              }
            }
          }
        }
      }
      if (!addrs.empty()) return addrs;
    }
    if (zone_key.front() == '\0') break;  // the root
    zone_key.erase(0, 1 + static_cast<unsigned char>(zone_key.front()));
  }
  return cfg_.root_hints;
}

void RecursiveResolver::begin_iteration(std::uint32_t slot) {
  Task& task = tasks_[slot];
  task.servers = best_servers_for(task.current_name);
  task.server_idx = 0;
  task.retries_left = cfg_.max_retries;
  if (task.servers.empty()) {
    respond_all(slot, Rcode::servfail);
    return;
  }
  query_current_server(slot);
}

void RecursiveResolver::query_current_server(std::uint32_t slot) {
  Task& task = tasks_[slot];
  const util::Ipv4 server = task.servers[task.server_idx];
  const auto txid = static_cast<std::uint16_t>(rng_.uniform(1, 0xFFFF));
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= 65535 ? 49152 : static_cast<std::uint16_t>(next_port_ + 1);

  const auto generation = next_generation_++;
  task.generation = generation;

  // 0x20: flip the case of each letter randomly; the authoritative
  // server must echo the exact spelling back.
  std::vector<std::string> labels = task.current_name.labels();
  if (cfg_.case_randomization) {
    for (auto& label : labels) {
      for (auto& ch : label) {
        if (ch >= 'a' && ch <= 'z' && rng_.chance(0.5)) {
          ch = static_cast<char>(ch - 'a' + 'A');
        } else if (ch >= 'A' && ch <= 'Z' && rng_.chance(0.5)) {
          ch = static_cast<char>(ch - 'A' + 'a');
        }
      }
    }
  }
  task.cased_name =
      Name::from_labels(std::move(labels)).value_or(task.current_name);
  // Key collision (the port pool wrapped within one timeout window):
  // the displaced query can no longer match a response or its typed
  // timeout — its timer would find this entry and bail on the
  // generation check — so treat it as lost right now to keep its task
  // making progress.
  const std::uint32_t key = pending_key(port, txid);
  if (auto displaced_it = pending_upstream_.find(key);
      displaced_it != pending_upstream_.end()) {
    const TaskRef displaced = displaced_it->second;
    pending_upstream_.erase(displaced_it);
    if (live(displaced) && displaced.slot != slot) {
      on_upstream_timeout(displaced.slot);
    }
  }
  pending_upstream_[key] = TaskRef{slot, tasks_[slot].serial};

  const dnswire::QuestionView question{
      dnswire::view_of(scratch_arena(), tasks_[slot].cased_name),
      tasks_[slot].original.type, dnswire::RrClass::in};
  ++stats_.upstream_queries;
  send(server, port, kDnsPort,
       dnswire::make_query(txid, question, /*recursion_desired=*/false));

  sim().schedule_timer(cfg_.upstream_timeout, this, generation, key);
}

void RecursiveResolver::on_timer(std::uint64_t generation, std::uint64_t key) {
  // Timers fire between datagrams; no view is alive.
  scratch_arena().reset();
  auto it = pending_upstream_.find(static_cast<std::uint32_t>(key));
  if (it == pending_upstream_.end()) return;  // answered already
  const TaskRef ref = it->second;
  if (!live(ref) || tasks_[ref.slot].generation != generation) return;
  pending_upstream_.erase(it);
  on_upstream_timeout(ref.slot);
}

void RecursiveResolver::on_upstream_timeout(std::uint32_t slot) {
  ++stats_.upstream_timeouts;
  Task& task = tasks_[slot];
  if (task.retries_left > 0) {
    --task.retries_left;
    query_current_server(slot);
    return;
  }
  advance_server(slot);
}

void RecursiveResolver::advance_server(std::uint32_t slot) {
  Task& task = tasks_[slot];
  ++task.server_idx;
  task.retries_left = cfg_.max_retries;
  if (task.server_idx >= task.servers.size()) {
    respond_all(slot, Rcode::servfail);
    return;
  }
  query_current_server(slot);
}

void RecursiveResolver::handle_upstream_response(const netsim::Datagram& dgram,
                                                 const MessageView& msg) {
  auto it = pending_upstream_.find(pending_key(dgram.dst_port, msg.header.id));
  if (it == pending_upstream_.end()) return;  // late or off-path response
  const TaskRef ref = it->second;
  if (!live(ref)) {
    pending_upstream_.erase(it);
    return;
  }
  const std::uint32_t slot = ref.slot;
  Task& task = tasks_[slot];
  // 0x20 validation: the echoed question must match the exact case we
  // sent. An off-path forger guessing (port, txid) still fails here
  // with probability 2^-letters.
  if (cfg_.case_randomization &&
      (msg.questions.size() != 1 ||
       !same_spelling(msg.questions.front().name, task.cased_name))) {
    ++stats_.rejected_0x20;
    return;  // keep the transaction pending; the real answer may come
  }
  pending_upstream_.erase(it);
  task.generation = next_generation_++;  // cancel the timeout

  const std::string key =
      dnswire::wire_key(task.current_name, task.original.type);
  if (msg.header.rcode == Rcode::nxdomain) {
    cache_.put_negative(key, Rcode::nxdomain, negative_ttl_of(msg),
                        sim().now());
    respond_all(slot, Rcode::nxdomain);
    return;
  }
  if (msg.header.rcode != Rcode::noerror) {
    advance_server(slot);
    return;
  }

  // The records of `section` that `keep` accepts, as a scratch span.
  const auto select = [this](std::span<const RecordView> section, auto keep) {
    const auto out = scratch_arena().alloc_array<RecordView>(section.size());
    std::size_t n = 0;
    for (const auto& rr : section) {
      if (keep(rr)) out[n++] = rr;
    }
    return std::span<const RecordView>(out.first(n));
  };
  const auto owned_by = [&](RrType type) {
    return select(msg.answers, [&](const RecordView& rr) {
      return rr.type == type && rr.name.equals(task.current_name);
    });
  };

  if (const auto direct = owned_by(task.original.type); !direct.empty()) {
    cache_.put(key, direct, sim().now());
    respond_all(slot, Rcode::noerror, direct);
    return;
  }

  if (const auto cnames = owned_by(RrType::cname); !cnames.empty()) {
    if (++task.cname_depth > cfg_.max_cname_depth) {
      respond_all(slot, Rcode::servfail);
      return;
    }
    const RecordView& cname = cnames.back();
    cache_.put(dnswire::wire_key(task.current_name, RrType::cname), {&cname, 1},
               sim().now());
    task.cname_chain.push_back(cname.to_record());
    task.current_name = cname.rdata.name.to_name();
    begin_iteration(slot);
    return;
  }

  // Referral? Cache the delegation and descend.
  const auto ns_records = select(msg.authorities, [](const RecordView& rr) {
    return rr.type == RrType::ns;
  });
  if (!ns_records.empty()) {
    if (++task.referrals > cfg_.max_referrals) {
      respond_all(slot, Rcode::servfail);
      return;
    }
    cache_.put(dnswire::wire_key(ns_records[0].name, RrType::ns), ns_records,
               sim().now());
    std::vector<util::Ipv4> next_servers;
    for (const auto& rr : msg.additionals) {
      if (rr.rdata.tag == RdataView::Tag::a) {
        cache_.put(dnswire::wire_key(rr.name, RrType::a), {&rr, 1},
                   sim().now());
        next_servers.push_back(rr.rdata.a_addr);
      }
    }
    if (next_servers.empty()) {
      // Glueless delegation: unsupported fallback — try remaining
      // servers, else fail. (Our topologies always provide glue.)
      advance_server(slot);
      return;
    }
    task.servers = std::move(next_servers);
    task.server_idx = 0;
    task.retries_left = cfg_.max_retries;
    query_current_server(slot);
    return;
  }

  // NODATA.
  cache_.put_negative(key, Rcode::noerror, negative_ttl_of(msg), sim().now());
  respond_all(slot, Rcode::noerror);
}

void RecursiveResolver::respond_all(std::uint32_t slot, Rcode rcode,
                                    std::span<const RecordView> answers) {
  Task& task = tasks_[slot];
  inflight_.erase(task.key);
  auto& arena = scratch_arena();
  if (rcode == Rcode::servfail) {
    ++stats_.servfails;
    ++counters_.servfail;
  } else if (!task.cname_chain.empty()) {
    const auto full = arena.alloc_array<RecordView>(task.cname_chain.size() +
                                                    answers.size());
    const auto chain = dnswire::view_of(arena, task.cname_chain);
    std::copy(answers.begin(), answers.end(),
              std::copy(chain.begin(), chain.end(), full.begin()));
    answers = full;
  }
  const dnswire::QuestionView question{
      dnswire::view_of(arena, task.original.name), task.original.type,
      task.original.klass};
  MessageView resp;
  resp.header.qr = true;
  resp.header.ra = true;
  resp.header.rcode = rcode;
  resp.questions = {&question, 1};
  resp.answers = answers;
  for (const auto& client : task.clients) {
    resp.header.id = client.txid;
    resp.header.rd = client.recursion_desired;
    const util::Ipv4 reply_src = cfg_.service_addr.value_or(client.arrival_dst);
    send_client_response(client.addr, client.port, resp, reply_src);
  }
  // The answers may borrow the task's CNAME chain: free only now.
  const std::uint32_t serial = task.serial + 1;
  task = Task{};
  task.serial = serial;
  free_slots_.push_back(slot);
}

}  // namespace odns::nodes
