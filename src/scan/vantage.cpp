#include "scan/vantage.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "dnswire/arena_codec.hpp"
#include "scan/stream.hpp"

namespace odns::scan {

/// One capture host of a VantageSet: binds the wildcard socket and the
/// ICMP sink on its member host, paces its slice of the plan from the
/// member's own shard, and records raw responses into a shard-local
/// buffer (only ever touched by the shard that owns the member).
class CaptureVantage final : public netsim::App, public netsim::TimerTarget {
 public:
  CaptureVantage(VantageSet& owner, netsim::HostId host, std::uint32_t index)
      : owner_(&owner), host_(host), index_(index) {
    auto& sim = *owner_->sim_;
    sim.bind_udp_wildcard(host_, this);
    sim.set_icmp_handler(host_, [this](const netsim::Packet&) {
      ++stats_.icmp_errors;
    });
  }

  void on_timer(std::uint64_t probe_index, std::uint64_t) override {
    const PlannedProbe& probe = owner_->plan_.probes()[probe_index];
    auto& sim = *owner_->sim_;
    if (probe.attempt == 0) {
      ++stats_.probes_sent;
    } else {
      ++stats_.probes_retried;
    }
    const ScanConfig& cfg = owner_->cfg_;
    const dnswire::Name qname = cfg.qname_for_target
                                    ? cfg.qname_for_target(probe.target)
                                    : cfg.qname;
    netsim::SendOptions opts;
    opts.dst = probe.target;
    opts.src_port = probe.src_port;
    opts.dst_port = 53;
    // Every vantage sends as the shared capture address (the member
    // ASes are SAV-free), so probe content — and with it routing, loss
    // fates, and responder behaviour — does not depend on which member
    // sends it.
    opts.spoof_src = owner_->capture_addr_;
    opts.payload =
        dnswire::encode(dnswire::make_query(probe.txid, qname, cfg.qtype));
    sim.send_udp(host_, std::move(opts));
  }

  /// The dumpcap hook: decodes one captured datagram (as a view, never
  /// materialized) into the capture buffer. Non-responses are ignored;
  /// undecodable payloads count as parse errors.
  void on_datagram(const netsim::Datagram& dgram) override {
    rx_arena_.reset();
    const auto parsed = dnswire::decode_into(rx_arena_, *dgram.payload);
    if (!parsed) {
      // Undecodable captures are counted twice on purpose: parse_errors
      // keeps the classic total, responses_corrupt isolates the wire-
      // damage subset the fault plane injects (the fuzz-hardened decode
      // rejects the flipped bytes instead of misclassifying them).
      ++stats_.parse_errors;
      ++stats_.responses_corrupt;
      return;
    }
    const dnswire::MessageView& msg = parsed.value();
    if (!msg.header.qr) return;  // stray queries aimed at the capture host
    ++stats_.responses_received;
    RawResponse rec;
    rec.src = dgram.src;
    rec.src_port = dgram.src_port;
    rec.dst_port = dgram.dst_port;
    rec.txid = msg.header.id;
    rec.at = owner_->sim_->now();
    rec.rcode = msg.header.rcode;
    for (const auto& rr : msg.answers) {
      if (rr.rdata.tag == dnswire::RdataView::Tag::a) {
        rec.answer_addrs.push_back(rr.rdata.a_addr);
      }
    }
    rec.vantage = index_;
    capture_.push_back(std::move(rec));
  }

  [[nodiscard]] netsim::HostId host() const { return host_; }
  [[nodiscard]] const std::vector<RawResponse>& capture() const {
    return capture_;
  }
  /// Flush access: the window merge consumes a time-ordered prefix and
  /// compacts it between simulator windows.
  [[nodiscard]] std::vector<RawResponse>& mutable_capture() {
    return capture_;
  }
  [[nodiscard]] const ScannerStats& stats() const { return stats_; }

 private:
  VantageSet* owner_;
  netsim::HostId host_;
  std::uint32_t index_;
  std::vector<RawResponse> capture_;
  ScannerStats stats_;
  dnswire::WireArena rx_arena_;  // decode_into target, reset per datagram
};

VantageSet::VantageSet(netsim::Simulator& sim, ScanConfig cfg,
                       util::Ipv4 capture_addr,
                       std::vector<netsim::HostId> member_hosts)
    : sim_(&sim), cfg_(std::move(cfg)), capture_addr_(capture_addr) {
  sim_->set_vantage_capture(capture_addr_, member_hosts);
  members_.reserve(member_hosts.size());
  for (std::size_t j = 0; j < member_hosts.size(); ++j) {
    members_.push_back(std::make_unique<CaptureVantage>(
        *this, member_hosts[j], static_cast<std::uint32_t>(j)));
  }
}

VantageSet::~VantageSet() { sim_->clear_vantage_capture(); }

void VantageSet::start(const std::vector<util::Ipv4>& targets) {
  plan_ = VantagePlan::build(*sim_, cfg_, targets);
  const util::SimTime t0 = sim_->now();
  std::unordered_map<netsim::HostId, std::uint32_t> member_of_host;
  for (std::uint32_t j = 0; j < members_.size(); ++j) {
    member_of_host.emplace(members_[j]->host(), j);
  }
  const auto& net = sim_->net();
  probes_.reserve(probes_.size() + plan_.original_count());
  sender_.reserve(sender_.size() + plan_.original_count());
  for (std::size_t i = 0; i < plan_.probes().size(); ++i) {
    const PlannedProbe& p = plan_.probes()[i];
    // Retransmission entries (attempt > 0) reuse their original's
    // (port, txid) tuple and target, so they add sends but no probe
    // rows: the original row represents the transaction.
    if (p.attempt == 0) {
      probes_.push_back(SentProbe{p.target, p.src_port, p.txid, t0 + p.at});
    }
    // Shard-local pacing: the member pinned to the shard that owns the
    // probed target paces and injects the probe, so the probe leg and
    // its direct response never cross the shard fabric. Targets without
    // a unicast owner (anycast groups) pace from the shard-0 member.
    // Retries share the original's target, hence the same member.
    const netsim::HostId owner_host = net.unicast_owner(p.target);
    const std::uint32_t shard =
        owner_host == netsim::kInvalidHost ? 0 : sim_->shard_of(owner_host);
    const netsim::HostId member_host = sim_->vantage_member_for_shard(shard);
    const std::uint32_t member = member_of_host.at(member_host);
    if (p.attempt == 0) sender_.push_back(member);
    sim_->schedule_timer_on(member_host, p.at, members_[member].get(), i);
  }
  // Timers fire at exactly their planned instants, so the last send
  // lands at the last plan offset (start time for an empty plan).
  last_send_at_ = plan_.probes().empty() ? t0 : t0 + plan_.last_at();
}

void VantageSet::run_to_completion() {
  // Drain all traffic, close the timeout window after the last planned
  // send, then settle stragglers.
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.timeout + cfg_.drain_settle);
  sim_->run();
}

const std::vector<RawResponse>& VantageSet::capture_of(
    std::size_t vantage) const {
  return members_[vantage]->capture();
}

ScannerStats VantageSet::stats() const {
  ScannerStats agg = correlate_stats_;
  for (const auto& m : members_) agg += m->stats();
  return agg;
}

void VantageSet::attribute(std::size_t probe, Transaction& txn) const {
  if (!txn.answered) txn.vantage = sender_[probe];
}

std::vector<Transaction> VantageSet::correlate() {
  // The streaming protocol with a single flush: every buffered record
  // lies before the far-future watermark.
  StreamingCorrelator corr(probes_, cfg_.timeout, correlate_stats_,
                           cfg_.retry_extension());
  StreamStats st;
  flush_capture(util::SimTime::far_future(), corr, st);
  std::vector<Transaction> out;
  out.reserve(probes_.size());
  corr.finish([&](std::size_t i, Transaction&& txn) {
    attribute(i, txn);
    out.push_back(std::move(txn));
  });
  return out;
}

void VantageSet::flush_capture(util::SimTime cutoff, StreamingCorrelator& corr,
                               StreamStats& st) {
  const std::size_t k = members_.size();
  // Windowed k-way merge: the concatenation of per-window merges equals
  // the full (time, vantage, seq) merge, because every record in one
  // flush precedes every record of the next (cutoffs are nondecreasing
  // and the buffers are time-ordered).
  std::vector<std::size_t> pos(k, 0);
  while (true) {
    std::size_t best = k;
    std::int64_t best_at = 0;
    for (std::size_t v = 0; v < k; ++v) {
      const auto& buf = members_[v]->capture();
      if (pos[v] >= buf.size()) continue;
      const std::int64_t at = buf[pos[v]].at.nanos();
      if (at > cutoff.nanos()) continue;  // time-ordered: buffer done
      if (best == k || at < best_at) {
        best = v;
        best_at = at;
      }
    }
    if (best == k) break;
    corr.consume(std::move(members_[best]->mutable_capture()[pos[best]]));
    ++pos[best];
  }
  for (std::size_t v = 0; v < k; ++v) {
    auto& buf = members_[v]->mutable_capture();
    st.peak_buffered_records = std::max(st.peak_buffered_records, buf.size());
    buf.erase(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(pos[v]));
  }
}

VantageSet::StreamStats VantageSet::run_and_correlate_streaming(
    util::Duration flush_interval, const TxnSink& sink) {
  if (flush_interval <= util::Duration::nanos(0)) {
    throw std::invalid_argument(
        "run_and_correlate_streaming: flush interval must be positive");
  }
  StreamingCorrelator corr(probes_, cfg_.timeout, correlate_stats_,
                           cfg_.retry_extension());
  StreamStats st;
  st.dense_lookup = corr.dense_lookup();
  const TxnSink wrapped = [&](std::size_t i, Transaction&& txn) {
    attribute(i, txn);
    sink(i, std::move(txn));
  };
  // Same event set and order as run_to_completion(), partitioned into
  // flush windows: all traffic up to the post-timeout horizon, then a
  // final drain for stragglers (which are late by construction).
  const util::SimTime horizon =
      last_send_at_ + cfg_.timeout + cfg_.drain_settle;
  util::SimTime cursor = sim_->now();
  while (cursor < horizon) {
    cursor = std::min(cursor + flush_interval, horizon);
    sim_->run_until(cursor);
    flush_capture(cursor, corr, st);
    corr.advance(cursor, wrapped);
    st.peak_pending_probes =
        std::max(st.peak_pending_probes, corr.pending());
    ++st.flushes;
  }
  sim_->run();
  flush_capture(util::SimTime::far_future(), corr, st);
  corr.finish(wrapped);
  st.peak_pending_probes =
      std::max(st.peak_pending_probes, corr.peak_pending());
  return st;
}

}  // namespace odns::scan
