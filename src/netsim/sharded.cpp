// Sharded execution runtime of the Simulator: AS-granular partition,
// the conservative time-window loop (one pool barrier per window,
// mail admitted at the start of the destination's next window), and the
// (time, shard, seq) trace merge. The protocol (window length,
// window safety argument, admission order) is documented in
// docs/event-engine.md, "Cross-shard merge rule"; the architecture
// walk-through lives in docs/architecture.md, "Sharded execution".

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <ctime>
#include <stdexcept>
#include <string>

#include "netsim/shard_state.hpp"
#include "netsim/sim.hpp"
#include "util/hash.hpp"

namespace odns::netsim {

namespace {

/// CPU seconds consumed by the calling thread: per-shard busy time
/// that is meaningful even when shards are time-sliced onto fewer
/// cores (max over shards = the parallel critical path).
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Simulator::freeze_partition() {
  // Shard threads only read the routing tables: build them here.
  net_.freeze_routing();
  if (partition_epoch_ == net_.topology_epoch() &&
      host_shard_.size() == net_.host_count()) {
    return;
  }
  const auto n = shard_count();
  // AS-granular partition through a shard-count-independent virtual
  // layer: AS index -> virtual shard (mod kVirtualShards) -> real
  // shard. Virtual shards place onto real shards round-robin, or — when
  // load hints are set — by LPT greedy (heaviest virtual shard first
  // onto the least-loaded real shard, ties by lowest index), which
  // balances expected event load instead of AS counts. Placement is a
  // pure execution decision: the virtual partition, and with it every
  // observable output, is identical for any weighting. Adding
  // ASes/hosts never reassigns existing ones (indices are append-only),
  // so a lazy re-freeze only extends.
  std::array<std::uint32_t, kVirtualShards> virt_to_real;
  std::vector<std::uint64_t> load(n, 0);
  if (partition_load_hints_.empty() || n == 1) {
    for (std::uint32_t v = 0; v < kVirtualShards; ++v) {
      virt_to_real[v] = v % n;
      ++load[v % n];
    }
  } else {
    std::array<std::uint32_t, kVirtualShards> order;
    for (std::uint32_t v = 0; v < kVirtualShards; ++v) order[v] = v;
    const auto weight = [&](std::uint32_t v) {
      return v < partition_load_hints_.size() ? partition_load_hints_[v]
                                              : std::uint64_t{0};
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return weight(a) > weight(b);
                     });
    for (const std::uint32_t v : order) {
      std::uint32_t best = 0;
      for (std::uint32_t s = 1; s < n; ++s) {
        if (load[s] < load[best]) best = s;
      }
      virt_to_real[v] = best;
      // Count zero-weight virtual shards as one unit so they still
      // spread instead of piling onto one real shard.
      load[best] += std::max<std::uint64_t>(weight(v), 1);
    }
  }
  as_shard_.resize(net_.as_count());
  for (std::size_t i = 0; i < as_shard_.size(); ++i) {
    as_shard_[i] = virt_to_real[i % kVirtualShards];
  }
  // Vantage capture members override the virtual layer: member j's AS
  // is pinned to the j-th *lightest* real shard (partition load order,
  // ties by lowest index), and the shard→member capture table is
  // rebuilt to match, so the member that shard s's capture traffic is
  // handed to still executes on shard s itself whenever the member
  // count covers the shard count. Capture members are pure sinks —
  // which member absorbs which shard's stream is unobservable — so the
  // light-shard preference is execution-only; it just keeps the
  // capture load off whatever shard the weighted LPT already loaded
  // up. Each member AS holds only its capture host, so the pin moves
  // no other state.
  if (!vantage_members_.empty()) {
    std::vector<std::uint32_t> light(n);
    for (std::uint32_t s = 0; s < n; ++s) light[s] = s;
    std::stable_sort(light.begin(), light.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return load[a] < load[b];
                     });
    vantage_member_for_shard_.resize(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      vantage_member_for_shard_[light[r]] =
          vantage_members_[r % vantage_members_.size()];
    }
    for (std::size_t j = 0; j < vantage_members_.size(); ++j) {
      const Asn member_as = net_.host(vantage_members_[j]).asn;
      as_shard_[net_.as_index(member_as)] =
          light[j % n];
    }
  }
  host_shard_.resize(net_.host_count());
  for (std::size_t h = 0; h < host_shard_.size(); ++h) {
    host_shard_[h] =
        as_shard_[net_.as_index(net_.host(static_cast<HostId>(h)).asn)];
  }
  if (!single_shard()) {
    // Presize so shard threads never reallocate the dense tables; the
    // partition guarantees disjoint per-shard slot access.
    if (host_state_.size() < net_.host_count()) {
      host_state_.resize(net_.host_count());
    }
    if (loss_burst_.size() < net_.as_count()) {
      loss_burst_.resize(net_.as_count());
    }
    if (faults_.active()) {
      faults_.resize_buckets(net_.as_count());
    }
  }
  partition_epoch_ = net_.topology_epoch();
}

std::uint32_t Simulator::shard_of(HostId host) {
  if (host >= net_.host_count()) {
    throw std::out_of_range("shard_of: unknown host " + std::to_string(host));
  }
  if (single_shard()) return 0;
  freeze_partition();
  return host_shard_[host];
}

std::uint32_t Simulator::shard_of_as(Asn asn) const {
  return as_shard_[net_.as_index(asn)];
}

std::uint32_t Simulator::virtual_shard_of(util::Ipv4 addr) const {
  const HostId h = net_.unicast_owner(addr);
  if (h == kInvalidHost) return 0;
  return virtual_shard_of_as(net_.host(h).asn);
}

std::uint32_t Simulator::virtual_shard_of_as(Asn asn) const {
  return static_cast<std::uint32_t>(net_.as_index(asn) % kVirtualShards);
}

const ShardStats& Simulator::shard_stats(std::uint32_t shard) const {
  return shards_[shard]->stats;
}

const SimCounters& Simulator::shard_counters(std::uint32_t shard) const {
  return shards_[shard]->counters;
}

const RouteCacheStats& Simulator::shard_route_cache_stats(
    std::uint32_t shard) const {
  return shards_[shard]->route_cache.stats;
}

const std::vector<TraceRecord>& Simulator::shard_trace(
    std::uint32_t shard) const {
  return shards_[shard]->trace;
}

std::uint64_t Simulator::trace_dropped() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->trace_dropped;
  return total;
}

util::SimTime Simulator::next_event_time() const {
  util::SimTime next = util::SimTime::far_future();
  for (const auto& sh : shards_) {
    if (!sh->events.empty()) next = std::min(next, sh->events.next_at());
  }
  return next;
}

void Simulator::run_shard_window(Shard& sh, std::uint32_t parity,
                                 util::SimTime sent_end, util::SimTime wend) {
  const double t0 = thread_cpu_seconds();
  admit_mailboxes(sh, parity ^ 1, sent_end);
  sh.parity = parity;
  sh.outbox_min = util::SimTime::far_future();
  tl_owner_ = this;
  tl_shard_ = &sh;
  sh.events.run_before(wend);
  tl_shard_ = nullptr;
  tl_owner_ = nullptr;
  sh.stats.busy_seconds += thread_cpu_seconds() - t0;
}

void Simulator::admit_mailboxes(Shard& sh, std::uint32_t parity,
                                [[maybe_unused]] util::SimTime sent_end) {
  // Deterministic admission: source shards in ascending order, each
  // mail vector in append order. Together with fresh local sequence
  // numbers this is the (time, shard, seq) cross-shard total order.
  // The sources appended during the previous window and append to the
  // other parity now, so the pool barrier between the two windows is
  // the only synchronization the vectors need.
  for (std::uint32_t src = 0; src < shards_.size(); ++src) {
    if (src == sh.index) continue;
    std::vector<MailboxMsg>& mail = shards_[src]->outbox[parity][sh.index];
    sh.stats.mailbox_in += mail.size();
    for (MailboxMsg& m : mail) {
      // Window safety: an event before `sent_end` reaches another
      // shard at least one hop latency later, so no arrival may fall
      // inside the window it was sent in.
      assert(m.at >= sent_end);
      if (m.kind == MailboxMsg::Kind::deliver) {
        sh.events.schedule_deliver(m.at, std::move(m.pkt), m.dst_host);
      } else {
        sh.events.schedule_icmp(m.at, m.icmp_type, std::move(m.pkt), m.router,
                                m.origin_as);
      }
    }
    mail.clear();
  }
}

void Simulator::run_windows(util::SimTime deadline) {
  freeze_partition();
  // The window is one router hop, the minimum cross-shard latency
  // (shards split the world AS-granularly). Positive: the constructor
  // rejects a sharded config without a positive hop latency.
  const util::Duration window = cfg_.hop_latency;
  const bool explicit_deadline = deadline < util::SimTime::far_future();
  pool_.ensure_started(shard_count());

  // The phase closure is built once per run and preinstalled in the
  // pool; each window only writes the locals below and bumps the pool
  // generation (no allocation, no locking — see shard_pool.hpp).
  // Workers read them after the barrier's acquire, so plain writes are
  // safe. Mail posted in a window of parity p waits in the parity-p
  // outboxes until its destination admits it at the start of the next
  // window, so one barrier per window orders every mail vector.
  std::uint32_t parity = 0;
  util::SimTime sent_end = util::SimTime::origin();
  util::SimTime wend = util::SimTime::origin();
  const ShardPool::PhaseFn window_phase = [&](std::uint32_t s) {
    run_shard_window(*shards_[s], parity, sent_end, wend);
  };
  pool_.install_phase(&window_phase);

  // No mail is in flight between runs, so the queues alone give the
  // first window's start.
  util::SimTime next = next_event_time();
  while (next != util::SimTime::far_future() && next <= deadline) {
    // Window [next, wend): every event executed inside it lies at
    // least `window` (= min cross-shard latency) before any cross-
    // shard arrival it can generate, so arrivals always land at or
    // after wend and admission at the next window's start is
    // conservative-safe.
    wend = next + window;
    if (explicit_deadline) {
      wend = std::min(wend,
                      util::SimTime::from_nanos(deadline.nanos()) +
                          util::Duration::nanos(1));
    }
    pool_.run_phase();
    sent_end = wend;
    parity ^= 1;
    // The next window starts at the earliest pending event, queued or
    // still in a mail vector.
    next = next_event_time();
    for (const auto& sh : shards_) next = std::min(next, sh->outbox_min);
  }
  pool_.install_phase(nullptr);
  // Mail from the last window arrives past the deadline. Admit it now, in
  // shard order, so nothing stays in flight across the return: events
  // a caller schedules before the next run then sequence after it, as
  // on one shard.
  for (auto& sh : shards_) admit_mailboxes(*sh, parity ^ 1, sent_end);

  // Every shard leaves the run on one clock, as the single-shard
  // engine does: the explicit deadline, or after a drain the latest
  // executed event (no events remain then, so run() only moves the
  // clock). Timers armed from outside a run then start from the
  // global now() on whichever shard owns them.
  util::SimTime end = deadline;
  if (!explicit_deadline) {
    end = util::SimTime::origin();
    for (const auto& sh : shards_) end = std::max(end, sh->events.now());
  }
  for (auto& sh : shards_) {
    sh->events.run(end);
    sh->stats.events_executed = sh->events.executed();
  }
}

std::vector<TraceRecord> Simulator::merged_trace() const {
  std::vector<TraceRecord> out;
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->trace.size();
  out.reserve(total);
  std::vector<std::size_t> pos(shards_.size(), 0);
  // Each per-shard buffer is already time-ordered (events execute in
  // nondecreasing time); a k-way merge on (time, shard) yields the
  // documented (time, shard, seq) total order.
  while (out.size() < total) {
    std::size_t best = shards_.size();
    std::int64_t best_at = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (pos[s] >= shards_[s]->trace.size()) continue;
      const std::int64_t at = shards_[s]->trace[pos[s]].at;
      if (best == shards_.size() || at < best_at) {
        best = s;
        best_at = at;
      }
    }
    out.push_back(shards_[best]->trace[pos[best]++]);
  }
  return out;
}

std::uint64_t Simulator::canonical_trace_digest() const {
  std::vector<TraceRecord> all = merged_trace();
  std::sort(all.begin(), all.end(), [](const TraceRecord& a,
                                       const TraceRecord& b) {
    const auto key = [](const TraceRecord& r) {
      return std::tuple(r.at, static_cast<std::uint8_t>(r.ev), r.proto, r.ttl,
                        r.src, r.dst, r.src_port, r.dst_port);
    };
    return key(a) < key(b);
  });
  std::uint64_t h = util::kFnv1aBasis;
  for (const auto& r : all) {
    h = util::fnv1a64(h, static_cast<std::uint64_t>(r.at));
    h = util::fnv1a64(h, static_cast<std::uint64_t>(r.ev) << 8 | r.proto);
    h = util::fnv1a64(
        h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.ttl)));
    h = util::fnv1a64(h, std::uint64_t{r.src} << 32 | r.dst);
    h = util::fnv1a64(h, std::uint64_t{r.src_port} << 16 | r.dst_port);
  }
  return h;
}

}  // namespace odns::netsim
