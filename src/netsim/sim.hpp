#pragma once
// Dynamic packet plane on top of Network: UDP sockets, transparent
// port redirects (the mechanism behind transparent forwarders), ICMP
// generation, per-AS source-address validation, loss, and latency.
//
// Hop traversal is computed analytically from the route (one event per
// packet leg, not per router), which keeps Internet-scale scans cheap
// while preserving exact TTL and ICMP semantics.
//
// The simulator executes on 1..N *shards*: each shard owns a typed
// EventQueue, a private route cache, counters and a trace buffer, and
// hosts are partitioned AS-granularly across shards.
// With SimConfig::shards == 1 (the default) everything runs exactly as
// the classic single-threaded engine. With more shards, each shard
// runs on its own worker thread under a conservative time-window
// barrier; cross-shard packets travel through per-shard-pair mail
// vectors and are admitted in the documented (time, shard, seq)
// total order, so an N-shard run is deterministic and its observable
// outputs match the single-shard run. See "Sharded execution" in
// docs/architecture.md and "Cross-shard merge rule" in
// docs/event-engine.md.
//
// The static half (AS graph, routing) lives in network.hpp; the event
// core in event_queue.hpp (scheduler contract: docs/event-engine.md).
// docs/architecture.md walks through how a packet traverses all three.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netsim/event_queue.hpp"
#include "netsim/fault_plane.hpp"
#include "netsim/network.hpp"
#include "netsim/packet.hpp"
#include "netsim/shard_pool.hpp"
#include "util/time.hpp"

namespace odns::netsim {

/// A UDP application bound to a host/port. Implementations receive
/// datagrams and reply through the Simulator reference they were
/// constructed with.
class App {
 public:
  virtual ~App() = default;
  virtual void on_datagram(const Datagram& dgram) = 0;
};

using IcmpHandler = std::function<void(const Packet&)>;

enum class TapEvent : std::uint8_t {
  sent,
  delivered,
  dropped_sav,
  dropped_loss,
  dropped_no_route,
  ttl_expired,
  redirected,
  // Fault-plane events (append-only so recorded traces stay stable).
  dropped_outage,
  jittered,
  reordered,
  duplicated,
  corrupted,
};

struct SimConfig {
  /// Latency of one router hop. Must be positive on a multi-shard
  /// simulator: it is the window length of the conservative barrier.
  util::Duration hop_latency = util::Duration::micros(500);
  double loss_rate = 0.0;
  int default_ttl = 64;
  std::uint64_t seed = 1;

  // --- sharded execution ("Sharded execution", docs/architecture.md) --
  /// Number of event-engine shards. 1 = classic single-threaded run;
  /// more shards run on one worker thread each.
  std::uint32_t shards = 1;

  // --- fault plane ("Fault plane & graceful degradation",
  // docs/architecture.md) --------------------------------------------
  /// Adverse-network fault knobs (jitter, reordering, duplication,
  /// corruption, AS outage windows, rate-limited ICMP unreachable).
  /// All decisions are stateless per-packet hashes under the same
  /// `seed`, so faulted runs stay byte-identical across shard counts;
  /// the all-zero default keeps inject() on the exact classic path.
  FaultConfig faults;
};

struct SimCounters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_sav = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t ttl_expired = 0;
  std::uint64_t icmp_generated = 0;
  std::uint64_t redirected = 0;
  // Fault-plane counters (all zero when SimConfig::faults is inert).
  std::uint64_t dropped_outage = 0;
  std::uint64_t jittered = 0;
  std::uint64_t reordered = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t icmp_unreachable_suppressed = 0;

  friend bool operator==(const SimCounters&, const SimCounters&) = default;
};

/// One built-in packet-trace record. `(at, shard, seq)` is the
/// documented cross-shard total order; the remaining fields identify
/// the packet decision the record observes.
struct TraceRecord {
  std::int64_t at = 0;
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;  // per-shard emission sequence
  TapEvent ev = TapEvent::sent;
  std::uint8_t proto = 0;
  std::int32_t ttl = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Per-shard execution statistics (sharded runs).
struct ShardStats {
  std::uint64_t events_executed = 0;
  /// Cross-shard messages this shard admitted at window barriers.
  std::uint64_t mailbox_in = 0;
  /// Always 0: mail vectors grow and never spill. Kept so report
  /// readers that print it stay source-compatible.
  std::uint64_t mailbox_overflows = 0;
  /// CPU seconds this shard spent executing windows + admissions —
  /// max over shards approximates the parallel critical path.
  double busy_seconds = 0.0;
};

struct SendOptions {
  util::Ipv4 dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::vector<std::uint8_t> payload;
  /// When set, the datagram leaves with this (possibly spoofed) source
  /// address; subject to the origin AS's SAV policy.
  std::optional<util::Ipv4> spoof_src;
  std::optional<int> ttl;
};

class Simulator {
 public:
  /// Throws std::invalid_argument when `cfg.shards > 1` and
  /// `cfg.hop_latency` is not positive (the window barrier could never
  /// advance).
  explicit Simulator(SimConfig cfg = {});
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Network& net() { return net_; }
  const Network& net() const { return net_; }

  /// Current simulated time: the executing shard's clock from inside a
  /// handler; the (synchronized) global clock from outside a run.
  [[nodiscard]] util::SimTime now() const;
  /// Typed, allocation-free timer: fires target->on_timer(a, b) after
  /// `delay`. The argument words are the target's to interpret. Shard
  /// affinity: the executing shard from inside a handler, shard 0 from
  /// outside.
  void schedule_timer(util::Duration delay, TimerTarget* target,
                      std::uint64_t a, std::uint64_t b = 0);
  /// Shard-affine timer: schedules on the shard owning `affinity`, so
  /// the target fires on the thread that owns its host state. Required
  /// for timers armed from outside the event loop (stream connect)
  /// when shards > 1; equivalent to schedule_timer when shards == 1.
  void schedule_timer_on(HostId affinity, util::Duration delay,
                         TimerTarget* target, std::uint64_t a,
                         std::uint64_t b = 0);
  /// Timer run on the shard owning `affinity`
  /// (EventQueue::schedule_timer_run): the batch form of
  /// schedule_timer_on for pacers that arm every probe before the run.
  /// Entry times are absolute; outside a run every shard clock reads
  /// now(). A run stands for single calls on one queue, so build one
  /// per shard, in the order those calls would have been made.
  void schedule_timer_run_on(HostId affinity, TimerTarget* target,
                             std::vector<TimerRunEntry> entries);
  /// Runs until no events remain (or deadline passes).
  void run();
  void run_until(util::SimTime deadline);
  void run_for(util::Duration d) { run_until(now() + d); }

  /// Swaps the fault-plane configuration (SimConfig::faults) between
  /// runs: the sweep lever for chaos differentials, and the only way
  /// to schedule outage windows for ASes discovered after world
  /// construction. Call with no events pending — mid-run swaps would
  /// change in-flight decisions.
  void set_fault_config(const FaultConfig& faults);
  [[nodiscard]] const FaultPlane& fault_plane() const { return faults_; }

  // --- sharding ------------------------------------------------------
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Shard owning a host (AS-granular partition; freezes the partition
  /// on first use, lazily refreshed when the topology epoch moves).
  /// Throws std::out_of_range for a host the network does not have.
  [[nodiscard]] std::uint32_t shard_of(HostId host);
  /// Shard-count-independent partition group of an address's owner AS
  /// (see kVirtualShards): target lists interleaved by virtual shard
  /// keep every real shard busy for any real shard count without
  /// changing the probe order between shard counts.
  [[nodiscard]] std::uint32_t virtual_shard_of(util::Ipv4 addr) const;
  /// Same partition group, keyed by the owning AS directly — lets bulk
  /// world builders group hosts they are creating without paying (or
  /// forcing an early freeze of) the addr→host lookup per address.
  [[nodiscard]] std::uint32_t virtual_shard_of_as(Asn asn) const;
  [[nodiscard]] const ShardStats& shard_stats(std::uint32_t shard) const;
  [[nodiscard]] const SimCounters& shard_counters(std::uint32_t shard) const;
  [[nodiscard]] const RouteCacheStats& shard_route_cache_stats(
      std::uint32_t shard) const;

  /// Hosts/ASes are partitioned into this many *virtual* shards, which
  /// map onto real shards by modulo (or by the weighted assignment
  /// below). The virtual partition is shard-count-independent, so
  /// workload-partitioning decisions keyed on it (scanner target
  /// interleaving) produce identical event content for every real
  /// shard count.
  static constexpr std::uint32_t kVirtualShards = 64;

  /// Weighted virtual-shard partition: `weights[v]` is the expected
  /// event load of virtual shard `v` (e.g. its probe-target count).
  /// The 64 virtual shards are then placed onto real shards by
  /// deterministic LPT greedy (heaviest first onto the least-loaded
  /// real shard; ties by lowest index) instead of round-robin modulo.
  /// This only moves *execution* — the virtual partition, and with it
  /// the probe order and every observable result, is unchanged for any
  /// weighting. Equal (or empty) weights reproduce the classic modulo
  /// placement. Call between runs only; the next run re-freezes the
  /// partition.
  void set_partition_load_hints(std::vector<std::uint64_t> weights);

  // --- multi-vantage capture ----------------------------------------
  /// Registers a vantage capture set ("Multi-vantage census",
  /// docs/architecture.md): packets routed to `capture_addr`'s owning
  /// host are instead delivered to the member pinned to the *emitting*
  /// shard, so responses never cross the shard fabric. Member `j`'s AS
  /// is pinned to real shard `j % shards`; with `members.size() >=
  /// shards` every shard captures locally. Routing (hop count, delivery
  /// time, TTL) is still computed against the capture address's owning
  /// host, so traces stay byte-identical to the single-vantage run.
  /// Call between runs only. Throws std::invalid_argument when
  /// `members` is empty or `capture_addr` has no unicast owner.
  void set_vantage_capture(util::Ipv4 capture_addr,
                           std::vector<HostId> members);
  void clear_vantage_capture();
  [[nodiscard]] bool vantage_capture_active() const {
    return vantage_capture_host_ != kInvalidHost;
  }
  /// Member host that captures traffic emitted by `shard`.
  [[nodiscard]] HostId vantage_member_for_shard(std::uint32_t shard) const {
    return vantage_member_for_shard_[shard];
  }

  // --- socket API ----------------------------------------------------
  /// The binding, ICMP-handler and redirect setters throw
  /// std::out_of_range for a host the network does not have; bind_udp
  /// throws std::invalid_argument on a null app.
  void bind_udp(HostId host, std::uint16_t port, App* app);
  void unbind_udp(HostId host, std::uint16_t port);
  /// Receives every datagram not claimed by a port-specific binding;
  /// used by the scanner, which owns thousands of ephemeral ports.
  void bind_udp_wildcard(HostId host, App* app);
  void set_icmp_handler(HostId host, IcmpHandler handler);

  /// Installs a transparent forwarding rule: UDP datagrams arriving at
  /// this host for `dst_port` are relayed to `target` with the source
  /// address preserved (IP-level relay: TTL decremented, not reset).
  void add_port_redirect(HostId host, std::uint16_t dst_port,
                         util::Ipv4 target);
  void remove_port_redirect(HostId host, std::uint16_t dst_port);
  [[nodiscard]] std::uint64_t redirect_relays(HostId host) const;

  /// Sends a UDP datagram from `from`. The source defaults to the
  /// host's first address. From inside a handler, must be called on
  /// the shard that owns `from` (apps always are). Throws
  /// std::invalid_argument when `from` has no address.
  void send_udp(HostId from, SendOptions opts);

  // --- built-in packet trace ----------------------------------------
  void set_packet_trace_enabled(bool on) { trace_enabled_ = on; }
  [[nodiscard]] bool packet_trace_enabled() const { return trace_enabled_; }
  /// Bounds each shard's trace buffer: records past the cap are counted
  /// (trace_dropped) instead of stored, so tracing a million-host run
  /// cannot grow memory with run length. 0 restores "unbounded". The
  /// cap truncates observation only — packet decisions are unaffected.
  void set_packet_trace_limit(std::size_t per_shard_cap) {
    trace_limit_ = per_shard_cap == 0 ? SIZE_MAX : per_shard_cap;
  }
  /// Records suppressed by the per-shard cap, summed over shards.
  [[nodiscard]] std::uint64_t trace_dropped() const;
  [[nodiscard]] const std::vector<TraceRecord>& shard_trace(
      std::uint32_t shard) const;
  /// All shards' records merged in the documented (time, shard, seq)
  /// total order. Deterministic for a fixed shard count.
  [[nodiscard]] std::vector<TraceRecord> merged_trace() const;
  /// Content-canonical digest: records sorted by (time, packet
  /// content) with shard/seq excluded, then FNV-hashed. Two runs of
  /// the same workload produce equal digests iff they made the same
  /// packet decisions at the same times — the shard-count-invariant
  /// comparison the determinism suite is built on.
  [[nodiscard]] std::uint64_t canonical_trace_digest() const;

  [[nodiscard]] const SimCounters& counters() const;
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t events_executed() const;

 private:
  struct Shard;
  friend struct Shard;

  struct Redirect {
    util::Ipv4 target;
    std::uint64_t relays = 0;
  };
  /// Overflow state for the rare hosts that need more than the inline
  /// slots below: multi-port bindings, multiple redirects, or an ICMP
  /// handler (scanners, vantage members, DNSRoute++ probes). At
  /// Internet-census scale ~all of a million hosts are one-socket or
  /// one-redirect devices, so the common case stays heap-free.
  struct HostExtra {
    std::unordered_map<std::uint16_t, App*> sockets;
    std::unordered_map<std::uint16_t, Redirect> redirects;
    IcmpHandler icmp;
  };
  /// Per-host packet-plane state, compact by design: one inline socket
  /// slot, one inline redirect slot, a wildcard pointer, and a lazily
  /// allocated HostExtra for everything else. 48 bytes per host instead
  /// of two hash maps plus a std::function — the dense host_state_
  /// table stays cache-friendly at 10⁶ hosts.
  struct HostState {
    App* app0 = nullptr;  // inline single-port binding
    App* wildcard = nullptr;
    std::unique_ptr<HostExtra> extra;
    util::Ipv4 redirect_target;
    std::uint64_t redirect_relays = 0;
    std::uint16_t app0_port = 0;
    std::uint16_t redirect_port = 0;
    bool has_redirect = false;

    HostExtra& ensure_extra() {
      if (!extra) extra = std::make_unique<HostExtra>();
      return *extra;
    }
    [[nodiscard]] App* find_socket(std::uint16_t port) const {
      if (app0 != nullptr && app0_port == port) return app0;
      if (extra) {
        auto it = extra->sockets.find(port);
        if (it != extra->sockets.end()) return it->second;
      }
      return nullptr;
    }
  };

  /// Grows the dense host-state table on demand and returns the slot.
  /// Sharded runs presize the table at partition freeze, so shard
  /// threads never reallocate it.
  HostState& state(HostId id);
  /// O(1) indexed lookup; nullptr for hosts that never had state set.
  [[nodiscard]] HostState* find_state(HostId id) {
    return id < host_state_.size() ? &host_state_[id] : nullptr;
  }

  [[nodiscard]] bool single_shard() const { return shards_.size() == 1; }
  /// (Re)computes host/AS -> shard maps; idempotent per topology epoch.
  void freeze_partition();
  [[nodiscard]] std::uint32_t shard_of_as(Asn asn) const;
  /// Executing-shard context (set during event execution), or shard 0.
  [[nodiscard]] Shard& active_shard() const;
  /// Conservative window loop on the shard pool; returns with no mail
  /// in flight and every shard clock at one instant (the deadline, or
  /// the latest event).
  void run_windows(util::SimTime deadline);
  /// One window on `sh`: admits the previous window's mail (which ended
  /// at `sent_end`), then executes every event before `wend`, posting
  /// cross-shard mail into the outboxes of window parity `parity`.
  void run_shard_window(Shard& sh, std::uint32_t parity,
                        util::SimTime sent_end, util::SimTime wend);
  /// Schedules the mail the other shards posted toward `sh` in the
  /// outboxes of parity `parity` — source shards in ascending order,
  /// each vector in append order — and clears those vectors. Every
  /// message was posted in the window that ended at `sent_end` and
  /// arrives at or after it (asserted). Runs at the start of `sh`'s
  /// next window, or on the coordinator when the window loop exits.
  void admit_mailboxes(Shard& sh, std::uint32_t parity,
                       util::SimTime sent_end);
  [[nodiscard]] util::SimTime next_event_time() const;

  void emit(Shard& sh, TapEvent ev, const Packet& pkt);
  /// Per-packet loss decision: a hash of (seed, packet identity, time)
  /// — not an RNG stream draw — so the decision is independent of
  /// event interleaving and of the shard count. Byte-identical packets
  /// injected at the same instant (synthetic bursts; real traffic
  /// varies ports/txids) are disambiguated by a per-origin-AS burst
  /// counter, which is shard-safe because an AS is owned by exactly
  /// one shard.
  [[nodiscard]] bool loss_drop(Asn origin_as, const Packet& pkt,
                               util::SimTime at);
  /// Injects a packet into the network from `origin_as` on shard `sh`
  /// (which must own the origin). `from_router` marks infrastructure-
  /// originated traffic (ICMP), which is exempt from SAV.
  void inject(Shard& sh, Packet pkt, Asn origin_as, bool from_router);
  void deliver(Shard& sh, Packet pkt, HostId host);
  void send_icmp(Shard& sh, IcmpType type, util::Ipv4 from,
                 const Packet& offender, Asn origin_as);
  /// Routes a packet-plane event to its owning shard: locally when
  /// `sh` owns it, else through the mail vector toward `dst_shard`.
  void schedule_deliver_on(Shard& sh, std::uint32_t dst_shard,
                           util::SimTime at, Packet&& pkt, HostId host);
  void schedule_icmp_on(Shard& sh, std::uint32_t dst_shard, util::SimTime at,
                        IcmpType type, Packet&& offender, util::Ipv4 router,
                        Asn origin_as);

  static thread_local Shard* tl_shard_;
  static thread_local const Simulator* tl_owner_;

  SimConfig cfg_;
  Network net_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardPool pool_;
  // Dense per-host state indexed by HostId (host ids are allocated
  // contiguously by Network::add_host), so deliver() and the redirect
  // path index in O(1) instead of hashing per packet. Each host's
  // state is only ever touched by the shard that owns the host.
  std::vector<HostState> host_state_;
  /// Identical-duplicate disambiguation for loss_drop, indexed by AS
  /// index (each slot written only by the AS's owning shard). Presized
  /// at partition freeze for sharded runs. `seen` counts occurrences
  /// per content hash within the current nanosecond, so the fates
  /// drawn at one instant are a pure function of the packet multiset —
  /// independent of the order same-instant packets interleave in.
  struct LossBurst {
    std::int64_t at = -1;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;
  };
  std::vector<LossBurst> loss_burst_;
  /// Adverse-network decisions (stateless hashes + per-AS unreachable
  /// buckets, each touched only by the AS's owning shard).
  FaultPlane faults_;
  bool trace_enabled_ = false;
  std::size_t trace_limit_ = SIZE_MAX;  // per shard
  // Partition maps, valid while partition_epoch_ == net_.topology_epoch().
  std::vector<std::uint32_t> host_shard_;
  std::vector<std::uint32_t> as_shard_;  // by AS index
  std::uint64_t partition_epoch_ = 0;
  /// Expected load per virtual shard (set_partition_load_hints); empty
  /// = unweighted modulo placement.
  std::vector<std::uint64_t> partition_load_hints_;
  // Vantage capture set (set_vantage_capture). The capture-host
  // sentinel keeps the inject() fast path to one compare when no set
  // is registered.
  HostId vantage_capture_host_ = kInvalidHost;
  std::vector<HostId> vantage_members_;
  std::vector<HostId> vantage_member_for_shard_;  // by real shard
  mutable SimCounters agg_counters_;
};

}  // namespace odns::netsim
