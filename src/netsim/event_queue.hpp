#pragma once
// Discrete-event core: an allocation-free typed event engine. Events
// live in kind-segregated slabs with freelist recycling (packet events
// never touch timer storage) and are ordered by a
// bucketed calendar-style queue: a binary min-heap over *bucket* refs
// (one per pending timestamp cohort), each owning a FIFO vector of
// event slots. A small direct-mapped timestamp cache coalesces events
// scheduled for the same instant into a shared bucket, so
// same-timestamp bursts cost O(1) per event instead of O(log n);
// timestamps that never repeat cost one 24-byte heap entry — no worse
// than a plain indexed min-heap. Events execute in exact (time,
// sequence) order, and the per-event hot path performs no heap
// allocation (event slots and bucket vectors are slab-recycled).
//
// The full scheduler contract (total order, tie-breaking, determinism
// guarantees, pool lifetime rules) lives in docs/event-engine.md.

#include <array>
#include <cstdint>
#include <vector>

#include "netsim/packet.hpp"
#include "util/time.hpp"

namespace odns::netsim {

/// Receiver of typed timer events. Implementations interpret the two
/// argument words themselves (connection keys, generations, target
/// indices, ...) — the engine only stores and returns them, so a timer
/// costs two words instead of a heap-allocated closure.
class TimerTarget {
 public:
  virtual ~TimerTarget() = default;
  virtual void on_timer(std::uint64_t a, std::uint64_t b) = 0;
};

/// One timer of a run (EventQueue::schedule_timer_run): fires
/// `target->on_timer(a, b)` at absolute time `at`.
struct TimerRunEntry {
  util::SimTime at;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Packet-plane half of the engine: the Simulator implements this so
/// pooled packet events (delivery, deferred ICMP) dispatch through one
/// virtual call instead of a per-event closure.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void icmp_event(IcmpType type, Packet&& offender,
                          util::Ipv4 router, Asn origin_as) = 0;
  virtual void deliver_event(Packet&& pkt, HostId host) = 0;
};

class EventQueue {
 public:
  /// Wires the packet-plane dispatch target. Must be called before any
  /// schedule_deliver/schedule_icmp event fires (the Simulator does
  /// this in its constructor); timer events need no sink.
  void bind_sink(PacketSink* sink) { sink_ = sink; }

  // --- typed, allocation-free scheduling -----------------------------

  /// Schedules delivery of `pkt` to `host` at absolute time `at`.
  void schedule_deliver(util::SimTime at, Packet&& pkt, HostId host);
  /// Schedules deferred ICMP generation (TTL expiry along a route):
  /// `router` answers `type` about `offender`, originating in
  /// `origin_as`.
  void schedule_icmp(util::SimTime at, IcmpType type, Packet&& offender,
                     util::Ipv4 router, Asn origin_as);
  /// Schedules `target->on_timer(a, b)` at absolute time `at`. Throws
  /// std::invalid_argument on a null target.
  void schedule_timer(util::SimTime at, TimerTarget* target, std::uint64_t a,
                      std::uint64_t b);

  /// Schedules `entries` for `target` as one queue entry: exactly
  /// schedule_timer(e.at, target, e.a, e.b) for each entry in the given
  /// order — every entry takes the sequence number that call would
  /// have taken and a past instant clamps to now() — so the global
  /// (time, seq) order is unchanged, but the run holds one heap entry
  /// and no timer slots however long it is. Throws
  /// std::invalid_argument on a null target; an empty run is a no-op.
  void schedule_timer_run(TimerTarget* target,
                          std::vector<TimerRunEntry> entries);

  [[nodiscard]] bool empty() const { return time_heap_.empty(); }
  [[nodiscard]] util::SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Pool introspection (tests): total slots ever allocated (across
  /// the packet and timer slabs; timer runs take none) and how many of
  /// them are currently free. live events = pool_slots() -
  /// free_slots(); a drained queue recycles all slots, so steady-state
  /// workloads keep pool_slots() at their high-water mark.
  [[nodiscard]] std::size_t pool_slots() const {
    return packet_pool_.size() + timer_pool_.size();
  }
  [[nodiscard]] std::size_t free_slots() const { return free_count_; }

  /// Runs events in (time, sequence) order until the queue drains or
  /// `deadline` is passed. Returns the number of events executed.
  std::uint64_t run(util::SimTime deadline = util::SimTime::far_future());

  /// Window drain for the sharded simulator: runs events strictly
  /// before `end` (exclusive) and stops without touching the clock
  /// otherwise. Unlike run(), never advances now() past the last
  /// executed event — the window loop owns clock advancement policy.
  std::uint64_t run_before(util::SimTime end);

  /// Earliest pending timestamp. Pre: !empty().
  [[nodiscard]] util::SimTime next_at() const { return peek_at(); }

 private:
  enum class Kind : std::uint32_t { deliver = 0, icmp = 1, timer = 2 };

  /// Packet-carrying pooled event (delivery or deferred ICMP). Kept in
  /// its own slab so the hot scan path never touches timer storage.
  struct PacketEvent {
    Packet pkt;
    HostId dst_host = kInvalidHost;
    util::Ipv4 router;
    Asn origin_as = 0;
    IcmpType icmp_type = IcmpType::ttl_exceeded;
    std::uint32_t next_free = kNilIndex;
  };

  struct TimerEvent {
    TimerTarget* timer = nullptr;
    std::uint64_t arg_a = 0;
    std::uint64_t arg_b = 0;
    std::uint32_t next_free = kNilIndex;
  };

  /// A cohort of events pending at one timestamp, in insertion
  /// (= sequence) order. Items carry the event kind in their top bits
  /// and the slab slot below (see pack_item). `head` advances as the
  /// cohort drains; retired buckets keep their vector capacity on a
  /// freelist.
  struct Bucket {
    std::int64_t at_nanos = 0;
    std::size_t head = 0;
    std::uint32_t next_free = kNilIndex;
    std::vector<std::uint32_t> items;  // packed (kind, slot)
  };

  /// Timers of one target, stable-sorted by time; `head` fires next.
  /// Entry i has sequence number seq_base + i, or seq_base + order[i]
  /// when the batch had to be sorted (order[i] = its schedule index).
  struct TimerRun {
    TimerTarget* target = nullptr;
    std::vector<TimerRunEntry> entries;
    std::vector<std::uint32_t> order;
    std::uint64_t seq_base = 0;
    std::size_t head = 0;
    std::uint32_t next_free = kNilIndex;

    [[nodiscard]] std::uint64_t seq_of(std::size_t i) const {
      return seq_base + (order.empty() ? i : order[i]);
    }
  };

  /// What the calendar heap orders: (timestamp, first event's seq).
  /// Several buckets may share a timestamp (cache eviction splits a
  /// cohort); appends only ever reach the *cached* bucket, so every
  /// event in an earlier bucket precedes every event in a later one
  /// and the (at, seq) tie-break restores the exact global order. A
  /// timer run is keyed by its next entry's (at, seq) and tagged with
  /// kRunRef in `bucket`.
  struct TimeRef {
    std::int64_t at = 0;
    std::uint64_t seq = 0;
    std::uint32_t bucket = 0;
  };
  struct TimeLater {
    bool operator()(const TimeRef& a, const TimeRef& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kNilIndex = 0xFFFFFFFFu;
  static constexpr std::uint32_t kRunRef = 0x80000000u;
  /// Cache empty-slot marker; unreachable as a timestamp because
  /// schedule clamps to now() >= 0.
  static constexpr std::int64_t kEmptyKey = INT64_MIN;
  static constexpr std::size_t kCacheSize = 256;  // direct-mapped, 4 KiB

  /// Open bucket per recently seen timestamp. An entry is written at
  /// bucket creation and precisely invalidated at retire, so it can
  /// never resurrect a recycled bucket.
  struct CacheEntry {
    std::int64_t at = kEmptyKey;
    std::uint32_t bucket = 0;
  };

  /// Clamps to "now": events cannot be scheduled in the past, and
  /// zero-delay sends keep FIFO order via bucket append order.
  [[nodiscard]] util::SimTime clamp(util::SimTime at) const {
    return at < now_ ? now_ : at;
  }
  [[nodiscard]] util::SimTime peek_at() const {
    return util::SimTime::from_nanos(time_heap_.front().at);
  }
  [[nodiscard]] static std::size_t cache_slot(std::int64_t at) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(at) * 0x9E3779B97F4A7C15ull) >> 56);
  }
  [[nodiscard]] static std::uint32_t pack_item(Kind kind,
                                               std::uint32_t slot) {
    return (static_cast<std::uint32_t>(kind) << 30) | slot;
  }
  std::uint32_t bucket_for(std::int64_t at_nanos);
  PacketEvent& acquire_packet(util::SimTime at, Kind kind);
  TimerEvent& acquire_timer(util::SimTime at);
  void release_packet(std::uint32_t slot);
  void release_timer(std::uint32_t slot);
  /// Runs the earliest event and advances the clock to its time.
  void step();
  void retire_top_bucket();
  /// step() for a run at the top: fires its head entry, then re-keys
  /// the run to its next entry or frees it.
  void step_run(TimeRef top);
  /// Restores the heap order after the front ref moved later.
  void sift_down_front();

  std::vector<PacketEvent> packet_pool_;
  std::uint32_t packet_free_head_ = kNilIndex;
  std::vector<TimerEvent> timer_pool_;
  std::uint32_t timer_free_head_ = kNilIndex;
  std::size_t free_count_ = 0;

  std::vector<Bucket> buckets_;
  std::uint32_t free_bucket_head_ = kNilIndex;
  std::vector<TimeRef> time_heap_;  // via std::push_heap/pop_heap
  std::array<CacheEntry, kCacheSize> tcache_{};
  std::vector<TimerRun> runs_;
  std::uint32_t free_run_head_ = kNilIndex;

  PacketSink* sink_ = nullptr;
  util::SimTime now_ = util::SimTime::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace odns::netsim
