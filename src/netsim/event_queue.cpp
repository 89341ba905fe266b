#include "netsim/event_queue.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace odns::netsim {

// --- calendar buckets ------------------------------------------------

std::uint32_t EventQueue::bucket_for(std::int64_t at_nanos) {
  CacheEntry& ce = tcache_[cache_slot(at_nanos)];
  if (ce.at == at_nanos) return ce.bucket;
  std::uint32_t bidx;
  if (free_bucket_head_ != kNilIndex) {
    bidx = free_bucket_head_;
    free_bucket_head_ = buckets_[bidx].next_free;
  } else {
    bidx = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  Bucket& b = buckets_[bidx];
  b.at_nanos = at_nanos;
  b.head = 0;
  // Keyed by (at, seq of the bucket's first event): a cohort split by
  // cache eviction drains its buckets in creation = sequence order.
  time_heap_.push_back(TimeRef{at_nanos, next_seq_, bidx});
  std::push_heap(time_heap_.begin(), time_heap_.end(), TimeLater{});
  ce.at = at_nanos;
  ce.bucket = bidx;
  return bidx;
}

void EventQueue::retire_top_bucket() {
  const TimeRef top = time_heap_.front();
  std::pop_heap(time_heap_.begin(), time_heap_.end(), TimeLater{});
  time_heap_.pop_back();
  Bucket& b = buckets_[top.bucket];
  // Precise cache invalidation: the only cache slot that can reference
  // this bucket is the one keyed by its timestamp. Without this, a
  // later schedule at the same timestamp could append to a recycled
  // bucket.
  CacheEntry& ce = tcache_[cache_slot(b.at_nanos)];
  if (ce.at == b.at_nanos && ce.bucket == top.bucket) ce.at = kEmptyKey;
  b.items.clear();  // capacity retained for the next timestamp
  b.head = 0;
  b.next_free = free_bucket_head_;
  free_bucket_head_ = top.bucket;
}

// --- event pools -----------------------------------------------------

EventQueue::PacketEvent& EventQueue::acquire_packet(util::SimTime at,
                                                    Kind kind) {
  at = clamp(at);
  std::uint32_t slot;
  if (packet_free_head_ != kNilIndex) {
    slot = packet_free_head_;
    packet_free_head_ = packet_pool_[slot].next_free;
    --free_count_;
  } else {
    slot = static_cast<std::uint32_t>(packet_pool_.size());
    packet_pool_.emplace_back();
  }
  buckets_[bucket_for(at.nanos())].items.push_back(pack_item(kind, slot));
  ++next_seq_;
  return packet_pool_[slot];
}

EventQueue::TimerEvent& EventQueue::acquire_timer(util::SimTime at) {
  at = clamp(at);
  std::uint32_t slot;
  if (timer_free_head_ != kNilIndex) {
    slot = timer_free_head_;
    timer_free_head_ = timer_pool_[slot].next_free;
    --free_count_;
  } else {
    slot = static_cast<std::uint32_t>(timer_pool_.size());
    timer_pool_.emplace_back();
  }
  buckets_[bucket_for(at.nanos())].items.push_back(
      pack_item(Kind::timer, slot));
  ++next_seq_;
  return timer_pool_[slot];
}

void EventQueue::release_packet(std::uint32_t slot) {
  packet_pool_[slot].next_free = packet_free_head_;
  packet_free_head_ = slot;
  ++free_count_;
}

void EventQueue::release_timer(std::uint32_t slot) {
  TimerEvent& ev = timer_pool_[slot];
  ev.timer = nullptr;
  ev.next_free = timer_free_head_;
  timer_free_head_ = slot;
  ++free_count_;
}

// --- scheduling ------------------------------------------------------

void EventQueue::schedule_deliver(util::SimTime at, Packet&& pkt,
                                  HostId host) {
  PacketEvent& ev = acquire_packet(at, Kind::deliver);
  ev.pkt = std::move(pkt);
  ev.dst_host = host;
}

void EventQueue::schedule_icmp(util::SimTime at, IcmpType type,
                               Packet&& offender, util::Ipv4 router,
                               Asn origin_as) {
  PacketEvent& ev = acquire_packet(at, Kind::icmp);
  ev.icmp_type = type;
  ev.pkt = std::move(offender);
  ev.router = router;
  ev.origin_as = origin_as;
}

void EventQueue::schedule_timer(util::SimTime at, TimerTarget* target,
                                std::uint64_t a, std::uint64_t b) {
  if (target == nullptr) {
    throw std::invalid_argument("schedule_timer: null target");
  }
  TimerEvent& ev = acquire_timer(at);
  ev.timer = target;
  ev.arg_a = a;
  ev.arg_b = b;
}

void EventQueue::schedule_timer_run(TimerTarget* target,
                                    std::vector<TimerRunEntry> entries) {
  if (target == nullptr) {
    throw std::invalid_argument("schedule_timer_run: null target");
  }
  if (entries.empty()) return;
  const auto by_time = [](const TimerRunEntry& x, const TimerRunEntry& y) {
    return x.at < y.at;
  };
  std::vector<std::uint32_t> order;
  for (auto& e : entries) e.at = clamp(e.at);
  if (!std::is_sorted(entries.begin(), entries.end(), by_time)) {
    // Stable: entries at one instant keep their schedule (= seq) order.
    order.resize(entries.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return by_time(entries[x], entries[y]);
                     });
    std::vector<TimerRunEntry> sorted;
    sorted.reserve(entries.size());
    for (const std::uint32_t i : order) sorted.push_back(entries[i]);
    entries = std::move(sorted);
  }
  std::uint32_t ridx;
  if (free_run_head_ != kNilIndex) {
    ridx = free_run_head_;
    free_run_head_ = runs_[ridx].next_free;
  } else {
    ridx = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
  }
  TimerRun& run = runs_[ridx];
  run.target = target;
  run.entries = std::move(entries);
  run.order = std::move(order);
  run.seq_base = next_seq_;
  run.head = 0;
  next_seq_ += run.entries.size();
  // A bucket still open at one of the run's instants would take events
  // scheduled after the run ahead of the run's entries there. Closing
  // every cached bucket makes such events open a later-seq bucket,
  // which orders behind the run, as behind N single timers.
  tcache_.fill(CacheEntry{});
  time_heap_.push_back(
      TimeRef{run.entries.front().at.nanos(), run.seq_of(0), kRunRef | ridx});
  std::push_heap(time_heap_.begin(), time_heap_.end(), TimeLater{});
}

// --- execution -------------------------------------------------------

void EventQueue::step_run(const TimeRef top) {
  const std::uint32_t ridx = top.bucket & ~kRunRef;
  TimerRun& run = runs_[ridx];
  const TimerRunEntry e = run.entries[run.head++];
  TimerTarget* target = run.target;
  now_ = util::SimTime::from_nanos(top.at);
  if (run.head == run.entries.size()) {
    std::pop_heap(time_heap_.begin(), time_heap_.end(), TimeLater{});
    time_heap_.pop_back();
    run.target = nullptr;
    run.entries = {};  // drained: the storage goes back
    run.order = {};
    run.next_free = free_run_head_;
    free_run_head_ = ridx;
  } else {
    time_heap_.front() = TimeRef{run.entries[run.head].at.nanos(),
                                 run.seq_of(run.head), top.bucket};
    sift_down_front();
  }
  ++executed_;
  // As for a single timer: the run is re-keyed (or freed) before the
  // handler runs, which may schedule further runs and move runs_.
  target->on_timer(e.a, e.b);
}

void EventQueue::sift_down_front() {
  // A paced run's next entry usually stays near the top (pacing gaps
  // are shorter than packet latencies), so this stops within a level
  // or two where pop_heap + push_heap would cross the heap twice.
  const std::size_t n = time_heap_.size();
  const TimeRef moved = time_heap_.front();
  std::size_t i = 0;
  for (std::size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n &&
        TimeLater{}(time_heap_[child], time_heap_[child + 1])) {
      ++child;  // the earlier of the two children
    }
    if (!TimeLater{}(moved, time_heap_[child])) break;
    time_heap_[i] = time_heap_[child];
    i = child;
  }
  time_heap_[i] = moved;
}

void EventQueue::step() {
  const TimeRef top = time_heap_.front();
  if ((top.bucket & kRunRef) != 0) {
    step_run(top);
    return;
  }
  Bucket& b = buckets_[top.bucket];
  const std::uint32_t item = b.items[b.head++];
  now_ = util::SimTime::from_nanos(top.at);
  // Retire the bucket before dispatch: the handler may schedule at
  // this same timestamp, which then starts a fresh bucket (correctly
  // ordered after everything the old one held).
  if (b.head == b.items.size()) retire_top_bucket();
  ++executed_;
  // Move the payload out and free the slot BEFORE invoking the handler:
  // handlers schedule new events, which may grow the pool and would
  // invalidate any reference still held into it.
  const std::uint32_t slot = item & 0x3FFFFFFFu;
  const Kind kind = static_cast<Kind>(item >> 30);
  if (kind == Kind::deliver) {
    PacketEvent& ev = packet_pool_[slot];
    Packet pkt = std::move(ev.pkt);
    const HostId host = ev.dst_host;
    release_packet(slot);
    sink_->deliver_event(std::move(pkt), host);
    return;
  }
  if (kind == Kind::icmp) {
    PacketEvent& ev = packet_pool_[slot];
    Packet offender = std::move(ev.pkt);
    const IcmpType type = ev.icmp_type;
    const util::Ipv4 router = ev.router;
    const Asn origin_as = ev.origin_as;
    release_packet(slot);
    sink_->icmp_event(type, std::move(offender), router, origin_as);
    return;
  }
  TimerEvent& ev = timer_pool_[slot];
  TimerTarget* target = ev.timer;
  const auto arg_a = ev.arg_a;
  const auto arg_b = ev.arg_b;
  release_timer(slot);
  target->on_timer(arg_a, arg_b);
}

std::uint64_t EventQueue::run_before(util::SimTime end) {
  std::uint64_t n = 0;
  while (!empty() && peek_at() < end) {
    step();
    ++n;
  }
  return n;
}

std::uint64_t EventQueue::run(util::SimTime deadline) {
  std::uint64_t n = 0;
  while (!empty() && peek_at() <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline && deadline < util::SimTime::far_future()) {
    // The clock advances to an explicit deadline (remaining events are
    // all scheduled later), so timeout logic keyed on now() behaves
    // deterministically.
    now_ = deadline;
  }
  return n;
}

}  // namespace odns::netsim
