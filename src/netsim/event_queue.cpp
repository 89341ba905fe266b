#include "netsim/event_queue.hpp"

#include <algorithm>
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

// --- execution -------------------------------------------------------

void EventQueue::step() {
  const TimeRef top = time_heap_.front();
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
