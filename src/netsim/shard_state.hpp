#pragma once
// Internal definition of Simulator::Shard — the per-shard execution
// context of the (possibly) sharded simulator. Not installed API:
// included only by the netsim implementation files (sim.cpp /
// sharded.cpp). Everything a shard touches per event lives here, so a
// shard thread never writes state owned by another shard:
//
//   * its typed EventQueue (own clock, own sequence space),
//   * its SimCounters and trace buffer,
//   * its private RouteCache (epoch-tagged; see route_cache.hpp),
//   * two sets of outgoing mail vectors, one per window parity, each
//     with one vector per destination shard (cross-shard packet
//     events).
//
// Mail vectors hand events across threads without atomics or locks.
// During a window of parity p the source shard appends to
// outbox[p][dst]; the destination drains and clears those vectors at
// the start of its next window (parity p ^ 1), before it executes,
// while the sources append to outbox[p ^ 1]. So one vector is only
// ever written in one window and read in the next, and the single
// ShardPool barrier between consecutive windows orders every access.

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/event_queue.hpp"
#include "netsim/route_cache.hpp"
#include "netsim/sim.hpp"

namespace odns::netsim {

/// One cross-shard event in flight: either a packet delivery or a
/// deferred ICMP generation, tagged with its absolute arrival time.
struct MailboxMsg {
  enum class Kind : std::uint8_t { deliver, icmp };
  Kind kind = Kind::deliver;
  IcmpType icmp_type = IcmpType::ttl_exceeded;
  util::SimTime at;
  HostId dst_host = kInvalidHost;
  util::Ipv4 router;
  Asn origin_as = 0;
  Packet pkt;
};

struct Simulator::Shard final : private PacketSink {
  Shard(Simulator& sim, std::uint32_t idx, std::uint32_t count)
      : owner(&sim), index(idx) {
    for (auto& set : outbox) set.resize(count);
    events.bind_sink(this);
  }

  /// Appends cross-shard mail for the window being executed.
  void post(std::uint32_t dst_shard, MailboxMsg&& m) {
    outbox_min = std::min(outbox_min, m.at);
    outbox[parity][dst_shard].push_back(std::move(m));
  }

  // PacketSink: pooled packet events dispatch back into the plane on
  // this shard.
  void icmp_event(IcmpType type, Packet&& offender, util::Ipv4 router,
                  Asn origin_as) override {
    owner->send_icmp(*this, type, router, offender, origin_as);
  }
  void deliver_event(Packet&& pkt, HostId host) override {
    owner->deliver(*this, std::move(pkt), host);
  }

  Simulator* owner;
  std::uint32_t index;
  EventQueue events;
  SimCounters counters;
  RouteCache route_cache;
  std::uint64_t trace_seq = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<TraceRecord> trace;
  ShardStats stats;
  /// Mail by window parity, then by destination shard.
  std::array<std::vector<std::vector<MailboxMsg>>, 2> outbox;
  /// Parity of the window this shard is executing (or last executed).
  std::uint32_t parity = 0;
  /// Earliest arrival posted in that window; far_future when none. The
  /// coordinator folds it into the next window's start.
  util::SimTime outbox_min = util::SimTime::far_future();
};

}  // namespace odns::netsim
