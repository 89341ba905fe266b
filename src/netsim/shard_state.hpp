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
//   * one outgoing mail vector per destination shard (cross-shard
//     packet events).
//
// Mail vectors hand events across threads without atomics or locks:
// the source shard appends during the window phase, the destination
// shard drains and clears during the admit phase, and the ShardPool
// barrier between the two phases orders every access.

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
      : owner(&sim), index(idx), outbox(count) {
    events.bind_sink(this);
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
  std::vector<std::vector<MailboxMsg>> outbox;  // by destination shard
};

}  // namespace odns::netsim
