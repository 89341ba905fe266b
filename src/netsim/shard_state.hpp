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
//   * one SPSC inbox per source shard (cross-shard packet events).

#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/event_queue.hpp"
#include "netsim/mailbox.hpp"
#include "netsim/route_cache.hpp"
#include "netsim/sim.hpp"

namespace odns::netsim {

struct Simulator::Shard final : private PacketSink {
  Shard(Simulator& sim, std::uint32_t idx, std::uint32_t count,
        const SimConfig& cfg)
      : owner(&sim), index(idx),
        inbox(count) {  // in place: mailboxes hold atomics (immovable)
    events.bind_sink(this);
    for (auto& mb : inbox) mb.reset(cfg.mailbox_capacity);
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
  std::vector<SpscMailbox> inbox;  // indexed by source shard
};

}  // namespace odns::netsim
