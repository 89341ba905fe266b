#pragma once
// The recursive-forwarder population of every world: one ForwarderBank
// serves every recursive forwarder of a virtual shard as dense
// index-addressed rows instead of one heap-allocated node (~300 B +
// cache + arenas each) per host.
//
// Behavioural contract: a bank member is a cacheless recursive
// forwarder — it relays the client's question upstream from its own
// address, matches the upstream response by (port, txid), restores the
// client txid, applies the member's middlebox knobs (rewrite / strip),
// and answers the client from the address the query arrived on. A
// query with other than one question is dropped (the caching
// RecursiveForwarder node answers FORMERR). Caching never matters for
// a census member: the scanner probes its address directly, and a
// retry that reaches it again is relayed again.
//
// Shard safety: the topology builder creates one bank per virtual
// shard, so a bank's members always land on one execution shard
// together — no cross-shard state. Upstream (port, txid) tuples are
// derived from the member index alone, so the packet bytes are
// independent of cross-member event interleaving and byte-identical
// for every shard count.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dnswire/arena_codec.hpp"
#include "netsim/sim.hpp"
#include "nodes/forwarder.hpp"

namespace odns::nodes {

class ForwarderBank final : public netsim::App {
 public:
  struct MemberConfig {
    util::Ipv4 addr;
    util::Ipv4 upstream;
    util::Ipv4 rewrite_target{};
    bool rewrite_answers = false;
    bool strip_second_record = false;
  };

  explicit ForwarderBank(netsim::Simulator& sim) : sim_(&sim) {}

  /// Registers a member host (already in the network, announcing
  /// `mc.addr`) and binds this bank as its port-53 + wildcard app.
  /// Throws std::logic_error once the bank is sealed.
  void add_member(netsim::HostId host, const MemberConfig& mc);
  /// Builds the address lookup index. Call once after the last
  /// add_member; a datagram reaching an unsealed bank throws
  /// std::logic_error.
  void seal();

  void on_datagram(const netsim::Datagram& dgram) override;

  [[nodiscard]] std::size_t member_count() const { return addr_.size(); }
  [[nodiscard]] const ForwarderStats& stats() const { return stats_; }
  /// Current in-flight upstream queries (bounded by the probe window,
  /// not the member count: entries die on response or expiry sweep).
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }

 private:
  // One upstream tuple per member query, derived from the member index
  // and its 8-bit in-flight sequence — never from shared mutable state.
  [[nodiscard]] static std::uint32_t tuple_of(std::uint32_t member,
                                              std::uint8_t seq) {
    return member * 256u + seq;
  }

  struct Pending {
    util::Ipv4 client;
    util::SimTime deadline;
    std::uint32_t member = 0;
    std::uint16_t client_port = 0;
    std::uint16_t client_txid = 0;
  };

  [[nodiscard]] std::size_t member_of(util::Ipv4 addr) const;
  void handle_query(const netsim::Datagram& dgram, std::size_t member,
                    const dnswire::MessageView& msg);
  void handle_response(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg);
  /// Encodes `msg` through the tx arena and sends it from `from`.
  void send(netsim::HostId from, util::Ipv4 dst, std::uint16_t src_port,
            std::uint16_t dst_port, const dnswire::MessageView& msg);
  void sweep_expired();

  netsim::Simulator* sim_;

  // Member rows (SoA: the hot lookup path touches only addr_).
  std::vector<util::Ipv4> addr_;
  std::vector<util::Ipv4> upstream_;
  std::vector<util::Ipv4> rewrite_target_;
  std::vector<netsim::HostId> host_;
  std::vector<std::uint8_t> seq_;
  std::vector<std::uint8_t> flags_;  // bit 0: rewrite, bit 1: strip
  /// Member indices ordered by address (lookup index; built by seal()).
  std::vector<std::uint32_t> by_addr_;
  bool sealed_ = false;

  std::unordered_map<std::uint32_t, Pending> pending_;
  std::size_t sweep_at_ = 64;
  std::size_t peak_pending_ = 0;
  ForwarderStats stats_;
  // Packets are read as views and never materialized: the rx arena
  // backs the decoded datagram, the tx arena the relayed message's
  // rewritten answer span and its encoding. Both reset per datagram.
  dnswire::WireArena rx_arena_;
  dnswire::WireArena tx_arena_;
};

}  // namespace odns::nodes
