#pragma once
// Shared base for DNS speakers living on simulated hosts: datagram
// parsing, reply plumbing, per-node counters.
//
// One receive path (dnswire/arena_codec.hpp, the one wire codec): each
// datagram is decoded into `rx_arena_` as a MessageView and handed to
// the subclass through on_message_view(). No owned Message is built; a
// node that keeps state across messages copies out only what it keeps
// (RecordView::to_record() for cached records, to_name() for a pending
// question). Replies are views too, built in `scratch_arena_` and
// encoded through `tx_arena_`; the arenas are reset per message and
// keep their chunks, so after warm-up decoding a message and building
// its reply do not touch the heap.

#include <cstdint>
#include <optional>

#include "dnswire/arena.hpp"
#include "dnswire/arena_codec.hpp"
#include "netsim/sim.hpp"

namespace odns::nodes {

inline constexpr std::uint16_t kDnsPort = 53;

struct NodeCounters {
  std::uint64_t datagrams_in = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t queries_in = 0;
  std::uint64_t responses_in = 0;
  std::uint64_t responses_out = 0;
  std::uint64_t queries_out = 0;
  std::uint64_t refused = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t servfail = 0;
};

class DnsNode : public netsim::App {
 public:
  DnsNode(netsim::Simulator& sim, netsim::HostId host)
      : sim_(&sim), host_(host) {}

  [[nodiscard]] netsim::HostId host() const { return host_; }
  [[nodiscard]] util::Ipv4 address() const {
    return sim_->net().primary_addr(host_);
  }
  [[nodiscard]] const NodeCounters& counters() const { return counters_; }

  void on_datagram(const netsim::Datagram& dgram) final;

 protected:
  /// The receive hook: `msg` views the datagram payload + rx arena and
  /// dies when this call returns.
  virtual void on_message_view(const netsim::Datagram& dgram,
                               const dnswire::MessageView& msg) = 0;

  netsim::Simulator& sim() { return *sim_; }

  /// Encodes `msg` through the tx arena and sends it from this host.
  /// `msg` must not be built on the tx arena (it is reset here); use
  /// scratch_arena(). `src_override` supports service (anycast) reply
  /// addresses and transparent-spoof behaviour.
  void send(util::Ipv4 dst, std::uint16_t src_port,
                 std::uint16_t dst_port, const dnswire::MessageView& msg,
                 std::optional<util::Ipv4> src_override = std::nullopt);

  /// Replies to the datagram's source (swapped ports).
  void reply(const netsim::Datagram& dgram,
                  const dnswire::MessageView& msg,
                  std::optional<util::Ipv4> src_override = std::nullopt);

  /// Scratch arena for building outgoing views (reset at every
  /// datagram entry, after the rx view is dead — do not hold rx-backed
  /// views across messages).
  dnswire::WireArena& scratch_arena() { return scratch_arena_; }

  NodeCounters counters_;

 private:
  netsim::Simulator* sim_;
  netsim::HostId host_;
  dnswire::WireArena rx_arena_;       // decode_into target, reset per datagram
  dnswire::WireArena tx_arena_;       // encode_into target, reset per send
  dnswire::WireArena scratch_arena_;  // reply-view construction
};

}  // namespace odns::nodes
