#pragma once
// Shared base for DNS speakers living on simulated hosts: datagram
// parsing, reply plumbing, per-node counters.
//
// View first (dnswire/arena_codec.hpp, the one wire codec): each
// datagram is decoded into `rx_arena_` as a MessageView and offered to
// the subclass through on_message_view() (the zero-allocation path);
// it is materialized into an owned Message only when the subclass
// declines because it keeps owned state. Replies encode through
// `tx_arena_`; both arenas are reset per message, so after warm-up
// neither touches the heap.

#include <cstdint>
#include <optional>

#include "dnswire/arena.hpp"
#include "dnswire/arena_codec.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
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
  /// Fast-path dispatch: `msg` views the datagram payload + rx arena
  /// and dies when this call returns. Return true to consume the
  /// message; false falls back to on_message() with a materialized
  /// owned copy. Default: always fall back.
  virtual bool on_message_view(const netsim::Datagram& dgram,
                               const dnswire::MessageView& msg) {
    (void)dgram;
    (void)msg;
    return false;
  }

  /// Owned-message dispatch target; `msg` is the successfully parsed
  /// payload, owned by the callee.
  virtual void on_message(const netsim::Datagram& dgram,
                          dnswire::Message msg) = 0;

  netsim::Simulator& sim() { return *sim_; }

  /// Sends `msg` from this host. `src_override` supports service
  /// (anycast) reply addresses and transparent-spoof behaviour.
  void send_message(util::Ipv4 dst, std::uint16_t src_port,
                    std::uint16_t dst_port, const dnswire::Message& msg,
                    std::optional<util::Ipv4> src_override = std::nullopt);

  /// View-level send: encodes through the tx arena, the same bytes as
  /// send_message() on the materialized view. `msg` must not be built
  /// on the tx arena (it is reset here); use scratch_arena().
  void send_view(util::Ipv4 dst, std::uint16_t src_port,
                 std::uint16_t dst_port, const dnswire::MessageView& msg,
                 std::optional<util::Ipv4> src_override = std::nullopt);

  /// Replies to the datagram's source (swapped ports).
  void reply(const netsim::Datagram& dgram, const dnswire::Message& msg,
             std::optional<util::Ipv4> src_override = std::nullopt);
  void reply_view(const netsim::Datagram& dgram,
                  const dnswire::MessageView& msg,
                  std::optional<util::Ipv4> src_override = std::nullopt);

  /// Scratch arena for building reply views inside on_message_view
  /// (reset at every datagram entry, after the rx view is dead — do
  /// not hold rx-backed views across messages).
  dnswire::WireArena& scratch_arena() { return scratch_arena_; }

  NodeCounters counters_;

 private:
  void send_encoded(util::Ipv4 dst, std::uint16_t src_port,
                    std::uint16_t dst_port, const dnswire::MessageView& msg,
                    std::optional<util::Ipv4> src_override);

  netsim::Simulator* sim_;
  netsim::HostId host_;
  dnswire::WireArena rx_arena_;       // decode_into target, reset per datagram
  dnswire::WireArena tx_arena_;       // encode_into target, reset per send
  dnswire::WireArena scratch_arena_;  // reply-view construction
};

}  // namespace odns::nodes
