#pragma once
// Wire-level packet model. Only the fields the measurement methodology
// actually observes are modeled: IP addressing, TTL, UDP ports, ICMP
// error quoting. Payloads are opaque byte vectors (DNS wire format is
// layered on top by odns::dnswire).

#include <cstdint>
#include <vector>

#include "util/ipv4.hpp"

namespace odns::netsim {

using Asn = std::uint32_t;
using HostId = std::uint32_t;
inline constexpr HostId kInvalidHost = 0xFFFFFFFFu;

enum class Protocol : std::uint8_t { udp, icmp };

/// Borrowed handle onto a route served from Network's route cache: the
/// hop/AS-path vectors are owned by the cache's span table, so the
/// per-packet fast path never copies them. Valid until the next
/// `add_as` or `link`; consume it before yielding to the event loop.
struct RouteView {
  const std::vector<util::Ipv4>* router_hops = nullptr;
  const std::vector<Asn>* as_path = nullptr;
  HostId dst_host = kInvalidHost;
};

enum class IcmpType : std::uint8_t {
  ttl_exceeded,
  port_unreachable,
  host_unreachable,
};

/// The part of the offending datagram a real ICMP error quotes (IP
/// header + first 8 payload bytes): enough to carry the UDP ports, which
/// is what traceroute-style tools key on.
struct IcmpQuote {
  util::Ipv4 orig_src;
  util::Ipv4 orig_dst;
  std::uint16_t orig_src_port = 0;
  std::uint16_t orig_dst_port = 0;
};

struct Packet {
  util::Ipv4 src;
  util::Ipv4 dst;
  int ttl = 64;
  Protocol proto = Protocol::udp;

  // UDP fields (valid when proto == udp).
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::vector<std::uint8_t> payload;

  // ICMP fields (valid when proto == icmp).
  IcmpType icmp_type = IcmpType::ttl_exceeded;
  IcmpQuote icmp_quote{};
};

/// A UDP datagram as seen by an application: addressing plus payload.
/// `ttl` is exposed because transparent forwarders are TTL-transparent
/// and DNSRoute++ depends on observing it.
struct Datagram {
  util::Ipv4 src;
  util::Ipv4 dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  int ttl = 64;
  const std::vector<std::uint8_t>* payload = nullptr;
};

}  // namespace odns::netsim
