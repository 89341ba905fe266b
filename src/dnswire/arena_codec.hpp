#pragma once
// The DNS wire codec: the one implementation of RFC 1035 §4 parsing
// and serialization in the repo (codec.hpp's encode()/decode() are
// bridges over it).
//
// decode_into() parses a datagram into a MessageView — labels are
// string_views into the wire buffer, record sections are arena-backed
// spans, no per-RR vectors — and encode_into() serializes a
// MessageView, compressing every owner name and every name inside
// NS/CNAME/PTR/SOA rdata against earlier suffixes (compared label by
// label, case-folded). Readers that only inspect a message keep the
// view; materialize() builds an owned Message where a node needs one.
// tests/golden_test.cpp pins the encoded bytes and the decode verdicts
// over seeded corpora.
//
// Lifetime rules: every pointer inside a MessageView aims either at
// the wire buffer passed to decode_into() or at the WireArena, so a
// view is valid only while BOTH outlive it and the arena has not been
// reset(). Nodes reset their receive arena at datagram entry — views
// must never be stored across messages.

#include <cstdint>
#include <span>
#include <string_view>

#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "util/ipv4.hpp"
#include "util/result.hpp"

#include "dnswire/arena.hpp"

namespace odns::dnswire {

/// A domain name as a span of labels. Decoded labels point into the
/// wire buffer (zero copy); view_of() labels point into Name storage.
struct NameView {
  std::span<const std::string_view> labels;

  [[nodiscard]] bool equals(const Name& other) const;
  /// Uncompressed wire length (length bytes + labels + terminator).
  [[nodiscard]] std::size_t wire_length() const;
  /// Materializes an owning Name (allocates; cold paths only).
  [[nodiscard]] Name to_name() const;
};

struct SoaView {
  NameView mname;
  NameView rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;
};

/// Tagged union mirroring Message's Rdata variant, flattened so records
/// stay trivially destructible (arena requirement).
struct RdataView {
  enum class Tag : std::uint8_t { a, name, txt, soa, opt, raw };

  Tag tag = Tag::a;
  util::Ipv4 a_addr;                         // tag == a
  NameView name;                             // tag == name (NS/CNAME/PTR)
  std::span<const std::string_view> txt;     // tag == txt
  const SoaView* soa = nullptr;              // tag == soa
  std::uint16_t udp_payload_size = 0;        // tag == opt
  std::span<const std::uint8_t> raw;         // tag == raw
};

struct QuestionView {
  NameView name;
  RrType type = RrType::a;
  RrClass klass = RrClass::in;
};

struct RecordView {
  NameView name;
  RrType type = RrType::a;
  RrClass klass = RrClass::in;
  std::uint32_t ttl = 0;
  RdataView rdata;
};

struct MessageView {
  Header header;
  std::span<const QuestionView> questions;
  std::span<const RecordView> answers;
  std::span<const RecordView> authorities;
  std::span<const RecordView> additionals;
};

/// Parses `wire` into a view backed by `arena` + the wire buffer, or
/// returns the DecodeError of the first malformed field.
util::Result<MessageView, DecodeError> decode_into(
    WireArena& arena, std::span<const std::uint8_t> wire);

/// Serializes `msg` into `arena`. The returned span lives until arena
/// reset.
std::span<const std::uint8_t> encode_into(WireArena& arena,
                                          const MessageView& msg);

/// Owning copy of a view (allocates; for nodes that keep owned state).
Message materialize(const MessageView& msg);

/// A view over an owned Message: labels/spans reference the
/// Message's own storage plus `arena` for the section arrays. Valid
/// while both the Message and the arena epoch live.
MessageView view_of(WireArena& arena, const Message& msg);

}  // namespace odns::dnswire
