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
// label, case-folded). Every node reads the view; a node that stores
// records copies them one by one (RecordView::to_record()), and
// materialize() builds a whole owned Message only for decode().
// tests/golden_test.cpp pins the encoded bytes and the decode verdicts
// over seeded corpora.
//
// Lifetime rules: every pointer inside a MessageView aims either at
// the wire buffer passed to decode_into() or at the WireArena, so a
// view is valid only while BOTH outlive it and the arena has not been
// reset(). Nodes reset their receive arena at datagram entry — views
// must never be stored across messages.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
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
  /// True if this name is `zone` or ends in `zone` (case-folded;
  /// "a.example.com" is under "example.com").
  [[nodiscard]] bool is_subdomain_of(const Name& zone) const;
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

  /// Owning copy of the record (allocates; for records a node stores).
  [[nodiscard]] ResourceRecord to_record() const;
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

/// make_query() for views: a one-question query that borrows
/// `question`, which must outlive the view.
MessageView make_query(std::uint16_t id, const QuestionView& question,
                       bool recursion_desired = true);
MessageView make_query(std::uint16_t, QuestionView&&, bool = true) = delete;

/// make_response() for views: a response skeleton echoing the query's
/// id, RD bit and question section (borrowed from `query`).
MessageView make_response(const MessageView& query,
                          Rcode rcode = Rcode::noerror);

/// Owning copy of a view (allocates; the decode() bridge).
Message materialize(const MessageView& msg);

/// A view over an owned Message: labels/spans reference the
/// Message's own storage plus `arena` for the section arrays. Valid
/// while both the Message and the arena epoch live.
MessageView view_of(WireArena& arena, const Message& msg);
/// The same, for an owned name, record or record sequence.
NameView view_of(WireArena& arena, const Name& name);
RecordView view_of(WireArena& arena, const ResourceRecord& rr);
std::span<RecordView> view_of(WireArena& arena,
                              std::span<const ResourceRecord> rrs);

/// The one map key for DNS names (DnsCache, the resolver's in-flight
/// table, Zone): the name's uncompressed wire encoding with ASCII
/// letters folded to lower case, followed by `type` in network order
/// when one is given. Length bytes keep the label boundaries, so
/// ["a.b","net"] and ["a","b","net"], which share the dotted spelling
/// "a.b.net", never share a key.
std::string wire_key(const NameView& name, std::optional<RrType> type);
std::string wire_key(const Name& name, std::optional<RrType> type);

}  // namespace odns::dnswire
