#include "dnswire/arena_codec.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "util/strings.hpp"

namespace odns::dnswire {

namespace {

constexpr std::size_t kMaxNameWire = 255;
constexpr std::uint8_t kPointerTag = 0xC0;
// Smallest wire footprints: a question is a 1-byte root name + 4 fixed
// octets; a resource record is that name + 10 fixed octets. Section
// arrays are capacity-bounded by remaining/minimum + 1, which parsing
// can never exceed (each success consumes at least the minimum).
constexpr std::size_t kMinQuestionWire = 5;
constexpr std::size_t kMinRrWire = 11;

// ---------------------------------------------------------------------
// Decoding
//
// Every check runs in a fixed order, so each malformed input maps to
// one DecodeError; tests/golden_test.cpp pins the verdicts over the
// fuzz corpora.
// ---------------------------------------------------------------------

class ArenaDecoder {
 public:
  ArenaDecoder(WireArena& arena, std::span<const std::uint8_t> wire)
      : arena_(&arena), wire_(wire) {}

  [[nodiscard]] bool need(std::size_t n) const {
    return pos_ + n <= wire_.size();
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return wire_.size() - pos_; }

  bool u8(std::uint8_t& v) {
    if (!need(1)) return false;
    v = wire_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& v) {
    if (!need(2)) return false;
    v = static_cast<std::uint16_t>(std::uint16_t{wire_[pos_]} << 8 |
                                   wire_[pos_ + 1]);
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (!need(4)) return false;
    v = std::uint32_t{wire_[pos_]} << 24 | std::uint32_t{wire_[pos_ + 1]} << 16 |
        std::uint32_t{wire_[pos_ + 2]} << 8 | std::uint32_t{wire_[pos_ + 3]};
    pos_ += 4;
    return true;
  }
  bool skip(std::size_t n) {
    if (!need(n)) return false;
    pos_ += n;
    return true;
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    // Caller has need(n)-checked; zero copy, the view aliases the wire.
    const std::span<const std::uint8_t> out = wire_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Decodes a possibly-compressed name into a label view. Labels are
  /// collected on the stack (a valid name has at most 127) and copied
  /// into the arena only on success.
  util::Result<NameView, DecodeError> name() {
    std::array<std::string_view, 128> scratch;
    std::size_t count = 0;
    std::size_t cursor = pos_;
    std::size_t total = 0;
    bool jumped = false;
    std::size_t after_first_pointer = 0;
    std::size_t guard = 0;
    while (true) {
      if (++guard > 256) return DecodeError::pointer_loop;
      if (cursor >= wire_.size()) return DecodeError::truncated;
      const std::uint8_t len = wire_[cursor];
      if ((len & kPointerTag) == kPointerTag) {
        if (cursor + 1 >= wire_.size()) return DecodeError::truncated;
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3F) << 8) | wire_[cursor + 1];
        if (target >= cursor) return DecodeError::bad_compression_pointer;
        if (!jumped) {
          after_first_pointer = cursor + 2;
          jumped = true;
        }
        cursor = target;
        continue;
      }
      if ((len & kPointerTag) != 0) return DecodeError::bad_compression_pointer;
      if (len == 0) {
        pos_ = jumped ? after_first_pointer : cursor + 1;
        NameView view;
        const auto labels = arena_->alloc_array<std::string_view>(count);
        std::copy_n(scratch.data(), count, labels.data());
        view.labels = labels;
        return view;
      }
      if (len > 63) return DecodeError::label_overflow;
      if (cursor + 1 + len > wire_.size()) return DecodeError::truncated;
      total += len + 1;
      if (total + 1 > kMaxNameWire) return DecodeError::name_overflow;
      scratch[count++] = std::string_view(
          reinterpret_cast<const char*>(wire_.data() + cursor + 1), len);
      cursor += 1 + len;
    }
  }

  WireArena& arena() { return *arena_; }
  [[nodiscard]] std::span<const std::uint8_t> wire() const { return wire_; }

 private:
  WireArena* arena_;
  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
};

std::optional<DecodeError> decode_record(ArenaDecoder& dec, RecordView& rr) {
  auto n = dec.name();
  if (!n) return n.error();
  rr.name = n.value();
  std::uint16_t type = 0;
  std::uint16_t klass = 0;
  std::uint32_t ttl = 0;
  std::uint16_t rdlen = 0;
  if (!dec.u16(type) || !dec.u16(klass) || !dec.u32(ttl) || !dec.u16(rdlen)) {
    return DecodeError::truncated;
  }
  rr.type = static_cast<RrType>(type);
  rr.klass = static_cast<RrClass>(klass);
  rr.ttl = ttl;
  if (!dec.need(rdlen)) return DecodeError::truncated;
  const std::size_t rdata_end = dec.pos() + rdlen;

  switch (rr.type) {
    case RrType::a: {
      if (rdlen != 4) return DecodeError::bad_rdata;
      std::uint32_t addr = 0;
      dec.u32(addr);
      rr.rdata.tag = RdataView::Tag::a;
      rr.rdata.a_addr = util::Ipv4{addr};
      break;
    }
    case RrType::ns:
    case RrType::cname:
    case RrType::ptr: {
      auto host = dec.name();
      if (!host) return host.error();
      if (dec.pos() != rdata_end) return DecodeError::bad_rdata;
      rr.rdata.tag = RdataView::Tag::name;
      rr.rdata.name = host.value();
      break;
    }
    case RrType::txt: {
      // Count complete character-strings first so the arena array is
      // exact; the parsing pass below reports a malformed tail.
      const auto wire = dec.wire();
      std::size_t strings = 0;
      for (std::size_t p = dec.pos(); p < rdata_end;) {
        const std::uint8_t len = wire[p];
        if (p + 1 + len > rdata_end) break;  // the parse pass rejects it
        ++strings;
        p += 1 + len;
      }
      const auto out = dec.arena().alloc_array<std::string_view>(strings);
      std::size_t i = 0;
      while (dec.pos() < rdata_end) {
        std::uint8_t len = 0;
        if (!dec.u8(len)) return DecodeError::truncated;
        if (dec.pos() + len > rdata_end) return DecodeError::bad_rdata;
        const auto raw = dec.bytes(len);
        out[i++] = std::string_view(reinterpret_cast<const char*>(raw.data()),
                                    raw.size());
      }
      rr.rdata.tag = RdataView::Tag::txt;
      rr.rdata.txt = out;
      break;
    }
    case RrType::soa: {
      SoaView* soa = dec.arena().alloc<SoaView>();
      auto mname = dec.name();
      if (!mname) return mname.error();
      soa->mname = mname.value();
      auto rname = dec.name();
      if (!rname) return rname.error();
      soa->rname = rname.value();
      if (!dec.u32(soa->serial) || !dec.u32(soa->refresh) ||
          !dec.u32(soa->retry) || !dec.u32(soa->expire) ||
          !dec.u32(soa->minimum)) {
        return DecodeError::truncated;
      }
      if (dec.pos() != rdata_end) return DecodeError::bad_rdata;
      rr.rdata.tag = RdataView::Tag::soa;
      rr.rdata.soa = soa;
      break;
    }
    case RrType::opt: {
      rr.rdata.tag = RdataView::Tag::opt;
      rr.rdata.udp_payload_size = klass;
      rr.klass = RrClass::in;
      if (!dec.skip(rdlen)) return DecodeError::truncated;
      break;
    }
    default: {
      if (!dec.need(rdlen)) return DecodeError::truncated;
      rr.rdata.tag = RdataView::Tag::raw;
      rr.rdata.raw = dec.bytes(rdlen);
      break;
    }
  }
  if (dec.pos() != rdata_end) return DecodeError::bad_rdata;
  return std::nullopt;
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// One recorded compression suffix: labels[start..count) of some
/// already-emitted name, at wire offset `offset`. Entries are matched
/// first-wins in insertion order.
struct SuffixEntry {
  const std::string_view* labels = nullptr;
  std::uint32_t start = 0;
  std::uint32_t count = 0;
  std::uint16_t offset = 0;

  /// Label-by-label, case-folded: ["a.b"] and ["a","b"] are different
  /// names and never share a pointer.
  [[nodiscard]] bool matches(const std::string_view* other,
                             std::size_t other_start,
                             std::size_t other_count) const {
    if (count - start != other_count - other_start) return false;
    for (std::size_t i = 0; i < count - start; ++i) {
      if (!util::iequals_ascii(labels[start + i], other[other_start + i])) {
        return false;
      }
    }
    return true;
  }
};

class ArenaEncoder {
 public:
  ArenaEncoder(std::uint8_t* out, SuffixEntry* suffixes)
      : out_(out), suffixes_(suffixes) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  void u8(std::uint8_t v) { out_[size_++] = v; }
  void u16(std::uint16_t v) {
    out_[size_++] = static_cast<std::uint8_t>(v >> 8);
    out_[size_++] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(const void* data, std::size_t n) {
    // Empty raw rdata may carry a null data pointer, which memcpy must
    // never see, even for zero bytes.
    if (n == 0) return;
    std::memcpy(out_ + size_, data, n);
    size_ += n;
  }
  void patch_u16(std::size_t pos, std::uint16_t v) {
    out_[pos] = static_cast<std::uint8_t>(v >> 8);
    out_[pos + 1] = static_cast<std::uint8_t>(v);
  }

  void name(const NameView& n) {
    const std::string_view* labels = n.labels.data();
    const std::size_t count = n.labels.size();
    for (std::size_t i = 0; i < count; ++i) {
      const SuffixEntry* found = nullptr;
      for (std::size_t e = 0; e < suffix_count_; ++e) {
        if (suffixes_[e].matches(labels, i, count)) {
          found = &suffixes_[e];
          break;
        }
      }
      if (found != nullptr) {
        u16(static_cast<std::uint16_t>(0xC000u | found->offset));
        return;
      }
      if (size_ <= 0x3FFF) {
        suffixes_[suffix_count_++] =
            SuffixEntry{labels, static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(count),
                        static_cast<std::uint16_t>(size_)};
      }
      u8(static_cast<std::uint8_t>(labels[i].size()));
      bytes(labels[i].data(), labels[i].size());
    }
    u8(0);
  }

 private:
  std::uint8_t* out_;
  std::size_t size_ = 0;
  SuffixEntry* suffixes_;
  std::size_t suffix_count_ = 0;
};

void encode_record(ArenaEncoder& enc, const RecordView& rr) {
  enc.name(rr.name);
  enc.u16(static_cast<std::uint16_t>(rr.type));
  if (rr.type == RrType::opt) {
    // OPT abuses the class field for the advertised UDP payload size.
    enc.u16(rr.rdata.udp_payload_size);
    enc.u32(0);  // extended rcode/flags
    enc.u16(0);  // empty rdata
    return;
  }
  enc.u16(static_cast<std::uint16_t>(rr.klass));
  enc.u32(rr.ttl);
  const std::size_t len_pos = enc.size();
  enc.u16(0);  // placeholder rdlength
  const std::size_t rdata_start = enc.size();
  switch (rr.rdata.tag) {
    case RdataView::Tag::a:
      enc.u32(rr.rdata.a_addr.value());
      break;
    case RdataView::Tag::name:
      enc.name(rr.rdata.name);
      break;
    case RdataView::Tag::txt:
      for (const auto& s : rr.rdata.txt) {
        const auto n = std::min<std::size_t>(s.size(), 255);
        enc.u8(static_cast<std::uint8_t>(n));
        enc.bytes(s.data(), n);
      }
      break;
    case RdataView::Tag::soa:
      enc.name(rr.rdata.soa->mname);
      enc.name(rr.rdata.soa->rname);
      enc.u32(rr.rdata.soa->serial);
      enc.u32(rr.rdata.soa->refresh);
      enc.u32(rr.rdata.soa->retry);
      enc.u32(rr.rdata.soa->expire);
      enc.u32(rr.rdata.soa->minimum);
      break;
    case RdataView::Tag::opt:
      // A non-OPT record carrying OPT rdata has empty rdata.
      break;
    case RdataView::Tag::raw:
      enc.bytes(rr.rdata.raw.data(), rr.rdata.raw.size());
      break;
  }
  enc.patch_u16(len_pos, static_cast<std::uint16_t>(enc.size() - rdata_start));
}

/// Uncompressed upper bound of one record's wire size, and the number
/// of compression-table slots its names can consume.
std::size_t rr_bound(const RecordView& rr, std::size_t& label_slots) {
  label_slots += rr.name.labels.size();
  std::size_t bound = rr.name.wire_length() + 10;
  switch (rr.rdata.tag) {
    case RdataView::Tag::a:
      bound += 4;
      break;
    case RdataView::Tag::name:
      label_slots += rr.rdata.name.labels.size();
      bound += rr.rdata.name.wire_length();
      break;
    case RdataView::Tag::txt:
      for (const auto& s : rr.rdata.txt) {
        bound += 1 + std::min<std::size_t>(s.size(), 255);
      }
      break;
    case RdataView::Tag::soa:
      label_slots += rr.rdata.soa->mname.labels.size();
      label_slots += rr.rdata.soa->rname.labels.size();
      bound += rr.rdata.soa->mname.wire_length() +
               rr.rdata.soa->rname.wire_length() + 20;
      break;
    case RdataView::Tag::opt:
      break;
    case RdataView::Tag::raw:
      bound += rr.rdata.raw.size();
      break;
  }
  return bound;
}

template <typename Labels>
std::string folded_wire_key(const Labels& labels, std::optional<RrType> type) {
  std::string key;
  for (const auto& label : labels) {
    key.push_back(static_cast<char>(label.size()));
    for (const char c : label) key.push_back(util::ascii_fold(c));
  }
  key.push_back('\0');
  if (type) {
    const auto t = static_cast<std::uint16_t>(*type);
    key.push_back(static_cast<char>(t >> 8));
    key.push_back(static_cast<char>(t & 0xFF));
  }
  return key;
}

}  // namespace

NameView view_of(WireArena& arena, const Name& name) {
  const auto& labels = name.labels();
  const auto out = arena.alloc_array<std::string_view>(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) out[i] = labels[i];
  return NameView{out};
}

RecordView view_of(WireArena& arena, const ResourceRecord& rr) {
  RecordView view;
  view.name = view_of(arena, rr.name);
  view.type = rr.type;
  view.klass = rr.klass;
  view.ttl = rr.ttl;
  std::visit(
      [&](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARecord>) {
          view.rdata.tag = RdataView::Tag::a;
          view.rdata.a_addr = rd.addr;
        } else if constexpr (std::is_same_v<T, NsRecord>) {
          view.rdata.tag = RdataView::Tag::name;
          view.rdata.name = view_of(arena, rd.host);
        } else if constexpr (std::is_same_v<T, CnameRecord> ||
                             std::is_same_v<T, PtrRecord>) {
          view.rdata.tag = RdataView::Tag::name;
          view.rdata.name = view_of(arena, rd.target);
        } else if constexpr (std::is_same_v<T, TxtRecord>) {
          view.rdata.tag = RdataView::Tag::txt;
          const auto out =
              arena.alloc_array<std::string_view>(rd.strings.size());
          for (std::size_t i = 0; i < rd.strings.size(); ++i) {
            out[i] = rd.strings[i];
          }
          view.rdata.txt = out;
        } else if constexpr (std::is_same_v<T, SoaRecord>) {
          SoaView* soa = arena.alloc<SoaView>();
          soa->mname = view_of(arena, rd.mname);
          soa->rname = view_of(arena, rd.rname);
          soa->serial = rd.serial;
          soa->refresh = rd.refresh;
          soa->retry = rd.retry;
          soa->expire = rd.expire;
          soa->minimum = rd.minimum;
          view.rdata.tag = RdataView::Tag::soa;
          view.rdata.soa = soa;
        } else if constexpr (std::is_same_v<T, OptRecord>) {
          view.rdata.tag = RdataView::Tag::opt;
          view.rdata.udp_payload_size = rd.udp_payload_size;
        } else if constexpr (std::is_same_v<T, RawRecord>) {
          view.rdata.tag = RdataView::Tag::raw;
          view.rdata.raw = rd.data;
        }
      },
      rr.rdata);
  return view;
}

ResourceRecord RecordView::to_record() const {
  ResourceRecord out;
  out.name = name.to_name();
  out.type = type;
  out.klass = klass;
  out.ttl = ttl;
  switch (rdata.tag) {
    case RdataView::Tag::a:
      out.rdata = ARecord{rdata.a_addr};
      break;
    case RdataView::Tag::name:
      if (type == RrType::ns) {
        out.rdata = NsRecord{rdata.name.to_name()};
      } else if (type == RrType::cname) {
        out.rdata = CnameRecord{rdata.name.to_name()};
      } else {
        out.rdata = PtrRecord{rdata.name.to_name()};
      }
      break;
    case RdataView::Tag::txt: {
      TxtRecord txt;
      txt.strings.reserve(rdata.txt.size());
      for (const auto& s : rdata.txt) txt.strings.emplace_back(s);
      out.rdata = std::move(txt);
      break;
    }
    case RdataView::Tag::soa: {
      SoaRecord soa;
      soa.mname = rdata.soa->mname.to_name();
      soa.rname = rdata.soa->rname.to_name();
      soa.serial = rdata.soa->serial;
      soa.refresh = rdata.soa->refresh;
      soa.retry = rdata.soa->retry;
      soa.expire = rdata.soa->expire;
      soa.minimum = rdata.soa->minimum;
      out.rdata = std::move(soa);
      break;
    }
    case RdataView::Tag::opt:
      out.rdata = OptRecord{rdata.udp_payload_size};
      break;
    case RdataView::Tag::raw: {
      RawRecord raw;
      raw.data.assign(rdata.raw.begin(), rdata.raw.end());
      out.rdata = std::move(raw);
      break;
    }
  }
  return out;
}

std::string wire_key(const NameView& name, std::optional<RrType> type) {
  return folded_wire_key(name.labels, type);
}

std::string wire_key(const Name& name, std::optional<RrType> type) {
  return folded_wire_key(name.labels(), type);
}

bool NameView::equals(const Name& other) const {
  return labels.size() == other.labels().size() && is_subdomain_of(other);
}

bool NameView::is_subdomain_of(const Name& zone) const {
  const auto& theirs = zone.labels();
  if (theirs.size() > labels.size()) return false;
  const auto offset = labels.size() - theirs.size();
  for (std::size_t i = 0; i < theirs.size(); ++i) {
    if (!util::iequals_ascii(labels[offset + i], theirs[i])) return false;
  }
  return true;
}

std::size_t NameView::wire_length() const {
  std::size_t wire = 1;
  for (const auto& l : labels) wire += 1 + l.size();
  return wire;
}

Name NameView::to_name() const {
  std::vector<std::string> out;
  out.reserve(labels.size());
  for (const auto& l : labels) out.emplace_back(l);
  auto name = Name::from_labels(std::move(out));
  // Decoded views satisfy the wire limits by construction.
  return name ? *std::move(name) : Name{};
}

util::Result<MessageView, DecodeError> decode_into(
    WireArena& arena, std::span<const std::uint8_t> wire) {
  ArenaDecoder dec(arena, wire);
  MessageView msg;
  std::uint16_t flags = 0;
  std::uint16_t qd = 0;
  std::uint16_t an = 0;
  std::uint16_t ns = 0;
  std::uint16_t ar = 0;
  if (!dec.u16(msg.header.id) || !dec.u16(flags) || !dec.u16(qd) ||
      !dec.u16(an) || !dec.u16(ns) || !dec.u16(ar)) {
    return DecodeError::truncated;
  }
  msg.header.qr = (flags & 0x8000) != 0;
  msg.header.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  msg.header.aa = (flags & 0x0400) != 0;
  msg.header.tc = (flags & 0x0200) != 0;
  msg.header.rd = (flags & 0x0100) != 0;
  msg.header.ra = (flags & 0x0080) != 0;
  msg.header.rcode = static_cast<Rcode>(flags & 0xF);

  {
    const std::size_t cap = std::min<std::size_t>(
        qd, dec.remaining() / kMinQuestionWire + 1);
    const auto questions = arena.alloc_array<QuestionView>(cap);
    for (int i = 0; i < qd; ++i) {
      QuestionView q;
      auto n = dec.name();
      if (!n) return n.error();
      q.name = n.value();
      std::uint16_t type = 0;
      std::uint16_t klass = 0;
      if (!dec.u16(type) || !dec.u16(klass)) return DecodeError::bad_question;
      q.type = static_cast<RrType>(type);
      q.klass = static_cast<RrClass>(klass);
      assert(static_cast<std::size_t>(i) < cap);
      questions[static_cast<std::size_t>(i)] = q;
    }
    msg.questions = questions.first(qd);
  }

  auto read_section = [&](std::uint16_t count,
                          std::span<const RecordView>& out)
      -> std::optional<DecodeError> {
    const std::size_t cap =
        std::min<std::size_t>(count, dec.remaining() / kMinRrWire + 1);
    const auto records = arena.alloc_array<RecordView>(cap);
    for (int i = 0; i < count; ++i) {
      RecordView rr;
      if (auto e = decode_record(dec, rr)) return e;
      assert(static_cast<std::size_t>(i) < cap);
      records[static_cast<std::size_t>(i)] = rr;
    }
    out = records.first(count);
    return std::nullopt;
  };
  if (auto e = read_section(an, msg.answers)) return *e;
  if (auto e = read_section(ns, msg.authorities)) return *e;
  if (auto e = read_section(ar, msg.additionals)) return *e;
  return msg;
}

std::span<const std::uint8_t> encode_into(WireArena& arena,
                                          const MessageView& msg) {
  // Pre-pass: uncompressed output upper bound + compression-table
  // slots. Compression only ever shrinks the output, so a single
  // arena reservation covers the encode.
  std::size_t bound = 12;
  std::size_t label_slots = 0;
  for (const auto& q : msg.questions) {
    label_slots += q.name.labels.size();
    bound += q.name.wire_length() + 4;
  }
  for (const auto& rr : msg.answers) bound += rr_bound(rr, label_slots);
  for (const auto& rr : msg.authorities) bound += rr_bound(rr, label_slots);
  for (const auto& rr : msg.additionals) bound += rr_bound(rr, label_slots);

  const auto out = arena.alloc_array<std::uint8_t>(bound);
  const auto suffixes = arena.alloc_array<SuffixEntry>(label_slots);
  ArenaEncoder enc(out.data(), suffixes.data());

  enc.u16(msg.header.id);
  std::uint16_t flags = 0;
  if (msg.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(msg.header.opcode) & 0xF) << 11);
  if (msg.header.aa) flags |= 0x0400;
  if (msg.header.tc) flags |= 0x0200;
  if (msg.header.rd) flags |= 0x0100;
  if (msg.header.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(msg.header.rcode) & 0xF;
  enc.u16(flags);
  enc.u16(static_cast<std::uint16_t>(msg.questions.size()));
  enc.u16(static_cast<std::uint16_t>(msg.answers.size()));
  enc.u16(static_cast<std::uint16_t>(msg.authorities.size()));
  enc.u16(static_cast<std::uint16_t>(msg.additionals.size()));
  for (const auto& q : msg.questions) {
    enc.name(q.name);
    enc.u16(static_cast<std::uint16_t>(q.type));
    enc.u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const auto& rr : msg.answers) encode_record(enc, rr);
  for (const auto& rr : msg.authorities) encode_record(enc, rr);
  for (const auto& rr : msg.additionals) encode_record(enc, rr);
  assert(enc.size() <= bound);
  return out.first(enc.size());
}

MessageView make_query(std::uint16_t id, const QuestionView& question,
                       bool recursion_desired) {
  MessageView out;
  out.header.id = id;
  out.header.rd = recursion_desired;
  out.questions = {&question, 1};
  return out;
}

MessageView make_response(const MessageView& query, Rcode rcode) {
  MessageView out;
  out.header.id = query.header.id;
  out.header.qr = true;
  out.header.rd = query.header.rd;
  out.header.rcode = rcode;
  out.questions = query.questions;
  return out;
}

Message materialize(const MessageView& msg) {
  Message out;
  out.header = msg.header;
  out.questions.reserve(msg.questions.size());
  for (const auto& q : msg.questions) {
    Question question;
    question.name = q.name.to_name();
    question.type = q.type;
    question.klass = q.klass;
    out.questions.push_back(std::move(question));
  }
  out.answers.reserve(msg.answers.size());
  for (const auto& rr : msg.answers) out.answers.push_back(rr.to_record());
  out.authorities.reserve(msg.authorities.size());
  for (const auto& rr : msg.authorities) {
    out.authorities.push_back(rr.to_record());
  }
  out.additionals.reserve(msg.additionals.size());
  for (const auto& rr : msg.additionals) {
    out.additionals.push_back(rr.to_record());
  }
  return out;
}

MessageView view_of(WireArena& arena, const Message& msg) {
  MessageView view;
  view.header = msg.header;
  const auto questions = arena.alloc_array<QuestionView>(msg.questions.size());
  for (std::size_t i = 0; i < msg.questions.size(); ++i) {
    questions[i].name = view_of(arena, msg.questions[i].name);
    questions[i].type = msg.questions[i].type;
    questions[i].klass = msg.questions[i].klass;
  }
  view.questions = questions;
  view.answers = view_of(arena, msg.answers);
  view.authorities = view_of(arena, msg.authorities);
  view.additionals = view_of(arena, msg.additionals);
  return view;
}

std::span<RecordView> view_of(WireArena& arena,
                              std::span<const ResourceRecord> rrs) {
  const auto out = arena.alloc_array<RecordView>(rrs.size());
  for (std::size_t i = 0; i < rrs.size(); ++i) out[i] = view_of(arena, rrs[i]);
  return out;
}

}  // namespace odns::dnswire
