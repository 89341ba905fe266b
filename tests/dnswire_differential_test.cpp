// Round-trip proof for the DNS wire codec (dnswire/arena_codec.hpp)
// over large seeded corpora:
//
//   encode → decode_into → materialize()  == the message's fields
//   encode → decode_into → encode_into    == the same bytes
//
// The corpus (test::corpus in testutil.hpp) is adversarial on purpose:
// shared suffixes and mixed-case owners (compression pointers with
// case-folded keys), OPT pseudo-records, RawRecords of unmodeled types,
// empty sections, and every header flag randomized. 10k+ cases across
// independent seeds. tests/golden_test.cpp pins the encoded bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/arena_codec.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace odns {
namespace {

using dnswire::Message;
using dnswire::Name;
using dnswire::ResourceRecord;
using dnswire::RrType;
using dnswire::WireArena;

/// One corpus element through the codec and back.
void check_case(const Message& msg, int iter) {
  const std::vector<std::uint8_t> wire = dnswire::encode(msg);
  WireArena rx;
  auto view = dnswire::decode_into(rx, wire);
  ASSERT_TRUE(view.ok()) << "iteration " << iter;

  const Message expected = test::corpus::on_the_wire(msg);
  const Message mat = dnswire::materialize(view.value());
  EXPECT_EQ(mat.header.id, expected.header.id);
  EXPECT_EQ(mat.header.qr, expected.header.qr);
  EXPECT_EQ(mat.header.opcode, expected.header.opcode);
  EXPECT_EQ(mat.header.aa, expected.header.aa);
  EXPECT_EQ(mat.header.tc, expected.header.tc);
  EXPECT_EQ(mat.header.rd, expected.header.rd);
  EXPECT_EQ(mat.header.ra, expected.header.ra);
  EXPECT_EQ(mat.header.rcode, expected.header.rcode);
  EXPECT_EQ(mat.questions, expected.questions) << iter;
  EXPECT_EQ(mat.answers, expected.answers) << iter;
  EXPECT_EQ(mat.authorities, expected.authorities) << iter;
  EXPECT_EQ(mat.additionals, expected.additionals) << iter;

  WireArena tx;
  const auto again = dnswire::encode_into(tx, view.value());
  ASSERT_EQ(again.size(), wire.size()) << "iteration " << iter;
  EXPECT_TRUE(std::equal(again.begin(), again.end(), wire.begin()))
      << "iteration " << iter;
}

TEST(DnswireDifferential, TenThousandSeededCasesAgreeByteForByte) {
  for (const auto seed : test::corpus::kSeeds) {
    util::Rng rng(seed);
    for (int iter = 0; iter < test::corpus::kMessagesPerSeed; ++iter) {
      const Message msg = test::corpus::random_message(rng);
      check_case(msg, iter);
      if (HasFatalFailure()) {
        FAIL() << "seed " << seed << " iteration " << iter;
      }
    }
  }
}

TEST(DnswireDifferential, CompressionPointerShapesAgree) {
  // Deterministic worst-case pointer shapes: the mirror answer (owner
  // equals the echoed question), pointer chains through earlier
  // answers, and ["a.b", ...] beside ["a","b", ...]: the two print
  // alike but compare label by label, so neither may point at the
  // other and check_case requires both to decode intact.
  const Name q = *Name::parse("scan.ODNS-study.net");
  Message msg;
  msg.header.id = 0x4242;
  msg.header.qr = true;
  msg.header.aa = true;
  msg.questions.push_back({q, RrType::a});
  msg.answers.push_back(
      ResourceRecord::a(*Name::parse("SCAN.odns-study.NET"),
                        util::Ipv4{10, 0, 0, 1}, 300));
  msg.answers.push_back(ResourceRecord::a(
      *Name::parse("deep.scan.odns-study.net"), util::Ipv4{10, 0, 0, 2}, 300));
  msg.answers.push_back(ResourceRecord::cname(
      *Name::parse("odns-study.net"), *Name::parse("net"), 300));
  msg.authorities.push_back(ResourceRecord::soa(
      *Name::parse("odns-study.net"), *Name::parse("ns1.odns-study.net"), 7,
      300));
  const auto dotted = *Name::from_labels({"a.b", "scan", "odns-study", "net"});
  const auto split = *Name::from_labels({"a", "b", "scan", "odns-study", "net"});
  msg.additionals.push_back(
      ResourceRecord::a(dotted, util::Ipv4{10, 0, 0, 3}, 60));
  msg.additionals.push_back(
      ResourceRecord::a(split, util::Ipv4{10, 0, 0, 4}, 60));
  ASSERT_NE(dotted, split);
  check_case(msg, /*iter=*/-1);
}

TEST(DnswireDifferential, EmptyAndHeaderOnlyMessagesAgree) {
  Message msg;  // header-only, all sections empty
  check_case(msg, /*iter=*/-2);
  msg.header.qr = true;
  msg.header.rcode = dnswire::Rcode::refused;
  check_case(msg, /*iter=*/-3);
}

}  // namespace
}  // namespace odns
