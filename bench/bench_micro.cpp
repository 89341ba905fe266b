// Microbenchmarks for the hot paths: DNS wire codec, transaction
// correlation, event-queue throughput, resolver cache, and
// longest-prefix matching. These bound the scanner's achievable probe
// rates (the paper's setup sustains 20k pps at the auth server).

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "dnswire/arena.hpp"
#include "dnswire/arena_codec.hpp"
#include "dnswire/codec.hpp"
#include "netsim/event_queue.hpp"
#include "nodes/cache.hpp"
#include "registry/registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace odns;
using util::Ipv4;

dnswire::Message mirror_response() {
  auto query = dnswire::make_query(
      0x4242, *dnswire::Name::parse("scan.odns-study.net"), dnswire::RrType::a);
  auto resp = dnswire::make_response(query);
  resp.header.aa = true;
  const auto name = *dnswire::Name::parse("scan.odns-study.net");
  resp.answers.push_back(
      dnswire::ResourceRecord::a(name, Ipv4{74, 125, 0, 10}, 300));
  resp.answers.push_back(
      dnswire::ResourceRecord::a(name, Ipv4{198, 51, 100, 200}, 300));
  return resp;
}

// The wire codec (docs/architecture.md, "The DNS wire codec"): messages
// decoded/encoded through a warmed WireArena that is reset per message
// — the serving-loop shape, where the steady state does zero heap
// allocations (the property tests/alloc_audit_test.cpp enforces).

void BM_ArenaEncodeMirrorResponse(benchmark::State& state) {
  dnswire::WireArena view_arena;
  const auto view = dnswire::view_of(view_arena, mirror_response());
  dnswire::WireArena tx;
  for (auto _ : state) {
    tx.reset();
    benchmark::DoNotOptimize(dnswire::encode_into(tx, view));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ArenaEncodeMirrorResponse);

void BM_ArenaDecodeMirrorResponse(benchmark::State& state) {
  const auto wire = dnswire::encode(mirror_response());
  dnswire::WireArena rx;
  for (auto _ : state) {
    rx.reset();
    auto decoded = dnswire::decode_into(rx, wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_ArenaDecodeMirrorResponse);

/// The full serving unit — decode the query, echo it as a two-record
/// mirror response, encode: the per-message cost a census auth server
/// pays at 20k pps.
void BM_ArenaServeMirror(benchmark::State& state) {
  const auto query_wire = dnswire::encode(dnswire::make_query(
      0x4242, *dnswire::Name::parse("scan.odns-study.net"),
      dnswire::RrType::a));
  dnswire::WireArena rx;
  dnswire::WireArena tx;
  for (auto _ : state) {
    rx.reset();
    tx.reset();
    auto parsed = dnswire::decode_into(rx, query_wire);
    const auto& q = parsed.value();
    auto answers = tx.alloc_array<dnswire::RecordView>(2);
    answers[0].name = q.questions.front().name;
    answers[0].type = dnswire::RrType::a;
    answers[0].ttl = 300;
    answers[0].rdata.tag = dnswire::RdataView::Tag::a;
    answers[0].rdata.a_addr = Ipv4{74, 125, 0, 10};
    answers[1] = answers[0];
    answers[1].rdata.a_addr = Ipv4{198, 51, 100, 200};
    dnswire::MessageView resp;
    resp.header.id = q.header.id;
    resp.header.qr = true;
    resp.header.aa = true;
    resp.header.rd = q.header.rd;
    resp.questions = q.questions;
    resp.answers = answers;
    benchmark::DoNotOptimize(dnswire::encode_into(tx, resp));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ArenaServeMirror);

void BM_DecodeCompressedNames(benchmark::State& state) {
  auto resp = mirror_response();
  const auto name = *dnswire::Name::parse("scan.odns-study.net");
  for (int i = 0; i < state.range(0); ++i) {
    resp.answers.push_back(
        dnswire::ResourceRecord::a(name, Ipv4{10, 0, 0, 1}, 60));
  }
  const auto wire = dnswire::encode(resp);
  dnswire::WireArena rx;
  for (auto _ : state) {
    rx.reset();
    auto decoded = dnswire::decode_into(rx, wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeCompressedNames)->Arg(4)->Arg(16)->Arg(64);

/// Counts timer firings: the cheapest possible event handler, so the
/// queue's own scheduling cost dominates.
class CountingTimer : public netsim::TimerTarget {
 public:
  void on_timer(std::uint64_t, std::uint64_t) override { ++count; }
  std::uint64_t count = 0;
};

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    netsim::EventQueue q;
    CountingTimer timer;
    for (int i = 0; i < state.range(0); ++i) {
      q.schedule_timer(util::SimTime::from_nanos(i % 1000), &timer, 0, 0);
    }
    q.run();
    benchmark::DoNotOptimize(timer.count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

void BM_CacheLookup(benchmark::State& state) {
  nodes::DnsCache cache;
  const auto now = util::SimTime::origin();
  std::vector<dnswire::Name> names;
  for (int i = 0; i < 1024; ++i) {
    auto name = *dnswire::Name::parse("h" + std::to_string(i) + ".example");
    const auto rr = dnswire::ResourceRecord::a(name, Ipv4{10, 0, 0, 1}, 3600);
    dnswire::WireArena arena;
    const auto view = dnswire::view_of(arena, rr);
    cache.put(dnswire::wire_key(name, dnswire::RrType::a), {&view, 1}, now);
    names.push_back(std::move(name));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(
        dnswire::wire_key(names[i++ & 1023], dnswire::RrType::a), now));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookup);

void BM_CorrelatorJoin(benchmark::State& state) {
  // Offline correlation cost per captured response (the paper's
  // "lightweight post-analysis" claim).
  const auto n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    std::unordered_map<std::uint32_t, std::uint32_t> tuples;
    tuples.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      tuples.emplace(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i));
    }
    state.ResumeTiming();
    std::uint64_t matched = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      matched += tuples.count(static_cast<std::uint32_t>(i));
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CorrelatorJoin)->Arg(10000)->Arg(100000);

void BM_LongestPrefixMatch(benchmark::State& state) {
  registry::RouteviewsTable table;
  util::Rng rng{3};
  for (int i = 0; i < 50000; ++i) {
    const auto addr =
        Ipv4{static_cast<std::uint32_t>(rng.uniform(0x14000000, 0x49FFFFFF))};
    table.add(util::Prefix{addr, 24}, static_cast<netsim::Asn>(i));
  }
  std::vector<Ipv4> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(
        Ipv4{static_cast<std::uint32_t>(rng.uniform(0x14000000, 0x49FFFFFF))});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.origin_of(probes[i++ & 1023]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LongestPrefixMatch);

void BM_RateLimiter(benchmark::State& state) {
  nodes::PrefixRateLimiter limiter;
  util::Rng rng{5};
  std::int64_t t = 0;
  for (auto _ : state) {
    const auto src =
        Ipv4{static_cast<std::uint32_t>(rng.uniform(0x14000000, 0x14FFFFFF))};
    benchmark::DoNotOptimize(
        limiter.allow(src, util::SimTime::from_nanos(t += 1000)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RateLimiter);

}  // namespace

BENCHMARK_MAIN();
