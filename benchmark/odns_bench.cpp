// One rep of one end-to-end benchmark workload (benchmark/README.md).
// Every layer is driven through its public functions and timed from
// outside with std::chrono::steady_clock; nothing inside the library is
// instrumented. The rep prints one JSON object on stdout: end-to-end
// and per-layer metrics, the correctness digests, and the benchmark's
// own spans (benchmark/run.py turns those into a Chrome trace).
//
//   odns_bench --workload=NAME --seed=N [--shards=N] [--scale-div=K]
//              [--trace] [--setup-only]
//   odns_bench --self-check --seed=N   step-wise census == run_census
//   odns_bench --ref                   fixed single-thread reference loop
//
// Exit codes: 0 ok, 1 self-check mismatch, 2 malformed flags.

#include <time.h>

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "classify/analysis.hpp"
#include "classify/classify.hpp"
#include "core/attack.hpp"
#include "core/census.hpp"
#include "honeypot/lab.hpp"
#include "registry/registry.hpp"
#include "scan/vantage.hpp"
#include "topo/deployment.hpp"
#include "util/hash.hpp"

using namespace odns;

namespace {

using Clock = std::chrono::steady_clock;

// --- workloads ------------------------------------------------------

struct Workload {
  std::string_view name;
  double scale;
  std::uint32_t shards;
  /// 5% loss plus the full fault plane, answered by 2 scanner retries.
  bool faulted;
  /// Per-host world, classic core::run_census, then the follow-ons.
  bool pipeline;
};

// Why each exists is in benchmark/README.md. Shard counts keep every
// workload at or under 4 threads (shard workers + the coordinator).
constexpr Workload kWorkloads[] = {
    {"census_1m", 0.5, 3, false, false},
    {"census_serial", 0.05, 1, false, false},
    {"census_faulted", 0.05, 2, true, false},
    {"paper_pipeline", 0.05, 1, false, true},
};

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// --- flags ----------------------------------------------------------

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "odns_bench: " << msg << "\n";
  std::exit(2);
}

template <class T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    usage_error("malformed value for " + std::string(flag) + ": '" +
                std::string(text) + "'");
  }
  return value;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 2021;
  std::uint32_t shards = 0;  // 0 = the workload's own
  std::uint32_t scale_div = 1;
  bool trace = false;
  bool setup_only = false;
  bool self_check = false;
  bool ref = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view val =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    const bool has_val = eq != std::string_view::npos;
    auto need_val = [&] {
      if (!has_val) usage_error(std::string(key) + " needs =VALUE");
    };
    auto no_val = [&] {
      if (has_val) usage_error(std::string(key) + " takes no value");
    };
    if (key == "--workload") {
      need_val();
      o.workload = find_workload(val);
      if (o.workload == nullptr) {
        usage_error("unknown workload '" + std::string(val) + "'");
      }
    } else if (key == "--seed") {
      need_val();
      o.seed = parse_number<std::uint64_t>(key, val);
    } else if (key == "--shards") {
      need_val();
      o.shards = parse_number<std::uint32_t>(key, val);
      if (o.shards == 0) usage_error("--shards must be >= 1");
    } else if (key == "--scale-div") {
      need_val();
      o.scale_div = parse_number<std::uint32_t>(key, val);
      if (o.scale_div == 0) usage_error("--scale-div must be >= 1");
    } else if (key == "--trace") {
      no_val();
      o.trace = true;
    } else if (key == "--setup-only") {
      no_val();
      o.setup_only = true;
    } else if (key == "--self-check") {
      no_val();
      o.self_check = true;
    } else if (key == "--ref") {
      no_val();
      o.ref = true;
    } else {
      usage_error("unknown flag '" + std::string(arg) + "'");
    }
  }
  if (!o.ref && !o.self_check && o.workload == nullptr) {
    usage_error("--workload=NAME, --self-check or --ref is required");
  }
  return o;
}

// --- measurement helpers ---------------------------------------------

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A numeric /proc/self/status field (VmRSS and VmHWM in kB, Threads);
/// 0 off Linux.
std::uint64_t proc_status(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with(field) && line.size() > field.size() &&
        line[field.size()] == ':') {
      return std::strtoull(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

double proc_status_mb(std::string_view field) {
  return static_cast<double>(proc_status(field)) / 1024.0;
}

/// Benchmark-side spans around each layer call: name, start, end (both
/// seconds since the rep began) and the enclosing span's id.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// Runs `fn` inside a span nested under the innermost open one and
  /// returns its wall seconds.
  template <class Fn>
  double time(const char* name, Fn&& fn) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    fn();
    open_.pop_back();
    spans_[id].end = now();
    return spans_[id].end - spans_[id].start;
  }

  /// Records time measured in pieces (the per-transaction sink) as one
  /// child span of the innermost open span, starting where it starts.
  void add_summed(const char* name, double seconds) {
    const int parent = open_.empty() ? -1 : open_.back();
    const double start = parent < 0 ? 0.0 : spans_[parent].start;
    spans_.push_back({name, start, start + seconds, parent});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Ordered name → value list; printed as a JSON object.
class Metrics {
 public:
  void set(std::string name, double value) {
    for (auto& [n, v] : items_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    items_.emplace_back(std::move(name), value);
  }
  [[nodiscard]] double get(std::string_view name) const {
    for (const auto& [n, v] : items_) {
      if (n == name) return v;
    }
    return 0.0;
  }
  void write(std::ostream& out) const {
    out << '{';
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out << ", ";
      out << '"' << items_[i].first << "\": " << items_[i].second;
    }
    out << '}';
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t hash_string(std::string_view s) {
  std::uint64_t h = util::kFnv1aBasis;
  for (const char c : s) h = util::fnv1a64(h, static_cast<unsigned char>(c));
  return h;
}

/// Everything the rep's correctness checks read.
struct Digest {
  std::string census;
  std::uint64_t targets = 0;
  std::uint64_t transactions = 0;
  std::uint64_t class_sum = 0;
  std::string amplification;
  std::uint64_t paths = 0;
  std::uint64_t injections = 0;
  std::uint64_t reflections = 0;
  /// Threads alive once the scan ran (shard workers + this one).
  std::uint64_t threads = 0;
};

void digest_census(const classify::Census& census, std::uint64_t targets,
                   std::uint64_t transactions, Digest& d) {
  d.census = hex64(classify::census_fingerprint(census));
  d.targets = targets;
  d.transactions = transactions;
  d.class_sum =
      census.rr + census.rf + census.tf + census.invalid + census.unresponsive;
}

double coverage_of(const classify::Census& c) {
  const double probed =
      static_cast<double>(c.rr + c.rf + c.tf + c.invalid + c.unresponsive);
  return probed == 0.0 ? 1.0 : (probed - static_cast<double>(c.unresponsive)) /
                                   probed;
}

// --- simulator statistics ---------------------------------------------

/// Simulator-wide counts read through its public stats accessors.
struct SimSnapshot {
  std::uint64_t events = 0;
  std::uint64_t route_hits = 0;
  std::uint64_t route_misses = 0;
  double busy_max = 0.0;
  double busy_sum = 0.0;
  std::uint64_t mailbox_in = 0;
  std::uint64_t mailbox_overflows = 0;
  netsim::SimCounters counters;
};

SimSnapshot snapshot(const netsim::Simulator& sim) {
  SimSnapshot s;
  s.events = sim.events_executed();
  const auto& base = sim.net().route_cache_stats();
  s.route_hits = base.hits;
  s.route_misses = base.misses;
  for (std::uint32_t i = 0; i < sim.shard_count(); ++i) {
    const auto& st = sim.shard_stats(i);
    s.busy_max = std::max(s.busy_max, st.busy_seconds);
    s.busy_sum += st.busy_seconds;
    s.mailbox_in += st.mailbox_in;
    s.mailbox_overflows += st.mailbox_overflows;
    if (sim.shard_count() > 1) {
      const auto& rc = sim.shard_route_cache_stats(i);
      s.route_hits += rc.hits;
      s.route_misses += rc.misses;
    }
  }
  s.counters = sim.counters();
  return s;
}

/// Per-layer netsim metrics for one scan phase between two snapshots.
/// `run_s` is the phase's wall time, `cpu_s` the calling thread's CPU
/// time over it and `sink_s` the part of it spent in the classify sink.
/// A single-shard simulator executes on the calling thread and keeps no
/// shard busy time, so its busy time is that thread's CPU time minus
/// the sink; sharded, it is the shards' own execution time.
void netsim_metrics(const SimSnapshot& a, const SimSnapshot& b,
                    std::uint32_t shards, double run_s, double cpu_s,
                    double sink_s, Metrics& m) {
  const double events = static_cast<double>(b.events - a.events);
  double busy_max = b.busy_max - a.busy_max;
  double busy_sum = b.busy_sum - a.busy_sum;
  if (shards == 1) {
    busy_max = cpu_s - sink_s;
    busy_sum = busy_max;
  }
  const double lookups = static_cast<double>(
      (b.route_hits - a.route_hits) + (b.route_misses - a.route_misses));
  m.set("netsim.events", events);
  m.set("netsim.ns_per_event",
        events == 0.0 ? 0.0 : (shards == 1 ? run_s : busy_sum) * 1e9 / events);
  m.set("netsim.busy_max_s", busy_max);
  m.set("netsim.busy_sum_s", busy_sum);
  m.set("netsim.imbalance",
        busy_sum == 0.0 ? 0.0 : busy_max * shards / busy_sum);
  m.set("netsim.wait_s", run_s - busy_max - sink_s);
  m.set("netsim.parallel_eff", run_s == 0.0 ? 0.0 : busy_sum / (shards * run_s));
  m.set("netsim.mailbox_in", static_cast<double>(b.mailbox_in - a.mailbox_in));
  m.set("netsim.mailbox_overflows",
        static_cast<double>(b.mailbox_overflows - a.mailbox_overflows));
  m.set("netsim.route_lookups", lookups);
  m.set("netsim.route_miss_ratio",
        lookups == 0.0
            ? 0.0
            : static_cast<double>(b.route_misses - a.route_misses) / lookups);
  const auto& ca = a.counters;
  const auto& cb = b.counters;
  m.set("netsim.sent", static_cast<double>(cb.sent - ca.sent));
  m.set("netsim.delivered", static_cast<double>(cb.delivered - ca.delivered));
  m.set("netsim.dropped_loss",
        static_cast<double>(cb.dropped_loss - ca.dropped_loss));
  m.set("netsim.jittered", static_cast<double>(cb.jittered - ca.jittered));
  m.set("netsim.reordered", static_cast<double>(cb.reordered - ca.reordered));
  m.set("netsim.duplicated",
        static_cast<double>(cb.duplicated - ca.duplicated));
  m.set("netsim.corrupted", static_cast<double>(cb.corrupted - ca.corrupted));
}

void scanner_metrics(const scan::ScannerStats& s, std::uint64_t answered,
                     Metrics& m) {
  m.set("scan.probes_sent", static_cast<double>(s.probes_sent));
  m.set("scan.probes_retried", static_cast<double>(s.probes_retried));
  m.set("scan.responses_received", static_cast<double>(s.responses_received));
  m.set("scan.responses_duplicate",
        static_cast<double>(s.responses_duplicate));
  m.set("scan.responses_late", static_cast<double>(s.responses_late));
  m.set("scan.responses_corrupt", static_cast<double>(s.responses_corrupt));
  const double attempts =
      static_cast<double>(s.probes_sent + s.probes_retried);
  m.set("scan.useful_ratio",
        attempts == 0.0 ? 0.0 : static_cast<double>(answered) / attempts);
}

// --- the census workloads: core::run_census's streaming branch, step
// by step --------------------------------------------------------------

core::CensusConfig census_config(const Workload& w, const Options& o,
                                 double scale) {
  core::CensusConfig cfg;
  cfg.topology.scale = scale;
  cfg.topology.seed = o.seed;
  cfg.topology.sim.seed = o.seed;
  cfg.sim_shards = o.shards > 0 ? o.shards : w.shards;
  cfg.topology.sim.shards = cfg.sim_shards;
  if (w.pipeline) return cfg;  // the classic census defaults
  cfg.topology.bulk_population = true;
  cfg.topology.eyeball_as_multiplier = 4.0;
  cfg.shard_interleaved_targets = true;
  cfg.vantages = cfg.sim_shards;
  cfg.streaming_correlation = true;
  cfg.retain_transactions = false;
  cfg.scan_timeout = util::Duration::seconds(2);
  cfg.probes_per_second = 100000;
  cfg.correlate_flush = util::Duration::millis(250);
  if (w.faulted) {
    auto& sim = cfg.topology.sim;
    sim.loss_rate = 0.05;
    sim.faults.jitter_rate = 0.3;
    sim.faults.jitter_max = util::Duration::millis(5);
    sim.faults.reorder_rate = 0.15;
    sim.faults.dup_rate = 0.1;
    sim.faults.corrupt_rate = 0.05;
    cfg.scan_max_retries = 2;
    cfg.scan_retry_backoff = util::Duration::millis(500);
  }
  return cfg;
}

/// The streaming census as run_census performs it, one public layer
/// call per span. With `setup_only`, stops once the probe plan is
/// scheduled.
void stepwise_census(const core::CensusConfig& cfg, bool trace,
                              bool setup_only, Spans& spans, Metrics& m,
                              Digest& d) {
  std::unique_ptr<topo::Deployment> world;
  registry::RegistrySnapshot registry;
  std::vector<util::Ipv4> targets;
  std::unique_ptr<scan::VantageSet> vantages;

  const double setup_s = spans.time("setup", [&] {
    m.set("topo.build_s", spans.time("topo.build", [&] {
      world = topo::TopologyBuilder::build(cfg.topology);
    }));
    m.set("topo.rss_mb", proc_status_mb("VmRSS"));
    m.set("registry.derive_s", spans.time("registry.derive", [&] {
      registry = registry::RegistrySnapshot::derive(*world, cfg.registry);
    }));
    m.set("core.partition_s", spans.time("core.partition", [&] {
      targets = world->scan_targets();
      auto& sim = world->sim();
      if (sim.shard_count() == 1) return;
      // run_census's weighted partition with serving-cost weights.
      std::vector<std::uint64_t> weights(netsim::Simulator::kVirtualShards, 0);
      for (const auto& gt : world->ground_truth()) {
        weights[sim.virtual_shard_of(gt.addr)] +=
            gt.kind == topo::OdnsKind::recursive_resolver ? 1 : 2;
      }
      sim.set_partition_load_hints(std::move(weights));
    }));
    std::vector<netsim::HostId> members;
    m.set("honeypot.attach_s", spans.time("honeypot.attach", [&] {
      members = honeypot::attach_capture_vantages(*world, cfg.vantages);
    }));
    m.set("scan.plan_s", spans.time("scan.plan", [&] {
      scan::ScanConfig sc;
      sc.qname = world->scan_name();
      sc.timeout = cfg.scan_timeout;
      sc.probes_per_second = cfg.probes_per_second;
      sc.shard_interleave = cfg.shard_interleaved_targets;
      sc.max_retries = cfg.scan_max_retries;
      sc.backoff_base = cfg.scan_retry_backoff;
      vantages = std::make_unique<scan::VantageSet>(
          world->sim(), sc, world->scanner_addr(), std::move(members));
      vantages->start(targets);
    }));
  });
  m.set("setup_s", setup_s);
  m.set("topo.hosts", static_cast<double>(world->ground_truth().size()));
  m.set("topo.ases", static_cast<double>(world->asn_country_.size()));
  if (setup_only) return;

  auto& sim = world->sim();
  classify::ClassifyConfig cc;
  cc.control_addr = world->control_addr();
  cc.strict_two_records = cfg.strict_validation;
  classify::CensusAccumulator acc(registry);
  classify::Census census;
  scan::VantageSet::StreamStats stream;
  std::uint64_t transactions = 0;
  double sink_s = 0.0;
  double run_cpu_s = 0.0;
  const SimSnapshot before = snapshot(sim);

  const double scan_s = spans.time("scan", [&] {
    m.set("scan.run_s", spans.time("scan.run", [&] {
      const double cpu0 = thread_cpu_seconds();
      stream = vantages->run_and_correlate_streaming(
          cfg.correlate_flush, [&](std::size_t, scan::Transaction&& txn) {
            ++transactions;
            const auto t0 = trace ? Clock::now() : Clock::time_point{};
            classify::Classified item;
            item.klass = classify::classify_one(txn, cc);
            item.txn = std::move(txn);
            acc.add(item);
            if (trace) {
              sink_s += std::chrono::duration<double>(Clock::now() - t0)
                            .count();
            }
          });
      run_cpu_s = thread_cpu_seconds() - cpu0;
      d.threads = proc_status("Threads");
      if (trace) spans.add_summed("classify.sink", sink_s);
    }));
    m.set("classify.finish_s", spans.time("classify.finish", [&] {
      census = acc.finish();
    }));
  });
  const SimSnapshot after = snapshot(sim);

  m.set("scan_s", scan_s);
  m.set("core.census_s", setup_s + scan_s);
  m.set("rep_s", setup_s + scan_s);
  m.set("hosts_per_s", static_cast<double>(targets.size()) / (setup_s + scan_s));
  m.set("coverage", coverage_of(census));
  m.set("classify.sink_s", sink_s);
  m.set("scan.flushes", static_cast<double>(stream.flushes));
  m.set("scan.peak_pending_probes",
        static_cast<double>(stream.peak_pending_probes));
  m.set("scan.peak_buffered_records",
        static_cast<double>(stream.peak_buffered_records));
  scanner_metrics(vantages->stats(),
                  census.rr + census.rf + census.tf + census.invalid, m);
  netsim_metrics(before, after, sim.shard_count(), m.get("scan.run_s"),
                 run_cpu_s, sink_s, m);
  digest_census(census, targets.size(), transactions, d);
}

// --- paper_pipeline: the product call and its follow-ons ---------------

void paper_pipeline(const core::CensusConfig& cfg, bool setup_only,
                    Spans& spans, Metrics& m, Digest& d) {
  // core::run_census builds its own world, so the set-up phase (world
  // build + registry derive) is timed on an identical stand-alone build
  // that is dropped before the census starts.
  const double setup_s = spans.time("setup", [&] {
    std::unique_ptr<topo::Deployment> world;
    m.set("topo.build_s", spans.time("topo.build", [&] {
      world = topo::TopologyBuilder::build(cfg.topology);
    }));
    m.set("topo.rss_mb", proc_status_mb("VmRSS"));
    m.set("topo.hosts", static_cast<double>(world->ground_truth().size()));
    m.set("topo.ases", static_cast<double>(world->asn_country_.size()));
    m.set("registry.derive_s", spans.time("registry.derive", [&] {
      const auto registry =
          registry::RegistrySnapshot::derive(*world, cfg.registry);
    }));
  });
  m.set("setup_s", setup_s);
  if (setup_only) return;

  core::CensusResult result;
  double cpu_s = 0.0;
  const double census_s = spans.time("core.census", [&] {
    const double cpu0 = thread_cpu_seconds();
    result = core::run_census(cfg);
    cpu_s = thread_cpu_seconds() - cpu0;
    d.threads = proc_status("Threads");
  });
  auto& sim = result.world->sim();
  const std::uint64_t targets = result.classified.size();
  m.set("core.census_s", census_s);
  m.set("scan_s", census_s);
  m.set("scan.run_s", census_s);
  m.set("hosts_per_s", static_cast<double>(targets) / census_s);
  m.set("coverage", result.degradation.coverage());
  scanner_metrics(result.degradation.scan,
                  result.degradation.targets_answered, m);
  netsim_metrics(SimSnapshot{}, snapshot(sim), sim.shard_count(), census_s,
                 cpu_s, 0.0, m);
  digest_census(result.census, result.world->scan_targets().size(),
                result.transactions.size(), d);

  m.set("classify.reanalyze_s", spans.time("classify.reanalyze", [&] {
    [[maybe_unused]] const auto relaxed =
        core::reanalyze(result, /*strict_validation=*/false);
  }));

  auto events_over = [&](const char* span, auto&& fn) {
    const std::uint64_t e0 = sim.events_executed();
    const double s = spans.time(span, fn);
    const double events = static_cast<double>(sim.events_executed() - e0);
    return std::pair{s, events == 0.0 ? 0.0 : s * 1e9 / events};
  };

  const auto [campaign_s, campaign_ns] = events_over("campaign.run", [&] {
    const auto campaign = core::run_campaign(
        *result.world, scan::CampaignKind::shadowserver,
        util::Prefix{util::Ipv4{198, 18, 50, 0}, 24},
        result.world->scan_targets());
    m.set("campaign.discovered",
          static_cast<double>(campaign->discovered().size()));
  });
  m.set("campaign.run_s", campaign_s);
  m.set("campaign.ns_per_event", campaign_ns);

  const auto [dnsroute_s, dnsroute_ns] = events_over("dnsroute.run", [&] {
    const auto routes = core::run_dnsroute(result);
    d.paths = routes.paths.size();
  });
  m.set("dnsroute.run_s", dnsroute_s);
  m.set("dnsroute.paths", static_cast<double>(d.paths));
  m.set("dnsroute.ns_per_event", dnsroute_ns);

  const auto [attack_s, attack_ns] = events_over("attack.run", [&] {
    core::AttackScenarioConfig attack;
    attack.attackers = 2;
    attack.victims = 2;
    attack.max_reflectors = 0;
    attack.amp_txt_bytes = 1024;
    const auto out = core::run_attack_scenario(result, attack);
    d.amplification = hex64(hash_string(out.report.fingerprint()));
    d.injections = out.injections.size();
    d.reflections = out.reflections.size();
  });
  m.set("attack.run_s", attack_s);
  m.set("attack.injections", static_cast<double>(d.injections));
  m.set("attack.reflections", static_cast<double>(d.reflections));
  m.set("attack.ns_per_event", attack_ns);

  const auto cache = result.world->aggregate_resolver_cache_stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  m.set("nodes.resolver_cache_hit_ratio",
        lookups == 0.0 ? 0.0 : static_cast<double>(cache.hits) / lookups);
  m.set("rep_s", census_s + m.get("classify.reanalyze_s") + campaign_s +
                     dnsroute_s + attack_s);
}

// --- output -----------------------------------------------------------

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

/// Seconds the sink's per-transaction instrumentation costs (two clock
/// reads), timed over a calibration loop.
double clock_pair_seconds() {
  constexpr int kPairs = 1'000'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    [[maybe_unused]] const auto a = Clock::now();
    [[maybe_unused]] const auto b = Clock::now();
  }
  return std::chrono::duration<double>(Clock::now() - t0).count() / kPairs;
}

void print_rep(const Options& o, const Metrics& m, const Digest& d,
               const Spans& spans, double trace_cost_s) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"workload\": ";
  write_json_string(out, o.workload->name);
  out << ", \"seed\": " << o.seed << ", \"trace_cost_s\": " << trace_cost_s
      << ", \"metrics\": ";
  m.write(out);
  out << ", \"digest\": {\"census\": ";
  write_json_string(out, d.census);
  out << ", \"targets\": " << d.targets
      << ", \"transactions\": " << d.transactions
      << ", \"class_sum\": " << d.class_sum << ", \"amplification\": ";
  write_json_string(out, d.amplification);
  out << ", \"paths\": " << d.paths << ", \"injections\": " << d.injections
      << ", \"reflections\": " << d.reflections
      << ", \"threads\": " << d.threads << "}, \"spans\": [";
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"id\": " << i << ", \"parent\": " << all[i].parent
        << ", \"name\": ";
    write_json_string(out, all[i].name);
    out << ", \"start\": " << all[i].start << ", \"end\": " << all[i].end
        << '}';
  }
  out << "]}\n";
  std::cout << out.str() << std::flush;
}

int run_rep(const Options& o) {
  const Workload& w = *o.workload;
  const auto cfg = census_config(w, o, w.scale / o.scale_div);
  Spans spans;
  Metrics m;
  Digest d;
  if (w.pipeline) {
    paper_pipeline(cfg, o.setup_only, spans, m, d);
  } else {
    stepwise_census(cfg, o.trace, o.setup_only, spans, m, d);
  }
  m.set("peak_rss_mb", proc_status_mb("VmHWM"));
  // Tracing adds only the sink's clock reads, once per streamed
  // transaction; paper_pipeline's census has no sink to instrument.
  const double trace_cost_s =
      o.trace && !w.pipeline
          ? static_cast<double>(d.transactions) * clock_pair_seconds()
          : 0.0;
  print_rep(o, m, d, spans, trace_cost_s);
  return 0;
}

/// The step-wise census driver must stay the product path: on every
/// census workload's settings at scale 0.01, its fingerprint equals
/// core::run_census's.
int self_check(const Options& o) {
  bool ok = true;
  std::cout << "{\"self_check\": [";
  bool first = true;
  for (const auto& w : kWorkloads) {
    if (w.pipeline) continue;
    const auto cfg = census_config(w, o, 0.01);
    Spans spans;
    Metrics m;
    Digest d;
    stepwise_census(cfg, false, false, spans, m, d);
    const std::string product =
        hex64(classify::census_fingerprint(core::run_census(cfg).census));
    ok = ok && d.census == product;
    std::cout << (first ? "" : ", ") << "{\"workload\": \"" << w.name
              << "\", \"stepwise\": \"" << d.census
              << "\", \"run_census\": \"" << product << "\"}";
    first = false;
  }
  std::cout << "], \"ok\": " << (ok ? "true" : "false") << "}\n";
  return ok ? 0 : 1;
}

/// Fixed single-thread integer work (~0.5 s on a 2020s x86 core): its
/// time tracks the machine's current speed, not the program's.
int reference_loop() {
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> table(1 << 16);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < 200'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 0xFFFF] += x;
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::uint64_t sum = 0;
  for (const auto v : table) sum += v;
  std::cout.precision(12);
  std::cout << "{\"ref_s\": " << s << ", \"checksum\": " << (sum & 0xFFFF)
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  if (o.ref) return reference_loop();
  if (o.self_check) return self_check(o);
  return run_rep(o);
}
