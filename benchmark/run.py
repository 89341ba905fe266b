#!/usr/bin/env python3
"""End-to-end census benchmark: builds odns_bench, runs workloads in fresh
child processes, checks their outputs and prints every metric by name.

  python3 benchmark/run.py                      5 rounds of all workloads + a traced round
  python3 benchmark/run.py --workload census_1m --seed 7 --seconds 30 --trace 0
  python3 benchmark/run.py --save out/mine.json --compare BASE.json
  python3 benchmark/run.py --record-goldens     (re)write goldens.json
  python3 benchmark/run.py --self-check         step-wise census == core::run_census
  python3 benchmark/run.py --smoke              every scale / 50, one round, < 60 s

Metric names, units, directions and bounds come from BENCHMARK.json at the
repository root; the goldens from goldens.json next to this file. See
README.md for what each workload and metric means.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BIN = os.path.join(BUILD, "odns_bench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
GOLDENS_PATH = os.path.join(HERE, "goldens.json")
WORKLOADS = ["census_1m", "census_serial", "census_faulted", "paper_pipeline"]
GOLDEN_SEEDS = [2021, 7]
SMOKE_SCALE_DIV = 50
ROUNDS = 5
CHILD_TIMEOUT_S = 170
# A driver-mode run takes at least this many set-up samples.
MIN_SETUP_SAMPLES = 3


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build and children ------------------------------------------------


def build():
    """Configures once, then lets cmake rebuild whatever changed."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def child(args):
    """Runs odns_bench once and returns its JSON output."""
    try:
        proc = subprocess.run([BIN] + args, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("odns_bench %s timed out" % " ".join(args)) from exc
    if proc.returncode not in (0, 1):
        raise BenchError("odns_bench %s exited %d: %s" %
                         (" ".join(args), proc.returncode, proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("odns_bench %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def rep(workload, seed, trace=False, setup_only=False, shards=0, scale_div=1):
    args = ["--workload=" + workload, "--seed=%d" % seed]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    if shards:
        args.append("--shards=%d" % shards)
    if scale_div != 1:
        args.append("--scale-div=%d" % scale_div)
    start = time.monotonic()
    out = child(args)
    out["wall_s"] = time.monotonic() - start
    return out


def reference_s():
    return child(["--ref"])["ref_s"]


# --- correctness -------------------------------------------------------


def load_json(path):
    with open(path) as f:
        return json.load(f)


def golden_fields(out):
    d = out["digest"]
    fields = {"census": d["census"], "targets": d["targets"]}
    if out["workload"] == "paper_pipeline":
        for key in ("amplification", "paths", "injections", "reflections"):
            fields[key] = d[key]
    return fields


def check_rep(out, goldens):
    """Returns the list of problems with one rep's outputs (empty = correct).

    Every seed gets the structural checks; a seed with a recorded golden
    must also reproduce it exactly."""
    d = out["digest"]
    problems = []
    if d["targets"] == 0:
        problems.append("no targets")
    if d["transactions"] != d["targets"]:
        problems.append("%d transactions for %d targets" % (d["transactions"], d["targets"]))
    if d["class_sum"] != d["targets"]:
        problems.append("class counts sum to %d, not %d" % (d["class_sum"], d["targets"]))
    if out["workload"] == "paper_pipeline":
        if d["paths"] == 0:
            problems.append("DNSRoute++ traced no paths")
        if d["injections"] != d["reflections"]:
            problems.append("%d injections but %d reflections" % (d["injections"], d["reflections"]))
    if d["threads"] > (os.cpu_count() or 1):
        log("warning: %s ran %d threads on %d cores" % (out["workload"], d["threads"], os.cpu_count()))
    golden = goldens.get(out["workload"], {}).get(str(out["seed"])) if goldens else None
    if golden is not None:
        got = golden_fields(out)
        for key, want in golden.items():
            if got.get(key) != want:
                problems.append("golden %s: got %s, want %s" % (key, got.get(key), want))
    return problems


# --- statistics ---------------------------------------------------------


def summary(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": 1}
    q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2], "n": len(values)}


def spread(s):
    return (s["p75"] - s["p25"]) / s["median"] if s["median"] else 0.0


def self_times(outs):
    """Median self time per span name: duration minus its children's."""
    per_name = {}
    for out in outs:
        spans = out["spans"]
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_s[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            per_name.setdefault(s["name"], []).append(s["end"] - s["start"] - child_s[s["id"]])
    return {name: statistics.median(v) for name, v in per_name.items()}


def write_trace(workload, outs):
    """Chrome trace-event JSON of the benchmark's spans, one tid per rep."""
    os.makedirs(OUT, exist_ok=True)
    events = []
    for rep_id, out in enumerate(outs):
        for s in out["spans"]:
            events.append({"name": s["name"], "cat": workload, "ph": "X", "pid": 1,
                           "tid": rep_id, "ts": s["start"] * 1e6,
                           "dur": (s["end"] - s["start"]) * 1e6,
                           "args": {"id": s["id"], "parent": s["parent"], "rep": rep_id}})
    path = os.path.join(OUT, "trace_%s.json" % workload)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return path


# --- driver mode: one workload for a fixed time --------------------------


def driver_run(spec, goldens, args):
    """One workload for --seconds: full reps while the next is expected to
    fit, then set-up-only reps, each in a fresh process. End-to-end values
    are medians over the reps; setup_s is the median over every set-up."""
    deadline = time.monotonic() + args.seconds
    ref_s = reference_s()
    full = []

    def fits(samples):
        return time.monotonic() + max(s["wall_s"] for s in samples) <= deadline

    while not full or fits(full):
        full.append(rep(args.workload, args.seed, trace=bool(args.trace)))
    setups = [out["metrics"]["setup_s"] for out in full]
    probes = []
    while not args.trace and (len(setups) < MIN_SETUP_SAMPLES or (probes and fits(probes))):
        probes.append(rep(args.workload, args.seed, setup_only=True))
        setups.append(probes[-1]["metrics"]["setup_s"])

    attempted = failed = 0
    for out in full:
        problems = check_rep(out, goldens)
        attempted += out["digest"]["targets"]
        if problems:
            failed += out["digest"]["targets"]
            log("%s seed %d: %s" % (args.workload, args.seed, "; ".join(problems)))
    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            if m["name"] == "host.ref_s":
                value = ref_s
            else:
                value = statistics.median(out["metrics"].get(m["name"], 0.0) for out in full)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        path = write_trace(args.workload, full)
        print("trace: %s" % os.path.relpath(path, ROOT))
        for name, s in sorted(self_times(full).items()):
            print("self  %-22s %10.4f s" % (name, s))
    else:
        for m in spec["end_to_end"]:
            values = setups if m["name"] == "setup_s" else [out["metrics"][m["name"]] for out in full]
            value = statistics.median(values)
            if not value:
                raise BenchError("%s read 0 on %s" % (m["name"], args.workload))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print("%s seed %d: %d full reps, %d set-ups, host.ref_s %.4f" %
          (args.workload, args.seed, len(full), len(setups), ref_s))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# --- full protocol: rounds over every workload ---------------------------


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def compiler():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    ver = subprocess.run([path, "--version"], capture_output=True, text=True)
                    return ver.stdout.splitlines()[0] if ver.stdout else path
    return "unknown"


def protocol(spec, goldens, args):
    rounds = 1 if args.smoke else ROUNDS
    scale_div = SMOKE_SCALE_DIV if args.smoke else 1
    use_goldens = None if args.smoke else goldens
    reps = {w: [] for w in WORKLOADS}
    refs = []
    problems = []
    for r in range(rounds):
        refs.append(reference_s())
        order = WORKLOADS[r % len(WORKLOADS):] + WORKLOADS[:r % len(WORKLOADS)]
        for w in order:
            out = rep(w, args.seed, scale_div=scale_div)
            reps[w].append(out)
            problems += ["%s round %d: %s" % (w, r, p) for p in check_rep(out, use_goldens)]
            log("round %d %-15s %6.1f s" % (r, w, out["wall_s"]))
    traced = {}
    if not args.smoke:
        for w in WORKLOADS:
            traced[w] = rep(w, args.seed, trace=True)
            problems += ["%s traced: %s" % (w, p) for p in check_rep(traced[w], use_goldens)]
            write_trace(w, [traced[w]])

    result = {"meta": {"seed": args.seed, "rounds": rounds, "nproc": os.cpu_count(),
                       "compiler": compiler(), "git_sha": git_sha(),
                       "machine": platform.machine(), "host.ref_s": summary(refs)},
              "workloads": {}}
    print("host.ref_s  median %.4f  p25 %.4f  p75 %.4f  n %d" %
          tuple(result["meta"]["host.ref_s"][k] for k in ("median", "p25", "p75", "n")))
    for w in WORKLOADS:
        entry = {"metrics": {}, "layers": {}}
        print("\n%s" % w)
        for m in spec["end_to_end"]:
            s = summary([out["metrics"][m["name"]] for out in reps[w]])
            s["unit"] = m["unit"]
            entry["metrics"][m["name"]] = s
            print("  %-14s %14.6g %-6s p25 %-12.6g p75 %-12.6g n %d" %
                  (m["name"], s["median"], m["unit"], s["p25"], s["p75"], s["n"]))
        if w in traced:
            out = traced[w]
            for m in spec["per_layer"]:
                value = summary(refs)["median"] if m["name"] == "host.ref_s" else out["metrics"].get(m["name"], 0.0)
                entry["layers"][m["name"]] = value
            # The difference of two runs carries the machine's noise; the
            # instrumented work itself is measured by calibration.
            scan_s = out["metrics"]["scan_s"]
            untraced = entry["metrics"]["scan_s"]["median"]
            entry["trace_overhead"] = (scan_s - untraced) / untraced
            entry["trace_cost"] = out["trace_cost_s"] / scan_s
            print("  tracing: scan_s %.4f s traced vs %.4f s untraced median (%+.2f%%);"
                  " instrumented work %.4f s (%.3f%% of scan_s)" %
                  (scan_s, untraced, 100 * entry["trace_overhead"], out["trace_cost_s"],
                   100 * entry["trace_cost"]))
            for name, s in sorted(self_times([out]).items()):
                print("  self %-22s %10.4f s" % (name, s))
            for m in spec["per_layer"]:
                print("  %-32s %14.6g %s" % (m["name"], entry["layers"][m["name"]], m["unit"]))
        result["workloads"][w] = entry

    if args.save:
        with open(args.save, "w") as f:
            json.dump(result, f, indent=1)
        log("saved %s" % args.save)
    if args.compare:
        compare(spec, load_json(args.compare), result)
    for p in problems:
        log("FAIL " + p)
    return 1 if problems else 0


def compare(spec, base, mine):
    """Marks each end-to-end metric worse only beyond its bound, and
    unresolved when either side's quartile spread exceeds the bound."""
    print("\ncompare against %s (host.ref_s %.4f -> %.4f)" %
          (base["meta"].get("git_sha", "?"), base["meta"]["host.ref_s"]["median"],
           mine["meta"]["host.ref_s"]["median"]))
    for w in WORKLOADS:
        if w not in base["workloads"]:
            continue
        for m in spec["end_to_end"]:
            a = base["workloads"][w]["metrics"][m["name"]]
            b = mine["workloads"][w]["metrics"][m["name"]]
            change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            worse = change if m["better"] == "lower" else -change
            if max(spread(a), spread(b)) > m["bound"]:
                mark = "unresolved"
            elif worse > m["bound"]:
                mark = "WORSE"
            else:
                mark = "ok"
            print("  %-15s %-14s %+7.2f%%  bound %4.1f%%  %s" %
                  (w, m["name"], 100 * change, 100 * m["bound"], mark))


# --- goldens and self-check ---------------------------------------------


def record_goldens(spec):
    """Runs every workload on each golden seed; a sharded workload is rerun
    on 1 shard and its golden refused unless both agree."""
    shards = {"census_1m": 3, "census_faulted": 2}
    goldens = {}
    for w in WORKLOADS:
        for seed in GOLDEN_SEEDS:
            out = rep(w, seed)
            problems = check_rep(out, None)
            if problems:
                raise BenchError("%s seed %d: %s" % (w, seed, "; ".join(problems)))
            fields = golden_fields(out)
            if w in shards:
                single = golden_fields(rep(w, seed, shards=1))
                if single != fields:
                    raise BenchError("%s seed %d is not shard-invariant: %s on %d shards, %s on 1"
                                     % (w, seed, fields, shards[w], single))
            goldens.setdefault(w, {})[str(seed)] = fields
            log("golden %s seed %d: %s" % (w, seed, fields))
    with open(GOLDENS_PATH, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % os.path.relpath(GOLDENS_PATH, ROOT))
    return 0


def self_check(seed):
    out = child(["--self-check", "--seed=%d" % seed])
    for row in out["self_check"]:
        print("self-check %-15s step-wise %s  run_census %s" %
              (row["workload"], row["stepwise"], row["run_census"]))
    if not out["ok"]:
        log("FAIL: the step-wise census drifted from core::run_census")
    return 0 if out["ok"] else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="driver mode: run one workload for --seconds")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--save", metavar="PATH", help="write the full-protocol result as JSON")
    p.add_argument("--compare", metavar="BASE.json", help="compare against a saved result")
    p.add_argument("--record-goldens", action="store_true")
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")

    try:
        spec = load_json(SPEC_PATH)
        build()
        if args.record_goldens:
            return record_goldens(spec)
        if args.self_check:
            return self_check(args.seed)
        goldens = load_json(GOLDENS_PATH) if os.path.exists(GOLDENS_PATH) else {}
        if args.workload:
            return driver_run(spec, goldens, args)
        return protocol(spec, goldens, args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log("run.py: %s" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
