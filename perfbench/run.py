#!/usr/bin/env python3
"""Simulator benchmark: host speed, set-up time and memory of the simulator.

Run from the repository root:

  python3 perfbench/run.py --workload iperf_strict --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload iperf_strict --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --compare parent.jsonl change.jsonl
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record 0-63

A run builds perfbench/ (the simulator libraries plus sim_bench) into
.bench_build/, then launches sim_bench repetitions of the workload, each a
fresh process, until --seconds have passed (at least three). Every
repetition is checked: no stale IOTLB/PTcache use in any slice, simulated
counters equal to the ones recorded for this seed in expected_counters.json,
and equal across the run's repetitions. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones (an extra traced repetition calibrates host ns per call of
each layer). --out FILE appends the full result, manifest included, as one
JSON line for --compare. README.md documents every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_FILE = BENCH_DIR / "expected_counters.json"
WORKLOADS = ("iperf_strict", "iperf_off", "redis_fastsafe")
MIN_REPS = 3
REP_TIMEOUT_S = 60  # a repetition takes under 10 s; a run must end within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds perfbench/; returns the sim_bench path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT).returncode != 0:
                fh.close()
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return out / "sim_bench"


def run_rep(binary, workload, seed, trace=False, extra=()):
    """One sim_bench process; returns its JSON result, or None if it failed."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: repetition timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: repetition failed ({proc.returncode}): {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected():
    return json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.is_file() else {}


def expected_counters(expected, workload, seed, rep):
    """The recorded counters for this seed, when the rep used the shipped span."""
    entry = expected.get("workloads", {}).get(workload)
    if not entry or rep["warmup_ms"] != entry["warmup_ms"] or rep["span_ms"] != entry["span_ms"]:
        return None
    values = entry["seeds"].get(str(seed))
    return None if values is None else dict(zip(expected["keys"], values))


def check_reps(reps, reference):
    """Marks each repetition failed or not; returns the number failed.

    A repetition fails if its process failed, any slice saw a stale IOTLB or
    PTcache use, its traced per-slice counts do not sum to the span's, or its
    simulated counters differ from `reference` (the recorded counters, else
    the run's first repetition).
    """
    failed = 0
    for rep in reps:
        reasons = []
        if rep.get("crashed"):
            reasons.append("process failed")
        else:
            if rep["stale_slices"] != 0:
                reasons.append(f"{rep['stale_slices']} slices with stale translations")
            if not rep["traced_sum_ok"]:
                reasons.append("per-slice counts do not sum to the span's")
            if reference is not None and rep["check"] != reference:
                diff = sorted(k for k in set(rep["check"]) | set(reference)
                              if rep["check"].get(k) != reference.get(k))
                reasons.append("simulated counters differ: " + ", ".join(diff[:6]))
        rep["failures"] = reasons
        failed += bool(reasons)
    return failed


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fastest_slices_ms(reps):
    """Each slice's host ms at its fastest repetition.

    The repetitions of a run simulate the same slices exactly, so a slice's
    spread across them is the machine's noise (other tenants, clock speed).
    Its fastest repetition is the least disturbed one, while a deterministic
    stall shows in every repetition and survives the minimum.
    """
    return [min(s) for s in zip(*(r["slice_ms"] for r in reps))]


def end_to_end(reps):
    """End-to-end metrics from the run's untraced repetitions."""
    span_s = sum(fastest_slices_ms(reps)) / 1e3
    return {
        "sim_ms_per_s": (reps[0]["span_ms"] / span_s, "ms/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MiB"),
    }


def per_layer(reps, traced):
    """Per-layer metrics: counts of the span, calibrated costs, self times."""
    layer, a = traced["layer"], traced["attrib"]
    slices = fastest_slices_ms(reps)
    run_s = sum(slices) / 1e3
    rx_pages = layer["rx_host.nic.rx_wire_bytes"] / 4096 or 1
    allocs = layer["iova.cache_hits"] + layer["iova.cache_misses"]
    drops = layer["nic.drops_buffer"] + layer["nic.drops_nodesc"]
    arrived = layer["nic.rx_packets"] + drops
    inv_calls = a["cache.invalidate_calls"]
    self_s = {name: a[f"{name}.self_s"] for name in
              ("simcore", "mem", "pcie", "iommu", "cache", "pagetable", "iova", "driver")}
    m = {
        "simcore.events": (layer["simcore.events"], "count"),
        "simcore.events_per_sim_us": (layer["simcore.events"] / (traced["span_ms"] * 1e3),
                                      "1/us"),
        "simcore.ns_per_event": (a["simcore.ns_per_event"], "ns"),
        "core.slices": (len(slices), "count"),
        "core.slice_ms_p50": (quantile(slices, 0.50), "ms"),
        "core.slice_ms_p99": (quantile(slices, 0.99), "ms"),
        "mem.accesses": (layer["mem.accesses"], "count"),
        "mem.queued_ns_per_access": (layer["mem.queued_ns"] / max(1, layer["mem.accesses"]),
                                     "ns"),
        "mem.ns_per_access": (a["mem.ns_per_access"], "ns"),
        "pcie.tlps": (layer["pcie.write_tlps"] + layer["pcie.read_tlps"], "count"),
        "pcie.stall_ns_per_page": (layer["rx_host.pcie.stall_ns"] / rx_pages, "ns/page"),
        "pcie.ns_per_tlp": (a["pcie.ns_per_tlp"], "ns"),
        "iommu.translations": (layer["iommu.translations"], "count"),
        "iommu.iotlb_miss_per_page": (layer["rx_host.iommu.iotlb_miss"] / rx_pages, "1/page"),
        "iommu.walk_reads_per_page": (layer["rx_host.iommu.mem_reads"] / rx_pages, "1/page"),
        "iommu.inv_requests": (layer["iommu.inv_requests"], "count"),
        "iommu.ns_per_translate": (a["iommu.ns_per_translate"], "ns"),
        "iommu.ns_per_invalidate": (a["iommu.ns_per_invalidate"], "ns"),
        "cache.invalidate_calls": (inv_calls, "count"),
        "cache.removed_per_invalidate_call": (layer["cache.removed"] / inv_calls
                                              if inv_calls else 0.0, "ratio"),
        "cache.ns_per_invalidate_range": (a["cache.ns_per_invalidate_range"], "ns"),
        "pagetable.maps": (layer["dma.map_ops"], "count"),
        "pagetable.ns_per_map": (a["pagetable.ns_per_map"], "ns"),
        "iova.tree_allocs": (layer["iova.tree_allocs"], "count"),
        "iova.cache_hit_ratio": (layer["iova.cache_hits"] / allocs if allocs else 0.0, "ratio"),
        "iova.ns_per_alloc": (a["iova.ns_per_alloc"], "ns"),
        "driver.map_ops": (layer["dma.map_ops"], "count"),
        "driver.unmap_ops": (layer["dma.unmap_ops"], "count"),
        "driver.ns_per_unmap": (a["driver.ns_per_unmap"], "ns"),
        "nic.rx_packets": (layer["nic.rx_packets"], "count"),
        "nic.drop_frac": (drops / arrived if arrived else 0.0, "fraction"),
        "transport.retransmits": (layer["dctcp.retransmits"], "count"),
        "apps.completed": (layer["apps.completed"], "count"),
        "run_s": (run_s, "s"),
        "unattributed_s": (run_s - sum(self_s.values()), "s"),
        "trace_overhead_frac": (traced["span_s"] / statistics.median(r["span_s"] for r in reps)
                                - 1.0, "fraction"),
    }
    for name, value in self_s.items():
        m[f"{name}.self_s"] = (value, "s")
    return m


def git_state():
    """(revision, dirty) of the checkout, or ("unknown", None) outside git."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip() != ""
        return rev, dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def manifest(rep, seed, seconds, n_reps):
    rev, dirty = git_state()
    config = {k: rep[k] for k in ("mode", "cores", "mtu_bytes", "ring_size_pkts", "iperf_flows",
                                  "redis_clients", "redis_value_bytes", "start_offsets_ns")}
    return {
        "git_revision": rev, "git_dirty": dirty, "compiler": rep["compiler"],
        "build_type": rep["build_type"], "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "workload": rep["workload"], "seed": seed, "config": config,
        "warmup_ms": rep["warmup_ms"], "span_ms": rep["span_ms"], "slices": rep["slices"],
        "seconds": seconds, "repetitions": n_reps,
    }


def evaluate(binary, workload, seed, seconds, trace, extra=(), reference=None):
    """Runs and checks the repetitions of one benchmark run; returns the result."""
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(run_rep(binary, workload, seed, extra=extra) or {"crashed": True})
    traced = None
    if trace:
        traced = run_rep(binary, workload, seed, trace=True, extra=extra) or {"crashed": True}
        reps.append(traced)
    good = [r for r in reps if not r.get("crashed")]
    untraced = [r for r in good if r is not traced]
    if not untraced:
        fail("every repetition failed")
    if reference is None:
        reference = expected_counters(load_expected(), workload, seed, good[0])
    if reference is None:
        reference = good[0]["check"]
    failed = check_reps(reps, reference)
    result = {
        "manifest": manifest(good[0], seed, seconds, len(reps)),
        "attempted": len(reps), "failed": failed,
        "failures": [r["failures"] for r in reps if r["failures"]],
        "end_to_end": end_to_end(untraced),
    }
    if traced is not None and not traced.get("crashed"):
        result["per_layer"] = per_layer(untraced, traced)
    return result


def print_result(result, trace):
    print("manifest: " + json.dumps(result["manifest"], sort_keys=True))
    for reasons in result["failures"]:
        print("failed repetition: " + "; ".join(reasons))
    metrics = result["end_to_end"] if not trace else result.get("per_layer", {})
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} repetitions)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# --compare: the rules for claiming a gain or ruling out a regression.

def load_results(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better, bound):
    """improved / no worse / worse / unresolved for one workload x metric."""
    pairs = list(zip(parent, change))
    if len(pairs) < 10:
        return f"unresolved ({len(pairs)} pairs < 10)"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(pairs) and gain > iqr(parent):
        return f"improved (wins {wins}/{len(pairs)})"
    if -gain > bound * abs(p_med):
        return f"worse (by {-gain / abs(p_med):.1%} > bound {bound:.0%})"
    if iqr(parent) > bound * abs(p_med) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        return "unresolved (parent spread wider than the bound)"
    return "no worse"


def compare(parent_path, change_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_results(parent_path), load_results(change_path)
    for workload in sorted({r["manifest"]["workload"] for r in parent + change}):
        ps = [r for r in parent if r["manifest"]["workload"] == workload]
        cs = [r for r in change if r["manifest"]["workload"] == workload]
        print(f"{workload}: {len(ps)} parent runs, {len(cs)} change runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["end_to_end"][name][0] for r in ps if name in r.get("end_to_end", {})]
            cv = [r["end_to_end"][name][0] for r in cs if name in r.get("end_to_end", {})]
            if not pv or not cv:
                continue
            print(f"  {name:14s} parent {statistics.median(pv):.6g} (IQR {iqr(pv):.3g})  "
                  f"change {statistics.median(cv):.6g} (IQR {iqr(cv):.3g})  "
                  f"-> {verdict(pv, cv, metric['better'], metric['bound'])}")
        pl = [r["per_layer"] for r in ps if "per_layer" in r]
        cl = [r["per_layer"] for r in cs if "per_layer" in r]
        if pl and cl:
            print("  per-layer self time, median (change - parent):")
            for name in sorted(n for n in pl[0] if n.endswith("self_s") or n == "unattributed_s"):
                p = statistics.median(x[name][0] for x in pl)
                c = statistics.median(x[name][0] for x in cl)
                print(f"    {name:18s} {p:9.4f} s -> {c:9.4f} s  ({c - p:+.4f} s)")
        failed = sum(r["failed"] for r in cs)
        if failed:
            print(f"  change: {failed} failed repetitions")


# ---------------------------------------------------------------------------
# --record and --selftest.

def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(binary, seeds):
    """Records the simulated counters of every workload for `seeds`."""
    expected = load_expected()
    expected.setdefault("workloads", {})
    jobs = [(w, s) for w in WORKLOADS for s in seeds]
    with ThreadPoolExecutor(max_workers=3) as pool:
        reps = list(pool.map(lambda job: run_rep(binary, *job), jobs))
    for (workload, seed), rep in zip(jobs, reps):
        if rep is None or rep["stale_slices"]:
            fail(f"cannot record {workload} seed {seed}: repetition failed")
        keys = expected.setdefault("keys", sorted(rep["check"]))
        if sorted(rep["check"]) != keys:
            fail("counter set changed; delete expected_counters.json and record again")
        entry = expected["workloads"].setdefault(
            workload, {"warmup_ms": rep["warmup_ms"], "span_ms": rep["span_ms"], "seeds": {}})
        entry["seeds"][str(seed)] = [rep["check"][k] for k in keys]
    write_expected(expected)
    print(f"recorded {len(jobs)} repetitions into {EXPECTED_FILE.name}")


def write_expected(expected):
    """Writes one seed per line, so a re-recording diffs seed by seed."""
    compact = {"separators": (",", ":")}
    blocks = []
    for workload, entry in sorted(expected["workloads"].items()):
        seeds = sorted(entry["seeds"].items(), key=lambda kv: int(kv[0]))
        rows = ",\n".join(f'   "{s}": {json.dumps(v, **compact)}' for s, v in seeds)
        blocks.append(f'  "{workload}": {{"warmup_ms": {entry["warmup_ms"]}, '
                      f'"span_ms": {entry["span_ms"]}, "seeds": {{\n{rows}\n  }}}}')
    EXPECTED_FILE.write_text('{\n "keys": ' + json.dumps(expected["keys"]) +
                             ',\n "workloads": {\n' + ",\n".join(blocks) + "\n }\n}\n")


def selftest(binary):
    """Checks the benchmark itself on short spans; returns the process exit code."""
    short = ("--warmup-ms", "2", "--span-ms", "4", "--slices", "100")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        result = evaluate(binary, workload, 1, 0, trace=True, extra=short)
        printed = {**result["end_to_end"], **result.get("per_layer", {})}
        for metric in spec["end_to_end"] + spec["per_layer"]:
            if metric["name"] not in printed:
                problems.append(f"{workload}: {metric['name']} not printed")
            elif printed[metric["name"]][1] != metric["unit"]:
                problems.append(f"{workload}: {metric['name']} unit "
                                f"{printed[metric['name']][1]} != {metric['unit']}")
        if result["failed"]:
            problems.append(f"{workload}: {result['failed']} repetitions failed")
        layer = result.get("per_layer", {})
        parts = sum(v for n, (v, _) in layer.items() if n.endswith(".self_s"))
        run_s = layer.get("run_s", (0, ""))[0]
        if abs(parts + layer.get("unattributed_s", (0, ""))[0] - run_s) > 1e-9 * max(1, run_s):
            problems.append(f"{workload}: self_s + unattributed_s != run_s")
        if workload == "iperf_off":
            for name in ("iommu.translations", "cache.invalidate_calls", "pagetable.maps",
                         "iova.tree_allocs", "driver.map_ops", "iommu.self_s", "cache.self_s",
                         "pagetable.self_s", "iova.self_s", "driver.self_s"):
                if layer.get(name, (1, ""))[0] != 0:
                    problems.append(f"iperf_off: {name} is not 0")
    # The gate must reject a run checked against another workload's counters.
    off = run_rep(binary, "iperf_off", 1, extra=short)
    strict = evaluate(binary, "iperf_strict", 1, 0, trace=False, extra=short,
                      reference=off["check"])
    if strict["failed"] != strict["attempted"]:
        problems.append(f"iperf_strict checked against iperf_off's counters: failed_frac = "
                        f"{strict['failed'] / strict['attempted']}, expected 1")
    for p in problems:
        print("selftest: " + p)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as one JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", metavar="SEEDS", help="record counters for seeds, e.g. 0-63")
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.record:
        record(binary, parse_seeds(args.record))
        return 0
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    result = evaluate(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
    print_result(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
