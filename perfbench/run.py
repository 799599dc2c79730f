#!/usr/bin/env python3
"""dyntrace benchmark: build the program, run one workload, check, report.

    python3 perfbench/run.py --workload fig7a_sweep --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 13 --seconds 25 --trace 1
    python3 perfbench/run.py --make-pins

Run from the repository root.  The program (perfbench/src) is built from the
repository's sources into $CARGO_TARGET_DIR (default .bench_build) on first
use.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the
human-readable report.  Exits non-zero when any check fails.
See perfbench/README.md for the workloads, metrics and checks.
"""
import argparse
import hashlib
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD_DIR, "perfbench")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")
PINS = os.path.join(HERE, "pins.json")
VARIANTS = 16
WORKLOADS = ["fig7a_sweep", "trace_spill", "service_tenants", "sharded_2t"]

# name -> (unit, clock).  clock: host = the simulator's wall time, sim =
# modelled time, exact = a count or ratio of counts.
END_TO_END = {
    "setup_s": ("s", "host"),
    "wall_s": ("s", "host"),
    "sim_events_per_s": ("1/s", "host"),
    "peak_rss_mb": ("MB", "host"),
}
# Workload-specific figures a user sees; 0 on workloads without them.
WORKLOAD_FIGURES = {
    "sessions_per_s": ("1/s", "host"),
    "cmd_latency_p50_ms": ("ms", "sim"),
    "cmd_latency_p99_ms": ("ms", "sim"),
    "trace_bytes_per_event": ("B/event", "exact"),
    "trace_merge_events_per_s": ("1/s", "host"),
    "fail_ratio": ("ratio", "exact"),
}
LAYER = {
    "sim.events": ("count", "exact"),
    "sim.run_s": ("s", "host"),
    "sim.ns_per_event": ("ns", "host"),
    "sim.windows": ("count", "exact"),
    "sim.fused_windows": ("count", "exact"),
    "sim.cross_deliveries": ("count", "exact"),
    "sim.events_per_window": ("count", "exact"),
    "sim.window_stalls": ("count", "host"),
    "sim.window_stall_ns.p50": ("ns", "host"),
    "sim.window_stall_ns.p99": ("ns", "host"),
    "dynprof.launch_s": ("s", "host"),
    "guide.compile_s": ("s", "host"),
    "vt.filter_build_s": ("s", "host"),
    "image.installed_probes": ("count", "exact"),
    "image.active_probes": ("count", "exact"),
    "image.patch_epochs": ("count", "exact"),
    "vt.records": ("count", "exact"),
    "vt.virtual_events": ("count", "exact"),
    "vt.filtered_events": ("count", "exact"),
    "vt.digest_s": ("s", "host"),
    "vt.spill_records": ("count", "exact"),
    "vt.spill_bytes": ("B", "exact"),
    "vt.suppressed_records": ("count", "exact"),
    "vt.super_records": ("count", "exact"),
    "vt.suppression_ratio": ("ratio", "exact"),
    "vt.encode_ns_per_record": ("ns/record", "host"),
    "vt.append_spill_ns_per_record": ("ns/record", "host"),
    "vt.write_binary_s": ("s", "host"),
    "vt.open_binary_merge_s": ("s", "host"),
    "mpi.messages": ("count", "exact"),
    "mpi.collectives": ("count", "exact"),
    "machine.messages": ("count", "exact"),
    "machine.bytes": ("B", "exact"),
    "proc.function_entries": ("count", "exact"),
    "proc.suspends": ("count", "exact"),
    "dpcl.requests": ("count", "exact"),
    "dpcl.retries": ("count", "exact"),
    "dynprof.instrumented_functions": ("count", "exact"),
    "control.confsync_rounds": ("count", "exact"),
    "control.overlay_rounds": ("count", "exact"),
    "service.run_s": ("s", "host"),
    "service.commands": ("count", "exact"),
    "service.us_per_command": ("us", "host"),
    "service.admits": ("count", "exact"),
    "service.degrades": ("count", "exact"),
    "service.denials": ("count", "exact"),
    "service.windows": ("count", "exact"),
    "service.sub_deliveries": ("count", "exact"),
    "service.sub_events": ("count", "exact"),
    "analysis.profile_s": ("s", "host"),
    "bench.trace_overhead_ratio": ("ratio", "host"),
}

# Bypass checks: each layer's work counter is non-zero on the workload that
# exercises it and zero on the workloads meant to bypass it.
# "traced" rules read telemetry counters, which only traced rounds collect.
RULES = {
    "fig7a_sweep": {
        "nonzero": ["sim.events", "vt.records", "vt.filtered_events", "proc.function_entries",
                    "image.installed_probes", "image.patch_epochs", "dpcl.requests",
                    "dynprof.instrumented_functions", "mpi.collectives"],
        "zero": ["sim.windows", "sim.cross_deliveries", "vt.spill_records",
                 "vt.file_records", "service.commands"],
    },
    "trace_spill": {
        "nonzero": ["sim.events", "vt.spill_records", "vt.suppressed_records",
                    "vt.file_records", "mpi.messages"],
        "zero": ["sim.windows", "service.commands", "image.installed_probes",
                 "dpcl.requests", "vt.filtered_events"],
    },
    "service_tenants": {
        "nonzero": ["sim.events", "service.commands", "image.patch_epochs",
                    "dpcl.requests", "proc.suspends"],
        "traced_nonzero": ["control.confsync_rounds", "control.overlay_rounds"],
        "zero": ["sim.windows", "vt.spill_records", "vt.file_records"],
    },
    "sharded_2t": {
        "nonzero": ["sim.events", "sim.windows", "sim.cross_deliveries"],
        "zero": ["vt.spill_records", "vt.file_records", "service.commands",
                 "image.installed_probes", "dpcl.requests"],
    },
}

# Span name -> layer, for the self-time table.  Probe spans time set-up and
# codec calls the benchmark repeats outside the measured phase.
SPAN_LAYER = {
    "dynprof.launch": "dynprof", "dynprof.script": "dynprof", "dynprof.teardown": "dynprof",
    "sim.run": "sim",
    "service.setup": "service", "service.run": "service", "service.collect": "service",
    "vt.digest": "vt", "vt.write_binary": "vt", "vt.open_binary_merge": "vt",
    "analysis.profile": "analysis",
    "guide.compile": "probe", "vt.filter_build": "probe",
    "vt.encode": "probe", "vt.append_spill": "probe",
    "bench.reference": "bench",
    "round": "unattributed", "cell": "unattributed",
}
LAYER_ORDER = ["sim", "service", "vt", "dynprof", "analysis", "probe", "bench", "other",
               "unattributed"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (if needed) and build the program; returns True when the
    build tree had to be configured, i.e. on the first run in a checkout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dyntrace sources at %s/src; run from the repository root" % ROOT)
    os.makedirs(CMAKE_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    fresh = not os.path.isfile(os.path.join(CMAKE_DIR, "Makefile"))
    steps = []
    if fresh:
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, multiprocessing.cpu_count()))
    # The whole project (the libraries and the program): building "all" also
    # re-runs CMake when a CMakeLists.txt changed since the last build.
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return fresh


def source_digest():
    """sha256 over the library sources, to identify the build without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(args, deadline=None):
    timeout = None if deadline is None else max(10.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([BINARY] + args + ["--out-dir", OUT_DIR],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out after %.0f s: %s" % (timeout, " ".join(args)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("benchmark program failed (exit %d): %s" % (proc.returncode, " ".join(args)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Interquartile range as a share of the median (0 with < 2 samples)."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median(values))


def check_correctness(out, pins, traced):
    """Returns (attempted, failed, messages)."""
    attempted = out["attempted"]
    failed = out["failed"]
    messages = []
    if failed:
        messages.append("%d failed operations (service commands / dynprof sessions)" % failed)

    def check(ok, message):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            messages.append(message)

    workload = out["workload"]
    pinned = pins.get(workload, {}).get(str(out["variant"]), {})
    for cell, info in sorted(out["cells"].items()):
        check(info["deterministic"], "%s: digests differ between rounds" % cell)
        want = pinned.get(cell)
        check(want == info["digests"],
              "%s: digests %s, pinned %s" % (cell, info["digests"], want))
    check(out["counters_stable"], "layer counters differ between rounds")
    counters = out["counters"]
    rules = RULES[workload]
    for name in rules["nonzero"] + (rules.get("traced_nonzero", []) if traced else []):
        check(counters.get(name, 0) != 0, "bypass check: %s is 0 on %s" % (name, workload))
    for name in rules["zero"]:
        check(counters.get(name, 0) == 0,
              "bypass check: %s is %g on %s" % (name, counters.get(name, 0), workload))
    return attempted, failed, messages


def host_scale(out):
    """Nominal ÷ measured reference-kernel time: multiplying a host time by
    this reads it at the reference host's quiet speed (README.md, "Host
    speed normalisation").  1 when the run took no reference samples."""
    ref = out["reference_s"]
    return out["reference_nominal_s"] / median(ref) if ref else 1.0


def end_to_end(out):
    """name -> (value, spread).  Host times are medians over rounds per
    cell, summed over the workload's cells and scaled by host_scale.  The
    spread is that of the unscaled per-round sums (for setup_s, of the
    cell with the longest set-up)."""
    scale = host_scale(out)

    def median_sum(per_cell):
        return sum(median(v) for v in per_cell.values())

    samples = out["samples"]
    run_s = median_sum(out["cell_run_s"]) * scale
    return {
        "setup_s": (median_sum(out["setup_samples"]) * scale,
                    spread(max(out["setup_samples"].values(), key=median))),
        "wall_s": (median_sum(out["cell_wall_s"]) * scale, spread(samples["wall_s"])),
        "sim_events_per_s": (sum(out["cell_events"].values()) / run_s,
                             spread(samples["sim_events_per_s"])),
        "peak_rss_mb": (out["peak_rss_mb"], 0.0),
    }


def workload_figures(out, attempted, failed):
    """Host throughputs are scaled like the host times; the sim-time
    latencies and byte counts are exact."""
    scale = host_scale(out)
    samples = out["samples"]
    figures = {}
    for name in WORKLOAD_FIGURES:
        values = samples.get(name, [])
        value = median(values) / scale if name.endswith("_per_s") else median(values)
        figures[name] = (value, spread(values))
    figures["fail_ratio"] = (failed / attempted if attempted else 1.0, 0.0)
    return figures


def layer_metrics(out):
    c = out["counters"]
    total = out.get("span_total_s", {})
    scale = host_scale(out)

    def span(name):
        return total.get(name, 0.0) * scale

    def ratio(a, b):
        return a / b if b else 0.0

    m = dict(c)
    run_s = span("sim.run") + span("service.run")
    m["sim.run_s"] = run_s
    m["sim.ns_per_event"] = ratio(run_s * 1e9, c.get("sim.events", 0))
    m["sim.events_per_window"] = ratio(c.get("sim.events", 0), c.get("sim.windows", 0))
    m["dynprof.launch_s"] = span("dynprof.launch")
    m["guide.compile_s"] = span("guide.compile")
    m["vt.filter_build_s"] = span("vt.filter_build")
    m["vt.digest_s"] = span("vt.digest")
    m["vt.suppression_ratio"] = ratio(c.get("vt.suppressed_records", 0),
                                      c.get("vt.spill_records", 0))
    m["vt.encode_ns_per_record"] = ratio(span("vt.encode") * 1e9, c.get("vt.records", 0))
    m["vt.append_spill_ns_per_record"] = ratio(span("vt.append_spill") * 1e9,
                                               c.get("vt.records", 0))
    m["vt.write_binary_s"] = span("vt.write_binary")
    m["vt.open_binary_merge_s"] = span("vt.open_binary_merge")
    m["service.run_s"] = span("service.run")
    m["service.us_per_command"] = ratio(span("service.run") * 1e6,
                                        c.get("service.commands", 0))
    m["analysis.profile_s"] = span("analysis.profile")
    untraced = median(out["samples"]["wall_s"])
    traced = median(out["samples"].get("traced_wall_s", []))
    m["bench.trace_overhead_ratio"] = ratio(traced, untraced) - 1.0 if traced else 0.0
    return {name: m.get(name, 0.0) for name in LAYER}


def self_time_table(out):
    """Self time per span, grouped by layer, as a share of the round."""
    round_s = out["span_total_s"].get("round", 0.0)
    rows = sorted((LAYER_ORDER.index(SPAN_LAYER.get(name, "other")), name, value)
                  for name, value in out["span_self_s"].items())
    lines = ["per-layer self time, median over traced rounds (round = %.4f unscaled host s)"
             % round_s,
             "  %-13s %-22s %12s %8s" % ("layer", "span", "self s", "share")]
    for order, name, value in rows:
        lines.append("  %-13s %-22s %12.6f %7.2f%%" % (
            LAYER_ORDER[order], name, value, 100.0 * value / round_s if round_s else 0.0))
    lines.append("  probe: calls repeated outside the measured phase.  bench: the host-speed "
                 "reference kernel.  unattributed: the residual, the benchmark's own code "
                 "between calls.")
    return "\n".join(lines)


def report(out, host, traced, pins):
    attempted, failed, messages = check_correctness(out, pins, traced)
    e2e = end_to_end(out)
    figures = workload_figures(out, attempted, failed)
    lines = []
    w = out["workload"]
    lines.append("== %s  seed %d (variant %d, app seed %d)  rounds %d  elapsed %.1f s" % (
        w, out["seed"], out["variant"], out["app_seed"], out["rounds"], out["elapsed_s"]))
    lines.append("host: nproc %s, %s, build %s, commit %s, src %s" % (
        out["host"]["nproc"], out["host"]["compiler"], out["host"]["build_type"],
        host["commit"], host["src"]))
    ref = out["reference_s"]
    lines.append("host speed: reference kernel median %.2f ms over %d samples (nominal %.2f ms); "
                 "host times scaled by %.4f" % (median(ref) * 1e3, len(ref),
                                                out["reference_nominal_s"] * 1e3, host_scale(out)))
    lines.append("  %-32s %16s %-9s %-6s %s" % ("metric", "value", "unit", "clock", "spread"))
    for name, (value, sp) in e2e.items():
        unit, clock = END_TO_END[name]
        lines.append("  %-32s %16.6g %-9s %-6s %.3f" % (name, value, unit, clock, sp))
    for name, (value, sp) in figures.items():
        unit, clock = WORKLOAD_FIGURES[name]
        lines.append("  %-32s %16.6g %-9s %-6s %.3f" % (name, value, unit, clock, sp))
    layer = {}
    if traced:
        layer = layer_metrics(out)
        for name, value in layer.items():
            unit, clock = LAYER[name]
            lines.append("  %-32s %16.6g %-9s %-6s" % (name, value, unit, clock))
        table = self_time_table(out)
        lines.append(table)
        lines.append("spans: %s" % out["span_file"])
        with open(os.path.join(OUT_DIR, "%s-seed%d-layers.txt" % (w, out["seed"])), "w") as f:
            f.write(table + "\n")
    lines.append("checks: %d attempted, %d failed, fail_ratio %.6g" % (
        attempted, failed, figures["fail_ratio"][0]))
    lines.extend("  FAIL " + m for m in messages)
    print("\n".join(lines), flush=True)

    if traced:
        metrics = {n: {"value": layer[n], "unit": LAYER[n][0]} for n in LAYER}
        for name, (value, _) in figures.items():
            metrics[name] = {"value": value, "unit": WORKLOAD_FIGURES[name][0]}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n][0]} for n, (v, _) in e2e.items()}
    record = {"workload": w, "seed": out["seed"], "host": dict(out["host"], **host),
              "end_to_end": {n: {"value": v, "spread": s} for n, (v, s) in e2e.items()},
              "figures": {n: {"value": v, "spread": s} for n, (v, s) in figures.items()},
              "layer": layer, "attempted": attempted, "failed": failed, "raw": out}
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (w, out["seed"], traced)),
              "w") as f:
        json.dump(record, f, indent=1)
    return attempted, failed, metrics


def make_pins():
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for variant in range(VARIANTS):
            out = run_workload(["--workload", workload, "--seed", str(variant), "--reference"])
            cells = {name: info["digests"] for name, info in out["cells"].items()}
            if "scenario_check" in out:
                ours, theirs = out["scenario_check"]
                if ours != theirs:
                    fail("client loop digest %s != run_scenario %s (variant %d)"
                         % (ours, theirs, variant))
            pins[workload][str(variant)] = cells
            print("%s variant %d: %s" % (workload, variant, cells), flush=True)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--make-pins", action="store_true",
                        help="regenerate perfbench/pins.json (sequential reference runs)")
    args = parser.parse_args()
    if not args.make_pins and args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    fresh = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    # A run ends within 180 s, or 900 s when it had to build first.
    deadline = start + (880 if fresh else 175)
    if args.make_pins:
        make_pins()
        return 0

    with open(PINS) as f:
        pins = json.load(f)
    host = {"commit": commit(), "src": source_digest()}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        out = run_workload(["--workload", w, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         deadline if len(workloads) == 1 else None)
        a, f, m = report(out, host, args.trace == 1, pins)
        attempted += a
        failed += f
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({"%s.%s" % (w, k): v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
