"""Run one benchmark workload against the symchar package under ./src.

    python3 perfbench/run.py --workload char_ladder --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The run builds its inputs and expected
answers (set-up, repeated and reported as a median), then sends the
requests one at a time and checks every answer after its clock stops.
With ``--trace 0`` it prints the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it runs the requests once untraced and
once traced and prints the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object; the rest
is a readable report.  Span and outcome records go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import glob
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

from harness import LIMIT, OK, normalize_outcomes, run_request, summarize
from speed import SpeedProbe, child_probe
from tracing import Tracer, layer_metrics
from workloads import SETUP, SetupError

SETUP_REPEATS = 3
# Every end-to-end number a run measures; BENCHMARK.json says which are gated.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "wall_raw_s": "s", "setup_raw_s": "s", "reference_ms": "ms"}


def import_package(src: str):
    """Import symchar from ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(src, "symchar", "__init__.py")):
        raise SystemExit("perfbench: no symchar package under %s; run from the repository root" % src)
    sys.path.insert(0, src)
    import symchar

    if not os.path.abspath(symchar.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported symchar from %s, not from %s" % (symchar.__file__, src))
    return symchar


def _commit(root: str) -> str:
    """HEAD of the repository at ``root``, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_header(root: str, src: str, args) -> dict:
    lines = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path) as handle:
            lines += sum(1 for _ in handle)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "src_lines": lines,
    }


def timed_setups(build):
    """Build the plan SETUP_REPEATS times; return it with the median set-up times.

    The times are (at the reference speed, raw), like the requests' times.
    """
    probe = SpeedProbe()
    scaled, raw = [], []
    with probe.running():
        for _ in range(SETUP_REPEATS):
            probe.sample()
            start = time.perf_counter()
            plan = build()
            own, at_reference = probe.normalize(start, time.perf_counter() - start)
            raw.append(own)
            scaled.append(at_reference)
    return plan, statistics.median(scaled), statistics.median(raw)


def run_pass(requests, probe, tracer=None):
    """Send the requests one at a time while ``probe`` samples the machine's speed.

    With ``tracer``, each request's calls are recorded as spans.
    """
    if not requests:
        return []
    outcomes = []
    with probe.running():
        probe.sample()
        for i, request in enumerate(requests):
            recording = functools.partial(tracer.recording, i) if tracer else None
            outcomes.append(run_request(request, recording))
            probe.tick()
    normalize_outcomes(outcomes, probe)
    return outcomes


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def _format_rows(outcomes, rows) -> list[str]:
    lines = ["%-34s %-6s %10s  %s" % ("request", "status", "time_s", "oracle floor / detail")]
    for outcome in outcomes:
        notes = [outcome.detail] if outcome.detail else []
        row = rows.get(outcome.name)
        if row:
            # A request stopped at its limit took longer than its time shows.
            at_least = ">" if outcome.status == LIMIT else ""
            for oracle in ("molien", "adams"):
                base = row[oracle + "_s"]
                notes.append("%s %.4f s (pipeline/%s %s%.1fx)" % (
                    oracle, base, oracle, at_least, outcome.latency_s / base))
        lines.append("%-34s %-6s %10.4f  %s" % (
            outcome.name, outcome.status, outcome.latency_s, "; ".join(notes)))
    return lines


def _format_latency(value, samples) -> str:
    if value is None:
        return "not reported (%d samples; needs ten beyond the percentile)" % samples
    return "%.6f s (%d samples)" % (value, samples)


def _report(header, plan, outcomes, over_limit, measured, units, summary) -> list[str]:
    lines = ["perfbench %(workload)s seed=%(seed)s seconds=%(seconds)g trace=%(trace)s" % header,
             "commit %(commit)s | python %(python)s | nproc %(nproc)s | cpu %(cpu)s | "
             "src lines %(src_lines)s" % header]
    shown = outcomes + over_limit
    if len(shown) > 20:
        shown = [o for o in shown if o.status != OK]
    lines += _format_rows(shown, plan.rows)
    if over_limit:
        lines.append("over-limit rungs (attempted outside the timed pass): "
                     + ", ".join("%s %s" % (o.name, o.status) for o in over_limit))
    for name, unit in units.items():
        lines.append("%-36s %.6f %s" % (name, measured[name], unit))
    if not header["trace"]:
        lines.append("%-36s %.6f (%d of %d failed)" % (
            "failed_frac", summary["failed_frac"], summary["failed"], summary["attempted"]))
        for name in ("latency_p50_s", "latency_p90_s"):
            lines.append("%-36s %s" % (name, _format_latency(summary[name], summary["latency_samples"])))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the query_stream and cli_requests runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sc = import_package(src)
    header = run_header(root, src, args)

    try:
        plan, setup_s, setup_raw_s = timed_setups(
            lambda: SETUP[args.workload](sc, random.Random(args.seed), args.seconds, src))
    except SetupError as error:
        raise SystemExit("perfbench: set-up failed: %s" % error)

    def new_probe():
        return child_probe() if plan.in_children else SpeedProbe()

    probe = new_probe()
    outcomes = run_pass(plan.requests, probe)
    summary = summarize(outcomes)
    measured = {
        "wall_s": summary["wall_s"],
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(plan.in_children),
        "wall_raw_s": summary["wall_raw_s"],
        "setup_raw_s": setup_raw_s,
        "reference_ms": 1000 * statistics.median(probe.durations),
    }
    over_limit = [] if args.trace else run_pass(plan.over_limit, new_probe())
    correct = summary["correct"] and all(o.status in (OK, LIMIT) for o in over_limit)
    attempted, failed = summary["attempted"], summary["failed"]

    spans = []
    if args.trace:
        tracer = Tracer()
        tracer.install(sc)
        plan.tracer = tracer
        try:
            # Probe samples become spans of their own, so no layer's self time holds them.
            probe = new_probe()
            probe.sampler = tracer.wrap("bench.probe", probe.sampler)
            traced = run_pass(plan.requests, probe, tracer)
        finally:
            tracer.uninstall()
        traced_summary = summarize(traced)
        correct = correct and traced_summary["correct"]
        attempted += traced_summary["attempted"]
        failed += traced_summary["failed"]
        measured = layer_metrics(tracer.spans, tracer.names)
        measured["cli.import_s"] = statistics.mean(plan.import_s) if plan.import_s else 0.0
        overhead = traced_summary["wall_s"] - summary["wall_s"]
        measured["trace.overhead_s"] = overhead
        measured["trace.overhead_frac"] = overhead / summary["wall_s"]
        spans = tracer.spans
        outcomes = traced

    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[kind] if m["name"] not in measured]
    if missing:
        raise SystemExit("perfbench: metrics not measured: %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    units = {m["name"]: m["unit"] for m in spec[kind]} if args.trace else E2E_UNITS
    print("\n".join(_report(header, plan, outcomes, over_limit, measured, units, summary)))

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "header": header,
        "summary": summary,
        "outcomes": [vars(o) for o in outcomes + over_limit],
        "rows": plan.rows,
        "metrics": measured,
        "spans": spans,
    }
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
