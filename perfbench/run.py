#!/usr/bin/env python3
"""Benchmark driver for anomalion.

    python3 perfbench/run.py --workload gauge --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  Each sample is one fresh child process
(never more than one at a time) that imports anomalion from ./src and calls
``anomalion.cli.main`` on inputs generated from --seed; every report is
checked against a reference computed by the benchmark itself.  Samples
repeat until --seconds have passed.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics, taken by wrapping anomalion's
functions from outside (see tracer.py) in samples that alternate with
untraced ones.  Human-readable lines come first; the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Import-only children per untraced run, for setup_s.  The first one of
# every run also fills the bytecode cache and is not counted.
SETUP_CHILDREN = 7
CHILD_TIMEOUT_S = 150
# Times are reported in seconds of a host on which child.reference() takes
# REF_S: each sample is scaled by REF_S / (its own reference time).  On a
# shared 2-vCPU VM the host's speed drifted by up to 2x within a minute;
# the reference, timed in the same child just before, drifts with it.
REF_S = 0.25
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Sample:
    code: int
    cpu_s: float  # user + sys of the whole child, raw
    rss_mb: float
    ref_s: float = math.nan
    ref_cpu_s: float = math.nan
    import_s: float = math.nan  # wall time of `import anomalion.cli`
    import_cpu_s: float = math.nan  # its CPU time
    main_s: float = math.nan  # raw
    report: dict | None = None
    trace: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def scaled(self, seconds: float) -> float:
        return seconds * REF_S / self.ref_s


def spawn(workdir: str, tag: str, argv: list[str], trace: bool = False) -> Sample:
    """Run one child to completion and collect its timings and outputs."""
    out = os.path.join(workdir, f"{tag}.out.json")
    report = os.path.join(workdir, f"{tag}.report.json")
    trace_path = os.path.join(workdir, f"{tag}.trace.json") if trace else None
    spec = {"root": str(ROOT), "out": out, "trace": trace_path,
            "argv": argv + ["--report", report] if argv else []}
    with open(os.path.join(workdir, f"{tag}.log"), "w") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                stdout=log, stderr=log, cwd=workdir)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)
    if sample.code != 0:
        sample.problems.append(f"exit code {sample.code}")
    try:
        with open(out) as fh:
            result = json.load(fh)
        sample.ref_s, sample.ref_cpu_s = result["ref_s"], result["ref_cpu_s"]
        sample.import_s, sample.import_cpu_s = result["import_s"], result["import_cpu_s"]
        sample.main_s = result.get("main_s", math.nan)
        if argv:
            with open(report) as fh:
                sample.report = json.load(fh)
        if trace_path:
            with open(trace_path) as fh:
                sample.trace = json.load(fh)
    except (OSError, ValueError, KeyError) as exc:
        sample.problems.append(f"missing child output: {exc}")
    if sample.failed:
        with open(os.path.join(workdir, f"{tag}.log")) as fh:
            sys.stderr.write(f"[{tag}] {sample.problems}\n{fh.read()[-2000:]}\n")
    return sample


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it; the maximum (percentile 100) when there are under twenty."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return 100.0, ordered[-1]


def layer_value(dump: dict, metric: str) -> float:
    """A per-layer metric <module>.<function>.<stat> from one trace dump."""
    if metric in dump["counters"]:
        return dump["counters"][metric]
    if metric == "circuits.conj.applied_ratio":
        scanned = dump["counters"]["circuits.conj.gates_scanned"]
        return dump["counters"]["circuits.conj.gates_applied"] / scanned if scanned else 0.0
    fn, stat = metric.rsplit(".", 1)
    s = dump["stats"][fn]
    if stat == "calls":
        return s["calls"]
    if stat in ("self_s", "total_s"):
        return s[stat]
    durations = s["durations_s"]
    if stat == "p50_ms":
        return 1000 * statistics.median(durations) if durations else 0.0
    if stat == "tail_ms":
        return 1000 * tail(durations)[1]
    raise KeyError(metric)


def trace_counts(dump: dict) -> dict:
    counts = {name: s["calls"] for name, s in dump["stats"].items()}
    counts.update(dump["counters"])
    return counts


def run_metadata() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"commit": commit, "python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": os.cpu_count(), "loadavg": [round(x, 2) for x in os.getloadavg()]}


def describe(name: str, values: list[float], raw: list[float], unit: str):
    p, v = tail(values)
    print(f"{name:<12} median {statistics.median(values):.4f} {unit}, "
          f"p{p:g} {v:.4f} {unit} (n={len(values)}; raw median {statistics.median(raw):.4f} {unit})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind so the running child is stopped and the scratch
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "anomalion" / "cli.py").is_file():
        print(f"no anomalion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    w = WORKLOADS[args.workload]
    print(f"# workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# size {json.dumps(w.size, sort_keys=True)}")
    print(f"# meta {json.dumps(run_metadata(), sort_keys=True)}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        prep = w.prepare(args.seed, workdir)
        spawn(workdir, "warmup", [])
        setups = [spawn(workdir, f"setup{i}", []) for i in range(1, SETUP_CHILDREN)] if not args.trace else []
        samples, traced = [], []
        start = time.monotonic()
        i = 0
        while (time.monotonic() - start < args.seconds or not samples
               or (args.trace and len(traced) < 2)):
            with_trace = bool(args.trace) and i % 2 == 1
            s = spawn(workdir, f"run{i}", prep.argv, trace=with_trace)
            if not s.failed:
                s.problems += w.check(s.report, prep.ctx)
            (traced if with_trace else samples).append(s)
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = samples + traced
    problems = [f"sample {j}: {p}" for j, s in enumerate(runs) for p in s.problems]
    good = next((s for s in runs if not s.failed), None)
    if good is not None and not w.check(w.corrupt(good.report), prep.ctx):
        problems.append("self-test: a corrupted report passed the checks")
    failed = sum(s.failed for s in runs)
    print(f"{'failed_frac':<12} {failed / len(runs):.4f} ({failed} of {len(runs)} runs)")

    ok = [s for s in samples if not s.failed]
    metrics = {}
    if ok and not args.trace:
        started = [s for s in setups + samples if not s.failed]
        raw = {
            "wall_s": [s.main_s for s in ok],
            "cpu_s": [s.cpu_s - s.ref_cpu_s for s in ok],
            "setup_s": [s.import_cpu_s for s in started],
            "peak_rss_mb": [s.rss_mb for s in ok],
        }
        values = {
            "wall_s": [s.scaled(s.main_s) for s in ok],
            "cpu_s": [s.scaled(s.cpu_s - s.ref_cpu_s) for s in ok],
            "setup_s": [s.scaled(s.import_cpu_s) for s in started],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        for m in bench["end_to_end"]:
            name = m["name"]
            describe(name, values[name], raw[name], m["unit"])
            metrics[name] = {"value": statistics.median(values[name]), "unit": m["unit"]}
        print(f"{'reference':<12} median {statistics.median(s.ref_s for s in started):.4f} s "
              f"(REF_S {REF_S} s); import wall median "
              f"{statistics.median(s.import_s for s in started):.4f} s")
    good_traced = [s for s in traced if not s.failed]
    dumps = [s.trace for s in good_traced]
    if ok and dumps:
        counts = [trace_counts(d) for d in dumps]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("trace counts differ between traced runs of one seed")
        traced_wall = statistics.median(s.scaled(s.main_s) for s in good_traced)
        untraced_wall = statistics.median(s.scaled(s.main_s) for s in ok)
        for m in bench["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                value = traced_wall / untraced_wall - 1
            elif m["unit"] in ("s", "ms"):
                value = statistics.median(s.scaled(layer_value(s.trace, name)) for s in good_traced)
            elif m["unit"] == "count":
                value = layer_value(dumps[0], name)
            else:
                value = statistics.median(layer_value(d, name) for d in dumps)
            metrics[name] = {"value": value, "unit": m["unit"]}
            note = ""
            if name.endswith(".tail_ms") and dumps[0]["stats"][name.rsplit(".", 1)[0]]["calls"]:
                durations = dumps[0]["stats"][name.rsplit(".", 1)[0]]["durations_s"]
                note = f" (p{tail(durations)[0]:g} of {len(durations)} calls)"
            print(f"{name:<40} {value:.6g} {m['unit']}{note}")
        print(f"# traced samples {len(dumps)}, untraced {len(ok)}")
    elif args.trace:
        problems.append("no successful traced and untraced samples")

    for p in problems:
        print(f"# problem: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
