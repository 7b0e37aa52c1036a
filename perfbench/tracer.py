"""Layer tracer installed on anomalion from outside the package.

The wrappers replace each traced function on every ``anomalion.*`` module
attribute bound to it: modules import functions by name, so patching only
the defining module would miss callers such as ``circuits`` calling
``symop.op_conj``.  Each timed call is a span linked to its caller's span;
a span's self time is its duration minus the time of the spans it caused.
Spans are aggregated in memory per function, a few (caller, callee) pairs
are counted, and everything is written out once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, how): "time" records a span; "count" only counts
# calls, for functions too hot and cheap to time without distorting them;
# "scope" only opens a frame, so that the calls it makes are not credited
# to its caller.
TARGETS = (
    ("symop", "op_mul", "time"),
    ("symop", "op_inv", "time"),
    ("symop", "op_conj", "time"),
    ("symop", "commutator", "time"),
    ("symop", "support", "count"),
    ("circuits", "conj_by_circuit", "time"),
    ("circuits", "GateRule.generate", "time"),
    ("circuits", "ProceduralCircuit.total_range", "time"),
    ("circuits", "ProceduralCircuit.inverse", "time"),
    ("circuits", "product_collapse", "time"),
    ("pairing", "eta", "time"),
    ("pairing", "eta_R", "time"),
    ("pairing", "eta_L", "time"),
    ("pairing", "LocalizedAutomorphism.apply", "scope"),
    ("anomaly", "build_truncation_2d", "time"),
    ("anomaly", "tau_cochain", "time"),
    ("anomaly", "tau4", "time"),
    ("anomaly", "regauge_beta", "time"),
    ("anomaly", "regauge_rho", "time"),
    ("groups", "coboundary", "time"),
    ("groups", "coboundary_solve", "time"),
    ("groups", "cohomologous", "time"),
    ("groups", "coboundary_matrix", "time"),
    ("linalg", "solve_mod_prime", "time"),
    ("linalg", "smith_normal_form", "time"),
    ("crossed", "postnikov3", "time"),
    ("crossed", "validate_crossed_module", "time"),
    ("cli", "main", "time"),
)

# Spans whose per-call durations are kept for percentiles.
LATENCIES = ("pairing.eta", "anomaly.tau_cochain", "crossed.postnikov3")

# Calls counted by the span they are made from: (caller, callee) -> counter.
# conj_by_circuit applies a gate with op_conj.  eta computes each route
# with one call made from its own frame: commutator, eta_R, eta_L, or the
# op_inv of a closed form (the op_inv inside an inner automorphism's
# apply() is credited to the apply scope, not to eta).
EDGE_COUNTERS = {
    ("circuits.conj_by_circuit", "symop.op_conj"): "circuits.conj.gates_applied",
    ("pairing.eta", "symop.commutator"): "pairing.eta.routes",
    ("pairing.eta", "symop.op_inv"): "pairing.eta.routes",
    ("pairing.eta", "pairing.eta_R"): "pairing.eta.routes",
    ("pairing.eta", "pairing.eta_L"): "pairing.eta.routes",
    # conj_by_circuit tests each gate of a layer with support(gate) against
    # support(running operator), taken once per layer (and once more for
    # the margin check).
    ("circuits.conj_by_circuit", "symop.support"): "circuits.conj.gates_scanned",
}

COUNTERS = (*sorted(set(EDGE_COUNTERS.values())), "linalg.solve_mod_prime.cells")


def counted_from(callee: str) -> dict[str, str]:
    """caller -> counter for the calls of callee that EDGE_COUNTERS counts."""
    return {caller: c for (caller, name), c in EDGE_COUNTERS.items() if name == callee}


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = array("d") if keep_durations else None


class Recorder:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.stack: list[list] = []  # open spans: [name, time of child spans]

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(name in LATENCIES)
        return self.stats[name]

    def count(self, name: str, n: int):
        self.counters[name] += n

    def timed(self, name: str, fn, after=None):
        stat = self.stat(name)
        stack = self.stack
        counters = self.counters
        edge_counter = counted_from(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[1]
                if stat.durations is not None:
                    stat.durations.append(dt)
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if edge_counter and parent[0] in edge_counter:
                        counters[edge_counter[parent[0]]] += 1
            if after is not None:
                after(self, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        stat = self.stat(name)
        stack = self.stack
        counters = self.counters
        edge_counter = counted_from(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stack and stack[-1][0] in edge_counter:
                counters[edge_counter[stack[-1][0]]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def scoped(self, name: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                if stack:
                    stack[-1][1] += frame[1]

        return wrapper

    def dump(self, path: str):
        out = {
            "stats": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self_time,
                    "durations_s": None if s.durations is None else s.durations.tolist(),
                }
                for name, s in self.stats.items()
            },
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(out, fh)


# -- counters measured at the call boundary --------------------------------


def _solve_cells(rec: Recorder, args, kwargs):
    rows, cols = args[0].shape
    rec.count("linalg.solve_mod_prime.cells", rows * cols)


AFTER = {"linalg.solve_mod_prime": _solve_cells}


def install() -> Recorder:
    """Wrap every target on every loaded anomalion module."""
    rec = Recorder()
    modules = [m for n, m in list(sys.modules.items()) if n == "anomalion" or n.startswith("anomalion.")]
    for module, attr, how in TARGETS:
        owner = sys.modules[f"anomalion.{module}"]
        *cls, fname = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, fname)
        name = f"{module}.{fname}"  # methods drop their class name
        if how == "count":
            wrapper = rec.counted(name, original)
        elif how == "scope":
            wrapper = rec.scoped(name, original)
        else:
            wrapper = rec.timed(name, original, AFTER.get(name))
        setattr(owner, fname, wrapper)
        if not cls:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
    return rec
