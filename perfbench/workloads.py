"""Seeded inputs and independent reference checks for the benchmark workloads.

Each workload turns the benchmark seed into a CLI argv (writing any input
file it needs) and checks the JSON report the CLI writes against a
reference computed here, without calling into anomalion.  The seed only
relabels or reseeds the input.  Relabelings are group automorphisms, so the
multiplication tables, and with them the coboundary matrices that the
solvers factor, are the same for every seed while the actions and cochains
are not: every seed does the same work on different inputs.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Workload sizes.  Each is chosen so that one sample takes about 1.5-2 s
# in a fresh process on a 2-core x86 host, except order8, whose size is
# fixed by its group (about 4 s).
GAUGE_N = 2
PAIRING_PAIRS = 300
SECTIONS_Q = 4

PAIRING_SUITES = (
    "ad_eta_equals_commutator",
    "conjugation_equivariance",
    "inner_left_closed_form",
    "inner_right_closed_form",
    "left_multiplicativity",
    "right_multiplicativity",
)


@dataclass(frozen=True)
class Prepared:
    argv: list[str]
    ctx: dict


@dataclass(frozen=True)
class Workload:
    name: str
    size: dict
    prepare: Callable[[int, str], Prepared]
    check: Callable[[dict, dict], list[str]]
    corrupt: Callable[[dict], dict]


# -- shared reference pieces ---------------------------------------------


def b3a(g: tuple, h: tuple, k: tuple, l: tuple) -> int:
    """The cup product b^3 . a on Z2xZ2 elements given as (g1, g2) bits."""
    return g[1] & h[1] & k[1] & l[0]


def check_tau(report: dict, decode: Callable[[str], tuple], order: int) -> list[str]:
    """The tau table must be the degree-4 mod-2 cochain b^3 . a."""
    coch = report.get("cochain", {})
    if coch.get("degree") != 4 or coch.get("modulus") != 2:
        return [f"tau has degree {coch.get('degree')} modulus {coch.get('modulus')}"]
    values = coch.get("values", {})
    if len(values) != order**4:
        return [f"tau has {len(values)} entries, expected {order**4}"]
    bad = 0
    for key, v in values.items():
        g, h, k, l = decode(key)
        if v != b3a(g, h, k, l):
            bad += 1
    return [f"tau differs from b^3 . a on {bad} of {len(values)} tuples"] if bad else []


def flip_first_tau(report: dict) -> dict:
    out = copy.deepcopy(report)
    values = out["cochain"]["values"]
    key = min(values)
    values[key] ^= 1
    return out


def relabeled_cyclic(n: int, rng: random.Random) -> tuple[dict, list[int]]:
    """Z_n whose element i is the residue u*i for a random unit u; the
    names are the residues."""
    u = rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1])
    value = [u * i % n for i in range(n)]
    index = {v: i for i, v in enumerate(value)}
    mul = [index[(value[i] + value[j]) % n] for i in range(n) for j in range(n)]
    return {"order": n, "mul": mul, "names": [str(v) for v in value], "name": f"Z{n}"}, value


def random_gl3(rng: random.Random) -> list[list[int]]:
    """A uniformly random invertible 3x3 matrix over GF(2)."""
    while True:
        m = [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] + m[1][2] * m[2][1])
               + m[0][1] * (m[1][0] * m[2][2] + m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] + m[1][1] * m[2][0])) % 2
        if det:
            return m


# -- gauge: reproduce-ccz with regauging checks ---------------------------


def _gauge_prepare(seed: int, workdir: str) -> Prepared:
    argv = ["reproduce-ccz", "--window", "12x12", "--margin", "3",
            "--check-gauge", str(GAUGE_N), "--seed", str(seed)]
    return Prepared(argv, {})


def _klein_key(key: str) -> tuple:
    bits = [int(b) for b in key.split(",")]
    return tuple(tuple(bits[i : i + 2]) for i in range(0, 8, 2))


def _gauge_check(report: dict, ctx: dict) -> list[str]:
    problems = check_tau(report, _klein_key, 4)
    gc = report.get("gauge_checks", {})
    for k in ("beta_regauge_pass", "rho_regauge_pass", "count"):
        if gc.get(k) != GAUGE_N:
            problems.append(f"gauge_checks.{k} = {gc.get(k)}, expected {GAUGE_N}")
    return problems


# -- order8: anomaly2d of ccz_x_2d x trivial Z2 from a config file -----------


def _order8_prepare(seed: int, workdir: str) -> Prepared:
    m = random_gl3(random.Random(seed))
    # element i of Z2^3 (bits of i) stands for (g1, g2, z) = m . bits(i)
    canon = [
        tuple(sum(m[r][c] * bits[c] for c in range(3)) % 2 for r in range(3))
        for bits in itertools.product(range(2), repeat=3)
    ]
    index = {e: i for i, e in enumerate(canon)}
    mul = [
        index[tuple((a + b) % 2 for a, b in zip(canon[i], canon[j]))]
        for i in range(8)
        for j in range(8)
    ]
    names = [f"e{i}" for i in range(8)]
    generators = []
    for i, (g1, g2, _z) in enumerate(canon):
        layers = []
        if g2:
            layers.append({"pattern": "x_sites"})
        if g1:
            layers.append({"pattern": "ccz_triangles"})
        generators.append({"element": names[i], "layers": layers})
    config = {
        "name": "ccz_x_2d_times_trivial_z2",
        "group": {"order": 8, "mul": mul, "names": names, "name": "Z2xZ2xZ2"},
        "generators": generators,
    }
    path = os.path.join(workdir, "order8_action.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    argv = ["anomaly2d", "--action", path, "--window", "12x12", "--margin", "3",
            "--seed", str(seed)]
    return Prepared(argv, {"klein": {names[i]: canon[i][:2] for i in range(8)}})


def _order8_check(report: dict, ctx: dict) -> list[str]:
    klein = ctx["klein"]
    problems = check_tau(report, lambda key: tuple(klein[n] for n in key.split(",")), 8)
    if report.get("is_cocycle") is not True:
        problems.append("tau reported as not a cocycle")
    return problems


# -- pairing: eta identity suites on random circuits -------------------------


def _pairing_prepare(seed: int, workdir: str) -> Prepared:
    argv = ["eta-check", "--pairs", str(PAIRING_PAIRS), "--seed", str(seed)]
    return Prepared(argv, {})


def _pairing_check(report: dict, ctx: dict) -> list[str]:
    problems = []
    if report.get("ok") is not True:
        problems.append("eta-check reports ok != true")
    if report.get("failures"):
        problems.append(f"{len(report['failures'])} identity failures")
    checks = report.get("checks", {})
    if sorted(checks) != list(PAIRING_SUITES):
        problems.append(f"identity suites {sorted(checks)}")
    for name, n in checks.items():
        if n != PAIRING_PAIRS:
            problems.append(f"suite {name} ran {n} times, expected {PAIRING_PAIRS}")
    return problems


def _pairing_corrupt(report: dict) -> dict:
    out = copy.deepcopy(report)
    out["checks"][min(out["checks"])] -= 1
    return out


# -- sections: postnikov class over every section of Z_4q -> Z_4q -------------


def _sections_prepare(seed: int, workdir: str) -> Prepared:
    rng = random.Random(seed)
    n = 4 * SECTIONS_Q
    M, m_value = relabeled_cyclic(n, rng)
    N, n_value = relabeled_cyclic(n, rng)
    n_index = {v: i for i, v in enumerate(n_value)}
    obj = {
        "kind": "crossed_module",
        "M": M,
        "N": N,
        "bd": [n_index[(4 * v) % n] for v in m_value],
        "act": [list(range(n)) for _ in range(n)],
    }
    path = os.path.join(workdir, "sections_cm.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    argv = ["crossed", "postnikov", "--input", path, "--all-sections", "--seed", str(seed)]
    return Prepared(argv, {})


def z4_coboundary_is_zero(values: dict) -> bool:
    """delta c = 0 for a Z4-valued 3-cochain on pi1 = Z_4q / 4Z_4q = Z4.

    pi1 elements are named "[v]" after a coset representative v in Z_4q,
    so the element is v mod 4.
    """
    c = {}
    for key, v in values.items():
        c[tuple(int(p.strip("[]")) % 4 for p in key.split(","))] = v
    if len(c) != 64:
        return False
    for a, b, x, y in itertools.product(range(4), repeat=4):
        d = (c[b, x, y] - c[(a + b) % 4, x, y] + c[a, (b + x) % 4, y]
             - c[a, b, (x + y) % 4] + c[a, b, x]) % 4
        if d:
            return False
    return True


def _sections_check(report: dict, ctx: dict) -> list[str]:
    problems = []
    if report.get("sections") != SECTIONS_Q**4:
        problems.append(f"{report.get('sections')} sections, expected {SECTIONS_Q**4}")
    if report.get("classes_agree") is not True:
        problems.append("classes of the sections do not agree")
    coch = report.get("cochain", {})
    if coch.get("degree") != 3 or coch.get("modulus") != 4:
        problems.append(f"class has degree {coch.get('degree')} modulus {coch.get('modulus')}")
    elif not z4_coboundary_is_zero(coch.get("values", {})):
        problems.append("postnikov cochain is not closed")
    return problems


def _sections_corrupt(report: dict) -> dict:
    out = copy.deepcopy(report)
    values = out["cochain"]["values"]
    key = min(values)
    values[key] = (values[key] + 1) % 4
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauge", {"window": "12x12", "margin": 3, "check_gauge": GAUGE_N},
                 _gauge_prepare, _gauge_check, flip_first_tau),
        Workload("order8", {"window": "12x12", "margin": 3, "group_order": 8, "tau_tuples": 8**4},
                 _order8_prepare, _order8_check, flip_first_tau),
        Workload("pairing", {"pairs": PAIRING_PAIRS},
                 _pairing_prepare, _pairing_check, _pairing_corrupt),
        Workload("sections", {"q": SECTIONS_Q, "group": f"Z{4 * SECTIONS_Q}", "sections": SECTIONS_Q**4},
                 _sections_prepare, _sections_check, _sections_corrupt),
    )
}
