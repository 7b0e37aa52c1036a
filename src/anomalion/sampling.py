"""Seeded random generators for representable circuits and operators.

Used by the pairing identity suite, the pointwise lattice crossed-square
checks and the CLI property commands.  Layers are kept valid by
construction: a layer is either all-diagonal (any overlaps commute) or a
set of X gates on distinct sites.  Gate diameters stay <= 1 so circuits
have small range and the pairing stabilizes on modest windows.
"""

from __future__ import annotations

import random

from .circuits import ProceduralCircuit, checked_layer
from .groups import FiniteGroup
from .lattice import Region, Window
from .symop import SymOp


def region_sites(window: Window, region: Region) -> list:
    """The window's sites in the region, sorted: the list the generators draw from."""
    return sorted(s for s in window.sites() if region.contains(s))


def _neighbors(site, sites_set):
    x, y = site
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if (dx, dy) != (0, 0) and (x + dx, y + dy) in sites_set:
                out.append((x + dx, y + dy))
    return out


def random_diagonal_gate(rng: random.Random, sites: list, sites_set: set) -> SymOp:
    s = sites[rng.randrange(len(sites))]
    kind = rng.randrange(3)
    if kind == 0:
        return SymOp.z(s)
    nbrs = _neighbors(s, sites_set)
    if not nbrs:
        return SymOp.z(s)
    t = nbrs[rng.randrange(len(nbrs))]
    if kind == 1:
        return SymOp.cz(s, t)
    third = [u for u in nbrs if u != t and max(abs(u[0] - t[0]), abs(u[1] - t[1])) <= 1]
    if not third:
        return SymOp.cz(s, t)
    u = third[rng.randrange(len(third))]
    return SymOp.ccz(s, t, u)


def random_circuit(rng: random.Random, window: Window, sites: list) -> ProceduralCircuit:
    """Random representable circuit on the sites of a region_sites list: one
    or two layers, each of one to four draws of X gates or of diagonal gates,
    repeats dropped."""
    sites_set = set(sites)
    layers = []
    for _ in range(rng.randrange(1, 3)):
        if rng.random() < 0.5:
            gates = []
            used = set()
            for _ in range(rng.randrange(1, 5)):
                s = sites[rng.randrange(len(sites))]
                if s not in used:
                    used.add(s)
                    gates.append(SymOp.x(s))
        else:
            gates = [random_diagonal_gate(rng, sites, sites_set) for _ in range(rng.randrange(1, 5))]
            seen = set()
            dedup = []
            for g in gates:
                if g not in seen:
                    seen.add(g)
                    dedup.append(g)
            gates = dedup
        layers.append(checked_layer(gates, window))
    return ProceduralCircuit(tuple(layers), window)


def random_boundary_gamma(rng: random.Random, window: Window, group: FiniteGroup, skip: float) -> dict:
    """Random boundary circuits gamma(g) on row 0, for regauging rho~.

    Each non-identity element is skipped with probability skip; otherwise
    every interior edge of the row draws a CZ, a Z on its left site, an X
    there (never on the cut column x = 0) or nothing.  Elements whose draw
    is empty are left out.
    """
    interior = [s for s in window.sites() if s[1] == 0 and window.edge_distance(s) >= window.margin]
    xs = sorted(s[0] for s in interior)
    gamma = {}
    for g in group.elements():
        if g == group.id or rng.random() < skip:
            continue
        diag, flips = [], []
        for x in xs[:-1]:
            r = rng.random()
            if r < 0.3:
                diag.append(SymOp.cz((x, 0), (x + 1, 0)))
            elif r < 0.45:
                diag.append(SymOp.z((x, 0)))
            elif r < 0.55 and x != 0:
                # X on the cut column would obstruct the exact L/R split
                flips.append(SymOp.x((x, 0)))
        layers = tuple(checked_layer(gs, window) for gs in (diag, flips) if gs)
        if layers:
            gamma[g] = ProceduralCircuit(layers, window)
    return gamma


def random_inner(rng: random.Random, sites: list) -> SymOp:
    """Random SymOp on the sites of a region_sites list (up to three
    diagonal terms plus flips)."""
    sites_set = set(sites)
    poly = set()
    for _ in range(rng.randrange(4)):
        g = random_diagonal_gate(rng, sites, sites_set)
        poly ^= g.poly
    if rng.random() < 0.3:
        poly ^= {frozenset()}
    flips = frozenset(s for s in sites if rng.random() < 0.1)
    return SymOp(frozenset(poly), flips)
