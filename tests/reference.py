"""Reference forms kept for tests only: derived circuits, operator, group
and support queries the package does not need; eta's routes as the
suffix-by-suffix recursion with every layer paired at both truncation radii,
the oracle for the Horner form and the one-radius fast path of
anomalion.pairing; and the per-element action loops, the oracle for the
once-per-distinct-circuit steps of validate_action and the truncations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from anomalion.circuits import (
    CircuitAction,
    Layer,
    MarginError,
    ProceduralCircuit,
    conj_by_circuit,
    product_collapse,
    truncate,
)
from anomalion.crossed import WeakMorphismData, cm_kernel
from anomalion.groups import FiniteGroup
from anomalion.lattice import Region
from anomalion.pairing import (
    LocalizedAutomorphism,
    StabilizationError,
    _truncate_layer_to_disk,
)
from anomalion.symop import SymOp, op_inv, op_mul, region_mask, support_mask


def constant_term(a: SymOp) -> int:
    """f(0), i.e. 1 if the empty monomial is present else 0."""
    return 1 if frozenset() in a.poly else 0


def suffix_circuit(c: ProceduralCircuit, start: int) -> ProceduralCircuit:
    """The layers of c from position start on."""
    return ProceduralCircuit(c.layers[start:], c.window)


def truncate_rest(c: ProceduralCircuit, region: Region) -> ProceduralCircuit:
    """The gates truncate() drops, as a circuit (straddlers included)."""
    layers = c.layers
    outside = ~region_mask(region)
    return ProceduralCircuit(
        tuple(Layer(g for g in layer if support_mask(g) & outside) for layer in layers), c.window
    )


def eta_two_radii(layer: Layer, window, pair) -> SymOp:
    """pair of the layer truncated to disks r and r+2, always both."""
    r2 = window.edge_distance((0, 0))
    if r2 < 4:
        raise StabilizationError("window too small to stabilize the pairing")
    vals = [pair(_truncate_layer_to_disk(layer, radius)) for radius in (r2 - 2, r2)]
    if vals[0] != vals[1]:
        raise StabilizationError("eta did not stabilize between radii; margin too small")
    return vals[0]


def eta_R_suffix(alpha: LocalizedAutomorphism, b_circuit: ProceduralCircuit) -> SymOp:
    """eta(A, F(k..)) = eta(A, F(k+1..)) * phi(F(k+1..))(eta(A, layer_k)),
    conjugating each piece through the whole suffix after it."""
    layers = b_circuit.layers
    acc = None
    for k in range(len(layers) - 1, -1, -1):
        piece = eta_two_radii(layers[k], b_circuit.window, lambda b: op_mul(alpha.apply(b), op_inv(b)))
        if acc is None:
            acc = piece
        else:
            rest = suffix_circuit(b_circuit, k + 1)
            acc = op_mul(acc, conj_by_circuit(piece, rest, check_margin=False))
    return SymOp.identity() if acc is None else acc


def eta_L_suffix(a_circuit: ProceduralCircuit, beta: LocalizedAutomorphism) -> SymOp:
    """eta(F(k..), B) = phi(F(k+1..))(eta(layer_k, B)) * eta(F(k+1..), B)."""
    layers = a_circuit.layers
    acc = None
    for k in range(len(layers) - 1, -1, -1):
        piece = eta_two_radii(layers[k], a_circuit.window, lambda a: op_mul(a, beta.apply(op_inv(a))))
        if acc is None:
            acc = piece
        else:
            rest = suffix_circuit(a_circuit, k + 1)
            acc = op_mul(conj_by_circuit(piece, rest, check_margin=False), acc)
    return SymOp.identity() if acc is None else acc


def subgroup_closure(g: FiniteGroup, gens) -> list[int]:
    """Sorted element list of the subgroup generated by gens."""
    seen = {g.id}
    frontier = [g.id]
    gens = list(gens)
    while frontier:
        a = frontier.pop()
        for s in gens:
            for b in (g.mul(a, s), g.mul(s, a)):
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
    # close under products of found elements (gens may not include inverses)
    changed = True
    while changed:
        changed = False
        for a in list(seen):
            for b in list(seen):
                c = g.mul(a, b)
                if c not in seen:
                    seen.add(c)
                    changed = True
    return sorted(seen)


def weak_morphisms_isomorphic(d1: WeakMorphismData, d2: WeakMorphismData) -> bool:
    """Brute-force search for an isomorphism of the extension groups.

    Candidate maps are (m, g) -> (m * s(g), g) with s valued in ker(bd)
    and s(1) = 1; commuting with the inclusion of M, the projection to G
    and the structure map to N forces this shape, so the search is
    exhaustive.  Checks the homomorphism property against both group laws.
    """
    if d1.G != d2.G or d1.target is not d2.target and d1.target != d2.target:
        raise ValueError("data live over different groups or targets")
    if d1.rho_t != d2.rho_t:
        raise ValueError("isomorphism search assumes a common rho~")
    G, cm = d1.G, d1.target
    M = cm.M
    ker = cm_kernel(cm)
    if M.order * G.order > 64:
        raise ValueError("extension too large for the brute-force search")

    def law(d, m0, g0, m1, g1):
        return (
            M.mul(M.mul(m0, cm.act(d.rho_t[g0], m1)), d.mu[g0][g1]),
            G.mul(g0, g1),
        )

    others = [g for g in G.elements() if g != G.id]
    for combo in product(ker, repeat=len(others)):
        s = {G.id: M.id}
        s.update(dict(zip(others, combo)))
        good = True
        for g0 in G.elements():
            for m0 in M.elements():
                for g1 in G.elements():
                    for m1 in M.elements():
                        pm, pg = law(d1, m0, g0, m1, g1)
                        qm, qg = law(d2, M.mul(m0, s[g0]), g0, M.mul(m1, s[g1]), g1)
                        if (M.mul(pm, s[pg]), pg) != (qm, qg):
                            good = False
                            break
                    if not good:
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            return True
    return False


@dataclass(frozen=True)
class SupportReport:
    memberships: tuple[tuple[str, bool], ...]
    max_dist_to_boundary_line: int
    max_dist_to_origin: int

    def fully_inside(self, i: int) -> bool:
        return self.memberships[i][1]


def classify_support(sites, regions: list[Region]) -> SupportReport:
    """Per-region membership of a finite site set, plus distance extremes."""
    sites = list(sites)
    memberships = tuple((r.kind, all(r.contains(s) for s in sites)) for r in regions)
    line = Region.boundary_line()
    dline = max((line.core_distance(s) for s in sites), default=0)
    dorig = max((max(abs(s[0]), abs(s[1])) for s in sites), default=0)
    return SupportReport(memberships, dline, dorig)


def collapse_per_pair(action: CircuitAction, half: Region, region: Region, label: str):
    """The collapses rho~(g) rho~(h) rho~(gh)^-1 by (g, h) and their crop log,
    with one product_collapse per pair over per-element truncations of fresh
    copies of the circuits, so that nothing is shared between elements."""
    G = action.group
    rho = [truncate(ProceduralCircuit(c.layers, c.window), half) for c in action.assign]
    collapsed, cropped = {}, []
    for g, h in product(G.elements(), repeat=2):
        res = product_collapse([rho[g], rho[h], rho[G.mul(g, h)]], [1, 1, -1], expect_region=region)
        cropped += [f"{label}({g},{h}): {c}" for c in res.cropped]
        collapsed[g, h] = res.op
    return collapsed, cropped


def validate_per_pair(action: CircuitAction) -> list[str]:
    """validate_action with the images taken per element and the composition
    checked per pair, on fresh copies of the circuits."""
    window = action.window
    G = action.group
    rho = [ProceduralCircuit(c.layers, c.window) for c in action.assign]
    violations = []
    if not rho[G.id].is_identity():
        violations.append("identity element has a nonempty circuit")
    reach = max(c.total_range() for c in rho)
    interior = [s for s in window.sites() if window.edge_distance(s) >= window.margin + 2 * reach]
    if not interior:
        raise MarginError("window too small to validate the action")
    observables = [obs for s in interior for obs in (SymOp.z(s), SymOp.x(s))]
    images = [[conj_by_circuit(obs, c) for obs in observables] for c in rho]
    for g, h in product(G.elements(), repeat=2):
        gh = G.mul(g, h)
        for obs, h_obs, gh_obs in zip(observables, images[h], images[gh]):
            if conj_by_circuit(h_obs, rho[g]) != gh_obs:
                violations.append(f"rho({g})rho({h}) != rho({gh}) on {obs}")
    return violations
