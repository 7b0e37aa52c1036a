"""The commutator pairing eta for automorphisms localized left/right of the origin.

For alpha localized on the left and beta on the right, [alpha, beta] is
inner, and eta(alpha, beta) is the canonical unitary with
Ad_eta = [alpha, beta].  Single layers are handled by truncating the layer
near the origin (the product stabilizes once the truncation radius passes
the ranges involved; we certify stabilization by comparing radii r and
r+2, and a layer wholly inside disk r is paired once, on its product,
which both truncations equal), and multi-layer circuits by the
one-layer-at-a-time recursions

    eta(A, B.B') = eta(A, B) * phi(B)(eta(A, B'))
    eta(A.A', B) = phi(A)(eta(A', B)) * eta(A, B)

where the primed circuit is the part applied first to states, evaluated
in Horner form over the layers in list order (each phi(layer) is an
automorphism), so each layer is paired and conjugated through once.
Inner arguments use the closed forms eta(Ad_u, beta) = u beta(u^-1) and
eta(alpha, Ad_u) = alpha(u) u^-1.  Every route available for a given pair
is computed and must agree bit-exactly.
"""

from __future__ import annotations

import random

from .circuits import Layer, ProceduralCircuit, checked_layer, concat, conj_by_circuit
from .lattice import Region, Window
from .symop import (
    SymOp,
    _sites,
    commutator,
    format_op,
    op_conj,
    op_inv,
    op_mul,
    op_product,
    region_mask,
    sites_outside,
    support_mask,
)
from .values import Frozen, init_field


class StabilizationError(ValueError):
    pass


class RouteDisagreement(AssertionError):
    pass


class LocalizedAutomorphism(Frozen):
    """An automorphism given by a circuit or an inner unitary, with a home region."""

    __slots__ = ("declared_region", "circuit", "inner")

    def __init__(self, declared_region: Region, circuit: ProceduralCircuit | None = None,
                 inner: SymOp | None = None):
        if (circuit is None) == (inner is None):
            raise ValueError("exactly one of circuit/inner must be given")
        # mask tests; sites are decoded only for the error message
        if inner is not None:
            if support_mask(inner) & ~region_mask(declared_region):
                bad = sites_outside([inner], declared_region)
                raise ValueError(f"inner unitary leaves its declared region at {bad[:4]}")
        else:
            layers = circuit.layers
            mask = 0
            for layer in layers:
                mask |= layer.mask()
            if mask & ~region_mask(declared_region):
                bad = sites_outside((g for layer in layers for g in layer), declared_region)
                raise ValueError(f"circuit gate leaves declared region at {bad[:4]}")
        init_field(self, "declared_region", declared_region)
        init_field(self, "circuit", circuit)
        init_field(self, "inner", inner)

    @property
    def is_inner(self) -> bool:
        return self.inner is not None

    def range_bound(self) -> int:
        if self.is_inner:
            return _op_radius(self.inner)
        return self.circuit.total_range()

    def apply(self, a: SymOp) -> SymOp:
        # margin faithfulness is certified by stabilization + route agreement
        if self.is_inner:
            return op_conj(a, self.inner)
        return conj_by_circuit(a, self.circuit, check_margin=False)

    def apply_inverse(self, a: SymOp) -> SymOp:
        if self.is_inner:
            return op_conj(a, op_inv(self.inner))
        return conj_by_circuit(a, self.circuit.inverse(), check_margin=False)


def _op_radius(a: SymOp) -> int:
    return max((max(abs(x), abs(y)) for x, y in _sites(support_mask(a))), default=0)


def _truncate_layer_to_disk(layer: Layer, r: int) -> SymOp:
    outside = ~region_mask(Region.origin_disk(r))
    return op_product(g for g in layer if not support_mask(g) & outside)


def _stabilization_radius(window: Window) -> tuple[int, int]:
    """The smaller truncation radius r and the mask of the sites outside
    disk r; take it after the layers it is tested against exist.

    The largest window-feasible pair of radii r, r+2 is used, and
    degenerate windows are refused.
    """
    r = window.edge_distance((0, 0)) - 2
    if r < 2:
        raise StabilizationError("window too small to stabilize the pairing")
    return r, ~region_mask(Region.origin_disk(r))


def _eta_single_layer(layer: Layer, r: int, outside: int, pair) -> SymOp:
    """pair(T_r) for the layer truncated to the disks of radii r and r+2,
    outside the mask of the sites outside disk r (_stabilization_radius).

    Constancy between the two radii is the actual stabilization
    certificate.  A layer inside disk r has T_r = T_{r+2}.
    """
    if not layer.mask() & outside:
        return pair(layer.product())
    vals = [pair(_truncate_layer_to_disk(layer, radius)) for radius in (r, r + 2)]
    if vals[0] != vals[1]:
        raise StabilizationError("eta did not stabilize between radii; margin too small")
    return vals[0]


def eta_R(alpha: LocalizedAutomorphism, b_circuit: ProceduralCircuit) -> SymOp:
    """Horner form over the right circuit's layers, layer 0 applied first:
    eta(A, F(..k)) = eta(A, layer_k) * phi(layer_k)(eta(A, F(..k-1))).

    One certified pairing (_eta_single_layer) and one conjugation per
    layer; it multiplies out to the suffix recursion because phi(layer_k)
    is an automorphism.
    """
    layers = b_circuit.layers
    if not layers:  # pairs to 1 on any window
        return SymOp.identity()
    r, outside = _stabilization_radius(b_circuit.window)
    z = SymOp.identity()
    for layer in layers:
        # eta for a single right layer: alpha(B_r) B_r^-1
        piece = _eta_single_layer(layer, r, outside, lambda b: op_mul(alpha.apply(b), op_inv(b)))
        z = op_mul(piece, layer.conj(z))
    return z


def eta_L(a_circuit: ProceduralCircuit, beta: LocalizedAutomorphism) -> SymOp:
    """Mirror Horner form: eta(F(..k), B) = phi(layer_k)(eta(F(..k-1), B)) * eta(layer_k, B)."""
    layers = a_circuit.layers
    if not layers:  # pairs to 1 on any window
        return SymOp.identity()
    r, outside = _stabilization_radius(a_circuit.window)
    z = SymOp.identity()
    for layer in layers:
        # eta for a single left layer: A_r beta(A_r^-1)
        piece = _eta_single_layer(layer, r, outside, lambda a: op_mul(a, beta.apply(op_inv(a))))
        z = op_mul(layer.conj(z), piece)
    return z


def eta(alpha: LocalizedAutomorphism, beta: LocalizedAutomorphism) -> SymOp:
    """Common value of all available routes; raises if any two disagree.

    Routes: group commutator (both inner), closed forms (one inner), and
    the truncation recursions eta_R / eta_L (circuits).  The result must lie
    in the origin disk of radius 2(rA + rB + tA + tB) + 2 (ranges r,
    declared thickenings t).  It is tested first against the smaller disk
    2(tA + tB) + 2, and the ranges are computed only for a result outside
    that.  eta only reads its arguments, so one alpha may pair with many
    betas: tau builds one left automorphism per _eta row.
    """
    routes: dict[str, SymOp] = {}
    if alpha.is_inner and beta.is_inner:
        routes["commutator"] = commutator(alpha.inner, beta.inner)
    if alpha.is_inner:
        u = alpha.inner
        routes["closed_form_left_inner"] = op_mul(u, beta.apply(op_inv(u)))
    if beta.is_inner:
        u = beta.inner
        routes["closed_form_right_inner"] = op_mul(alpha.apply(u), op_inv(u))
    if not beta.is_inner:
        routes["eta_R"] = eta_R(alpha, beta.circuit)
    if not alpha.is_inner:
        routes["eta_L"] = eta_L(alpha.circuit, beta)
    vals = list(routes.values())
    for v in vals[1:]:
        if v != vals[0]:
            raise RouteDisagreement(f"eta routes disagree: {routes}")
    result = vals[0]
    thick = alpha.declared_region.thickening + beta.declared_region.thickening
    if not support_mask(result) & ~region_mask(Region.origin_disk(2 * thick + 2)):
        return result
    disk = Region.origin_disk(2 * (alpha.range_bound() + beta.range_bound() + thick) + 2)
    if support_mask(result) & ~region_mask(disk):
        bad = sites_outside([result], disk)
        raise RouteDisagreement(f"eta output leaves the origin disk at {bad[:4]}")
    return result


# -- identity property suite -------------------------------------------------


def _conjugated_circuit(c: ProceduralCircuit, by: ProceduralCircuit) -> ProceduralCircuit:
    """The circuit whose gates are phi(by)(gate); realizes by o phi(c) o by^-1."""
    return ProceduralCircuit(
        tuple(Layer(conj_by_circuit(g, by, check_margin=False) for g in layer) for layer in c.layers),
        c.window,
    )


def _single_layer_circuit(u: SymOp, window: Window) -> ProceduralCircuit:
    return ProceduralCircuit((checked_layer((u,), window),), window)


def run_identity_suite(
    window: Window,
    n_pairs: int = 100,
    seed: int = 0,
) -> dict:
    """Check the pairing identities on seeded random representable pairs.

    Per pair: Ad_eta = [alpha, beta] on sampled local observables, the two
    one-layer-at-a-time multiplicativity identities, the two inner closed
    forms (with the inner automorphism also realized as a circuit, so the
    truncation route is genuinely exercised), conjugation equivariance,
    and bit-exact agreement of the left and right recursions (asserted
    inside eta on every call).  The report counts the checks of each
    identity and lists the failures, each with its identity and detail.
    """
    from .sampling import random_circuit, random_inner, region_sites

    rng = random.Random(seed)
    checks, failures = {}, []

    def record(name: str, passed: bool, detail: str = ""):
        checks[name] = checks.get(name, 0) + 1
        if not passed:
            failures.append({"identity": name, "detail": detail})

    # the circuits are drawn in a box inside the pairing's truncation disk,
    # so every layer they pair is whole in both truncations
    r, _ = _stabilization_radius(window)
    inner_reach = window.edge_distance((0, 0)) - window.margin
    box = Region.origin_disk(max(2, min(inner_reach, r)))
    # each generator draws from one fixed site list, built once here
    l_sites = region_sites(window, Region.intersection_of(Region.half_line_L(1), box))
    r_sites = region_sites(window, Region.intersection_of(Region.half_line_R(1), box))
    box_sites = region_sites(window, box)
    disk_sites = region_sites(window, Region.origin_disk(2))
    # the declared regions of the automorphisms, built once here too
    left3, right3 = Region.half_line_L(3), Region.half_line_R(3)
    left5, right5 = Region.half_line_L(5), Region.half_line_R(5)

    for _ in range(n_pairs):
        ca = random_circuit(rng, window, l_sites)
        cb = random_circuit(rng, window, r_sites)
        alpha = LocalizedAutomorphism(left3, circuit=ca)
        beta = LocalizedAutomorphism(right3, circuit=cb)
        e = eta(alpha, beta)

        # Ad_eta = [alpha, beta] on 10 sampled local observables
        ok = True
        for _ in range(10):
            s = (rng.randrange(-2, 3), 0)
            obs = SymOp.z(s) if rng.random() < 0.5 else SymOp.x(s)
            lhs = op_conj(obs, e)
            rhs = alpha.apply(beta.apply(alpha.apply_inverse(beta.apply_inverse(obs))))
            if lhs != rhs:
                ok = False
                break
        record("ad_eta_equals_commutator", ok, "" if ok else format_op(e))

        # right multiplicativity: eta(a, b b') = eta(a,b) * b(eta(a,b'))
        cb2 = random_circuit(rng, window, r_sites)
        beta2 = LocalizedAutomorphism(right3, circuit=cb2)
        both = LocalizedAutomorphism(right3, circuit=concat(cb2, cb))
        lhs = eta(alpha, both)
        rhs = op_mul(e, conj_by_circuit(eta(alpha, beta2), cb, check_margin=False))
        record("right_multiplicativity", lhs == rhs)

        # left multiplicativity: eta(a a', b) = a(eta(a',b)) * eta(a,b)
        ca2 = random_circuit(rng, window, l_sites)
        alpha2 = LocalizedAutomorphism(left3, circuit=ca2)
        both_a = LocalizedAutomorphism(left3, circuit=concat(ca2, ca))
        lhs = eta(both_a, beta)
        rhs = op_mul(conj_by_circuit(eta(alpha2, beta), ca, check_margin=False), e)
        record("left_multiplicativity", lhs == rhs)

        # inner closed forms, with the inner side realized as a circuit too
        u = random_inner(rng, disk_sites)
        adu_left = LocalizedAutomorphism(left3, circuit=_single_layer_circuit(u, window))
        ok = eta(adu_left, beta) == op_mul(u, beta.apply(op_inv(u)))
        record("inner_left_closed_form", ok, "" if ok else format_op(u))

        adu_right = LocalizedAutomorphism(right3, circuit=_single_layer_circuit(u, window))
        ok = eta(alpha, adu_right) == op_mul(alpha.apply(u), op_inv(u))
        record("inner_right_closed_form", ok, "" if ok else format_op(u))

        # conjugation equivariance by a representable gamma
        cg = random_circuit(rng, window, box_sites)
        alpha_c = LocalizedAutomorphism(left5, circuit=_conjugated_circuit(ca, cg))
        beta_c = LocalizedAutomorphism(right5, circuit=_conjugated_circuit(cb, cg))
        lhs = eta(alpha_c, beta_c)
        rhs = conj_by_circuit(e, cg, check_margin=False)
        record("conjugation_equivariance", lhs == rhs)
    return {"pairs": n_pairs, "checks": checks, "failures": failures, "ok": not failures}
