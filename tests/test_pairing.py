import random
import re

import pytest

from anomalion import pairing
from anomalion.circuits import Layer, ProceduralCircuit, checked_layer, concat, conj_by_circuit
from anomalion.lattice import Region, Window
from anomalion.pairing import (
    LocalizedAutomorphism,
    RouteDisagreement,
    StabilizationError,
    _eta_single_layer,
    _stabilization_radius,
    eta,
    eta_L,
    eta_R,
    run_identity_suite,
)
from anomalion.sampling import random_circuit, region_sites
from anomalion.symop import SymOp, commutator, op_inv, op_mul, op_product, support
from reference import eta_L_suffix, eta_R_suffix


def left_circuit(window, gates_layers):
    return ProceduralCircuit(tuple(checked_layer(layer, window) for layer in gates_layers), window)


def test_trivial_side_gives_identity(window12):
    trivial_left = LocalizedAutomorphism(Region.half_line_L(2), circuit=ProceduralCircuit((), window12))
    cz_layer = [SymOp.cz((x, 0), (x + 1, 0)) for x in range(0, 3)]
    beta = LocalizedAutomorphism(
        Region.half_line_R(2), circuit=left_circuit(window12, [cz_layer])
    )
    assert eta(trivial_left, beta).is_identity()

    x_left = LocalizedAutomorphism(
        Region.half_line_L(2),
        circuit=left_circuit(window12, [[SymOp.x((x, 0)) for x in range(-4, 1)]]),
    )
    trivial_right = LocalizedAutomorphism(Region.half_line_R(2), circuit=ProceduralCircuit((), window12))
    assert eta(x_left, trivial_right).is_identity()


def test_inner_closed_forms(window12):
    u = op_mul(SymOp.z((0, 0)), SymOp.x((-1, 0)))
    adu = LocalizedAutomorphism(Region.origin_disk(2), inner=u)
    x_layer = [SymOp.x((x, 0)) for x in range(0, 4)]
    beta = LocalizedAutomorphism(Region.half_line_R(2), circuit=left_circuit(window12, [x_layer]))
    got = eta(adu, beta)
    want = op_mul(u, conj_by_circuit(op_inv(u), beta.circuit, check_margin=False))
    assert got == want

    alpha = LocalizedAutomorphism(
        Region.half_line_L(2),
        circuit=left_circuit(window12, [[SymOp.x((x, 0)) for x in range(-4, 1)]]),
    )
    v = SymOp.z((1, 0))
    adv = LocalizedAutomorphism(Region.origin_disk(2), inner=v)
    got = eta(alpha, adv)
    want = op_mul(conj_by_circuit(v, alpha.circuit, check_margin=False), op_inv(v))
    assert got == want

    # both inner: commutator
    assert eta(adu, adv) == commutator(u, v)


@pytest.mark.parametrize("kernel", ["commutator", "op_conj"])
def test_inner_routes_check_each_other(monkeypatch, kernel):
    """eta of two inner automorphisms has a commutator route and two closed
    forms through op_conj; a bent monomial in either kernel is caught."""
    u = op_mul(SymOp.z((0, 0)), SymOp.x((-1, 0)))
    v = op_mul(SymOp.cz((0, 0), (1, 0)), SymOp.x((1, 0)))
    adu = LocalizedAutomorphism(Region.origin_disk(2), inner=u)
    adv = LocalizedAutomorphism(Region.origin_disk(2), inner=v)
    assert eta(adu, adv) == commutator(u, v)
    real = getattr(pairing, kernel)
    monkeypatch.setattr(pairing, kernel, lambda a, b: op_mul(SymOp.z((0, 0)), real(a, b)))
    with pytest.raises(RouteDisagreement):
        eta(adu, adv)


def test_declared_region_errors_name_the_sorted_sites(window12):
    """Gates and inner unitaries outside their declared region are refused;
    the message lists the offending sites sorted, not in gate order."""
    c = left_circuit(window12, [[SymOp.x((3, 0))], [SymOp.z((1, 1)), SymOp.z((-1, 0))]])
    with pytest.raises(ValueError, match=re.escape("circuit gate leaves declared region at [(1, 1), (3, 0)]")):
        LocalizedAutomorphism(Region.half_line_L(0), circuit=c)
    u = op_mul(SymOp.x((0, -1)), SymOp.z((-2, 0)))
    with pytest.raises(ValueError, match=re.escape("inner unitary leaves its declared region at [(-2, 0), (0, -1)]")):
        LocalizedAutomorphism(Region.half_line_R(0), inner=u)


def test_eta_output_outside_the_reach_disk_is_refused(window12, monkeypatch):
    """Routes that agree on an operator beyond the reach disk still fail."""
    alpha = LocalizedAutomorphism(Region.half_line_L(0), circuit=left_circuit(window12, [[SymOp.x((-1, 0))]]))
    beta = LocalizedAutomorphism(Region.half_line_R(0), circuit=left_circuit(window12, [[SymOp.z((1, 0))]]))
    assert eta(alpha, beta).is_identity()
    far = op_mul(SymOp.z((4, 0)), SymOp.z((0, 3)))  # reach is 2 for range-0 circuits
    monkeypatch.setattr(pairing, "eta_R", lambda a, c: far)
    monkeypatch.setattr(pairing, "eta_L", lambda c, b: far)
    with pytest.raises(RouteDisagreement, match=re.escape("eta output leaves the origin disk at [(0, 3), (4, 0)]")):
        eta(alpha, beta)


@pytest.mark.parametrize("radius, refused", [(4, False), (7, True)])
def test_eta_output_disk_verdict_on_each_branch(window12, monkeypatch, radius, refused):
    """A result past the radius-free disk 2(tA + tB) + 2 = 2 is returned
    inside the reach disk 2(rA + rB + tA + tB) + 2 = 6, and refused outside it."""
    alpha = LocalizedAutomorphism(Region.half_line_L(0), circuit=left_circuit(window12, [[SymOp.cz((-1, 0), (0, 0))]]))
    beta = LocalizedAutomorphism(Region.half_line_R(0), circuit=left_circuit(window12, [[SymOp.cz((0, 0), (1, 0))]]))
    assert (alpha.range_bound(), beta.range_bound()) == (1, 1)
    far = SymOp.z((radius, 0))
    monkeypatch.setattr(pairing, "eta_R", lambda a, c: far)
    monkeypatch.setattr(pairing, "eta_L", lambda c, b: far)
    if refused:
        with pytest.raises(RouteDisagreement, match=re.escape(f"eta output leaves the origin disk at [({radius}, 0)]")):
            eta(alpha, beta)
    else:
        assert eta(alpha, beta) == far


def test_diagonal_pairs_give_identity(window12):
    a = left_circuit(window12, [[SymOp.cz((x, 0), (x + 1, 0)) for x in range(-4, 0)]])
    b = left_circuit(window12, [[SymOp.cz((x, 0), (x + 1, 0)) for x in range(0, 4)]])
    alpha = LocalizedAutomorphism(Region.half_line_L(2), circuit=a)
    beta = LocalizedAutomorphism(Region.half_line_R(2), circuit=b)
    assert eta(alpha, beta).is_identity()


def test_single_layer_equals_truncated_commutator(window12):
    # for single layers, eta is the commutator of the disk truncations
    a_gates = [SymOp.x((x, 0)) for x in range(-5, 1)]
    b_gates = [SymOp.cz((x, 0), (x + 1, 0)) for x in range(-1, 4)]
    alpha = LocalizedAutomorphism(Region.half_line_L(2), circuit=left_circuit(window12, [a_gates]))
    beta = LocalizedAutomorphism(Region.half_line_R(2), circuit=left_circuit(window12, [b_gates]))
    e = eta(alpha, beta)
    r = window12.edge_distance((0, 0))
    ar = op_product([g for g in a_gates if all(max(abs(s[0]), abs(s[1])) <= r for s in support(g))])
    br = op_product([g for g in b_gates if all(max(abs(s[0]), abs(s[1])) <= r for s in support(g))])
    assert e == op_mul(op_mul(ar, br), op_mul(op_inv(ar), op_inv(br)))
    # and the output is supported near the origin
    assert all(max(abs(s[0]), abs(s[1])) <= 3 for s in support(e))


def test_x_string_against_crossing_cz_string(window12):
    # left X string against a CZ string reaching across the origin
    a_gates = [SymOp.x((x, 0)) for x in range(-5, 1)]
    b_gates = [SymOp.cz((x, 0), (x + 1, 0)) for x in range(-1, 4)]
    alpha = LocalizedAutomorphism(Region.half_line_L(2), circuit=left_circuit(window12, [a_gates]))
    beta = LocalizedAutomorphism(Region.half_line_R(2), circuit=left_circuit(window12, [b_gates]))
    e = eta(alpha, beta)
    assert not e.is_identity()
    assert support(e) <= {(x, 0) for x in range(-2, 3)}


def test_stabilization_error_on_tiny_window():
    w = Window.centered(6, 6, margin=0)
    layer = [SymOp.cz((0, 0), (1, 0))]
    alpha = LocalizedAutomorphism(
        Region.half_line_L(2), circuit=ProceduralCircuit((checked_layer((SymOp.x((0, 0)),), w),), w)
    )
    beta = LocalizedAutomorphism(Region.half_line_R(2), circuit=ProceduralCircuit((checked_layer(layer, w),), w))
    with pytest.raises(StabilizationError):
        eta(alpha, beta)


def test_identity_suite_small(window12):
    rep = run_identity_suite(window12, n_pairs=15, seed=11)
    assert rep["ok"], rep["failures"][:2]
    assert set(rep["checks"]) == {
        "ad_eta_equals_commutator",
        "right_multiplicativity",
        "left_multiplicativity",
        "inner_left_closed_form",
        "inner_right_closed_form",
        "conjugation_equivariance",
    }
    assert all(v == 15 for v in rep["checks"].values())


def test_identity_suite_chain_mode(chain12):
    rep = run_identity_suite(chain12, n_pairs=15, seed=23)
    assert rep["ok"], rep["failures"][:2]
    assert all(v == 15 for v in rep["checks"].values())


@pytest.mark.parametrize("which", ["window12", "chain12"])
def test_horner_routes_match_suffix_recursion(which, request):
    """eta_R / eta_L in Horner form equal the suffix-by-suffix recursion,
    with every layer paired at both radii, bit-exactly, on seeded random
    circuits and concatenations of up to 8 layers.  Conjugation keeps the
    flip set of a D_f X_S operator, so alpha(B) B^-1 and every eta value is
    diagonal: the two factors of a Horner step commute, and only the layer
    order and what is conjugated are observable."""
    window = request.getfixturevalue(which)
    rng = random.Random(12)
    box = Region.origin_disk(max(2, window.edge_distance((0, 0)) - window.margin))
    l_sites = region_sites(window, Region.intersection_of(Region.half_line_L(1), box))
    r_sites = region_sites(window, Region.intersection_of(Region.half_line_R(1), box))
    depths = set()
    for _ in range(25):
        ca, cb = random_circuit(rng, window, l_sites), random_circuit(rng, window, r_sites)
        for _ in range(rng.randrange(4)):
            ca = concat(random_circuit(rng, window, l_sites), ca)
            cb = concat(cb, random_circuit(rng, window, r_sites))
        depths.add(max(len(ca.layers), len(cb.layers)))
        alpha = LocalizedAutomorphism(Region.half_line_L(3), circuit=ca)
        beta = LocalizedAutomorphism(Region.half_line_R(3), circuit=cb)
        got = eta_R(alpha, cb)
        assert got == eta_R_suffix(alpha, cb) and not got.flips
        assert eta_L(ca, beta) == eta_L_suffix(ca, beta)
    assert max(depths) > 4


def test_single_layer_compares_radii_when_a_gate_is_in_the_annulus(window12):
    annulus_r = window12.edge_distance((0, 0)) - 2
    annulus = SymOp.z((annulus_r + 1, 0))  # in disk r+2, not in disk r
    layer = Layer([SymOp.z((0, 0)), annulus])
    inner = Layer([SymOp.z((0, 0)), SymOp.z((annulus_r, 0))])
    r, outside = _stabilization_radius(window12)  # after the gates exist
    assert r == annulus_r
    with pytest.raises(StabilizationError, match="did not stabilize"):
        _eta_single_layer(layer, r, outside, lambda t: t)
    # X at the origin commutes with the annulus Z, so both radii agree
    blind = lambda t: commutator(SymOp.x((0, 0)), t)
    assert _eta_single_layer(layer, r, outside, blind) == SymOp.scalar(-1)
    # a layer wholly inside disk r is paired once, on its product
    seen = []
    assert _eta_single_layer(inner, r, outside, lambda t: seen.append(t) or t) == inner.product()
    assert seen == [inner.product()]
    with pytest.raises(StabilizationError, match="window too small"):
        _stabilization_radius(Window.centered(7, 7))


def test_one_pairing_and_one_layer_conjugation_per_layer(window12, monkeypatch):
    """Each route pairs each layer once (one conj_by_circuit of the other
    argument) and conjugates through each of its own layers once (Layer.conj
    calls outside conj_by_circuit)."""
    counts = {"conj_by_circuit": 0, "layer_conj": 0}
    inside = []

    def counted_conj(a, c, check_margin=True):
        counts["conj_by_circuit"] += 1
        inside.append(c)
        try:
            return conj_by_circuit(a, c, check_margin)
        finally:
            inside.pop()

    layer_conj = Layer.conj

    def counted_layer_conj(layer, a):
        counts["layer_conj"] += not inside
        return layer_conj(layer, a)

    monkeypatch.setattr(pairing, "conj_by_circuit", counted_conj)
    monkeypatch.setattr(Layer, "conj", counted_layer_conj)

    def run(f, *args):
        for k in counts:
            counts[k] = 0
        f(*args)
        return dict(counts)

    a_layers = [[SymOp.x((-1, 0))], [SymOp.cz((-2, 0), (-1, 0))]]
    b_layers = [[SymOp.cz((0, 0), (1, 0))], [SymOp.x((1, 0))], [SymOp.z((2, 0))]]
    one_a = LocalizedAutomorphism(Region.half_line_L(2), circuit=left_circuit(window12, a_layers[:1]))
    one_b = LocalizedAutomorphism(Region.half_line_R(2), circuit=left_circuit(window12, b_layers[:1]))
    assert run(eta, one_a, one_b) == {"conj_by_circuit": 2, "layer_conj": 2}
    alpha = LocalizedAutomorphism(Region.half_line_L(2), circuit=left_circuit(window12, a_layers))
    beta = LocalizedAutomorphism(Region.half_line_R(2), circuit=left_circuit(window12, b_layers))
    assert run(eta_R, alpha, beta.circuit) == {"conj_by_circuit": 3, "layer_conj": 3}
    assert run(eta_L, alpha.circuit, beta) == {"conj_by_circuit": 2, "layer_conj": 2}


def test_suite_formats_an_operator_only_when_its_identity_fails(window12, monkeypatch):
    """A passing suite formats no operator.  A failing identity carries its
    operator, formatted, in the suite's failures and in the violations of
    crossed lattice."""
    from anomalion import sampling
    from anomalion.crossed import verify_lattice_square
    from anomalion.symop import format_op

    formatted = []
    monkeypatch.setattr(pairing, "format_op", lambda a: formatted.append(a) or format_op(a))
    assert run_identity_suite(window12, n_pairs=3, seed=5)["ok"]
    assert formatted == []

    # a Z string over the sampled observable sites bends every eta, so Ad_eta
    # and both inner closed forms fail
    z_string = op_product([SymOp.z((x, 0)) for x in range(-2, 3)])
    real_eta, real_inner = pairing.eta, sampling.random_inner
    bent, inners = [], []
    monkeypatch.setattr(pairing, "eta", lambda a, b: bent.append(op_mul(real_eta(a, b), z_string)) or bent[-1])
    monkeypatch.setattr(sampling, "random_inner", lambda rng, sites: inners.append(real_inner(rng, sites)) or inners[-1])
    rep = run_identity_suite(window12, n_pairs=2, seed=5)
    details = {}
    for f in rep["failures"]:
        details.setdefault(f["identity"], []).append(f["detail"])
    assert details["inner_left_closed_form"] == details["inner_right_closed_form"] == [format_op(u) for u in inners]
    assert len(details["ad_eta_equals_commutator"]) == 2
    assert set(details["ad_eta_equals_commutator"]) <= {format_op(e) for e in bent}
    assert [format_op(a) for a in formatted] == [f["detail"] for f in rep["failures"] if f["detail"]]
    assert len(formatted) == 6

    inners.clear()
    square = verify_lattice_square(window12, samples=2, seed=5)
    assert not square["ok"] and len(inners) == 2
    for u in inners:
        assert f"eta_f(l)_n: {format_op(u)}" in square["violations"]
        assert f"eta_m_g(l): {format_op(u)}" in square["violations"]
    ad_eta = [v.split(": ", 1)[1] for v in square["violations"] if v.startswith("f_g_of_eta_is_commutator: ")]
    assert len(ad_eta) == 2 and set(ad_eta) <= {format_op(e) for e in bent}
