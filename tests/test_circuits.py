import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomalion.circuits import (
    BUILTIN_ACTIONS,
    CircuitAction,
    CollapseError,
    GateRule,
    InstantiationError,
    Layer,
    MarginError,
    ProceduralCircuit,
    action_from_config,
    builtin_action,
    checked_layer,
    concat,
    conj_by_circuit,
    crop_window_debris,
    product_collapse,
    truncate,
    validate_action,
)
from anomalion.groups import FiniteGroup, klein_four
from anomalion.lattice import Region, Window
from anomalion.pairing import _conjugated_circuit
from anomalion.symop import (
    SymOp,
    _sites,
    format_op,
    op_conj,
    op_mul,
    op_product,
    ops_commute,
    support,
    support_mask,
    support_masks,
)
from oracle import DenseSpace
from reference import suffix_circuit, truncate_rest, validate_per_pair


def test_generate_x_sites():
    w = Window(0, 3, 0, 3)
    c = ProceduralCircuit((GateRule("x_sites", Region.full()).generate(w),), w)
    layers = c.layers
    assert len(layers) == 1 and len(layers[0]) == 16
    assert all(not g.poly and len(g.flips) == 1 for g in layers[0])


def test_generate_ccz_single_square():
    w = Window(0, 1, 0, 1)
    c = ProceduralCircuit((GateRule("ccz_triangles", Region.full()).generate(w),), w)
    (layer,) = c.layers
    assert len(layer) == 2
    monos = {next(iter(g.poly)) for g in layer}
    # the two triangles share the bottom-left/top-right diagonal
    assert frozenset([(0, 0), (0, 1), (1, 1)]) in monos
    assert frozenset([(0, 0), (1, 0), (1, 1)]) in monos


def test_empty_circuit():
    w = Window(0, 3, 0, 3)
    c = ProceduralCircuit((), w)
    assert c.layers == () and c.is_identity()
    assert c.unitary().is_identity()


def test_layer_validity_checks():
    w = Window(0, 2, 0, 0)
    with pytest.raises(InstantiationError):
        checked_layer((SymOp.cz((0, 0), (1, 0)), SymOp.x((1, 0))), w)
    # overlapping but commuting diagonal gates are fine
    ok = checked_layer((SymOp.cz((0, 0), (1, 0)), SymOp.cz((1, 0), (2, 0))), w)
    # gates must stay inside the window
    with pytest.raises(InstantiationError, match=r"gate leaves window at \(5, 0\)"):
        checked_layer((SymOp.x((5, 0)),), w)
    # the explicit pattern is gone: a gate list is a checked_layer
    with pytest.raises(InstantiationError, match="unknown pattern 'explicit'"):
        GateRule("explicit")
    # circuits derived from a checked one hold Layers too
    c = ProceduralCircuit((ok, GateRule("x_sites").generate(w)), w)
    for derive in (
        lambda c: truncate(c, Region.full()),
        lambda c: concat(ProceduralCircuit((ok,), w), c),
        lambda c: c.inverse(),
    ):
        assert all(type(layer) is Layer for layer in derive(c).layers)


def spy_pair_tests(monkeypatch) -> list:
    """Record the gate pairs checked_layer tests for commutation."""
    from anomalion import circuits

    calls = []
    real = circuits.ops_commute

    def ops_commute(g, h):
        calls.append((g, h))
        return real(g, h)

    monkeypatch.setattr(circuits, "ops_commute", ops_commute)
    return calls


def index_sites(layer) -> dict:
    """The layer's monomial index decoded: site -> the product's monomials
    that contain it, each as a set of sites."""
    return {_sites(bit)[0]: {frozenset(_sites(m)) for m in monomials} for bit, monomials in layer._index.items()}


def test_layers_whose_masks_miss_pass_without_an_index(monkeypatch):
    """An all-diagonal or all-X layer passes validation in one mask test, with
    no pairwise test and no index, and an operator that commutes with a layer
    by its masks, or flips no site of its diagonal, builds no index."""
    w = Window(-3, 3, -3, 3)
    gates = (SymOp.cz((0, 0), (1, 0)), SymOp.z((0, 0)), SymOp.ccz((0, 0), (1, 0), (1, 1)))
    diag = lambda: checked_layer(gates, w)
    xs = lambda: GateRule("x_sites", Region.origin_disk(1)).generate(w)
    calls = spy_pair_tests(monkeypatch)
    for make in (diag, xs):
        layer = make()
        assert len(layer) > 1 and layer._index is None
    assert calls == []
    # Z on a diagonal layer's sites, X on an X layer's sites: the operator
    # meets the layer's support but neither its flips nor its diagonal
    for make, a in ((diag, SymOp.cz((0, 0), (1, 1))), (xs, SymOp.x((0, 0)))):
        layer = make()
        assert support_mask(a) & layer.mask()
        assert layer.conj(a) is a
        assert layer._index is None
    # a diagonal on an X layer's flips acts through the flips alone
    layer = xs()
    z = SymOp.z((0, 0))
    assert layer.conj(z) == op_mul(SymOp.scalar(-1), z) == op_conj(z, layer.product())
    assert layer._index is None
    # an operator that flips a site of the diagonal builds the index, and
    # the monomials of the product on that site act
    layer = diag()
    x = SymOp.x((1, 0))
    assert layer.conj(x) == op_conj(x, op_product([layer[0], layer[2]])) == op_conj(x, layer.product())
    cz, z, ccz = (next(iter(g.poly)) for g in gates)
    assert index_sites(layer) == {(0, 0): {cz, z, ccz}, (1, 0): {cz, ccz}, (1, 1): {ccz}}


def test_layer_masks_meeting_falls_back_to_pairwise_check(monkeypatch):
    """A layer whose diagonal meets its flips tests its gates pairwise:
    X(a)X(b) and Z(a)Z(b) commute and pass, and so does one gate whose
    diagonal meets its own flips, with no pair to test; X(a) with Z(a) or
    with CZ(a,b) does not commute and is refused, naming the first such
    pair."""
    w = Window(-3, 3, -3, 3)
    a, b = (0, 0), (1, 0)
    xx = SymOp(frozenset(), frozenset({a, b}))
    zz = op_mul(SymOp.z(a), SymOp.z(b))
    calls = spy_pair_tests(monkeypatch)
    layer = checked_layer((xx, zz), w)
    assert support_masks(zz)[0] & support_masks(xx)[1] and list(layer) == [xx, zz]
    assert calls == [(xx, zz)]
    calls.clear()
    zx = op_mul(SymOp.cz(a, b), SymOp.x(a))
    assert support_masks(zx)[0] & support_masks(zx)[1]
    assert list(checked_layer((zx,), w)) == [zx] and calls == []
    with pytest.raises(InstantiationError, match="overlap and do not commute"):
        checked_layer((SymOp.x(a), SymOp.z(a)), w)
    with pytest.raises(
        InstantiationError,
        match=r"^layer gates X\(0,0\) and CZ\(\(0,0\),\(1,0\)\) overlap and do not commute$",
    ):
        checked_layer((SymOp.x(a), SymOp.x((2, 2)), SymOp.cz(a, b)), w)


def test_truncate_keeps_fully_contained_gates():
    w = Window.centered(8, 8, margin=0)
    c = ProceduralCircuit((GateRule("ccz_triangles", Region.full()).generate(w),), w)
    H = Region.half_plane_H()
    tr = truncate(c, H)
    for layer in tr.layers:
        for g in layer:
            assert all(s[1] >= 0 for s in support(g))
    # decomposition: truncation plus remainder is the whole gate set
    rest = truncate_rest(c, H)
    for full_layer, a, b in zip(c.layers, tr.layers, rest.layers):
        assert sorted(map(format_op, full_layer)) == sorted(map(format_op, list(a) + list(b)))
        assert not (set(map(format_op, a)) & set(map(format_op, b)))


def test_truncate_full_is_identity_operation():
    w = Window.centered(6, 6, margin=0)
    c = ProceduralCircuit((GateRule("ccz_triangles", Region.full()).generate(w),), w)
    assert truncate(c, Region.full()).unitary() == c.unitary()


def test_truncate_1d_half_line():
    w = Window.chain(8)
    c = ProceduralCircuit((GateRule("x_sites", Region.full()).generate(w),), w)
    tr = truncate(c, Region.half_line_R())
    sites = {next(iter(g.flips)) for layer in tr.layers for g in layer}
    assert sites == {(x, 0) for x in range(0, w.x_max + 1)}


def test_conj_by_circuit_examples(window12):
    action = builtin_action("ccz_x_2d", window12)
    u2 = action.circuit(0b01)  # the all-site X layer
    z = SymOp.z((0, 1))
    assert conj_by_circuit(z, u2) == op_mul(SymOp.scalar(-1), z)
    ident = ProceduralCircuit((), window12)
    any_op = op_mul(SymOp.cz((0, 0), (1, 0)), SymOp.x((2, 2)))
    assert conj_by_circuit(any_op, ident) == any_op


def test_conj_boundary_cz_string_interior_z_cancel(window12):
    # conjugating a CZ string on the boundary row by the X product flips
    # each edge into CZ * Z * Z; interior Z's appear twice and cancel
    xs = ProceduralCircuit((GateRule("x_sites", Region.half_plane_H()).generate(window12),), window12)
    string = op_product([SymOp.cz((x, 0), (x + 1, 0)) for x in range(-2, 2)])
    out = conj_by_circuit(string, xs)
    expect = op_product(
        [string, SymOp.z((-2, 0)), SymOp.z((2, 0))]
    )
    assert out == expect


def test_conj_depends_only_on_nearby_gates(window12):
    rng = random.Random(3)
    action = builtin_action("ccz_x_2d", window12)
    c = action.circuit(0b11)
    a = op_mul(SymOp.z((0, 0)), SymOp.x((1, 0)))
    full = conj_by_circuit(a, c)
    # keep only gates within range of the support; the rest cannot matter
    reach = c.total_range()
    kept_layers = []
    for layer in c.layers:
        kept = [
            g
            for g in layer
            if any(
                max(abs(s[0] - t[0]), abs(s[1] - t[1])) <= 2 * reach + 1
                for s in support(g)
                for t in support(a)
            )
        ]
        kept_layers.append(checked_layer(kept, window12))
    pruned = ProceduralCircuit(tuple(kept_layers), window12)
    assert conj_by_circuit(a, pruned) == full


def test_conj_margin_error(window12):
    action = builtin_action("ccz_x_2d", window12)
    c = action.circuit(0b10)
    with pytest.raises(MarginError):
        conj_by_circuit(SymOp.z((window12.x_max, 0)), c)


def test_margin_mask_matches_edge_distance():
    """The mask margin check raises exactly when some support site is
    within the circuit's range of the rim (edge distance < range), for
    operators near the rim and outside the window; on a chain, sites off
    the row y = 0 lie outside the window and raise too."""
    rng = random.Random(2024)
    windows = (Window.centered(12, 12, 3), Window(-3, 5, -6, 2, 1), Window.chain(12, 3))
    for window in windows:
        pattern = "cz_chain_edges" if window.is_chain else "cz_horizontal_edges"
        for reach in range(8):
            c = ProceduralCircuit((GateRule(pattern, Region.full()).generate(window),) * reach, window)
            assert c.total_range() == reach
            for _ in range(60):
                sites = {
                    (rng.randint(window.x_min - 2, window.x_max + 2),
                     0 if window.is_chain else rng.randint(window.y_min - 2, window.y_max + 2))
                    for _ in range(rng.randint(1, 3))
                }
                flips = {s for s in sites if rng.random() < 0.5}
                a = SymOp(frozenset(frozenset([s]) for s in sites - flips), frozenset(flips))
                per_site = any(window.edge_distance(s) < reach for s in sites)
                try:
                    conj_by_circuit(a, c)
                    raised = False
                except MarginError as err:
                    first = min(s for s in sites if window.edge_distance(s) < reach)
                    assert f"support site {first} " in str(err)
                    raised = True
                assert raised == per_site, (window, reach, sorted(sites))
    chain = windows[2]
    with pytest.raises(MarginError):
        conj_by_circuit(SymOp.z((0, 1)), ProceduralCircuit.empty(chain))
    deep = ProceduralCircuit((GateRule("cz_chain_edges", Region.full()).generate(chain),) * 7, chain)
    assert deep.interior() is None
    assert conj_by_circuit(SymOp.scalar(-1), deep) == SymOp.scalar(-1)


def test_circuit_unitary_matches_dense():
    w = Window(0, 2, 0, 2)
    action = builtin_action("ccz_x_2d", w)
    sp = DenseSpace(list(w.sites()))
    for g in action.group.elements():
        c = action.circuit(g)
        assert np.array_equal(sp.symop_matrix(c.unitary()), sp.circuit_matrix(c))
        inv = c.inverse()
        assert op_mul(c.unitary(), inv.unitary()).is_identity()


def test_product_collapse_identity(window12):
    action = builtin_action("ccz_x_2d", window12)
    rho = truncate(action.circuit(0b10), Region.half_plane_H())
    res = product_collapse([rho, rho], [1, -1], expect_region=Region.origin_disk(1))
    assert res.op.is_identity()


def test_product_collapse_mu_form(ccz_data):
    # exact collapsed product on the boundary: CZ string times Z string
    # (the Z string comes from the strict truncation and a boundary
    # regauging of rho~ removes it; see the pipeline tests)
    mu = ccz_data.mu[0b01, 0b10]
    w = ccz_data.window
    keep = lambda sites: not all(w.in_edge_strip(s) for s in sites)
    cz = [frozenset({(x, 0), (x + 1, 0)}) for x in range(w.x_min, w.x_max) if keep({(x, 0), (x + 1, 0)})]
    zs = [frozenset({(x, 0)}) for x in range(w.x_min, w.x_max + 1) if keep({(x, 0)})]
    assert mu == SymOp(frozenset(cz) ^ frozenset(zs))
    assert ccz_data.mu[0b10, 0b01].is_identity()


def test_product_collapse_non_collapsing_error(window12):
    action = builtin_action("ccz_x_2d", window12)
    rho_g = truncate(action.circuit(0b01), Region.half_plane_H())
    rho_h = truncate(action.circuit(0b10), Region.half_plane_H())
    with pytest.raises(CollapseError):
        product_collapse([rho_g, rho_h], [1, 1], expect_region=Region.origin_disk(2))


def test_builtin_actions(window12, chain12):
    builtins = {
        "ccz_x_2d": (window12, chain12, "2d"),
        "onsite_x_2d": (window12, chain12, "2d"),
        "onsite_x_1d": (chain12, window12, "chain"),
        "onsite_xx_1d": (chain12, window12, "chain"),
        "levin_gu_1d": (chain12, window12, "chain"),
    }
    assert set(BUILTIN_ACTIONS) == set(builtins)
    for name, (window, other, kind) in builtins.items():
        action = builtin_action(name, window)
        assert action.name == name
        assert action.circuit(action.group.id).is_identity()
        assert all(type(layer) is Layer for c in action.distinct for layer in c.layers)
        assert validate_action(action) == []
        with pytest.raises(ValueError, match=f"^{name} needs a {kind} window$"):
            builtin_action(name, other)
    with pytest.raises(ValueError):
        builtin_action("no_such_action", window12)
    lg = builtin_action("levin_gu_1d", chain12)
    layers = lg.circuit(1).layers
    assert len(layers) == 2
    assert all(not g.poly for g in layers[0])              # X layer
    assert all(not g.flips for g in layers[1])         # CZ layer


def test_u1_u2_commute_and_square(window12):
    action = builtin_action("ccz_x_2d", window12)
    interior = [s for s in window12.sites() if window12.edge_distance(s) >= 4]
    rng = random.Random(1)
    for _ in range(5):
        s = interior[rng.randrange(len(interior))]
        for obs in (SymOp.z(s), SymOp.x(s)):
            u1 = action.circuit(0b10)
            u2 = action.circuit(0b01)
            ab = conj_by_circuit(conj_by_circuit(obs, u2), u1)
            ba = conj_by_circuit(conj_by_circuit(obs, u1), u2)
            assert ab == ba
            assert conj_by_circuit(conj_by_circuit(obs, u1), u1) == obs
            assert conj_by_circuit(conj_by_circuit(obs, u2), u2) == obs


def test_crop_window_debris(window12):
    rim = SymOp.z((window12.x_max, 0))
    deep = SymOp.z((0, 0))
    res = crop_window_debris(op_mul(rim, deep), window12)
    assert res.op == deep and len(res.cropped) == 1
    # scalars are never cropped
    res2 = crop_window_debris(SymOp.scalar(-1), window12)
    assert res2.op == SymOp.scalar(-1) and not res2.cropped


def test_crop_window_debris_order_is_canonical(window12):
    # the same operator built in two insertion orders logs the same list
    rim = [s for s in window12.sites() if window12.in_edge_strip(s)]
    pairs = [(s, (s[0] + 1, s[1])) for s in rim if window12.in_edge_strip((s[0] + 1, s[1]))]
    monomials = [[s] for s in rim] + [list(p) for p in pairs] + [[(0, 0)], [(0, 0), (0, 1)]]
    flips = rim + [(0, 0)]
    forward = SymOp(frozenset(frozenset(m) for m in monomials), frozenset(flips))
    backward = SymOp(
        frozenset(frozenset(reversed(m)) for m in reversed(monomials)), frozenset(reversed(flips))
    )
    assert forward == backward
    res, res2 = crop_window_debris(forward, window12), crop_window_debris(backward, window12)
    assert res.op == res2.op
    assert len(res.cropped) == len(rim) + len(pairs) + len(rim)
    assert res.cropped == res2.cropped


def test_action_from_config(window12):
    from anomalion.circuits import action_from_config

    cfg = {
        "group": {"order": 2, "mul": [0, 1, 1, 0], "names": ["e", "x"]},
        "generators": [
            {"element": "x", "layers": [{"pattern": "x_on_sites", "region": {"kind": "full"}}]}
        ],
    }
    action = action_from_config(cfg, window12)
    assert action.group.order == 2
    assert not action.circuit(0).layers
    (layer,) = action.circuit(1).layers
    assert len(layer) == len(list(window12.sites()))


def test_builtin_ccz_layer_content(window12):
    action = builtin_action("ccz_x_2d", window12)
    (ccz_layer,) = action.circuit(0b10).layers   # g = (1,0): triangles only
    assert all(not g.flips and g.degree() == 3 for g in ccz_layer)
    x_layer, = action.circuit(0b01).layers       # g = (0,1): X product only
    assert all(not g.poly for g in x_layer)
    both = action.circuit(0b11).layers           # X applied first, then CCZ
    assert len(both) == 2 and not both[0][0].poly and not both[1][0].flips


def conj_order(g):
    return (sorted(support(g)), len(g.poly), len(g.flips))


def conj_full_scan(a, c):
    """Reference for conj_by_circuit: test every gate of each layer against
    the running support, then apply those that meet it in conj_order."""
    for layer in c.layers:
        supp = support(a)
        acting = [g for g in layer if support(g) & supp]
        for g in sorted(acting, key=conj_order):
            a = op_conj(a, g)
    return a


GRID = Window(0, 3, 0, 3)
GRID_SITES = list(GRID.sites())


def rand_gate(rng):
    sites = rng.sample(GRID_SITES, rng.choice([1, 2, 3]))
    poly = {frozenset(rng.sample(sites, rng.randrange(1, len(sites) + 1))) for _ in range(rng.randrange(3))}
    flips = frozenset(s for s in sites if rng.random() < 0.4)
    return SymOp(frozenset(poly), flips)


def rand_layer(rng):
    """A valid layer: overlapping gates commute.  Repeats and a CZ*Z / Z*Z
    pair give gates that share a conjugation key."""
    gates = []
    for _ in range(rng.randrange(8)):
        r = rng.random()
        if r < 0.15 and gates:
            new = [gates[rng.randrange(len(gates))]]
        elif r < 0.3:
            a, b = rng.sample(GRID_SITES, 2)
            new = [op_mul(SymOp.cz(a, b), SymOp.z(a)), op_mul(SymOp.z(a), SymOp.z(b))]
        else:
            new = [rand_gate(rng)]
        if all(ops_commute(g, h) or not support(g) & support(h) for g in new for h in gates):
            gates += new
    return checked_layer(gates, GRID)


def rand_circuit(rng):
    return ProceduralCircuit(tuple(rand_layer(rng) for _ in range(rng.randrange(4))), GRID)


DERIVED_KINDS = 6


def rand_derived(rng, c, kind=None):
    if kind is None:
        kind = rng.randrange(DERIVED_KINDS)
    if kind == 0:
        return truncate(c, Region.origin_disk(rng.randrange(4)))
    if kind == 1:
        return c.inverse()
    if kind == 2:
        return concat(c, rand_circuit(rng))
    if kind == 3:
        return suffix_circuit(c, rng.randrange(len(c.layers) + 1))
    if kind == 4:
        return _conjugated_circuit(c, rand_circuit(rng))
    return c


def can_fail_to_commute(g, a):
    """D_f X_S and D_h X_T commute when supp(f) misses T and S misses supp(h)."""
    def diag(op):
        return frozenset().union(*op.poly)

    return bool(diag(g) & a.flips or g.flips & diag(a))


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_indexed_conj_matches_full_scan(seed):
    """Each layer conjugates as its whole product does and as the product of
    the gates that can fail to commute with the operator does; the other
    gates commute with it, and an operator no gate can act on is returned
    as it is."""
    rng = random.Random(seed)
    c = rand_derived(rng, rand_circuit(rng))
    for _ in range(3):
        a = op_mul(rand_gate(rng), rand_gate(rng))
        assert conj_by_circuit(a, c, check_margin=False) == conj_full_scan(a, c)
        b = a
        for layer in c.layers:
            acting = [g for g in layer if can_fail_to_commute(g, b)]
            assert all(ops_commute(g, b) for g in layer if not can_fail_to_commute(g, b))
            image = layer.conj(b)
            assert image == op_conj(b, layer.product()) == op_conj(b, op_product(acting))
            if not acting:
                assert image is b
            for g in acting:
                b = op_conj(b, g)
            assert b == image
        assert b == conj_full_scan(a, c)


def test_layer_conj_is_conj_by_product_on_derived_layers():
    """Layer.conj is op_conj by the whole product on inverse, conjugated,
    concatenated and truncated layers, where the products carry cross
    terms and the sign: Z(b)X(a) and Z(a)X(b) commute and multiply to
    -Z(a)Z(b)X(a)X(b), and CZ(b,c)X(a) and CZ(a,c)X(b) to
    CZ(b,c)CZ(a,c)Z(c)X(a)X(b)."""
    a, b, c, d = (0, 0), (1, 0), (1, 1), (0, 1)
    signed = checked_layer([op_mul(SymOp.z(b), SymOp.x(a)), op_mul(SymOp.z(a), SymOp.x(b))], GRID)
    crossed = checked_layer([op_mul(SymOp.cz(b, c), SymOp.x(a)), op_mul(SymOp.cz(a, c), SymOp.x(b))], GRID)
    assert frozenset() in signed.product().poly
    assert frozenset({c}) in crossed.product().poly and not any(g.poly == {frozenset({c})} for g in crossed)
    circuit = ProceduralCircuit((signed, crossed, checked_layer([SymOp.ccz(a, c, d), SymOp.x(b)], GRID)), GRID)
    by = ProceduralCircuit((checked_layer([SymOp.x(c), SymOp.cz(a, d)], GRID),), GRID)
    derived = (
        circuit,
        circuit.inverse(),
        _conjugated_circuit(circuit, by),
        concat(circuit, by),
        truncate(circuit, Region.origin_disk(0)),
        truncate(circuit, Region.half_plane_H()),
    )
    sites = (a, b, c, d, (2, 0))
    ops = [SymOp.z(s) for s in sites] + [SymOp.x(s) for s in sites]
    ops += [op_mul(p, q) for p in ops for q in ops[::3]]
    products = []
    for derived_circuit in derived:
        for layer in derived_circuit.layers:
            products.append(layer.product())
            for op in ops:
                assert layer.conj(op) == op_conj(op, layer.product())
        for op in ops:
            assert conj_by_circuit(op, derived_circuit, check_margin=False) == conj_full_scan(op, derived_circuit)
    assert sum(frozenset() in p.poly for p in products) >= 3


@given(st.integers(0, 2**32), st.integers(0, DERIVED_KINDS - 1))
@settings(max_examples=200, deadline=None)
def test_layer_product_and_mask_match_gates(seed, kind):
    """The cached product and mask of generated, truncated, inverted,
    concatenated, suffix and conjugated layers are those of their gates."""
    rng = random.Random(seed)
    c = rand_derived(rng, rand_circuit(rng), kind)
    for layer in c.layers:
        want = 0
        for g in layer:
            want |= support_mask(g)
        assert layer.mask() == want
        assert layer.product() == op_product(layer)
        assert layer.product() is layer.product()


def test_diagonal_passes_ccz_layer_without_acting_gates(window12):
    c = builtin_action("ccz_x_2d", window12).circuit(0b10)  # the CCZ layer only
    (layer,) = c.layers
    diag = op_mul(SymOp.cz((0, 0), (1, 0)), op_mul(SymOp.z((0, 1)), SymOp.scalar(-1)))
    assert layer.conj(diag) is diag and layer._index is None
    assert conj_by_circuit(diag, c) == diag == conj_full_scan(diag, c)
    # X at a site meets exactly the six triangles around it, which then act
    x = SymOp.x((0, 0))
    assert conj_by_circuit(x, c) == conj_full_scan(x, c) == op_conj(x, layer.product()) != x
    meeting = index_sites(layer)[(0, 0)]
    assert len(meeting) == 6 and all((0, 0) in m and len(m) == 3 for m in meeting)
    assert meeting == {next(iter(g.poly)) for g in layer if (0, 0) in support(g)}


def test_total_range_of_derived_circuits(window12):
    # x_sites has range 0 and every other pattern 1, even when it yields no
    # gates; explicit and truncated layers have their largest gate diameter
    rules = (GateRule("x_sites"), GateRule("ccz_triangles", Region.boundary_line()),
             GateRule("cz_horizontal_edges", Region.half_plane_H()))
    c = ProceduralCircuit(tuple(rule.generate(window12) for rule in rules), window12)
    assert not c.layers[1]
    assert c.total_range() == 2
    assert concat(c, c).total_range() == 4
    assert suffix_circuit(c, 1).total_range() == 2
    assert truncate(c, Region.half_plane_H()).total_range() == 1
    assert truncate(c, Region.boundary_line()).total_range() == 1
    assert truncate_rest(c, Region.half_plane_H()).total_range() == 0
    assert c.inverse().total_range() == 1
    ccz = builtin_action("ccz_x_2d", window12).circuit(0b11)
    assert ccz.total_range() == 1 and ccz.inverse().total_range() == 1


def test_explicit_rule_diameters_decoded_once(window12, monkeypatch):
    from anomalion import circuits

    calls = []
    diameter = circuits._diameter
    monkeypatch.setattr(circuits, "_diameter", lambda sites: calls.append(sites) or diameter(sites))
    gates = (SymOp.cz((0, 0), (1, 0)), SymOp.x((2, 2)))
    c = ProceduralCircuit((checked_layer(gates, window12),), window12)
    assert c.total_range() == 1
    conj_by_circuit(SymOp.x((0, 0)), c)
    assert c.total_range() == 1 and len(calls) == len(gates)


def test_rules_generated_once_and_inverse_cached(window12, monkeypatch):
    calls = []
    generate = GateRule.generate
    monkeypatch.setattr(GateRule, "generate", lambda rule, w: calls.append(rule) or generate(rule, w))
    c = builtin_action("ccz_x_2d", window12).circuit(0b11)
    H = Region.half_plane_H()
    for d in (truncate(c, H), truncate_rest(c, H), concat(c, c), suffix_circuit(c, 1), c.inverse()):
        assert all(type(layer) is Layer for layer in d.layers)
    a = SymOp.x((0, 0))
    assert conj_by_circuit(conj_by_circuit(a, c), c.inverse()) == a
    assert len(calls) == 2  # the X rule and the CCZ rule of c
    assert c.inverse() is c.inverse()
    assert op_mul(c.unitary(), c.inverse().unitary()).is_identity()


def test_validate_action_checks_every_interior_site(window12):
    # X on s then CZ(s,t) squares to Z_t, which fixes every observable but
    # X_t; the sampled check this replaced (2 random interior sites per
    # pair, drawn from random.Random(0) as the CLI did) passed this action
    t, s = (-1, 0), (0, 0)
    c1 = ProceduralCircuit((checked_layer((SymOp.x(s),), window12), checked_layer((SymOp.cz(s, t),), window12)),
                           window12)
    action = CircuitAction(FiniteGroup.cyclic(2), (ProceduralCircuit((), window12), c1), window12)
    assert validate_action(action) == [f"rho(1)rho(1) != rho(0) on {SymOp.x(t)}"]


def test_explicit_layer_range_is_largest_gate_diameter(window12):
    """Random explicit layers of diagonal gates on far-apart sites: the
    total range is the sum over layers of the largest x or y extent of a
    gate's support."""
    rng = random.Random(17)
    sites = list(window12.sites())

    def extent(g):
        xs = [s[0] for s in support(g)]
        ys = [s[1] for s in support(g)]
        return max(max(xs) - min(xs), max(ys) - min(ys))

    for _ in range(30):
        layers = []
        for _ in range(rng.randint(1, 3)):
            gates = []
            for _ in range(rng.randint(1, 5)):
                picked = rng.sample(sites, rng.randint(1, 3))
                gates.append((SymOp.z, SymOp.cz, SymOp.ccz)[len(picked) - 1](*picked))
            layers.append(gates)
        c = ProceduralCircuit(tuple(checked_layer(gates, window12) for gates in layers), window12)
        want = sum(max(extent(g) for g in gates) for gates in layers)
        assert c.total_range() == want
        assert [layer.range_bound() for layer in c.layers] == [
            max(extent(g) for g in gates) for gates in layers
        ]


def test_order8_action_generates_each_rule_once(digest_script, window12, monkeypatch):
    """Equal circuits of an action are one object and equal rules one Layer,
    generated when the action is built: the order8 config's 8 elements have
    4 distinct circuits over 2 distinct rules."""
    calls = []
    generate = GateRule.generate
    monkeypatch.setattr(GateRule, "generate", lambda rule, w: calls.append(rule) or generate(rule, w))
    action = action_from_config(digest_script.ORDER8_CONFIG, window12)
    assert len(calls) == 2
    assert validate_action(action) == []
    assert len(calls) == 2
    # element i has an X layer if i & 2 and a CCZ layer if i & 4
    assert action.slot == (0, 0, 1, 1, 2, 2, 3, 3)
    assert all(action.circuit(g) is action.distinct[action.slot[g]] for g in action.group.elements())
    x_layer, ccz_layer = action.circuit(7).layers
    assert action.circuit(2).layers == (x_layer,) and action.circuit(2).layers[0] is x_layer
    assert action.circuit(4).layers[0] is ccz_layer


def test_validate_action_conjugates_once_per_circuit(digest_script, window12, monkeypatch):
    """On the order8 action, the 8 observables are conjugated once per
    distinct circuit (4) and the composition checked once per distinct
    circuit triple (16): 160 conjugations, not 8 x 8 + 64 x 8."""
    from anomalion import circuits

    action = action_from_config(digest_script.ORDER8_CONFIG, window12)
    calls = [0]
    conj = circuits.conj_by_circuit

    def counting(*args, **kwargs):
        calls[0] += 1
        return conj(*args, **kwargs)

    monkeypatch.setattr(circuits, "conj_by_circuit", counting)
    assert validate_action(action) == []
    assert calls[0] == 160


def test_shared_circuits_report_each_failing_pair(window12):
    """Klein four with e1 and e2 given equal circuits, built apart, that
    square to Z_t, and e3 the empty circuit: the four pairs of the one
    failing circuit triple each get their own line, in pair order, as the
    per-pair loop reports them."""
    t, s = (-1, 0), (0, 0)

    def squares_to_z():
        return ProceduralCircuit(
            (checked_layer((SymOp.x(s),), window12), checked_layer((SymOp.cz(s, t),), window12)), window12
        )

    empty = ProceduralCircuit((), window12)
    K4 = klein_four()
    action = CircuitAction(K4, (empty, squares_to_z(), squares_to_z(), ProceduralCircuit((), window12)), window12)
    assert action.slot == (0, 1, 1, 0)
    got = validate_action(action)
    assert got == validate_per_pair(action)
    assert got == [
        f"rho({g})rho({h}) != rho({K4.mul(g, h)}) on {SymOp.x(t)}" for g, h in ((1, 1), (1, 2), (2, 1), (2, 2))
    ]
