import random
import re

import pytest

from anomalion.anomaly import (
    NonScalarError,
    TruncationData2d,
    anomaly_2d,
    build_truncation_2d,
    regauge_beta,
    regauge_rho,
    split_right,
    tau4,
    tau_cochain,
)
import anomalion.anomaly as anomaly_module
import anomalion.pairing as pairing_module
from anomalion.circuits import (
    GateRule,
    ProceduralCircuit,
    action_from_config,
    builtin_action,
    checked_layer,
    conj_by_circuit,
    product_collapse,
)
from anomalion.groups import Cochain, coboundary, cohomologous, klein_bits
from anomalion.lattice import Region, Window
from anomalion.pairing import LocalizedAutomorphism, eta
from anomalion.sampling import random_boundary_gamma, random_inner, region_sites
from anomalion.symop import SymOp, commutator, op_conj, op_inv, op_mul, op_product, scalar_phase, support
from reference import classify_support, collapse_per_pair


def bits(e):
    return klein_bits(e)


def _replaced(data, **changes):
    """A new truncation with data's fields and the given changes; like any
    new one it starts with an empty numbering and empty step tables."""
    fields = ("action", "rho_tilde", "mu", "alpha", "beta", "u", "origin_radius", "cropped", "assertions")
    return TruncationData2d(**{**{name: getattr(data, name) for name in fields}, **changes})


def _oracle_tau(data, g, h, k, l):
    """The six-factor product of tau4 with every lattice step taken afresh,
    no memo; asserted scalar like tau4."""
    G = data.group
    gh, hk, kl = G.mul(g, h), G.mul(h, k), G.mul(k, l)
    u, beta, rho = data.u, data.beta, data.rho_tilde

    f1 = u[g, h, k]
    f2 = op_conj(u[g, hk, l], conj_by_circuit(beta[h, k], rho[g]))
    f3 = conj_by_circuit(u[h, k, l], rho[g])
    w4 = conj_by_circuit(conj_by_circuit(beta[k, l], rho[h]), rho[g])
    f4 = op_conj(op_inv(u[g, h, kl]), w4)
    w5 = op_conj(conj_by_circuit(beta[k, l], rho[gh]), beta[g, h])
    thick = data.origin_radius + data.action.total_range() + 1
    f5 = eta(
        LocalizedAutomorphism(Region.half_line_L(thick), inner=data.alpha[g, h]),
        LocalizedAutomorphism(Region.half_line_R(thick), inner=w5),
    )
    f6 = op_conj(op_inv(u[gh, k, l]), beta[g, h])
    total = op_mul(op_mul(op_mul(f1, f2), op_mul(f3, f4)), op_mul(f5, f6))
    phase = scalar_phase(total)
    if phase is None:
        raise NonScalarError(f"tau({g},{h},{k},{l}) is not scalar")
    return phase


def _oracle_tau_raises(data, g, h, k, l):
    try:
        _oracle_tau(data, g, h, k, l)
    except NonScalarError:
        return True
    return False


def test_margin_precondition(window12):
    small = Window.centered(12, 12, margin=1)
    action = builtin_action("ccz_x_2d", small)
    with pytest.raises(ValueError):
        build_truncation_2d(action)


def test_mu_support_and_form(ccz_data):
    w = ccz_data.window
    line = Region.boundary_line(1)
    for (g, h), mu in ccz_data.mu.items():
        g2 = bits(g)[1]
        h1 = bits(h)[0]
        rep = classify_support(support(mu), [line])
        assert rep.fully_inside(0)
        if g2 * h1 == 0:
            assert mu.is_identity()
        else:
            assert not mu.is_identity()
    # all nontrivial mu's coincide
    vals = {mu for mu in ccz_data.mu.values() if not mu.is_identity()}
    assert len(vals) == 1
    (mu,) = vals
    # exact content: the boundary CZ string together with the Z string on
    # the cut row that the strict truncation leaves (dense-oracle verified;
    # a boundary regauging of rho~ removes it, see criterion 1a)
    keep = lambda sites: not all(w.in_edge_strip(s) for s in sites)
    cz = {frozenset({(x, 0), (x + 1, 0)}) for x in range(w.x_min, w.x_max) if keep({(x, 0), (x + 1, 0)})}
    zs = {frozenset({(x, 0)}) for x in range(w.x_min, w.x_max + 1) if keep({(x, 0)})}
    assert mu == SymOp(frozenset(cz | zs))


def test_mu_dense_cross_check():
    # independent dense computation of the truncated product on a small window
    import numpy as np
    from oracle import DenseSpace

    from anomalion.circuits import truncate
    from anomalion.symop import op_inv, op_mul

    w = Window(0, 1, -1, 1, margin=0)
    action = builtin_action("ccz_x_2d", w)
    H = Region.half_plane_H()
    rho = {e: truncate(action.circuit(e), H) for e in range(4)}
    sp = DenseSpace(list(w.sites()))
    mats = {e: sp.circuit_matrix(rho[e]) for e in range(4)}
    inv_mats = {e: mats[e].T for e in range(4)}  # real orthogonal, +-1 entries
    for e in range(4):
        assert np.array_equal(mats[e] @ inv_mats[e], np.eye(sp.dim, dtype=np.int64))
    for g in range(4):
        for h in range(4):
            gh = action.group.mul(g, h)
            sym = op_mul(op_product([rho[g].unitary(), rho[h].unitary()]), op_inv(rho[gh].unitary()))
            dense = mats[g] @ mats[h] @ inv_mats[gh]
            assert np.array_equal(sp.symop_matrix(sym), dense)


def test_beta_split(ccz_data):
    for (g, h), mu in ccz_data.mu.items():
        beta = ccz_data.beta[g, h]
        alpha = ccz_data.alpha[g, h]
        assert beta == split_right(mu)
        from anomalion.symop import op_mul

        assert op_mul(alpha, beta) == mu
        assert all(s[0] >= 0 for s in support(beta))
        g2, h1 = bits(g)[1], bits(h)[0]
        if g2 * h1:
            # CZ edges from the origin rightward plus the strictly-right Z's
            assert frozenset({(0, 0), (1, 0)}) in beta.poly
            assert frozenset({(0, 0)}) in beta.poly


def test_u_is_z_at_origin(ccz_data):
    for (g, h, k), u in ccz_data.u.items():
        g2, h2, k1 = bits(g)[1], bits(h)[1], bits(k)[0]
        expect = SymOp.z((0, 0)) if g2 * h2 * k1 else SymOp.identity()
        assert u == expect


def test_tau_table(ccz_data):
    for g in range(4):
        for h in range(4):
            for k in range(4):
                for l in range(4):
                    want = bits(g)[1] * bits(h)[1] * bits(k)[1] * bits(l)[0]
                    assert tau4(ccz_data, g, h, k, l) == want


def test_tau_trivial_tuples(ccz_data):
    e = 0
    for g in range(4):
        assert tau4(ccz_data, e, g, g, e) == 0
        assert tau4(ccz_data, g, e, e, g) == 0
    assert tau4(ccz_data, 0b10, 0b10, 0b10, 0b10) == 0


def test_anomaly_report(ccz_action, ccz_data):
    rep = anomaly_2d(ccz_action, ccz_data)
    assert rep["is_cocycle"]
    assert not rep["trivial"]
    assert rep["matched_class"] == "b^3 . a"
    assert "h2_qplus" in rep["notes"]


def test_onsite_action_trivial(window12):
    action = builtin_action("onsite_x_2d", window12)
    data = build_truncation_2d(action)
    assert all(m.is_identity() for m in data.mu.values())
    assert all(b.is_identity() for b in data.beta.values())
    assert all(u.is_identity() for u in data.u.values())
    rep = anomaly_2d(action, data)
    assert rep["is_cocycle"] and rep["trivial"] and rep["matched_class"] == "trivial"


def test_window_stability(ccz_action, ccz_data):
    big = Window.centered(16, 16, margin=5)
    action2 = builtin_action("ccz_x_2d", big)
    data2 = build_truncation_2d(action2)
    assert data2.mu == ccz_data.mu
    assert data2.beta == ccz_data.beta
    assert data2.u == ccz_data.u
    assert tau_cochain(data2) == tau_cochain(ccz_data)


def test_u_scalar_shift_moves_tau_by_coboundary(ccz_action, ccz_data):
    rng = random.Random(13)
    G = ccz_action.group
    psi_bits = {
        (g, h, k): rng.randrange(2)
        for g in G.elements() for h in G.elements() for k in G.elements()
    }
    from anomalion.symop import op_mul

    shifted = _replaced(
        ccz_data,
        u={
            key: op_mul(SymOp.scalar(-1 if psi_bits[key] else 1), u)
            for key, u in ccz_data.u.items()
        },
    )
    tau0 = tau_cochain(ccz_data)
    tau1 = tau_cochain(shifted)
    psi = Cochain.from_function(G, 3, 2, lambda g, h, k: psi_bits[g, h, k])
    assert tau1 == tau0.mul(coboundary(psi))
    assert cohomologous(tau0, tau1)


def test_regauge_beta_tau_invariance(ccz_data, window12):
    rng = random.Random(21)
    tau0 = tau_cochain(ccz_data)
    G = ccz_data.group
    disk_sites = region_sites(window12, Region.origin_disk(2))
    for trial in range(3):
        v = {
            (g, h): random_inner(rng, disk_sites)
            for g in G.elements() for h in G.elements()
        }
        data2 = regauge_beta(ccz_data, v)
        assert tau_cochain(data2) == tau0
    # identity regauge leaves the data unchanged
    ident = {(g, h): SymOp.identity() for g in G.elements() for h in G.elements()}
    data3 = regauge_beta(ccz_data, ident)
    assert data3.beta == ccz_data.beta and data3.u == ccz_data.u


def test_regauged_tau_computes_every_eta_route(ccz_data, window12, monkeypatch):
    """Every cell of a regauged tau's eta tables is one eta call, and each
    computes the commutator route that the closed forms must agree with."""
    rng = random.Random(21)
    G = ccz_data.group
    disk_sites = region_sites(window12, Region.origin_disk(2))
    v = {(g, h): random_inner(rng, disk_sites) for g in G.elements() for h in G.elements()}
    data2 = regauge_beta(ccz_data, v)
    calls = []

    def counted(a, b):
        calls.append(None)
        return commutator(a, b)

    monkeypatch.setattr(pairing_module, "commutator", counted)
    tau_cochain(data2)
    assert len(calls) == sum(len(row) for row in data2._eta.values()) == 256


def test_regauge_beta_scalar_slots(ccz_data):
    tau0 = tau_cochain(ccz_data)
    v = {(0b01, 0b01): SymOp.scalar(-1)}
    data2 = regauge_beta(ccz_data, v)
    from anomalion.symop import op_mul

    for (g, h, k), u2 in data2.u.items():
        gh = ccz_data.group.mul(g, h)
        hk = ccz_data.group.mul(h, k)
        sign = 1
        if (g, h) == (0b01, 0b01):
            sign = -sign
        if (gh, k) == (0b01, 0b01):
            sign = -sign
        if (g, hk) == (0b01, 0b01):
            sign = -sign
        if (h, k) == (0b01, 0b01):
            sign = -sign
        assert u2 == op_mul(SymOp.scalar(sign), ccz_data.u[g, h, k])
    assert tau_cochain(data2) == tau0


def test_regauge_rho_tau_invariance(ccz_data, window12):
    tau0 = tau_cochain(ccz_data)
    interior_edges = [((x, 0), (x + 1, 0)) for x in range(-3, 2)]

    def circ(gates):
        return ProceduralCircuit((checked_layer(gates, window12),), window12)

    fixtures = [
        {0b10: circ([SymOp.cz(a, b) for a, b in interior_edges])},
        {0b01: circ([SymOp.x((1, 0))])},
        {0b01: circ([SymOp.x((2, 0))])},
        {0b11: circ([SymOp.z((0, 0)), SymOp.z((2, 0))])},
        {},
    ]
    for gamma in fixtures:
        data2 = regauge_rho(ccz_data, gamma)
        assert tau_cochain(data2) == tau0


def test_regauge_rho_mu_matches_product_collapse(ccz_data, window12):
    """The closed-form mu' of regauge_rho is the collapsed product of the
    regauged rho~, rim debris cropped, for the alternating cut-row CZ."""
    reach = ccz_data.action.total_range()
    w = window12
    pair_xs = [x for x in range(w.x_min + reach, w.x_max - reach) if x % 2 == 0]
    alternating = ProceduralCircuit((checked_layer([SymOp.cz((x, 0), (x + 1, 0)) for x in pair_xs], w),), w)
    G = ccz_data.group
    data2 = regauge_rho(ccz_data, {g: alternating for g in G.elements() if bits(g)[0]})
    rho = data2.rho_tilde
    line = Region.boundary_line(reach + 1)
    for g in G.elements():
        for h in G.elements():
            res = product_collapse([rho[g], rho[h], rho[G.mul(g, h)]], [1, 1, -1], expect_region=line)
            assert data2.mu[g, h] == res.op


def test_tau_rejects_alpha_off_the_left_half_line(ccz_data):
    # regauge_rho rebuilds alpha from mu' and beta' and never reads the
    # input alpha; tau reads it through eta, whose region check rejects it
    w = ccz_data.window
    far = (w.x_max, w.y_max)
    thick = ccz_data.origin_radius + ccz_data.action.total_range() + 1
    assert not Region.half_line_L(thick).contains(far)
    broken = _replaced(
        ccz_data,
        alpha={**ccz_data.alpha, (0b01, 0b10): SymOp.z(far)},
    )
    assert regauge_rho(broken, {}).alpha == regauge_rho(ccz_data, {}).alpha
    with pytest.raises(ValueError, match=r"inner unitary leaves its declared region at \[" + re.escape(str(far))):
        tau_cochain(broken)


def test_memoized_tau_matches_oracle(ccz_data, window12):
    """tau_cochain through the memo equals the fresh six-factor product on
    every tuple, for the truncation and for one beta and one rho~ regauging."""
    G = ccz_data.group
    rng = random.Random(41)
    disk_sites = region_sites(window12, Region.origin_disk(2))
    v = {(g, h): random_inner(rng, disk_sites) for g in G.elements() for h in G.elements()}
    gamma = {0b10: ProceduralCircuit((checked_layer((SymOp.x((1, 0)),), window12),), window12)}
    for data in (ccz_data, regauge_beta(ccz_data, v), regauge_rho(ccz_data, gamma)):
        want = Cochain.from_function(G, 4, 2, lambda *t: _oracle_tau(data, *t))
        assert tau_cochain(data) == want


def test_tau_touches_the_lattice_once_per_value(ccz_data, monkeypatch):
    """A fresh memo computes tau with O(|G|) conjugations and eta calls,
    not one per tuple (512 and 256 without the memo)."""
    calls = {"conj_by_circuit": 0, "eta": 0}

    def counting(name):
        fn = getattr(anomaly_module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(anomaly_module, name, counting(name))
    data = _replaced(ccz_data)
    tau = tau_cochain(data)
    order = data.group.order
    assert calls["conj_by_circuit"] <= 4 * order
    assert calls["eta"] <= order ** 2
    assert tau == tau_cochain(ccz_data)


def test_steps_are_taken_once_per_circuit_and_operand_tuple(window12, monkeypatch):
    """Z2^3 with bit 1 acting by the X layer, bit 2 by the CCZ layer and
    bit 4 trivially: elements that share a truncated circuit share its
    conjugations, so tau after the build conjugates by circuits 8 times
    (16 when each element kept its own), and the u lift multiplies 3 times
    per distinct tuple of failure operands, not 3 times per triple."""
    from itertools import product

    config = {
        "name": "ccz_x_2d_times_trivial_z2",
        "group": {"order": 8, "mul": [i ^ j for i in range(8) for j in range(8)]},
        "generators": [
            {"element": i, "layers": ([{"pattern": "x_sites"}] if i & 1 else [])
             + ([{"pattern": "ccz_triangles"}] if i & 2 else [])}
            for i in range(8)
        ],
    }
    calls = {"conj_by_circuit": 0, "op_mul": 0}

    def counting(name):
        fn = getattr(anomaly_module, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(anomaly_module, name, counting(name))
    data = build_truncation_2d(action_from_config(config, window12))
    calls["conj_by_circuit"] = 0
    tau_cochain(data)
    assert calls["conj_by_circuit"] <= 8

    G, beta = data.group, data.beta
    operands = {
        (beta[g, h], beta[G.mul(g, h), k], beta[g, G.mul(h, k)], conj_by_circuit(beta[h, k], data.rho_tilde[g]))
        for g, h, k in product(G.elements(), repeat=3)
    }
    fresh = _replaced(data, u={})
    calls["op_mul"] = 0
    assert anomaly_module._lift_u(fresh, "u") == [c for c in data.cropped if c.startswith("u(")]
    assert calls["op_mul"] == 3 * len(operands)
    assert fresh.u == data.u


def test_replace_starts_an_empty_memo(ccz_data, monkeypatch):
    """Replacing beta must not serve conjugates of the old beta: the copy
    starts with no numbered value and every step table empty, and
    rho_apply conjugates the new beta afresh."""
    tau_cochain(ccz_data)
    for g in ccz_data.group.elements():
        for pair in ccz_data.beta:
            ccz_data.rho_apply(g, ccz_data.beta[pair])
    new_beta = {p: op_mul(SymOp.z((0, 0)), b) for p, b in ccz_data.beta.items()}
    data = _replaced(ccz_data, beta=new_beta)
    tables = (*data._rho, data._conj, data._inv, data._eta, data._phase)
    assert not data._vals and not any(tables)
    conjugated = []
    real = anomaly_module.conj_by_circuit
    monkeypatch.setattr(anomaly_module, "conj_by_circuit", lambda a, c: conjugated.append(a) or real(a, c))
    for g in data.group.elements():
        for p, b in new_beta.items():
            assert data.rho_apply(g, b) == conj_by_circuit(b, data.rho_tilde[g])
    assert set(conjugated) == set(new_beta.values())


def test_nonscalar_tau_detection(ccz_data):
    broken = _replaced(
        ccz_data,
        u={**ccz_data.u, (0b01, 0b01, 0b10): SymOp.z((1, 0))},
    )
    first = next(t for t in broken.group.tuples(4) if _oracle_tau_raises(broken, *t))
    message = "tau({},{},{},{}) is not scalar".format(*first)
    with pytest.raises(NonScalarError, match=re.escape(message)):
        tau_cochain(broken)


def test_u_defining_relation_on_observables(ccz_data, window12):
    """Ad_u equals the four-factor automorphism on origin-local observables,
    for every triple, on the data as built and as regauged by a seeded v
    (regauge_beta's closed-form u') and by one boundary gamma (regauge_rho's
    lifted u')."""
    rng = random.Random(31)
    G = ccz_data.group
    disk_sites = region_sites(window12, Region.origin_disk(2))
    v = {(g, h): random_inner(rng, disk_sites) for g in G.elements() for h in G.elements()}
    gamma = random_boundary_gamma(rng, window12, G, skip=0.4)
    assert gamma
    for data in (ccz_data, regauge_beta(ccz_data, v), regauge_rho(ccz_data, gamma)):
        checks = 0
        for g, h, k in G.tuples(3):
            gh, hk = G.mul(g, h), G.mul(h, k)
            b1, b2, b3 = data.beta[g, h], data.beta[gh, k], data.beta[g, hk]
            w = data.rho_apply(g, data.beta[h, k])
            u = data.u[g, h, k]
            for x in (-1, 0, 1):
                for obs in (SymOp.z((x, 0)), SymOp.x((x, 0))):
                    lhs = op_conj(obs, u)
                    o = op_conj(obs, op_inv(w))
                    o = op_conj(o, op_inv(b3))
                    o = op_conj(o, b2)
                    o = op_conj(o, b1)
                    assert lhs == o, (data.assertions[-1], g, h, k, obs)
                    checks += 1
        assert checks == 384


def test_regauge_rho_keeps_u_on_boundary_gammas(ccz_data, window12):
    """On eight full draws of a boundary gamma (no element skipped), the u'
    lifted by regauge_rho equals u on all 64 triples.  Regauging beta by the
    whole gamma instead of its right part moves u' on seeds 0, 3, 5, 6 and
    7, and on 0 and 6 it leaves tau unchanged, so the gauge check misses it
    there."""
    G = ccz_data.group
    for seed in range(8):
        gamma = random_boundary_gamma(random.Random(seed), window12, G, skip=0.0)
        assert regauge_rho(ccz_data, gamma).u == ccz_data.u, seed


def test_rectangular_and_asymmetric_windows(ccz_data):
    tau0 = tau_cochain(ccz_data)
    for width, height in ((14, 12), (12, 14), (16, 12)):
        w = Window.centered(width, height, margin=3)
        data = build_truncation_2d(builtin_action("ccz_x_2d", w))
        assert data.u == ccz_data.u
        assert tau_cochain(data) == tau0


def test_conjugation_by_circuit_keeps_cochain(conjugate):
    """The index is an invariant of the action: conjugating every rho(g) by
    a finite-depth circuit W leaves the tau cochain unchanged."""
    window = Window.centered(20, 20, margin=9)
    action = builtin_action("ccz_x_2d", window)
    w = ProceduralCircuit((GateRule("cz_horizontal_edges", Region.full()).generate(window),), window)
    base = anomaly_2d(action)
    conj = anomaly_2d(conjugate(action, w))
    assert conj["matched_class"] == base["matched_class"] == "b^3 . a"
    assert conj["cochain"] == base["cochain"]


@pytest.fixture(scope="module")
def order8_data(digest_script, window12):
    """The truncation of the order8 benchmark action: ccz_x_2d times a
    trivially acting Z2, from scripts/report_digests.py's ORDER8_CONFIG."""
    return build_truncation_2d(action_from_config(digest_script.ORDER8_CONFIG, window12))


def test_tau_hashes_each_value_once_per_call(order8_data, monkeypatch):
    """tau runs on value numbers: operators are hashed when first numbered
    and on memo misses, not once per step of each of the |G|^4 tuples."""
    calls = [0]
    hash_op = SymOp.__hash__

    def counting(self):
        calls[0] += 1
        return hash_op(self)

    data = _replaced(order8_data)
    monkeypatch.setattr(SymOp, "__hash__", counting)
    tau_cochain(data)
    assert 0 < calls[0] < data.group.order ** 4


def test_order8_tau_is_pulled_back_from_ccz(order8_data):
    """On the order8 action, tau agrees with the fresh six-factor product on
    a seeded sample and is b^3.a pulled back along the Klein quotient."""
    from anomalion.groups import GroupHom, cup_1cocycles, klein_four, projection_sign_cocycle, pullback

    G = order8_data.group
    tau = tau_cochain(order8_data)
    sample = random.Random(47).sample(list(G.tuples(4)), 300)
    for t in sample:
        assert tau(*t) == _oracle_tau(order8_data, *t)
    # element i has an X layer if i & 2 and a CCZ layer if i & 4; Klein
    # element e has the X layer if e & 1 and the CCZ layer if e & 2
    K4 = klein_four()
    quotient = GroupHom(G, K4, tuple((i >> 1 & 1) | (i >> 2 & 1) << 1 for i in G.elements()))
    assert quotient.is_valid()
    a, b = projection_sign_cocycle(K4, 0), projection_sign_cocycle(K4, 1)
    assert tau == pullback(cup_1cocycles([b, b, b, a]), quotient)


def test_second_tau_touches_no_lattice(order8_data, monkeypatch):
    data = _replaced(order8_data)
    tau = tau_cochain(data)
    calls = []
    for name in ("conj_by_circuit", "eta"):
        monkeypatch.setattr(anomaly_module, name, lambda *args, name=name: calls.append(name))
    assert tau_cochain(data) == tau
    assert calls == []


def test_tau_reads_u_edited_in_place(ccz_data):
    """The memo is keyed by the values read, so an in-place edit of u
    between two calls is honoured."""
    data = _replaced(ccz_data, u=dict(ccz_data.u))
    tau0 = tau_cochain(data)
    key = (0b01, 0b11, 0b10)
    data.u[key] = op_mul(SymOp.scalar(-1), data.u[key])
    tau1 = tau_cochain(data)
    assert tau1 != tau0
    want = Cochain.from_function(data.group, 4, 2, lambda *t: _oracle_tau(data, *t))
    assert tau1 == want


def _u_crop_log(data, label):
    """The u lift's crop log with every triple's failure cropped afresh."""
    from itertools import product

    from anomalion.circuits import crop_window_debris
    from anomalion.crossed import weak_morphism_failure

    G = data.group
    fail = weak_morphism_failure(
        G, lambda g, h: data.beta[g, h],
        lambda g, h, k: conj_by_circuit(data.beta[h, k], data.rho_tilde[g]), op_mul, op_inv,
    )
    log = []
    for g, h, k in product(G.elements(), repeat=3):
        res = crop_window_debris(fail(g, h, k), data.window)
        log += [f"{label}({g},{h},{k}): {c}" for c in res.cropped]
        assert data.u[g, h, k] == res.op
    return log


def test_u_crop_log_matches_per_triple_crops(ccz_data):
    """Each distinct tuple of failure operands is cropped once; u and the
    log, with its lines for every triple in triple order, equal a crop per
    triple."""
    w = ccz_data.window
    reach = ccz_data.action.total_range()
    alternating = ProceduralCircuit((checked_layer([
        SymOp.cz((x, 0), (x + 1, 0)) for x in range(w.x_min + reach, w.x_max - reach) if x % 2 == 0
    ], w),), w)
    regauged = regauge_rho(ccz_data, {g: alternating for g in ccz_data.group.elements() if bits(g)[0]})
    for data, label in ((ccz_data, "u"), (regauged, "u'")):
        want = _u_crop_log(data, label)
        assert want
        assert [c for c in data.cropped if c.startswith(label + "(")] == want
    # beta = Z at the origin on random pairs: operand tuples that differ in
    # any one operand occur, so u must be keyed by all four
    rng = random.Random(43)
    beta = {p: SymOp.z((0, 0)) if rng.random() < 0.5 else SymOp.identity() for p in ccz_data.beta}
    data = _replaced(ccz_data, beta=beta, u={})
    assert anomaly_module._lift_u(data, "u") == _u_crop_log(data, "u") == []


def test_truncation_collapses_once_per_circuit_triple(digest_script, window12, monkeypatch):
    """The 8 elements of the order8 action have 4 distinct circuits: each is
    truncated once, and each of the 16 distinct circuit triples of the 64
    pairs is collapsed once."""
    action = action_from_config(digest_script.ORDER8_CONFIG, window12)
    calls = []
    collapse = anomaly_module.product_collapse
    monkeypatch.setattr(
        anomaly_module, "product_collapse", lambda *args, **kw: calls.append(args) or collapse(*args, **kw)
    )
    data = build_truncation_2d(action)
    assert len(calls) == 16
    assert len({id(c) for c in data.rho_tilde}) == len(action.distinct) == 4


def test_shared_truncation_matches_per_pair_collapse(order8_data):
    """mu and its crop log, one line per pair in pair order, equal a
    product_collapse per pair over unshared truncations."""
    action = order8_data.action
    line = Region.boundary_line(action.total_range() + 1)
    mu, cropped = collapse_per_pair(action, Region.half_plane_H(), line, "mu")
    assert order8_data.mu == mu
    assert cropped
    assert [c for c in order8_data.cropped if c.startswith("mu(")] == cropped
