from fractions import Fraction

import numpy as np
import pytest

from anomalion.anomaly import (
    StateNotInvariant,
    _dressed_cochain,
    _pauli_candidates,
    action_preserves_state,
    build_truncation_1d,
    build_truncation_2d,
    find_state_correction,
    spt_relative_1d,
    spt_trivialize_2d,
)
from anomalion.circuits import (
    GateRule,
    MarginError,
    ProceduralCircuit,
    builtin_action,
    checked_layer,
    cluster_entangler_1d,
    truncate,
)
from anomalion.groups import coboundary_solve
from anomalion.lattice import Region, Window
from anomalion.symop import ALL_PLUS, ALL_ZEROS, SymOp
from oracle import ColumnOracle


def test_invariance_checks(chain12, window12):
    ax = builtin_action("onsite_x_1d", chain12)
    assert action_preserves_state(ax, ALL_PLUS)
    assert not action_preserves_state(ax, ALL_ZEROS)
    lg = builtin_action("levin_gu_1d", chain12)
    assert not action_preserves_state(lg, ALL_ZEROS)
    assert not action_preserves_state(lg, ALL_PLUS)
    ccz = builtin_action("ccz_x_2d", window12)
    assert not action_preserves_state(ccz, ALL_PLUS)
    assert not action_preserves_state(ccz, ALL_ZEROS)
    onsite2 = builtin_action("onsite_x_2d", window12)
    assert action_preserves_state(onsite2, ALL_PLUS)


def test_cluster_state_invariance(chain12):
    axx = builtin_action("onsite_xx_1d", chain12)
    cluster = cluster_entangler_1d(chain12)
    assert action_preserves_state(axx, ALL_PLUS, cluster)
    assert action_preserves_state(axx, ALL_PLUS, None)


def eager_pauli_candidates(window, radius):
    """Every candidate built and sorted by (weight, z sites, x sites) before
    the first is used: the reference order for the lazy search."""
    from itertools import combinations

    sites = sorted(s for s in window.sites() if max(abs(s[0]), abs(s[1])) <= radius)
    cands = []
    for nz in range(len(sites) + 1):
        for zs in combinations(sites, nz):
            for nx in range(len(sites) + 1):
                for xs in combinations(sites, nx):
                    cands.append((len(zs) + len(xs), zs, xs))
    cands.sort()
    return [SymOp(frozenset(frozenset([s]) for s in zs), frozenset(xs)) for _, zs, xs in cands]


@pytest.mark.parametrize(
    "window, radius",
    [(Window.chain(12), 0), (Window.chain(12), 1), (Window.chain(12), 2), (Window(-1, 1, 0, 1), 1)],
)
def test_pauli_candidates_match_the_eager_order(window, radius):
    assert list(_pauli_candidates(window, radius)) == eager_pauli_candidates(window, radius)


def test_pauli_candidates_start_without_enumerating(chain12):
    """At 12 sites (4^12 candidates) the smallest ones come back at once."""
    import time
    import tracemalloc

    sites = sorted(s for s in chain12.sites() if abs(s[0]) <= 6)
    assert len(sites) == 12
    gen = _pauli_candidates(chain12, 6)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        first = [next(gen) for _ in range(1 + 2 * len(sites))]
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [SymOp.identity(), *(SymOp.x(s) for s in sites), *(SymOp.z(s) for s in sites)]
    assert peak < 1 << 20
    assert elapsed < 5.0
    with pytest.raises(ValueError):
        next(_pauli_candidates(Window.centered(4, 4), 2))


def test_corrections_for_cluster(chain12):
    axx = builtin_action("onsite_xx_1d", chain12)
    cluster = cluster_entangler_1d(chain12)
    rho = {g: truncate(axx.circuit(g), Region.half_line_R()) for g in range(4)}
    w_even = find_state_correction(rho[0b10], chain12, ALL_PLUS, cluster)
    # the even-site X string truncated at the origin needs the Z edge dressing
    assert w_even == SymOp.z((-1, 0))
    w_ident = find_state_correction(rho[0], chain12, ALL_PLUS, cluster)
    assert w_ident.is_identity()
    # on 10 sites the generator at (3, 0), which Z(2, 0) moves, is too near
    # the edge to be pinned, so the search is refused
    short = Window.chain(10, margin=3)
    rho_short = truncate(builtin_action("onsite_xx_1d", short).circuit(0b10), Region.half_line_R())
    with pytest.raises(MarginError, match="window too small to pin the state within 3 of the origin"):
        find_state_correction(rho_short, short, ALL_PLUS, cluster_entangler_1d(short))


def test_relative_class_cluster_vs_product(chain12):
    axx = builtin_action("onsite_xx_1d", chain12)
    cluster = cluster_entangler_1d(chain12)
    rep = spt_relative_1d(axx, cluster, None, state=ALL_PLUS)
    assert rep["is_cocycle"]
    assert not rep["trivial"]
    assert coboundary_solve(rep["cochain"]) is None
    # gauge-invariant antisymmetry signature of the nontrivial class
    a, b = 0b10, 0b01
    assert (rep["cochain"](a, b) - rep["cochain"](b, a)) % 2 == 1
    # the undressed product state contributes the trivial cocycle
    assert not any(_dressed_cochain(build_truncation_1d(axx), None, ALL_PLUS).values)


def test_relative_class_same_dressing_trivial(chain12):
    axx = builtin_action("onsite_xx_1d", chain12)
    cluster = cluster_entangler_1d(chain12)
    rep = spt_relative_1d(axx, cluster, cluster, state=ALL_PLUS)
    assert not any(rep["cochain"].values)
    assert rep["trivial"]


def test_relative_class_plus_equivalent_dressings_trivial(chain12):
    # dressings by X / Z strings leave the all-plus state in its orbit
    ax = builtin_action("onsite_x_1d", chain12)
    shift = ProceduralCircuit(
        (checked_layer((SymOp.z((0, 0)), SymOp.z((2, 0))), chain12),), chain12
    )
    rep = spt_relative_1d(ax, shift, None, state=ALL_PLUS)
    assert not any(rep["cochain"].values)
    assert rep["trivial"]


def test_relative_errors(chain12):
    lg = builtin_action("levin_gu_1d", chain12)
    with pytest.raises(StateNotInvariant):
        spt_relative_1d(lg, None, None, state=ALL_PLUS)


def test_cluster_cocycle_dense_oracle(chain12):
    """omega(V(g,h)) for the cluster dressing, recomputed densely."""
    axx = builtin_action("onsite_xx_1d", chain12)
    cluster = cluster_entangler_1d(chain12)
    c1 = _dressed_cochain(build_truncation_1d(axx), cluster, ALL_PLUS)
    orc = ColumnOracle(list(chain12.sites()))
    # dense cluster state: entangler columns applied to |+...+>
    dim = orc.dim
    plus = np.ones(dim, dtype=np.int64)
    p_c, s_c = orc.identity()
    p_c, s_c = orc.apply_circuit(cluster, p_c, s_c)
    state = np.zeros(dim, dtype=np.int64)
    state[p_c] = s_c * plus  # C |+...+| columns summed
    rho = {g: truncate(axx.circuit(g), Region.half_line_R()) for g in range(4)}
    corr = {g: find_state_correction(rho[g], chain12, ALL_PLUS, cluster) for g in range(4)}
    G = axx.group
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            # V = W(g) rho(g)(W(h)) nu(g,h) W(gh)^-1 with nu the lift of the
            # truncation failure; rebuild it densely from scratch
            pg, sg = orc.identity()
            pg, sg = orc.apply_circuit(rho[g], pg, sg)
            ph, sh = orc.to_perm_sign(corr[h])
            inv_g = ColumnOracle.inverse(pg, sg)
            conj_wh = ColumnOracle.compose(*ColumnOracle.compose(*inv_g, ph, sh), pg, sg)
            pr_h, sr_h = orc.identity()
            pr_h, sr_h = orc.apply_circuit(rho[h], pr_h, sr_h)
            pr_gh, sr_gh = orc.identity()
            pr_gh, sr_gh = orc.apply_circuit(rho[gh], pr_gh, sr_gh)
            # nu = rho(g) rho(h) rho(gh)^-1 densely
            prod = ColumnOracle.compose(*ColumnOracle.inverse(pr_gh, sr_gh), pr_h, sr_h)
            prod = ColumnOracle.compose(*prod, pg, sg)
            # V = W(g) * conj_wh * nu_dense * W(gh)^-1 (as matrices)
            v = ColumnOracle.compose(*ColumnOracle.inverse(*orc.to_perm_sign(corr[gh])), *prod)
            v = ColumnOracle.compose(*v, *conj_wh)
            v = ColumnOracle.compose(*v, *orc.to_perm_sign(corr[g]))
            vp, vs = v
            # expectation <psi|V|psi> = sum_a psi[vp[a]] vs[a] psi[a]
            num = int(np.dot(state[vp], vs * state))
            den = int(np.dot(state, state))
            want = c1(g, h)
            got = Fraction(num, den)
            assert got in (Fraction(1), Fraction(-1))
            assert (0 if got == 1 else 1) == want


def test_spt_2d_onsite(window12):
    action = builtin_action("onsite_x_2d", window12)
    data = build_truncation_2d(action)
    rep = spt_trivialize_2d(data, None, state=ALL_PLUS)
    assert rep["status"] == "ok"
    assert not any(rep["cochain"].values)
    assert rep["delta_equals_tau"]


def test_spt_2d_onsite_diagonal_dressing(window12):
    action = builtin_action("onsite_x_2d", window12)
    data = build_truncation_2d(action)
    dress = ProceduralCircuit((GateRule("cz_horizontal_edges", Region.full()).generate(window12),), window12)
    assert action_preserves_state(action, ALL_PLUS, dress)
    rep = spt_trivialize_2d(data, dress, state=ALL_PLUS)
    assert rep["status"] == "ok"
    assert rep["delta_equals_tau"]


def test_spt_2d_ccz_obstructed(ccz_data):
    for state in (ALL_PLUS, ALL_ZEROS):
        rep = spt_trivialize_2d(ccz_data, None, state=state)
        assert rep["status"] == "no_invariant_state"
        assert rep["cochain"] is None
