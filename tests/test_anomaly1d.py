import random

import numpy as np
import pytest

from anomalion.anomaly import build_truncation_1d, nayak_else_1d
from anomalion.circuits import (
    GateRule,
    ProceduralCircuit,
    action_from_config,
    builtin_action,
    truncate,
)
from anomalion.groups import coboundary_solve
from anomalion.lattice import Region, Window
from anomalion.sampling import random_circuit, region_sites
from anomalion.symop import SymOp, op_mul, support
from oracle import ColumnOracle
from reference import collapse_per_pair


def test_levin_gu_lifts(lg_data):
    assert lg_data.nu_lift[0, 0].is_identity()
    assert lg_data.nu_lift[0, 1].is_identity()
    assert lg_data.nu_lift[1, 0].is_identity()
    nu = lg_data.nu_lift[1, 1]
    assert support(nu) <= {(0, 0)}
    assert not nu.is_identity()


def test_levin_gu_ell(lg_action, lg_data):
    rep = nayak_else_1d(lg_action, lg_data)
    assert rep["cochain"](1, 1, 1) == 1
    for g, h, k in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0), (1, 0, 0)]:
        assert rep["cochain"](g, h, k) == 0
    assert rep["is_cocycle"]
    assert not rep["trivial"]
    assert rep["matched_class"] == "a^3"
    assert coboundary_solve(rep["cochain"]) is None


def test_levin_gu_dense_oracle(lg_action, lg_data):
    """Every product step re-evaluated by dense basis-column arithmetic."""
    chain = lg_action.window
    orc = ColumnOracle(list(chain.sites()))
    R = Region.half_line_R()
    rho1 = truncate(lg_action.circuit(1), R)

    # nu(1,1) before cropping equals the dense product of the truncations
    perm, sign = orc.identity()
    perm, sign = orc.apply_circuit(rho1, perm, sign)
    perm, sign = orc.apply_circuit(rho1, perm, sign)
    raw = op_mul(rho1.unitary(), rho1.unitary())
    assert (perm == orc.to_perm_sign(raw)[0]).all()
    assert (sign == orc.to_perm_sign(raw)[1]).all()

    # the ell product from the cropped lifts, re-done densely, is -identity
    nu = lg_data.nu_lift[1, 1]
    p_nu, s_nu = orc.to_perm_sign(nu)
    p_rho, s_rho = orc.identity()
    p_rho, s_rho = orc.apply_circuit(rho1, p_rho, s_rho)
    inv_rho = ColumnOracle.inverse(p_rho, s_rho)
    conj = ColumnOracle.compose(*ColumnOracle.compose(inv_rho[0], inv_rho[1], p_nu, s_nu), p_rho, s_rho)
    inv_conj = ColumnOracle.inverse(*conj)
    total = ColumnOracle.compose(*ColumnOracle.compose(*orc.to_perm_sign(nu), *orc.to_perm_sign(lg_data.nu_lift[0, 1])), *inv_conj)
    ident = np.arange(orc.dim)
    assert (total[0] == ident).all()
    assert (total[1] == -1).all()


def test_onsite_restriction_is_constant_one(chain12):
    action = builtin_action("onsite_x_1d", chain12)
    data = build_truncation_1d(action)
    assert all(nu.is_identity() for nu in data.nu_lift.values())
    rep = nayak_else_1d(action, data)
    assert not any(rep["cochain"].values)
    assert rep["trivial"]


def test_trivial_action(chain12):
    from anomalion.circuits import CircuitAction, ProceduralCircuit
    from anomalion.groups import FiniteGroup

    G = FiniteGroup.cyclic(2)
    triv = CircuitAction(G, (ProceduralCircuit((), chain12), ProceduralCircuit((), chain12)), chain12)
    rep = nayak_else_1d(triv)
    assert not any(rep["cochain"].values)


def test_window_stability(lg_action, lg_data):
    big = Window.chain(16, margin=5)
    rep1 = nayak_else_1d(lg_action, lg_data)
    rep2 = nayak_else_1d(builtin_action("levin_gu_1d", big))
    assert rep1["cochain"] == rep2["cochain"]


def test_chain_required(window12):
    action = builtin_action("onsite_x_2d", window12)
    with pytest.raises(ValueError):
        build_truncation_1d(action)


def test_nu_defining_relation_on_observables(lg_action, lg_data):
    """Ad_nu equals rho~(g) rho~(h) rho~(gh)^-1 on origin-local observables."""
    from anomalion.circuits import apply_inverse_circuit, conj_by_circuit
    from anomalion.symop import op_conj

    G = lg_action.group
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            nu = lg_data.nu_lift[g, h]
            for s in [(-1, 0), (0, 0), (1, 0)]:
                for obs in (SymOp.z(s), SymOp.x(s)):
                    lhs = op_conj(obs, nu)
                    o = apply_inverse_circuit(obs, lg_data.rho_tilde[gh])
                    o = conj_by_circuit(o, lg_data.rho_tilde[h], check_margin=False)
                    o = conj_by_circuit(o, lg_data.rho_tilde[g], check_margin=False)
                    assert lhs == o


def test_onsite_xx_restriction_constant_one(chain12):
    rep = nayak_else_1d(builtin_action("onsite_xx_1d", chain12))
    assert not any(rep["cochain"].values) and rep["trivial"]


def _chain_conjugators(chain):
    """The full-chain CZ layer and three seeded random origin circuits."""
    yield ProceduralCircuit((GateRule("cz_chain_edges", Region.full()).generate(chain),), chain)
    sites = region_sites(chain, Region.origin_disk(2))
    for seed in range(3):
        yield random_circuit(random.Random(seed), chain, sites)


def test_conjugation_by_circuit_keeps_cochain(conjugate):
    """Conjugating every rho(g) by a finite-depth circuit W leaves the 1d
    cochain unchanged."""
    chain = Window.chain(40, margin=9)
    action = builtin_action("levin_gu_1d", chain)
    base = nayak_else_1d(action)
    assert base["matched_class"] == "a^3"
    for w in _chain_conjugators(chain):
        conj = nayak_else_1d(conjugate(action, w))
        assert conj["matched_class"] == "a^3"
        assert conj["cochain"] == base["cochain"]


def test_shared_1d_truncation_matches_per_pair_collapse(digest_script, chain12):
    """levin_gu_1d times a trivial Z2: e1 and e3 share one circuit, which is
    truncated once; nu and the crop log, one line per pair in pair order,
    equal a product_collapse per pair over unshared truncations."""
    action = action_from_config(digest_script.LEVIN_GU_Z2_CONFIG, chain12)
    assert action.slot == (0, 1, 0, 1)
    data = build_truncation_1d(action)
    assert data.rho_tilde[1] is data.rho_tilde[3]
    disk = Region.origin_disk(data.origin_radius)
    nu, cropped = collapse_per_pair(action, Region.half_line_R(), disk, "nu")
    assert data.nu_lift == nu
    assert cropped
    assert list(data.cropped) == cropped
