import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anomalion
from anomalion import symop
from anomalion.lattice import Region, Window
from anomalion.symop import (
    ALL_PLUS,
    ReferenceState,
    SymOp,
    commutator,
    expectation_phase,
    format_op,
    op_conj,
    op_inv,
    op_mul,
    op_product,
    ops_commute,
    region_mask,
    scalar_phase,
    sites_outside,
    support,
    support_mask,
)
from oracle import DenseSpace
from reference import constant_term

I_, J_, K_ = (0, 0), (1, 0), (2, 0)

SITES = [(x, y) for x in range(3) for y in range(2)]


def rand_op(rng, sites=SITES, max_monos=4):
    poly = set()
    for _ in range(rng.randrange(max_monos)):
        poly ^= {frozenset(rng.sample(sites, rng.choice([0, 1, 2, 3])))}
    flips = frozenset(s for s in sites if rng.random() < 0.3)
    return SymOp(frozenset(poly), flips)


ops_strategy = st.integers(0, 2**32).map(lambda s: rand_op(random.Random(s)))


def test_gate_constructors():
    assert not SymOp.z(I_).flips
    assert SymOp.ccz(I_, J_, K_).degree() == 3
    with pytest.raises(ValueError):
        SymOp.cz(I_, I_)


def test_mul_examples():
    assert op_mul(SymOp.x(I_), SymOp.x(I_)).is_identity()
    # X Z = -(Z X)
    assert op_mul(SymOp.x(I_), SymOp.z(I_)) == SymOp(
        frozenset({frozenset([I_]), frozenset()}), frozenset([I_])
    )
    # X_i CCZ_ijk = CZ_jk CCZ_ijk X_i
    lhs = op_mul(SymOp.x(I_), SymOp.ccz(I_, J_, K_))
    rhs = op_product([SymOp.cz(J_, K_), SymOp.ccz(I_, J_, K_), SymOp.x(I_)])
    assert lhs == rhs


def test_inv_examples():
    assert op_inv(SymOp.identity()).is_identity()
    assert op_inv(SymOp.ccz(I_, J_, K_)) == SymOp.ccz(I_, J_, K_)
    a = op_mul(SymOp.scalar(-1), SymOp.x(I_))
    assert op_inv(a) == a
    assert op_mul(a, op_inv(a)).is_identity()


def test_conj_examples():
    assert op_conj(SymOp.z(I_), SymOp.x(I_)) == op_mul(SymOp.scalar(-1), SymOp.z(I_))
    assert op_conj(SymOp.ccz(I_, J_, K_), SymOp.x(I_)) == op_mul(
        SymOp.ccz(I_, J_, K_), SymOp.cz(J_, K_)
    )
    any_op = op_mul(SymOp.cz(I_, J_), SymOp.x(K_))
    assert op_conj(any_op, SymOp.identity()) == any_op


def test_commutator_examples():
    assert commutator(SymOp.cz(I_, J_), SymOp.ccz(I_, J_, K_)).is_identity()
    assert commutator(SymOp.x(I_), SymOp.z(I_)) == SymOp.scalar(-1)
    a = op_mul(SymOp.cz(I_, J_), SymOp.x(K_))
    assert commutator(a, a).is_identity()


def test_support_and_scalar():
    assert support(SymOp.cz(I_, J_)) == frozenset([I_, J_])
    assert support(SymOp.scalar(-1)) == frozenset()
    assert scalar_phase(SymOp.identity()) == 0
    assert scalar_phase(SymOp.scalar(-1)) == 1
    assert scalar_phase(SymOp.z(I_)) is None
    assert constant_term(SymOp.scalar(-1)) == 1


@given(ops_strategy, ops_strategy, ops_strategy)
@settings(max_examples=250, deadline=None)
def test_group_axioms(a, b, c):
    assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))
    assert op_mul(a, op_inv(a)).is_identity()
    assert op_mul(op_inv(a), a).is_identity()
    assert support(op_mul(a, b)) <= support(a) | support(b)


@given(ops_strategy, ops_strategy)
@settings(max_examples=120, deadline=None)
def test_degree_closure(a, b):
    d = max(a.degree(), b.degree())
    assert op_mul(a, b).degree() <= d
    assert op_inv(a).degree() == a.degree()
    assert op_conj(a, b).degree() <= d


@given(ops_strategy, ops_strategy)
@settings(max_examples=100, deadline=None)
def test_mul_matches_dense(a, b):
    sp = DenseSpace(SITES)
    assert np.array_equal(
        sp.symop_matrix(op_mul(a, b)), sp.symop_matrix(a) @ sp.symop_matrix(b)
    )


@given(ops_strategy, ops_strategy)
@settings(max_examples=100, deadline=None)
def test_conj_and_commutator_match_dense(a, b):
    """The closed forms against matrices; D_f X_S is real orthogonal, so its
    inverse is its transpose."""
    sp = DenseSpace(SITES)
    A, B = sp.symop_matrix(a), sp.symop_matrix(b)
    assert np.array_equal(sp.symop_matrix(op_conj(a, b)), B @ A @ B.T)
    assert np.array_equal(sp.symop_matrix(commutator(a, b)), A @ B @ A.T @ B.T)
    assert ops_commute(a, b) == np.array_equal(A @ B, B @ A)


def test_expectation_all_zeros():
    assert expectation_phase(SymOp.z(I_)) == 0
    assert expectation_phase(SymOp.x(I_)) is None
    assert expectation_phase(SymOp.scalar(-1)) == 1
    assert expectation_phase(SymOp.cz(I_, J_)) == 0


def test_expectation_all_plus():
    assert expectation_phase(SymOp.x(I_), ALL_PLUS) == 0
    assert expectation_phase(SymOp.z(I_), ALL_PLUS) is None
    assert expectation_phase(SymOp.cz(I_, J_), ALL_PLUS) is None  # the value is 1/2
    assert expectation_phase(SymOp.scalar(-1), ALL_PLUS) == 1
    # a diagonal on 30 sites: the value is 0, found without 2^30 assignments
    wide = op_product(SymOp.z((i, 7)) for i in range(30))
    assert expectation_phase(wide, ALL_PLUS) is None
    assert expectation_phase(op_mul(SymOp.scalar(-1), wide)) == 1
    with pytest.raises(ValueError):
        ReferenceState("y")


def as_phase(value: Fraction) -> int | None:
    """A dense expectation as a Z2 residue: +1 -> 0, -1 -> 1, else None."""
    return {1: 0, -1: 1}.get(value)


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_expectation_matches_dense(a):
    sp = DenseSpace(SITES)
    assert expectation_phase(a) == as_phase(sp.expectation(sp.symop_matrix(a), "z"))
    assert expectation_phase(a, ALL_PLUS) == as_phase(sp.expectation(sp.symop_matrix(a), "x"))


@given(ops_strategy, ops_strategy)
@settings(max_examples=150, deadline=None)
def test_format_op_is_injective(a, b):
    """Two operators print alike iff they are equal: on random pairs, on one
    value built two ways, and on neighbours one factor apart."""
    pairs = [(a, b), (a, op_mul(op_mul(a, b), op_inv(b)))]
    for f in (SymOp.scalar(-1), SymOp.z(I_), SymOp.cz(I_, J_), SymOp.ccz(I_, J_, K_), SymOp.x(K_)):
        pairs.append((a, op_mul(a, f)))
    for x, y in pairs:
        assert (format_op(x) == format_op(y)) == (x == y)


def test_format_example():
    a = op_product([SymOp.scalar(-1), SymOp.z((0, 0)), SymOp.cz((1, 0), (2, 0)), SymOp.x((3, 0))])
    assert format_op(a) == "-1 * Z(0,0) * CZ((1,0),(2,0)) * X(3,0)"
    assert format_op(SymOp.identity()) == "1"


# -- the packed kernel against the site-set algebra ------------------------
#
# The reference below is the unpacked algebra: an operator is a pair
# (poly, flips) of a frozenset of frozensets of sites and a frozenset of
# sites, and sigma_S expands each monomial over the subsets of its sites
# in S.


def ref_subst(poly, flips):
    acc = set()
    for mono in poly:
        hit = mono & flips
        rest = mono - hit
        for k in range(len(hit) + 1):
            for chosen in combinations(sorted(hit), k):
                acc ^= {rest | frozenset(chosen)}
    return frozenset(acc)


def ref_mul(a, b):
    return (a[0] ^ ref_subst(b[0], a[1]), a[1] ^ b[1])


def ref_inv(a):
    return (ref_subst(a[0], a[1]), a[1])


def unpacked(op):
    return (op.poly, op.flips)


site_sets = st.frozensets(st.sampled_from(SITES))
ref_ops = st.tuples(st.frozensets(st.frozensets(st.sampled_from(SITES), max_size=3), max_size=5), site_sets)

MINUS_ONE = (frozenset([frozenset()]), frozenset())
CUBIC = (frozenset([frozenset(), frozenset(SITES[:3]), frozenset(SITES[2:5]), frozenset([SITES[5]])]),
         frozenset(SITES[1:4]))
FLIPS_ONLY = (frozenset(), frozenset(SITES))


@given(ref_ops, ref_ops, st.lists(ref_ops, max_size=5))
@example(MINUS_ONE, CUBIC, [])
@example(CUBIC, CUBIC, [CUBIC, FLIPS_ONLY, MINUS_ONE, CUBIC, CUBIC])
@example(CUBIC, FLIPS_ONLY, [FLIPS_ONLY, CUBIC])
@example(FLIPS_ONLY, CUBIC, [CUBIC])
@settings(max_examples=300, deadline=None)
def test_packed_kernel_matches_site_set_reference(ra, rb, rlist):
    a, b = SymOp(*ra), SymOp(*rb)
    assert unpacked(a) == ra
    assert pickle.loads(pickle.dumps(a)) == a
    assert unpacked(op_mul(a, b)) == ref_mul(ra, rb)
    assert unpacked(op_inv(a)) == ref_inv(ra)
    assert unpacked(op_conj(a, b)) == ref_mul(ref_mul(rb, ra), ref_inv(rb))
    ref_commutator = ref_mul(ref_mul(ra, rb), ref_mul(ref_inv(ra), ref_inv(rb)))
    assert unpacked(commutator(a, b)) == ref_commutator
    assert ops_commute(a, b) == (ref_commutator == (frozenset(), frozenset()))
    assert ops_commute(a, b) == (ref_mul(ra, rb) == ref_mul(rb, ra))
    want = reduce(ref_mul, rlist, (frozenset(), frozenset()))
    assert unpacked(op_product(SymOp(*r) for r in rlist)) == want
    supp = ra[1].union(*ra[0])
    assert support(a) == supp
    assert a.degree() == max(map(len, ra[0]), default=0)
    want = None if supp else int(frozenset() in ra[0])
    assert scalar_phase(a) == want


INTERN_ORDER_RUN = """
import sys
from anomalion.cli import main
from anomalion.lattice import Window
from anomalion.symop import SymOp

if sys.argv[1] == "reversed":
    for s in reversed(list(Window.centered(12, 12).sites())):
        SymOp.z(s)
sys.exit(main(["reproduce-ccz", "--check-gauge", "1", "--seed", "1", "--report", sys.argv[2]]))
"""


def test_report_does_not_depend_on_intern_order(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(anomalion.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    outputs = []
    for order in ("plain", "reversed"):
        report = tmp_path / f"{order}.json"
        proc = subprocess.run([sys.executable, "-c", INTERN_ORDER_RUN, order, str(report)],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, report.read_bytes()))
    assert outputs[0] == outputs[1]


def brute_region_mask(region) -> int:
    return sum(1 << i for i, s in enumerate(list(symop._SITES)) if region.contains(s))


base_regions = st.one_of(
    st.just(Region.full()),
    st.builds(Region.half_plane_H, st.integers(0, 3)),
    st.builds(Region.boundary_line, st.integers(0, 3)),
    st.builds(Region.half_line_R, st.integers(0, 3)),
    st.builds(Region.half_line_L, st.integers(0, 3)),
    st.builds(Region.origin_disk, st.integers(0, 5), st.integers(0, 2)),
)
regions = st.one_of(
    st.recursive(
        base_regions,
        lambda inner: st.one_of(
            st.builds(Region, st.just("complement"), inner=inner),
            st.builds(Region.intersection_of, inner, inner),
        ),
        max_leaves=4,
    ),
    st.builds(Window, st.integers(-6, 0), st.integers(0, 6), st.integers(-6, 0), st.integers(0, 6)),
)
lattice_sites = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


@given(regions, st.lists(lattice_sites, max_size=12))
@settings(max_examples=200, deadline=None)
@example(Region("complement", inner=Region.origin_disk(2, 1)), [(3, 3), (40, -40)])
@example(Region.intersection_of(Region.half_line_L(1), Region.origin_disk(3)), [(-2, 1), (0, 5)])
@example(Window(-3, 2, -1, 4), [(2, 4), (3, 4)])
def test_region_mask_agrees_with_contains(region, fresh):
    for s in Window.centered(8, 8).sites():
        SymOp.z(s)
    assert region_mask(region) == brute_region_mask(region)
    before, new = len(symop._SITES), {s for s in fresh if s not in symop._BITS}
    ops = [SymOp.x(s) for s in fresh]
    # each fresh site gets one bit of its own, which decodes back to it
    assert len(symop._SITES) == before + len(new)
    assert len({support_mask(o) for o in ops}) == len(set(fresh))
    assert all(support_mask(o).bit_count() == 1 and support(o) == {s} for o, s in zip(ops, fresh))
    assert region_mask(region) == brute_region_mask(region)
    assert sites_outside(ops, region) == sorted({s for s in fresh if not region.contains(s)})
