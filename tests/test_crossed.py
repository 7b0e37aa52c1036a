import itertools
import random

import pytest

from anomalion.crossed import (
    ActionTable,
    CrossedModule,
    CrossedSquare,
    KernelPhaseIso,
    TwoCrossedModule,
    WeakMorphismData,
    all_sections,
    check_weak_morphism,
    cm_kernel,
    cm_pi1,
    default_kernel_iso,
    homotopy_groups,
    postnikov3,
    to_two_crossed_module,
    twist,
    validate_crossed_module,
    validate_crossed_square,
    validate_two_crossed_module,
    verify_lattice_square,
    weak_morphism_failure,
    weak_morphism_failure_table,
    weak_morphism_regauge,
)
from anomalion.groups import (
    Cochain,
    FiniteGroup,
    GroupHom,
    coboundary,
    coboundary_solve,
    cohomologous,
    is_cocycle,
    pullback,
    quotient_group,
)
from reference import subgroup_closure, weak_morphisms_isomorphic


def s3():
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(idx[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    return FiniteGroup(table, tuple("".join(map(str, p)) for p in perms), "S3")


S3 = s3()
Z2 = FiniteGroup.cyclic(2)
Z4 = FiniteGroup.cyclic(4)


def _wm_ok(rep: dict) -> bool:
    """Both weak-morphism equations hold."""
    return rep["eq1_ok"] and rep["eq2_ok"]


def conj_cm(g):
    return CrossedModule(g, g, GroupHom.identity(g), ActionTable.conjugation(g))


def sign_action_cm():
    """bd: Z4 -> Z4 doubling, with n acting on m by (-1)^n; the smallest
    fixture carrying a nontrivial degree-3 class."""
    bd = GroupHom(Z4, Z4, tuple((2 * m) % 4 for m in range(4)))
    act = ActionTable(
        Z4, Z4,
        tuple(tuple(m if n % 2 == 0 else (-m) % 4 for m in range(4)) for n in range(4)),
    )
    return CrossedModule(Z4, Z4, bd, act)


def doubling_cm_trivial_action():
    bd = GroupHom(Z4, Z4, tuple((2 * m) % 4 for m in range(4)))
    return CrossedModule(Z4, Z4, bd, ActionTable.trivial(Z4, Z4))


def inclusion_cm():
    """Z2 -> Z4 as {0, 2}; kernel trivial."""
    bd = GroupHom(Z2, Z4, (0, 2))
    return CrossedModule(Z2, Z4, bd, ActionTable.trivial(Z4, Z2))


def z16_carry_cm():
    """Z8 -> Z16 by multiplication by 4; pi1 = Z4, kernel = Z4."""
    Z8, Z16 = FiniteGroup.cyclic(8), FiniteGroup.cyclic(16)
    bd = GroupHom(Z8, Z16, tuple((4 * m) % 16 for m in range(8)))
    return CrossedModule(Z8, Z16, bd, ActionTable.trivial(Z16, Z8))


def conj_square(g):
    return CrossedSquare(
        L=g, M=g, N=g, P=g,
        f=GroupHom.identity(g), g=GroupHom.identity(g),
        v=GroupHom.identity(g), u=GroupHom.identity(g),
        act_L=ActionTable.conjugation(g),
        act_M=ActionTable.conjugation(g),
        act_N=ActionTable.conjugation(g),
        eta=tuple(tuple(g.commutator(m, n) for n in g.elements()) for m in g.elements()),
    )


def bilinear_square():
    """Trivial P and maps; eta(m,n) = mn bilinear into L = Z2."""
    T = FiniteGroup.trivial()
    return CrossedSquare(
        L=Z2, M=Z2, N=Z2, P=T,
        f=GroupHom.trivial(Z2, Z2), g=GroupHom.trivial(Z2, Z2),
        v=GroupHom.trivial(Z2, T), u=GroupHom.trivial(Z2, T),
        act_L=ActionTable.trivial(T, Z2),
        act_M=ActionTable.trivial(T, Z2),
        act_N=ActionTable.trivial(T, Z2),
        eta=((0, 0), (0, 1)),
    )


def test_validate_crossed_module_examples():
    assert not validate_crossed_module(conj_cm(S3))
    T = FiniteGroup.trivial()
    triv = CrossedModule(T, S3, GroupHom.trivial(T, S3), ActionTable.trivial(S3, T))
    assert not validate_crossed_module(triv)
    assert not validate_crossed_module(sign_action_cm())
    assert not validate_crossed_module(doubling_cm_trivial_action())
    assert not validate_crossed_module(inclusion_cm())


def test_validate_crossed_square_examples():
    T = FiniteGroup.trivial()
    all_trivial = CrossedSquare(
        L=T, M=T, N=T, P=T,
        f=GroupHom.identity(T), g=GroupHom.identity(T),
        v=GroupHom.identity(T), u=GroupHom.identity(T),
        act_L=ActionTable.trivial(T, T), act_M=ActionTable.trivial(T, T),
        act_N=ActionTable.trivial(T, T),
        eta=((0,),),
    )
    assert not validate_crossed_square(all_trivial)
    assert not validate_crossed_square(conj_square(S3))
    assert not validate_crossed_square(bilinear_square())


def test_validators_report_peiffer_failure():
    """Z4 -> Z2 mod 2 with Z2 acting by inversion is equivariant, but
    bd(m0) acts on m1 by inversion while conjugation in Z4 is trivial."""
    bd = GroupHom(Z4, Z2, (0, 1, 0, 1))
    inversion = ActionTable(Z2, Z4, ((0, 1, 2, 3), (0, 3, 2, 1)))
    violations = validate_crossed_module(CrossedModule(Z4, Z2, bd, inversion))
    assert violations == [f"crossed module M->N: Peiffer fails at ({m0},{m1})" for m0 in (1, 3) for m1 in (1, 3)]
    T = FiniteGroup.trivial()
    square = CrossedSquare(
        L=T, M=Z4, N=T, P=Z2,
        f=GroupHom.trivial(T, Z4), g=GroupHom.identity(T),
        v=bd, u=GroupHom.trivial(T, Z2),
        act_L=ActionTable.trivial(Z2, T), act_M=inversion, act_N=ActionTable.trivial(Z2, T),
        eta=((0,),) * 4,
    )
    violations = validate_crossed_square(square)
    assert violations == [f"crossed module M->P: Peiffer fails at ({m0},{m1})" for m0 in (1, 3) for m1 in (1, 3)]


def s3_braided_module():
    """L = Z2 -> K = S3 -> P = S3 with delta trivial, bd the identity, P
    acting on K by conjugation and trivially on L, and the braiding 0."""
    return TwoCrossedModule(
        Z2, S3, S3,
        delta=GroupHom.trivial(Z2, S3), bd=GroupHom.identity(S3),
        act_L=ActionTable.trivial(S3, Z2), act_K=ActionTable.conjugation(S3),
        braid=((0,) * 6,) * 6,
    )


def _with(record, **fields):
    """record with the given fields replaced."""
    return type(record)(**{f: fields.get(f, getattr(record, f)) for f in type(record)._fields})


def _hom_with(hom, a, value):
    """hom with a mapped to value."""
    return GroupHom(hom.source, hom.target, tuple(value if x == a else y for x, y in enumerate(hom.map)))


def _rows_with(rows, i, j, value):
    """The table rows with entry [i][j] set to value."""
    return tuple(tuple(value if (a, b) == (i, j) else x for b, x in enumerate(r)) for a, r in enumerate(rows))


def test_every_validator_law_reports_its_violation():
    """One broken table entry breaks the law, and its message is among the
    violations.  An action row stays a bijection only if two entries swap,
    so the homomorphism law of an action breaks by a swap.  S3 lists the
    permutations of 012 in order: 1, 2 and 5 are transpositions, 3 and 4
    three-cycles."""
    cm, square, t = sign_action_cm(), conj_square(S3), s3_braided_module()
    assert not validate_two_crossed_module(t)
    # row 1, m -> -m, becomes (0, 3, 1, 2): still a bijection of Z4, but no automorphism
    swapped = _rows_with(_rows_with(cm.act.table, 1, 2, 1), 1, 3, 2)
    to_transposition = _with(t, delta=_hom_with(t.delta, 1, 1))
    drops_transposition = _with(t, bd=_hom_with(t.bd, 1, 0))
    for validate, broken, message in (
        (validate_crossed_module, _with(cm, act=ActionTable(Z4, Z4, swapped)), "act[1] is not a homomorphism at (1,1)"),
        (validate_crossed_square, _with(square, g=_hom_with(square.g, 1, 2)), "g not P-equivariant at "),
        (validate_two_crossed_module, _with(t, delta=_hom_with(t.delta, 1, 3)), "delta is not a homomorphism"),
        (validate_two_crossed_module, _with(t, bd=_hom_with(t.bd, 1, 2)), "bd is not a homomorphism"),
        (validate_two_crossed_module, to_transposition, "bd(delta(l)) != 1 at l=1"),
        (validate_two_crossed_module, to_transposition, "image of delta is not normal in K"),
        (validate_two_crossed_module, to_transposition, "delta not P-equivariant at "),
        (validate_two_crossed_module, drops_transposition, "image of bd is not normal in P"),
        (validate_two_crossed_module, drops_transposition, "bd not P-equivariant at "),
        (validate_two_crossed_module, _with(t, braid=_rows_with(t.braid, 1, 2, 1)), "braid eq p-equivariance fails at "),
    ):
        violations = validate(broken)
        assert any(v.startswith(message) for v in violations), (message, violations)


class CountedRows(tuple):
    """A table that counts the rows read from it."""

    def __new__(cls, rows):
        table = super().__new__(cls, rows)
        table.reads = 0
        return table

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_validators_stop_at_the_64th_violation():
    """Z16 with zero maps, trivial actions and the constant braiding 1:
    every pair of the {dl0,dl1} equation fails, and the check stops at the
    64th, after the 256 braid reads of the equation before it, instead of
    reading the table for every pair and triple of the equations after."""
    Z16 = FiniteGroup.cyclic(16)
    braid = CountedRows((1,) * 16 for _ in range(16))
    t = TwoCrossedModule(
        Z16, Z16, Z16,
        delta=GroupHom.trivial(Z16, Z16), bd=GroupHom.trivial(Z16, Z16),
        act_L=ActionTable.trivial(Z16, Z16), act_K=ActionTable.trivial(Z16, Z16),
        braid=braid,
    )
    violations = validate_two_crossed_module(t)
    assert violations == [f"braid eq {{dl0,dl1}} fails at ({l0},{l1})" for l0 in range(4) for l1 in range(16)]
    assert braid.reads == 256 + 64


def test_to_two_crossed_module():
    t = to_two_crossed_module(conj_square(S3))
    assert not validate_two_crossed_module(t)
    assert t.K.order == 36

    tb = to_two_crossed_module(bilinear_square())
    assert not validate_two_crossed_module(tb)
    # with trivial P and trivial delta the braiding is bilinear and K abelian
    assert tb.K.is_abelian() and tb.L.is_abelian()
    for k0 in tb.K.elements():
        for k1 in tb.K.elements():
            for k2 in tb.K.elements():
                lhs = tb.braid_at(k0, tb.K.mul(k1, k2))
                rhs = tb.L.mul(tb.braid_at(k0, k1), tb.braid_at(k0, k2))
                assert lhs == rhs
                lhs = tb.braid_at(tb.K.mul(k0, k1), k2)
                rhs = tb.L.mul(tb.braid_at(k0, k2), tb.braid_at(k1, k2))
                assert lhs == rhs

    trivial = to_two_crossed_module(
        CrossedSquare(
            L=FiniteGroup.trivial(), M=FiniteGroup.trivial(), N=FiniteGroup.trivial(),
            P=FiniteGroup.trivial(),
            f=GroupHom.identity(FiniteGroup.trivial()),
            g=GroupHom.identity(FiniteGroup.trivial()),
            v=GroupHom.identity(FiniteGroup.trivial()),
            u=GroupHom.identity(FiniteGroup.trivial()),
            act_L=ActionTable.trivial(FiniteGroup.trivial(), FiniteGroup.trivial()),
            act_M=ActionTable.trivial(FiniteGroup.trivial(), FiniteGroup.trivial()),
            act_N=ActionTable.trivial(FiniteGroup.trivial(), FiniteGroup.trivial()),
            eta=((0,),),
        )
    )
    assert trivial.K.order == 1 and not validate_two_crossed_module(trivial)


def test_homotopy_groups_examples():
    t = to_two_crossed_module(conj_square(S3))
    hg = homotopy_groups(t)
    assert (hg["pi1"].order, hg["pi2"].order, hg["pi3"].order) == (1, 1, 1)

    # K = P = Z2 with bd = id and trivial L
    T = FiniteGroup.trivial()
    t2 = TwoCrossedModule(
        T, Z2, Z2,
        delta=GroupHom.trivial(T, Z2), bd=GroupHom.identity(Z2),
        act_L=ActionTable.trivial(Z2, T), act_K=ActionTable.trivial(Z2, Z2),
        braid=((0,) * 2,) * 2,
    )
    assert not validate_two_crossed_module(t2)
    hg2 = homotopy_groups(t2)
    assert (hg2["pi1"].order, hg2["pi2"].order, hg2["pi3"].order) == (1, 1, 1)


def test_homotopy_lattice_shaped_toy():
    """L = scalar signs, K = origin Z mod scalars, P = Pauli group mod
    scalars, all generated from operator tables; pi2 = 1, pi3 = Z2."""
    from anomalion.groups import subgroup_as_group
    from anomalion.symop import SymOp, op_mul

    # generate the group <Z_0, X_0> of operators at the origin
    gens = [SymOp.z((0, 0)), SymOp.x((0, 0))]
    elems = [SymOp.identity()]
    frontier = [SymOp.identity()]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = op_mul(a, g)
            if b not in elems:
                elems.append(b)
                frontier.append(b)
    assert len(elems) == 8  # +-1, +-Z, +-X, +-ZX
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[op_mul(a, b)] for b in elems) for a in elems)
    pauli = FiniteGroup(table, tuple(str(i) for i in range(8)), "Pauli1")
    scalars = sorted(index[s] for s in (SymOp.identity(), SymOp.scalar(-1)))
    P, proj = quotient_group(pauli, scalars, name="PauliModScalar")
    assert P.order == 4
    zbar = proj[index[SymOp.z((0, 0))]]
    K_members = subgroup_closure(P, [zbar])
    K, k_index = subgroup_as_group(P, K_members, name="Zbar")
    assert K.order == 2
    L = Z2
    bd = GroupHom(K, P, tuple(K_members))
    t = TwoCrossedModule(
        L, K, P,
        delta=GroupHom.trivial(L, K),
        bd=bd,
        act_L=ActionTable.trivial(P, L),
        act_K=ActionTable.trivial(P, K),
        braid=((0,) * 2,) * 2,
    )
    assert not validate_two_crossed_module(t)
    hg = homotopy_groups(t)
    assert hg["pi2"].order == 1
    assert hg["pi3"].order == 2
    assert hg["pi1"].order == 2


SECTION_FIXTURES = [
    ("sign_action", sign_action_cm, False),
    ("doubling_trivial_action", doubling_cm_trivial_action, True),
    ("inclusion_kernel_trivial", inclusion_cm, True),
    ("carry_z16", z16_carry_cm, None),  # triviality decided by the solver
]


@pytest.mark.parametrize("name,make,expect_trivial", SECTION_FIXTURES)
def test_postnikov_section_independence(name, make, expect_trivial):
    cm = make()
    assert cm.N.order <= 16
    sections = list(all_sections(cm))
    classes = postnikov3(cm, sections)
    base = classes[0]
    assert is_cocycle(base)
    for c in classes[1:]:
        assert cohomologous(base, c)
    if expect_trivial is not None:
        assert (coboundary_solve(base) is not None) == expect_trivial


def _assert_failure_forms_agree(G, cm, mu, rho_t):
    M = cm.M
    law = weak_morphism_failure(
        G, lambda g, h: mu[g][h], lambda g, h, k: cm.act(rho_t[g], mu[h][k]), M.mul, M.inv
    )
    table = weak_morphism_failure_table(G, M, mu, [cm.act.table[r] for r in rho_t])
    assert table == [law(g, h, k) for g, h, k in G.tuples(3)]


@pytest.mark.parametrize("name,make,expect_trivial", SECTION_FIXTURES)
def test_failure_table_matches_the_group_law_form(name, make, expect_trivial):
    """The table form of the failure equals weak_morphism_failure on
    M.mul / M.inv on every triple, for the lift of every section."""
    cm = make()
    M, N = cm.M, cm.N
    G, _ = cm_pi1(cm)
    preimage = {}
    for m in reversed(M.elements()):  # the last preimage, not postnikov3's first
        preimage.setdefault(cm.bd(m), m)
    for sigma in all_sections(cm):
        lift = [
            [preimage[N.mul(N.mul(sigma[x], sigma[y]), N.inv(sigma[G.mul(x, y)]))] for y in G.elements()]
            for x in G.elements()
        ]
        _assert_failure_forms_agree(G, cm, lift, sigma)


def test_failure_table_on_a_non_abelian_module():
    """S3 acting on itself by conjugation: the two forms agree on random
    (rho~, mu), and check_weak_morphism reports the triples where the
    group-law form is not 1.  A weak morphism has failure 1: ker(bd) = 1."""
    cm = conj_cm(S3)
    rng = random.Random(7)
    for _ in range(10):
        rho_t = tuple(rng.randrange(6) for _ in S3.elements())
        mu = tuple(tuple(rng.randrange(6) for _ in S3.elements()) for _ in S3.elements())
        _assert_failure_forms_agree(S3, cm, mu, rho_t)
        # bd is the identity, so eq1 forces mu = nu
        nu = tuple(
            tuple(S3.mul(S3.mul(rho_t[g], rho_t[h]), S3.inv(rho_t[S3.mul(g, h)])) for h in S3.elements())
            for g in S3.elements()
        )
        law = weak_morphism_failure(
            S3, lambda g, h: mu[g][h], lambda g, h, k: cm.act(rho_t[g], mu[h][k]), S3.mul, S3.inv
        )
        eq1 = [f"eq1 fails at ({g},{h})" for g, h in S3.tuples(2) if mu[g][h] != nu[g][h]]
        eq2 = [f"eq2 fails at ({g},{h},{k})" for g, h, k in S3.tuples(3) if law(g, h, k) != S3.id]
        rep = check_weak_morphism(WeakMorphismData(S3, cm, rho_t, mu))
        assert eq2 and not rep["eq2_ok"] and rep["obstruction"] is None
        assert rep["violations"] == (eq1 + eq2)[:64]

        _assert_failure_forms_agree(S3, cm, nu, rho_t)
        assert _wm_ok(check_weak_morphism(WeakMorphismData(S3, cm, rho_t, nu)))


def test_failure_leaving_the_kernel_names_its_first_triple():
    """check_weak_morphism does not validate its target.  With a permutation
    of Z4 that moves 2 to 3 in place of an action, eq1 holds but the failure
    leaves ker(bd); the error names the first such triple in row-major order."""
    Z2, Z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    cm = CrossedModule(Z4, Z2, GroupHom(Z4, Z2, (0, 1, 0, 1)), ActionTable(Z2, Z4, ((0, 1, 2, 3), (0, 1, 3, 2))))
    rho_t, mu = (0, 1), ((0, 2), (0, 0))
    law = weak_morphism_failure(
        Z2, lambda g, h: mu[g][h], lambda g, h, k: cm.act(rho_t[g], mu[h][k]), Z4.mul, Z4.inv
    )
    first = next(t for t in Z2.tuples(3) if cm.bd(law(*t)) != Z2.id)
    assert first == (1, 0, 1)
    with pytest.raises(AssertionError, match=r"^eq2 obstruction leaves the kernel at \(1,0,1\)$"):
        check_weak_morphism(WeakMorphismData(Z2, cm, rho_t, mu))


def test_postnikov_makes_no_group_call_per_triple(monkeypatch):
    """Over all 256 sections of the Z16 carry module, postnikov3 calls
    FiniteGroup.mul / inv only for validation and for the lift table
    (four calls per pair of pi1), none per triple."""
    cm = z16_carry_cm()
    pi1, _ = cm_pi1(cm)
    sections = list(all_sections(cm))
    assert len(sections) == 256
    calls = []

    def counted(method):
        def wrapper(self, *args):
            calls.append(method.__name__)
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(FiniteGroup, "mul", counted(FiniteGroup.mul))
    monkeypatch.setattr(FiniteGroup, "inv", counted(FiniteGroup.inv))
    postnikov3(cm, [])
    validation = len(calls)
    calls.clear()
    postnikov3(cm, sections)
    assert len(calls) - validation == len(sections) * 4 * pi1.order**2


def test_kernel_iso_accepts_any_listing_of_the_kernel():
    """validate reads residues through a map, so the element order is free;
    a residue list that is not a homomorphism is still rejected."""
    Z16 = FiniteGroup.cyclic(16)  # x4: Z16 -> Z16, the sections workload's shape
    cm = CrossedModule(Z16, Z16, GroupHom(Z16, Z16, tuple(4 * m % 16 for m in range(16))), ActionTable.trivial(Z16, Z16))
    iso = default_kernel_iso(cm)
    assert iso.modulus == 4
    listed = sorted(iso.residue_map().items(), reverse=True)
    reversed_iso = KernelPhaseIso(tuple(e for e, _ in listed), tuple(r for _, r in listed), 4)
    reversed_iso.validate(cm.M, cm_kernel(cm))
    assert reversed_iso.residue_map() == iso.residue_map()
    sections = list(all_sections(cm))[:5]
    assert postnikov3(cm, sections, reversed_iso) == postnikov3(cm, sections)
    swapped = iso.residue_map()
    a, b = [e for e, r in swapped.items() if r in (1, 2)]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    with pytest.raises(ValueError, match="not a homomorphism"):
        KernelPhaseIso(tuple(swapped), tuple(swapped.values()), 4).validate(cm.M, cm_kernel(cm))


def test_postnikov_split_section_constant_one():
    # split module: M embeds as the first factor of N = Z2 x Z2, and the
    # second factor is a homomorphic section of the projection to pi1
    M = Z2
    N = FiniteGroup.direct_product(Z2, Z2)
    bd = GroupHom(M, N, (0, 2))  # (0,0) and (1,0) in the (a,b) -> 2a+b encoding
    bd.validate()
    cm = CrossedModule(M, N, bd, ActionTable.trivial(N, M))
    assert not validate_crossed_module(cm)
    pi1, proj = cm_pi1(cm)
    reps = []
    for x in pi1.elements():
        fiber = [n for n in (0, 1) if proj[n] == x]  # second-factor subgroup
        reps.append(fiber[0])
    [c] = postnikov3(cm, [tuple(reps)])
    assert not any(c.values)


def test_postnikov_nontrivial_value():
    cm = sign_action_cm()
    [c] = postnikov3(cm, [(0, 1)])
    assert c.modulus == 2
    assert c(1, 1, 1) == 1
    assert coboundary_solve(c) is None


def test_kernel_iso_validation():
    cm = sign_action_cm()
    iso = default_kernel_iso(cm)
    assert iso.modulus == 2
    bad = KernelPhaseIso(iso.elements, tuple(0 for _ in iso.residues), 2)
    with pytest.raises(ValueError):
        bad.validate(cm.M, cm_kernel(cm))


def test_check_weak_morphism_and_obstruction():
    cm = sign_action_cm()
    d = WeakMorphismData(Z2, cm, (0, 1), ((0, 0), (0, 1)))
    rep = check_weak_morphism(d)
    assert rep["eq1_ok"] and not rep["eq2_ok"]
    pi1, proj = cm_pi1(cm)
    [ell] = postnikov3(cm, [(0, 1)])
    rho = GroupHom(Z2, pi1, tuple(proj[(0, 1)[g]] for g in Z2.elements()))
    rho.validate()
    assert cohomologous(rep["obstruction"], pullback(ell, rho))

    # homomorphic rho~ with mu = 1 is a strict morphism
    T = CrossedModule(Z2, Z2, GroupHom.trivial(Z2, Z2), ActionTable.trivial(Z2, Z2))
    d0 = WeakMorphismData(Z2, T, (0, 1), ((0, 0), (0, 0)))
    assert _wm_ok(check_weak_morphism(d0))


@pytest.mark.parametrize("make", [sign_action_cm, z16_carry_cm, doubling_cm_trivial_action])
def test_regauge_keeps_eq1_and_obstruction(make):
    """Regauging (rho~, mu) by any w: G -> M, rho~'(g) = bd(w(g)) rho~(g) and
    mu' = w(g) (rho~(g).w(h)) mu(g,h) w(gh)^-1, keeps the first equation
    and leaves the obstruction cochain unchanged."""
    cm = make()
    M, N = cm.M, cm.N
    G, _ = cm_pi1(cm)
    sections = list(all_sections(cm))
    rng = random.Random(11)
    for _ in range(20):
        rho_t = rng.choice(sections)
        mu = tuple(
            tuple(
                rng.choice([m for m in M.elements() if cm.bd(m) == N.mul(N.mul(rho_t[g], rho_t[h]), N.inv(rho_t[G.mul(g, h)]))])
                for h in G.elements()
            )
            for g in G.elements()
        )
        d = WeakMorphismData(G, cm, rho_t, mu)
        w = [rng.choice(list(M.elements())) for _ in G.elements()]
        mu_w = weak_morphism_regauge(
            G, lambda g, h: mu[g][h], w.__getitem__, lambda g, m: cm.act(rho_t[g], m), M.mul, M.inv
        )
        rho_w = tuple(N.mul(cm.bd(w[g]), rho_t[g]) for g in G.elements())
        d_w = WeakMorphismData(G, cm, rho_w, tuple(tuple(mu_w(g, h) for h in G.elements()) for g in G.elements()))
        rep, rep_w = check_weak_morphism(d), check_weak_morphism(d_w)
        assert rep["eq1_ok"] and rep_w["eq1_ok"]
        assert rep_w["eq2_ok"] == rep["eq2_ok"]
        assert rep_w["obstruction"] == rep["obstruction"]


def test_split_target_random_lift_obstruction_trivial():
    # split target: solving eq1 with any lift leaves a coboundary obstruction
    M = Z4
    N = Z2
    bd = GroupHom(M, N, (0, 1, 0, 1))
    cm = CrossedModule(M, N, bd, ActionTable.trivial(N, M))
    assert not validate_crossed_module(cm)
    rng = random.Random(3)
    for _ in range(5):
        rho_t = (0, 1)
        mu = tuple(
            tuple(rng.choice([n for n in M.elements() if bd(n) == N.mul(N.mul(rho_t[g], rho_t[h]), N.inv(rho_t[Z2.mul(g, h)]))]) for h in range(2))
            for g in range(2)
        )
        d = WeakMorphismData(Z2, cm, rho_t, mu)
        rep = check_weak_morphism(d)
        assert rep["eq1_ok"]
        if not rep["eq2_ok"]:
            assert coboundary_solve(rep["obstruction"]) is not None


def test_twist_and_extension_isomorphism():
    T = CrossedModule(Z2, Z2, GroupHom.trivial(Z2, Z2), ActionTable.trivial(Z2, Z2))
    d0 = WeakMorphismData(Z2, T, (0, 1), ((0, 0), (0, 0)))
    one = Cochain.from_function(Z2, 1, 2, lambda g: g)
    b_cob = coboundary(one)
    b_non = Cochain.from_function(Z2, 2, 2, lambda g, h: 1 if g == h == 1 else 0)
    d_same = twist(d0, Cochain.constant(Z2, 2, 2))
    assert d_same.mu == d0.mu
    d_cob = twist(d0, b_cob)
    d_non = twist(d0, b_non)
    assert _wm_ok(check_weak_morphism(d_cob)) and _wm_ok(check_weak_morphism(d_non))
    assert weak_morphisms_isomorphic(d0, d_cob)
    assert not weak_morphisms_isomorphic(d0, d_non)
    with pytest.raises(ValueError):
        twist(d0, Cochain.from_function(Z2, 2, 2, lambda g, h: g * h if h else g))


def _mutate_table(rng, table, value_range=None):
    rows = len(table)
    cols = len(table[0])
    if value_range is None:
        value_range = cols
    i, j = rng.randrange(rows), rng.randrange(cols)
    old = table[i][j]
    new = rng.choice([v for v in range(value_range) if v != old])
    out = [list(r) for r in table]
    out[i][j] = new
    return tuple(tuple(r) for r in out)


def test_mutation_harness_detects_every_single_entry_change():
    """50 single-entry mutations across the validators; all must be flagged."""
    rng = random.Random(99)
    detected = 0
    trials = 0
    cmz = sign_action_cm()
    square = conj_square(S3)
    t2 = to_two_crossed_module(square)
    while trials < 50:
        kind = rng.choice(["cm_act", "cm_bd", "sq_eta", "sq_hom", "t2_braid"])
        if kind == "cm_act":
            mutated = CrossedModule(
                cmz.M, cmz.N, cmz.bd,
                ActionTable(cmz.N, cmz.M, _mutate_table(rng, cmz.act.table)),
            )
            ok = not validate_crossed_module(mutated)
        elif kind == "cm_bd":
            table = list(cmz.bd.map)
            i = rng.randrange(len(table))
            table[i] = rng.choice([v for v in range(cmz.N.order) if v != table[i]])
            mutated = CrossedModule(cmz.M, cmz.N, GroupHom(cmz.M, cmz.N, tuple(table)), cmz.act)
            ok = not validate_crossed_module(mutated)
        elif kind == "sq_eta":
            mutated = CrossedSquare(
                square.L, square.M, square.N, square.P,
                square.f, square.g, square.v, square.u,
                square.act_L, square.act_M, square.act_N,
                _mutate_table(rng, square.eta),
            )
            ok = not validate_crossed_square(mutated)
        elif kind == "sq_hom":
            table = list(square.f.map)
            i = rng.randrange(len(table))
            table[i] = rng.choice([v for v in range(square.M.order) if v != table[i]])
            mutated = CrossedSquare(
                square.L, square.M, square.N, square.P,
                GroupHom(square.L, square.M, tuple(table)),
                square.g, square.v, square.u,
                square.act_L, square.act_M, square.act_N, square.eta,
            )
            ok = not validate_crossed_square(mutated)
        else:
            mutated = TwoCrossedModule(
                t2.L, t2.K, t2.P, t2.delta, t2.bd, t2.act_L, t2.act_K,
                _mutate_table(rng, t2.braid, value_range=t2.L.order),
            )
            ok = not validate_two_crossed_module(mutated)
        trials += 1
        if not ok:
            detected += 1
    assert detected == trials == 50


def test_lattice_square_pointwise(window12):
    rep = verify_lattice_square(window12, samples=15, seed=5)
    assert rep["ok"], rep["violations"][:2]
    assert len(rep["counts"]) == 6
    assert all(v == 15 for v in rep["counts"].values())


SQUARE_EQUATIONS = [
    ("ad_eta_equals_commutator", "f_g_of_eta_is_commutator"),
    ("inner_left_closed_form", "eta_f(l)_n"),
    ("inner_right_closed_form", "eta_m_g(l)"),
    ("left_multiplicativity", "eta_mm'_n"),
    ("right_multiplicativity", "eta_m_nn'"),
    ("conjugation_equivariance", "eta_p_equivariance"),
]


@pytest.mark.parametrize("identity,equation", SQUARE_EQUATIONS)
def test_lattice_square_reports_suite_failure(window12, monkeypatch, identity, equation):
    """A failed pairing identity is a violation of its crossed-square equation."""
    import anomalion.crossed as crossed
    from anomalion.pairing import run_identity_suite

    def failing_suite(window, n_pairs, seed):
        rep = run_identity_suite(window, n_pairs=n_pairs, seed=seed)
        rep["checks"][identity] += 1
        rep["failures"].append({"identity": identity, "detail": "injected"})
        rep["ok"] = False
        return rep

    monkeypatch.setattr(crossed, "run_identity_suite", failing_suite)
    rep = verify_lattice_square(window12, samples=2, seed=5)
    assert not rep["ok"]
    assert rep["violations"] == [f"{equation}: injected"]
    assert rep["counts"] == {eq: 3 if eq == equation else 2 for _, eq in SQUARE_EQUATIONS}


def test_explicit_kernel_iso_is_checked():
    cm = sign_action_cm()
    iso = default_kernel_iso(cm)
    bad = KernelPhaseIso(iso.elements, tuple(0 for _ in iso.residues), 2)
    d = WeakMorphismData(Z2, cm, (0, 1), ((0, 0), (0, 1)))
    assert check_weak_morphism(d, iso)["obstruction"] is not None
    with pytest.raises(ValueError):
        postnikov3(cm, [(0, 1)], bad)
    with pytest.raises(ValueError):
        check_weak_morphism(d, bad)
    with pytest.raises(ValueError):
        twist(d, Cochain.constant(Z2, 2, 2), bad)


def test_abstract_class_matches_1d_pipeline():
    """The degree-3 table of the sign-action module coincides with the
    class the 1d lattice pipeline extracts for the anomalous chain action."""
    from anomalion.anomaly import nayak_else_1d
    from anomalion.circuits import builtin_action
    from anomalion.lattice import Window

    cm = sign_action_cm()
    [abstract] = postnikov3(cm, [(0, 1)])
    pipeline = nayak_else_1d(builtin_action("levin_gu_1d", Window.chain(12, margin=3)))
    assert abstract.values == pipeline["cochain"].values
    assert abstract.modulus == pipeline["cochain"].modulus == 2
    assert coboundary_solve(abstract) is None and coboundary_solve(pipeline["cochain"]) is None
