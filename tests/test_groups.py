import functools
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomalion.groups import (
    Cochain,
    FiniteGroup,
    GroupHom,
    GroupTableError,
    _face_table,
    classify,
    coboundary,
    coboundary_matrix,
    coboundary_solve,
    cohomologous,
    cup_1cocycles,
    is_cocycle,
    klein_bits,
    klein_four,
    projection_sign_cocycle,
    pullback,
)
from reference import subgroup_closure

Z2 = FiniteGroup.cyclic(2)
K4 = klein_four()


def s3():
    import itertools

    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(idx[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    return FiniteGroup(table, tuple("".join(map(str, p)) for p in perms), "S3")


GROUPS = [Z2, FiniteGroup.cyclic(3), FiniteGroup.cyclic(4), K4, FiniteGroup.cyclic(8), s3()]


def random_cochain(rng, group, degree, modulus):
    vals = tuple(rng.randrange(modulus) for _ in range(group.order**degree))
    return Cochain(group, degree, modulus, vals)


def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup(((0, 1), (0, 1)))  # no identity column consistency
    with pytest.raises(ValueError):
        FiniteGroup(((0, 1), (1, 1)))  # 1 has no inverse
    # identity and inverses check out, but an entry lies past the order
    with pytest.raises(GroupTableError, match="entry 7 is not an element of range"):
        FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 0, 7)))
    with pytest.raises(GroupTableError, match="entry 1.0 is not an element of range"):
        FiniteGroup(((0, 1), (1, 1.0)))
    # a JSON boolean is a Python int, but no group element
    with pytest.raises(GroupTableError, match="entry False is not an element of range"):
        FiniteGroup(((False, True), (True, False)))
    with pytest.raises(GroupTableError, match="entry False is not an element of range"):
        FiniteGroup.from_json({"order": 2, "mul": [False, True, True, False]})
    for obj, message in (
        ({"order": True, "mul": [0]}, "group: 'order' must be an int, got True"),
        ({"order": 2.0, "mul": [0, 1, 1, 0]}, "group: 'order' must be an int, got 2.0"),
        ({"order": 1, "mul": "0"}, "group: 'mul' must be a list, got '0'"),
        # a string of names is no list of them, though it splits into characters
        ({"order": 2, "mul": [0, 1, 1, 0], "names": "ab"}, "group: 'names' must be a list, got 'ab'"),
        ({"order": 2, "mul": [0, 1, 1, 0], "name": 2}, "group: 'name' must be a string, got 2"),
        ({"order": 2, "mul": [0, 1, 1, 0], "nmaes": ["e", "x"]}, "group: unknown key 'nmaes'"),
        ({"mul": [0]}, "group: missing key 'order'"),
        ([0, 1, 1, 0], "group: expected an object, got [0, 1, 1, 0]"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteGroup.from_json(obj)
    # element names read from JSON key the cochain entries of a report, so
    # they are distinct strings
    for names in (["x", "x"], [0, 1], ["e", 1], ["e", None]):
        with pytest.raises(GroupTableError, match="element names must be distinct strings"):
            FiniteGroup.from_json({"order": 2, "mul": [0, 1, 1, 0], "names": names})
    # names are joined with "," in those keys: "a" and "a,a" would collide,
    # while names with one comma each (as Klein's) keep them distinct
    with pytest.raises(GroupTableError, match="element names 'a' and 'a,a' differ in their number of ','"):
        FiniteGroup.from_json({"order": 2, "mul": [0, 1, 1, 0], "names": ["a", "a,a"]})
    assert FiniteGroup.from_json({"order": 2, "mul": [0, 1, 1, 0], "names": ["a,b", "a,a"]}).names == ("a,b", "a,a")


def test_coboundary_of_constant_0cochain_is_trivial():
    v = Cochain.constant(Z2, 0, 2, value=1)
    assert not any(coboundary(v).values)


def test_coboundary_squared_is_one_on_examples():
    rng = random.Random(0)
    for g in (Z2, K4):
        c = random_cochain(rng, g, 2, 2)
        assert not any(coboundary(coboundary(c)).values)


def test_coboundary_on_z2_sign_cochain():
    # c(0)=+1, c(1)=-1; direct evaluation of the differential on all pairs
    c = Cochain(Z2, 1, 2, (0, 1))
    dc = coboundary(c)
    for g in (0, 1):
        for h in (0, 1):
            # (delta c)(g,h) = c(h) - c(gh) + c(g); equals (-1)^(g+h+(g xor h))
            expect = (g + h + (g ^ h)) % 2
            assert dc(g, h) == expect
    assert not any(dc.values)  # c is a homomorphism


@given(
    st.sampled_from(GROUPS),
    st.integers(1, 4),
    st.sampled_from([2, 3, 4]),
    st.integers(0, 2**30),
)
@settings(max_examples=60, deadline=None)
def test_delta_squared_zero(group, degree, modulus, seed):
    while group.order**(degree + 2) > 40000:
        degree -= 1
    c = random_cochain(random.Random(seed), group, degree, modulus)
    assert not any(coboundary(coboundary(c)).values)


@given(st.sampled_from([Z2, K4]), st.integers(1, 3), st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_coboundary_solve_roundtrip(group, degree, seed):
    b = random_cochain(random.Random(seed), group, degree, 2)
    c = coboundary(b)
    sol = coboundary_solve(c)
    assert sol is not None
    assert coboundary(sol) == c


def test_coboundary_solve_rejects_non_cocycle():
    rng = random.Random(1)
    while True:
        c = random_cochain(rng, K4, 4, 2)
        if not is_cocycle(c):
            break
    assert not is_cocycle(c)
    with pytest.raises(ValueError):
        coboundary_solve(c)


def test_is_cocycle_examples():
    assert is_cocycle(Cochain.constant(K4, 4, 2))
    tau = Cochain.from_function(
        K4, 4, 2,
        lambda g, h, k, l: klein_bits(g)[1] * klein_bits(h)[1] * klein_bits(k)[1] * klein_bits(l)[0],
    )
    assert is_cocycle(tau)  # checked over all 4^5 tuples by the definition


def test_tau_table_not_a_coboundary():
    tau = Cochain.from_function(
        K4, 4, 2,
        lambda g, h, k, l: klein_bits(g)[1] * klein_bits(h)[1] * klein_bits(k)[1] * klein_bits(l)[0],
    )
    assert coboundary_solve(tau) is None


def test_cup_products():
    a = projection_sign_cocycle(K4, 0)
    b = projection_sign_cocycle(K4, 1)
    cup = cup_1cocycles([b, b, b, a])
    for g in K4.elements():
        for h in K4.elements():
            for k in K4.elements():
                for l in K4.elements():
                    want = klein_bits(g)[1] * klein_bits(h)[1] * klein_bits(k)[1] * klein_bits(l)[0]
                    assert cup(g, h, k, l) == want
    assert is_cocycle(cup)

    trivial = Cochain.constant(K4, 1, 2)
    assert not any(cup_1cocycles([b, trivial, b, a]).values)

    az2 = Cochain.from_function(Z2, 1, 2, lambda g: g)
    aa = cup_1cocycles([az2, az2])
    for g in Z2.elements():
        for h in Z2.elements():
            assert aa(g, h) == g * h
    assert is_cocycle(aa)  # all 8 triples

    with pytest.raises(ValueError):
        cup_1cocycles([Cochain(Z2, 1, 2, (0, 0)), Cochain(Z2, 2, 2, (0,) * 4)])
    nonhom = Cochain(K4, 1, 2, (1, 0, 0, 0))  # value -1 at the identity
    with pytest.raises(ValueError):
        cup_1cocycles([nonhom])


def test_pullbacks():
    a = projection_sign_cocycle(K4, 0)
    b = projection_sign_cocycle(K4, 1)
    b3a = cup_1cocycles([b, b, b, a])
    ident = GroupHom.identity(K4)
    assert pullback(b3a, ident) == b3a

    triv = GroupHom.trivial(K4, K4)
    pulled = pullback(b3a, triv)
    assert pulled == Cochain.constant(K4, 4, 2, value=b3a(K4.id, K4.id, K4.id, K4.id))

    # swap automorphism exchanges the two projections
    swap = GroupHom(K4, K4, tuple((e & 1) * 2 + (e >> 1) for e in K4.elements()))
    swap.validate()
    a3b = cup_1cocycles([a, a, a, b])
    assert pullback(b3a, swap) == a3b


def test_pullback_commutes_with_coboundary():
    rng = random.Random(5)
    swap = GroupHom(K4, K4, tuple((e & 1) * 2 + (e >> 1) for e in K4.elements()))
    for _ in range(10):
        c = random_cochain(rng, K4, 2, 4)
        assert pullback(coboundary(c), swap) == coboundary(pullback(c, swap))


def test_cohomologous():
    b = projection_sign_cocycle(K4, 1)
    a = projection_sign_cocycle(K4, 0)
    tau = cup_1cocycles([b, b, b, a])
    assert cohomologous(tau, tau)
    pipeline_tau = Cochain.from_function(
        K4, 4, 2,
        lambda g, h, k, l: klein_bits(g)[1] * klein_bits(h)[1] * klein_bits(k)[1] * klein_bits(l)[0],
    )
    assert cohomologous(pipeline_tau, tau)
    assert not cohomologous(tau, Cochain.constant(K4, 4, 2))
    with pytest.raises(ValueError):
        cohomologous(tau, Cochain.constant(K4, 3, 2))


def test_group_json_roundtrip():
    g = K4
    j = g.to_json()
    g2 = FiniteGroup.from_json(j)
    assert g2.mul_table == g.mul_table and g2.names == g.names

    c = projection_sign_cocycle(K4, 0)
    cj = c.to_json()
    assert cj["degree"] == 1 and cj["modulus"] == 2
    assert cj["values"]["1,0"] == 1 and cj["values"]["0,1"] == 0


def test_quotient_and_subgroup_helpers():
    from anomalion.groups import is_normal, quotient_group, subgroup_as_group

    g = s3()
    a3 = subgroup_closure(g, [e for e in g.elements() if g.names[e] in ("120", "201")])
    assert len(a3) == 3 and is_normal(g, a3)
    q, proj = quotient_group(g, a3)
    assert q.order == 2
    sub, idx = subgroup_as_group(g, a3)
    assert sub.order == 3 and sub.is_abelian()


def test_coboundary_solve_constant_cocycle():
    c = Cochain.constant(K4, 4, 2)
    sol = coboundary_solve(c)
    assert sol is not None and coboundary(sol) == c


def test_mod2_class_trivializes_in_mod4():
    # (-1)^(gh) on Z2 is not a Z2-coboundary, but its image in Z4
    # coefficients is one (b(1) a fourth root of unity): exercises the
    # composite-modulus solver
    a = Cochain.from_function(Z2, 1, 2, lambda g: g)
    sq = cup_1cocycles([a, a])
    assert coboundary_solve(sq) is None
    lifted = sq.with_modulus(4)
    assert is_cocycle(lifted)
    sol = coboundary_solve(lifted)
    assert sol is not None and coboundary(sol) == lifted
    assert sol.modulus == 4 and sol(1) % 2 == 1


def reference_coboundary(c):
    """delta c written out from the definition, one tuple at a time."""
    g, n = c.group, c.degree

    def val(*args):
        total = c(*args[1:])
        for i in range(1, n + 1):
            total += (-1) ** i * c(*args[: i - 1], g.mul(args[i - 1], args[i]), *args[i + 1 :])
        return total + (-1) ** (n + 1) * c(*args[:n])

    return Cochain.from_function(g, n + 1, c.modulus, val)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_coboundary_matches_definition_on_s3(degree):
    rng = random.Random(degree)
    for modulus in (2, 3, 4, 6):
        c = random_cochain(rng, s3(), degree, modulus)
        assert coboundary(c) == reference_coboundary(c)


def reference_faces(g, n):
    """Index in G^n of face i of every tuple of G^(n+1), one list per i,
    built tuple by tuple from the definition of the differential."""

    def index(args):
        i = 0
        for a in args:
            i = i * g.order + a
        return i

    faces = [[] for _ in range(n + 2)]
    for args in product(g.elements(), repeat=n + 1):
        faces[0].append(index(args[1:]))
        for i in range(1, n + 1):
            faces[i].append(index((*args[: i - 1], g.mul(args[i - 1], args[i]), *args[i + 1 :])))
        faces[n + 1].append(index(args[:n]))
    return faces


ORACLE_GROUPS = {"S3": s3(), "Z2^3": FiniteGroup.direct_product(K4, Z2), "Z4": FiniteGroup.cyclic(4)}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_faces_coboundary_and_delta_match_tuple_by_tuple_definition(name):
    """The cached face tables, coboundary, is_cocycle and the sparse delta
    against the tuple-by-tuple differential, degrees 0-4."""
    g = ORACLE_GROUPS[name]
    rng = random.Random(g.order)
    for n in range(5):
        faces = reference_faces(g, n)
        assert [list(face) for face in _face_table(g.mul_table, n)] == faces
        delta = coboundary_matrix(g, n + 1)
        assert delta.shape == (g.order ** (n + 1), g.order**n)
        assert all(all(col.values()) for col in delta.columns)  # no stored zeros
        for modulus in (2, 4, 6, 25):
            c = random_cochain(rng, g, n, modulus)
            want = [
                sum((-1) ** i * c.values[face[t]] for i, face in enumerate(faces))
                for t in range(len(faces[0]))
            ]
            assert coboundary(c).values == tuple(v % modulus for v in want)
            assert is_cocycle(c) == (not any(v % modulus for v in want))
            applied = [0] * delta.shape[0]
            for j, col in enumerate(delta.columns):
                for r, v in col.items():
                    applied[r] += v * c.values[j]
            assert applied == want


@functools.lru_cache(maxsize=None)
def homomorphisms(group, modulus):
    """Every homomorphism group -> Z_modulus, as a 1-cocycle."""
    gens = []
    for g in group.elements():
        if g not in subgroup_closure(group, gens):
            gens.append(g)
    out = []
    for images in product(range(modulus), repeat=len(gens)):
        phi = {group.id: 0}
        frontier = [group.id]
        while frontier:
            a = frontier.pop()
            for s, v in zip(gens, images):
                if group.mul(a, s) not in phi:
                    phi[group.mul(a, s)] = (phi[a] + v) % modulus
                    frontier.append(group.mul(a, s))
        c = Cochain(group, 1, modulus, tuple(phi[g] for g in group.elements()))
        if is_cocycle(c):
            out.append(c)
    return tuple(out)


def random_cocycle(rng, group, degree, modulus):
    """A random coboundary plus a nonzero multiple of a cup product of nonzero
    homomorphisms (zero when the group has none)."""
    homs = [h for h in homomorphisms(group, modulus) if any(h.values)]
    factors = [rng.choice(homs) for _ in range(degree)] if homs else []
    k = rng.randrange(1, modulus) if homs else 0

    def cup(*args):
        return k * functools.reduce(lambda acc, fx: acc * fx[0](fx[1]), zip(factors, args), 1)

    c = Cochain.from_function(group, degree, modulus, cup)
    return c.mul(coboundary(random_cochain(rng, group, degree - 1, modulus)))


@given(
    st.sampled_from(GROUPS),
    st.integers(1, 4),
    st.sampled_from([2, 3, 4]),
    st.integers(0, 2**30),
)
@settings(max_examples=60, deadline=None)
def test_classify_matches_pairwise_reference(group, degree, modulus, seed):
    while group.order**degree > 216:
        degree -= 1
    rng = random.Random(seed)
    c = random_cocycle(rng, group, degree, modulus)
    if rng.random() < 0.2:
        c = random_cochain(rng, group, degree, modulus)
    candidates = {f"r{i}": random_cocycle(rng, group, degree, modulus) for i in range(3)}
    candidates["shifted"] = c.mul(coboundary(random_cochain(rng, group, degree - 1, modulus)))
    candidates["open"] = random_cochain(rng, group, degree, modulus)
    closed, trivial, names = classify(c, candidates)
    assert closed == is_cocycle(c)
    if not closed:
        assert (trivial, names) == (False, ())
        return
    assert trivial == (coboundary_solve(c) is not None)
    want = tuple(
        name for name, rep in candidates.items() if is_cocycle(rep) and cohomologous(c, rep)
    )
    assert names == want
    assert "shifted" in names


def test_classify_non_closed_input():
    rng = random.Random(1)
    while True:
        c = random_cochain(rng, K4, 3, 2)
        if not is_cocycle(c):
            break
    assert classify(c, {"trivial": Cochain.constant(K4, 3, 2)}) == (False, False, ())


def test_classify_rejects_mismatched_candidates():
    tau = cup_1cocycles([projection_sign_cocycle(K4, 1)] * 3 + [projection_sign_cocycle(K4, 0)])
    assert classify(tau, {"self": tau}) == (True, False, ("self",))
    with pytest.raises(ValueError):
        classify(tau, {"mod4": tau.with_modulus(4)})
    with pytest.raises(ValueError):
        classify(tau, {"degree3": Cochain.constant(K4, 3, 2)})
    with pytest.raises(ValueError):
        classify(tau, {"other group": Cochain.constant(FiniteGroup.cyclic(4), 4, 2)})


def count_solves(monkeypatch):
    """The list that records every solve_mod and coboundary_matrix call
    classify makes from now on."""
    import anomalion.groups as groups

    calls = []
    solve, delta = groups.solve_mod, groups.coboundary_matrix

    def counting_solve(A, B, m):
        calls.append(("solve_mod", len(B), len(B[0])))
        return solve(A, B, m)

    def counting_delta(group, n):
        calls.append(("coboundary_matrix", group.order, n))
        return delta(group, n)

    monkeypatch.setattr(groups, "solve_mod", counting_solve)
    monkeypatch.setattr(groups, "coboundary_matrix", counting_delta)
    return calls


def test_classify_runs_one_elimination(monkeypatch):
    """A mod-8 index takes the solve path: one elimination for c and every
    candidate."""
    calls = count_solves(monkeypatch)
    b = projection_sign_cocycle(K4, 1)
    a = projection_sign_cocycle(K4, 0)
    tau = cup_1cocycles([b, b, b, a]).with_modulus(8)
    candidates = {
        "trivial": Cochain.constant(K4, 4, 8),
        "b^3 . a": tau,
        "a^3 . b": cup_1cocycles([a, a, a, b]).with_modulus(8),
    }
    assert classify(tau, candidates) == (True, False, ("b^3 . a",))
    assert calls == [("coboundary_matrix", 4, 4), ("solve_mod", 4**4, 4)]


def klein_tau_on_z2_cubed():
    """b^3 . a on Z2xZ2xZ2, pulled back from its Klein factor."""
    G = FiniteGroup.direct_product(K4, Z2)
    to_klein = GroupHom(G, K4, tuple(e >> 1 for e in G.elements()))
    to_klein.validate()
    b = projection_sign_cocycle(K4, 1)
    a = projection_sign_cocycle(K4, 0)
    return G, pullback(cup_1cocycles([b, b, b, a]), to_klein)


def test_classify_on_z2_cubed_builds_no_delta(monkeypatch):
    """Degree 4 mod 2 on Z2xZ2xZ2, the |G| = 8 shape, is classified by its
    shuffle coordinates alone."""
    calls = count_solves(monkeypatch)
    G, tau = klein_tau_on_z2_cubed()
    # 1 on (3, 3, 3, 3) alone is normalized and not closed, and 3 is not in
    # the basis 1, 2, 4, so tau times it has tau's coordinates and must not match
    spike = Cochain.from_function(G, 4, 2, lambda *args: set(args) == {3})
    candidates = {"trivial": Cochain.constant(G, 4, 2), "b^3 . a": tau, "open": tau.mul(spike)}
    assert classify(tau, candidates) == (True, False, ("b^3 . a",))
    assert calls == []


def test_classify_full_size_delta_on_z2_cubed():
    """Degree 4 on Z2xZ2xZ2: the solves over one 4096 x 512 delta."""
    G, tau = klein_tau_on_z2_cubed()
    assert coboundary_solve(tau) is None
    db = coboundary(random_cochain(random.Random(8), G, 3, 2))
    x = coboundary_solve(db)
    assert x is not None
    assert coboundary(x) == db


def relabelled_z2_power(rng, k):
    """Z2^k with its elements shuffled, so the identity and the basis sit
    anywhere in the table, and the map (element, i) -> bit i of its
    coordinates."""
    order = 2**k
    label = list(range(order))
    rng.shuffle(label)
    table = [[0] * order for _ in range(order)]
    for x, y in product(range(order), repeat=2):
        table[label[x]][label[y]] = label[x ^ y]
    coords = {g: x for x, g in enumerate(label)}
    return FiniteGroup(tuple(map(tuple, table))), lambda g, i: coords[g] >> i & 1


def random_normalized_cochain(rng, group, degree):
    return Cochain.from_function(
        group, degree, 2, lambda *args: 0 if group.id in args else rng.randrange(2)
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_shuffle_coordinates_agree_with_the_solve_path(monkeypatch, k, degree):
    """Normalized mod-2 cocycles on Z2^k, each a coboundary times cup
    monomials of the coordinate projections: classify's coordinates give
    the known class and agree with its solve path, which a non-normalized
    candidate selects."""
    calls = count_solves(monkeypatch)
    rng = random.Random(10 * k + degree)
    for _ in range(14):
        G, bit = relabelled_z2_power(rng, k)

        def monomial():
            letters = [rng.randrange(k) for _ in range(degree)]
            rep = Cochain.from_function(
                G, degree, 2, lambda *args: all(bit(g, i) for g, i in zip(args, letters))
            )
            return rep, tuple(sorted(letters))

        def boundary():
            return coboundary(random_normalized_cochain(rng, G, degree - 1))

        c, terms = boundary(), set()
        for _ in range(rng.randrange(4)):
            rep, term = monomial()
            c, terms = c.mul(rep), terms ^ {term}
        mono, term = monomial()
        candidates = {"monomial": mono, "boundary": boundary(), "shifted": c.mul(boundary())}
        want = (True, not terms, tuple(
            name for name, hit in zip(candidates, (terms == {term}, not terms, True)) if hit
        ))
        calls.clear()
        assert classify(c, candidates) == want
        assert calls == []
        # 1 on (e, ..., e) alone: not normalized, and not closed, so it matches nothing
        at_identity = Cochain.from_function(G, degree, 2, lambda *args: set(args) == {G.id})
        assert classify(c, {**candidates, "open": at_identity}) == want
        assert [name for name, *_ in calls] == ["coboundary_matrix", "solve_mod"]


def test_classify_falls_back_on_non_normalized_cochains(monkeypatch):
    """A non-normalized cochain or candidate sends classify to the solve path."""
    calls = count_solves(monkeypatch)
    # closed, not normalized, and the coboundary of the constant 1 in degree 1;
    # its shuffle coordinate on [a|a] would read 1
    one = Cochain.constant(Z2, 2, 2, 1)
    assert classify(one) == (True, True, ())
    assert [name for name, *_ in calls] == ["coboundary_matrix", "solve_mod"]
    a = Cochain.from_function(Z2, 1, 2, lambda x: x)
    a3 = cup_1cocycles([a, a, a])
    calls.clear()
    assert classify(a3, {"a^3": a3, "open": Cochain.constant(Z2, 3, 2, 1)}) == (True, False, ("a^3",))
    assert [name for name, *_ in calls] == ["coboundary_matrix", "solve_mod"]
    # one nonzero value at a tuple with the identity in any slot is seen
    rng = random.Random(5)
    G, _ = relabelled_z2_power(rng, 2)
    zero = Cochain.constant(G, 4, 2)
    for slot in range(4):
        for _ in range(6):
            at = [rng.randrange(G.order) for _ in range(4)]
            at[slot] = G.id
            spike = Cochain.from_function(G, 4, 2, lambda *args: list(args) == at)
            calls.clear()
            assert classify(zero, {"spike": spike}) == (True, True, ())
            assert [name for name, *_ in calls] == ["coboundary_matrix", "solve_mod"]


def test_klein_class_survives_the_z8_lift():
    """b^3 . a pushed into Z8 (values times 4), the lift of a Z2 class to
    Z_{2|G|}, stays closed and nontrivial; the solves go through the Smith
    form over Z/8."""
    b = projection_sign_cocycle(K4, 1)
    a = projection_sign_cocycle(K4, 0)
    lifted = cup_1cocycles([b, b, b, a]).with_modulus(8)
    assert classify(lifted) == (True, False, ())
    shifted = lifted.mul(coboundary(random_cochain(random.Random(3), K4, 3, 8)))
    assert classify(shifted, {"b^3 . a": lifted}) == (True, False, ("b^3 . a",))
