"""Finite groups and inhomogeneous cochains with roots-of-unity coefficients.

Elements of a group are indices 0..order-1 with a row-major multiplication
table.  A degree-n cochain is a total table G^n -> Z_m, the value k standing
for the phase exp(2*pi*i*k/m); the group acts trivially on coefficients.
All arithmetic is exact.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, repeat
from math import lcm
from operator import mod

from .linalg import Matrix, solve_mod
from .values import Frozen, init_field, read_fields


class GroupTableError(ValueError):
    pass


class FiniteGroup(Frozen):
    """Finite group on indices 0..order-1 given by its multiplication table."""

    __slots__ = ("mul_table", "names", "name", "inv_table", "id")

    def __init__(self, mul_table: tuple[tuple[int, ...], ...], names: tuple[str, ...] = (), name: str = "G"):
        n = len(mul_table)
        if any(len(row) != n for row in mul_table):
            raise GroupTableError("mul table must be square")
        bad = [x for row in mul_table for x in row if type(x) is not int or not 0 <= x < n]
        if bad:
            raise GroupTableError(f"mul table entry {bad[0]!r} is not an element of range({n})")
        if not names:
            names = tuple(f"e{i}" for i in range(n))
        if len(names) != n:
            raise GroupTableError("names length mismatch")
        ident = None
        for e in range(n):
            if all(mul_table[e][a] == a == mul_table[a][e] for a in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupTableError("no two-sided identity")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if mul_table[a][b] == ident and mul_table[b][a] == ident:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise GroupTableError(f"element {a} has no inverse")
        for a, b, c in product(range(n), repeat=3):
            if mul_table[mul_table[a][b]][c] != mul_table[a][mul_table[b][c]]:
                raise GroupTableError(f"associativity fails at ({a},{b},{c})")
        init_field(self, "mul_table", mul_table)
        init_field(self, "names", names)
        init_field(self, "name", name)
        init_field(self, "inv_table", tuple(inv))
        init_field(self, "id", ident)

    @property
    def order(self) -> int:
        return len(self.mul_table)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def conj(self, a: int, b: int) -> int:
        """a b a^-1."""
        return self.mul(self.mul(a, b), self.inv(a))

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.conj(a, b), self.inv(b))

    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a) for a in self.elements() for b in self.elements()
        )

    def tuples(self, n: int):
        return product(self.elements(), repeat=n)

    # -- constructors -------------------------------------------------

    @staticmethod
    def cyclic(n: int, name: str | None = None) -> "FiniteGroup":
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return FiniteGroup(table, tuple(str(i) for i in range(n)), name or f"Z{n}")

    @staticmethod
    def trivial() -> "FiniteGroup":
        return FiniteGroup(((0,),), ("1",), "1")

    @staticmethod
    def direct_product(g1: "FiniteGroup", g2: "FiniteGroup", name: str | None = None) -> "FiniteGroup":
        n2 = g2.order

        def enc(a, b):
            return a * n2 + b

        table = tuple(
            tuple(
                enc(g1.mul(a1, b1), g2.mul(a2, b2))
                for b1 in g1.elements()
                for b2 in g2.elements()
            )
            for a1 in g1.elements()
            for a2 in g2.elements()
        )
        names = tuple(
            f"{g1.names[a]},{g2.names[b]}" for a in g1.elements() for b in g2.elements()
        )
        return FiniteGroup(table, names, name or f"{g1.name}x{g2.name}")

    @staticmethod
    def from_json(obj: dict, path: str = "group") -> "FiniteGroup":
        read_fields(obj, path, {"order": int, "mul": list}, {"names": list, "name": str})
        order = obj["order"]
        flat = obj["mul"]
        if len(flat) != order * order:
            raise GroupTableError("mul table length != order^2")
        table = tuple(tuple(flat[i * order : (i + 1) * order]) for i in range(order))
        names = tuple(obj.get("names", ()))
        # names key the entries of a report's cochains, joined with ",";
        # the keys stay distinct when every name has as many commas as the
        # first (Klein's "0,1" has one), as a key then splits into equal runs
        if any(type(s) is not str for s in names) or len(set(names)) < len(names):
            raise GroupTableError("element names must be distinct strings")
        for s in names:
            if s.count(",") != names[0].count(","):
                raise GroupTableError(f"element names {names[0]!r} and {s!r} differ in their number of ','"
                                      ", which joins names in report keys")
        return FiniteGroup(table, names, obj.get("name", "G"))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "mul": [x for row in self.mul_table for x in row],
            "names": list(self.names),
            "name": self.name,
        }


def klein_four() -> FiniteGroup:
    """Z2 x Z2 with element (g1, g2) encoded as g1*2 + g2."""
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2), name="Z2xZ2")
    return g


def klein_bits(e: int) -> tuple[int, int]:
    """Decode klein_four index into (g1, g2)."""
    return e >> 1, e & 1


class GroupHom(Frozen):
    __slots__ = ("source", "target", "map")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, map: tuple[int, ...]):
        if len(map) != source.order:
            raise GroupTableError("hom table length mismatch")
        init_field(self, "source", source)
        init_field(self, "target", target)
        init_field(self, "map", map)

    def __call__(self, a: int) -> int:
        return self.map[a]

    def is_valid(self) -> bool:
        s, t = self.source, self.target
        if self.map[s.id] != t.id:
            return False
        return all(
            self.map[s.mul(a, b)] == t.mul(self.map[a], self.map[b])
            for a in s.elements()
            for b in s.elements()
        )

    def validate(self):
        if not self.is_valid():
            raise GroupTableError("table is not a homomorphism")

    @staticmethod
    def identity(g: FiniteGroup) -> "GroupHom":
        return GroupHom(g, g, tuple(g.elements()))

    @staticmethod
    def trivial(source: FiniteGroup, target: FiniteGroup) -> "GroupHom":
        return GroupHom(source, target, tuple(target.id for _ in source.elements()))


# -- subgroups and quotients ------------------------------------------


def is_normal(g: FiniteGroup, sub: list[int]) -> bool:
    s = set(sub)
    return all(g.conj(a, h) in s for a in g.elements() for h in sub)


def subgroup_as_group(g: FiniteGroup, sub: list[int], name: str = "H") -> tuple[FiniteGroup, dict[int, int]]:
    """The subgroup as its own FiniteGroup plus the index-in-parent map."""
    index = {e: i for i, e in enumerate(sub)}
    table = tuple(tuple(index[g.mul(a, b)] for b in sub) for a in sub)
    names = tuple(g.names[e] for e in sub)
    return FiniteGroup(table, names, name), index


def quotient_group(g: FiniteGroup, normal_sub: list[int], name: str = "Q") -> tuple[FiniteGroup, tuple[int, ...]]:
    """(G / N, projection table) for a normal subgroup given as element list."""
    if not is_normal(g, normal_sub):
        raise GroupTableError("subgroup is not normal")
    nset = set(normal_sub)
    coset_of = [None] * g.order
    reps: list[int] = []
    for a in g.elements():
        if coset_of[a] is not None:
            continue
        idx = len(reps)
        reps.append(a)
        for h in nset:
            coset_of[g.mul(a, h)] = idx
    table = tuple(tuple(coset_of[g.mul(reps[i], reps[j])] for j in range(len(reps))) for i in range(len(reps)))
    names = tuple(f"[{g.names[r]}]" for r in reps)
    return FiniteGroup(table, names, name), tuple(coset_of)


# -- cochains -----------------------------------------------------------


class Cochain(Frozen):
    """Total table G^n -> Z_m (value k means exp(2*pi*i*k/m))."""

    __slots__ = ("group", "degree", "modulus", "values")

    def __init__(self, group: FiniteGroup, degree: int, modulus: int, values: tuple[int, ...]):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if len(values) != group.order**degree:
            raise ValueError("value table has wrong size")
        init_field(self, "group", group)
        init_field(self, "degree", degree)
        init_field(self, "modulus", modulus)
        init_field(self, "values", tuple([v % modulus for v in values]))

    # indexing
    def _idx(self, args: tuple[int, ...]) -> int:
        i = 0
        for a in args:
            i = i * self.group.order + a
        return i

    def __call__(self, *args: int) -> int:
        if len(args) != self.degree:
            raise ValueError("wrong arity")
        return self.values[self._idx(args)]

    @staticmethod
    def constant(group: FiniteGroup, degree: int, modulus: int = 2, value: int = 0) -> "Cochain":
        return Cochain(group, degree, modulus, (value,) * group.order**degree)

    @staticmethod
    def from_function(group: FiniteGroup, degree: int, modulus: int, fn) -> "Cochain":
        vals = [fn(*args) % modulus for args in group.tuples(degree)]
        return Cochain(group, degree, modulus, tuple(vals))

    def mul(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        m = lcm(self.modulus, other.modulus)
        a, b = m // self.modulus, m // other.modulus
        return Cochain(
            self.group, self.degree, m,
            tuple([x * a + y * b for x, y in zip(self.values, other.values)]),
        )

    def inverse(self) -> "Cochain":
        return Cochain(self.group, self.degree, self.modulus, tuple([-v for v in self.values]))

    def with_modulus(self, m: int) -> "Cochain":
        if m % self.modulus:
            raise ValueError("new modulus must be a multiple")
        k = m // self.modulus
        return Cochain(self.group, self.degree, m, tuple(v * k for v in self.values))

    def _check_compatible(self, other: "Cochain"):
        if self.group is not other.group and self.group != other.group:
            raise ValueError("cochains live on different groups")
        if self.degree != other.degree:
            raise ValueError("cochains have different degrees")

    def to_json(self) -> dict:
        # group.tuples and values are both in row-major order
        name = self.group.names.__getitem__
        keys = (",".join(map(name, args)) for args in self.group.tuples(self.degree))
        return {"degree": self.degree, "modulus": self.modulus, "values": dict(zip(keys, self.values))}


@lru_cache(maxsize=16)
def _face_table(mul: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Index in G^n of face i of every tuple of G^(n+1), one tuple per i,
    for G the group with multiplication table mul.

    The inhomogeneous differential is (delta c)(g_0..g_n) = sum_i (-1)^i
    c(face_i): face 0 drops g_0, face i merges g_(i-1) g_i, face n+1 drops
    g_n.  Tuples are in the row-major index order of Cochain.values.  Each
    face is assembled from slices of range(order^n), and the faces are
    cached per (multiplication table, n).
    """
    order = len(mul)
    base = list(range(order**n))
    size = order * len(base)
    faces = [base * order]
    for i in range(1, n + 1):
        # (prefix p, a, b, suffix s), p in G^(i-1) and s in G^(n-i), has index
        # p*step*order + (a*order + b)*suf + s; its face i, (p, ab, s), has
        # p*step + ab*suf + s
        pre, suf = order ** (i - 1), order ** (n - i)
        step = order * suf
        face = [0] * size
        for a, row in enumerate(mul):
            for b, ab in enumerate(row):
                at, to = (a * order + b) * suf, ab * suf
                if pre <= suf:  # one block of suffixes per prefix
                    for p in range(pre):
                        dst, src = p * step * order + at, p * step + to
                        face[dst : dst + suf] = base[src : src + suf]
                else:  # one stride over prefixes per suffix
                    for s in range(suf):
                        face[at + s :: step * order] = base[to + s :: step]
        faces.append(face)
    last = [0] * size
    for g in range(order):
        last[g::order] = base
    faces.append(last)
    return tuple(map(tuple, faces))


def _face_sums(c: Cochain) -> list[int]:
    """sum_i (-1)^i c(face_i) on every tuple of G^(n+1), not reduced mod m."""
    v = c.values
    faces = _face_table(c.group.mul_table, c.degree)
    # faces come in (+, -) pairs; n + 2 faces leave a last + face when n is odd
    total = [v[i] - v[j] for i, j in zip(faces[0], faces[1])]
    for plus, minus in zip(faces[2::2], faces[3::2]):
        total = [t + v[i] - v[j] for t, i, j in zip(total, plus, minus)]
    if len(faces) % 2:
        total = [t + v[i] for t, i in zip(total, faces[-1])]
    return total


def coboundary(c: Cochain) -> Cochain:
    """Inhomogeneous differential with trivial action on coefficients."""
    return Cochain(c.group, c.degree + 1, c.modulus, tuple(_face_sums(c)))


def is_cocycle(c: Cochain) -> bool:
    return not any(map(mod, _face_sums(c), repeat(c.modulus)))


def coboundary_matrix(group: FiniteGroup, n: int) -> Matrix:
    """Matrix of delta: C^{n-1} -> C^n in the index bases, as sparse columns.

    Entry (r, j) is the signed count of the faces of tuple r that are j.
    """
    faces = _face_table(group.mul_table, n - 1)
    columns: list[dict[int, int]] = [{} for _ in range(group.order ** (n - 1))]
    for i, face in enumerate(faces):
        sign = -1 if i % 2 else 1
        for r, j in enumerate(face):
            col = columns[j]
            col[r] = col.get(r, 0) + sign
    return Matrix(len(faces[0]), [{r: v for r, v in col.items() if v} for col in columns])


def coboundary_solve(c: Cochain) -> Cochain | None:
    """A cochain b with coboundary(b) = c, or None if c is not a coboundary.

    Rejects non-cocycle input.
    """
    if not is_cocycle(c):
        raise ValueError("input is not a cocycle")
    g, n, m = c.group, c.degree, c.modulus
    if n == 0:
        raise ValueError("degree-0 cochains have no coboundary predecessors")
    [x] = solve_mod(coboundary_matrix(g, n), [[v] for v in c.values], m)
    return None if x is None else Cochain(g, n - 1, m, tuple(x))


def cohomologous(c1: Cochain, c2: Cochain) -> bool:
    """True iff c1 * c2^-1 is a coboundary.  Both inputs must be cocycles."""
    c1._check_compatible(c2)
    m = lcm(c1.modulus, c2.modulus)
    diff = c1.with_modulus(m).mul(c2.with_modulus(m).inverse())
    return coboundary_solve(diff) is not None


def _is_normalized(c: Cochain) -> bool:
    """c is 0 on every tuple that contains the identity; only those tuples are read."""
    v, order, e = c.values, c.group.order, c.group.id
    for p in range(c.degree):
        # tuples with e in slot p: (prefix q, e, suffix s) at q*step + e*suf + s
        pre, suf = order**p, order ** (c.degree - 1 - p)
        step = order * suf
        if pre <= suf:
            blocks = (v[q * step + e * suf : q * step + (e + 1) * suf] for q in range(pre))
        else:
            blocks = (v[e * suf + s :: step] for s in range(suf))
        if any(map(any, blocks)):
            return False
    return True


def _shuffle_cycles(group: FiniteGroup, n: int) -> list[list[int]] | None:
    """The words of the shuffle products of the cycles [g_i|...|g_i] in G^n.

    None unless every element squares to the identity, that is unless
    G = Z2^k.  The basis g_1..g_k is read greedily from the table.  There is
    one cycle per exponent vector e with |e| = n, given as the indices in
    G^n of the distinct words in which each g_i occurs e_i times.
    """
    mul, e = group.mul_table, group.id
    if any(row[a] != e for a, row in enumerate(mul)):
        return None
    basis, span = [], {e}
    for g in group.elements():
        if g not in span:
            basis.append(g)
            span |= {mul[s][g] for s in span}
    cycles: dict[tuple[int, ...], list[int]] = {}
    for word in product(range(len(basis)), repeat=n):
        i = 0
        for letter in word:
            i = i * group.order + basis[letter]
        cycles.setdefault(tuple(sorted(word)), []).append(i)
    return list(cycles.values())


def classify(c: Cochain, candidates: dict[str, Cochain] | None = None) -> tuple[bool, bool, tuple[str, ...]]:
    """(is_cocycle, trivial, names of the candidates c is cohomologous to).

    Names keep the order of `candidates`.  Candidates must share c's group,
    degree and modulus; one that is not closed matches nothing.  c is
    checked in full, once, and a non-closed c gives (False, False, ()).

    When the modulus is 2, G = Z2^k, and c and every candidate are
    normalized (0 on every tuple that contains the identity), no delta is
    built.  In a basis g_1..g_k of G, c's coordinate on an exponent vector e
    is the sum of c over the words in which each g_i occurs e_i times.  c is
    trivial iff every coordinate is 0, and a candidate matches iff it is
    closed and its coordinates equal c's.  The proof works over F2:

    1. [g|...|g] is a cycle of the normalized bar complex, because g g = e:
       its inner faces contain the identity and vanish, and its two outer
       faces are the same word and cancel.
    2. G is abelian, so shuffle products of cycles are cycles.  The shuffle
       product s_e of the cycles [g_i|...|g_i] of length e_i is the sum of
       the words above.  With x_1..x_k the dual basis of Hom(G, F2), the cup
       monomial x^f = x_1^f_1 ... x_k^f_k is 1 on a word exactly when the
       word is (g_1 f_1 times, ..., g_k f_k times).  That word occurs in
       s_e iff f = e, so <x^f, s_e> is the identity matrix.
    3. Over a field the pairing H^n x H_n -> F2 is perfect.  Normalized
       cochains compute the same H^n as all cochains, and the monomials of
       degree n are a basis of H^n(Z2^k; F2) = F2[x_1..x_k] (Kuenneth).  So
       the s_e form the dual basis of H_n, and a normalized cocycle is a
       coboundary iff it pairs to 0 with every s_e.

    See Adem-Milgram, Cohomology of Finite Groups, ch. II, and Chen-Gu-Liu-
    Wen, arXiv:1106.4772.  Every other input is solved: delta is built once
    as sparse columns, and c and every c * rep^-1 are solved together, one
    right-hand side per column, in one elimination per prime power of the
    modulus.
    """
    candidates = candidates or {}
    for rep in candidates.values():
        c._check_compatible(rep)
        if rep.modulus != c.modulus:
            raise ValueError(f"candidate modulus {rep.modulus} differs from the cochain's {c.modulus}")
    if not is_cocycle(c):
        return False, False, ()
    if c.degree == 0:
        raise ValueError("degree-0 cochains have no coboundary predecessors")
    cycles = _shuffle_cycles(c.group, c.degree) if c.modulus == 2 else None
    if cycles is not None and all(map(_is_normalized, (c, *candidates.values()))):

        def coordinates(x: Cochain) -> list[int]:
            return [sum(map(x.values.__getitem__, cycle)) & 1 for cycle in cycles]

        mine = coordinates(c)
        names = tuple(
            name for name, rep in candidates.items() if coordinates(rep) == mine and is_cocycle(rep)
        )
        return True, not any(mine), names
    rhs = [c.values] + [c.mul(rep.inverse()).values for rep in candidates.values()]
    solved = solve_mod(coboundary_matrix(c.group, c.degree), list(zip(*rhs)), c.modulus)
    names = tuple(name for name, x in zip(candidates, solved[1:]) if x is not None)
    return True, solved[0] is not None, names


def is_sign_homomorphism(a: Cochain) -> bool:
    """True iff a is a 1-cochain valued in {+-1} with a(gh) = a(g)a(h)."""
    if a.degree != 1:
        return False
    if a.modulus not in (1, 2):
        return False
    g = a.group
    return all(
        (a(g.mul(x, y)) - a(x) - a(y)) % 2 == 0 if a.modulus == 2 else a(g.mul(x, y)) == 0
        for x in g.elements()
        for y in g.elements()
    )


def cup_1cocycles(factors: list[Cochain]) -> Cochain:
    """(a1 cup ... cup an)(g1..gn) = prod a_i(g_i) for sign-valued 1-cocycles.

    The values multiply as bits of the coefficient field F2 (the ring
    structure), so the output phase is -1 exactly when every factor is -1
    on its slot.
    """
    if not factors:
        raise ValueError("need at least one factor")
    g = factors[0].group
    for a in factors:
        if a.group != g:
            raise ValueError("factors live on different groups")
        if not is_sign_homomorphism(a):
            raise ValueError("cup factors must be {+-1}-valued 1-cocycles")
    n = len(factors)

    def val(*args: int) -> int:
        return int(all(a.modulus == 2 and a(x) for a, x in zip(factors, args)))

    return Cochain.from_function(g, n, 2, val)


def pullback(c: Cochain, f: GroupHom) -> Cochain:
    """(f^* c)(g1..gn) = c(f(g1)..f(gn))."""
    if f.target != c.group:
        raise ValueError("hom target must be the cochain's group")
    return Cochain.from_function(
        f.source, c.degree, c.modulus, lambda *args: c(*(f(a) for a in args))
    )


# -- builtin class representatives -------------------------------------


def projection_sign_cocycle(group: FiniteGroup, bit: int) -> Cochain:
    """For klein_four: the {+-1}-valued projection onto bit 0 (a) or 1 (b)."""
    def val(x):
        g1, g2 = klein_bits(x)
        return g1 if bit == 0 else g2

    return Cochain.from_function(group, 1, 2, val)


def builtin_class_candidates(group: FiniteGroup, degree: int) -> dict[str, Cochain]:
    """Named cocycle representatives used for class identification."""
    out = {"trivial": Cochain.constant(group, degree, 2)}
    if group.order == 4 and degree == 4 and set(group.names) == {"0,0", "0,1", "1,0", "1,1"}:
        a = projection_sign_cocycle(group, 0)
        b = projection_sign_cocycle(group, 1)
        out["b^3 . a"] = cup_1cocycles([b, b, b, a])
        out["a^3 . b"] = cup_1cocycles([a, a, a, b])
        out["a^3.b * b^3.a"] = out["b^3 . a"].mul(out["a^3 . b"])
    if group.order == 2 and degree == 3:
        a = Cochain.from_function(group, 1, 2, lambda x: x)
        out["a^3"] = cup_1cocycles([a, a, a])
    return out
