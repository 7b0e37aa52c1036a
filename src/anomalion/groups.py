"""Finite groups and inhomogeneous cochains with roots-of-unity coefficients.

Elements of a group are indices 0..order-1 with a row-major multiplication
table.  A degree-n cochain is a total table G^n -> Z_m, the value k standing
for the phase exp(2*pi*i*k/m); the group acts trivially on coefficients.
All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd, lcm

import numpy as np

from .linalg import solve_mod


class GroupTableError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group on indices 0..order-1 given by its multiplication table."""

    mul_table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()
    name: str = "G"
    inv_table: tuple[int, ...] = field(init=False, repr=False)
    id: int = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.mul_table)
        if any(len(row) != n for row in self.mul_table):
            raise GroupTableError("mul table must be square")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"e{i}" for i in range(n)))
        if len(self.names) != n:
            raise GroupTableError("names length mismatch")
        ident = None
        for e in range(n):
            if all(self.mul_table[e][a] == a == self.mul_table[a][e] for a in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupTableError("no two-sided identity")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.mul_table[a][b] == ident and self.mul_table[b][a] == ident:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise GroupTableError(f"element {a} has no inverse")
        for a, b, c in product(range(n), repeat=3):
            if self.mul_table[self.mul_table[a][b]][c] != self.mul_table[a][self.mul_table[b][c]]:
                raise GroupTableError(f"associativity fails at ({a},{b},{c})")
        object.__setattr__(self, "inv_table", tuple(inv))
        object.__setattr__(self, "id", ident)

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
    def from_json(obj: dict) -> "FiniteGroup":
        order = obj["order"]
        flat = obj["mul"]
        if len(flat) != order * order:
            raise GroupTableError("mul table length != order^2")
        table = tuple(tuple(flat[i * order : (i + 1) * order]) for i in range(order))
        names = tuple(obj.get("names", ())) or ()
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


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source.order:
            raise GroupTableError("hom table length mismatch")

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


def subgroup_closure(g: FiniteGroup, gens) -> list[int]:
    """Sorted element list of the subgroup generated by gens."""
    seen = {g.id}
    frontier = [g.id]
    gens = list(gens)
    while frontier:
        a = frontier.pop()
        for s in gens:
            for b in (g.mul(a, s), g.mul(s, a)):
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
    # close under products of found elements (gens may not include inverses)
    changed = True
    while changed:
        changed = False
        for a in list(seen):
            for b in list(seen):
                c = g.mul(a, b)
                if c not in seen:
                    seen.add(c)
                    changed = True
    return sorted(seen)


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


# -- phases ------------------------------------------------------------


@dataclass(frozen=True)
class PhaseValue:
    """exp(2*pi*i*numerator/modulus), stored in lowest terms."""

    numerator: int
    modulus: int

    def __post_init__(self):
        m = self.modulus
        if m <= 0:
            raise ValueError("modulus must be positive")
        n = self.numerator % m
        g = gcd(n, m) if n else m
        object.__setattr__(self, "numerator", n // g if n else 0)
        object.__setattr__(self, "modulus", m // g if n else 1)

    @staticmethod
    def one() -> "PhaseValue":
        return PhaseValue(0, 1)

    @staticmethod
    def minus_one() -> "PhaseValue":
        return PhaseValue(1, 2)

    def as_sign(self) -> int:
        if self == PhaseValue.one():
            return 1
        if self == PhaseValue.minus_one():
            return -1
        raise ValueError(f"{self} is not a sign")

    def __mul__(self, other: "PhaseValue") -> "PhaseValue":
        m = lcm(self.modulus, other.modulus)
        return PhaseValue(self.numerator * (m // self.modulus) + other.numerator * (m // other.modulus), m)

    def inverse(self) -> "PhaseValue":
        return PhaseValue(-self.numerator, self.modulus)

    def __repr__(self):
        if self.modulus == 1:
            return "+1"
        if self.modulus == 2:
            return "-1"
        return f"exp(2pi*i*{self.numerator}/{self.modulus})"


# -- cochains -----------------------------------------------------------


@dataclass(frozen=True)
class Cochain:
    """Total table G^n -> Z_m (value k means exp(2*pi*i*k/m))."""

    group: FiniteGroup
    degree: int
    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        if len(self.values) != self.group.order**self.degree:
            raise ValueError("value table has wrong size")
        object.__setattr__(self, "values", tuple(v % self.modulus for v in self.values))

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

    def phase(self, *args: int) -> PhaseValue:
        return PhaseValue(self(*args), self.modulus)

    @staticmethod
    def constant(group: FiniteGroup, degree: int, modulus: int = 2, value: int = 0) -> "Cochain":
        return Cochain(group, degree, modulus, (value,) * group.order**degree)

    @staticmethod
    def from_function(group: FiniteGroup, degree: int, modulus: int, fn) -> "Cochain":
        vals = [fn(*args) % modulus for args in group.tuples(degree)]
        return Cochain(group, degree, modulus, tuple(vals))

    def is_identically_one(self) -> bool:
        return not any(self.values)

    def mul(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        m = lcm(self.modulus, other.modulus)
        a, b = m // self.modulus, m // other.modulus
        return Cochain(
            self.group, self.degree, m,
            tuple(x * a + y * b for x, y in zip(self.values, other.values)),
        )

    def inverse(self) -> "Cochain":
        return Cochain(self.group, self.degree, self.modulus, tuple(-v for v in self.values))

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
        names = self.group.names
        keyed = {}
        for args in self.group.tuples(self.degree):
            key = ",".join(names[a] for a in args) if args else ""
            keyed[key] = self.values[self._idx(args)]
        return {"degree": self.degree, "modulus": self.modulus, "values": keyed}


def _faces(group: FiniteGroup, n: int) -> np.ndarray:
    """Index in G^n of face i of every tuple of G^(n+1), one row per i.

    The inhomogeneous differential is (delta c)(g_0..g_n) = sum_i (-1)^i
    c(face_i): face 0 drops g_0, face i merges g_(i-1) g_i, face n+1 drops
    g_n.  Tuples are in the row-major index order of Cochain.values.
    """
    order = group.order
    args = np.indices((order,) * (n + 1)).reshape(n + 1, -1)
    mul = np.asarray(group.mul_table, dtype=np.int64)

    def idx(entries) -> np.ndarray:
        i = np.zeros(args.shape[1], dtype=np.int64)
        for a in entries:
            i = i * order + a
        return i

    merged = [idx([*args[: i - 1], mul[args[i - 1], args[i]], *args[i + 1 :]]) for i in range(1, n + 1)]
    return np.stack([idx(args[1:]), *merged, idx(args[:n])])


def coboundary(c: Cochain) -> Cochain:
    """Inhomogeneous differential with trivial action on coefficients."""
    values = np.asarray(c.values, dtype=np.int64)
    faces = _faces(c.group, c.degree)
    total = sum((-1) ** i * values[f] for i, f in enumerate(faces))
    return Cochain(c.group, c.degree + 1, c.modulus, tuple(total.tolist()))


def is_cocycle(c: Cochain) -> bool:
    return coboundary(c).is_identically_one()


def coboundary_matrix(group: FiniteGroup, n: int) -> np.ndarray:
    """Matrix of delta: C^{n-1} -> C^n in the index bases.

    int8: an entry sums at most n + 1 signs.
    """
    faces = _faces(group, n - 1)
    A = np.zeros((faces.shape[1], group.order ** (n - 1)), dtype=np.int8)
    rows = np.arange(faces.shape[1])
    for i, f in enumerate(faces):
        np.add.at(A, (rows, f), (-1) ** i)
    return A


def coboundary_solve(c: Cochain) -> Cochain | None:
    """A cochain b with coboundary(b) = c, or None if c is not a coboundary.

    Rejects non-cocycle input.
    """
    if not is_cocycle(c):
        raise ValueError("input is not a cocycle")
    g, n, m = c.group, c.degree, c.modulus
    if n == 0:
        raise ValueError("degree-0 cochains have no coboundary predecessors")
    [x] = solve_mod(coboundary_matrix(g, n), np.reshape(c.values, (-1, 1)), m)
    return None if x is None else Cochain(g, n - 1, m, tuple(x.tolist()))


def cohomologous(c1: Cochain, c2: Cochain) -> bool:
    """True iff c1 * c2^-1 is a coboundary.  Both inputs must be cocycles."""
    c1._check_compatible(c2)
    m = lcm(c1.modulus, c2.modulus)
    diff = c1.with_modulus(m).mul(c2.with_modulus(m).inverse())
    return coboundary_solve(diff) is not None


def classify(c: Cochain, candidates: dict[str, Cochain] | None = None) -> tuple[bool, bool, tuple[str, ...]]:
    """(is_cocycle, trivial, names of the candidates c is cohomologous to).

    Names keep the order of `candidates`.  c is checked once, delta is built
    once, and c and every c * rep^-1 are solved in one elimination, one
    right-hand side per column.  Candidates must share c's group, degree and
    modulus; one that is not closed matches nothing, since c * rep^-1 is
    then not closed either.  A non-closed c gives (False, False, ()).
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
    rhs = [c.values] + [c.mul(rep.inverse()).values for rep in candidates.values()]
    solved = solve_mod(coboundary_matrix(c.group, c.degree), np.transpose(rhs), c.modulus)
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
