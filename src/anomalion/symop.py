"""Exact algebra of unitaries D_f * X_S on qubit lattice sites.

D_f is diagonal, |a> -> (-1)^(f(a)) |a>, with f a multilinear polynomial
over F2 stored as a set of monomials (each monomial a frozenset of sites;
the empty monomial is the global sign -1).  X_S flips the qubits in the
finite site set S.  The class is closed under products, inverses and
conjugation, which is what makes every computation here exact:

    (D_f X_S) (D_g X_T) = D_{f + g o sigma_S} X_{S xor T}

where sigma_S substitutes a_i -> a_i + 1 for i in S.  Substitution never
raises the degree of a monomial, so a degree cap on generators is a cap
on everything they generate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .groups import PhaseValue
from .lattice import Site

Monomial = frozenset  # frozenset[Site]

DEFAULT_MAX_DEGREE = 3


class DegreeError(ValueError):
    pass


def _subst_monomial(mono: Monomial, flips: frozenset) -> tuple[Monomial, ...]:
    """Expand a monomial under a_i -> a_i + 1 for i in flips."""
    hit = mono & flips
    if not hit:
        return (mono,)
    rest = mono - hit
    hit = tuple(sorted(hit))
    out = []
    for k in range(len(hit) + 1):
        for chosen in combinations(hit, k):
            out.append(rest | frozenset(chosen))
    return tuple(out)


def _poly_subst(poly: frozenset, flips: frozenset) -> frozenset:
    if not flips:
        return poly
    acc = set()
    for mono in poly:
        for m in _subst_monomial(mono, flips):
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return frozenset(acc)


@dataclass(frozen=True)
class SymOp:
    """The unitary D_poly * X_flips."""

    poly: frozenset = frozenset()
    flips: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "poly", frozenset(frozenset(m) for m in self.poly))
        object.__setattr__(self, "flips", frozenset(self.flips))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity() -> "SymOp":
        return SymOp()

    @staticmethod
    def scalar(sign: int) -> "SymOp":
        if sign == 1:
            return SymOp()
        if sign == -1:
            return SymOp(frozenset([frozenset()]))
        raise ValueError("sign must be +-1")

    @staticmethod
    def diagonal(monomials, max_degree: int = DEFAULT_MAX_DEGREE) -> "SymOp":
        poly = frozenset(frozenset(m) for m in monomials)
        for m in poly:
            if len(m) > max_degree:
                raise DegreeError(f"monomial degree {len(m)} exceeds cap {max_degree}")
        return SymOp(poly)

    @staticmethod
    def z(site: Site) -> "SymOp":
        return SymOp(frozenset([frozenset([site])]))

    @staticmethod
    def cz(s1: Site, s2: Site) -> "SymOp":
        if s1 == s2:
            raise ValueError("CZ needs two distinct sites")
        return SymOp(frozenset([frozenset([s1, s2])]))

    @staticmethod
    def ccz(s1: Site, s2: Site, s3: Site) -> "SymOp":
        sites = frozenset([s1, s2, s3])
        if len(sites) != 3:
            raise ValueError("CCZ needs three distinct sites")
        return SymOp(frozenset([sites]))

    @staticmethod
    def x(site: Site) -> "SymOp":
        return SymOp(frozenset(), frozenset([site]))

    @staticmethod
    def x_string(sites) -> "SymOp":
        acc = frozenset()
        for s in sites:
            acc = acc ^ frozenset([s])
        return SymOp(frozenset(), acc)

    # -- structure ------------------------------------------------------

    def degree(self) -> int:
        return max((len(m) for m in self.poly), default=0)

    def is_identity(self) -> bool:
        return not self.poly and not self.flips

    def is_diagonal(self) -> bool:
        return not self.flips

    def __repr__(self):
        return format_op(self)


def op_mul(a: SymOp, b: SymOp) -> SymOp:
    """Operator product (D_fa X_Sa)(D_fb X_Sb)."""
    return SymOp(a.poly ^ _poly_subst(b.poly, a.flips), a.flips ^ b.flips)


def op_product(ops) -> SymOp:
    acc = SymOp.identity()
    for o in ops:
        acc = op_mul(acc, o)
    return acc


def op_inv(a: SymOp) -> SymOp:
    """Inverse: (f o sigma_S, S)."""
    return SymOp(_poly_subst(a.poly, a.flips), a.flips)


def op_conj(a: SymOp, by: SymOp) -> SymOp:
    """by * a * by^-1."""
    return op_mul(op_mul(by, a), op_inv(by))


def commutator(a: SymOp, b: SymOp) -> SymOp:
    """a b a^-1 b^-1."""
    return op_mul(op_mul(a, b), op_mul(op_inv(a), op_inv(b)))


def ops_commute(a: SymOp, b: SymOp) -> bool:
    return commutator(a, b).is_identity()


def support(a: SymOp) -> frozenset:
    s = set(a.flips)
    for m in a.poly:
        s |= m
    return frozenset(s)


def scalar_phase(a: SymOp) -> PhaseValue | None:
    """The phase of a if it is scalar (empty support), else None."""
    if support(a):
        return None
    return PhaseValue.minus_one() if frozenset() in a.poly else PhaseValue.one()


def constant_term(a: SymOp) -> int:
    """f(0), i.e. 1 if the empty monomial is present else 0."""
    return 1 if frozenset() in a.poly else 0


# -- reference states and expectations ----------------------------------


@dataclass(frozen=True)
class ReferenceState:
    """Product state: each site holds |0> (basis 'z') or |+> (basis 'x').

    The default, all-'z', is the all-zeros state.  Shifted or sign-flipped
    product states are reached by dressing with X / Z circuits.
    """

    default_basis: str = "z"
    overrides: frozenset = frozenset()  # frozenset[(Site, basis)]

    def __post_init__(self):
        if self.default_basis not in ("z", "x"):
            raise ValueError("basis must be 'z' or 'x'")

    def basis_at(self, site: Site) -> str:
        for s, b in self.overrides:
            if s == site:
                return b
        return self.default_basis


ALL_ZEROS = ReferenceState("z")
ALL_PLUS = ReferenceState("x")


def expectation_value(a: SymOp, state: ReferenceState = ALL_ZEROS) -> Fraction:
    """<state| a |state>, exact.

    For the all-zeros state this is 0 when a flips anything and
    (-1)^f(0) otherwise.  x-basis sites average the diagonal over their
    assignments, which can produce non-unit dyadic values for generic
    operators; pipeline checks assert unit modulus where required.
    """
    zflips = [s for s in a.flips if state.basis_at(s) == "z"]
    if zflips:
        return Fraction(0)
    # variables on x-sites survive; z-site variables are pinned to 0
    reduced = set()
    for mono in a.poly:
        if any(state.basis_at(s) == "z" for s in mono):
            continue  # a factor a_j with a_j = 0
        if mono in reduced:
            reduced.discard(mono)
        else:
            reduced.add(mono)
    var_sites = sorted({s for m in reduced for s in m})
    if not var_sites:
        return Fraction(-1 if frozenset() in reduced else 1)
    if len(var_sites) > 22:
        raise ValueError("expectation over too many free x-basis sites")
    const = 1 if frozenset() in reduced else 0
    monos = [m for m in reduced if m]
    index = {s: i for i, s in enumerate(var_sites)}
    total = 0
    for bits in range(1 << len(var_sites)):
        val = const
        for m in monos:
            if all(bits >> index[s] & 1 for s in m):
                val ^= 1
        total += -1 if val else 1
    return Fraction(total, 1 << len(var_sites))


def expectation_product_state(a: SymOp, dressing=None, state: ReferenceState = ALL_ZEROS) -> Fraction:
    """omega(a) for omega = omega_0 o alpha, alpha the dressing circuit."""
    if dressing is not None:
        from .circuits import conj_by_circuit

        a = conj_by_circuit(a, dressing)
    return expectation_value(a, state)


# -- textual form --------------------------------------------------------


def _site_str(s: Site) -> str:
    return f"({s[0]},{s[1]})"


def format_op(a: SymOp) -> str:
    """Round-trip textual form, e.g. '-1 * Z(0,0) * CZ((1,0),(2,0)) * X(3,0)'."""
    parts = []
    if frozenset() in a.poly:
        parts.append("-1")
    by_deg = sorted((m for m in a.poly if m), key=lambda m: (len(m), sorted(m)))
    names = {1: "Z", 2: "CZ", 3: "CCZ"}
    for m in by_deg:
        sites = sorted(m)
        name = names.get(len(m), f"D{len(m)}")
        if len(m) == 1:
            parts.append(f"{name}{_site_str(sites[0])}")
        else:
            parts.append(f"{name}({','.join(_site_str(s) for s in sites)})")
    for s in sorted(a.flips):
        parts.append(f"X{_site_str(s)}")
    return " * ".join(parts) if parts else "1"


_SITE_RE = re.compile(r"\((-?\d+),(-?\d+)\)")


def parse_op(text: str) -> SymOp:
    """Inverse of format_op."""
    poly = set()
    flips = set()
    for raw in text.split("*"):
        token = raw.strip()
        if token == "1":
            continue
        if token == "-1":
            poly.add(frozenset())
            continue
        m = re.match(r"^([A-Z]+\d*)\s*(\(.*\))$", token)
        if not m:
            raise ValueError(f"cannot parse factor {token!r}")
        name, rest = m.group(1), m.group(2)
        sites = [(int(x), int(y)) for x, y in _SITE_RE.findall(rest)]
        if not sites:
            raise ValueError(f"no sites in factor {token!r}")
        if name == "X":
            if len(sites) != 1:
                raise ValueError("X takes one site")
            flips ^= {sites[0]}
        elif name in ("Z", "CZ", "CCZ") or name.startswith("D"):
            mono = frozenset(sites)
            poly ^= {mono}
        else:
            raise ValueError(f"unknown factor {name!r}")
    return SymOp(frozenset(poly), frozenset(flips))
