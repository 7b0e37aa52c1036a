"""Exact algebra of unitaries D_f * X_S on qubit lattice sites.

D_f is diagonal, |a> -> (-1)^(f(a)) |a>, with f a multilinear polynomial
over F2 stored as a set of monomials (the empty monomial is the global
sign -1).  X_S flips the qubits in the finite site set S.  The class is
closed under products, inverses and conjugation, which is what makes every
computation here exact:

    (D_f X_S) (D_g X_T) = D_{f + g o sigma_S} X_{S xor T}

where sigma_S substitutes a_i -> a_i + 1 for i in S.  Substitution never
raises the degree of a monomial, so a degree cap on generators is a cap
on everything they generate.

Conjugation and commutators have closed forms that build no intermediate
operator.  Write a = D_g X_T, b = D_f X_S and Delta_T f = f + f o sigma_T,
to which only the monomials of f meeting T contribute.  Then

    b a b^-1      = D_{g o sigma_S + Delta_T f} X_T
    a b a^-1 b^-1 = D_{Delta_S g + Delta_T f} = b a b^-1 a^-1
    a, b commute  <=>  Delta_S g = Delta_T f

The first is D_f X_S D_g X_T D_{f o sigma_S} X_S with each X moved right
(X_S D_g = D_{g o sigma_S} X_S and sigma_S sigma_T = sigma_{S xor T}), which
gives D_{f + g o sigma_S + f o sigma_T} X_T.  Times a^-1 = D_{g o sigma_T} X_T
it gives b a b^-1 a^-1 = D_{g o sigma_S + Delta_T f + g}, the second, which
is symmetric in a and b; so conjugation is b a b^-1 = [b, a] a.  The third
is the second equal to 1.

Operators are bit-packed.  An append-only interner gives every site one
bit on first use, so a site set is an int mask: a monomial is the mask of
its sites, f a frozenset of masks and S one mask, and sigma_S expands a
monomial m over the submasks of m & S.  Products and inverses stay packed
from end to end.  A region or window is tested as a mask too: region_mask
gives the mask of the interned sites it contains, so a support lies in it
when support_mask & ~region_mask is zero.  Sites are decoded only at the
boundary: the SymOp(poly, flips) constructor and the .poly / .flips
properties take and return site sets, support returns one, format_op
prints sites, and sites_outside decodes the offending sites for an error.

Bits are handed out in first-use order, which differs between runs that
build operators in a different order.  No result may depend on it: every
listing of sites or monomials sorts by site, never by mask or by the
iteration order of a packed set.  A region mask is cached with the
number of sites it covers and extended as the interner grows.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .lattice import Site
from .values import Frozen, init_field

# -- the site interner -----------------------------------------------------

_SITES: list[Site] = []  # bit position -> site
_BITS: dict[Site, int] = {}  # site -> its one-bit mask


def _bit(site: Site) -> int:
    bit = _BITS.get(site)
    if bit is None:
        bit = _BITS[site] = 1 << len(_SITES)
        _SITES.append(site)
    return bit


def _mask(sites) -> int:
    m = 0
    for s in sites:
        m |= _bit(s)
    return m


def _sites(mask: int) -> list[Site]:
    """The sites of a mask, in bit order (callers sort)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(_SITES[low.bit_length() - 1])
        mask ^= low
    return out


def _toggle_delta(out: set, poly, flips: int) -> set:
    """XOR Delta_S f = f + f o sigma_S into out, for f = poly and S = flips.

    Only the monomials m meeting S contribute: m ^ c for every nonzero
    submask c of m & S.
    """
    if flips:
        for m in poly:
            hit = m & flips
            sub = hit
            while sub:
                t = m ^ sub
                if t in out:
                    out.remove(t)
                else:
                    out.add(t)
                sub = (sub - 1) & hit
    return out


def _poly_subst(poly: frozenset, flips: int) -> frozenset:
    """f o sigma_S = f + Delta_S f."""
    toggles = _toggle_delta(set(), poly, flips)
    return poly ^ toggles if toggles else poly


class SymOp:
    """The unitary D_poly * X_flips.

    Built from and read back as site sets: poly is a set of monomials, each
    a set of sites (the empty one is the sign -1), and flips a set of sites.
    """

    __slots__ = ("_poly", "_flips")

    def __init__(self, poly=frozenset(), flips=frozenset()):
        self._poly = frozenset(_mask(m) for m in poly)
        self._flips = _mask(flips)

    @property
    def poly(self) -> frozenset:
        return frozenset(frozenset(_sites(m)) for m in self._poly)

    @property
    def flips(self) -> frozenset:
        return frozenset(_sites(self._flips))

    def __eq__(self, other):
        if not isinstance(other, SymOp):
            return NotImplemented
        return self._flips == other._flips and self._poly == other._poly

    def __hash__(self):
        return hash((self._poly, self._flips))

    def __reduce__(self):
        # bits are private to this process's interner, so pickle the sites
        return SymOp, (self.poly, self.flips)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity() -> "SymOp":
        return _packed(_NO_MONOMIALS, 0)

    @staticmethod
    def scalar(sign: int) -> "SymOp":
        if sign == 1:
            return _packed(_NO_MONOMIALS, 0)
        if sign == -1:
            return _packed(_MINUS_ONE, 0)
        raise ValueError("sign must be +-1")

    @staticmethod
    def z(site: Site) -> "SymOp":
        return _packed(frozenset((_bit(site),)), 0)

    @staticmethod
    def cz(s1: Site, s2: Site) -> "SymOp":
        if s1 == s2:
            raise ValueError("CZ needs two distinct sites")
        return _packed(frozenset((_bit(s1) | _bit(s2),)), 0)

    @staticmethod
    def ccz(s1: Site, s2: Site, s3: Site) -> "SymOp":
        m = _bit(s1) | _bit(s2) | _bit(s3)
        if m.bit_count() != 3:
            raise ValueError("CCZ needs three distinct sites")
        return _packed(frozenset((m,)), 0)

    @staticmethod
    def x(site: Site) -> "SymOp":
        return _packed(_NO_MONOMIALS, _bit(site))

    # -- structure ------------------------------------------------------

    def degree(self) -> int:
        return max((m.bit_count() for m in self._poly), default=0)

    def is_identity(self) -> bool:
        return not self._poly and not self._flips

    def __repr__(self):
        return format_op(self)


_NO_MONOMIALS = frozenset()
_MINUS_ONE = frozenset((0,))
_new = object.__new__


def _packed(poly: frozenset, flips: int) -> SymOp:
    """The trusted constructor: poly a frozenset of masks, flips a mask."""
    op = _new(SymOp)
    op._poly = poly
    op._flips = flips
    return op


def op_mul(a: SymOp, b: SymOp) -> SymOp:
    """Operator product (D_fa X_Sa)(D_fb X_Sb)."""
    return _packed(a._poly ^ _poly_subst(b._poly, a._flips), a._flips ^ b._flips)


def op_product(ops) -> SymOp:
    """The product of ops in order, folded into one mutable monomial set:
    acc (D_g X_T) = D_{acc + g + Delta_F g} X_{F xor T}, F the flips so far."""
    poly: set = set()
    flips = 0
    for o in ops:
        poly ^= o._poly
        _toggle_delta(poly, o._poly, flips)
        flips ^= o._flips
    return _packed(frozenset(poly), flips)


def op_inv(a: SymOp) -> SymOp:
    """Inverse: (f o sigma_S, S)."""
    return _packed(_poly_subst(a._poly, a._flips), a._flips)


def _commutator_poly(a: SymOp, b: SymOp) -> set:
    """Delta_S g + Delta_T f for a = D_g X_T and b = D_f X_S (module docstring)."""
    return _toggle_delta(_toggle_delta(set(), a._poly, b._flips), b._poly, a._flips)


def op_conj(a: SymOp, by: SymOp) -> SymOp:
    """by * a * by^-1 = [by, a] a."""
    toggles = _commutator_poly(a, by)
    return _packed(a._poly ^ toggles if toggles else a._poly, a._flips)


def commutator(a: SymOp, b: SymOp) -> SymOp:
    """a b a^-1 b^-1, diagonal."""
    return _packed(frozenset(_commutator_poly(a, b)), 0)


def ops_commute(a: SymOp, b: SymOp) -> bool:
    return not _commutator_poly(a, b)


def support_mask(a: SymOp) -> int:
    """The support of a as a mask of interned site bits."""
    return reduce(or_, a._poly, a._flips)


def support_masks(a: SymOp) -> tuple[int, int]:
    """The sites a's diagonal depends on and the sites a flips, as masks.

    D_f X_S and D_h X_T commute when supp(f) misses T and S misses supp(h).
    """
    return reduce(or_, a._poly, 0), a._flips


def support(a: SymOp) -> frozenset:
    return frozenset(_sites(support_mask(a)))


_REGION_MASKS: dict = {}  # region -> (mask, n): its mask over the first n sites


def region_mask(region) -> int:
    """The mask of the interned sites that region (a Region or Window) contains.

    Cached per region and extended as the interner grows; an entry covers
    the sites interned before it was stored.  Take it after the operators
    it is tested against exist.
    """
    mask, n = _REGION_MASKS.get(region, (0, 0))
    end = len(_SITES)
    if n < end:
        for i in range(n, end):
            if region.contains(_SITES[i]):
                mask |= 1 << i
        _REGION_MASKS[region] = (mask, end)
    return mask


def sites_outside(ops, region) -> list[Site]:
    """The sites of the supports of ops that region does not contain, sorted."""
    return sorted(_sites(reduce(or_, map(support_mask, ops), 0) & ~region_mask(region)))


def scalar_phase(a: SymOp) -> int | None:
    """The phase of a as a Z2 residue if a is scalar (empty support): 0 for
    +1, 1 for -1; None otherwise."""
    if support_mask(a):
        return None
    return 1 if a._poly else 0


# -- reference states and expectations ----------------------------------


class ReferenceState(Frozen):
    """The uniform product state |0...0> (basis 'z') or |+...+> (basis 'x').

    Other product states are reached by dressing with X / Z circuits.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: str):
        if basis not in ("z", "x"):
            raise ValueError("basis must be 'z' or 'x'")
        init_field(self, "basis", basis)


ALL_ZEROS = ReferenceState("z")
ALL_PLUS = ReferenceState("x")


def expectation_phase(a: SymOp, state: ReferenceState = ALL_ZEROS) -> int | None:
    """<state| a |state> as a Z2 residue: 0 for +1, 1 for -1, None when it
    is not a phase.

    On all zeros it is a phase iff a flips nothing, and then (-1)^f(0),
    the sign of the constant monomial.  On all plus the flips fix the
    state, and the value is the average of (-1)^f over the assignments of
    f's variables, a phase iff f is constant.  A multilinear polynomial
    over F2 is determined by its monomials, so f is constant iff it has
    no monomial but the sign.
    """
    if a._flips if state.basis == "z" else any(a._poly):
        return None
    return 1 if 0 in a._poly else 0


# -- textual form --------------------------------------------------------


def _site_str(s: Site) -> str:
    return f"({s[0]},{s[1]})"


def format_op(a: SymOp) -> str:
    """Textual form, e.g. '-1 * Z(0,0) * CZ((1,0),(2,0)) * X(3,0)'."""
    parts = []
    poly = a.poly
    if frozenset() in poly:
        parts.append("-1")
    by_deg = sorted((m for m in poly if m), key=lambda m: (len(m), sorted(m)))
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
