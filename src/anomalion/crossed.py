"""Finite crossed modules, crossed squares and 2-crossed modules as tables.

Validators check every axiom on every tuple in a fixed order and return
the first 64 violations rather than raising, so an empty list means valid;
they stop checking at the 64th.  A crossed square yields a 2-crossed
module on the semidirect product K = M x| N (N acting through its image in
P), with the braiding built from the square's eta-pairing; homotopy groups
come out of the resulting normal complex.  The degree-3 class of a crossed
module is extracted from a section of N -> coker(bd) and a lift of its
failure, and weak-morphism data (rho~, mu) is validated against its two
defining equations, with the failure of the second reported as a
kernel-valued obstruction cocycle.  The change of mu under a regauging
(weak_morphism_regauge) is written once, over any group law.  The failure
has two forms: weak_morphism_failure takes any group law and serves the
operators (the 1d Nayak-Else index and the 2d lift u), and
weak_morphism_failure_table evaluates it over every triple of a finite table
in one pass (postnikov3, check_weak_morphism).
test_failure_table_matches_the_group_law_form pins the two equal.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import wraps
from itertools import islice, product

from .groups import (
    Cochain,
    FiniteGroup,
    GroupHom,
    is_cocycle,
    is_normal,
    quotient_group,
    subgroup_as_group,
)
from .pairing import run_identity_suite
from .values import Frozen, init_field

_MAX_VIOLATIONS = 64  # the violations a check returns at most


def _first_violations(check):
    """check, a generator of violations, as a function that returns the
    first _MAX_VIOLATIONS of them as a list and stops checking there (the
    annotations stay the generator's)."""
    @wraps(check)
    def first(*args) -> list[str]:
        return list(islice(check(*args), _MAX_VIOLATIONS))
    return first


class ActionTable(Frozen):
    """Action of group A on the set of elements of group B: act[a][b] -> b'."""

    __slots__ = ("acting", "on", "table")

    def __call__(self, a: int, b: int) -> int:
        return self.table[a][b]

    def violations(self, label: str = "act") -> Iterator[str]:
        A, B = self.acting, self.on
        for a in A.elements():
            row = self.table[a]
            if sorted(row) != list(B.elements()):
                yield f"{label}[{a}] is not a bijection"
                continue
            for b1 in B.elements():
                for b2 in B.elements():
                    if row[B.mul(b1, b2)] != B.mul(row[b1], row[b2]):
                        yield f"{label}[{a}] is not a homomorphism at ({b1},{b2})"
                        break
                else:
                    continue
                break
        for b in B.elements():
            if self.table[A.id][b] != b:
                yield f"{label}[id] moves {b}"
        for a1 in A.elements():
            for a2 in A.elements():
                a12 = A.mul(a1, a2)
                for b in B.elements():
                    if self.table[a12][b] != self.table[a1][self.table[a2][b]]:
                        yield f"{label} is not an action at ({a1},{a2},{b})"
                        break
                else:
                    continue
                break

    @staticmethod
    def trivial(acting: FiniteGroup, on: FiniteGroup) -> "ActionTable":
        return ActionTable(acting, on, tuple(tuple(on.elements()) for _ in acting.elements()))

    @staticmethod
    def conjugation(g: FiniteGroup) -> "ActionTable":
        return ActionTable(g, g, tuple(tuple(g.conj(a, b) for b in g.elements()) for a in g.elements()))


class CrossedModule(Frozen):
    """bd: M -> N with an N-action on M, equivariance and Peiffer identity."""

    __slots__ = ("M", "N", "bd", "act")

    def __init__(self, M: FiniteGroup, N: FiniteGroup, bd: GroupHom, act: ActionTable):
        # act is N acting on M
        if bd.source != M or bd.target != N:
            raise ValueError("bd must map M -> N")
        if act.acting != N or act.on != M:
            raise ValueError("act must be an N-action on M")
        init_field(self, "M", M)
        init_field(self, "N", N)
        init_field(self, "bd", bd)
        init_field(self, "act", act)


def _crossed_module_axioms(hom: GroupHom, act: ActionTable, label: str) -> Iterator[str]:
    """Equivariance hom(a.x) = a hom(x) a^-1 and the Peiffer identity
    hom(x0).x1 = x0 x1 x0^-1 of hom: X -> A with A acting on X by act."""
    X, A = hom.source, hom.target
    for a in A.elements():
        for x in X.elements():
            if hom(act(a, x)) != A.conj(a, hom(x)):
                yield f"crossed module {label}: equivariance fails at ({a},{x})"
    for x0 in X.elements():
        for x1 in X.elements():
            if act(hom(x0), x1) != X.conj(x0, x1):
                yield f"crossed module {label}: Peiffer fails at ({x0},{x1})"


@_first_violations
def validate_crossed_module(cm: CrossedModule) -> Iterator[str]:
    if not cm.bd.is_valid():
        yield "bd is not a homomorphism"
    yield from cm.act.violations("act")
    yield from _crossed_module_axioms(cm.bd, cm.act, "M->N")


class CrossedSquare(Frozen):
    """Commuting square (f: L->M, g: L->N, v: M->P, u: N->P) with P-actions
    on L, M, N and a pairing eta: M x N -> L, eta[m][n] in L."""

    __slots__ = ("L", "M", "N", "P", "f", "g", "v", "u", "act_L", "act_M", "act_N", "eta")

    def eta_at(self, m: int, n: int) -> int:
        return self.eta[m][n]


@_first_violations
def validate_crossed_square(cs: CrossedSquare) -> Iterator[str]:
    L, M, N, P = cs.L, cs.M, cs.N, cs.P
    f, g, v, u = cs.f, cs.g, cs.v, cs.u
    for hom, name in ((f, "f"), (g, "g"), (v, "v"), (u, "u")):
        if not hom.is_valid():
            yield f"{name} is not a homomorphism"
    for l in L.elements():
        if v(f(l)) != u(g(l)):
            yield f"square does not commute at l={l}"
    yield from cs.act_L.violations("P-action on L")
    yield from cs.act_M.violations("P-action on M")
    yield from cs.act_N.violations("P-action on N")
    for p in P.elements():
        for l in L.elements():
            if f(cs.act_L(p, l)) != cs.act_M(p, f(l)):
                yield f"f not P-equivariant at (p={p}, l={l})"
            if g(cs.act_L(p, l)) != cs.act_N(p, g(l)):
                yield f"g not P-equivariant at (p={p}, l={l})"
    # the four crossed-module structures over P
    vf = GroupHom(L, P, tuple(v(f(l)) for l in L.elements()))
    ug = GroupHom(L, P, tuple(u(g(l)) for l in L.elements()))
    yield from _crossed_module_axioms(v, cs.act_M, "M->P")
    yield from _crossed_module_axioms(u, cs.act_N, "N->P")
    yield from _crossed_module_axioms(vf, cs.act_L, "L->P(vf)")
    yield from _crossed_module_axioms(ug, cs.act_L, "L->P(ug)")
    # the seven eta equations
    eta = cs.eta_at
    for m in M.elements():
        for n in N.elements():
            lhs = f(eta(m, n))
            rhs = M.mul(m, M.inv(cs.act_M(u(n), m)))
            if lhs != rhs:
                yield f"eta eq f(eta(m,n)) fails at ({m},{n})"
            lhs = g(eta(m, n))
            rhs = N.mul(cs.act_N(v(m), n), N.inv(n))
            if lhs != rhs:
                yield f"eta eq g(eta(m,n)) fails at ({m},{n})"
    for l in L.elements():
        for n in N.elements():
            lhs = eta(f(l), n)
            rhs = L.mul(l, L.inv(cs.act_L(u(n), l)))
            if lhs != rhs:
                yield f"eta eq eta(f(l),n) fails at ({l},{n})"
        for m in M.elements():
            lhs = eta(m, g(l))
            rhs = L.mul(cs.act_L(v(m), l), L.inv(l))
            if lhs != rhs:
                yield f"eta eq eta(m,g(l)) fails at ({m},{l})"
    for m in M.elements():
        for m2 in M.elements():
            for n in N.elements():
                lhs = eta(M.mul(m, m2), n)
                rhs = L.mul(cs.act_L(v(m), eta(m2, n)), eta(m, n))
                if lhs != rhs:
                    yield f"eta eq eta(mm',n) fails at ({m},{m2},{n})"
    for m in M.elements():
        for n in N.elements():
            for n2 in N.elements():
                lhs = eta(m, N.mul(n, n2))
                rhs = L.mul(eta(m, n), cs.act_L(u(n), eta(m, n2)))
                if lhs != rhs:
                    yield f"eta eq eta(m,nn') fails at ({m},{n},{n2})"
    for p in P.elements():
        for m in M.elements():
            for n in N.elements():
                lhs = eta(cs.act_M(p, m), cs.act_N(p, n))
                rhs = cs.act_L(p, eta(m, n))
                if lhs != rhs:
                    yield f"eta eq p-equivariance fails at ({p},{m},{n})"


class TwoCrossedModule(Frozen):
    """Normal complex L -> K -> P with P-actions and a braiding K x K -> L,
    braid[k0][k1] in L."""

    __slots__ = ("L", "K", "P", "delta", "bd", "act_L", "act_K", "braid")

    def braid_at(self, k0: int, k1: int) -> int:
        return self.braid[k0][k1]


@_first_violations
def validate_two_crossed_module(t: TwoCrossedModule) -> Iterator[str]:
    L, K, P = t.L, t.K, t.P
    delta, bd = t.delta, t.bd
    if not delta.is_valid():
        yield "delta is not a homomorphism"
    if not bd.is_valid():
        yield "bd is not a homomorphism"
    for l in L.elements():
        if bd(delta(l)) != P.id:
            yield f"bd(delta(l)) != 1 at l={l}"
    if not is_normal(K, sorted(set(delta(l) for l in L.elements()))):
        yield "image of delta is not normal in K"
    if not is_normal(P, sorted(set(bd(k) for k in K.elements()))):
        yield "image of bd is not normal in P"
    yield from t.act_L.violations("P-action on L")
    yield from t.act_K.violations("P-action on K")
    for p in P.elements():
        for k in K.elements():
            if bd(t.act_K(p, k)) != P.conj(p, bd(k)):
                yield f"bd not P-equivariant at (p={p}, k={k})"
        for l in L.elements():
            if delta(t.act_L(p, l)) != t.act_K(p, delta(l)):
                yield f"delta not P-equivariant at (p={p}, l={l})"
    br = t.braid_at
    for k0 in K.elements():
        for k1 in K.elements():
            lhs = delta(br(k0, k1))
            rhs = K.mul(K.conj(k0, k1), K.inv(t.act_K(bd(k0), k1)))
            if lhs != rhs:
                yield f"braid eq delta{{k0,k1}} fails at ({k0},{k1})"
    for l0 in L.elements():
        for l1 in L.elements():
            if br(delta(l0), delta(l1)) != L.commutator(l0, l1):
                yield f"braid eq {{dl0,dl1}} fails at ({l0},{l1})"
    for l in L.elements():
        for k in K.elements():
            lhs = L.mul(br(delta(l), k), br(k, delta(l)))
            rhs = L.mul(l, L.inv(t.act_L(bd(k), l)))
            if lhs != rhs:
                yield f"braid eq {{dl,k}}{{k,dl}} fails at ({l},{k})"
    for k0 in K.elements():
        for k1 in K.elements():
            for k2 in K.elements():
                lhs = br(k0, K.mul(k1, k2))
                inner = br(K.inv(delta(br(k0, k2))), t.act_K(bd(k0), k1))
                rhs = L.mul(L.mul(br(k0, k1), br(k0, k2)), inner)
                if lhs != rhs:
                    yield f"braid eq {{k0,k1k2}} fails at ({k0},{k1},{k2})"
                lhs = br(K.mul(k0, k1), k2)
                rhs = L.mul(br(k0, K.conj(k1, k2)), t.act_L(bd(k0), br(k1, k2)))
                if lhs != rhs:
                    yield f"braid eq {{k0k1,k2}} fails at ({k0},{k1},{k2})"
    for p in P.elements():
        for k0 in K.elements():
            for k1 in K.elements():
                if t.act_L(p, br(k0, k1)) != br(t.act_K(p, k0), t.act_K(p, k1)):
                    yield f"braid eq p-equivariance fails at ({p},{k0},{k1})"


def semidirect_product(m_grp: FiniteGroup, n_grp: FiniteGroup, act):
    """M x| N with (m0,n0)(m1,n1) = (m0 * act(n0, m1), n0 n1).

    act(n, m) -> m'.  Returns (group, encode, decode).
    """
    nm = m_grp.order

    def enc(m, n):
        return n * nm + m

    def dec(e):
        return e % nm, e // nm

    order = m_grp.order * n_grp.order
    table = []
    for e0 in range(order):
        m0, n0 = dec(e0)
        row = []
        for e1 in range(order):
            m1, n1 = dec(e1)
            row.append(enc(m_grp.mul(m0, act(n0, m1)), n_grp.mul(n0, n1)))
        table.append(tuple(row))
    names = tuple(f"({m_grp.names[dec(e)[0]]};{n_grp.names[dec(e)[1]]})" for e in range(order))
    return FiniteGroup(tuple(table), names, f"{m_grp.name}x|{n_grp.name}"), enc, dec


def to_two_crossed_module(cs: CrossedSquare) -> TwoCrossedModule:
    """K = M x| N, delta(l) = (f(l)^-1, g(l)), bd(m,n) = v(m)u(n), and the
    braiding {(m0,n0),(m1,n1)} = eta(m0, n0 n1 n0^-1)^-1."""
    bad = validate_crossed_square(cs)
    if bad:
        raise ValueError(f"invalid crossed square: {tuple(bad[:3])}")
    M, N, L, P = cs.M, cs.N, cs.L, cs.P
    K, enc, dec = semidirect_product(M, N, lambda n, m: cs.act_M(cs.u(n), m))
    delta = GroupHom(L, K, tuple(enc(M.inv(cs.f(l)), cs.g(l)) for l in L.elements()))
    bd_map = []
    for e in range(K.order):
        m, n = dec(e)
        bd_map.append(P.mul(cs.v(m), cs.u(n)))
    bd = GroupHom(K, P, tuple(bd_map))
    act_k_rows = []
    for p in P.elements():
        row = []
        for e in range(K.order):
            m, n = dec(e)
            row.append(enc(cs.act_M(p, m), cs.act_N(p, n)))
        act_k_rows.append(tuple(row))
    act_K = ActionTable(P, K, tuple(act_k_rows))
    braid = []
    for e0 in range(K.order):
        m0, n0 = dec(e0)
        row = []
        for e1 in range(K.order):
            m1, n1 = dec(e1)
            row.append(L.inv(cs.eta_at(m0, N.conj(n0, n1))))
        braid.append(tuple(row))
    return TwoCrossedModule(L, K, P, delta, bd, cs.act_L, act_K, tuple(braid))


def homotopy_groups(t: TwoCrossedModule) -> dict:
    """pi1 = coker(bd), pi2 = ker(bd)/im(delta) and pi3 = ker(delta)."""
    im_bd = sorted(set(t.bd(k) for k in t.K.elements()))
    pi1, _ = quotient_group(t.P, im_bd, name="pi1")
    ker_bd = [k for k in t.K.elements() if t.bd(k) == t.P.id]
    ker_grp, ker_index = subgroup_as_group(t.K, ker_bd, name="ker_bd")
    im_delta = sorted(set(ker_index[t.delta(l)] for l in t.L.elements()))
    pi2, _ = quotient_group(ker_grp, im_delta, name="pi2")
    ker_delta = [l for l in t.L.elements() if t.delta(l) == t.K.id]
    pi3, _ = subgroup_as_group(t.L, ker_delta, name="pi3")
    return {"pi1": pi1, "pi2": pi2, "pi3": pi3}


# -- degree-3 class of a crossed module ------------------------------------


class KernelPhaseIso(Frozen):
    """Explicit isomorphism ker(bd) -> Z_m (element list and residue list)."""

    __slots__ = ("elements", "residues", "modulus")

    def residue_map(self) -> dict[int, int]:
        """element -> residue."""
        return dict(zip(self.elements, self.residues))

    def validate(self, grp: FiniteGroup, kernel: list[int]):
        if sorted(self.elements) != sorted(kernel):
            raise ValueError("iso element list is not the kernel")
        if sorted(r % self.modulus for r in self.residues) != list(range(self.modulus)):
            raise ValueError("iso residues are not Z_m")
        residue = self.residue_map()
        for a, ra in zip(self.elements, self.residues):
            for b, rb in zip(self.elements, self.residues):
                if residue.get(grp.mul(a, b)) != (ra + rb) % self.modulus:
                    raise ValueError("iso is not a homomorphism")


def cm_pi1(cm: CrossedModule) -> tuple[FiniteGroup, tuple[int, ...]]:
    """coker(bd) with projection table."""
    im = sorted(set(cm.bd(m) for m in cm.M.elements()))
    return quotient_group(cm.N, im, name="pi1")


def cm_kernel(cm: CrossedModule) -> list[int]:
    return [m for m in cm.M.elements() if cm.bd(m) == cm.N.id]


class KernelNotCyclic(ValueError):
    pass


def default_kernel_iso(cm: CrossedModule) -> KernelPhaseIso:
    """A kernel-to-Z_m iso for cyclic kernels (deterministic generator scan)."""
    ker = cm_kernel(cm)
    m = len(ker)
    for gen in ker:
        seen = {cm.M.id: 0}
        x, r = gen, 1
        while x != cm.M.id:
            seen[x] = r
            x = cm.M.mul(x, gen)
            r += 1
        if len(seen) == m:
            elements = tuple(seen.keys())
            residues = tuple(seen.values())
            iso = KernelPhaseIso(elements, residues, m)
            iso.validate(cm.M, ker)
            return iso
    raise KernelNotCyclic("kernel of bd is not cyclic; supply an explicit iso")


def all_sections(cm: CrossedModule):
    """Every set-section of N -> pi1 (for small fixtures)."""
    pi1, proj = cm_pi1(cm)
    fibers = [[n for n in cm.N.elements() if proj[n] == c] for c in pi1.elements()]
    for combo in product(*fibers):
        yield tuple(combo)


def _kernel_iso(cm: CrossedModule, iso: KernelPhaseIso | None) -> KernelPhaseIso:
    """The given iso, checked against ker(bd), or the default one (checked when built)."""
    if iso is None:
        return default_kernel_iso(cm)
    iso.validate(cm.M, cm_kernel(cm))
    return iso


def weak_morphism_failure(G: FiniteGroup, mu, rho_mu, mul, inv):
    """(g,h,k) -> mu(g,h) mu(gh,k) mu(g,hk)^-1 rho_mu(g,h,k)^-1, the failure of
    the second equation, for rho_mu(g,h,k) = rho~(g).mu(h,k) and the group law
    (mul, inv)."""
    return lambda g, h, k: mul(
        mul(mu(g, h), mu(G.mul(g, h), k)), mul(inv(mu(g, G.mul(h, k))), inv(rho_mu(g, h, k)))
    )


def weak_morphism_failure_table(G: FiniteGroup, M: FiniteGroup, mu, acts) -> list[int]:
    """weak_morphism_failure on every triple of G^3, row-major, read off tables
    in one pass: mu[g][h] in M, and acts[g] the row of rho~(g) in the action
    table on M, so rho_mu(g,h,k) = acts[g][mu[h][k]]."""
    mul, inv = M.mul_table, M.inv_table
    out = []
    for mu_g, g_row, act in zip(mu, G.mul_table, acts):
        inv_mu_g = [inv[x] for x in mu_g]
        inv_act = [inv[x] for x in act]
        for mu_gh, gh, h_row, mu_h in zip(mu_g, g_row, G.mul_table, mu):
            left = mul[mu_gh]
            # k runs along mu(gh,k), hk and mu(h,k)
            out += [mul[mul[left[a]][inv_mu_g[hk]]][inv_act[b]] for a, hk, b in zip(mu[gh], h_row, mu_h)]
    return out


def weak_morphism_regauge(G: FiniteGroup, mu, w, act, mul, inv):
    """(g,h) -> w(g) act(g, w(h)) mu(g,h) w(gh)^-1, with act(g, x) = rho~(g).x:
    mu for rho~ regauged to w rho~."""
    return lambda g, h: mul(mul(w(g), act(g, w(h))), mul(mu(g, h), inv(w(G.mul(g, h)))))


def _kernel_cochain(
    G: FiniteGroup, fail: list[int], residue: dict[int, int], modulus: int, what: str
) -> Cochain:
    """The closed Z_m 3-cochain of a ker(bd)-valued failure table (row-major
    over G^3), through the residue map of a kernel iso."""
    vals = list(map(residue.get, fail))
    if None in vals:  # the iso's elements are exactly ker(bd)
        g, hk = divmod(vals.index(None), G.order**2)
        h, k = divmod(hk, G.order)
        raise AssertionError(f"{what} leaves the kernel at ({g},{h},{k})")
    c = Cochain(G, 3, modulus, tuple(vals))
    if not is_cocycle(c):
        raise AssertionError(f"{what} is not closed")
    return c


def postnikov3(
    cm: CrossedModule, sections: Iterable[tuple[int, ...]], iso: KernelPhaseIso | None = None
) -> list[Cochain]:
    """The degree-3 kernel-valued cocycle of each section sigma of N -> pi1.

    nu(x,y) = sigma(x)sigma(y)sigma(xy)^-1 lifts through bd once per pair
    (deterministic preimage choice); the alternating combination of lifts
    lands in ker(bd), is converted to phases through the supplied iso, and
    is verified to be closed.  The module and the iso are checked once per
    call, however many sections are given.
    """
    bad = validate_crossed_module(cm)
    if bad:
        raise ValueError(f"invalid crossed module: {tuple(bad[:3])}")
    pi1, proj = cm_pi1(cm)
    iso = _kernel_iso(cm, iso)
    residue = iso.residue_map()
    M, N = cm.M, cm.N
    preimage = {}
    for m in M.elements():
        preimage.setdefault(cm.bd(m), m)

    def cocycle(sigma: tuple[int, ...]) -> Cochain:
        for x in pi1.elements():
            if proj[sigma[x]] != x:
                raise ValueError(f"sigma is not a section at {x}")

        # nu lifted through bd, one entry per pair (x, y)
        lift = []
        for x in pi1.elements():
            row = []
            for y in pi1.elements():
                n = N.mul(N.mul(sigma[x], sigma[y]), N.inv(sigma[pi1.mul(x, y)]))
                if n not in preimage:
                    raise ValueError("nu value is not in the image of bd")
                row.append(preimage[n])
            lift.append(row)

        fail = weak_morphism_failure_table(pi1, M, lift, [cm.act.table[s] for s in sigma])
        return _kernel_cochain(pi1, fail, residue, iso.modulus, "postnikov cochain")

    return [cocycle(sigma) for sigma in sections]


# -- weak morphism data -----------------------------------------------------


class WeakMorphismData(Frozen):
    """(rho~, mu) for a group G mapping into a crossed module: rho_t: G -> N
    and mu: G x G -> M, as tables."""

    __slots__ = ("G", "target", "rho_t", "mu")


def check_weak_morphism(d: WeakMorphismData, iso: KernelPhaseIso | None = None) -> dict:
    """Exhaustively check both defining equations.

    The failure of the second equation is itself a kernel-valued 3-cocycle;
    it is reported (through the kernel iso) when the first equation holds.
    """
    G, cm = d.G, d.target
    M, N = cm.M, cm.N
    out = []
    eq1 = True
    for g, h in product(G.elements(), repeat=2):
        lhs = N.mul(N.mul(d.rho_t[g], d.rho_t[h]), N.inv(d.rho_t[G.mul(g, h)]))
        if lhs != cm.bd(d.mu[g][h]):
            eq1 = False
            out.append(f"eq1 fails at ({g},{h})")
    fail = weak_morphism_failure_table(G, M, d.mu, [cm.act.table[r] for r in d.rho_t])
    eq2_out = [f"eq2 fails at ({g},{h},{k})" for (g, h, k), t in zip(G.tuples(3), fail) if t != M.id]
    out += eq2_out
    eq2 = not eq2_out
    obstruction = None
    if eq1 and not eq2:
        iso = _kernel_iso(cm, iso)
        obstruction = _kernel_cochain(G, fail, iso.residue_map(), iso.modulus, "eq2 obstruction")
    return {"eq1_ok": eq1, "eq2_ok": eq2, "violations": out[:_MAX_VIOLATIONS], "obstruction": obstruction}


def twist(d: WeakMorphismData, b: Cochain, iso: KernelPhaseIso | None = None) -> WeakMorphismData:
    """mu' = b * mu for a closed kernel-valued 2-cochain b."""
    cm = d.target
    iso = _kernel_iso(cm, iso)
    if b.degree != 2 or b.group != d.G or b.modulus != iso.modulus:
        raise ValueError("twist cochain has the wrong shape")
    if not is_cocycle(b):
        raise ValueError("twist cochain is not closed")
    emb = {r: e for e, r in zip(iso.elements, iso.residues)}
    mu2 = tuple(
        tuple(cm.M.mul(emb[b(g, h)], d.mu[g][h]) for h in d.G.elements())
        for g in d.G.elements()
    )
    return WeakMorphismData(d.G, cm, d.rho_t, mu2)


# -- pointwise verification of the lattice crossed square --------------------


# The crossed-square equation each identity of the pairing suite checks.
_SQUARE_EQUATIONS = {
    "ad_eta_equals_commutator": "f_g_of_eta_is_commutator",
    "inner_left_closed_form": "eta_f(l)_n",
    "inner_right_closed_form": "eta_m_g(l)",
    "left_multiplicativity": "eta_mm'_n",
    "right_multiplicativity": "eta_m_nn'",
    "conjugation_equivariance": "eta_p_equivariance",
}


def verify_lattice_square(window, samples: int = 50, seed: int = 0) -> dict:
    """Check the crossed-square equations on sampled lattice elements.

    The square has scalars-and-local-unitaries for L, left / right / strip
    circuits for M, N, P, the maps into automorphisms, and the commutator
    pairing as eta.  Its equations are the pairing identities, so they are
    checked by the pairing suite and reported under the square's names.
    """
    rep = run_identity_suite(window, n_pairs=samples, seed=seed)
    counts = {_SQUARE_EQUATIONS[name]: n for name, n in rep["checks"].items()}
    out = [f"{_SQUARE_EQUATIONS[f['identity']]}: {f['detail']}" for f in rep["failures"]]
    return {"ok": not out, "violations": out[:_MAX_VIOLATIONS], "counts": counts}
