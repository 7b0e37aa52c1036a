"""Anomaly pipelines: the degree-4 index of a 2d circuit action, the
degree-3 index of a 1d action, boundary/lift regauging, and the SPT
cochains of invariant dressed product states.

The 2d pipeline truncates the action to the upper half-plane, collapses
rho(g) rho(h) rho(gh)^-1 to a boundary operator mu(g,h), splits it into
left/right parts alpha/beta across the origin, extracts the origin-local
lift u(g,h,k) of the beta cocycle failure, and assembles the degree-4
phase tau(g,h,k,l) as a six-factor product whose Ad is asserted trivial.
Everything is an exact SymOp computation on a finite window with margin;
window-rim debris is cropped and logged.
"""

from __future__ import annotations

from itertools import combinations, product

from .circuits import (
    CircuitAction,
    Layer,
    MarginError,
    ProceduralCircuit,
    apply_inverse_circuit,
    concat,
    conj_by_circuit,
    crop_window_debris,
    product_collapse,
    truncate,
)
from .crossed import weak_morphism_failure, weak_morphism_regauge
from .groups import Cochain, FiniteGroup, builtin_class_candidates, classify, coboundary
from .lattice import Region, Window
from .pairing import LocalizedAutomorphism, eta
from .symop import (
    ALL_ZEROS,
    ReferenceState,
    SymOp,
    expectation_phase,
    format_op,
    op_conj,
    op_inv,
    op_mul,
    op_product,
    scalar_phase,
    sites_outside,
    support,
)
from .values import Record


class SupportAssertion(AssertionError):
    pass


class NonScalarError(AssertionError):
    pass


def _assert_scalar(a: SymOp, what: str) -> int:
    """The phase of a as a Z2 residue (see scalar_phase); a must be scalar."""
    p = scalar_phase(a)
    if p is None:
        raise NonScalarError(f"{what} is not scalar; support {sorted(support(a))[:8]}")
    return p


def _assert_region(a: SymOp, region: Region, what: str):
    bad = sites_outside([a], region)
    if bad:
        raise SupportAssertion(f"{what} leaves {region.kind} at {bad[:8]}")


def split_right(op: SymOp) -> SymOp:
    """The part of a boundary operator on the right of the origin.

    A monomial (or flip) goes right iff all its sites have x >= 0;
    straddling content is left for alpha = mu * beta^-1.
    """
    poly = frozenset(m for m in op.poly if m and all(s[0] >= 0 for s in m))
    flips = frozenset(s for s in op.flips if s[0] >= 0)
    return SymOp(poly, flips)


def _numbering():
    """An empty value numbering: the list of values by number, and the
    function that numbers a value, giving each distinct value the next
    number on first sight, so equal values share one number."""
    vals, ids = [], {}

    def num(a: SymOp) -> int:
        i = ids.get(a)
        if i is None:
            i = ids[a] = len(vals)
            vals.append(a)
        return i

    return vals, num


class _StepTable(dict):
    """One lattice step as a table: a missing key is computed by fn, stored
    and returned, so a hit is one subscript.  A call of fn that raises
    stores nothing."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        v = self[key] = self.fn(key)
        return v


class TruncationData2d(Record, compare=(
    "action", "rho_tilde", "mu", "alpha", "beta", "u", "origin_radius", "cropped", "assertions",
)):
    """The truncated 2d action and its boundary data mu, alpha/beta and u.

    The lattice steps that tau, the u lift and the beta regauging repeat are
    kept in step tables on value numbers.  _id(a) numbers each distinct
    operator value once, in first-seen order, and _vals[i] is the value
    numbered i.  Each table maps operand numbers to the number of the
    result and fills itself on a miss (_StepTable):
    - _rho[g][i] is rho~(g) applied to _vals[i], one table per distinct
      rho~ circuit object, so elements that share a circuit share a table;
    - _conj[j][i] is op_conj(_vals[i], _vals[j]), one table per
      conjugating value;
    - _inv[i] is op_inv(_vals[i]);
    - _eta[i][j] is tau's eta factor of _vals[i] against _vals[j], one
      table per left value, whose one left automorphism is built on the
      row's first cell;
    - _phase maps tau's six factor numbers to its phase (filled by
      _tau_phases, which labels its scalar assertion by tuple).
    Each step is a pure function of its operands and of action, rho_tilde
    and origin_radius, which are never reassigned, so a hit returns exactly
    the value and the verdict (margin check, route agreement, disk checks,
    scalar assertion) of a fresh call.  A call that raises stores nothing,
    so every tuple that reaches it raises again.

    rho_apply, conj and inv take and return operators; each converts into
    the numbered step.  A new TruncationData2d starts with an empty
    numbering and empty tables, and mu/alpha/beta/u may be edited in place:
    tau numbers the values it reads on every call, not the group elements.
    The numbering and the tables are left out of ==.
    """

    __slots__ = (
        "action", "rho_tilde", "mu", "alpha", "beta", "u", "origin_radius", "cropped", "assertions",
        "_vals", "_id", "_rho", "_conj", "_inv", "_eta", "_phase",
    )

    def __init__(self, action: CircuitAction, rho_tilde: tuple[ProceduralCircuit, ...], mu: dict,
                 alpha: dict, beta: dict, u: dict, origin_radius: int,
                 cropped: tuple[str, ...] = (), assertions: tuple[str, ...] = ()):
        self.action = action
        self.rho_tilde = rho_tilde
        self.mu = mu
        self.alpha = alpha
        self.beta = beta
        self.u = u
        self.origin_radius = origin_radius
        self.cropped = cropped
        self.assertions = assertions
        # the steps close over the numbering, not over self, so a truncation
        # is no reference cycle; they look up conj_by_circuit and eta as
        # module globals, on a miss only
        vals, num = self._vals, self._id = _numbering()
        tables = {}
        for c in rho_tilde:
            if id(c) not in tables:
                tables[id(c)] = _StepTable(lambda i, c=c: num(conj_by_circuit(vals[i], c)))
        self._rho = tuple(tables[id(c)] for c in rho_tilde)
        self._conj = _StepTable(lambda j: _StepTable(lambda i: num(op_conj(vals[i], vals[j]))))
        self._inv = _StepTable(lambda i: num(op_inv(vals[i])))
        # eta's declared regions: the half-lines thickened by the origin
        # radius and the action's range
        thick = origin_radius + action.total_range() + 1
        left, right = Region.half_line_L(thick), Region.half_line_R(thick)
        lefts = _StepTable(lambda i: LocalizedAutomorphism(left, inner=vals[i]))
        self._eta = _StepTable(lambda i: _StepTable(lambda j: num(eta(
            lefts[i], LocalizedAutomorphism(right, inner=vals[j])
        ))))
        self._phase = {}

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    @property
    def window(self) -> Window:
        return self.action.window

    def rho_apply(self, g: int, a: SymOp) -> SymOp:
        return self._vals[self._rho[g][self._id(a)]]

    def conj(self, a: SymOp, w: SymOp) -> SymOp:
        return self._vals[self._conj[self._id(w)][self._id(a)]]

    def inv(self, a: SymOp) -> SymOp:
        return self._vals[self._inv[self._id(a)]]


def _truncate_and_collapse(action: CircuitAction, reach: int, half: Region, region: Region, label: str):
    """rho~ = rho truncated to half, the collapses of rho~(g) rho~(h) rho~(gh)^-1
    by (g, h), asserted to lie in region, and the log of cropped rim debris,
    one entry per pair in pair order.

    Each distinct circuit of the action is truncated once, so elements with
    one circuit share one rho~ object.  A collapse depends only on the
    circuit triple (rho(g), rho(h), rho(gh)), so each distinct triple is
    collapsed and region-checked once, at its first pair: a triple that
    fails raises there, with that pair's label.
    """
    if action.window.margin < 3 * reach:
        raise ValueError(f"window margin {action.window.margin} < 3x action range {reach}")
    G = action.group
    cut = [truncate(c, half) for c in action.distinct]
    rho = tuple(cut[i] for i in action.slot)
    slot, done, collapsed, cropped = action.slot, {}, {}, []
    for g, h in product(G.elements(), repeat=2):
        gh = G.mul(g, h)
        key = (slot[g], slot[h], slot[gh])
        res = done.get(key)
        if res is None:
            res = done[key] = product_collapse([rho[g], rho[h], rho[gh]], [1, 1, -1], expect_region=region)
            _assert_region(res.op, region, f"{label}({g},{h})")
        cropped += [f"{label}({g},{h}): {c}" for c in res.cropped]
        collapsed[g, h] = res.op
    return rho, collapsed, cropped


def build_truncation_2d(action: CircuitAction) -> TruncationData2d:
    """Truncate to the half-plane and extract mu, alpha/beta and u, the
    latter in the origin disk of radius max(2, 2 x action range)."""
    reach = action.total_range()
    origin_radius = max(2, 2 * reach)
    rho, mu, cropped = _truncate_and_collapse(
        action, reach, Region.half_plane_H(), Region.boundary_line(reach + 1), "mu"
    )
    alpha, beta = {}, {}
    for (g, h), m in mu.items():
        b = split_right(m)
        a = op_mul(m, op_inv(b))
        _assert_region(b, Region.half_line_R(reach + 1), f"beta({g},{h})")
        if op_mul(a, b) != m:
            raise AssertionError("mu != alpha * beta")
        alpha[g, h] = a
        beta[g, h] = b

    data = TruncationData2d(action, rho, mu, alpha, beta, {}, origin_radius)
    data.cropped = tuple(cropped + _lift_u(data, "u"))
    data.assertions = (
        "mu supported on the boundary line; mu = alpha*beta exact",
        f"u supported in origin disk of radius {origin_radius}",
    )
    return data


def _lift_u(data: TruncationData2d, label: str) -> list[str]:
    """Fill data.u with the failure of the second weak-morphism equation for
    (rho~, beta), window-rim debris cropped and each value asserted in the
    origin disk; returns the log of cropped debris, one entry per triple.
    The failure is a function of its four operands beta(g,h), beta(gh,k),
    beta(g,hk) and rho~(g).beta(h,k), so it is computed, cropped and
    checked once per distinct tuple of their value numbers."""
    G = data.group
    mul, els = G.mul_table, G.elements()
    vals, rho = data._vals, data._rho
    beta = [[data._id(data.beta[g, h]) for h in els] for g in els]
    fail = weak_morphism_failure(
        G, lambda g, h: vals[beta[g][h]], lambda g, h, k: vals[rho[g][beta[h][k]]], op_mul, data.inv,
    )
    disk = Region.origin_disk(data.origin_radius)
    crops, cropped = {}, []
    for g, h, k in product(els, repeat=3):
        gh, hk = mul[g][h], mul[h][k]
        key = (beta[g][h], beta[gh][k], beta[g][hk], rho[g][beta[h][k]])
        res = crops.get(key)
        if res is None:
            res = crop_window_debris(fail(g, h, k), data.window)
            _assert_region(res.op, disk, f"{label}({g},{h},{k})")
            crops[key] = res
        cropped += [f"{label}({g},{h},{k}): {c}" for c in res.cropped]
        data.u[g, h, k] = res.op
    return cropped


def _tau_phases(data: TruncationData2d, gs, hs, ks, ls) -> list[int]:
    """The degree-4 phase, as a Z2 residue, of each (g, h, k, l) in the
    product gs x hs x ks x ls, in row-major order.

    The six factors, each a value number: u(g,h,k); the rho~(g)-conjugated
    beta(h,k) applied to u(g,hk,l); rho~(g) applied to u(h,k,l); the
    rho~(g)rho~(h)-conjugated beta(k,l) applied to u(g,h,kl)^-1; eta of
    alpha(g,h) against beta(k,l) conjugated through beta(g,h) rho~(gh); and
    beta(g,h) applied to u(gh,k,l)^-1.  Their product is asserted scalar.

    u, alpha and beta are numbered as read on this call, and every step
    goes through data's step tables: they take a handful of values, so the
    lattice is touched once per distinct value, not once per tuple, and a
    step already taken is one subscript.
    """
    G = data.group
    mul, els = G.mul_table, G.elements()
    num = data._id
    # numbers of u, alpha and beta as nested lists: u[g][h][k] is u(g,h,k)
    u = [[[num(data.u[g, h, k]) for k in els] for h in els] for g in els]
    alpha = [[num(data.alpha[g, h]) for h in els] for g in els]
    beta = [[num(data.beta[g, h]) for h in els] for g in els]
    rho, conj, inv, eta_of = data._rho, data._conj, data._inv, data._eta
    phases, vals = data._phase, data._vals
    out = []
    for g in gs:
        rho_g, u_g = rho[g], u[g]
        for h in hs:
            # each lookup is hoisted to the loop of the last index it reads:
            # u_a_b is the row u(a,b,.), conj_gh the table of conjugation by
            # beta(g,h) and eta_gh that of eta against alpha(g,h)
            gh, rho_h, u_g_h = mul[g][h], rho[h], u_g[h]
            conj_gh, eta_gh = conj[beta[g][h]], eta_of[alpha[g][h]]
            for k in ks:
                hk = mul[h][k]
                f1, conj_2 = u_g_h[k], conj[rho_g[beta[h][k]]]
                u_g_hk, u_h_k, u_gh_k = u_g[hk], u[h][k], u[gh][k]
                for l in ls:
                    kl, b_kl = mul[k][l], beta[k][l]
                    key = (
                        f1,
                        conj_2[u_g_hk[l]],
                        rho_g[u_h_k[l]],
                        conj[rho_g[rho_h[b_kl]]][inv[u_g_h[kl]]],
                        eta_gh[conj_gh[rho[gh][b_kl]]],
                        conj_gh[inv[u_gh_k[l]]],
                    )
                    try:
                        out.append(phases[key])
                    except KeyError:
                        total = op_product(vals[i] for i in key)
                        phase = phases[key] = _assert_scalar(total, f"tau({g},{h},{k},{l})")
                        out.append(phase)
    return out


def tau4(data: TruncationData2d, g: int, h: int, k: int, l: int) -> int:
    """The degree-4 phase tau(g,h,k,l) as a Z2 residue: the six-factor
    product of _tau_phases on one tuple, asserted scalar."""
    return _tau_phases(data, [g], [h], [k], [l])[0]


def tau_cochain(data: TruncationData2d) -> Cochain:
    """tau on every tuple of G^4 as a Z2 cochain, in one pass of _tau_phases
    (see it and TruncationData2d for the step tables)."""
    G = data.group
    els = G.elements()
    return Cochain(G, 4, 2, tuple(_tau_phases(data, els, els, els, els)))


GNVW_NOTE = (
    "degree-2 positive-rational obstruction skipped: identically trivial "
    "for circuit-generated actions in the representable class"
)


def _anomaly_report(c: Cochain, assertions: tuple[str, ...], cropped: tuple[str, ...]) -> dict:
    """The report of an anomaly pipeline: the index cochain c, its verdicts
    against the builtin classes of its degree, and the pipeline's logs."""
    closed, trivial, matches = classify(c, builtin_class_candidates(c.group, c.degree))
    return {
        "cochain": c,
        "is_cocycle": closed,
        "trivial": trivial,
        "matched_class": matches[0] if matches else None,
        "assertions": assertions,
        "cropped_debris": cropped,
        "notes": {"h2_qplus": GNVW_NOTE},
    }


def anomaly_2d(action: CircuitAction, data: TruncationData2d | None = None) -> dict:
    if data is None:
        data = build_truncation_2d(action)
    return _anomaly_report(tau_cochain(data), data.assertions + ("tau scalar on all tuples",), data.cropped)


# -- 1d pipeline ---------------------------------------------------------


class TruncationData1d(Record):
    """The 1d truncation: rho~(g) by element, nu_lift[g, h] in the origin
    disk of radius origin_radius, and the crop log."""

    __slots__ = ("action", "rho_tilde", "nu_lift", "origin_radius", "cropped")

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    def rho_apply(self, g: int, a: SymOp) -> SymOp:
        return conj_by_circuit(a, self.rho_tilde[g])


def build_truncation_1d(action: CircuitAction) -> TruncationData1d:
    """Truncate to the right half-line and collapse nu, asserted in the
    origin disk of radius max(2, 2 x action range)."""
    if not action.window.is_chain:
        raise ValueError("1d pipeline needs a chain window")
    reach = action.total_range()
    origin_radius = max(2, 2 * reach)
    rho, nu, cropped = _truncate_and_collapse(
        action, reach, Region.half_line_R(), Region.origin_disk(origin_radius), "nu"
    )
    return TruncationData1d(action, rho, nu, origin_radius, tuple(cropped))


def nayak_else_1d(action: CircuitAction, data: TruncationData1d | None = None) -> dict:
    """The degree-3 index: the failure of the second weak-morphism equation
    for (rho~, nu), asserted scalar on every triple."""
    if data is None:
        data = build_truncation_1d(action)
    G = action.group
    nu = data.nu_lift
    ell = weak_morphism_failure(
        G, lambda g, h: nu[g, h], lambda g, h, k: data.rho_apply(g, nu[h, k]), op_mul, op_inv
    )
    c = Cochain.from_function(G, 3, 2, lambda g, h, k: _assert_scalar(ell(g, h, k), f"ell({g},{h},{k})"))
    return _anomaly_report(c, ("nu lifts origin-local", "ell scalar on all triples"), data.cropped)


# -- regauging (lift and truncation ambiguities) ---------------------------


def regauge_beta(data: TruncationData2d, v: dict) -> TruncationData2d:
    """Replace beta by Ad_v o beta (realized as v*beta) and u by the matching
    closed-form lift; tau built from the result must be unchanged.

    v maps pairs (g,h) to origin-local SymOps.

    u' is the five-term product, not _lift_u on (rho~, v*beta): that lift
    crops window-rim debris with crop_window_debris, and on a 12x12 window
    with margin 3 some true u' terms have sites such as (3, 0) that lie in
    the margin strip and inside the radius-4 disk.  With the seed-21 v of
    test_regauge_beta_tau_invariance, 13 of the 64 u' values have such a
    site, the lift drops them, and tau(0,0,1,3) is not scalar.
    """
    G = data.group
    disk = Region.origin_disk(data.origin_radius)
    for pair, op in v.items():
        _assert_region(op, disk, f"v{pair}")

    def vv(g, h):
        return v.get((g, h), SymOp.identity())

    beta2, alpha2 = {}, {}
    for g in G.elements():
        for h in G.elements():
            beta2[g, h] = op_mul(vv(g, h), data.beta[g, h])
            alpha2[g, h] = op_mul(data.mu[g, h], op_inv(beta2[g, h]))
    new_radius = data.origin_radius + data.action.total_range() + 1
    out = TruncationData2d(
        data.action, data.rho_tilde, dict(data.mu), alpha2, beta2, {},
        new_radius, data.cropped, data.assertions + ("beta regauged by Ad_v",),
    )
    # steps on v go through out's tables (same rho~), so data's tables do not
    # grow with every regauging
    for g in G.elements():
        for h in G.elements():
            for k in G.elements():
                gh, hk = G.mul(g, h), G.mul(h, k)
                t1 = vv(g, h)
                t2 = out.conj(vv(gh, k), data.beta[g, h])
                t3 = data.u[g, h, k]
                t4 = out.conj(out.inv(vv(g, hk)), data.rho_apply(g, data.beta[h, k]))
                t5 = out.rho_apply(g, out.inv(vv(h, k)))
                out.u[g, h, k] = op_product((t1, t2, t3, t4, t5))
    disk2 = Region.origin_disk(new_radius)
    for key, op in out.u.items():
        _assert_region(op, disk2, f"u'{key}")
    return out


def split_boundary_circuit(c: ProceduralCircuit) -> tuple[ProceduralCircuit, ProceduralCircuit]:
    """Split a boundary-localized circuit into left/right parts gate-wise.

    A gate goes right iff all its sites have x >= 0 and one has x > 0, so a
    gate on the cut column x = 0 goes left (split_right sends such a
    monomial right); raises if the parts do not multiply back to the whole
    (the fixture circuits here always split).
    """
    left_layers, right_layers = [], []
    for layer in c.layers:
        lg, rg = [], []
        for gate in layer:
            sites = support(gate)
            if sites and all(s[0] >= 0 for s in sites) and any(s[0] > 0 for s in sites):
                rg.append(gate)
            else:
                lg.append(gate)
        left_layers.append(Layer(lg))
        right_layers.append(Layer(rg))
    gl = ProceduralCircuit(tuple(left_layers), c.window)
    gr = ProceduralCircuit(tuple(right_layers), c.window)
    if op_mul(gl.unitary(), gr.unitary()) != c.unitary():
        raise ValueError("boundary circuit does not split into commuting L/R parts")
    return gl, gr


def regauge_rho(data: TruncationData2d, gamma: dict) -> TruncationData2d:
    """Replace rho~ by gamma o rho~ for boundary-localized circuits gamma(g),
    rebuilding mu and beta by the matching closed forms and u as the failure
    of the second weak-morphism equation for the regauged (rho~, beta).

    As in build_truncation_2d, window-rim debris of mu' and u' is cropped
    and logged, so mu' agrees with the product collapse of the regauged
    rho~.
    """
    G = data.group
    action = data.action
    reach = action.total_range()
    line = Region.boundary_line(reach + 1)

    def gam(g) -> ProceduralCircuit:
        return gamma.get(g, ProceduralCircuit.empty(data.window))

    for g, c in gamma.items():
        for layer in c.layers:
            for gate in layer:
                _assert_region(gate, line, f"gamma({g}) gate")

    splits = {g: split_boundary_circuit(gam(g)) for g in G.elements()}
    w_r = {g: splits[g][1].unitary() for g in G.elements()}

    def rho_apply(g: int, a: SymOp) -> SymOp:
        # operands built from gamma stay out of data's tables, which would
        # otherwise grow with every regauging
        return conj_by_circuit(a, data.rho_tilde[g])

    rho2 = tuple(concat(data.rho_tilde[g], gam(g)) for g in G.elements())
    # beta' is beta regauged by w_r: a fresh split_right(mu') would move tau by a coboundary
    beta_of = weak_morphism_regauge(
        G, lambda g, h: data.beta[g, h], w_r.__getitem__, rho_apply, op_mul, op_inv
    )
    mu_of = weak_morphism_regauge(
        G, lambda g, h: data.mu[g, h], lambda g: gam(g).unitary(), rho_apply, op_mul, op_inv
    )
    mu2, beta2, alpha2 = {}, {}, {}
    cropped = list(data.cropped)
    for g, h in product(G.elements(), repeat=2):
        beta2[g, h] = beta_of(g, h)
        res = crop_window_debris(mu_of(g, h), data.window)
        cropped += [f"mu'({g},{h}): {c}" for c in res.cropped]
        mu2[g, h] = res.op
        alpha2[g, h] = op_mul(mu2[g, h], op_inv(beta2[g, h]))

    out = TruncationData2d(action, rho2, mu2, alpha2, beta2, {}, data.origin_radius + 2 * (reach + 1))
    out.cropped = tuple(cropped + _lift_u(out, "u'"))
    out.assertions = data.assertions + ("rho~ regauged by boundary gamma",)
    return out


# -- SPT cochains ----------------------------------------------------------


class StateNotInvariant(ValueError):
    pass


CORRECTION_RADIUS = 2  # of the origin disk that find_state_correction searches


def state_stabilizer_generators(window: Window, state: ReferenceState, dressing=None, reach: int = 0) -> dict:
    """Conjugates of the single-site Z and X that generate the dressed state,
    by site, at every site whose generator, of the dressing's range d, and
    its image under a circuit of range reach pass the margin checks of
    both conjugations: the sites at edge distance >= 2d + reach.

    For omega = omega_0 o alpha these are alpha^-1 of the basis operators
    (Z on z-sites, X on x-sites); omega values +1 on all of them pin the
    state, so checking them is sound for the representable class.
    """
    d = 0 if dressing is None else dressing.total_range()
    gens = {}
    for s in window.sites():
        if window.edge_distance(s) >= 2 * d + reach:
            base = SymOp.z(s) if state.basis == "z" else SymOp.x(s)
            gens[s] = apply_inverse_circuit(base, dressing) if dressing is not None else base
    return gens


def expectation_product_state(a: SymOp, dressing=None, state: ReferenceState = ALL_ZEROS) -> int | None:
    """omega(a) as a Z2 residue for omega = omega_0 o alpha, alpha the
    dressing circuit; None when it is not a phase (see expectation_phase)."""
    if dressing is not None:
        a = conj_by_circuit(a, dressing)
    return expectation_phase(a, state)


def state_preserved_by(apply_fn, action: CircuitAction, state: ReferenceState, dressing=None) -> bool:
    """Check omega(apply_fn(g, T)) = 1 for every g of the action's group on
    the stabilizer generators T of the state; apply_fn(g, .) is a circuit
    no wider than the action's."""
    gens = state_stabilizer_generators(action.window, state, dressing, action.total_range()).values()
    return all(expectation_product_state(apply_fn(g, t), dressing, state) == 0
               for g in action.group.elements() for t in gens)


def action_preserves_state(action: CircuitAction, state: ReferenceState, dressing=None) -> bool:
    return state_preserved_by(action.apply, action, state, dressing)


def _pauli_candidates(window: Window, radius: int):
    """Sign-free Pauli-type SymOps supported in the origin disk, small first.

    Candidates come lazily in (weight, z sites, x sites) order: for each
    weight, the z site sets in lexicographic order (a depth-first walk over
    the subsets of at most that size), each followed by the x site sets of
    the remaining size.
    """
    sites = sorted(s for s in window.sites() if max(abs(s[0]), abs(s[1])) <= radius)
    if len(sites) > 12:
        raise ValueError("correction search space too large; shrink the radius")

    def z_sets(start: int, zs: tuple, room: int):
        yield zs
        if room:
            for i in range(start, len(sites)):
                yield from z_sets(i + 1, zs + (sites[i],), room - 1)

    for weight in range(2 * len(sites) + 1):
        for zs in z_sets(0, (), weight):
            for xs in combinations(sites, weight - len(zs)):
                yield SymOp(frozenset(frozenset([s]) for s in zs), frozenset(xs))


def find_state_correction(
    rho_circuit: ProceduralCircuit,
    window: Window,
    state: ReferenceState,
    dressing=None,
) -> SymOp:
    """Smallest Pauli-type W supported in the origin disk of radius
    CORRECTION_RADIUS with omega o Ad_W o rho~ = omega, or raise.

    W can move the generators of the sites within CORRECTION_RADIUS plus
    the ranges of the dressing and of rho~ of the origin.  A window that
    does not pin all of them could let a wrong W pass: a MarginError.
    """
    reach = rho_circuit.total_range()
    gens = state_stabilizer_generators(window, state, dressing, reach)
    touched = CORRECTION_RADIUS + reach + (0 if dressing is None else dressing.total_range())
    if any(s not in gens for s in window.sites() if max(map(abs, s)) <= touched):
        raise MarginError(f"window too small to pin the state within {touched} of the origin")
    conjugated = [conj_by_circuit(t, rho_circuit) for t in gens.values()]
    for w in _pauli_candidates(window, CORRECTION_RADIUS):
        if all(expectation_product_state(op_conj(co, w), dressing, state) == 0 for co in conjugated):
            return w
    raise StateNotInvariant("no state-preserving origin correction in the Pauli family")


def _omega_phase(op: SymOp, dressing, state: ReferenceState) -> int:
    """The expectation of op in the dressed state as a Z2 residue; it must
    be +1 or -1."""
    p = expectation_product_state(op, dressing, state)
    if p is None:
        raise StateNotInvariant(f"omega of {format_op(op)} is not a phase")
    return p


def _dressed_cochain(data: TruncationData1d, dress: ProceduralCircuit | None, state: ReferenceState) -> Cochain:
    """The degree-2 cochain of one invariant dressed state: omega of nu
    regauged by the state-preserving origin corrections of rho~."""
    G = data.group
    w = {g: find_state_correction(data.rho_tilde[g], data.action.window, state, dress) for g in G.elements()}
    nu_w = weak_morphism_regauge(G, lambda g, h: data.nu_lift[g, h], w.__getitem__, data.rho_apply, op_mul, op_inv)
    return Cochain.from_function(G, 2, 2, lambda g, h: _omega_phase(nu_w(g, h), dress, state))


def spt_relative_1d(
    action: CircuitAction,
    dress1: ProceduralCircuit | None,
    dress2: ProceduralCircuit | None,
    state: ReferenceState = ALL_ZEROS,
) -> dict:
    """Relative degree-2 class of two invariant dressed product states."""
    for dress in (dress1, dress2):
        if not action_preserves_state(action, state, dress):
            raise StateNotInvariant("dressed state is not invariant under the action")
    data = build_truncation_1d(action)
    if not nayak_else_1d(action, data)["trivial"]:
        raise StateNotInvariant("1d anomaly class is nontrivial; no invariant lifts exist")
    rel = _dressed_cochain(data, dress1, state).mul(_dressed_cochain(data, dress2, state).inverse())
    closed, trivial, _ = classify(rel)
    return {"cochain": rel, "is_cocycle": closed, "trivial": trivial}


def spt_trivialize_2d(
    data: TruncationData2d,
    dress: ProceduralCircuit | None = None,
    state: ReferenceState = ALL_ZEROS,
) -> dict:
    """omega(u(g,h,k)) as a trivializing 3-cochain of tau, when a dressed
    invariant product state exists; otherwise reports the obstruction.
    """
    action = data.action
    if not action_preserves_state(action, state, dress):
        return {"status": "no_invariant_state", "cochain": None, "delta_equals_tau": None}
    if not state_preserved_by(data.rho_apply, action, state, dress):
        return {"status": "truncation_not_preserving", "cochain": None, "delta_equals_tau": None}
    c = Cochain.from_function(data.group, 3, 2, lambda g, h, k: _omega_phase(data.u[g, h, k], dress, state))
    tau = tau_cochain(data)
    return {"status": "ok", "cochain": c, "delta_equals_tau": coboundary(c) == tau}
