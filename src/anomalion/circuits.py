"""Layered circuits on lattice windows.

A circuit is a tuple of Layers of SymOp gates on a window, each checked
when it is made: GateRule.generate places a pattern's gates over a region,
and checked_layer takes an explicit gate list.  Layers are applied to
states first-listed-first, so the circuit unitary is W_N ... W_2 W_1 and
conjugating an observable applies layers in list order.  Within a layer,
gates must pairwise commute or have disjoint supports, which keeps the
layer product and the conjugation action unambiguous, and every gate must
lie in the window.

Layers derived from checked ones are not checked again, since sub-layers,
inverses and conjugates of a valid layer are valid.
"""

from __future__ import annotations

from functools import cache, partial

from .groups import FiniteGroup, klein_bits, klein_four
from .lattice import Region, Window
from .symop import (
    SymOp,
    _sites,
    op_conj,
    op_inv,
    op_mul,
    op_product,
    ops_commute,
    region_mask,
    sites_outside,
    support,
    support_mask,
    support_masks,
)
from .values import Frozen, init_field, read_fields


class InstantiationError(ValueError):
    pass


class MarginError(ValueError):
    pass


class CollapseError(ValueError):
    pass


PATTERNS = ("x_sites", "ccz_triangles", "cz_horizontal_edges", "cz_chain_edges")


class GateRule(Frozen):
    """One layer as a placement pattern over a region."""

    __slots__ = ("pattern", "region")

    def __init__(self, pattern: str, region: Region = Region.full()):
        if pattern not in PATTERNS:
            raise InstantiationError(f"unknown pattern {pattern!r}")
        init_field(self, "pattern", pattern)
        init_field(self, "region", region)

    def generate(self, window: Window) -> Layer:
        """The checked Layer of the pattern's gates on window in the region."""
        r = self.region
        if self.pattern == "x_sites":
            gates = [SymOp.x(s) for s in window.sites() if r.contains(s)]
        elif self.pattern in ("cz_horizontal_edges", "cz_chain_edges"):
            all_rows = self.pattern == "cz_horizontal_edges"
            gates = []
            for s in window.sites():
                t = (s[0] + 1, s[1])
                if (all_rows or s[1] == 0) and window.contains(t) and r.contains(s) and r.contains(t):
                    gates.append(SymOp.cz(s, t))
        else:  # ccz_triangles: the two triangles of each unit square
            gates = []
            for x, y in window.sites():
                bl, br, tl, tr = (x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)
                if all(window.contains(c) and r.contains(c) for c in (bl, br, tl, tr)):
                    gates += (SymOp.ccz(bl, tl, tr), SymOp.ccz(bl, br, tr))
        # x_sites has range 0 and the other patterns 1
        return checked_layer(gates, window, 0 if self.pattern == "x_sites" else 1)


def checked_layer(gates, window: Window, bound: int | None = None) -> Layer:
    """The Layer of gates on window, checked: every gate lies in the window,
    and gates within the layer commute.  The bound defaults to the largest
    gate diameter, taken when first asked.

    A layer whose diagonal mask misses its flip mask passes the commutation
    check in one test: no gate's diagonal depends on a site any gate flips,
    so every pair commutes.  Otherwise each gate is tested against the gates
    the index says can fail to commute with it.
    """
    layer = Layer(gates, bound)
    diag, flips = layer.masks()
    if (diag | flips) & ~region_mask(window):
        raise InstantiationError(f"gate leaves window at {sites_outside(layer, window)[0]}")
    if diag & flips:
        for g in layer:
            for h in layer.acting(g):
                if not ops_commute(g, h):
                    raise InstantiationError(f"layer gates {g} and {h} overlap and do not commute")
    return layer


def _diameter(mask: int) -> int:
    """The larger of the x and y extents of the sites of a mask."""
    if not mask & (mask - 1):  # at most one site
        return 0
    sites = _sites(mask)
    x_lo, y_lo = x_hi, y_hi = sites[0]
    for x, y in sites:
        if x < x_lo:
            x_lo = x
        elif x > x_hi:
            x_hi = x
        if y < y_lo:
            y_lo = y
        elif y > y_hi:
            y_hi = y
    return max(x_hi - x_lo, y_hi - y_lo)


class Layer(tuple):
    """A materialized layer: its gates, its range bound, two masks and a gate index.

    Layer() checks nothing, so build one directly only from a checked layer
    of the same window (a sub-layer, inverse or conjugate); checked_layer
    and GateRule.generate make checked ones.  The bound defaults to the
    largest gate diameter.  The product, the masks and the index are built
    on first use.  The masks are the sites the gates' diagonals depend on
    and the sites they flip.  The index maps each site bit to the positions
    of the gates whose diagonal depends on it, and of those that flip it,
    as masks; it is built only when an operator meets the masks.
    """

    def __new__(cls, gates=(), bound: int | None = None):
        layer = super().__new__(cls, gates)
        layer._bound = bound
        layer._index = None
        layer._product = None
        layer._masks = None
        return layer

    def range_bound(self) -> int:
        if self._bound is None:
            self._bound = max((_diameter(support_mask(g)) for g in self), default=0)
        return self._bound

    def product(self) -> SymOp:
        """The layer unitary, the product of its (commuting) gates."""
        if self._product is None:
            self._product = op_product(self)
        return self._product

    def masks(self) -> tuple[int, int]:
        """The sites the gates' diagonals depend on and the sites they flip, as masks."""
        if self._masks is None:
            diag = flips = 0
            for g in self:
                d, f = support_masks(g)
                diag |= d
                flips |= f
            self._masks = diag, flips
        return self._masks

    def mask(self) -> int:
        """The sites the layer's gates touch, as a mask."""
        diag, flips = self.masks()
        return diag | flips

    def conj(self, a: SymOp) -> SymOp:
        """phi(layer)(a): conjugation by the gates that can fail to commute with a."""
        gates = self.acting(a)
        return op_conj(a, op_product(gates)) if gates else a

    def acting(self, a: SymOp) -> list[SymOp]:
        """The gates that can fail to commute with a, in layer order: those
        whose diagonal meets a's flips or whose flips meet a's diagonal.
        Only a's flips on the diagonal mask and a's diagonal on the flip
        mask can meet a gate; an a with neither meets none and builds no
        index."""
        diag, flips = support_masks(a)
        layer_diag, layer_flips = self._masks or self.masks()
        flips &= layer_diag
        diag &= layer_flips
        if not flips | diag:
            return []
        if self._index is None:
            index = ({}, {})
            for i, g in enumerate(self):
                for by_bit, m in zip(index, support_masks(g)):
                    while m:
                        bit = m & -m
                        by_bit[bit] = by_bit.get(bit, 0) | 1 << i
                        m ^= bit
            self._index = index
        hit = 0
        for by_bit, m in zip(self._index, (flips, diag)):
            while m:
                bit = m & -m
                hit |= by_bit[bit]
                m ^= bit
        gates = []
        while hit:
            low = hit & -hit
            gates.append(self[low.bit_length() - 1])
            hit ^= low
        return gates


class ProceduralCircuit(Frozen, compare=("layers", "window")):
    """Checked Layers on a window, the first applied first; _cache, which is
    not compared, keeps what the methods below compute on first use."""

    __slots__ = ("layers", "window", "_cache")

    def __init__(self, layers: tuple[Layer, ...], window: Window):
        init_field(self, "layers", layers)
        init_field(self, "window", window)
        init_field(self, "_cache", {})

    def total_range(self) -> int:
        if "range" not in self._cache:
            self._cache["range"] = sum(layer.range_bound() for layer in self.layers)
        return self._cache["range"]

    def interior(self) -> Window | None:
        """The window sites at edge distance >= total_range(), None if none."""
        if "interior" not in self._cache:
            self._cache["interior"] = self.window.shrunk(self.total_range())
        return self._cache["interior"]

    def unitary(self) -> SymOp:
        """W_N ... W_1 (first layer rightmost, i.e. applied first)."""
        if "unitary" not in self._cache:
            acc = SymOp.identity()
            for layer in self.layers:
                acc = op_mul(layer.product(), acc)
            self._cache["unitary"] = acc
        return self._cache["unitary"]

    def inverse(self) -> "ProceduralCircuit":
        if "inverse" not in self._cache:
            self._cache["inverse"] = ProceduralCircuit(
                tuple(Layer(op_inv(g) for g in layer) for layer in reversed(self.layers)),
                self.window,
            )
        return self._cache["inverse"]

    def is_identity(self) -> bool:
        return all(not layer for layer in self.layers)

    @staticmethod
    def empty(window: Window) -> "ProceduralCircuit":
        return ProceduralCircuit((), window)


def concat(first_applied: ProceduralCircuit, then_applied: ProceduralCircuit) -> ProceduralCircuit:
    """Circuit acting as first_applied then then_applied (on states)."""
    if first_applied.window != then_applied.window:
        raise ValueError("window mismatch")
    return ProceduralCircuit(first_applied.layers + then_applied.layers, first_applied.window)


def truncate(c: ProceduralCircuit, region: Region) -> ProceduralCircuit:
    """Keep exactly the gates whose entire support lies in the region."""
    outside = ~region_mask(region)
    return ProceduralCircuit(
        tuple(Layer(g for g in layer if not support_mask(g) & outside) for layer in c.layers),
        c.window,
    )


def conj_by_circuit(a: SymOp, c: ProceduralCircuit, check_margin: bool = True) -> SymOp:
    """phi(c)(a) = W a W^-1, applying layers in list order.

    Gates in a layer commute, so each layer acts once, by the product of
    the gates that can fail to commute with the running operator.  With
    check_margin, a's support must lie in interior(): a mask test, with
    sites decoded only for the error message.
    """
    if check_margin:
        inner = c.interior()
        if support_mask(a) & ~(0 if inner is None else region_mask(inner)):
            bad = next(s for s in sorted(support(a)) if inner is None or not inner.contains(s))
            raise MarginError(
                f"support site {bad} is within circuit range {c.total_range()} of the window edge"
            )
    for layer in c.layers:
        a = layer.conj(a)
    return a


def apply_inverse_circuit(a: SymOp, c: ProceduralCircuit) -> SymOp:
    """phi(c)^{-1}(a)."""
    return conj_by_circuit(a, c.inverse(), check_margin=False)


class CollapseResult(Frozen):
    """An operator with its window-rim debris dropped, and the crop log."""

    __slots__ = ("op", "cropped")


def crop_window_debris(a: SymOp, window: Window) -> CollapseResult:
    """Drop monomials and flips living entirely in the window's margin strip.

    The log lists monomials by their sorted sites, then flips by site, so it
    does not depend on the order the operator's sets were built in.
    """
    cropped = []
    poly = set()
    for m in sorted(a.poly, key=sorted):
        if m and all(window.in_edge_strip(s) for s in m):
            cropped.append(f"dropped diagonal monomial on {sorted(m)}")
        else:
            poly.add(m)
    flips = set()
    for s in sorted(a.flips):
        if window.in_edge_strip(s):
            cropped.append(f"dropped flip at {s}")
        else:
            flips.add(s)
    return CollapseResult(SymOp(frozenset(poly), frozenset(flips)), tuple(cropped))


def product_collapse(
    circuits: list[ProceduralCircuit],
    signs: list[int],
    expect_region: Region,
) -> CollapseResult:
    """Multiply circuit unitaries (with +-1 exponents) into one SymOp.

    The raw product must be supported inside expect_region (thickened) up to
    debris in the window margin strip; the debris is cropped and logged.
    """
    if len(circuits) != len(signs):
        raise ValueError("need one sign per circuit")
    window = circuits[0].window
    acc = SymOp.identity()
    for c, s in zip(circuits, signs):
        w = c.unitary()
        if s == -1:
            w = op_inv(w)
        elif s != 1:
            raise ValueError("signs must be +-1")
        acc = op_mul(acc, w)
    bad = [s for s in support(acc) if not expect_region.contains(s) and not window.in_edge_strip(s)]
    if bad:
        raise CollapseError(
            f"product does not collapse: support reaches {sorted(bad)[:8]} "
            f"outside the expected region"
        )
    result = crop_window_debris(acc, window)
    leftover = [s for s in support(result.op) if not expect_region.contains(s)]
    if leftover:
        raise CollapseError(f"cropped product still reaches {sorted(leftover)[:8]}")
    return result


# -- group actions by circuits -------------------------------------------


class CircuitAction(Frozen, compare=("group", "assign", "window", "name")):
    """rho(g) = the circuit assign[g].

    The automorphisms do not depend on how elements are labelled, so every
    lattice step is taken once per distinct circuit.  On construction equal
    circuits (same layers and window) become one object: distinct lists
    them in first-seen order and slot[g] is the position of g's circuit in
    it.
    """

    __slots__ = ("group", "assign", "window", "name", "distinct", "slot")

    def __init__(self, group: FiniteGroup, assign: tuple[ProceduralCircuit, ...], window: Window,
                 name: str = "action"):
        # assign is indexed by group element
        first: dict[ProceduralCircuit, int] = {}
        slot = tuple(first.setdefault(c, len(first)) for c in assign)
        distinct = tuple(first)  # the first-seen object of each value
        init_field(self, "group", group)
        init_field(self, "assign", tuple(distinct[i] for i in slot))
        init_field(self, "window", window)
        init_field(self, "name", name)
        init_field(self, "distinct", distinct)
        init_field(self, "slot", slot)

    def circuit(self, g: int) -> ProceduralCircuit:
        return self.assign[g]

    def total_range(self) -> int:
        return max((c.total_range() for c in self.distinct), default=0)

    def apply(self, g: int, a: SymOp) -> SymOp:
        return conj_by_circuit(a, self.assign[g])


def validate_action(action: CircuitAction) -> list[str]:
    """rho(g) rho(h) = rho(gh) on Z and X at every interior site, which
    determines the automorphisms; returns violations, one per failing pair
    and observable, in pair order.

    The images of the observables are taken once per distinct circuit, and
    the composition is checked once per distinct circuit triple
    (circuit(g), circuit(h), circuit(gh)); every pair of a triple fails on
    the same observables.
    """
    window = action.window
    G = action.group
    violations = []
    if not action.assign[G.id].is_identity():
        violations.append("identity element has a nonempty circuit")
    reach = action.total_range()
    interior = [
        s for s in window.sites() if window.edge_distance(s) >= window.margin + 2 * reach
    ]
    if not interior:
        raise MarginError("window too small to validate the action")
    observables = [obs for s in interior for obs in (SymOp.z(s), SymOp.x(s))]
    images = [[conj_by_circuit(obs, c) for obs in observables] for c in action.distinct]
    slot, failing = action.slot, {}
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            key = (slot[g], slot[h], slot[gh])
            bad = failing.get(key)
            if bad is None:
                c = action.distinct[slot[g]]
                bad = failing[key] = [
                    obs
                    for obs, h_obs, gh_obs in zip(observables, images[slot[h]], images[slot[gh]])
                    if conj_by_circuit(h_obs, c) != gh_obs
                ]
            violations += [f"rho({g})rho({h}) != rho({gh}) on {obs}" for obs in bad]
    return violations


def _rule_layers(window: Window):
    """rule -> its checked Layer on window, each rule generated once, so
    equal rules of an action's circuits share one Layer (and its masks,
    index and product)."""
    return cache(lambda rule: rule.generate(window))


def _ccz_x_layers(e: int, window: Window, layer) -> tuple[Layer, ...]:
    g1, g2 = klein_bits(e)
    # unitary U1^g1 U2^g2: the X layer is applied first to states
    return (layer(GateRule("x_sites")),) * g2 + (layer(GateRule("ccz_triangles")),) * g1


def _x_even_odd_layers(e: int, window: Window, layer) -> tuple[Layer, ...]:
    g1, g2 = klein_bits(e)
    even = [SymOp.x(s) for s in window.sites() if s[0] % 2 == 0]
    odd = [SymOp.x(s) for s in window.sites() if s[0] % 2 != 0]
    gates = even * g1 + odd * g2
    return (checked_layer(gates, window),) if gates else ()


_z2 = partial(FiniteGroup.cyclic, 2)

# The builtin actions, name -> (window kind, group, the layers of element e
# on a window, made by the action's rule -> Layer map); a new builtin is one
# more entry here.
#   ccz_x_2d      Z2xZ2 on the plane: g=(g1,g2) acts by U1^g1 U2^g2 with U1
#                 the CCZ product over all lattice triangles and U2 the X
#                 product over all sites.
#   onsite_x_2d   Z2 acting by X on every site.
#   onsite_x_1d   Z2 acting by X on every chain site.
#   onsite_xx_1d  Z2xZ2 on the chain: g1 acts by X on the even sites and g2
#                 by X on the odd sites.
#   levin_gu_1d   Z2 on the chain: an X layer followed by a CZ layer on the
#                 chain edges.
BUILTIN_ACTIONS = {
    "ccz_x_2d": ("2d", klein_four, _ccz_x_layers),
    "onsite_x_2d": ("2d", _z2, lambda e, window, layer: (layer(GateRule("x_sites")),) * e),
    "onsite_x_1d": ("chain", _z2, lambda e, window, layer: (layer(GateRule("x_sites")),) * e),
    "onsite_xx_1d": ("chain", klein_four, _x_even_odd_layers),
    "levin_gu_1d": ("chain", _z2, lambda e, window, layer: (layer(GateRule("x_sites")),
                                                            layer(GateRule("cz_chain_edges"))) * e),
}


def builtin_action(name: str, window: Window) -> CircuitAction:
    """The builtin action called name (see BUILTIN_ACTIONS) on window; an
    unknown name or a window of the other kind is a ValueError."""
    if name not in BUILTIN_ACTIONS:
        raise ValueError(f"unknown builtin action {name!r}")
    kind, make_group, layers = BUILTIN_ACTIONS[name]
    # the CCZ layer is empty on a chain, so a 2d builtin there would read trivial
    if window.is_chain != (kind == "chain"):
        raise ValueError(f"{name} needs a {kind} window")
    group = make_group()
    layer = _rule_layers(window)
    circuits = tuple(ProceduralCircuit(layers(e, window, layer), window) for e in group.elements())
    return CircuitAction(group, circuits, window, name)


def cluster_entangler_1d(window: Window) -> ProceduralCircuit:
    """CZ on every chain edge (dressing circuit for the cluster fixture)."""
    return ProceduralCircuit((GateRule("cz_chain_edges").generate(window),), window)


def action_from_config(obj: dict, window: Window) -> CircuitAction:
    """Build an action from the CLI config schema: one entry per element, the identity optional."""
    read_fields(obj, "", {"group": dict, "generators": list}, {"name": str})
    group = FiniteGroup.from_json(obj["group"])
    by_element = {}
    names = {n: i for i, n in enumerate(group.names)}
    layer = _rule_layers(window)
    for i, gen in enumerate(obj["generators"]):
        at = f"generators[{i}]"
        e = read_fields(gen, at, {"element": (str, int), "layers": list}, {})["element"]
        e = names.get(e, e)  # a name, or an index
        if e not in group.elements():
            raise ValueError(f"{at}: element {gen['element']!r} is not in the group")
        if e in by_element:
            raise ValueError(f"{at}: element {group.names[e]!r} is listed twice")
        layers = []
        for j, entry in enumerate(gen["layers"]):
            at_layer = f"{at}.layers[{j}]"
            read_fields(entry, at_layer, {"pattern": str}, {"region": dict})
            pattern = _PATTERN_ALIASES.get(entry["pattern"], entry["pattern"])
            region = Region.from_json(entry.get("region", {"kind": "full"}), f"{at_layer}.region")
            layers.append(layer(GateRule(pattern, region)))
        by_element[e] = ProceduralCircuit(tuple(layers), window)
    by_element.setdefault(group.id, ProceduralCircuit((), window))
    for g in group.elements():
        if g not in by_element:
            raise ValueError(f"element {group.names[g]!r} is not listed")
    return CircuitAction(group, tuple(by_element[g] for g in group.elements()), window, obj.get("name", "custom"))


_PATTERN_ALIASES = {
    "x_on_sites": "x_sites",
    "cz_edges": "cz_horizontal_edges",
}
