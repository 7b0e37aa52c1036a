"""Lattice geometry: sites, finite windows, regions with L-infinity thickening.

A site is an integer pair (x, y); 1d mode keeps y = 0.  The basic regions
are the half-plane y >= 0, the boundary line y = 0, the two half-lines of
the boundary and origin disks; membership at thickening r means
L-infinity distance <= r from the region's core set.  Complements and
intersections of regions are the exact set operations on their parts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .values import Frozen, init_field, read_fields

Site = tuple[int, int]


class Window(Frozen):
    __slots__ = ("x_min", "x_max", "y_min", "y_max", "margin")

    def __init__(self, x_min: int, x_max: int, y_min: int, y_max: int, margin: int = 0):
        if x_min > x_max or y_min > y_max:
            raise ValueError("empty window")
        if margin < 0:
            raise ValueError("margin must be >= 0")
        if y_min == y_max == 0:
            extent = x_max - x_min + 1
        else:
            extent = min(x_max - x_min + 1, y_max - y_min + 1)
        if margin and margin >= (extent + 1) // 2:
            raise ValueError("margin too large for window")
        init_field(self, "x_min", x_min)
        init_field(self, "x_max", x_max)
        init_field(self, "y_min", y_min)
        init_field(self, "y_max", y_max)
        init_field(self, "margin", margin)

    @staticmethod
    def centered(width: int, height: int, margin: int = 0) -> "Window":
        """Window of the given size roughly centered on the origin."""
        return Window(-(width // 2), width - width // 2 - 1,
                      -(height // 2), height - height // 2 - 1, margin)

    @staticmethod
    def chain(length: int, margin: int = 0) -> "Window":
        """1d window: y pinned to 0."""
        return Window(-(length // 2), length - length // 2 - 1, 0, 0, margin)

    @property
    def is_chain(self) -> bool:
        return self.y_min == self.y_max == 0

    def sites(self) -> Iterable[Site]:
        for x in range(self.x_min, self.x_max + 1):
            for y in range(self.y_min, self.y_max + 1):
                yield (x, y)

    def contains(self, s: Site) -> bool:
        return self.x_min <= s[0] <= self.x_max and self.y_min <= s[1] <= self.y_max

    def edge_distance(self, s: Site) -> int:
        """L-infinity distance from s to the window boundary (0 on the rim)."""
        dx = min(s[0] - self.x_min, self.x_max - s[0])
        if self.is_chain:
            return dx
        dy = min(s[1] - self.y_min, self.y_max - s[1])
        return min(dx, dy)

    def shrunk(self, d: int) -> "Window | None":
        """The window of the sites at edge distance >= d, None if there are
        none; a chain keeps y = 0."""
        x_min, x_max = self.x_min + d, self.x_max - d
        y_min, y_max = (0, 0) if self.is_chain else (self.y_min + d, self.y_max - d)
        if x_min > x_max or y_min > y_max:
            return None
        return Window(x_min, x_max, y_min, y_max)

    def in_edge_strip(self, s: Site) -> bool:
        return self.contains(s) and self.edge_distance(s) < self.margin


class Region(Frozen):
    """A set of sites.

    The basic kinds are a core set plus a thickening radius: full,
    half_plane_H (y >= 0), boundary_line (y = 0), half_line_R (y = 0,
    x >= 0), half_line_L (y = 0, x <= 0) and origin_disk (needs radius).
    complement (of .inner) and intersection (of .inner and .inner2) are the
    set operations on their parts, thickenings included, and take no
    thickening of their own.
    """

    __slots__ = ("kind", "thickening", "radius", "inner", "inner2")

    KINDS = (
        "full", "half_plane_H", "boundary_line", "half_line_R", "half_line_L",
        "origin_disk", "complement", "intersection",
    )
    # the JSON keys of a kind besides kind and thickening, which every kind
    # takes, as to_json writes a composite's thickening of 0
    _JSON_KEYS = {"origin_disk": {"radius": int}, "complement": {"inner": dict},
                  "intersection": {"inner": dict, "inner2": dict}}

    def __init__(self, kind: str, thickening: int = 0, radius: int = 0,
                 inner: Region | None = None, inner2: Region | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown region kind {kind!r}")
        if thickening < 0:
            raise ValueError(f"thickening must be >= 0, got {thickening!r}")
        if kind == "origin_disk" and radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius!r}")
        if kind in ("complement", "intersection") and thickening:
            raise ValueError(f"{kind} regions take no thickening; thicken their parts")
        if kind == "complement" and inner is None:
            raise ValueError("complement needs an inner region")
        if kind == "intersection" and (inner is None or inner2 is None):
            raise ValueError("intersection needs two regions")
        init_field(self, "kind", kind)
        init_field(self, "thickening", thickening)
        init_field(self, "radius", radius)
        init_field(self, "inner", inner)
        init_field(self, "inner2", inner2)

    def core_distance(self, s: Site) -> int:
        """L-infinity distance from s to the core of a basic region."""
        x, y = s
        k = self.kind
        if k == "full":
            return 0
        if k == "half_plane_H":
            return max(0, -y)
        if k == "boundary_line":
            return abs(y)
        if k == "half_line_R":
            return max(abs(y), max(0, -x))
        if k == "half_line_L":
            return max(abs(y), max(0, x))
        if k == "origin_disk":
            return max(0, max(abs(x), abs(y)) - self.radius)
        raise ValueError(f"{k} regions have no core distance")

    def contains(self, s: Site) -> bool:
        if self.kind == "complement":
            return not self.inner.contains(s)
        if self.kind == "intersection":
            return self.inner.contains(s) and self.inner2.contains(s)
        return self.core_distance(s) <= self.thickening

    @staticmethod
    def full() -> "Region":
        return Region("full")

    @staticmethod
    def half_plane_H(thickening: int = 0) -> "Region":
        return Region("half_plane_H", thickening)

    @staticmethod
    def boundary_line(thickening: int = 0) -> "Region":
        return Region("boundary_line", thickening)

    @staticmethod
    def half_line_R(thickening: int = 0) -> "Region":
        return Region("half_line_R", thickening)

    @staticmethod
    def half_line_L(thickening: int = 0) -> "Region":
        return Region("half_line_L", thickening)

    @staticmethod
    @lru_cache(maxsize=256)
    def origin_disk(radius: int, thickening: int = 0) -> "Region":
        # one object per disk: a Region is immutable, and eta asks for its
        # disks on every call
        return Region("origin_disk", thickening, radius)

    @staticmethod
    def intersection_of(a: "Region", b: "Region") -> "Region":
        return Region("intersection", inner=a, inner2=b)

    @staticmethod
    def from_json(obj: dict, path: str = "region") -> "Region":
        kind = obj.get("kind") if type(obj) is dict else None
        keys = Region._JSON_KEYS.get(kind, {}) if type(kind) is str else {}
        read_fields(obj, path, {"kind": str, **keys}, {"thickening": int})
        parts = [Region.from_json(obj[k], f"{path}.{k}") for k in ("inner", "inner2") if k in obj]
        try:
            return Region(kind, obj.get("thickening", 0), obj.get("radius", 0), *parts)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "thickening": self.thickening}
        for key in self._JSON_KEYS.get(self.kind, ()):
            value = getattr(self, key)
            obj[key] = value.to_json() if isinstance(value, Region) else value
        return obj
