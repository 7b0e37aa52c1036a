import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomalion.lattice import Region, Window
from reference import classify_support

sites = st.tuples(st.integers(-8, 8), st.integers(-8, 8))

BASIC = [
    Region.full(),
    Region.half_plane_H(),
    Region.boundary_line(),
    Region.half_line_R(),
    Region.half_line_L(),
    Region.origin_disk(2),
]
REGIONS = BASIC + [
    Region("complement", inner=Region.half_plane_H()),
    Region("complement", inner=Region.origin_disk(1)),
]


def test_contains_examples():
    assert not Region.half_plane_H().contains((3, -1))
    assert Region.half_line_R().contains((0, 0))
    assert Region.origin_disk(2, thickening=1).contains((3, 0))
    assert not Region.origin_disk(2, thickening=0).contains((3, 0))
    assert Region.half_line_L().contains((-5, 0))
    assert not Region.half_line_L().contains((1, 0))
    assert Region.boundary_line(1).contains((4, -1))


@given(st.sampled_from(BASIC), sites, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_thickening_monotone(region, site, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)

    def thickened(t):
        return Region(region.kind, region.thickening + t, region.radius)

    if thickened(lo).contains(site):
        assert thickened(hi).contains(site)


@given(st.sampled_from(REGIONS), sites)
@settings(max_examples=300, deadline=None)
def test_double_complement_core(region, site):
    double = Region("complement", inner=Region("complement", inner=region))
    assert double.contains(site) == region.contains(site)


def test_window_geometry():
    w = Window.centered(12, 12, margin=3)
    assert (w.x_min, w.x_max) == (-6, 5)
    assert w.contains((0, 0)) and not w.contains((6, 0))
    assert w.edge_distance((5, 0)) == 0
    assert w.edge_distance((-3, 2)) >= w.margin and w.in_edge_strip((4, 0))
    assert len(list(w.sites())) == 144

    c = Window.chain(12, margin=3)
    assert c.is_chain and len(list(c.sites())) == 12

    with pytest.raises(ValueError):
        Window(3, 2, 0, 0)
    with pytest.raises(ValueError):
        Window.centered(6, 6, margin=5)


def test_classify_support():
    rep = classify_support([(0, 0), (1, 0)], [Region.half_line_R()])
    assert rep.fully_inside(0)
    rep = classify_support([(-1, 0), (0, 0)], [Region.half_line_R()])
    assert not rep.fully_inside(0)
    rep = classify_support([(2, 1), (0, 0)], [Region.half_plane_H(), Region.boundary_line()])
    assert rep.memberships[0][1] and not rep.memberships[1][1]
    assert rep.max_dist_to_boundary_line == 1
    assert rep.max_dist_to_origin == 2


def test_intersection_region():
    r = Region.intersection_of(Region.half_line_R(1), Region.origin_disk(3))
    assert r.contains((2, 1)) and not r.contains((4, 0)) and not r.contains((-2, 0))


def test_region_json_roundtrip():
    r = Region.origin_disk(2, thickening=1)
    assert Region.from_json(r.to_json()) == r
    r2 = Region("complement", inner=Region.half_plane_H(2))
    assert Region.from_json(r2.to_json()) == r2
    r3 = Region.intersection_of(Region.half_line_L(1), Region.origin_disk(3))
    assert Region.from_json(r3.to_json()) == r3


thickenings = st.integers(0, 3)
leaf_regions = st.one_of(
    st.builds(Region, st.sampled_from(["full", "half_plane_H", "boundary_line", "half_line_R", "half_line_L"]),
              thickenings),
    st.builds(Region.origin_disk, st.integers(0, 4), thickenings),
)
regions = st.recursive(
    leaf_regions,
    lambda inner: st.one_of(
        st.builds(Region, st.just("complement"), inner=inner),
        st.builds(Region.intersection_of, inner, inner),
    ),
    max_leaves=6,
)


@given(regions, sites)
@settings(max_examples=300, deadline=None)
def test_region_json_roundtrip_every_kind(region, site):
    back = Region.from_json(json.loads(json.dumps(region.to_json())))
    assert back == region
    assert back.contains(site) == region.contains(site)


GRID = [(x, y) for x in range(-7, 8) for y in range(-7, 8)]
CORES = {
    "full": lambda x, y, r: True,
    "half_plane_H": lambda x, y, r: y >= 0,
    "boundary_line": lambda x, y, r: y == 0,
    "half_line_R": lambda x, y, r: y == 0 and x >= 0,
    "half_line_L": lambda x, y, r: y == 0 and x <= 0,
    "origin_disk": lambda x, y, r: max(abs(x), abs(y)) <= r,
}


def grid_set(region):
    """The sites of GRID in region: a basic region's core dilated by its
    thickening site by site, and composites by Python set operations."""
    if region.kind == "complement":
        return set(GRID) - grid_set(region.inner)
    if region.kind == "intersection":
        return grid_set(region.inner) & grid_set(region.inner2)
    core, t = CORES[region.kind], region.thickening
    return {(x, y) for x, y in GRID
            if any(core(x + dx, y + dy, region.radius) for dx in range(-t, t + 1) for dy in range(-t, t + 1))}


@given(regions, regions)
@settings(max_examples=200, deadline=None)
@example(Region.origin_disk(1, thickening=2), Region.full())
def test_complement_and_intersection_are_set_operations(a, b):
    """Every site is in exactly one of a region and its complement, and in
    an intersection exactly when it is in both parts, thickenings included."""
    in_a, in_b = grid_set(a), grid_set(b)
    assert {s for s in GRID if a.contains(s)} == in_a
    assert {s for s in GRID if Region("complement", inner=a).contains(s)} == set(GRID) - in_a
    assert {s for s in GRID if Region.intersection_of(a, b).contains(s)} == in_a & in_b


@pytest.mark.parametrize("obj, message", [
    ({"kind": "origin_disk", "radius": 2.5}, "region: 'radius' must be an int, got 2.5"),
    ({"kind": "origin_disk", "radius": True}, "region: 'radius' must be an int, got True"),
    ({"kind": "half_plane_H", "thickening": 1.5}, "region: 'thickening' must be an int, got 1.5"),
    ({"kind": "boundary_line", "thickening": True}, "region: 'thickening' must be an int, got True"),
    ({"kind": "complement", "thickening": 1, "inner": {"kind": "full"}},
     "complement regions take no thickening; thicken their parts"),
    ({"kind": "intersection", "thickening": 2, "inner": {"kind": "full"}, "inner2": {"kind": "full"}},
     "intersection regions take no thickening; thicken their parts"),
])
def test_region_json_is_read_strictly(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Region.from_json(obj)
    # with thickening 0 (and radius 1 on a disk) it reads: to_json writes a
    # composite's thickening as 0
    fixed = {**obj, "thickening": 0, **({"radius": 1} if "radius" in obj else {})}
    assert Region.from_json(fixed).thickening == 0


@pytest.mark.parametrize("obj, message", [
    # each kind takes its own keys: a radius only on a disk, inner2 only on
    # an intersection, and a misspelt key nowhere
    ({"kind": "half_plane_H", "radius": 2}, "region: unknown key 'radius'"),
    ({"kind": "complement", "inner": {"kind": "full"}, "inner2": {"kind": "full"}}, "region: unknown key 'inner2'"),
    ({"kind": "half_plane_H", "thicknes": 2}, "region: unknown key 'thicknes'"),
    ({"kind": "complement", "inner": {"kind": "full", "radius": 1}}, "region.inner: unknown key 'radius'"),
    ({"kind": "intersection", "inner": {"kind": "full"}, "inner2": {"kind": "origin_disk"}},
     "region.inner2: missing key 'radius'"),
    ({"kind": "complement", "inner": "full"}, "region: 'inner' must be an object, got 'full'"),
    ({"kind": 3}, "region: 'kind' must be a string, got 3"),
    ({"kind": "disk"}, "unknown region kind 'disk'"),
    ({"kind": "origin_disk", "radius": -1}, "radius must be >= 0, got -1"),
    ([{"kind": "full"}], "region: expected an object, got [{'kind': 'full'}]"),
])
def test_region_json_refuses_keys_of_other_kinds(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Region.from_json(obj)


def test_region_constructor_errors_name_the_path():
    """A region the constructor refuses is reported at its place in the input."""
    disk = {"kind": "origin_disk", "radius": 1}
    for obj, path, message in (
        ({"kind": "disk"}, "region", "region: unknown region kind 'disk'"),
        ({"kind": "origin_disk", "radius": -1}, "at", "at: radius must be >= 0, got -1"),
        ({"kind": "half_plane_H", "thickening": -2}, "region", "region: thickening must be >= 0, got -2"),
        ({"kind": "complement", "inner": {"kind": "intersection", "thickening": 1, "inner": disk, "inner2": disk}},
         "region", "region.inner: intersection regions take no thickening; thicken their parts"),
        ({"kind": "intersection", "inner": disk, "inner2": {"kind": "origin_disk", "radius": -1}},
         "g[2].region", "g[2].region.inner2: radius must be >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Region.from_json(obj, path)
