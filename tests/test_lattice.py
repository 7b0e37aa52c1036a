import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomalion.lattice import Region, Window
from reference import classify_support

sites = st.tuples(st.integers(-8, 8), st.integers(-8, 8))

REGIONS = [
    Region.full(),
    Region.half_plane_H(),
    Region.boundary_line(),
    Region.half_line_R(),
    Region.half_line_L(),
    Region.origin_disk(2),
    Region.complement_of(Region.half_plane_H()),
    Region.complement_of(Region.origin_disk(1)),
]


def test_contains_examples():
    assert not Region.half_plane_H().contains((3, -1))
    assert Region.half_line_R().contains((0, 0))
    assert Region.origin_disk(2, thickening=1).contains((3, 0))
    assert not Region.origin_disk(2, thickening=0).contains((3, 0))
    assert Region.half_line_L().contains((-5, 0))
    assert not Region.half_line_L().contains((1, 0))
    assert Region.boundary_line(1).contains((4, -1))


@given(st.sampled_from(REGIONS), sites, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_thickening_monotone(region, site, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)

    def thickened(t):
        return Region(region.kind, region.thickening + t, region.radius, region.inner, region.inner2)

    if thickened(lo).contains(site):
        assert thickened(hi).contains(site)


@given(st.sampled_from(REGIONS), sites)
@settings(max_examples=300, deadline=None)
def test_double_complement_core(region, site):
    double = Region.complement_of(Region.complement_of(region))
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
    r2 = Region.complement_of(Region.half_plane_H(), thickening=2)
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
        st.builds(Region.complement_of, inner, thickenings),
        st.builds(lambda a, b, t: Region("intersection", t, inner=a, inner2=b), inner, inner, thickenings),
    ),
    max_leaves=6,
)


@given(regions, sites)
@settings(max_examples=300, deadline=None)
def test_region_json_roundtrip_every_kind(region, site):
    back = Region.from_json(json.loads(json.dumps(region.to_json())))
    assert back == region
    assert back.contains(site) == region.contains(site)
