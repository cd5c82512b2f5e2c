"""Lattice construction, chamfer distance fields."""

import heapq

import numpy as np
import pytest

from magspec import build_lattice, distance_to_set
from magspec.errors import EmptyMaskError, InvalidSpecError

TWO_PI = 2 * np.pi


def test_torus_counts_and_spacing():
    lat = build_lattice("torus", TWO_PI, 64)
    assert lat.n_sites == 4096
    assert lat.spacing == pytest.approx(TWO_PI / 64)
    assert lat.n_edges == 2 * 4096
    assert lat.n_plaquettes == 4096


def test_rectangle_interior_sites():
    lat = build_lattice("rectangle_dirichlet", 1.0, 4)
    assert lat.n_sites == 9
    # every interior site has at most 4 in-domain neighbors; count edges
    degree = np.zeros(lat.n_sites)
    np.add.at(degree, lat.edge_src, 1)
    np.add.at(degree, lat.edge_dst, 1)
    assert degree.max() <= 4
    # center of the domain is the coordinate origin
    assert np.allclose(lat.positions.mean(axis=0), 0.0)


def test_torus_edges_and_plaquettes_pinned():
    # 3 x 3 torus, site = 3 iy + ix: +x edges from every site, then +y
    lat = build_lattice("torus", 1.0, 3)
    right = [1, 2, 0, 4, 5, 3, 7, 8, 6]  # +x neighbour of each site
    up = [3, 4, 5, 6, 7, 8, 0, 1, 2]     # +y neighbour of each site
    sites = list(range(9))
    assert lat.edge_src.tolist() == sites + sites
    assert lat.edge_dst.tolist() == right + up
    assert lat.edge_axis.tolist() == [0] * 9 + [1] * 9
    assert lat.edge_wraps.tolist() == [False, False, True] * 3 \
        + [False] * 6 + [True] * 3
    assert lat.plaquette_corner_sites.tolist() == sites
    # (bottom, right, top, left): +x edge s, +y edge of right[s], +x edge
    # of up[s], +y edge s
    assert lat.plaquettes.tolist() == [[s, 9 + right[s], up[s], 9 + s]
                                       for s in sites]


def test_rectangle_edges_and_plaquettes_pinned():
    # nx = 4 cells: a 3 x 3 grid of interior sites, site = 3 iy + ix, no
    # wall edges; a +x edge steps the site by 1, a +y edge by 3
    lat = build_lattice("rectangle_dirichlet", 2.0, 4)
    assert lat.edge_src.tolist() == [0, 1, 3, 4, 6, 7] + [0, 1, 2, 3, 4, 5]
    assert lat.edge_dst.tolist() == [1, 2, 4, 5, 7, 8] + [3, 4, 5, 6, 7, 8]
    assert lat.edge_axis.tolist() == [0] * 6 + [1] * 6
    assert lat.edge_wraps.tolist() == [False] * 12
    assert lat.plaquette_corner_sites.tolist() == [0, 1, 3, 4]
    # +x edge of site s is edge [0, 1, _, 2, 3, _, 4, 5][s], +y edge 6 + s
    assert lat.plaquettes.tolist() == [[0, 7, 2, 6], [1, 8, 3, 7],
                                       [2, 10, 4, 9], [3, 11, 5, 10]]


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpecError):
        build_lattice("torus", 1.0, 1)
    with pytest.raises(InvalidSpecError):
        build_lattice("torus", -1.0, 8)
    with pytest.raises(InvalidSpecError):
        build_lattice("klein_bottle", 1.0, 8)


def test_distance_single_source_neighbors():
    lat = build_lattice("torus", 1.0, 10)
    h = lat.spacing
    mask = np.zeros(lat.n_sites, dtype=bool)
    center = lat.site_index(5, 5)
    mask[center] = True
    d = distance_to_set(lat, mask).values
    assert d[center] == 0.0
    assert d[lat.site_index(6, 5)] == pytest.approx(h)
    assert d[lat.site_index(6, 6)] == pytest.approx(h * np.sqrt(2))
    assert d[lat.site_index(7, 5)] == pytest.approx(2 * h)


def test_distance_empty_mask_rejected():
    lat = build_lattice("torus", 1.0, 8)
    with pytest.raises(EmptyMaskError):
        distance_to_set(lat, np.zeros(lat.n_sites, dtype=bool))


def test_distance_symmetric_between_singletons():
    lat = build_lattice("rectangle_dirichlet", 1.0, 12)
    i, j = lat.site_index(2, 3), lat.site_index(8, 6)
    for a, bb in [(i, j), (j, i)]:
        mask = np.zeros(lat.n_sites, dtype=bool)
        mask[a] = True
        if a == i:
            d_ij = distance_to_set(lat, mask).values[bb]
        else:
            d_ji = distance_to_set(lat, mask).values[bb]
    assert d_ij == pytest.approx(d_ji)


def _brute_dijkstra(lat, mask):
    """Reference multi-source Dijkstra over the same 8-neighbor graph."""
    n, h = lat.site_nx, lat.spacing
    hd = np.hypot(h, h)
    steps = [(1, 0, h), (-1, 0, h), (0, 1, h), (0, -1, h),
             (1, 1, hd), (1, -1, hd), (-1, 1, hd), (-1, -1, hd)]
    dist = np.full(lat.n_sites, np.inf)
    heap = []
    for s in np.flatnonzero(mask):
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, int(s)))
    while heap:
        d0, i = heapq.heappop(heap)
        if d0 > dist[i]:
            continue
        ix, iy = i % n, i // n
        for dx, dy, w in steps:
            jx, jy = ix + dx, iy + dy
            if lat.is_torus:
                jx %= n
                jy %= n
            elif not (0 <= jx < n and 0 <= jy < n):
                continue
            j = jy * n + jx
            if d0 + w < dist[j]:
                dist[j] = d0 + w
                heapq.heappush(heap, (d0 + w, j))
    return dist


@pytest.mark.parametrize("kind", ["torus", "rectangle_dirichlet"])
def test_distance_matches_brute_force(kind):
    rng = np.random.default_rng(3)
    lat = build_lattice(kind, 2.0, 18)
    for _ in range(3):
        mask = rng.random(lat.n_sites) < 0.05
        if not mask.any():
            mask[0] = True
        got = distance_to_set(lat, mask).values
        ref = _brute_dijkstra(lat, mask)
        assert np.allclose(got, ref, atol=1e-12)


def test_distance_lipschitz_along_edges():
    lat = build_lattice("torus", 3.0, 24)
    mask = np.zeros(lat.n_sites, dtype=bool)
    mask[[0, 301]] = True
    d = distance_to_set(lat, mask).values
    jump = np.abs(d[lat.edge_src] - d[lat.edge_dst])
    assert np.all(jump <= 1.08 * lat.spacing + 1e-12)


@pytest.mark.parametrize("nx", [6, 7])
def test_rotation_is_the_quarter_turn(nx):
    lat = build_lattice("rectangle_dirichlet", 3.0, nx)
    rot, pos = lat.rotation, lat.positions
    assert np.array_equal(np.sort(rot), np.arange(lat.n_sites))
    assert np.allclose(pos[rot], np.column_stack([-pos[:, 1], pos[:, 0]]),
                       atol=1e-14)
    # the origin is a site, and the only fixed one, when site_nx is odd
    fixed = np.flatnonzero(rot == np.arange(lat.n_sites))
    assert fixed.size == lat.site_nx % 2
    assert np.allclose(pos[fixed], 0.0)


@pytest.mark.parametrize("nx", [6, 7])
def test_reflection_swaps_the_coordinates(nx):
    lat = build_lattice("rectangle_dirichlet", 3.0, nx)
    flip, pos = lat.reflection, lat.positions
    assert np.array_equal(flip[flip], np.arange(lat.n_sites))
    assert np.allclose(pos[flip], pos[:, ::-1], atol=1e-14)
    # it turns the quarter turn around: S R S = R^-1
    assert np.array_equal(flip[lat.rotation[flip]][lat.rotation],
                          np.arange(lat.n_sites))


# the torus has no centre to turn about, at an even or odd grid count
@pytest.mark.parametrize("kind, extent, nx", [("torus", 3.0, 6),
                                              ("torus", TWO_PI, 7)])
def test_rotation_needs_a_centred_square(kind, extent, nx):
    lat = build_lattice(kind, extent, nx)
    assert lat.rotation is None and lat.reflection is None


def test_pipeline_keeps_no_links_or_symmetry_arrays(tmp_path):
    # after the window solve the instance holds no gauge links (H holds
    # them, hashed in its provenance) and the lattice caches no quarter
    # turn, reflection or plaquette array: each is built when it is read
    from magspec.config import build_config
    from magspec.experiments import PerP
    p = 4
    st = PerP(build_config({"experiment": "radial_dip", "p": [p], "nx": 24,
                            "out": str(tmp_path)}), p)
    assert len(st.slice) and st.slice.symmetry == "C4+T"
    assert "links" not in st.inst
    lat = st.inst["lattice"]
    cached = dict(vars(lat))
    assert not {"rotation", "reflection", "plaquette_corner_sites",
                "plaquette_centers", "plaquettes"} & set(cached)
    kept = [array for value in cached.values()
            for array in (value if isinstance(value, tuple) else [value])
            if isinstance(array, np.ndarray)]
    for array in (lat.rotation, lat.reflection, lat.plaquette_corner_sites,
                  lat.plaquette_centers):
        assert not any(np.array_equal(value, array) for value in kept)
