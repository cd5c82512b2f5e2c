"""The level rule, spectral unions, interface sets."""

import numpy as np
import pytest

from conftest import brute_levels
from magspec import (FieldSpec, build_lattice, constant_potential,
                     dist_to_sigma, find_gaps, gaussian_bump_potential,
                     interface_set, landau_level, sample_field, sigma_region,
                     zero_potential)
from magspec.errors import EmptyMaskError, EmptySetError, WindowError
from magspec.fields import ScalarField
from magspec.model import SigmaUnion, levels_in_window


def test_levels_in_window_brute_force():
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(100):
        n, r = 40, rng.integers(1, 4)
        b = rng.uniform(0.05, 2.5, n)
        v = np.sort(rng.uniform(-1.0, 1.0, (n, r)), axis=1)
        lo = rng.uniform(-0.5, 8.0)
        window = (lo, lo + rng.uniform(0.01, 2.0))
        got = levels_in_window(b, v, window)
        ref = np.array([any(level >= window[0] for level, _, _ in
                            brute_levels(b[i], v[i], window[1]))
                        for i in range(n)])
        assert np.array_equal(got, ref)
        hits += int(ref.sum())
    # the draws reach both answers often
    assert 0.2 < hits / 4000 < 0.8


def test_sigma_region_single_site_brute_force():
    lat = build_lattice("torus", 1.0, 4)
    rng = np.random.default_rng(7)
    region = np.zeros(lat.n_sites, dtype=bool)
    region[5] = True
    for _ in range(100):
        r = rng.integers(1, 4)
        V = constant_potential(lat, np.diag(np.sort(rng.uniform(-1.0, 1.5, r))))
        b = _field_on(lat, rng.uniform(0.2, 3.0, lat.n_sites))
        cutoff = rng.uniform(1.0, 14.0)
        sig = sigma_region(b, V, region=region, cutoff=cutoff)
        ref = brute_levels(b.site_values[5], V.eigenvalues[5], cutoff)
        assert sig.branches == sorted((k, mu, lev, lev) for lev, k, mu in ref)
        values = sorted({lev for lev, _, _ in ref})
        assert [(lo, hi) for lo, hi, _ in sig.intervals] == \
            [(lev, lev) for lev in values]
        for lo, _, labels in sig.intervals:
            assert sorted(labels) == sorted((k, mu) for lev, k, mu in ref
                                            if lev == lo)


def _field_on(lat, values):
    return ScalarField(site_values=np.asarray(values, dtype=float),
                       plaquette_values=np.ones(lat.n_plaquettes),
                       lattice=lat)


def test_sigma_region_point_intervals():
    lat = build_lattice("torus", 1.0, 4)
    b = _field_on(lat, np.ones(lat.n_sites))
    sig = sigma_region(b, zero_potential(lat), cutoff=7.0)
    assert [(lo, hi) for lo, hi, _ in sig.intervals] == \
        [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0), (7.0, 7.0)]


def test_sigma_region_intervals_and_merge():
    lat = build_lattice("torus", 1.0, 4)
    b = _field_on(lat, np.linspace(0.7, 1.0, lat.n_sites))
    sig = sigma_region(b, zero_potential(lat), cutoff=3.2)
    assert [(lo, hi) for lo, hi, _ in sig.intervals] == \
        [(0.7, 1.0), (pytest.approx(2.1), 3.0)]
    # the faithful union keeps a clipped third branch at higher cutoff
    sig4 = sigma_region(b, zero_potential(lat), cutoff=4.0)
    assert [(lo, hi) for lo, hi, _ in sig4.intervals] == \
        [(0.7, 1.0), (pytest.approx(2.1), 3.0), (pytest.approx(3.5), 4.0)]

    b2 = _field_on(lat, np.linspace(1.0, 2.0, lat.n_sites))
    sig2 = sigma_region(b2, zero_potential(lat), cutoff=10.0)
    assert [(lo, hi) for lo, hi, _ in sig2.intervals] == [(1.0, 2.0), (3.0, 10.0)]


def test_sigma_region_rank2_branches():
    lat = build_lattice("torus", 1.0, 4)
    b = _field_on(lat, np.ones(lat.n_sites))
    V = constant_potential(lat, np.diag([1.0, -1.0]))
    sig = sigma_region(b, V, cutoff=4.0)
    assert [(lo, hi) for lo, hi, _ in sig.intervals] == \
        [(0.0, 0.0), (2.0, 2.0), (4.0, 4.0)]
    # the 2.0 level is doubly generated: (k=0, upper) and (k=1, lower)
    labels = sig.intervals[1][2]
    assert (0, 1) in labels and (1, 0) in labels


def test_sigma_region_empty_region_rejected():
    lat = build_lattice("torus", 1.0, 4)
    b = _field_on(lat, np.ones(lat.n_sites))
    with pytest.raises(EmptyMaskError):
        sigma_region(b, zero_potential(lat),
                     region=np.zeros(lat.n_sites, dtype=bool), cutoff=5.0)


def test_sigma_region_disconnected_components():
    # two separated patches at distinct field strengths: the union keeps the
    # per-component intervals instead of bridging them
    lat = build_lattice("rectangle_dirichlet", 1.0, 8)
    vals = np.ones(lat.n_sites)
    region = np.zeros(lat.n_sites, dtype=bool)
    region[lat.site_index(0, 0)] = True
    region[lat.site_index(6, 6)] = True
    vals[lat.site_index(0, 0)] = 1.0
    vals[lat.site_index(6, 6)] = 1.2
    sig = sigma_region(_field_on(lat, vals), zero_potential(lat),
                       region=region, cutoff=2.0)
    assert [(lo, hi) for lo, hi, _ in sig.intervals] == [(1.0, 1.0), (1.2, 1.2)]


def test_interface_set_analytic_disk():
    # field dip: the window [1.6, 2.4] meets only the k=1 branch, giving the
    # disk 3 b(x) <= 2.4, radius sqrt(ln 1.5)
    lat = build_lattice("rectangle_dirichlet", 4.4, 64)
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    b = sample_field(spec, lat)
    K = interface_set(lat, b, zero_potential(lat), (1.6, 2.4), cutoff=6.0)
    r = np.hypot(lat.positions[:, 0], lat.positions[:, 1])
    radius = np.sqrt(np.log(1.5))
    cell = lat.spacing
    inside = r <= radius - cell
    outside = r >= radius + cell
    assert K.mask[inside].all()
    assert not K.mask[outside].any()
    assert np.array_equal(K.omega, ~K.mask)
    assert np.all(K.distance.values[K.mask] == 0.0)


def test_interface_set_trivial_windows():
    lat = build_lattice("torus", 1.0, 6)
    b = _field_on(lat, np.ones(lat.n_sites))
    V = zero_potential(lat)
    empty = interface_set(lat, b, V, (1.5, 2.5), cutoff=6.0)
    assert not empty.mask.any()
    assert np.isinf(empty.distance.values).all()
    full = interface_set(lat, b, V, (0.9, 1.1), cutoff=6.0)
    assert full.mask.all()
    with pytest.raises(WindowError):
        interface_set(lat, b, V, (2.0, 1.0), cutoff=6.0)
    with pytest.raises(WindowError):
        interface_set(lat, b, V, (5.0, 7.0), cutoff=6.0)


def test_interface_window_monotone():
    lat = build_lattice("rectangle_dirichlet", 4.4, 32)
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    b = sample_field(spec, lat)
    V = zero_potential(lat)
    small = interface_set(lat, b, V, (1.7, 2.3), cutoff=6.0)
    large = interface_set(lat, b, V, (1.6, 2.4), cutoff=6.0)
    assert np.all(large.mask[small.mask])


def test_interface_witness_consistency():
    lat = build_lattice("rectangle_dirichlet", 4.4, 24)
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    b = sample_field(spec, lat)
    V = zero_potential(lat)
    K = interface_set(lat, b, V, (1.6, 2.4), cutoff=9.0)
    rng = np.random.default_rng(0)
    for i in rng.choice(np.flatnonzero(K.mask), size=5, replace=False):
        region = np.zeros(lat.n_sites, dtype=bool)
        region[i] = True
        sig_i = sigma_region(b, V, region=region, cutoff=9.0)
        levels = landau_level(np.arange(5), b.site_values[i], 0.0)
        witness = levels[(levels >= 1.6) & (levels <= 2.4)]
        assert witness.size > 0
        assert dist_to_sigma(float(witness[0]), sig_i) == 0.0


def test_dist_to_sigma_cases():
    sig = SigmaUnion(intervals=[(1.0, 2.0, ((0, 0),)), (3.0, 10.0, ((1, 0),))],
                     branches=[], cutoff=10.0)
    assert dist_to_sigma(2.5, sig) == pytest.approx(0.5)
    assert dist_to_sigma(1.5, sig) == 0.0
    assert dist_to_sigma(0.5, sig) == pytest.approx(0.5)
    empty = SigmaUnion(intervals=[], branches=[], cutoff=1.0)
    with pytest.raises(EmptySetError):
        dist_to_sigma(1.0, empty)


def test_find_gaps_cases():
    sig = SigmaUnion(intervals=[(0.7, 1.0, ()), (2.1, 3.0, ())],
                     branches=[], cutoff=3.0)
    assert find_gaps(sig) == [(1.0, 2.1)]
    merged = SigmaUnion(intervals=[(1.0, 10.0, ())], branches=[], cutoff=10.0)
    assert find_gaps(merged) == []
    points = SigmaUnion(intervals=[(1.0, 1.0, ()), (3.0, 3.0, ()),
                                   (5.0, 5.0, ())], branches=[], cutoff=5.0)
    assert find_gaps(points) == [(1.0, 3.0), (3.0, 5.0)]
