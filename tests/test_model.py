"""Skew invariants, level enumeration, spectral unions, interface sets."""

import numpy as np
import pytest

from magspec import (FieldSpec, build_lattice, dist_to_sigma, find_gaps,
                     gaussian_bump_potential, interface_set, landau_levels,
                     omega_collar, sample_field, sigma_region, skew_invariants,
                     zero_potential)
from magspec.errors import (DegenerateInvariantsError, EmptyMaskError,
                            EmptySetError, InvalidSpecError, WindowError)
from magspec.fields import ScalarField
from magspec.model import SigmaUnion


def _j_block(a):
    return np.array([[0.0, a], [-a, 0.0]])


def _block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def test_skew_invariants_basic():
    assert np.allclose(skew_invariants(_j_block(0.8)), [0.8])
    m = _block_diag(_j_block(1.0), _j_block(2.0))
    assert np.allclose(skew_invariants(m), [1.0, 2.0])


def test_skew_invariants_random_vs_eigs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rng.standard_normal((6, 6))
        m = g - g.T
        a = skew_invariants(m)
        imag = np.abs(np.linalg.eigvals(m).imag)
        ref = np.sort(imag)[::2][::-1]  # positive branch, ascending
        assert np.allclose(np.sort(a), np.sort(ref), atol=1e-10)
        # and squared invariants match the doubled spectrum of M^T M
        twice = np.sort(np.linalg.eigvalsh(m.T @ m))
        assert np.allclose(np.repeat(np.sort(a) ** 2, 2), twice, atol=1e-9)


def test_skew_invariants_rejects_non_skew_and_degenerate():
    with pytest.raises(InvalidSpecError):
        skew_invariants(np.eye(4))
    with pytest.raises(DegenerateInvariantsError):
        skew_invariants(_block_diag(_j_block(1.0), _j_block(0.0)))


def test_skew_invariants_block_permutation_invariant():
    m = _block_diag(_j_block(0.5), _j_block(1.5), _j_block(2.5))
    perm = np.array([4, 5, 0, 1, 2, 3])
    shuffled = m[np.ix_(perm, perm)]
    assert np.allclose(skew_invariants(m), skew_invariants(shuffled))


def test_landau_levels_small_cases():
    ls = landau_levels([1.0], [0.0], 7.0)
    assert np.allclose(ls.values, [1, 3, 5, 7])
    assert [e.k for e in ls.entries] == [(0,), (1,), (2,), (3,)]

    # note (0,1) and (2,0) are degenerate at 7.5; completeness keeps both
    ls = landau_levels([1.0, 2.0], [0.5], 8.0)
    assert np.allclose(ls.values, [3.5, 5.5, 7.5, 7.5])
    assert [e.k for e in ls.entries] == [(0, 0), (1, 0), (0, 1), (2, 0)]

    assert landau_levels([1.0, 2.0], [0.0], 2.5).entries == []
    with pytest.raises(InvalidSpecError):
        landau_levels([1.0, -1.0], [0.0], 5.0)


def _brute_levels(a, v, cutoff):
    a = np.asarray(a)
    vals = []
    kmax = [int(np.floor((cutoff - a.sum() - min(v)) / (2 * aj))) + 1
            for aj in a]
    if cutoff < a.sum() + min(v):
        return []
    grids = np.meshgrid(*[np.arange(0, km + 1) for km in kmax], indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    for k in ks:
        kin = np.dot(2 * k + 1, a)
        for mu, vm in enumerate(v):
            if kin + vm <= cutoff:
                vals.append((kin + vm, tuple(int(x) for x in k), mu))
    vals.sort()
    return vals


def test_landau_levels_brute_force_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = rng.integers(1, 4)
        a = rng.uniform(0.3, 2.5, n)
        r = rng.integers(1, 4)
        v = rng.uniform(-1.0, 1.0, r)
        cutoff = rng.uniform(1.0, 12.0)
        got = [(e.value, e.k, e.mu) for e in landau_levels(a, v, cutoff).entries]
        ref = _brute_levels(a, v, cutoff)
        assert len(got) == len(ref)
        for (gv, gk, gm), (rv, rk, rm) in zip(got, ref):
            assert gv == pytest.approx(rv)
            assert gk == rk and gm == rm


def _field_on(lat, values):
    return ScalarField(site_values=np.asarray(values, dtype=float),
                       plaquette_values=np.ones(lat.n_plaquettes),
                       lattice=lat)


def test_sigma_region_point_intervals():
    lat = build_lattice("torus", 1.0, 1.0, 4, 4)
    b = _field_on(lat, np.ones(lat.n_sites))
    sig = sigma_region(b, zero_potential(lat), cutoff=7.0)
    assert [(lo, hi) for lo, hi, _ in sig.intervals] == \
        [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0), (7.0, 7.0)]


def test_sigma_region_intervals_and_merge():
    lat = build_lattice("torus", 1.0, 1.0, 4, 4)
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
    lat = build_lattice("torus", 1.0, 1.0, 4, 4)
    b = _field_on(lat, np.ones(lat.n_sites))
    from magspec import constant_potential
    V = constant_potential(lat, np.diag([1.0, -1.0]))
    sig = sigma_region(b, V, cutoff=4.0)
    assert [(lo, hi) for lo, hi, _ in sig.intervals] == \
        [(0.0, 0.0), (2.0, 2.0), (4.0, 4.0)]
    # the 2.0 level is doubly generated: (k=0, upper) and (k=1, lower)
    labels = sig.intervals[1][2]
    assert (0, 1) in labels and (1, 0) in labels


def test_sigma_region_empty_region_rejected():
    lat = build_lattice("torus", 1.0, 1.0, 4, 4)
    b = _field_on(lat, np.ones(lat.n_sites))
    with pytest.raises(EmptyMaskError):
        sigma_region(b, zero_potential(lat),
                     region=np.zeros(lat.n_sites, dtype=bool), cutoff=5.0)


def test_sigma_region_disconnected_components():
    # two separated patches at distinct field strengths: the union keeps the
    # per-component intervals instead of bridging them
    lat = build_lattice("rectangle_dirichlet", 1.0, 1.0, 8, 8)
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
    lat = build_lattice("rectangle_dirichlet", 4.4, 4.4, 64, 64)
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    b = sample_field(spec, lat)
    K = interface_set(lat, b, zero_potential(lat), (1.6, 2.4), cutoff=6.0)
    r = np.hypot(lat.positions[:, 0], lat.positions[:, 1])
    radius = np.sqrt(np.log(1.5))
    cell = max(lat.spacing_x, lat.spacing_y)
    inside = r <= radius - cell
    outside = r >= radius + cell
    assert K.mask[inside].all()
    assert not K.mask[outside].any()
    assert np.array_equal(K.omega, ~K.mask)
    assert np.all(K.distance.values[K.mask] == 0.0)


def test_interface_set_trivial_windows():
    lat = build_lattice("torus", 1.0, 1.0, 6, 6)
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
    lat = build_lattice("rectangle_dirichlet", 4.4, 4.4, 32, 32)
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    b = sample_field(spec, lat)
    V = zero_potential(lat)
    small = interface_set(lat, b, V, (1.7, 2.3), cutoff=6.0)
    large = interface_set(lat, b, V, (1.6, 2.4), cutoff=6.0)
    assert np.all(large.mask[small.mask])


def test_interface_witness_consistency():
    lat = build_lattice("rectangle_dirichlet", 4.4, 4.4, 24, 24)
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    b = sample_field(spec, lat)
    V = zero_potential(lat)
    K = interface_set(lat, b, V, (1.6, 2.4), cutoff=9.0)
    rng = np.random.default_rng(0)
    for i in rng.choice(np.flatnonzero(K.mask), size=5, replace=False):
        region = np.zeros(lat.n_sites, dtype=bool)
        region[i] = True
        sig_i = sigma_region(b, V, region=region, cutoff=9.0)
        levels = landau_levels([b.site_values[i]], [0.0], 9.0).values
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


def test_omega_collar_contains_omega():
    lat = build_lattice("rectangle_dirichlet", 4.4, 4.4, 32, 32)
    spec = FieldSpec.constant(1.0)
    b = sample_field(spec, lat)
    V = gaussian_bump_potential(lat, 1.0, 1.0)
    K = interface_set(lat, b, V, (1.3, 1.7), cutoff=4.0)
    collar = omega_collar(lat, K, p=16)
    assert np.all(collar[K.omega])
    # the collar reaches into the interface set but distances stay small
    assert collar.sum() > K.omega.sum()
