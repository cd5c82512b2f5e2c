"""Operator assembly, weight conjugation, Taylor terms."""

import numpy as np
import pytest

from conftest import TWO_PI, torus_constant_setup
from magspec import (FieldSpec, assemble_H, build_lattice, conjugate_H,
                     constant_potential, dense_spectrum, distance_to_set,
                     gaussian_bump_potential, sample_field,
                     smooth_distance, taylor_terms, trivial_links,
                     zero_potential, interface_set,
                     edge_integrals, gauge_links)
from magspec.errors import ConjugationOverflowError, ConsistencyError
from magspec.lattice import WeightField
from magspec.operators import gershgorin_interval, hermiticity_defect


def _free_torus(nx=12, p=2):
    lat = build_lattice("torus", TWO_PI, TWO_PI, nx, nx)
    links = trivial_links(lat, p)
    V = zero_potential(lat)
    return lat, assemble_H(lat, links, V, p)


def test_free_field_constant_kernel():
    lat, H = _free_torus()
    ones = np.ones(H.n, dtype=complex)
    assert np.abs(H.matrix @ ones).max() < 1e-12


def test_dimensions_and_sparsity():
    lat, spec, b, links, V, H = torus_constant_setup(nx=16, p=4)
    assert H.n == 256
    assert H.matrix.nnz <= 5 * 256


def test_landau_cluster_multiplicity_dense():
    lat, spec, b, links, V, H = torus_constant_setup(nx=32, p=8)
    w = dense_spectrum(H).values
    bval = 1 / TWO_PI
    low = w[np.abs(w - bval) < 0.4 * bval]
    nxt = w[np.abs(w - 3 * bval) < 0.4 * bval]
    assert low.size == 8          # p * c1 states in the lowest cluster
    assert nxt.size >= 8
    assert abs(low.mean() - bval) / bval < 0.05


def test_p_mismatch_rejected():
    lat, spec, b, links, V, H = torus_constant_setup(nx=8, p=2)
    with pytest.raises(ConsistencyError):
        assemble_H(lat, links, V, 3)


def test_hermiticity_and_gershgorin():
    lat, spec, b, links, V, H = torus_constant_setup(nx=16, p=4)
    scale = np.abs(H.matrix.data).max()
    assert hermiticity_defect(H) <= 1e-14 * scale
    lo, hi = gershgorin_interval(H)
    w = dense_spectrum(H).values
    assert w.min() >= lo - 1e-12 and w.max() <= hi + 1e-12
    # and the closed-form bound 8/(p h^2) + max V
    h = lat.spacing_x
    assert hi <= 8 / (4 * h * h) + 1e-12


def test_potential_shifted_positivity():
    # H - min V is positive semidefinite for unit-modulus links
    lat, spec, b, links, V, H = torus_constant_setup(nx=16, p=4)
    w = dense_spectrum(H).values
    assert w.min() >= -1e-12


def test_rank2_block_structure():
    lat = build_lattice("rectangle_dirichlet", 2.0, 2.0, 8, 8)
    links = trivial_links(lat, 2)
    pauli_z = np.diag([1.0, -1.0])
    V = constant_potential(lat, pauli_z)
    H = assemble_H(lat, links, V, 2)
    assert H.n == 2 * lat.n_sites
    assert dense_spectrum(H).values.min() >= -1.0 - 1e-12
    # fiber components decouple for a diagonal V: spectrum is the scalar
    # free spectrum shifted by +-1
    scalar = assemble_H(lat, trivial_links(lat, 2), zero_potential(lat), 2)
    w_scalar = dense_spectrum(scalar).values
    w_block = dense_spectrum(H).values
    expect = np.sort(np.concatenate([w_scalar + 1.0, w_scalar - 1.0]))
    assert np.allclose(w_block, expect, atol=1e-10)


def _weight_for(lat, p, window=(1.3, 1.7)):
    spec = FieldSpec.constant(1.0)
    b = sample_field(spec, lat)
    V = gaussian_bump_potential(lat, 1.0, 1.0)
    K = interface_set(lat, b, V, window, cutoff=4.0)
    return smooth_distance(K.distance, p)


def test_conjugate_tau_zero_bit_identical():
    lat, spec, b, links, V, H = torus_constant_setup(nx=12, p=4)
    mask = np.zeros(lat.n_sites, dtype=bool)
    mask[0] = True
    w = smooth_distance(distance_to_set(lat, mask), 4)
    H0 = conjugate_H(H, w, 0.0, 4)
    assert H0.hermitian
    assert np.array_equal(H0.matrix.data, H.matrix.data)
    assert np.array_equal(H0.matrix.indices, H.matrix.indices)


def test_conjugate_diagonal_unchanged_and_similar():
    p = 4
    lat = build_lattice("rectangle_dirichlet", 4.4, 4.4, 16, 16)
    spec = FieldSpec.constant(1.0)
    links = gauge_links(edge_integrals(spec, lat, "symmetric"), p)
    V = gaussian_bump_potential(lat, 1.0, 1.0)
    H = assemble_H(lat, links, V, p)
    w = _weight_for(lat, p)
    Ht = conjugate_H(H, w, 0.35, p)
    assert not Ht.hermitian
    assert np.allclose(Ht.matrix.diagonal(), H.matrix.diagonal())
    w1 = np.linalg.eigvalsh(H.matrix.toarray())
    w2 = np.sort(np.linalg.eigvals(Ht.matrix.toarray()).real)
    assert np.abs(w1 - w2).max() < 1e-8


def test_conjugate_overflow_guard():
    lat, spec, b, links, V, H = torus_constant_setup(nx=12, p=4)
    huge = WeightField(values=lat.positions[:, 0] * 1e4, smoothing_radius=0.1,
                       p=4, lattice=lat)
    with pytest.raises(ConjugationOverflowError):
        conjugate_H(H, huge, 1.0, 4)


def test_taylor_constant_weight_vanishes():
    lat, spec, b, links, V, H = torus_constant_setup(nx=12, p=4)
    flat = WeightField(values=np.full(lat.n_sites, 0.7), smoothing_radius=0.1,
                       p=4, lattice=lat)
    A, B = taylor_terms(H, flat, 4)
    a_max = np.abs(A.matrix.data).max() if A.matrix.nnz else 0.0
    b_max = np.abs(B.matrix.data).max() if B.matrix.nnz else 0.0
    assert a_max == 0.0
    assert b_max == 0.0


def test_taylor_second_term_is_gradient_square():
    # free field, weight = x coordinate: B acting on constants gives -|grad|^2
    p = 3
    lat = build_lattice("rectangle_dirichlet", 2.0, 2.0, 32, 32)
    H = assemble_H(lat, trivial_links(lat, p), zero_potential(lat), p)
    lin = WeightField(values=lat.positions[:, 0].copy(), smoothing_radius=0.1,
                      p=p, lattice=lat)
    _, B = taylor_terms(H, lin, p)
    out = (B.matrix @ np.ones(H.n, dtype=complex)).real
    interior = lat.boundary_distance() > 1.5 * lat.spacing_x
    assert np.allclose(out[interior], -1.0, atol=1e-10)


def test_taylor_remainder_third_order():
    p = 16
    lat = build_lattice("rectangle_dirichlet", 5.2, 5.2, 64, 64)
    spec = FieldSpec.constant(1.0)
    links = gauge_links(edge_integrals(spec, lat, "symmetric"), p)
    V = gaussian_bump_potential(lat, 1.0, 1.0)
    H = assemble_H(lat, links, V, p)
    w = _weight_for(lat, p)
    A, B = taylor_terms(H, w, p)

    def remainder(tau):
        Ht = conjugate_H(H, w, tau, p)
        R = Ht.matrix - H.matrix - (tau / np.sqrt(p)) * A.matrix \
            - tau ** 2 * B.matrix
        return np.abs(R.data).max() if R.nnz else 0.0

    ratio = remainder(1e-2) / remainder(5e-3)
    assert 6.0 <= ratio <= 10.0
