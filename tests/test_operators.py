"""Operator assembly."""

import numpy as np
import pytest

from conftest import TWO_PI, torus_constant_setup
from magspec import (assemble_H, build_lattice, constant_potential,
                     dense_spectrum, trivial_links, zero_potential)
from magspec.errors import ConsistencyError
from magspec.operators import gershgorin_interval, hermiticity_defect


def _free_torus(nx=12, p=2):
    lat = build_lattice("torus", TWO_PI, nx)
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
    h = lat.spacing
    assert hi <= 8 / (4 * h * h) + 1e-12


def test_potential_shifted_positivity():
    # H - min V is positive semidefinite for unit-modulus links
    lat, spec, b, links, V, H = torus_constant_setup(nx=16, p=4)
    w = dense_spectrum(H).values
    assert w.min() >= -1e-12


def test_rank2_block_structure():
    lat = build_lattice("rectangle_dirichlet", 2.0, 8)
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
