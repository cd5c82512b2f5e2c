"""Shared builders for test instances."""

import numpy as np
import scipy.sparse as sp

from magspec.operators import SparseHermitian
from magspec import (FieldSpec, assemble_H, build_lattice, dense_spectrum,
                     edge_integrals, gauge_links, gaussian_bump_potential,
                     gershgorin_interval, sample_field, zero_potential)

TWO_PI = 2 * np.pi


def op_from_dense(a, p=1, rank=1, lattice=None):
    return SparseHermitian(matrix=sp.csr_matrix(np.asarray(a, dtype=complex)),
                           p=p, rank=rank, lattice=lattice)


def stacked(sl):
    """A slice's vectors on the lattice as one n x k array, column i read
    through ``sl.column(i)``."""
    out = np.empty((sl.dim, len(sl)), dtype=complex)
    for i in range(len(sl)):
        out[:, i] = sl.column(i)
    return out


def brute_levels(b, v, top):
    """Every (level, k, mu) with level <= top, by plain enumeration over k."""
    out = []
    for mu, vm in enumerate(v):
        for k in range(int((top - vm) / (2 * b)) + 2):
            level = (2 * k + 1) * b + vm
            if level <= top:
                out.append((level, k, mu))
    return sorted(out)


def lowest_window(H, m):
    """Window holding exactly the m lowest eigenvalues, from below the
    Gershgorin bound to midway between the dense lambda_m and lambda_(m+1);
    returned with the dense eigenvalues."""
    w = dense_spectrum(H).values
    assert w[m] - w[m - 1] > 1e-6, "window edge cuts a cluster"
    return (gershgorin_interval(H)[0] - 1e-6, 0.5 * (w[m - 1] + w[m])), w


def torus_constant_setup(nx=24, p=4, c1=1):
    """Torus of side 2 pi with constant field of Chern number c1."""
    lat = build_lattice("torus", TWO_PI, nx)
    spec = FieldSpec.constant(c1 / TWO_PI)
    b = sample_field(spec, lat)
    links = gauge_links(edge_integrals(spec, lat, "landau"), p)
    V = zero_potential(lat)
    return lat, spec, b, links, V, assemble_H(lat, links, V, p)


def bump_rectangle_setup(nx=48, p=8, half_width=2.2, height=1.0):
    """Dirichlet square, constant unit field, Gaussian potential bump."""
    lat = build_lattice("rectangle_dirichlet", 2 * half_width, nx)
    spec = FieldSpec.constant(1.0)
    b = sample_field(spec, lat)
    links = gauge_links(edge_integrals(spec, lat, "symmetric"), p)
    V = gaussian_bump_potential(lat, height, 1.0)
    return lat, spec, b, links, V, assemble_H(lat, links, V, p)


def dip_rectangle_setup(nx=48, p=8, half_width=2.2):
    """Dirichlet square with the radial field dip 1 - 0.3 exp(-|x|^2)."""
    lat = build_lattice("rectangle_dirichlet", 2 * half_width, nx)
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    b = sample_field(spec, lat)
    links = gauge_links(edge_integrals(spec, lat, "symmetric"), p)
    V = zero_potential(lat)
    return lat, spec, b, links, V, assemble_H(lat, links, V, p)
