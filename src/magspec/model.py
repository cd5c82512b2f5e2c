"""Frozen-coefficient spectral data: local Landau levels and their unions.

On a 2D lattice the model operator at a point x0 has a constant magnetic
field with the single invariant b(x0) > 0, so with potential branches V_mu
its spectrum consists of the levels

    Lambda(k, mu) = (2 k + 1) b(x0) + V_mu(x0),   k = 0, 1, 2, ...

(``landau_level``).  Over a region the union of local levels forms
per-branch intervals; their merged union, its gaps, and the interface set of
sites whose levels meet an energy window are the ingredients of every
spectral diagnostic downstream.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (EmptyMaskError, EmptySetError, InvalidSpecError,
                     WindowError)
from .lattice import DistanceField, distance_to_set


def landau_level(k, b, v):
    """The level (2k+1) b + V of the constant-field model operator.

    ``k`` may be an integer or an array of integers held as floats; 2k+1 is
    then an exact small integer, so every caller gets the same bits.
    """
    return (2 * k + 1) * b + v


@dataclass
class SigmaUnion:
    """Disjoint merged level intervals over a region, plus raw branches.

    ``intervals`` are merged closed [lo, hi] ascending with the contributing
    branch labels; ``branches`` keeps the unmerged per-(component, k, mu)
    intervals.  All endpoints are clipped at the cutoff.
    """

    intervals: list       # (lo, hi, labels) with labels a tuple of (k, mu)
    branches: list        # (k, mu, lo, hi)
    cutoff: float

    @property
    def bounds(self):
        los = np.array([iv[0] for iv in self.intervals])
        his = np.array([iv[1] for iv in self.intervals])
        return los, his


def _region_components(lattice, mask):
    """Connected components of the masked sites under 4-adjacency."""
    idx = np.flatnonzero(mask)
    remap = -np.ones(lattice.n_sites, dtype=np.int64)
    remap[idx] = np.arange(idx.size)
    src, dst = lattice.edge_src, lattice.edge_dst
    keep = mask[src] & mask[dst]
    rows = remap[src[keep]]
    cols = remap[dst[keep]]
    graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                          shape=(idx.size, idx.size))
    n_comp, labels = connected_components(graph, directed=False)
    return [idx[labels == c] for c in range(n_comp)]


def _merge(branch_intervals, cutoff):
    pieces = sorted((lo, hi, (k, mu)) for (k, mu, lo, hi) in branch_intervals)
    merged = []
    for lo, hi, label in pieces:
        if merged and lo <= merged[-1][1]:
            mlo, mhi, labels = merged[-1]
            merged[-1] = (mlo, max(mhi, hi), labels + (label,))
        else:
            merged.append((lo, hi, (label,)))
    return merged


def sigma_region(b, potential, region=None, *, cutoff):
    """Union of local levels over a site region (2D, single invariant b).

    Per connected component and per branch (k, mu) the continuous image of a
    connected region is an interval, represented by the [min, max] of the
    sampled values; overlapping branches merge.
    """
    lattice = b.lattice
    if region is None:
        region = np.ones(lattice.n_sites, dtype=bool)
    region = np.asarray(region, dtype=bool)
    if not region.any():
        raise EmptyMaskError("sigma region is empty")
    bvals = b.site_values
    if np.any(bvals[region] <= 0):
        raise InvalidSpecError("field intensity must be positive on the region")

    veigs = potential.eigenvalues  # (n_sites, r)
    vmin_all = float(veigs[region].min())
    bmin_all = float(bvals[region].min())
    branches = []
    for comp in _region_components(lattice, region):
        bc = bvals[comp]
        vc = veigs[comp]
        k = 0
        while landau_level(k, bmin_all, vmin_all) <= cutoff:
            lam = landau_level(k, bc[:, None], vc)
            lo = lam.min(axis=0)
            hi = lam.max(axis=0)
            for mu in range(vc.shape[1]):
                if lo[mu] <= cutoff:
                    branches.append((k, mu, float(lo[mu]),
                                     float(min(hi[mu], cutoff))))
            k += 1
    merged = _merge(branches, cutoff)
    return SigmaUnion(intervals=merged, branches=sorted(set(branches)),
                      cutoff=float(cutoff))


@dataclass
class InterfaceSet:
    """Sites whose local levels meet the window, with distances and complement."""

    mask: np.ndarray
    omega: np.ndarray
    distance: DistanceField
    lattice: object


def levels_in_window(b, v, window):
    """Whether some level (2k+1) b + V_mu, k >= 0, lies in the closed window.

    ``b`` holds the field intensity at each point and ``v`` the potential
    branches there, shape (points, branches); one boolean per point.  This
    is the one level test behind the interface set and its sizing radius.
    """
    a_win, b_win = window
    b = np.asarray(b, dtype=float)[:, None]
    # smallest k with (2k+1) b + V >= a_win, clamped at 0
    k_lo = np.maximum(np.ceil((a_win - v - b) / (2.0 * b)), 0.0)
    return (landau_level(k_lo, b, v) <= b_win).any(axis=1)


def interface_set(lattice, b, potential, window, cutoff):
    """Sites where some level (2k+1) b + V_mu lands in the window."""
    a_win, b_win = float(window[0]), float(window[1])
    if not (a_win < b_win):
        raise WindowError(f"window [{a_win}, {b_win}] is empty")
    if b_win > cutoff:
        raise WindowError(f"window top {b_win} exceeds the cutoff {cutoff}")
    mask = levels_in_window(b.site_values, potential.eigenvalues,
                            (a_win, b_win))
    omega = ~mask
    if mask.any():
        dist = distance_to_set(lattice, mask)
    else:
        dist = DistanceField(values=np.full(lattice.n_sites, np.inf),
                             lattice=lattice)
    return InterfaceSet(mask=mask, omega=omega, distance=dist,
                        lattice=lattice)


def dist_to_sigma(lam, sigma):
    """Distance from an energy to the merged interval union (0 if inside)."""
    return float(distances_to_sigma(np.array([lam]), sigma)[0])


def distances_to_sigma(lams, sigma):
    """Vectorized distance from energies to the union."""
    if not sigma.intervals:
        raise EmptySetError("spectral union is empty")
    lams = np.asarray(lams, dtype=float)
    los, his = sigma.bounds
    below = los[None, :] - lams[:, None]
    above = lams[:, None] - his[None, :]
    per_interval = np.maximum(np.maximum(below, above), 0.0)
    return per_interval.min(axis=1)


def find_gaps(sigma):
    """Maximal open intervals between consecutive merged intervals."""
    if not sigma.intervals:
        raise EmptySetError("spectral union is empty")
    gaps = []
    for (lo1, hi1, _), (lo2, hi2, _) in zip(sigma.intervals, sigma.intervals[1:]):
        if lo2 > hi1:
            gaps.append((hi1, lo2))
    return gaps
