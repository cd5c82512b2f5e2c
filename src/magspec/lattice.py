"""Discretized 2D base geometries: flat torus and Dirichlet-truncated square.

Both are square grids: one side length and one cell count for both axes,
the only shapes the sizing rules plan.  Sites are indexed row-major,
``site = iy * site_nx + ix``, in int32 index arrays.  On the torus every
site has 4 axis neighbors with wrapping; on the Dirichlet square (kind
``rectangle_dirichlet``) the stored sites are the interior grid points and
the boundary carries implicit zero values (no ghost sites are stored, so
operator dimensions equal the interior site count).  Only the sites'
positions and edges are kept: the symmetry permutations and plaquette
corners are built on each read.

Also provides geodesic distance fields to a target site set (8-neighbor
chamfer metric, wrap-aware on the torus).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import ConsistencyError, EmptyMaskError, InvalidSpecError

TORUS = "torus"
RECTANGLE = "rectangle_dirichlet"


@dataclass
class Lattice:
    """Immutable container for a discretized torus or Dirichlet square.

    ``nx`` counts grid cells per axis, so ``spacing = extent / nx``.  Torus
    stores nx*nx sites at (ix*h, iy*h); the rectangle stores the
    (nx-1)*(nx-1) interior points, shifted so the domain center sits at the
    coordinate origin.
    """

    kind: str
    extent: float
    nx: int

    def __post_init__(self):
        if self.kind not in (TORUS, RECTANGLE):
            raise InvalidSpecError(f"unknown lattice kind {self.kind!r}")
        if not self.extent > 0:
            raise InvalidSpecError("lattice extent must be positive")
        if self.nx < 2:
            raise InvalidSpecError("nx must be at least 2")

    @property
    def spacing(self):
        return self.extent / self.nx

    @property
    def is_torus(self):
        return self.kind == TORUS

    @property
    def site_nx(self):
        return self.nx if self.is_torus else self.nx - 1

    @property
    def n_sites(self):
        return self.site_nx ** 2

    @cached_property
    def positions(self):
        """(n_sites, 2) site coordinates."""
        gy, gx = np.indices((self.site_nx,) * 2)
        g = np.column_stack([gx.ravel(), gy.ravel()])
        if self.is_torus:
            return g * self.spacing
        # interior points of [0, L] x [0, L], recentered to the origin
        return (g + 1) * self.spacing - self.extent / 2

    def site_index(self, ix, iy):
        return iy * self.site_nx + ix

    def _grid_indices(self):
        """(iy, ix) of every site, each a (site_nx, site_nx) grid."""
        return np.indices((self.site_nx,) * 2, dtype=np.int32)

    @property
    def rotation(self):
        """Site permutation of the quarter turn (x, y) -> (-y, x), or None.

        ``rotation[s]`` is the site that s turns into: (ix, iy) goes to
        (site_nx - 1 - iy, ix).  Defined only on the Dirichlet square, whose
        sites are centred at the origin; None on the torus.  Built on each
        read and not kept: the orbit table reads it once per operator.
        """
        if self.is_torus:
            return None
        gy, gx = self._grid_indices()
        return self.site_index(self.site_nx - 1 - gy, gx).ravel()

    @property
    def reflection(self):
        """Site permutation of the diagonal reflection (x, y) -> (y, x), or
        None where ``rotation`` is None.

        ``reflection[s]`` is the site that s reflects to: (ix, iy) goes to
        (iy, ix).  It is an involution.  Built on each read, like
        ``rotation``.
        """
        if self.is_torus:
            return None
        gy, gx = self._grid_indices()
        return self.site_index(gy, gx).ravel()

    def _neighbors(self, dx, dy):
        """Each site's neighbour at grid offset (dx, dy), in row-major order.

        Returns (src, dst, wraps).  On the torus every site is a source and
        its neighbour wraps around the edges (``wraps`` marks those); on the
        rectangle only sites whose neighbour is stored are sources.
        """
        n = self.site_nx
        gy, gx = self._grid_indices()
        tx, ty = gx.ravel() + dx, gy.ravel() + dy
        outside = (tx < 0) | (tx >= n) | (ty < 0) | (ty >= n)
        src = np.arange(self.n_sites, dtype=np.int32) if self.is_torus \
            else np.flatnonzero(~outside).astype(np.int32)
        dst = self.site_index(tx[src] % n, ty[src] % n)
        return src, dst, outside[src]

    @cached_property
    def _edges(self):
        """Directed axis edges (+x first, then +y), each stored once.

        Returns (src, dst, axis, wraps); see ``_neighbors``.
        """
        x, y = self._neighbors(1, 0), self._neighbors(0, 1)
        axis = np.repeat(np.arange(2, dtype=np.int8), [x[0].size, y[0].size])
        src, dst, wraps = (np.concatenate(pair) for pair in zip(x, y))
        return src, dst, axis, wraps

    @property
    def edge_src(self):
        return self._edges[0]

    @property
    def edge_dst(self):
        return self._edges[1]

    @property
    def edge_axis(self):
        return self._edges[2]

    @property
    def edge_wraps(self):
        return self._edges[3]

    @property
    def n_edges(self):
        return self.edge_src.size

    @cached_property
    def _edge_lookup(self):
        """Map (src, axis) -> edge index; every site has at most one +x/+y edge."""
        lut = np.full((self.n_sites, 2), -1, dtype=np.int32)
        lut[self.edge_src, self.edge_axis] = np.arange(self.n_edges)
        return lut

    @property
    def plaquette_corner_sites(self):
        """Lower-left corner site of each unit cell with four stored corners,
        built on each read."""
        return self._neighbors(1, 1)[0]

    @cached_property
    def plaquettes(self):
        """Edge indices (bottom, right, top, left) of each unit cell.

        Counterclockwise circulation is bottom + right - top - left.  Only
        cells whose four corners are stored sites are enumerated.
        """
        lut = self._edge_lookup
        i00 = self.plaquette_corner_sites
        bottom, left = lut[i00, 0], lut[i00, 1]
        right = lut[self.edge_dst[bottom], 1]
        top = lut[self.edge_dst[left], 0]
        return np.column_stack([bottom, right, top, left])

    @property
    def plaquette_centers(self):
        """(n_plaquettes, 2) coordinates of unit-cell centers, built on each
        read: ``sample_field`` reads them once per lattice."""
        base = self.positions[self.plaquette_corner_sites]
        return base + 0.5 * self.spacing

    @property
    def n_plaquettes(self):
        return self.plaquettes.shape[0]

    def grid(self, site_values):
        """Reshape per-site values to the (site_nx, site_nx) grid, row iy."""
        return np.asarray(site_values).reshape(self.site_nx, self.site_nx)

    def boundary_distance(self):
        """Euclidean distance to the Dirichlet wall; +inf on the torus."""
        if self.is_torus:
            return np.full(self.n_sites, np.inf)
        return self.extent / 2 - np.abs(self.positions).max(axis=1)


@dataclass
class DistanceField:
    """Geodesic lattice distance to a target site mask (chamfer metric)."""

    values: np.ndarray
    lattice: Lattice


def build_lattice(kind, extent, nx):
    """Construct a square lattice, validating its extent and grid count."""
    return Lattice(kind=kind, extent=float(extent), nx=int(nx))


def _chamfer_graph(lattice):
    """Undirected 8-neighbor graph with physical edge lengths as weights."""
    h = lattice.spacing
    hd = float(np.hypot(h, h))
    rows, cols, data = [], [], []
    for dx, dy, w in [(1, 0, h), (0, 1, h), (1, 1, hd), (1, -1, hd)]:
        src, dst, _ = lattice._neighbors(dx, dy)
        rows.append(src)
        cols.append(dst)
        data.append(np.full(src.size, w))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def distance_to_set(lattice, mask):
    """Multi-source shortest-path distance to the masked sites.

    Chamfer 8-neighbor metric with axis weight h and diagonal weight
    hypot(h, h); wraps on the torus.  Exact on the lattice graph, and a
    known <= 8% overestimate of the continuum Euclidean/geodesic distance.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (lattice.n_sites,):
        raise ConsistencyError("mask length does not match the lattice")
    if not mask.any():
        raise EmptyMaskError("distance target mask is empty")

    n = lattice.n_sites
    rows, cols, data = _chamfer_graph(lattice)
    # virtual source n wired to every target site with zero-weight edges
    targets = np.flatnonzero(mask)
    rows = np.concatenate([rows, np.full(targets.size, n)])
    cols = np.concatenate([cols, targets])
    data = np.concatenate([data, np.zeros(targets.size)])
    graph = sp.coo_matrix((data, (rows, cols)), shape=(n + 1, n + 1)).tocsr()
    dist = dijkstra(graph, directed=False, indices=n)
    return DistanceField(values=dist[:n], lattice=lattice)
