"""Discretized 2D base geometries: flat torus and Dirichlet-truncated rectangle.

Sites are indexed row-major, ``site = iy * site_nx + ix``.  On the torus every
site has 4 axis neighbors with wrapping; on the rectangle the stored sites are
the interior grid points and the boundary carries implicit zero values (no
ghost sites are stored, so operator dimensions equal the interior site count).

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
    """Immutable container for a discretized torus or Dirichlet rectangle.

    ``nx``/``ny`` count grid cells per axis, so ``spacing = extent / n``.
    Torus stores nx*ny sites at (ix*hx, iy*hy); the rectangle stores the
    (nx-1)*(ny-1) interior points, shifted so the domain center sits at the
    coordinate origin.
    """

    kind: str
    extent_x: float
    extent_y: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.kind not in (TORUS, RECTANGLE):
            raise InvalidSpecError(f"unknown lattice kind {self.kind!r}")
        if not (self.extent_x > 0 and self.extent_y > 0):
            raise InvalidSpecError("lattice extents must be positive")
        if self.nx < 2 or self.ny < 2:
            raise InvalidSpecError("nx, ny must be at least 2")

    @property
    def spacing_x(self):
        return self.extent_x / self.nx

    @property
    def spacing_y(self):
        return self.extent_y / self.ny

    @property
    def is_torus(self):
        return self.kind == TORUS

    @property
    def site_nx(self):
        return self.nx if self.is_torus else self.nx - 1

    @property
    def site_ny(self):
        return self.ny if self.is_torus else self.ny - 1

    @property
    def n_sites(self):
        return self.site_nx * self.site_ny

    @property
    def cell_area(self):
        return self.spacing_x * self.spacing_y

    @cached_property
    def positions(self):
        """(n_sites, 2) site coordinates."""
        ix = np.arange(self.site_nx)
        iy = np.arange(self.site_ny)
        gx, gy = np.meshgrid(ix, iy)  # shape (site_ny, site_nx)
        if self.is_torus:
            x = gx * self.spacing_x
            y = gy * self.spacing_y
        else:
            # interior points of [0, Lx] x [0, Ly], recentered to the origin
            x = (gx + 1) * self.spacing_x - self.extent_x / 2
            y = (gy + 1) * self.spacing_y - self.extent_y / 2
        return np.column_stack([x.ravel(), y.ravel()])

    def site_index(self, ix, iy):
        return iy * self.site_nx + ix

    @cached_property
    def rotation(self):
        """Site permutation of the quarter turn (x, y) -> (-y, x), or None.

        ``rotation[s]`` is the site that s turns into: (ix, iy) goes to
        (site_nx - 1 - iy, ix).  Defined only on a square rectangle, whose
        sites are centred at the origin; None on the torus and on a
        non-square rectangle.
        """
        if self.is_torus or self.nx != self.ny \
                or self.extent_x != self.extent_y:
            return None
        gx, gy = np.meshgrid(np.arange(self.site_nx), np.arange(self.site_ny))
        return self.site_index(self.site_nx - 1 - gy, gx).ravel()

    @cached_property
    def reflection(self):
        """Site permutation of the diagonal reflection (x, y) -> (y, x), or
        None where ``rotation`` is None.

        ``reflection[s]`` is the site that s reflects to: (ix, iy) goes to
        (iy, ix).  It is an involution.
        """
        if self.rotation is None:
            return None
        gx, gy = np.meshgrid(np.arange(self.site_nx), np.arange(self.site_ny))
        return self.site_index(gy, gx).ravel()

    def _neighbors(self, dx, dy):
        """Each site's neighbour at grid offset (dx, dy), in row-major order.

        Returns (src, dst, wraps).  On the torus every site is a source and
        its neighbour wraps around the edges (``wraps`` marks those); on the
        rectangle only sites whose neighbour is stored are sources.
        """
        snx, sny = self.site_nx, self.site_ny
        gx, gy = np.meshgrid(np.arange(snx), np.arange(sny))
        tx, ty = gx.ravel() + dx, gy.ravel() + dy
        outside = (tx < 0) | (tx >= snx) | (ty < 0) | (ty >= sny)
        src = np.arange(self.n_sites) if self.is_torus \
            else np.flatnonzero(~outside)
        dst = self.site_index(tx[src] % snx, ty[src] % sny)
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
        lut = np.full((self.n_sites, 2), -1, dtype=np.int64)
        lut[self.edge_src, self.edge_axis] = np.arange(self.n_edges)
        return lut

    @cached_property
    def plaquette_corner_sites(self):
        """Lower-left corner site of each unit cell with four stored corners."""
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

    @cached_property
    def plaquette_centers(self):
        """(n_plaquettes, 2) coordinates of unit-cell centers."""
        base = self.positions[self.plaquette_corner_sites]
        return base + 0.5 * np.array([self.spacing_x, self.spacing_y])

    @property
    def n_plaquettes(self):
        return self.plaquettes.shape[0]

    def grid(self, site_values):
        """Reshape per-site values to the (site_ny, site_nx) grid."""
        return np.asarray(site_values).reshape(self.site_ny, self.site_nx)

    def boundary_distance(self):
        """Euclidean distance to the Dirichlet wall; +inf on the torus."""
        if self.is_torus:
            return np.full(self.n_sites, np.inf)
        pos = self.positions
        dx = self.extent_x / 2 - np.abs(pos[:, 0])
        dy = self.extent_y / 2 - np.abs(pos[:, 1])
        return np.minimum(dx, dy)


@dataclass
class DistanceField:
    """Geodesic lattice distance to a target site mask (chamfer metric)."""

    values: np.ndarray
    lattice: Lattice


def build_lattice(kind, extent_x, extent_y, nx, ny):
    """Construct a lattice, validating extents and grid counts."""
    return Lattice(kind=kind, extent_x=float(extent_x), extent_y=float(extent_y),
                   nx=int(nx), ny=int(ny))


def _chamfer_graph(lattice):
    """Undirected 8-neighbor graph with physical edge lengths as weights."""
    hx, hy = lattice.spacing_x, lattice.spacing_y
    hd = float(np.hypot(hx, hy))
    rows, cols, data = [], [], []
    for dx, dy, w in [(1, 0, hx), (0, 1, hy), (1, 1, hd), (1, -1, hd)]:
        src, dst, _ = lattice._neighbors(dx, dy)
        rows.append(src)
        cols.append(dst)
        data.append(np.full(src.size, w))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def distance_to_set(lattice, mask):
    """Multi-source shortest-path distance to the masked sites.

    Chamfer 8-neighbor metric with axis weights hx, hy and diagonal weight
    hypot(hx, hy); wraps on the torus.  Exact on the lattice graph, and a
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
