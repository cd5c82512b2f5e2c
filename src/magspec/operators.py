"""Assembly of the discretized semiclassical magnetic Schrodinger operator.

The operator acts on sections with ``rank`` components per site and reads

    (H u)_i = (1/(p h^2)) * sum over axis neighbors j of (u_i - u(i->j) u_j)
              + V(i) u_i

with a 5-point stencil, the 1/p prefactor folded in, and Peierls link phases
u(i->j).  On the Dirichlet rectangle the out-of-domain neighbors contribute
implicit zeros (they still count in the diagonal).
"""

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConsistencyError
from .lattice import Lattice

@dataclass
class SparseHermitian:
    """Sparse Hermitian operator with block structure for rank-r sections."""

    matrix: sp.csr_matrix
    p: int
    rank: int
    lattice: Lattice | None = None
    provenance: str = ""
    # its rotation orbits and defect bounds (``solvers``), built on first
    # use; ``replace`` starts a new operator without them
    orbit_table: object = field(default=None, init=False, repr=False,
                                compare=False)

    @property
    def n(self):
        return self.matrix.shape[0]


def _provenance(links, potential, p):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(links.phases).tobytes())
    digest.update(np.ascontiguousarray(potential.values).tobytes())
    digest.update(struct.pack("<q", p))
    return digest.hexdigest()[:16]


def assemble_H(lattice, links, potential, p):
    """Assemble the Hermitian operator from links and potential at power p."""
    p = int(p)
    if links.p != p:
        raise ConsistencyError(f"links built at p = {links.p}, requested p = {p}")
    if links.lattice.n_sites != lattice.n_sites or links.phases.size != lattice.n_edges:
        raise ConsistencyError("links do not match the lattice")
    if potential.lattice.n_sites != lattice.n_sites:
        raise ConsistencyError("potential does not match the lattice")

    r = potential.rank
    n_sites = lattice.n_sites
    dim = n_sites * r
    h = lattice.spacing
    diag_kin = 4.0 / h**2 / p
    hop = -(1.0 / (p * h**2)) * links.u
    src, dst = lattice.edge_src, lattice.edge_dst

    # COO triplets, written in place: the diagonal blocks kinetic degree
    # * Id + V(i), the hopping blocks (scalar multiples of the identity in
    # the fiber), then their adjoints
    nd, ne = n_sites * r * r, src.size * r
    rows = np.empty(nd + 2 * ne, dtype=np.int64)
    cols = np.empty_like(rows)
    vals = np.empty(rows.size, dtype=complex)
    a, b = np.divmod(np.arange(r * r), r)
    base = np.arange(n_sites)[:, None] * r
    rows[:nd] = (base + a).ravel()
    cols[:nd] = (base + b).ravel()
    vals[:nd] = (potential.values + diag_kin * np.eye(r)).ravel()
    hop_rows, hop_cols = rows[nd:nd + ne], cols[nd:nd + ne]
    comp = np.arange(r)
    np.add(src[:, None] * r, comp, out=hop_rows.reshape(-1, r))
    np.add(dst[:, None] * r, comp, out=hop_cols.reshape(-1, r))
    vals[nd:nd + ne].reshape(-1, r)[:] = hop[:, None]
    rows[nd + ne:], cols[nd + ne:] = hop_cols, hop_rows
    np.conj(vals[nd:nd + ne], out=vals[nd + ne:])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return SparseHermitian(matrix=mat, p=p, rank=r, lattice=lattice,
                           provenance=_provenance(links, potential, p))


def gershgorin_interval(op):
    """Enclosing disc union [lo, hi] for the (Hermitian) spectrum."""
    d = op.matrix.diagonal().real
    absrow = np.asarray(np.abs(op.matrix).sum(axis=1)).ravel()
    radius = absrow - np.abs(op.matrix.diagonal())
    return float(np.min(d - radius)), float(np.max(d + radius))


def hermiticity_defect(op):
    """max |H - H*| over entries, for invariant checks."""
    diff = op.matrix - op.matrix.getH()
    return 0.0 if diff.nnz == 0 else float(np.abs(diff.data).max())
