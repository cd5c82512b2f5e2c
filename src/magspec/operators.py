"""Assembly of the discretized semiclassical magnetic Schrodinger operator.

The operator acts on sections with ``rank`` components per site and reads

    (H u)_i = (1/(p h^2)) * sum over axis neighbors j of (u_i - u(i->j) u_j)
              + V(i) u_i

with a 5-point stencil, the 1/p prefactor folded in, and Peierls link phases
u(i->j).  On the Dirichlet rectangle the out-of-domain neighbors contribute
implicit zeros (they still count in the diagonal).  Exponential-weight
conjugations and their exact first/second Taylor coefficients in the weight
strength are provided alongside.
"""

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import (ConjugationOverflowError, ConsistencyError)
from .lattice import Lattice

@dataclass
class SparseHermitian:
    """Sparse operator with block structure for rank-r sections.

    ``hermitian`` is an explicit flag because weight-conjugated instances are
    deliberately non-Hermitian while sharing the same storage.
    """

    matrix: sp.csr_matrix
    p: int
    rank: int
    hermitian: bool
    lattice: Lattice | None = None
    provenance: str = ""

    @property
    def n(self):
        return self.matrix.shape[0]

    def copy(self):
        return replace(self, matrix=self.matrix.copy())


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
    hx, hy = lattice.spacing_x, lattice.spacing_y
    diag_kin = (2.0 / hx**2 + 2.0 / hy**2) / p
    w_axis = np.array([1.0 / (p * hx**2), 1.0 / (p * hy**2)])

    u = links.u
    src, dst = lattice.edge_src, lattice.edge_dst
    hop = -w_axis[lattice.edge_axis] * u

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
    return SparseHermitian(matrix=mat, p=p, rank=r,
                           hermitian=True, lattice=lattice,
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


def conjugate_H(op, weight, tau, p, guard=30.0):
    """Diagonal similarity exp(tau sqrt(p) Phi) H exp(-tau sqrt(p) Phi).

    Exact per stored entry: entry(i,j) *= exp(tau sqrt(p) (Phi_i - Phi_j)),
    so the spectrum is preserved while off-diagonal magnitudes tilt.  The
    result is flagged non-Hermitian unless tau = 0, which returns an
    identical copy.
    """
    p = int(p)
    if p != op.p:
        raise ConsistencyError(f"operator at p = {op.p}, weight conjugation at p = {p}")
    if weight.values.size * op.rank != op.n:
        raise ConsistencyError("weight field does not match the operator dimension")
    if not np.isfinite(tau):
        raise ConsistencyError("tau must be finite")
    if tau == 0.0:
        return op.copy()

    coo = op.matrix.tocoo()
    site = np.arange(op.n) // op.rank
    s = tau * np.sqrt(p) * weight.values
    expo = s[site[coo.row]] - s[site[coo.col]]
    worst = np.abs(expo).max() if expo.size else 0.0
    if worst > guard:
        raise ConjugationOverflowError(
            f"max |tau sqrt(p) dPhi| = {worst:.3g} exceeds {guard}; rescale "
            f"tau or smooth the weight")
    data = coo.data * np.exp(expo)
    mat = sp.csr_matrix((data, (coo.row, coo.col)), shape=op.matrix.shape)
    mat.sort_indices()
    return replace(op, matrix=mat, hermitian=False)


def taylor_terms(op, weight, p):
    """Exact first and second derivative terms of the conjugation in tau.

    With s = sqrt(p) (Phi_i - Phi_j) per entry, the conjugated operator is
    H_ij exp(tau s) = H_ij (1 + tau s + tau^2 s^2 / 2 + ...), so

        A(i, j) = p H_ij (Phi_i - Phi_j)     (anti-Hermitian, zero diagonal)
        B(i, j) = (p/2) H_ij (Phi_i - Phi_j)^2   (Hermitian, zero diagonal)

    reproduce the conjugation as H + (tau/sqrt(p)) A + tau^2 B + O(tau^3).
    """
    p = int(p)
    if p != op.p:
        raise ConsistencyError(f"operator at p = {op.p}, taylor terms at p = {p}")
    if weight.values.size * op.rank != op.n:
        raise ConsistencyError("weight field does not match the operator dimension")

    coo = op.matrix.tocoo()
    site = np.arange(op.n) // op.rank
    dphi = weight.values[site[coo.row]] - weight.values[site[coo.col]]
    a_mat = sp.csr_matrix((p * coo.data * dphi, (coo.row, coo.col)),
                          shape=op.matrix.shape)
    b_mat = sp.csr_matrix((0.5 * p * coo.data * dphi**2, (coo.row, coo.col)),
                          shape=op.matrix.shape)
    a_mat.sort_indices()
    b_mat.sort_indices()
    a = replace(op, matrix=a_mat, hermitian=False)
    b = replace(op, matrix=b_mat, hermitian=op.hermitian)
    return a, b

