"""Eigensolvers: a dense oracle, certified windows, the norm-bound certificate.

All returned residuals are recomputed from the matrix, never trusted from
the solver.  Interior windows are solved by shift-invert Krylov iteration at
the window midpoint; completeness is certified by inertia counts (Sylvester's
law) at the window ends and checked against the count at the midpoint.  Each
shift gets one symmetric-mode diagonal-pivot factorization of H - sigma,
which serves both its inertia count and every shift-invert solve there.

The Krylov solve asks for exactly the certified count c(beta) - c(alpha):
at the midpoint shift those are the eigenvalues of largest |1/(lambda -
sigma)|, so extra pairs would all lie outside the window, typically in the
dense, nearly degenerate band beyond a gap, where ARPACK pays most to
converge them.  Only a shortfall grows k.  A slice records its final k and
the growth rounds; a certificate that falls back to heuristic says why in
``downgrade``.  Start vectors are seeded, so runs are reproducible.

``window_eigs`` solves one invariant block of H at a time, each the range
of an isometry B.  An operator on the Dirichlet square centred at the origin
may commute with the quarter turn R, (x, y) -> (-y, x) (a radial field in
the symmetric gauge and a radial potential do); its blocks are then the
four rotation sectors.  Each orbit s, Rs, R^2 s, R^3 s of indices gives the
column 1/2 sum_j i^(-mj) e_(R^j s) of the isometry B_m onto the eigenspace
i^m of R (m = 0..3; the origin's components belong to m = 0 only).  Every
other operator is one block, the whole space.  Each block gets the window
solve above, on B_m^H H B_m (about N/4 in size) for a sector, with its own
counts, certificate and growth loop; sector m's start vector is seeded from
(seed, m).  That matrix is built over two column halves of B_m, so the
N x N/4 product H B_m, the largest array of a sector solve, is never
whole.  One finishing step turns a block's in-window pairs into a slice:
it sorts them, orthonormalizes degenerate clusters in block space and
computes every residual on the full H from the pairs mapped by B_m; the
residual check and the midpoint count check then read those full-H
residuals.  Blocks merge by sorting their pairs only: every vector stays
in its block's coordinates, beside the block's isometry, and
``SpectrumSlice.column`` maps one pair at a time, so no N x k array is
made (a sector's real vectors take 1/8 of its complex lattice columns).
One cluster QR is enough: the B_m are isometries with mutually orthogonal
ranges, so vectors orthonormal within a block stay orthonormal after
mapping, and orthogonal to every other block's.

A sector matrix is real symmetric when H also commutes with the
antiunitary T = conj S, S the index permutation of the diagonal reflection
(x, y) -> (y, x): the reflection reverses the field and the conjugation
restores it, which holds on the radial presets.  Since S R S = R^-1 and R
is real, T maps each rotation sector to itself, and B_m^H S conj(B_m) is a
phase times a column permutation: T b_c = phi_c b_c', c' the column whose
orbit S maps c's orbit onto, with phi_c' = phi_c because T^2 = 1.  A
T-fixed column (c' = c) gives the basis vector sqrt(phi_c) b_c; a pair c <
c' gives (b_c + phi_c b_c') / sqrt 2 and i (b_c - phi_c b_c') / sqrt 2.
These are T-fixed, so <w, H w'> = conj <Tw, T H w'> = conj <w, H w'> is
real: in the isometry W_m = B_m Q_m the sector matrix is real symmetric,
and it is solved with a real factor and real Lanczos (ARPACK's symmetric
driver; a complex matrix goes to its Arnoldi driver) from a real start
vector seeded from (seed, m).

The sectors are guarded by the commutation defect D = P H P^T - H (P the
index permutation of R), bounded by its largest absolute row sum, which is
at least ||D||_2 for Hermitian D.  They are used only when that bound is at
most ``C4_DEFECT_FRACTION`` * tol.  Together the four sector matrices are
unitarily similar to the pinching H_R = sum_m Pi_m H Pi_m of H onto the
eigenspaces of R, which equals the rotation average 1/4 sum_j R^j H R^-j.
Each R^j H R^-j - H is a sum of j conjugated copies of D, and of one for
j = 3 (R^3 = R^-1), so ||H_R - H|| <= (0 + 1 + 2 + 1) ||D|| / 4 = ||D||.
The real sectors are taken only when the reflection defect D_T =
conj(S H S) - H = T H T^-1 - H, bounded the same way, is within the same
guard.  Then each sector matrix is the real part of W_m^H H W_m, the
block of the T average H_T = (H + T H T^-1) / 2 = H + D_T / 2; the four
blocks are unitarily similar to its pinching (H_T)_R, and since a pinching
is a contraction, ||(H_T)_R - H|| <= ||D_T|| / 2 + ||D|| <= ||D|| + ||D_T||.
By Weyl's inequality each eigenvalue of the union of the sector spectra
lies within that bound of the same-index eigenvalue of H, so each inertia
count of the sectors at a shift lies between the counts of H at that shift
moved down and up by the bound.  Counts and certificates are therefore
exact up to a shift below 2e-6 tol, far below the residual tolerance: the
same ambiguity every pair within its residual of a window end already
has.  A pair's full-H residual differs from its sector residual by at most
the same bound, so the midpoint check keeps its meaning, and a wrong
sector basis cannot pass.  Every sector matrix is a compression of H or of
H_T, both with the spectrum range of H, so no sector eigenvalue lies below
the Gershgorin bound of H: a window that starts below it needs no count
there.  The slice records ``symmetry`` ("C4+T", "C4" or "none") and
``symmetry_defect`` (the bound used, ||D|| + ||D_T|| or ||D||, or None
without a rotation).
"""

import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DenseSizeError, WindowError
from .operators import gershgorin_interval

DENSE_GUARD = 4096
CERTIFIED = "certified"
HEURISTIC = "heuristic"
COUNT_MISMATCH = "count mismatch"
C4 = "C4"
C4_T = "C4+T"
NO_SYMMETRY = "none"

# the sector path needs the rotation defect bound, and its real form the
# reflection defect bound, each at most this fraction of tol; the measured
# bounds are about 1e-8 tol and exactly 0 on the radial presets
C4_DEFECT_FRACTION = 1e-6

BSEV_MAGIC = b"BSEV"
BSEV_VERSION = 1
_BSEV = struct.Struct("<4sIQQ")  # header: magic, version, dimension, count

_SEED_BASE = 0xB05E


@dataclass
class SpectrumSlice:
    """Eigenpairs sorted ascending with a completeness certificate.

    The vectors stay in the coordinates of the blocks they were solved in;
    ``column(i)`` maps pair i to the lattice.
    """

    values: np.ndarray
    residuals: np.ndarray
    certificate: str
    # per block (isometry onto its range, or None for the whole space; its
    # pairs' block-space vectors as columns, unit norm)
    blocks: list
    block: np.ndarray | None = None  # each pair's block (None: all in 0)
    index: np.ndarray | None = None  # its column there (None: the pair's)
    tol: float = 0.0
    downgrade: str | None = None  # why the certificate is only heuristic
    krylov_k: int | None = None   # pairs the final Krylov solve asked for
    growth_rounds: int = 0        # times a shortfall made the solve grow k
    symmetry: str = NO_SYMMETRY   # C4 or C4+T when solved by rotation sector
    symmetry_defect: float | None = None  # None without a quarter turn

    def __post_init__(self):
        if self.block is None:
            self.block = np.zeros(self.values.size, dtype=np.intp)
            self.index = np.arange(self.values.size)

    def __len__(self):
        return self.values.size

    @property
    def dim(self):
        """Length of a lattice vector."""
        basis, vectors = self.blocks[0]
        return (vectors if basis is None else basis).shape[0]

    def column(self, i):
        """Pair i's vector on the lattice, ``basis @ v`` from its block."""
        basis, vectors = self.blocks[self.block[i]]
        v = vectors[:, self.index[i]]
        return v if basis is None else basis @ v

    def select(self, keep):
        """The pairs ``keep``, sharing this slice's block vectors."""
        keep = np.asarray(keep)
        return replace(self, values=self.values[keep],
                       residuals=self.residuals[keep],
                       block=self.block[keep], index=self.index[keep])


def default_tol(op):
    lo, hi = gershgorin_interval(op)
    return 1e-8 * max(1.0, abs(lo), abs(hi))


def _start_vector(n, seed, sector, dtype):
    entropy = _SEED_BASE + int(seed)
    rng = np.random.default_rng(entropy if sector is None
                                else [entropy, sector])
    v = rng.standard_normal(n)
    if np.issubdtype(dtype, np.complexfloating):
        v = v + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _residuals(op, values, vectors, basis=None):
    """Full-H residual norms of the pairs with vectors ``basis @ vectors``
    (None: ``vectors``), two columns at a time (the last three together).

    No N x k temporary is made, only N x 2 ones.  Each chunk holds at least
    two columns of a matrix of two or more, because numpy sums a lone column
    pairwise; so every norm equals the whole matrix's bit for bit.
    """
    k = values.size
    norms = np.empty(k)
    edges = np.append(np.arange(0, max(k - 1, 1), 2), k)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mapped = vectors[:, lo:hi] if basis is None \
            else basis @ vectors[:, lo:hi]
        resid = op.matrix @ mapped - mapped * values[None, lo:hi]
        norms[lo:hi] = np.linalg.norm(resid, axis=0)
    return norms


def _orthonormalize_clusters(values, vectors):
    """QR within numerically degenerate eigenvalue groups.

    The Krylov backend returns eigenvectors that need not be mutually
    orthogonal inside an exactly degenerate cluster; re-orthonormalizing the
    cluster block keeps each column an eigenvector (same invariant subspace)
    while restoring a clean Gram matrix.
    """
    n = values.size
    if n == 0:
        return vectors
    tol = 1e-9 * max(1.0, float(np.abs(values).max()))
    i = 0
    while i < n:
        j = i + 1
        while j < n and values[j] - values[j - 1] <= tol:
            j += 1
        if j - i > 1:
            q, _ = np.linalg.qr(vectors[:, i:j])
            vectors[:, i:j] = q
        i = j
    return vectors


def _finish(op, basis, values, vectors, certificate, tol=0.0, window=None):
    """Ascending slice of one block from its raw pairs: the pairs inside
    ``window`` (all without one), clusters orthonormalized in block space,
    residuals computed on the full H from the vectors mapped by ``basis``
    (None: the whole space).  The slice keeps the block-space vectors."""
    values = np.asarray(values)
    order = np.argsort(values)
    if window is not None:
        ascending = values[order]
        order = order[(ascending >= window[0]) & (ascending <= window[1])]
    values = values[order]
    vectors = _orthonormalize_clusters(values, np.asarray(vectors)[:, order])
    return SpectrumSlice(values=values,
                         residuals=_residuals(op, values, vectors, basis),
                         certificate=certificate, blocks=[(basis, vectors)],
                         tol=tol)


def _factor_shifted(op, sigma):
    """One factor of H - sigma, for its inertia and for shift-invert solves.

    SuperLU symmetric mode, MMD_AT_PLUS_A ordering, diagonal pivots: the
    signs of the real U diagonal give the inertia (Sylvester).  A singular
    factorization jitters the shift, up to three tries.  Returns (lu
    or None, shift used, negative pivots, None or why the count is untrusted).

    The diagonal is read from a full copy of ``lu.U``: scipy's ``SuperLU``
    object exposes only ``L``, ``U``, ``nnz``, ``perm_c``, ``perm_r``,
    ``shape`` and ``solve`` (checked on scipy 1.17), with no accessor for
    the pivots alone.
    """
    n = op.n
    shift = float(sigma)
    for attempt in range(3):
        mat = (op.matrix - shift * sp.identity(n, dtype=op.matrix.dtype,
                                               format="csr")).tocsc()
        try:
            lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        except RuntimeError:  # exactly singular at this shift
            lu = None
        d = np.zeros(1) if lu is None else lu.U.diagonal()
        if np.all(np.isfinite(d)) and np.all(d != 0):
            downgrade = None
            if not (np.array_equal(lu.perm_r, lu.perm_c)
                    or np.array_equal(lu.perm_r[lu.perm_c], np.arange(n))):
                downgrade = "off-diagonal pivot"
            elif np.abs(d.imag).max() > 1e-6 * np.abs(d.real).max():
                downgrade = "complex diagonal"
            return lu, shift, int(np.sum(d.real < 0)), downgrade
        shift += max(1e-10, 1e-10 * abs(shift)) * (attempt + 1)
    return None, shift, 0, "jitter retries exhausted"


def count_below(op, sigma):
    """Number of eigenvalues strictly below sigma, via inertia.

    Reads the signs off the same factor of H - sigma that shift-invert
    solves at sigma would use.  Returns (count, downgrade): downgrade is None
    when the count is trustworthy, else why it is not ("off-diagonal pivot",
    "complex diagonal" or "jitter retries exhausted").
    """
    return _factor_shifted(op, sigma)[2:]


def dense_spectrum(op):
    """Full spectral decomposition through a dense Hermitian solve."""
    if op.n > DENSE_GUARD:
        raise DenseSizeError(f"dimension {op.n} exceeds the dense guard "
                             f"{DENSE_GUARD}")
    w, u = sla.eigh(op.matrix.toarray())
    return _finish(op, None, w, u, CERTIFIED)


def window_eigs(op, window, tol=None, seed=0):
    """All eigenpairs inside [alpha, beta] by shift-invert at the midpoint.

    An open lower end, alpha = None, is 1e-6 below the Gershgorin bound of
    H.  Each block of the module docstring is solved alone.  Inertia counts
    at the two endpoints determine how many eigenvalues the block's window
    must hold (at an alpha below the Gershgorin bound, zero without a
    factorization).  The Krylov solve asks for exactly that many pairs, with
    no buffer: every eigenvalue inside the window is nearer the midpoint
    shift than any outside it, so the count names the wanted pairs, and a
    buffer would only converge unwanted ones beyond the window's ends.  A
    shortfall grows k to 2k + 8 and solves again; an untrusted count starts
    from 16 and never grows.  The one factor at the midpoint drives every
    solve and counts the pairs that must lie below it.  Factorization
    breakdown at a shift triggers up to three jitter retries.

    The slice is certified when every trusted count of every block matches
    the pairs found; ``downgrade`` is the first block's reason, and
    ``krylov_k`` and ``growth_rounds`` sum over the blocks.  The partial of
    a ``ConvergenceError`` holds the blocks solved so far and the failing
    block's partial pairs.
    """
    lowest = gershgorin_interval(op)[0]
    alpha = lowest - 1e-6 if window[0] is None else float(window[0])
    beta = float(window[1])
    if not alpha < beta:
        raise WindowError(f"window [{alpha}, {beta}] is empty")
    if tol is None:
        tol = default_tol(op)

    bases, symmetry, defect = _rotation_sectors(op, tol)
    blocks = [(None, None)] if bases is None else enumerate(bases)
    # no block eigenvalue lies below the Gershgorin bound of H
    open_below = alpha < lowest
    parts = []
    try:
        for sector, basis in blocks:
            parts.append(_block_solve(op, basis, symmetry == C4_T, sector,
                                      alpha, beta, open_below, tol, seed))
    except ConvergenceError as exc:
        if exc.partial is not None:
            parts.append(exc.partial)
        exc.partial = _merge(parts, symmetry, defect) if parts else None
        raise
    return _merge(parts, symmetry, defect)


def _block_solve(op, basis, real, sector, alpha, beta, open_below, tol, seed):
    """The window solve of op on the range of ``basis`` (None: the whole
    space), from a start vector seeded from (seed, sector); ``real`` keeps
    the real part of a block whose basis is T-fixed."""
    block = op if basis is None \
        else _hermitian_block(op, basis, real, op.matrix)
    c_lo, why_lo = 0, None
    if not open_below:
        c_lo, why_lo = count_below(block, alpha)
    c_hi, why_hi = count_below(block, beta)
    downgrade = why_lo or why_hi
    expected = c_hi - c_lo if downgrade is None else None

    if expected == 0:
        return SpectrumSlice(values=np.empty(0), residuals=np.empty(0),
                             certificate=CERTIFIED,
                             blocks=[(basis, np.empty((block.n, 0)))],
                             tol=tol, krylov_k=0)

    k = min(16 if expected is None else expected, block.n - 2)
    lu, shift, c_mid, why_mid = _factor_shifted(block, 0.5 * (alpha + beta))

    def finish(values, vectors, window=None):
        out = _finish(op, basis, values, vectors, HEURISTIC, tol, window)
        out.krylov_k, out.growth_rounds = k, rounds
        return out

    rounds = 0
    while True:
        w, u = _shift_invert(block, lu, shift, k, seed, sector, finish)
        got = int(np.sum((w >= alpha) & (w <= beta)))
        if expected is None or got >= expected or k >= block.n - 2:
            break
        k = min(2 * k + 8, block.n - 2)
        rounds += 1
    del lu  # free the factor before the residuals below

    out = finish(w, u, (alpha, beta))
    bad = out.residuals > tol
    if bad.any():
        raise ConvergenceError(
            f"{int(bad.sum())} window residuals exceed tol = {tol:.3g}",
            partial=out)
    # a pair within its residual of the shift may lie on either side of it
    below = (np.sum(out.values < shift - out.residuals),
             np.sum(out.values < shift + out.residuals))
    mid_ok = why_mid is not None or below[0] <= c_mid - c_lo <= below[1]
    if downgrade is None and not (got == expected and mid_ok):
        downgrade = COUNT_MISMATCH
    out.downgrade = downgrade
    out.certificate = HEURISTIC if downgrade else CERTIFIED
    return out


def _hermitian_block(op, left, real, matrix=None):
    """left^H matrix left (None: the identity) averaged with its adjoint, so
    exactly Hermitian, as a lattice-free op; ``real`` keeps the real part.

    Formed over the two column halves of ``left``, so ``matrix @ left`` is
    never whole.  SciPy's sparse mat-mat sums each entry in the same order
    whichever columns of the right factor are present, so the block equals
    the one-shot product bit for bit.
    """
    adjoint, n = left.conj().T, left.shape[1]
    half = sp.hstack([adjoint @ (cols if matrix is None else matrix @ cols)
                      for cols in (left[:, :n // 2], left[:, n // 2:])])
    block = 0.5 * (half + half.conj().T)
    return replace(op, matrix=(block.real if real else block).tocsr(),
                   lattice=None)


def _shift_invert(block, lu, shift, k, seed, sector, partial=None):
    """The k eigenvalues of ``block`` nearest ``shift`` (tol=0) on the factor
    ``lu`` of block - shift (None is refused), from the start vector seeded
    from (seed, sector).  With ``partial`` also the eigenvectors, and the
    ConvergenceError of ARPACK's failure carries ``partial(values, vectors)``
    of the converged pairs."""
    if lu is None:
        raise ConvergenceError(
            f"factorization failed at shift {shift:.6g} after jitters")
    dtype = block.matrix.dtype
    opinv = spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=dtype)
    v0 = _start_vector(block.n, seed, sector, dtype)
    try:
        return spla.eigsh(block.matrix, k=k, sigma=shift, which="LM", v0=v0,
                          tol=0, OPinv=opinv,
                          return_eigenvectors=partial is not None)
    except spla.ArpackNoConvergence as exc:
        got = partial(exc.eigenvalues, exc.eigenvectors) \
            if partial is not None and exc.eigenvalues.size else None
        raise ConvergenceError(f"shift-invert iteration did not converge at "
                               f"shift {shift:.6g}", partial=got) from exc


def norm_bound_certificate(op, support, lam, threshold, tol=None, seed=0):
    """The smallest singular value sigma_S of H - lam on the vectors
    supported in the site mask ``support``, certified against ``threshold``.

    With B = (H - lam)[:, S (x) C^r], sigma_S = min ||(H - lam) u|| / ||u||
    over u supported in S is sqrt(lambda_min(G)), G = B^H B.  One factor of
    G - threshold^2 gives the inertia (Sylvester): ``count`` singular values
    lie below ``threshold``, trusted unless ``downgrade`` says why not.  At a
    trusted count 0 the same factor drives a one-pair shift-invert solve,
    whose eigenvalue is sigma_S^2; otherwise the solve runs on a second
    factor at 0, where G's nearest eigenvalue is its smallest.

    On the rotation sectors that ``window_eigs`` takes at ``tol``, when S is
    invariant under the quarter turn, each sector column lies wholly inside
    S or wholly outside it, and the columns inside span the vectors
    supported in S.  G is then block diagonal in them: each block, real in a
    T-fixed basis, is counted and solved alone, the counts add up and
    sigma_S is the smallest block minimum; else G is one block.  Returns
    (sigma_S, count, downgrade, symmetry); only start vectors use ``seed``.
    """
    inside = np.repeat(support, op.rank)
    shifted = op.matrix - lam * sp.identity(op.n, dtype=op.matrix.dtype,
                                            format="csr")
    bases, symmetry, _ = _rotation_sectors(
        op, default_tol(op) if tol is None else tol)
    if bases is not None:
        bases = [basis[:, np.asarray(abs(basis[~inside]).sum(axis=0)).ravel()
                       == 0] for basis in bases]
    if bases is None or sum(b.shape[1] for b in bases) != inside.sum():
        bases, symmetry = [sp.identity(op.n, format="csc")[:, inside]], \
            NO_SYMMETRY
    sigma_s, count, downgrade = np.inf, 0, None
    for sector, basis in enumerate(bases):
        gram = _hermitian_block(op, shifted @ basis, symmetry == C4_T)
        lu, shift, c, why = _factor_shifted(gram, threshold ** 2)
        if c or why:
            del lu  # one factor alive at a time
            lu, shift = _factor_shifted(gram, 0.0)[:2]
        (w,) = _shift_invert(gram, lu, shift, 1, seed,
                             None if len(bases) == 1 else sector)
        del lu
        sigma_s = min(sigma_s, float(np.sqrt(max(w, 0.0))))
        count += c
        downgrade = downgrade or why
    return sigma_s, count, downgrade, symmetry


def _merge(parts, symmetry, defect):
    """One slice from the slices of its blocks, one block each.

    A lone block stays as it is.  Otherwise the pairs are sorted and each
    keeps its block's vectors: no lattice-sized array is made here.
    """
    out = parts[0]
    if len(parts) > 1:
        values = np.concatenate([sl.values for sl in parts])
        order = np.argsort(values)
        out = SpectrumSlice(
            values=values[order],
            residuals=np.concatenate([sl.residuals for sl in parts])[order],
            certificate=CERTIFIED if all(sl.certificate == CERTIFIED
                                         for sl in parts) else HEURISTIC,
            blocks=[sl.blocks[0] for sl in parts],
            block=np.repeat(np.arange(len(parts)),
                            [len(sl) for sl in parts])[order],
            index=np.concatenate([sl.index for sl in parts])[order],
            tol=out.tol, downgrade=next(
                (sl.downgrade for sl in parts if sl.downgrade), None),
            krylov_k=sum(sl.krylov_k for sl in parts),
            growth_rounds=sum(sl.growth_rounds for sl in parts))
    out.symmetry, out.symmetry_defect = symmetry, defect
    return out


# ----------------------------------------------------------------------
# rotation sectors

def _rotation_sectors(op, tol):
    """(sector isometries or None, symmetry, defect bound or None) of op.

    The bound is None when op's lattice has no quarter turn; the bases are
    None unless the rotation defect is within the guard.  They are T-real
    (symmetry C4+T, bound ||D|| + ||D_T||) when the reflection defect is
    within it too, else the complex B_m (C4, bound ||D||).
    """
    lat = op.lattice
    rot = None if lat is None else lat.rotation
    if rot is None or op.n != lat.n_sites * op.rank:
        return None, NO_SYMMETRY, None
    perm = _fiber_lift(rot, op.rank)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    defect = _row_sum_bound(op.matrix[inv][:, inv] - op.matrix)  # P H P^T - H
    if defect > C4_DEFECT_FRACTION * tol:
        return None, NO_SYMMETRY, defect
    bases = _sector_bases(perm)
    flip = _fiber_lift(lat.reflection, op.rank)  # an involution: S^-1 = S
    defect_t = _row_sum_bound(op.matrix[flip][:, flip].conj() - op.matrix)
    if defect_t > C4_DEFECT_FRACTION * tol:
        return bases, C4, defect
    return [_real_basis(b, flip) for b in bases], C4_T, defect + defect_t


def _fiber_lift(sites, rank):
    """Index permutation moving component c of site s to component c of
    site ``sites[s]``."""
    return (sites[:, None] * rank + np.arange(rank)).ravel()


def _row_sum_bound(diff):
    """Largest absolute row sum of a sparse difference, >= its 2-norm when
    it is Hermitian."""
    return float(abs(diff).sum(axis=1).max()) if diff.nnz else 0.0


# i^(-k) for k = 0..3
_PHASES = np.array([1, -1j, -1, 1j])


def _sector_bases(perm):
    """Sparse isometries B_0..B_3 onto the eigenspaces i^m of a quarter turn.

    ``perm`` has order 4 and no 2-cycles.  An orbit's representative is its
    smallest index; a fixed index is one more column of B_0.
    """
    n = perm.size
    orbit = [np.arange(n)]
    for _ in range(3):
        orbit.append(perm[orbit[-1]])
    rep = np.flatnonzero((orbit[0] < orbit[1]) & (orbit[0] < orbit[2])
                         & (orbit[0] < orbit[3]))
    fixed = np.flatnonzero(perm == orbit[0])
    rows = np.concatenate([o[rep] for o in orbit])
    cols = np.tile(np.arange(rep.size), 4)
    j = np.repeat(np.arange(4), rep.size)
    bases = []
    for m in range(4):
        r, c, v = rows, cols, 0.5 * _PHASES[(m * j) % 4]
        if m == 0:
            r = np.concatenate([r, fixed])
            c = np.concatenate([c, rep.size + np.arange(fixed.size)])
            v = np.concatenate([v, np.ones(fixed.size)])
        width = rep.size + (fixed.size if m == 0 else 0)
        bases.append(sp.csr_matrix((v, (r, c)), shape=(n, width)))
    return bases


def _real_basis(basis, flip):
    """Isometry W = B Q onto the same range as ``basis`` with T-fixed
    columns, T = conj S and ``flip`` the index involution of S.

    B^H S conj(B) holds one phase phi_c per column c, in the row c' of the
    column T maps c to; Q takes sqrt(phi_c) e_c for c' = c, and for c < c'
    the columns (e_c + phi_c e_c') / sqrt 2 and i (e_c - phi_c e_c') /
    sqrt 2, side by side in the order of c.
    """
    twin = (basis.conj().T @ basis.conj()[flip]).tocsc()
    n = twin.shape[1]
    partner, phase = twin.indices, twin.data  # one entry per column
    lead = np.flatnonzero(partner >= np.arange(n))
    paired = partner[lead] != lead
    width = 1 + paired
    start = np.cumsum(width) - width
    one, two = lead[~paired], lead[paired]
    s, f, r = start[paired], phase[two], np.sqrt(0.5)
    rows = np.concatenate([one, two, partner[two], two, partner[two]])
    cols = np.concatenate([start[~paired], s, s, s + 1, s + 1])
    vals = np.concatenate([np.sqrt(phase[one]), np.full(two.size, r), r * f,
                           np.full(two.size, 1j * r), -1j * r * f])
    return (basis @ sp.csr_matrix((vals, (rows, cols)), shape=(n, n))).tocsr()


def write_slice(sl, path):
    """Binary eigenvector dump: a header, then per pair its value and
    residual (``<dd``) and its vector as little-endian complex128."""
    with open(path, "wb") as fh:
        fh.write(_BSEV.pack(BSEV_MAGIC, BSEV_VERSION, sl.dim, len(sl)))
        for i in range(len(sl)):
            fh.write(struct.pack("<dd", sl.values[i], sl.residuals[i]))
            fh.write(np.ascontiguousarray(sl.column(i), dtype="<c16"))


def read_slice(path):
    """Read a BSEV dump; certificates are not stored, so loads are heuristic.

    A dump cut short in its header or its pairs, or with bytes after its
    last pair, is refused.
    """
    with open(path, "rb") as fh:
        header = fh.read(_BSEV.size)
        if len(header) < _BSEV.size:
            raise WindowError(f"eigenvector dump {path} is truncated in its "
                              f"header ({len(header)} of {_BSEV.size} bytes)")
        magic, version, n, count = _BSEV.unpack(header)
        if magic != BSEV_MAGIC:
            raise WindowError(f"bad magic {magic!r} in eigenvector dump")
        if version != BSEV_VERSION:
            raise WindowError(f"unsupported eigenvector dump version {version}")
        pairs = np.fromfile(fh, count=count, dtype=[
            ("value", "<f8"), ("residual", "<f8"), ("vector", "<c16", (n,))])
        last = fh.tell()
        trailing = fh.seek(0, 2) - last  # bytes after the last record
    if pairs.size < count:
        raise WindowError(f"eigenvector dump {path} is truncated: "
                          f"{pairs.size} of {count} pairs")
    if trailing:
        raise WindowError(f"eigenvector dump {path} has {trailing} bytes "
                          f"after its {count} pairs")
    return SpectrumSlice(values=pairs["value"].copy(),
                         residuals=pairs["residual"].copy(),
                         certificate=HEURISTIC,
                         blocks=[(None, pairs["vector"].T)])
