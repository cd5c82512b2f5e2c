"""Eigensolvers: a dense oracle, certified windows, the norm-bound certificate.

All returned residuals are recomputed from the matrix, never trusted from
the solver.  Interior windows are solved by shift-invert Krylov iteration at
the window midpoint; completeness is certified by inertia counts (Sylvester's
law) at the window ends and checked against the count at the midpoint.  Each
shift gets one symmetric-mode diagonal-pivot factorization of H - sigma,
which serves every shift-invert solve there, then its inertia count.  The
count reads U's diagonal from SuperLU's supernodal store of L, where it
lives, so no copy of L or U is built for it (``_inertia``).

The Krylov solve asks for exactly the certified count c(beta) - c(alpha):
at the midpoint shift those are the eigenvalues of largest |1/(lambda -
sigma)|, so extra pairs would all lie outside the window, typically in the
dense, nearly degenerate band beyond a gap, where ARPACK pays most to
converge them.  Only a shortfall grows k.  A slice records its final k and
the growth rounds; a certificate that falls back to heuristic says why in
``downgrade``.  Start vectors are seeded, so runs are reproducible.

``window_eigs`` solves one invariant block of H at a time.  An operator on
the Dirichlet square centred at the origin may commute with the quarter turn
R, (x, y) -> (-y, x) (a radial field in the symmetric gauge and a radial
potential do); its blocks are then the four rotation sectors.  Each orbit s,
Rs, R^2 s, R^3 s of indices gives the column b_c = 1/2 sum_j i^(-mj)
e_(R^j s) of the isometry B_m onto the eigenspace i^m of R (m = 0..3; the
indices R fixes belong to m = 0 only).  Every other operator is one block,
the whole space.  The sectors rest on one orbit table per operator, built
on first use with its defect bounds (below) and shared by its window solves
and certificates.  A sector's isometry is built from the table only while
its block B_m^H H B_m (about N/4 in size) is formed, over two column halves,
so the N x N/4 product H B_m is never whole.  Each block gets the window
solve above, with its own counts, certificate and growth loop; sector m's
start vector is seeded from (seed, m).  One finishing step sorts a block's
in-window pairs, orthonormalizes degenerate clusters in block space and
computes every residual on the full H, which the residual check and the
midpoint count check read.  Blocks merge by sorting their pairs only: the
vectors stay in block coordinates beside their sector, and ``column`` lifts
one pair by a gather from the table (``_Sector.lift``), the one way from a
block to the lattice, so no N x k array is made.  One cluster QR is enough:
the B_m are isometries with mutually orthogonal ranges, so vectors
orthonormal within a block stay orthonormal on the lattice, and orthogonal
to every other block's.

A sector matrix is real symmetric when H also commutes with the
antiunitary T = conj S, S the index permutation of the diagonal reflection
(x, y) -> (y, x): the reflection reverses the field and the conjugation
restores it, which holds on the radial presets.  Since S R S = R^-1 and R
is real, T maps each rotation sector to itself: when S s_c = R^k s_c', the
table gives T b_c = 1/2 sum_j i^(mj) e_(R^(k-j) s_c') = phi_c b_c' with
phi_c = i^(mk), and phi_c' = phi_c because T^2 = 1.  A T-fixed column (c' =
c) gives the basis vector sqrt(phi_c) b_c; a pair c < c' gives (b_c + phi_c
b_c') / sqrt 2 and i (b_c - phi_c b_c') / sqrt 2, side by side in the order
of c.  These are T-fixed, so <w, H w'> = conj <Tw, T H w'> = conj <w, H w'>
is real: in the isometry W_m = B_m Q_m the sector matrix is real symmetric,
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

import ctypes
import functools
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
    ``column(i)`` lifts pair i to the lattice, and every lattice reader
    (residuals, dumps, |u|^2) takes the pair from there.
    """

    values: np.ndarray
    residuals: np.ndarray
    certificate: str
    # per block (its rotation sector, or None for the whole space; its
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
        sector, vectors = self.blocks[0]
        return vectors.shape[0] if sector is None else sector.orbits.n

    def column(self, i):
        """Pair i's vector on the lattice, lifted from its block."""
        sector, vectors = self.blocks[self.block[i]]
        v = vectors[:, self.index[i]]
        return v if sector is None else sector.lift(v)

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


def _residuals(op, values, vectors, sector=None):
    """Full-H residual norms of the pairs with block vectors ``vectors`` of
    ``sector`` (None: the whole space), two columns at a time (the last
    three together).

    No N x k temporary is made, only N x 2 ones.  Each chunk holds at least
    two columns of a matrix of two or more, because numpy sums a lone column
    pairwise; so every norm equals the whole matrix's bit for bit.
    """
    k = values.size
    norms = np.empty(k)
    edges = np.append(np.arange(0, max(k - 1, 1), 2), k)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mapped = vectors[:, lo:hi] if sector is None \
            else sector.lift(vectors[:, lo:hi])
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


def _finish(op, sector, values, vectors, certificate, tol=0.0, window=None):
    """Ascending slice of one block from its raw pairs: the pairs inside
    ``window`` (all without one), clusters orthonormalized in block space,
    residuals computed on the full H from the vectors lifted from
    ``sector`` (None: the whole space).  The slice keeps the block-space
    vectors."""
    values = np.asarray(values)
    order = np.argsort(values)
    if window is not None:
        ascending = values[order]
        order = order[(ascending >= window[0]) & (ascending <= window[1])]
    values = values[order]
    vectors = _orthonormalize_clusters(values, np.asarray(vectors)[:, order])
    return SpectrumSlice(values=values,
                         residuals=_residuals(op, values, vectors, sector),
                         certificate=certificate, blocks=[(sector, vectors)],
                         tol=tol)


def _factor(op, shift):
    """SuperLU factor of op - shift, or None where it is exactly singular.

    Symmetric mode, MMD_AT_PLUS_A ordering, diagonal pivots: the signs of
    the real U diagonal give the inertia (Sylvester, ``_inertia``).  No
    pivot is read here.
    """
    mat = (op.matrix - shift * sp.identity(op.n, dtype=op.matrix.dtype,
                                           format="csr")).tocsc()
    try:
        return spla.splu(mat, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError:  # exactly singular at this shift
        return None


class _SuperMatrix(ctypes.Structure):
    """SuperLU's ``SuperMatrix`` header (supermatrix.h, int_t = int)."""
    _fields_ = [("Stype", ctypes.c_int), ("Dtype", ctypes.c_int),
                ("Mtype", ctypes.c_int), ("nrow", ctypes.c_int),
                ("ncol", ctypes.c_int), ("Store", ctypes.c_void_p)]


_INTS = ctypes.POINTER(ctypes.c_int)


class _SCformat(ctypes.Structure):
    """SuperLU's supernodal store of L, U's diagonal blocks included."""
    _fields_ = [("nnz", ctypes.c_int), ("nsuper", ctypes.c_int),
                ("nzval", ctypes.c_void_p), ("nzval_colptr", _INTS),
                ("rowind", _INTS), ("rowind_colptr", _INTS),
                ("col_to_sup", _INTS), ("sup_to_col", _INTS)]


class _SuperLUObject(ctypes.Structure):
    """scipy's ``SuperLUObject`` (_superluobject.h, scipy 1.17)."""
    _fields_ = [("ob_refcnt", ctypes.c_ssize_t), ("ob_type", ctypes.c_void_p),
                ("m", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t),
                ("L", _SuperMatrix), ("U", _SuperMatrix),
                ("perm_r", ctypes.c_void_p), ("perm_c", ctypes.c_void_p),
                ("cached_U", ctypes.c_void_p), ("cached_L", ctypes.c_void_p),
                ("py_csc_construct_func", ctypes.c_void_p),
                ("type", ctypes.c_int)]


_SLU_SC, _SLU_TRLU = 3, 1  # L's Stype (supernodal columns) and Mtype
_SLU_DTYPES = {1: np.dtype(np.float64), 3: np.dtype(np.complex128)}  # D, Z


def _supernodal_pivots(lu):
    """U's diagonal gathered from the supernodes of the factor ``lu`` into
    a new array, or None when a layout check of ``_inertia`` fails."""
    if type(lu) is not spla.SuperLU \
            or type(lu).__basicsize__ != ctypes.sizeof(_SuperLUObject):
        return None
    obj = _SuperLUObject.from_address(id(lu))
    n, low = lu.shape[0], obj.L
    dtype = _SLU_DTYPES.get(low.Dtype)
    if not (obj.m == obj.n == n and low.nrow == low.ncol == n
            and obj.perm_r == lu.perm_r.ctypes.data
            and obj.perm_c == lu.perm_c.ctypes.data
            and low.Stype == _SLU_SC and low.Mtype == _SLU_TRLU
            and dtype is not None and dtype.num == obj.type and low.Store):
        return None
    store = _SCformat.from_address(low.Store)
    if not 0 <= store.nsuper < n:
        return None
    view = np.ctypeslib.as_array  # views of the store: nothing is copied
    cols = np.arange(n, dtype=np.int32)
    first = view(store.sup_to_col, (store.nsuper + 2,))[
        view(store.col_to_sup, (n,))]
    rows = view(store.rowind_colptr, (n + 1,))  # set at first columns
    if not np.array_equal(
            view(store.rowind, (rows[n],))[rows[first] + (cols - first)],
            cols):
        return None
    starts = view(store.nzval_colptr, (n + 1,))
    values = view(ctypes.cast(store.nzval, ctypes.POINTER(ctypes.c_double)),
                  (starts[n] * (dtype.itemsize // 8),)).view(dtype)
    return values[starts[:n] + (cols - first)]


def _inertia(lu):
    """(negative pivots, None or why the count is untrusted) of the factor
    ``lu``, or None when a pivot is zero or not finite.

    scipy's ``SuperLU`` object exposes only ``L``, ``U``, ``nnz``,
    ``perm_c``, ``perm_r``, ``shape`` and ``solve`` (scipy 1.17), and its
    first ``.U`` access builds CSC copies of both L and U, about 12 bytes
    per fill entry, and caches them on the factor.  So the pivots are read
    where SuperLU keeps them, with no copy of L or U: L is stored by
    supernodes (SCformat), and each supernode's columns hold U's part of its
    diagonal block too.  Column j of supernode s, whose first column is f =
    sup_to_col[s], lists the rows f, f + 1, ... first, so its pivot is
    nzval[nzval_colptr[j] + j - f], the entry scipy's ``LU_to_csc`` copies
    onto U's diagonal; the n pivots are gathered into a new array while the
    factor lives (``_supernodal_pivots``).

    The factor is reached through ctypes mirrors of scipy 1.17's
    ``SuperLUObject``, SuperLU's ``SuperMatrix`` and ``SCformat``.  Before
    any pointer is followed, ``lu`` must be scipy's ``SuperLU`` with the
    mirror's size, m = n = ``lu.shape[0]``, perm_r and perm_c the arrays of
    ``lu.perm_r`` and ``lu.perm_c``, and L supernodal (Stype SLU_SC), lower
    trapezoidal (SLU_TRLU), n x n and of the factor's type (SLU_D for
    float64, SLU_Z for complex128); the row index at each pivot read must
    then be its column's.  Where a check fails (another scipy's layout, or
    a proxy of a factor) the pivots are read from ``lu.U.diagonal()``, the
    same values bit for bit.
    """
    d = _supernodal_pivots(lu)
    if d is None:
        d = lu.U.diagonal()
    if not (np.all(np.isfinite(d)) and np.all(d != 0)):
        return None
    downgrade = None
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            or np.array_equal(lu.perm_r[lu.perm_c], np.arange(lu.shape[0]))):
        downgrade = "off-diagonal pivot"
    elif np.abs(d.imag).max() > 1e-6 * np.abs(d.real).max():
        downgrade = "complex diagonal"
    return int(np.sum(d.real < 0)), downgrade


def _jitter(shift, attempt):
    """The shift to try after try ``attempt`` (from 0) found a singular
    factor, or a zero or non-finite pivot, at ``shift``."""
    return shift + max(1e-10, 1e-10 * abs(shift)) * (attempt + 1)


def _factored(op, sigma, use=None):
    """Factor op - sigma, run ``use(lu, shift)`` on it (a shift-invert solve;
    None: nothing, for a count), read its pivots (``_inertia``), free it.

    A singular factor, or a zero or non-finite pivot, jitters the shift and
    starts again, up to three tries.  Returns (what ``use`` returned, the
    shift used, negative pivots, None or why the count is untrusted), or
    (None, the next shift, 0, "jitter retries exhausted").  Every pivot read
    follows its factor's last solve, so a fallback read's L and U copies
    (``_inertia``) never meet a solve's workspace.  On ``radial_dip`` at p =
    16 (N = 37.6k, one BLAS thread, three seeds) the process's VmHWM after
    each stage is 85.6 MB for the first block build and 91.7-91.8 MB for
    its count at beta; the peak, 93.3-93.7 MB, is set by the last sector's
    count at beta, by its factorization, as no pivot read copies L or U.
    The Krylov solves, the midpoint pivot reads and the finishing steps do
    not raise it.
    """
    shift = float(sigma)
    for attempt in range(3):
        lu = _factor(op, shift)
        if lu is not None:
            used = None if use is None else use(lu, shift)
            inertia = _inertia(lu)
            del lu  # no factor outlives its read, nor meets the next one
            if inertia is not None:
                return (used, shift) + inertia
        shift = _jitter(shift, attempt)
    return None, shift, 0, "jitter retries exhausted"


def count_below(op, sigma):
    """Number of eigenvalues strictly below sigma, via inertia.

    Reads the signs off one factor of H - sigma.  Returns (count,
    downgrade): downgrade is None when the count is trustworthy, else why it
    is not ("off-diagonal pivot", "complex diagonal" or "jitter retries
    exhausted").
    """
    return _factored(op, sigma)[2:]


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

    sectors, symmetry, defect = _rotation_sectors(op, tol)
    # no block eigenvalue lies below the Gershgorin bound of H
    open_below = alpha < lowest
    parts = []
    try:
        for sector in sectors or [None]:
            parts.append(_block_solve(op, sector, alpha, beta, open_below,
                                      tol, seed))
    except ConvergenceError as exc:
        if exc.partial is not None:
            parts.append(exc.partial)
        exc.partial = _merge(parts, symmetry, defect) if parts else None
        raise
    return _merge(parts, symmetry, defect)


def _block_solve(op, sector, alpha, beta, open_below, tol, seed):
    """The window solve of op on ``sector`` (None: the whole space), from a
    start vector seeded from (seed, its m); the sector's isometry lives only
    while its block is formed."""
    block = op if sector is None \
        else _hermitian_block(op, sector.isometry(), sector.real, op.matrix)
    c_lo, why_lo = 0, None
    if not open_below:
        c_lo, why_lo = count_below(block, alpha)
    c_hi, why_hi = count_below(block, beta)
    downgrade = why_lo or why_hi
    expected = c_hi - c_lo if downgrade is None else None

    if expected == 0:
        return SpectrumSlice(values=np.empty(0), residuals=np.empty(0),
                             certificate=CERTIFIED,
                             blocks=[(sector, np.empty((block.n, 0)))],
                             tol=tol, krylov_k=0)

    start = min(16 if expected is None else expected, block.n - 2)
    k = rounds = 0  # the last Krylov solve's, read by finish

    def finish(values, vectors, window=None):
        out = _finish(op, sector, values, vectors, HEURISTIC, tol, window)
        out.krylov_k, out.growth_rounds = k, rounds
        return out

    def krylov(lu, shift):  # a jittered refactor starts again from k = start
        nonlocal k, rounds
        k, rounds = start, 0
        while True:
            w, u = _shift_invert(block, lu, shift, k, seed,
                                 None if sector is None else sector.m, finish)
            got = int(np.sum((w >= alpha) & (w <= beta)))
            if expected is None or got >= expected or k >= block.n - 2:
                return w, u, got
            k = min(2 * k + 8, block.n - 2)
            rounds += 1

    pairs, shift, c_mid, why_mid = _factored(block, (alpha + beta) / 2, krylov)
    if pairs is None:
        raise ConvergenceError(
            f"factorization failed at shift {shift:.6g} after jitters")
    w, u, got = pairs

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
    ``lu`` of block - shift, from the start vector seeded from (seed,
    sector).  With ``partial`` also the eigenvectors, and the
    ConvergenceError of ARPACK's failure carries ``partial(values, vectors)``
    of the converged pairs."""
    if not 0 < k < block.n:  # ARPACK's range; a tiny block has none
        raise ConvergenceError(f"a block of {block.n} rows is too small for "
                               f"a shift-invert solve")
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
    lie below ``threshold``, trusted unless ``downgrade`` says why not.  The
    same factor first drives a one-pair shift-invert solve, whose eigenvalue
    is sigma_S^2 at a trusted count 0; otherwise it is discarded and the
    solve runs again on a second factor at 0, where G's nearest eigenvalue
    is its smallest.

    On the rotation sectors that ``window_eigs`` takes at ``tol``, when S is
    invariant under the quarter turn, each sector column lies wholly inside
    S or wholly outside it, and the columns inside span the vectors
    supported in S (read off the orbit table).  G is then block diagonal in
    them: each block, real in a T-fixed basis, is counted and solved alone,
    the counts add up and sigma_S is the smallest block minimum; else G is
    one block.  Returns (sigma_S, count, downgrade, symmetry); only start
    vectors use ``seed``.
    """
    inside = np.repeat(support, op.rank)
    shifted = op.matrix - lam * sp.identity(op.n, dtype=op.matrix.dtype,
                                            format="csr")
    sectors, symmetry, _ = _rotation_sectors(
        op, default_tol(op) if tol is None else tol)
    columns = [sector.inside(inside) for sector in sectors or []]
    if not columns or sum(cols.sum() for cols in columns) != inside.sum():
        sectors, columns, symmetry = [None], [inside], NO_SYMMETRY
    sigma_s, count, downgrade = np.inf, 0, None
    for sector, cols in zip(sectors, columns):
        basis = sp.identity(op.n, format="csc") if sector is None \
            else sector.isometry()
        gram = _hermitian_block(op, shifted @ basis[:, cols], symmetry == C4_T)
        del basis  # no isometry alive while the block is solved
        nearest = functools.partial(
            _shift_invert, gram, k=1, seed=seed,
            sector=None if sector is None else sector.m)
        w, shift, c, why = _factored(gram, threshold ** 2, nearest)
        if c or why:  # G's eigenvalue nearest 0 is its smallest
            w, shift = _factored(gram, 0.0, nearest)[:2]
        if w is None:
            raise ConvergenceError(
                f"factorization failed at shift {shift:.6g} after jitters")
        sigma_s = min(sigma_s, float(np.sqrt(max(w[0], 0.0))))
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

# i^k for k = 0..3 with +0 zero parts, and the entries i^(-k) / 2 of B_m
_UNITS = np.array([1, 1j, -1, -1j]) + 0.0
_HALVES = 0.5 * _UNITS[-np.arange(4) % 4]
# (Q v)_c = alpha v[a_c] + beta v[a_c + 1] at 4 kind + k for a column c of
# B_m that is the second of its T pair, T-fixed or the first (kind 0, 1,
# 2), phi_c = i^k
_R = np.sqrt(0.5)
_ALPHA = np.concatenate([_R * _UNITS, np.sqrt(_UNITS), np.full(4, _R + 0j)])
_BETA = np.concatenate([-1j * _R * _UNITS, np.zeros(4), np.full(4, 1j * _R)])


@dataclass
class _OrbitTable:
    """An operator's quarter-turn orbits and its two defect bounds.

    Row j of ``table`` holds R^j s_c for the least index s_c of orbit c, a
    column of every B_m; the indices R fixes are the last columns of B_0.
    ``slot`` is each index's place in the table read row by row, then in
    ``fixed``.  Column c of B_0 has S s_c = R^(turns_c) s_(twin_c); its T
    pair opens the column ``first[c]`` of W_m, and ``kind[c]`` is 0, 1 or 2
    when c is the pair's second, T-fixed or the pair's first.  The index
    arrays are int32.
    """

    n: int
    defect: float | None = None    # ||D||; None without a quarter turn
    defect_t: float | None = None  # ||D_T||
    table: np.ndarray | None = None
    fixed: np.ndarray | None = None
    slot: np.ndarray | None = None
    twin: np.ndarray | None = None
    turns: np.ndarray | None = None
    first: np.ndarray | None = None
    kind: np.ndarray | None = None


def _build_orbit_table(op):
    lat = op.lattice
    turn = None if lat is None else lat.rotation
    if turn is None or op.n != lat.n_sites * op.rank:
        return _OrbitTable(op.n)
    perm = _fiber_lift(turn, op.rank)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(op.n)
    flip = _fiber_lift(lat.reflection, op.rank)  # an involution: S^-1 = S
    out = _OrbitTable(
        op.n, _row_sum_bound(op.matrix[inv][:, inv] - op.matrix),  # PHP^T-H
        _row_sum_bound(op.matrix[flip][:, flip].conj() - op.matrix))
    turned = [np.arange(op.n, dtype=np.int32)]
    for _ in range(3):
        turned.append(perm[turned[-1]])
    out.table = np.stack(turned)[:, turned[0] < np.min(turned[1:], axis=0)]
    out.fixed = np.flatnonzero(perm == turned[0]).astype(np.int32)
    orbits = out.table.shape[1]
    out.slot = np.empty(op.n, dtype=np.int32)  # k * orbits + c at R^k s_c
    out.slot[out.table] = np.arange(4 * orbits).reshape(4, orbits)
    out.slot[out.fixed] = 4 * orbits + np.arange(out.fixed.size)
    turns, twin = np.divmod(out.slot[flip[out.table[0]]], orbits)
    out.twin = np.append(twin, orbits + np.arange(out.fixed.size,
                                                  dtype=np.int32))
    out.turns = np.append(turns, np.zeros(out.fixed.size, dtype=np.int32))
    out.kind = 1 + np.sign(out.twin - np.arange(out.twin.size,
                                                dtype=np.int32))
    lead = np.flatnonzero(out.kind)  # a pair's first or T-fixed: its width
    out.first = np.empty_like(out.twin)
    out.first[lead] = out.first[out.twin[lead]] = \
        np.cumsum(out.kind[lead]) - out.kind[lead]
    return out


def _rotation_sectors(op, tol):
    """(sectors or None, symmetry, defect bound or None) of op at tol, from
    op's orbit table, built on first use and kept on op.

    The bound is None when op's lattice has no quarter turn; the sectors
    are None unless the rotation defect is within the guard.  They are
    T-real (symmetry C4+T, bound ||D|| + ||D_T||) when the reflection defect
    is within it too, else complex (C4, bound ||D||).
    """
    if op.orbit_table is None:
        op.orbit_table = _build_orbit_table(op)
    orbits, guard = op.orbit_table, C4_DEFECT_FRACTION * tol
    if orbits.defect is None or orbits.defect > guard:
        return None, NO_SYMMETRY, orbits.defect
    real = orbits.defect_t <= guard
    return ([_Sector(orbits, m, real) for m in range(4)], C4_T if real else C4,
            orbits.defect + orbits.defect_t if real else orbits.defect)


def _fiber_lift(sites, rank):
    """Index permutation moving component c of site s to component c of
    site ``sites[s]``, of the dtype of ``sites``."""
    return (sites[:, None] * rank + np.arange(rank, dtype=sites.dtype)).ravel()


def _row_sum_bound(diff):
    """Largest absolute row sum of a sparse difference, >= its 2-norm when
    it is Hermitian."""
    return float(abs(diff).sum(axis=1).max()) if diff.nnz else 0.0


@dataclass(frozen=True)
class _Sector:
    """Rotation sector m of an orbit table: its isometry W_m = B_m Q_m
    (T-fixed columns when ``real``, else Q_m = 1), built on demand as that
    sparse product, and the gather that lifts its block vectors without
    it."""

    orbits: _OrbitTable
    m: int
    real: bool

    @property
    def width(self):
        o = self.orbits
        return o.table.shape[1] + (o.fixed.size if self.m == 0 else 0)

    def _pairing(self):
        """Per column c of B_m: a_c, a_c + 1 if its pair has a second
        column (else a_c), alpha_c and beta_c (``_ALPHA``, ``_BETA``)."""
        o, w = self.orbits, self.width
        if not self.real:
            return np.arange(w), np.arange(w), np.ones(w), np.zeros(w)
        code = 4 * o.kind[:w] + self.m * o.turns[:w] % 4
        first = o.first[:w]
        return (first, first + (o.kind[:w] != 1), _ALPHA.take(code),
                _BETA.take(code))

    def isometry(self):
        """W_m as CSR: the sparse product B_m Q_m of two matrices read off
        the table.  B_m has i^(-mj)/2 at R^j s_c in column c, and 1 at the
        fixed indices for m = 0; row c of Q_m has alpha_c at column a_c and
        beta_c at its pair's second column (``_pairing``)."""
        o, w, (first, second, alpha, beta) = \
            self.orbits, self.width, self._pairing()
        k = o.table.shape[1]
        halves = np.repeat(_HALVES[self.m * np.arange(4) % 4], k)
        b = sp.csr_matrix((np.append(halves, np.ones(w - k)),
                           (np.append(o.table, o.fixed[:w - k]),
                            np.append(np.tile(np.arange(k), 4),
                                      np.arange(k, w)))), shape=(o.n, w))
        q = sp.csr_matrix((np.append(alpha, beta), (np.tile(np.arange(w), 2),
                                                    np.append(first, second))),
                          shape=(w, w))
        return b @ q

    def lift(self, v):
        """The lattice vectors W_m v of block vectors v by gather: x[R^j
        s_c] = i^(-mj) (Q v)_c / 2, and (Q v)_c at a fixed index.  For the
        block's own vectors (real in a T-real sector) this is the sparse
        product bit for bit."""
        o, (first, second, alpha, beta) = self.orbits, self._pairing()
        shape, k = (-1,) + (1,) * (v.ndim - 1), o.table.shape[1]
        y = alpha.reshape(shape) * v.take(first, axis=0) \
            + beta.reshape(shape) * v.take(second, axis=0)  # (Q v)_c
        pad = np.zeros((o.fixed.size - (y.shape[0] - k),) + y.shape[1:])
        x = np.concatenate([_HALVES[self.m * j % 4] * y[:k] for j in range(4)]
                           + [y[k:], pad]).take(o.slot, axis=0)
        x += 0.0  # +0 zeros, as a sparse product sums from 0
        return x

    def inside(self, mask):
        """Which columns of W_m lie wholly in the index mask."""
        o, (first, second, _, _) = self.orbits, self._pairing()
        ok = np.append(mask[o.table].all(axis=0), mask[o.fixed])[:first.size]
        ok &= ok[o.twin[:first.size]] if self.real else True
        cols = np.empty(first.size, dtype=bool)
        cols[first] = cols[second] = ok
        return cols


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
