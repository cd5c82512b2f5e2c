"""Eigensolvers: a dense oracle and certified interior windows.

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

An operator on a square rectangle centred at the origin may commute with the
quarter turn R, (x, y) -> (-y, x) (a radial field in the symmetric gauge
and a radial potential do).  ``window_eigs`` then solves the window one
rotation sector at a time.  Each orbit s, Rs, R^2 s, R^3 s of indices gives
the column 1/2 sum_j i^(-mj) e_(R^j s) of the isometry B_m onto the
eigenspace i^m of R (m = 0..3; the origin's components belong to m = 0
only), and each sector matrix B_m^H H B_m, about N/4 in size, gets the
one-operator window solve above with its own counts, certificate and
growth loop.  Sector m's start vector is seeded from (seed, m).

The sector path is guarded by the commutation defect D = P H P^T - H (P
the index permutation of R), bounded by its largest absolute row sum, which
is at least ||D||_2 for Hermitian D.  It is taken only when that bound is at
most ``C4_DEFECT_FRACTION`` * tol.  Together the four sector matrices are
unitarily similar to the pinching sum_m Pi_m H Pi_m of H onto the
eigenspaces of R, which equals the rotation average H_R = 1/4 sum_j R^j H
R^-j.  Each R^j H R^-j - H is a sum of j conjugated copies of D, and of one
for j = 3 (R^3 = R^-1), so ||H_R - H|| <= (0 + 1 + 2 + 1) ||D|| / 4 =
||D||.  By Weyl's inequality each eigenvalue of the union of the sector
spectra lies within ||D|| of the same-index eigenvalue of H, so each
inertia count of H_R at a shift lies between the counts of H at that shift
moved down and up by ||D||.  Counts and certificates are therefore exact
up to a shift below 1e-6 tol, far below the residual tolerance: the same
ambiguity every pair within its residual of a window end already has.
Vectors are mapped back with B_m and every residual is recomputed on the
full H, so a wrong sector basis cannot pass.  Every other operator,
including one whose defect exceeds the guard, gets one solve on the whole
space; the slice records ``symmetry`` ("C4" or "none") and
``symmetry_defect`` (the bound, or None without a rotation).
"""

import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ConvergenceError, DenseSizeError, NotHermitianError,
                     WindowError)
from .operators import gershgorin_interval

DENSE_GUARD = 4096
CERTIFIED = "certified"
HEURISTIC = "heuristic"
COUNT_MISMATCH = "count mismatch"
C4 = "C4"
NO_SYMMETRY = "none"

# the sector path needs the rotation defect bound at most this fraction of
# tol; the measured bound is about 1e-8 tol on the radial presets
C4_DEFECT_FRACTION = 1e-6

BSEV_MAGIC = b"BSEV"
BSEV_VERSION = 1

_SEED_BASE = 0xB05E


@dataclass
class SpectrumSlice:
    """Eigenpairs sorted ascending with a completeness certificate."""

    values: np.ndarray
    vectors: np.ndarray          # (n, k), columns unit norm
    residuals: np.ndarray
    certificate: str
    tol: float = 0.0
    downgrade: str | None = None  # why the certificate is only heuristic
    krylov_k: int | None = None   # pairs the final Krylov solve asked for
    growth_rounds: int = 0        # times a shortfall made the solve grow k
    symmetry: str = NO_SYMMETRY   # C4 when solved by rotation sector
    symmetry_defect: float | None = None  # None without a quarter turn

    def __len__(self):
        return self.values.size

    def select(self, keep):
        keep = np.asarray(keep)
        return replace(self, values=self.values[keep],
                       vectors=self.vectors[:, keep],
                       residuals=self.residuals[keep])


def default_tol(op):
    lo, hi = gershgorin_interval(op)
    return 1e-8 * max(1.0, abs(lo), abs(hi))


def _start_vector(n, seed, sector=None):
    entropy = _SEED_BASE + int(seed)
    rng = np.random.default_rng(entropy if sector is None
                                else [entropy, sector])
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _residuals(op, values, vectors):
    resid = op.matrix @ vectors - vectors * values[None, :]
    return np.linalg.norm(resid, axis=0)


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


def _sorted_slice(op, values, vectors, certificate, tol=0.0):
    order = np.argsort(values)
    return _slice(op, np.asarray(values)[order],
                  np.asarray(vectors)[:, order], certificate, tol)


def _slice(op, values, vectors, certificate, tol):
    """Slice of ascending pairs; vectors are orthonormalized in place."""
    vectors = _orthonormalize_clusters(values, vectors)
    residuals = _residuals(op, values, vectors)
    return SpectrumSlice(values=values, vectors=vectors, residuals=residuals,
                         certificate=certificate, tol=tol)


def _factor_shifted(op, sigma, attempts=3):
    """One factor of H - sigma, for its inertia and for shift-invert solves.

    SuperLU symmetric mode, MMD_AT_PLUS_A ordering, diagonal pivots: the
    signs of the real U diagonal give the inertia (Sylvester).  A singular
    factorization jitters the shift, up to ``attempts`` tries.  Returns (lu
    or None, shift used, negative pivots, None or why the count is untrusted).

    The diagonal is read from a full copy of ``lu.U``: scipy's ``SuperLU``
    object exposes only ``L``, ``U``, ``nnz``, ``perm_c``, ``perm_r``,
    ``shape`` and ``solve`` (checked on scipy 1.17), with no accessor for
    the pivots alone.
    """
    n = op.n
    shift = float(sigma)
    for attempt in range(attempts):
        mat = (op.matrix - shift * sp.identity(n, dtype=complex,
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


def _shift_inverse(lu, shift):
    """(H - shift)^-1 as an operator that solves with the given factor."""
    if lu is None:
        raise ConvergenceError(
            f"factorization failed at shift {shift:.6g} after jitters")
    return spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=complex)


def count_below(op, sigma, attempts=3):
    """Number of eigenvalues strictly below sigma, via inertia.

    Reads the signs off the same factor of H - sigma that shift-invert
    solves at sigma would use.  Returns (count, downgrade): downgrade is None
    when the count is trustworthy, else why it is not ("off-diagonal pivot",
    "complex diagonal" or "jitter retries exhausted").
    """
    return _factor_shifted(op, sigma, attempts)[2:]


def dense_spectrum(op):
    """Full spectral decomposition through a dense Hermitian solve."""
    if op.n > DENSE_GUARD:
        raise DenseSizeError(f"dimension {op.n} exceeds the dense guard "
                             f"{DENSE_GUARD}")
    if not op.hermitian:
        raise NotHermitianError("dense oracle requires the hermitian flag")
    w, u = sla.eigh(op.matrix.toarray())
    return _sorted_slice(op, w, u, CERTIFIED)


def window_eigs(op, window, tol=None, seed=0, maxiter=None):
    """All eigenpairs inside [alpha, beta] by shift-invert at the midpoint.

    Inertia counts at the two endpoints determine how many eigenvalues the
    window must hold (at an alpha below the Gershgorin bound, zero without a
    factorization).  The Krylov solve asks for exactly that many pairs, with
    no buffer: every eigenvalue inside the window is nearer the midpoint
    shift than any outside it, so the count names the wanted pairs, and a
    buffer would only converge unwanted ones beyond the window's ends.  A
    shortfall grows k to 2k + 8 and solves again; an untrusted count starts
    from 16 and never grows.  The one factor at the midpoint drives every
    solve and counts the pairs that must lie below it.  The slice is
    certified when every trusted count matches the pairs found.
    Factorization breakdown at a shift triggers up to three jitter retries.

    An operator that commutes with the quarter turn of its lattice (within
    the guard of the module docstring) is solved one rotation sector at a
    time: the slice is certified only if every sector is, ``downgrade`` is
    the first sector's reason, and ``krylov_k`` and ``growth_rounds`` sum
    over the sectors.
    """
    alpha, beta = float(window[0]), float(window[1])
    if not alpha < beta:
        raise WindowError(f"window [{alpha}, {beta}] is empty")
    if not op.hermitian:
        raise NotHermitianError("window_eigs requires the hermitian flag")
    if tol is None:
        tol = default_tol(op)

    bases, defect = _rotation_sectors(op, tol)
    if bases is None:
        out = _window_solve(op, alpha, beta, tol, _start_vector(op.n, seed),
                            maxiter)
    else:
        out = _sector_solve(op, bases, alpha, beta, tol, seed, maxiter)
    out.symmetry = NO_SYMMETRY if bases is None else C4
    out.symmetry_defect = defect
    return out


def _check_residuals(out, tol):
    bad = out.residuals > tol
    if bad.any():
        raise ConvergenceError(
            f"{int(bad.sum())} window residuals exceed tol = {tol:.3g}",
            partial=out)


def _window_solve(op, alpha, beta, tol, v0, maxiter):
    """The window solve of one operator, from start vector v0."""
    c_lo, why_lo = 0, None  # no eigenvalue lies below the Gershgorin bound
    if alpha >= gershgorin_interval(op)[0]:
        c_lo, why_lo = count_below(op, alpha)
    c_hi, why_hi = count_below(op, beta)
    downgrade = why_lo or why_hi
    expected = c_hi - c_lo if downgrade is None else None

    if expected == 0:
        return SpectrumSlice(values=np.empty(0), vectors=np.empty((op.n, 0)),
                             residuals=np.empty(0), certificate=CERTIFIED,
                             tol=tol, krylov_k=0)

    k = min(16 if expected is None else expected, op.n - 2)
    lu, shift, c_mid, why_mid = _factor_shifted(op, 0.5 * (alpha + beta))
    opinv = _shift_inverse(lu, shift)

    rounds = 0
    while True:
        try:
            w, u = spla.eigsh(op.matrix, k=k, sigma=shift, which="LM",
                              v0=v0, maxiter=maxiter, tol=0, OPinv=opinv)
        except spla.ArpackNoConvergence as exc:
            partial = None
            if exc.eigenvalues is not None and exc.eigenvalues.size:
                partial = _sorted_slice(op, exc.eigenvalues,
                                        exc.eigenvectors, HEURISTIC, tol=tol)
            raise ConvergenceError("window iteration did not converge",
                                   partial=partial) from exc
        got = int(np.sum((w >= alpha) & (w <= beta)))
        if expected is not None and got < expected and k < op.n - 2:
            k = min(2 * k + 8, op.n - 2)
            rounds += 1
            continue
        break
    del lu, opinv  # free the factor before the N x k copies below

    full = _sorted_slice(op, w, u, HEURISTIC, tol=tol)
    full.krylov_k, full.growth_rounds = k, rounds
    out = full.select(np.flatnonzero((full.values >= alpha)
                                     & (full.values <= beta)))
    _check_residuals(out, tol)
    # a pair within its residual of the shift may lie on either side of it
    below = (np.sum(out.values < shift - out.residuals),
             np.sum(out.values < shift + out.residuals))
    mid_ok = why_mid is not None or below[0] <= c_mid - c_lo <= below[1]
    if downgrade is None and not (got == expected and mid_ok):
        downgrade = COUNT_MISMATCH
    out.downgrade = downgrade
    out.certificate = HEURISTIC if downgrade else CERTIFIED
    return out


# ----------------------------------------------------------------------
# rotation sectors

def _rotation_sectors(op, tol):
    """(sector isometries or None, defect bound or None) of op.

    The bound is None when op's lattice has no quarter turn; the bases are
    None unless the bound is within the guard.
    """
    lat = op.lattice
    rot = None if lat is None else lat.rotation
    if rot is None or op.n != lat.n_sites * op.rank:
        return None, None
    # component c of site s turns into component c of site rot[s]
    perm = (rot[:, None] * op.rank + np.arange(op.rank)).ravel()
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    diff = op.matrix[inv][:, inv] - op.matrix  # P H P^T - H
    defect = float(abs(diff).sum(axis=1).max()) if diff.nnz else 0.0
    if defect > C4_DEFECT_FRACTION * tol:
        return None, defect
    return _sector_bases(perm), defect


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


def _merge_sectors(op, bases, parts, tol):
    """One slice of the full H from sector slices, in sector order.

    Each sector's vectors are mapped back straight into their ascending
    positions of one N x k array, so the merge makes no second copy.
    """
    values = np.concatenate([sl.values for sl in parts])
    order = np.argsort(values)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    vectors = np.empty((op.n, values.size), dtype=complex)
    at = 0
    for b, sl in zip(bases, parts):
        vectors[:, position[at:at + len(sl)]] = b @ sl.vectors
        at += len(sl)
    return _slice(op, values[order], vectors, HEURISTIC, tol)


def _sector_solve(op, bases, alpha, beta, tol, seed, maxiter):
    """The window solve sector by sector; residuals are recomputed on H."""
    parts = []
    for m, b in enumerate(bases):
        half = b.conj().T @ (op.matrix @ b)
        # averaged with its adjoint, so exactly Hermitian
        compressed = (0.5 * (half + half.conj().T)).tocsr()
        sector = replace(op, matrix=compressed, lattice=None)
        try:
            parts.append(_window_solve(sector, alpha, beta, tol,
                                       _start_vector(sector.n, seed, m),
                                       maxiter))
        except ConvergenceError as exc:
            if exc.partial is not None:
                parts.append(exc.partial)
            exc.partial = _merge_sectors(op, bases, parts, tol) \
                if parts else None
            raise
    out = _merge_sectors(op, bases, parts, tol)
    out.krylov_k = sum(sl.krylov_k for sl in parts)
    out.growth_rounds = sum(sl.growth_rounds for sl in parts)
    _check_residuals(out, tol)
    out.downgrade = next((sl.downgrade for sl in parts if sl.downgrade), None)
    out.certificate = HEURISTIC if out.downgrade else CERTIFIED
    return out


def write_slice(sl, path):
    """Binary eigenvector dump (little-endian, per-pair records)."""
    n = sl.vectors.shape[0]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQQ", BSEV_MAGIC, BSEV_VERSION, n, len(sl)))
        for i in range(len(sl)):
            fh.write(struct.pack("<dd", float(sl.values[i]),
                                 float(sl.residuals[i])))
            interleaved = np.empty(2 * n, dtype="<f8")
            interleaved[0::2] = sl.vectors[:, i].real
            interleaved[1::2] = sl.vectors[:, i].imag
            fh.write(interleaved.tobytes())


def read_slice(path):
    """Read a BSEV dump; certificates are not stored, so loads are heuristic."""
    with open(path, "rb") as fh:
        magic, version, n, count = struct.unpack("<4sIQQ", fh.read(24))
        if magic != BSEV_MAGIC:
            raise WindowError(f"bad magic {magic!r} in eigenvector dump")
        if version != BSEV_VERSION:
            raise WindowError(f"unsupported eigenvector dump version {version}")
        values = np.empty(count)
        residuals = np.empty(count)
        vectors = np.empty((n, count), dtype=complex)
        for i in range(count):
            values[i], residuals[i] = struct.unpack("<dd", fh.read(16))
            raw = np.frombuffer(fh.read(16 * n), dtype="<f8")
            vectors[:, i] = raw[0::2] + 1j * raw[1::2]
    return SpectrumSlice(values=values, vectors=vectors, residuals=residuals,
                         certificate=HEURISTIC)
