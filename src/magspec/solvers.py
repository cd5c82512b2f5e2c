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


def _start_vector(n, seed):
    rng = np.random.default_rng(_SEED_BASE + int(seed))
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
    values = np.asarray(values)[order]
    vectors = np.array(vectors)[:, order]
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
    """
    alpha, beta = float(window[0]), float(window[1])
    if not alpha < beta:
        raise WindowError(f"window [{alpha}, {beta}] is empty")
    if not op.hermitian:
        raise NotHermitianError("window_eigs requires the hermitian flag")
    if tol is None:
        tol = default_tol(op)

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
    v0 = _start_vector(op.n, seed)

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
