"""Quantitative diagnostics on computed spectra and eigenvectors.

Covers the spectral side (power-law fits across the tensor power p; the
distances of eigenvalues to the level union are ``model.distances_to_sigma``)
and the spatial side (exponentially weighted masses, decay-rate fits against
the distance to the interface set, and truncation-artifact filtering for
Dirichlet domains).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InsufficientDataError
from .solvers import SpectrumSlice


# shell RMS amplitudes at or below this stay out of a decay fit
DECAY_FLOOR = 1e-12
# a pair with more than this share of its mass in the wall band is an artifact
WALL_ARTIFACT = 0.5
# the weighted-mass cap that defines each pair's c_star
C_CAP = 10.0


def _site_sum(abs_sq, n_sites):
    """Per-site sums of a per-index |u|^2 over the fiber components."""
    if abs_sq.size % n_sites != 0:
        raise ConsistencyError(
            "vector length is not a multiple of the site count")
    r = abs_sq.size // n_sites
    return abs_sq.reshape(n_sites, r) @ np.ones(r)


def _site_amplitude_sq(vector, n_sites):
    """|u|^2 per site, summing fiber components for rank > 1 vectors."""
    return _site_sum(np.abs(np.asarray(vector)) ** 2, n_sites)


def _logsumexp(a):
    """``scipy.special.logsumexp(a)`` of a finite 1-D float array.

    scipy 1.17's arithmetic without its array-API wrapper: the maximum, its
    tie count m, exp(a - max) with the maxima set to 0, the pairwise sum s
    divided by m unless it is 0, then log1p(s) + log(m) + max.  Tests pin it
    to scipy bit for bit; scipy before 1.17 sums log(sum(exp(a - max))) + max,
    whose last bits differ, so the package requires scipy >= 1.17.  It skips
    scipy's per-call dispatch and its second, direct sum: 63 against 168 us
    per call on 13.9k sites (one Xeon vCPU).
    """
    a_max = a.max()
    ties = a == a_max
    m = float(np.count_nonzero(ties))
    e = np.exp(a - a_max)
    e[ties] = 0.0
    s = e.sum()
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def weighted_mass(vector, dist, c, p):
    """Exponentially weighted relative mass of a vector.

    Cell-area-weighted Riemann sum of exp(2 c sqrt(p) d(x)) |u|^2 divided by
    the plain mass (same quadrature, so the area cancels); accumulated in the
    log domain to stay overflow-safe.  Exactly 1 at c = 0.
    """
    if c < 0:
        raise ValueError("decay rate c must be nonnegative")
    amp2 = _site_amplitude_sq(vector, dist.lattice.n_sites)
    return _mass(_carrier(amp2, dist.values), c, p)


def _carrier(amp2, dist_values):
    """A vector's half of ``weighted_mass``: log |u|^2 and the distances on
    the sites with mass, and the log of the plain mass."""
    carrier = amp2 > 0
    if not carrier.any():
        raise ValueError("vector has zero norm")
    log_amp2 = np.log(amp2[carrier])
    return log_amp2, dist_values[carrier], _logsumexp(log_amp2)


def _mass(carrier, c, p):
    """``weighted_mass`` at the rate c >= 0 from the vector's ``_carrier``.

    One site-length temporary per rate, never a rates x sites block:
    freeing multi-megabyte blocks raised glibc's mmap threshold, and the
    next p's window solve then peaked about 16 MB higher.
    """
    if c == 0:
        return 1.0
    log_amp2, d, log_total = carrier
    log_mass = _logsumexp(2.0 * c * np.sqrt(p) * d + log_amp2) - log_total
    # the log-domain sum cannot overflow; the final value may saturate +inf
    with np.errstate(over="ignore"):
        return float(np.exp(log_mass))


def mass_fraction_beyond(vector, dist, threshold):
    """Fraction of |u|^2 mass at distance strictly greater than threshold."""
    amp2 = _site_amplitude_sq(vector, dist.lattice.n_sites)
    total = amp2.sum()
    if total == 0:
        raise ValueError("vector has zero norm")
    return float(amp2[dist.values > threshold].sum() / total)


def _shells(dist):
    """The field's half of ``decay_fit``: the finite-distance mask, each
    finite site's shell (width 2h), the sites per shell and the centres."""
    width = 2.0 * dist.lattice.spacing
    finite = np.isfinite(dist.values)
    shell = np.floor(dist.values[finite] / width).astype(int)
    n_shells = shell.max() + 1 if shell.size else 0
    counts = np.bincount(shell, minlength=n_shells)
    centers = (np.arange(n_shells) + 0.5) * width
    return finite, shell, counts, centers


def _shell_fit(amp2, shells):
    """The vector's half of ``decay_fit``, on the bins of ``_shells``."""
    finite, shell, counts, centers = shells
    if not counts.size:
        raise InsufficientDataError("distance field has no finite values")
    sums = np.bincount(shell, weights=amp2[finite], minlength=counts.size)
    ok = counts > 0
    rms = np.zeros(counts.size)
    rms[ok] = np.sqrt(sums[ok] / counts[ok])
    usable = ok & (rms > DECAY_FLOOR)
    if usable.sum() < 4:
        raise InsufficientDataError(
            f"only {int(usable.sum())} usable shells above the floor; need 4")
    (slope, _), cov = np.polyfit(centers[usable], np.log(rms[usable]), 1,
                                 cov=True)
    return float(slope), float(np.sqrt(cov[0, 0])), int(usable.sum())


def decay_fit(vector, dist):
    """Least-squares slope of log(shell RMS of |u|) against shell distance.

    Shells have width 2h; only shells whose RMS amplitude exceeds
    ``DECAY_FLOOR`` enter the fit, and at least four are required.  Returns
    (kappa, its standard error, usable shells): kappa in units of inverse
    length (negative for decaying profiles), the error from the fit's
    residual scatter.
    """
    amp2 = _site_amplitude_sq(vector, dist.lattice.n_sites)
    return _shell_fit(amp2, _shells(dist))


def scaling_exponent(points):
    """Least-squares slope of log(value) against log(p)."""
    pts = [(float(p), float(v)) for p, v in points]
    if len(pts) < 2 or len({p for p, _ in pts}) < 2:
        raise ValueError("need at least two points with distinct p")
    if any(v <= 0 for _, v in pts):
        raise ValueError("values must be positive for a log-log fit")
    logs = np.log(np.array(pts))
    slope, _ = np.polyfit(logs[:, 0], logs[:, 1], 1)
    return float(slope)


def _wall_band(lattice, p, b_max):
    """Sites within three magnetic lengths 3 / sqrt(p b_max) of the
    Dirichlet wall; none on the torus."""
    return lattice.boundary_distance() <= 3.0 / np.sqrt(p * b_max)


@dataclass
class FilteredSlice:
    """Spectrum slice with its truncation artifacts (``artifact_mask``)
    dropped."""

    kept: SpectrumSlice
    artifact_mask: np.ndarray


def boundary_filter(sl, lattice, p, b_max):
    """Flag pairs with more than half their mass near the Dirichlet wall.

    The margin is three magnetic lengths 3 / sqrt(p b_max).  The torus has
    no wall (``boundary_distance`` is +inf), so every pair is kept there.
    """
    near = _wall_band(lattice, p, b_max)
    amp2 = (_site_sum(sl.abs_sq(i), lattice.n_sites) for i in range(len(sl)))
    mask = np.array([a[near].sum() / a.sum() > WALL_ARTIFACT for a in amp2],
                    dtype=bool)
    return FilteredSlice(kept=sl.select(np.flatnonzero(~mask)),
                         artifact_mask=mask)


@dataclass
class LocalizationEntry:
    index: int
    value: float
    c_star: float
    w_at_cmin: float
    kappa: float              # nan when the decay fit lacks shells
    kappa_stderr: float       # standard error of kappa; nan likewise
    shells: int | None        # usable shells of the fit; None likewise
    boundary_fraction: float
    far_mass_fraction: float  # mass beyond 3 magnetic lengths from the set
    artifact: bool


@dataclass
class LocalizationReport:
    entries: list
    c_min: float
    c_cap: float


def localization_report(sl, interface, p, b_max, *, b_min):
    """Per-eigenpair weighted-mass and decay diagnostics against the set.

    c_star is the largest rate of the grid of 25 from 0 to 6 c_min, with
    c_min = 0.2 sqrt(b_min), whose weighted mass is within the cap
    ``C_CAP`` (0.0 if none; the mass at 0 is 1): the grid is scanned down
    from its top to the first such rate, so no other mass is computed; each
    pair's W is taken at c_min.  Each pair's |u|^2 is read once from its
    block (``SpectrumSlice.abs_sq``) and shared by the wall fraction (as
    ``boundary_filter``), the masses, the decay fit and the far-mass
    fraction; the masks and shell bins are taken once.
    """
    lat = interface.lattice
    c_min = 0.2 * np.sqrt(b_min)
    c_grid = np.linspace(0.0, 6.0 * c_min, 25)
    dist = interface.distance
    near = _wall_band(lat, p, b_max)
    far = dist.values > 3.0 / np.sqrt(p * b_max)
    shells = _shells(dist)
    entries = []
    for i in range(len(sl)):
        amp2 = _site_sum(sl.abs_sq(i), lat.n_sites)
        total = amp2.sum()
        wall_fraction = amp2[near].sum() / total
        carrier = _carrier(amp2, dist.values)
        c_star = next((float(c) for c in c_grid[::-1]
                       if _mass(carrier, c, p) <= C_CAP), 0.0)
        try:
            kappa, stderr, n_shells = _shell_fit(amp2, shells)
        except InsufficientDataError:
            kappa, stderr, n_shells = float("nan"), float("nan"), None
        entries.append(LocalizationEntry(
            index=i, value=float(sl.values[i]), c_star=c_star,
            w_at_cmin=_mass(carrier, c_min, p), kappa=kappa,
            kappa_stderr=stderr, shells=n_shells,
            boundary_fraction=float(wall_fraction),
            far_mass_fraction=float(amp2[far].sum() / total),
            artifact=bool(wall_fraction > WALL_ARTIFACT)))
    return LocalizationReport(entries=entries, c_min=float(c_min),
                              c_cap=C_CAP)
