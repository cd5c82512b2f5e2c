"""Quantitative diagnostics on computed spectra and eigenvectors.

Covers the spectral side (distance of eigenvalues to the level union,
per-interval counts, power-law fits across the tensor power p) and the
spatial side (exponentially weighted masses, decay-rate fits against the
distance to the interface set, truncation-artifact filtering for Dirichlet
domains, and norm lower-bound trials with compactly supported test vectors).
"""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter
from scipy.special import logsumexp

from .errors import InsufficientDataError, SupportError
from .model import dist_to_sigma, distances_to_sigma
from .solvers import SpectrumSlice


def _site_amplitude_sq(vector, n_sites):
    """|u|^2 per site, summing fiber components for rank > 1 vectors."""
    u = np.asarray(vector)
    if u.size % n_sites != 0:
        raise SupportError("vector length is not a multiple of the site count")
    r = u.size // n_sites
    return np.abs(u.reshape(n_sites, r)) ** 2 @ np.ones(r)


@dataclass
class ClusterReport:
    """Distances of a spectrum slice to the level union, with counts."""

    distances: np.ndarray
    max_distance: float
    mean_distance: float
    interval_index: np.ndarray   # merged-interval membership, -1 if outside
    interval_counts: np.ndarray
    truncated: bool              # slice reached beyond the union cutoff


def cluster_assign(sl, sigma):
    """Assign each eigenvalue its distance to the union and its interval."""
    lams = sl.values
    if lams.size == 0:
        raise InsufficientDataError("empty spectrum slice")
    dists = distances_to_sigma(lams, sigma)
    los, his = sigma.bounds
    idx = np.full(lams.size, -1, dtype=int)
    for i, lam in enumerate(lams):
        inside = np.flatnonzero((los <= lam) & (lam <= his))
        if inside.size:
            idx[i] = inside[0]  # disjoint intervals; ties go to the lower one
    counts = np.bincount(idx[idx >= 0], minlength=len(sigma.intervals))
    truncated = bool(lams.max() > sigma.cutoff)
    return ClusterReport(distances=dists, max_distance=float(dists.max()),
                         mean_distance=float(dists.mean()),
                         interval_index=idx, interval_counts=counts,
                         truncated=truncated)


def weighted_mass(vector, dist, c, p):
    """Exponentially weighted relative mass of a vector.

    Cell-area-weighted Riemann sum of exp(2 c sqrt(p) d(x)) |u|^2 divided by
    the plain mass (same quadrature, so the area cancels); accumulated in the
    log domain to stay overflow-safe.  Exactly 1 at c = 0.
    """
    if c < 0:
        raise ValueError("decay rate c must be nonnegative")
    lat = dist.lattice
    amp2 = _site_amplitude_sq(vector, lat.n_sites)
    carrier = amp2 > 0
    if not carrier.any():
        raise ValueError("vector has zero norm")
    if c == 0:
        return 1.0
    log_amp2 = np.log(amp2[carrier])
    log_w = 2.0 * c * np.sqrt(p) * dist.values[carrier]
    log_mass = logsumexp(log_w + log_amp2) - logsumexp(log_amp2)
    # the log-domain sum cannot overflow; the final value may saturate +inf
    with np.errstate(over="ignore"):
        return float(np.exp(log_mass))


def _weighted_masses(vector, dist, rates, p):
    """``weighted_mass`` at every rate, with |u|^2, its log and the plain
    mass taken once.

    The same arithmetic per rate, so each value equals the scalar one bit
    for bit.  One site-length temporary per rate, not a rates x sites
    block: freeing multi-megabyte blocks raises glibc's dynamic mmap
    threshold, and the next p's window solve then peaked about 16 MB
    higher (potential_bump, p = 64 then 128); the loop was also faster.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("decay rate c must be nonnegative")
    amp2 = _site_amplitude_sq(vector, dist.lattice.n_sites)
    carrier = amp2 > 0
    if not carrier.any():
        raise ValueError("vector has zero norm")
    log_amp2 = np.log(amp2[carrier])
    d = dist.values[carrier]
    log_mass = np.array([logsumexp(s * d + log_amp2)
                         for s in 2.0 * rates * np.sqrt(p)])
    log_mass -= logsumexp(log_amp2)
    with np.errstate(over="ignore"):
        return np.where(rates == 0, 1.0, np.exp(log_mass))


def mass_fraction_beyond(vector, dist, threshold):
    """Fraction of |u|^2 mass at distance strictly greater than threshold."""
    amp2 = _site_amplitude_sq(vector, dist.lattice.n_sites)
    total = amp2.sum()
    if total == 0:
        raise ValueError("vector has zero norm")
    return float(amp2[dist.values > threshold].sum() / total)


def decay_fit(vector, dist, floor=1e-12):
    """Least-squares slope of log(shell RMS of |u|) against shell distance.

    Shells have width 2h; only shells whose RMS amplitude exceeds the floor
    enter the fit, and at least four are required.  Returns (kappa, its
    standard error, usable shells): kappa in units of inverse length
    (negative for decaying profiles), the error from the fit's residual
    scatter.
    """
    lat = dist.lattice
    h = max(lat.spacing_x, lat.spacing_y)
    width = 2.0 * h
    amp2 = _site_amplitude_sq(vector, lat.n_sites)
    finite = np.isfinite(dist.values)
    if not finite.any():
        raise InsufficientDataError("distance field has no finite values")
    shell = np.floor(dist.values[finite] / width).astype(int)
    amp2 = amp2[finite]
    n_shells = shell.max() + 1
    sums = np.bincount(shell, weights=amp2, minlength=n_shells)
    counts = np.bincount(shell, minlength=n_shells)
    ok = counts > 0
    rms = np.zeros(n_shells)
    rms[ok] = np.sqrt(sums[ok] / counts[ok])
    usable = ok & (rms > floor)
    if usable.sum() < 4:
        raise InsufficientDataError(
            f"only {int(usable.sum())} usable shells above the floor; need 4")
    centers = (np.arange(n_shells) + 0.5) * width
    (slope, _), cov = np.polyfit(centers[usable], np.log(rms[usable]), 1,
                                 cov=True)
    return float(slope), float(np.sqrt(cov[0, 0])), int(usable.sum())


@dataclass
class TrialBound:
    """One norm lower-bound trial: residual ratio vs distance to the union."""

    ratio: float
    distance: float
    bound_gap: float   # (distance - ratio) * p^(1/4); bounded above if the
                       # lower bound holds with a uniform constant


def norm_lower_bound_trial(op, omega, sigma_omega, lam, vector):
    """Evaluate ||(H - lam) u|| / ||u|| for u supported in the complement set.

    The companion prediction is ratio >= distance - C p^(-1/4), so the
    returned bound_gap should stay below a single constant uniformly in p.
    """
    u = np.asarray(vector, dtype=complex)
    n_sites = op.lattice.n_sites
    r = op.rank
    norm = np.linalg.norm(u)
    if norm == 0:
        raise ValueError("trial vector has zero norm")
    u = u / norm
    off = np.repeat(~np.asarray(omega, dtype=bool), r)
    if np.any(np.abs(u[off]) > 1e-14):
        raise SupportError("trial vector leaks outside the support mask")
    ratio = float(np.linalg.norm(op.matrix @ u - lam * u))
    d = dist_to_sigma(lam, sigma_omega)
    return TrialBound(ratio=ratio, distance=d,
                      bound_gap=(d - ratio) * op.p ** 0.25)


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


@dataclass
class FilteredSlice:
    """Spectrum slice split into bulk pairs and truncation artifacts."""

    kept: SpectrumSlice
    artifacts: SpectrumSlice
    fractions: np.ndarray
    artifact_mask: np.ndarray


def boundary_filter(sl, lattice, p, b_max):
    """Flag pairs with more than half their mass near the Dirichlet wall.

    The margin is three magnetic lengths 3 / sqrt(p b_max).  The torus has
    no wall (``boundary_distance`` is +inf), so every pair is kept there.
    """
    k = len(sl)
    margin = 3.0 / np.sqrt(p * b_max)
    wall = lattice.boundary_distance()
    near = wall <= margin
    fractions = np.empty(k)
    for i in range(k):
        amp2 = _site_amplitude_sq(sl.vectors[:, i], lattice.n_sites)
        fractions[i] = amp2[near].sum() / amp2.sum()
    mask = fractions > 0.5
    return FilteredSlice(kept=sl.select(np.flatnonzero(~mask)),
                         artifacts=sl.select(np.flatnonzero(mask)),
                         fractions=fractions, artifact_mask=mask)


@dataclass
class LocalizationEntry:
    index: int
    value: float
    w_grid: np.ndarray
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
    c_grid: np.ndarray
    c_min: float
    c_cap: float
    p: int


def localization_report(sl, interface, p, b_max, b_min=None, c_grid=None,
                        c_min=None, c_cap=10.0):
    """Per-eigenpair weighted-mass and decay diagnostics against the set.

    c_star is the largest grid rate whose weighted mass stays below the cap;
    the mass grid starts at 0 where it is exactly 1, so c_star always exists.
    """
    lat = interface.lattice
    if b_min is None:
        b_min = b_max
    if c_min is None:
        c_min = 0.2 * np.sqrt(b_min)
    if c_grid is None:
        c_grid = np.linspace(0.0, 6.0 * c_min, 25)
    filt = boundary_filter(sl, lat, p, b_max)
    ell3 = 3.0 / np.sqrt(p * b_max)
    rates = np.append(c_grid, c_min)
    entries = []
    for i in range(len(sl)):
        vec = sl.vectors[:, i]
        masses = _weighted_masses(vec, interface.distance, rates, p)
        w, w_at_cmin = masses[:-1], float(masses[-1])
        admissible = np.flatnonzero(w <= c_cap)
        c_star = float(c_grid[admissible[-1]]) if admissible.size else 0.0
        try:
            kappa, stderr, shells = decay_fit(vec, interface.distance)
        except InsufficientDataError:
            kappa, stderr, shells = float("nan"), float("nan"), None
        far = mass_fraction_beyond(vec, interface.distance, ell3)
        entries.append(LocalizationEntry(
            index=i, value=float(sl.values[i]), w_grid=w, c_star=c_star,
            w_at_cmin=w_at_cmin, kappa=kappa, kappa_stderr=stderr,
            shells=shells, boundary_fraction=float(filt.fractions[i]),
            far_mass_fraction=far, artifact=bool(filt.artifact_mask[i])))
    return LocalizationReport(entries=entries, c_grid=np.asarray(c_grid),
                              c_min=float(c_min), c_cap=float(c_cap), p=int(p))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def bandlimited_trial(lattice, interface, p, b_ref, seed=0):
    """Random low-pass trial vector supported in the interface complement.

    Complex white noise low-pass filtered at the magnetic length, then
    mollified to zero over two magnetic lengths on both the interface side
    and the Dirichlet wall, so discrete support leakage cannot fake a
    violation of the norm lower bound.  Unit norm, rank 1.
    """
    rng = np.random.default_rng(seed)
    ell = 1.0 / np.sqrt(p * b_ref)
    shape = (lattice.site_ny, lattice.site_nx)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mode = "wrap" if lattice.is_torus else "constant"
    sig = (ell / lattice.spacing_y, ell / lattice.spacing_x)
    smooth = (gaussian_filter(noise.real, sig, mode=mode)
              + 1j * gaussian_filter(noise.imag, sig, mode=mode))
    u = smooth.ravel()
    u = u * _smoothstep(interface.distance.values / (2.0 * ell))
    if not lattice.is_torus:
        u = u * _smoothstep(lattice.boundary_distance() / (2.0 * ell))
    u = u.astype(complex)
    u[~interface.omega] = 0.0
    norm = np.linalg.norm(u)
    if norm == 0:
        raise ValueError("trial vector vanished; complement set too thin")
    return u / norm
