"""Magnetic field intensities, matrix potentials, and U(1) gauge links.

The field intensity b(x) > 0 is the 2D scalar form of the magnetic 2-form.
Connections are discretized by Peierls substitution: each directed lattice
edge carries a unit-modulus phase u(e) = exp(-i p * integral of theta along
the edge), so plaquette holonomies reproduce the flux gauge-invariantly.

Two global gauges are supported: a Landau-type gauge theta = b(y) x dy for
fields depending on the second coordinate only (valid on the torus, where the
boundary mismatch becomes a twist on wrapping edges), and the symmetric/
azimuthal gauge for radial fields on the centered Dirichlet square.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (BundleInconsistencyError, ConsistencyError,
                     GaugeDomainError, InvalidSpecError, PositivityError)
from .lattice import Lattice

# 2-point Gauss nodes on [0, 1]
_GAUSS_T = ((1.0 - 1.0 / np.sqrt(3.0)) / 2.0, (1.0 + 1.0 / np.sqrt(3.0)) / 2.0)

LANDAU = "landau"
SYMMETRIC = "symmetric"

MAX_RANK = 8


@dataclass(frozen=True)
class FieldSpec:
    """One of the supported magnetic intensity profiles.

    Presets: ``constant``, ``radial_dip``, ``radial_bump``, ``transition``;
    each constructor's signature holds its parameters' defaults, which
    config files inherit.  Construction rejects a non-positive width and
    profiles that are not strictly positive.
    """

    preset: str
    params: tuple  # ordered (name, value) pairs; kept hashable

    @classmethod
    def constant(cls, b=1.0):
        return cls._make("constant", b=b)

    @classmethod
    def radial_dip(cls, b_inf=1.0, depth=0.3, width=1.0):
        return cls._make("radial_dip", b_inf=b_inf, depth=depth, width=width)

    @classmethod
    def radial_bump(cls, b_inf=1.0, height=0.3, width=1.0):
        return cls._make("radial_bump", b_inf=b_inf, height=height,
                         width=width)

    @classmethod
    def transition(cls, b_minus=1.0, b_plus=2.0, width=1.0):
        return cls._make("transition", b_minus=b_minus, b_plus=b_plus,
                         width=width)

    @classmethod
    def _make(cls, preset, **params):
        spec = cls(preset, tuple((k, float(v)) for k, v in params.items()))
        if "width" in params and spec["width"] <= 0:
            raise InvalidSpecError("width must be positive")
        if spec.min_intensity() <= 0:
            raise PositivityError(
                f"field preset {preset} with {dict(spec.params)} is not "
                f"uniformly positive (min {spec.min_intensity():g})")
        return spec

    def __getitem__(self, name):
        return dict(self.params)[name]

    def radial_profile(self):
        """(b_inf, amp, width) of a radial preset's b = b_inf + amp
        exp(-|x|^2 / width^2); ``constant`` is amp 0, width 1."""
        if self.preset == "constant":
            return self["b"], 0.0, 1.0
        if self.preset == "radial_dip":
            return self["b_inf"], -self["depth"], self["width"]
        if self.preset == "radial_bump":
            return self["b_inf"], self["height"], self["width"]
        if self.preset == "transition":
            raise GaugeDomainError(f"preset {self.preset} is not radial")
        raise InvalidSpecError(f"unknown preset {self.preset!r}")

    def _limits(self):
        """b's two limits: far field and centre, or b_minus and b_plus."""
        if self.preset == "transition":
            return self["b_minus"], self["b_plus"]
        b_inf, amp, _ = self.radial_profile()
        return b_inf + amp, b_inf

    def min_intensity(self):
        """Analytic infimum of b over the plane."""
        return min(self._limits())

    def max_intensity(self):
        """Analytic supremum of b over the plane."""
        return max(self._limits())

    @property
    def is_radial(self):
        return self.preset in ("constant", "radial_dip", "radial_bump")

    @property
    def is_horizontal(self):
        """True when b depends on the second coordinate only."""
        return self.preset in ("constant", "transition")

    def intensity(self, x, y):
        """Evaluate b at coordinates (vectorized)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.preset == "transition":
            bm, bp, w = self["b_minus"], self["b_plus"], self["width"]
            return bm + (bp - bm) * 0.5 * (1.0 + np.tanh(y / w))
        b_inf, amp, w = self.radial_profile()
        return b_inf + amp * gaussian(x, y, w)

    def antiderivative(self, y):
        """F(y) = integral of b(0, s) ds from 0 to y, for horizontal profiles."""
        y = np.asarray(y, dtype=float)
        if self.preset == "constant":
            return self["b"] * y
        if self.preset == "transition":
            bm, bp, w = self["b_minus"], self["b_plus"], self["width"]
            delta = bp - bm
            return bm * y + delta * (0.5 * y + 0.5 * w * np.log(np.cosh(y / w)))
        raise GaugeDomainError(f"preset {self.preset} is not of the b(y) form")

    def azimuthal_profile(self, r):
        """g(r) with theta = g(r)(x dy - y dx), i.e. enclosed flux / (2 pi r^2).

        Satisfies 2 g + r g' = b(r); closed form for the radial profile,
        with a series-stable branch near r = 0.
        """
        r = np.asarray(r, dtype=float)
        b_inf, amp, w = self.radial_profile()
        u = (r / w) ** 2
        # (1 - exp(-u)) / u -> 1 as u -> 0
        with np.errstate(invalid="ignore"):
            phi = np.where(u > 0, -np.expm1(-u) / np.where(u > 0, u, 1.0), 1.0)
        return 0.5 * b_inf + 0.5 * amp * phi


@dataclass
class ScalarField:
    """Field intensity sampled at sites and plaquette centers."""

    site_values: np.ndarray
    plaquette_values: np.ndarray
    lattice: Lattice


@dataclass
class PotentialField:
    """Hermitian r x r energy matrix per site, with sitewise eigenvalues."""

    values: np.ndarray  # (n_sites, r, r) complex
    lattice: Lattice

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 3 or v.shape[0] != self.lattice.n_sites or v.shape[1] != v.shape[2]:
            raise InvalidSpecError("potential must have shape (n_sites, r, r)")
        if v.shape[1] < 1 or v.shape[1] > MAX_RANK:
            raise InvalidSpecError(f"potential rank must be in 1..{MAX_RANK}")
        if not np.isfinite(v).all():
            raise InvalidSpecError("potential values must be finite")
        scale = max(np.abs(v).max(), 1.0)
        if np.abs(v - v.conj().transpose(0, 2, 1)).max() > 1e-12 * scale:
            raise InvalidSpecError("potential is not Hermitian sitewise")
        self.values = v

    @property
    def rank(self):
        return self.values.shape[1]

    @property
    def eigenvalues(self):
        """Sitewise eigenvalue branches, ascending: shape (n_sites, r)."""
        if self.rank == 1:
            return self.values[:, 0, 0].real.reshape(-1, 1)
        return np.linalg.eigvalsh(self.values)


def zero_potential(lattice, rank=1):
    return PotentialField(np.zeros((lattice.n_sites, rank, rank), dtype=complex), lattice)


def constant_potential(lattice, matrix):
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return PotentialField(np.broadcast_to(m, (lattice.n_sites,) + m.shape).copy(), lattice)


def gaussian(x, y, width):
    """exp(-|x|^2 / width^2): the profile of the radial field presets and of
    the potential bump."""
    return np.exp(-(x * x + y * y) / width ** 2)


def gaussian_bump_potential(lattice, height, width=1.0, rank=1):
    """Scalar radial bump height * exp(-|x|^2 / width^2) times the identity."""
    pos = lattice.positions
    prof = height * gaussian(pos[:, 0], pos[:, 1], width)
    vals = np.einsum("i,jk->ijk", prof, np.eye(rank)).astype(complex)
    return PotentialField(vals, lattice)


def sample_field(spec, lattice):
    """Sample b at sites and plaquette centers, verifying positivity."""
    pos = lattice.positions
    site_vals = spec.intensity(pos[:, 0], pos[:, 1])
    cen = lattice.plaquette_centers
    plaq_vals = spec.intensity(cen[:, 0], cen[:, 1])
    worst = min(site_vals.min(), plaq_vals.min())
    if worst <= 0:
        raise PositivityError(f"sampled field intensity reaches {worst:g} <= 0")
    return ScalarField(site_values=site_vals, plaquette_values=plaq_vals,
                       lattice=lattice)


@dataclass
class EdgeIntegrals:
    """Line integrals of the connection 1-form along the lattice edges.

    Values follow the lattice edge arrays (one stored orientation; reversal
    negates).  On the torus the Landau-gauge boundary mismatch -Lx*F(y) is
    already folded into the x-wrapping edges, which makes every plaquette sum
    match its flux except the single corner plaquette, whose defect is the
    total flux (invisible modulo 2 pi once multiplied by a quantized p).
    """

    values: np.ndarray
    lattice: Lattice
    total_flux: float | None  # analytic total flux on the torus, else None


def edge_integrals(spec, lattice, gauge):
    """Per-edge 2-point Gauss quadrature of the chosen gauge's 1-form."""
    if gauge == LANDAU:
        if not spec.is_horizontal:
            raise GaugeDomainError(
                f"landau gauge needs b = b(y); preset {spec.preset} is not")
        return _landau_integrals(spec, lattice)
    if gauge == SYMMETRIC:
        if lattice.is_torus:
            raise GaugeDomainError("symmetric gauge is not periodic; use the "
                                   "rectangle domain")
        if not spec.is_radial:
            raise GaugeDomainError(
                f"symmetric gauge needs a radial field; preset {spec.preset} is not")
        return _symmetric_integrals(spec, lattice)
    raise GaugeDomainError(f"unknown gauge {gauge!r}")


def _landau_integrals(spec, lattice):
    # theta = b(y) * x * dy: x-edges contribute 0, y-edges x * int b(s) ds
    pos = lattice.positions
    src = lattice.edge_src
    vals = np.zeros(lattice.n_edges)
    ymask = lattice.edge_axis == 1
    x0 = pos[src[ymask], 0]
    y0 = pos[src[ymask], 1]
    h = lattice.spacing
    quad = np.zeros(x0.size)
    for t in _GAUSS_T:
        quad += 0.5 * spec.intensity(x0, y0 + t * h)
    vals[ymask] = x0 * h * quad

    total_flux = None
    if lattice.is_torus:
        # fold the clutching twist -L * F(y) into the x-wrapping edges
        wrap_x = (lattice.edge_axis == 0) & lattice.edge_wraps
        yw = pos[src[wrap_x], 1]
        vals[wrap_x] -= lattice.extent * spec.antiderivative(yw)
        total_flux = float(lattice.extent * spec.antiderivative(lattice.extent))
    return EdgeIntegrals(values=vals, lattice=lattice, total_flux=total_flux)


def _symmetric_integrals(spec, lattice):
    # theta = g(r) (x dy - y dx) with g the azimuthal profile
    pos = lattice.positions
    p0 = pos[lattice.edge_src]
    step = lattice.spacing * np.eye(2)[lattice.edge_axis]
    vals = np.zeros(lattice.n_edges)
    for t in _GAUSS_T:
        q = p0 + t * step
        r = np.hypot(q[:, 0], q[:, 1])
        cross = q[:, 0] * step[:, 1] - q[:, 1] * step[:, 0]
        vals += 0.5 * spec.azimuthal_profile(r) * cross
    return EdgeIntegrals(values=vals, lattice=lattice, total_flux=None)


@dataclass
class GaugeLinks:
    """Unit-modulus phase per directed edge at tensor power p.

    Stored as real phases alpha(e); u(e) = exp(i alpha(e)) and reversal
    conjugates.  On the torus the wrapping twist keeps all plaquette
    holonomies equal to -p * flux modulo 2 pi, which closes only when
    p * total flux is an integer multiple of 2 pi.
    """

    phases: np.ndarray
    p: int
    lattice: Lattice

    @property
    def u(self):
        return np.exp(1j * self.phases)


def gauge_links(ints, p):
    """Peierls links u(e) = exp(-i p * edge integral)."""
    p = int(p)
    if p < 1:
        raise InvalidSpecError("tensor power p must be >= 1")
    if ints.lattice.is_torus:
        ratio = p * ints.total_flux / (2.0 * np.pi)
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, abs(ratio)):
            raise BundleInconsistencyError(
                f"p * total flux / 2pi = {ratio:.9g} is not an integer; links "
                f"cannot close into a bundle at p = {p}")
    return GaugeLinks(phases=-p * ints.values, p=p, lattice=ints.lattice)


def trivial_links(lattice, p):
    """Identity links (zero field); handy as a free-Laplacian reference."""
    return GaugeLinks(phases=np.zeros(lattice.n_edges), p=int(p), lattice=lattice)


def plaquette_holonomy(links):
    """Principal-value phase of the counterclockwise 4-link product."""
    u = links.u
    plq = links.lattice.plaquettes
    prod = u[plq[:, 0]] * u[plq[:, 1]] * np.conj(u[plq[:, 2]]) * np.conj(u[plq[:, 3]])
    return np.angle(prod)


def apply_gauge_transform(links, site_phases):
    """u'(i -> j) = phi(i) u(i -> j) conj(phi(j)) for unit site phases."""
    phi = np.asarray(site_phases)
    if phi.shape != (links.lattice.n_sites,):
        raise ConsistencyError("need exactly one phase per site")
    mod = np.abs(phi)
    if np.any(mod == 0):
        raise InvalidSpecError("site phases must be unit modulus (nonzero)")
    ang = np.angle(phi / mod)
    alpha = links.phases + ang[links.lattice.edge_src] - ang[links.lattice.edge_dst]
    return GaugeLinks(phases=alpha, p=links.p, lattice=links.lattice)
