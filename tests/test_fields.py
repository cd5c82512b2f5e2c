"""Field presets, edge integrals, gauge links."""

import numpy as np
import pytest

from conftest import TWO_PI, torus_constant_setup
from magspec import (FieldSpec, PotentialField, apply_gauge_transform,
                     build_lattice, constant_potential, dense_spectrum,
                     edge_integrals, gauge_links, gaussian_bump_potential,
                     plaquette_holonomy, sample_field, zero_potential,
                     assemble_H)
from magspec.errors import (BundleInconsistencyError, GaugeDomainError,
                            InvalidSpecError, PositivityError)
from magspec.fields import EdgeIntegrals


def test_constant_preset_samples():
    lat = build_lattice("torus", 1.0, 8)
    b = sample_field(FieldSpec.constant(1.0), lat)
    assert np.all(b.site_values == 1.0)
    assert np.all(b.plaquette_values == 1.0)


def test_radial_dip_formula():
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    assert spec.intensity(0.0, 0.0) == pytest.approx(0.7)
    assert spec.intensity(2.0, 0.0) == pytest.approx(1 - 0.3 * np.exp(-4.0))


# each radial preset with its hand-written (b_inf, amp, width)
_RADIAL = [(FieldSpec.constant(0.8), (0.8, 0.0, 1.0)),
           (FieldSpec.radial_dip(1.0, 0.3, 1.2), (1.0, -0.3, 1.2)),
           (FieldSpec.radial_bump(0.9, 0.4, 0.7), (0.9, 0.4, 0.7))]


@pytest.mark.parametrize("spec, triple", _RADIAL,
                         ids=[spec.preset for spec, _ in _RADIAL])
def test_radial_profile_intensity_and_limits(spec, triple):
    b_inf, amp, w = triple
    assert spec.radial_profile() == triple
    # polar disk of radius 10 w: the centre and, to the last bit, b_inf
    r, t = np.meshgrid(np.linspace(0.0, 10.0 * w, 401),
                       np.linspace(0.0, 2 * np.pi, 37))
    x, y = r * np.cos(t), r * np.sin(t)
    b = spec.intensity(x, y)
    assert np.array_equal(b, b_inf + amp * np.exp(-(x * x + y * y) / w ** 2))
    assert spec.min_intensity() == b.min()
    assert spec.max_intensity() == b.max()


@pytest.mark.parametrize("spec, triple", _RADIAL,
                         ids=[spec.preset for spec, _ in _RADIAL])
def test_azimuthal_profile_encloses_the_flux(spec, triple):
    # 2 g + r g' = b(r) by central differences, and g(0) = b(0) / 2
    r = np.linspace(0.05, 3.0, 60)
    d = 1e-5
    g = spec.azimuthal_profile(r)
    dg = (spec.azimuthal_profile(r + d) - spec.azimuthal_profile(r - d)) / (2 * d)
    assert np.allclose(2 * g + r * dg, spec.intensity(r, 0.0), rtol=0, atol=1e-8)
    assert spec.azimuthal_profile(0.0) == pytest.approx(
        0.5 * spec.intensity(0.0, 0.0), rel=1e-15)


def test_transition_limits_and_no_radial_profile():
    for b_minus, b_plus in [(1.0, 2.0), (1.5, 0.5)]:
        spec = FieldSpec.transition(b_minus, b_plus, 0.8)
        assert spec.min_intensity() == min(b_minus, b_plus)
        assert spec.max_intensity() == max(b_minus, b_plus)
        for call in (spec.radial_profile, lambda: spec.azimuthal_profile(1.0)):
            with pytest.raises(GaugeDomainError, match="is not radial"):
                call()
    with pytest.raises(InvalidSpecError, match="unknown preset"):
        FieldSpec("nope", ()).min_intensity()


def test_radial_dip_positivity_rejected():
    with pytest.raises(PositivityError):
        FieldSpec.radial_dip(1.0, 1.5, 1.0)


def test_flux_quantization_integer():
    # every torus that a config can ask for carries c1 flux quanta: b is
    # c1 / 2 pi on the 2 pi x 2 pi torus, and field, b and extent are
    # refused, so the plaquette flux is 2 pi c1
    from magspec.config import build_config
    from magspec.experiments import build_instance
    for c1 in (1, 2, 3):
        cfg = build_config({"experiment": "torus_constant", "c1": c1,
                            "p": [4]})
        inst = build_instance(cfg, 4)
        b, lat = inst["b"], inst["lattice"]
        flux = float(np.sum(b.plaquette_values) * lat.spacing ** 2)
        assert flux / TWO_PI == pytest.approx(c1, rel=1e-12)


def test_landau_edge_values_constant_field():
    lat = build_lattice("rectangle_dirichlet", 2.0, 10)
    bval = 0.8
    ints = edge_integrals(FieldSpec.constant(bval), lat, "landau")
    xmask = lat.edge_axis == 0
    assert np.allclose(ints.values[xmask], 0.0)
    x = lat.positions[lat.edge_src[~xmask], 0]
    assert np.allclose(ints.values[~xmask], bval * x * lat.spacing)


def test_plaquette_sums_equal_flux_constant_torus():
    lat = build_lattice("torus", TWO_PI, 12)
    bval = 2 / TWO_PI
    ints = edge_integrals(FieldSpec.constant(bval), lat, "landau")
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    sums = ints.values[lat.plaquettes] @ signs
    flux = bval * lat.spacing ** 2
    corner = lat.n_plaquettes - 1  # carries the total-flux defect by design
    ok = np.ones(lat.n_plaquettes, dtype=bool)
    ok[corner] = False
    assert np.allclose(sums[ok], flux, atol=1e-12)
    assert sums[corner] == pytest.approx(flux - ints.total_flux)


def test_plaquette_sums_match_fine_flux_radial():
    # symmetric gauge, varying field: quadrature defect O(h^4) per plaquette
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    errs = {}
    for nx in (16, 32):
        lat = build_lattice("rectangle_dirichlet", 2.4, nx)
        ints = edge_integrals(spec, lat, "symmetric")
        signs = np.array([1.0, 1.0, -1.0, -1.0])
        sums = ints.values[lat.plaquettes] @ signs
        # high-order product Gauss flux oracle per plaquette
        nodes, weights = np.polynomial.legendre.leggauss(6)
        tx = 0.5 * (nodes + 1)
        cen = lat.plaquette_centers
        h = lat.spacing
        flux = np.zeros(len(cen))
        for ax, wx in zip(tx, weights):
            for ay, wy in zip(tx, weights):
                xx = cen[:, 0] + (ax - 0.5) * h
                yy = cen[:, 1] + (ay - 0.5) * h
                flux += 0.25 * wx * wy * spec.intensity(xx, yy) * h * h
        errs[nx] = np.abs(sums - flux).max()
    # halving h divides the worst defect by about 2^4
    assert errs[16] / errs[32] > 10
    assert errs[32] < 1e-6


def test_gauge_links_quarter_turn():
    lat = build_lattice("rectangle_dirichlet", 1.0, 3)
    vals = np.zeros(lat.n_edges)
    vals[0] = np.pi / 2
    ints = EdgeIntegrals(values=vals, lattice=lat, total_flux=None)
    links = gauge_links(ints, 1)
    assert links.u[0] == pytest.approx(-1j)


def test_gauge_links_quantization_gate():
    lat = build_lattice("torus", TWO_PI, 12)
    spec = FieldSpec.constant(1.5 / TWO_PI)  # 1.5 flux quanta
    ints = edge_integrals(spec, lat, "landau")
    links = gauge_links(ints, 2)  # 3 quanta at p = 2: fine
    assert links.p == 2
    with pytest.raises(BundleInconsistencyError):
        gauge_links(ints, 1)


def test_holonomy_constant_field():
    lat, spec, b, links, V, H = torus_constant_setup(nx=16, p=4)
    hol = plaquette_holonomy(links)
    expect = -4 * (1 / TWO_PI) * lat.spacing ** 2
    assert np.allclose(np.angle(np.exp(1j * (hol - expect))), 0.0, atol=1e-12)
    # total curvature closes: product of all plaquette holonomies is 1
    total = np.exp(1j * hol).prod()
    assert abs(total - 1.0) < 1e-10


def test_holonomy_tracks_local_flux_radial():
    p = 4
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    lat = build_lattice("rectangle_dirichlet", 2.4, 32)
    links = gauge_links(edge_integrals(spec, lat, "symmetric"), p)
    hol = plaquette_holonomy(links)
    cen = lat.plaquette_centers
    approx = -p * spec.intensity(cen[:, 0], cen[:, 1]) * lat.spacing ** 2
    assert np.abs(hol - approx).max() < p * 1e-5


def test_gauge_transform_identity_and_invariance():
    lat, spec, b, links, V, H = torus_constant_setup(nx=12, p=4)
    same = apply_gauge_transform(links, np.ones(lat.n_sites, dtype=complex))
    assert np.array_equal(same.phases, links.phases)

    rng = np.random.default_rng(7)
    phases = np.exp(1j * rng.uniform(0, TWO_PI, lat.n_sites))
    moved = apply_gauge_transform(links, phases)
    h0 = plaquette_holonomy(links)
    h1 = plaquette_holonomy(moved)
    drift = np.abs(np.angle(np.exp(1j * (h1 - h0))))
    assert drift.max() < 1e-12


def test_gauge_transform_preserves_spectrum():
    lat, spec, b, links, V, H = torus_constant_setup(nx=16, p=4)
    rng = np.random.default_rng(11)
    phases = np.exp(1j * rng.uniform(0, TWO_PI, lat.n_sites))
    H2 = assemble_H(lat, apply_gauge_transform(links, phases), V, 4)
    w1 = dense_spectrum(H).values
    w2 = dense_spectrum(H2).values
    scale = np.abs(w1).max()
    assert np.abs(w1 - w2).max() <= 1e-10 * scale


def test_unsupported_gauge_combinations():
    torus = build_lattice("torus", TWO_PI, 8)
    rect = build_lattice("rectangle_dirichlet", 2.0, 8)
    with pytest.raises(GaugeDomainError):
        edge_integrals(FieldSpec.radial_dip(1.0, 0.3), torus, "landau")
    with pytest.raises(GaugeDomainError):
        edge_integrals(FieldSpec.constant(1.0), torus, "symmetric")
    with pytest.raises(GaugeDomainError):
        edge_integrals(FieldSpec.transition(1.0, 2.0), rect, "symmetric")
    with pytest.raises(GaugeDomainError):
        edge_integrals(FieldSpec.constant(1.0), rect, "unknown_gauge")


def test_transition_field_landau_gauge_flux():
    spec = FieldSpec.transition(1.0, 2.0, 0.5)
    lat = build_lattice("rectangle_dirichlet", 3.0, 24)
    ints = edge_integrals(spec, lat, "landau")
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    sums = ints.values[lat.plaquettes] @ signs
    cen = lat.plaquette_centers
    approx = spec.intensity(cen[:, 0], cen[:, 1]) * lat.spacing ** 2
    assert np.abs(sums - approx).max() < 1e-4


@pytest.mark.parametrize("preset", ["radial_dip", "radial_bump",
                                    "transition"])
def test_field_width_must_be_positive(preset):
    with pytest.raises(InvalidSpecError, match="width must be positive"):
        getattr(FieldSpec, preset)(width=0.0)


def test_potential_validation_and_eigenvalues():
    lat = build_lattice("rectangle_dirichlet", 2.0, 6)
    bad = np.zeros((lat.n_sites, 2, 2), dtype=complex)
    bad[:, 0, 1] = 1.0  # not Hermitian
    with pytest.raises(InvalidSpecError):
        PotentialField(bad, lat)
    with pytest.raises(InvalidSpecError):
        zero_potential(lat, rank=9)

    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    V = constant_potential(lat, 0.5 * pauli_x)
    assert V.rank == 2
    assert np.allclose(V.eigenvalues, [-0.5, 0.5])

    bump = gaussian_bump_potential(lat, 1.0, 1.0)
    pos = lat.positions
    assert np.allclose(bump.eigenvalues[:, 0],
                       np.exp(-(pos[:, 0] ** 2 + pos[:, 1] ** 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "+inf", "-inf"])
def test_potential_values_must_be_finite(value):
    # a non-finite site passes the Hermitian check (nan > tol is False) and
    # would reach the factorizations; it is refused when the field is made
    lat = build_lattice("rectangle_dirichlet", 2.0, 6)
    vals = np.full((lat.n_sites, 1, 1), 0.25, dtype=complex)
    assert np.allclose(PotentialField(vals, lat).eigenvalues, 0.25)
    vals[lat.n_sites // 2, 0, 0] = value
    with pytest.raises(InvalidSpecError, match="potential values must be "
                                               "finite"):
        PotentialField(vals, lat)
