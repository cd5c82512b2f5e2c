"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [CRITERION n] PASS/FAIL line (run pytest with -s to see
them live).  The heavy preset sweeps run once as session fixtures and feed
the criteria that share them.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import (TWO_PI, brute_levels, bump_rectangle_setup,
                      dip_rectangle_setup, lowest_window,
                      torus_constant_setup)
from magspec import (FieldSpec, apply_gauge_transform, assemble_H,
                     build_lattice, constant_potential, dense_spectrum,
                     dist_to_sigma, find_gaps, interface_set, sample_field,
                     sigma_region, window_eigs, zero_potential)
from magspec.config import build_config
from magspec.experiments import build_instance, run_experiment
from magspec.fields import ScalarField
from magspec.model import SigmaUnion, levels_in_window
from magspec.solvers import CERTIFIED


def _report(num, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[CRITERION {num}] {status} {name}: {detail} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.1f}s"


@pytest.fixture(scope="session")
def preset_b_summary(tmp_path_factory):
    cfg = build_config({"experiment": "radial_dip",
                        "out": str(tmp_path_factory.mktemp("preset_b"))})
    start = time.perf_counter()
    result = run_experiment(cfg)
    result.summary["elapsed"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def preset_c_summary(tmp_path_factory):
    cfg = build_config({"experiment": "potential_bump",
                        "out": str(tmp_path_factory.mktemp("preset_c"))})
    start = time.perf_counter()
    result = run_experiment(cfg)
    result.summary["elapsed"] = time.perf_counter() - start
    return result


def test_criterion_1_gauge_invariance():
    start = time.perf_counter()
    lat, spec, b, links, V, H = torus_constant_setup(nx=24, p=4)
    rng = np.random.default_rng(2024)
    phases = np.exp(2j * np.pi * rng.random(lat.n_sites))
    H2 = assemble_H(lat, apply_gauge_transform(links, phases), V, 4)
    w1 = dense_spectrum(H).values
    w2 = dense_spectrum(H2).values
    dev = float(np.abs(w1 - w2).max() / np.abs(w1).max())
    _report(1, "gauge invariance", dev <= 1e-10,
            f"relative spectral deviation {dev:.2e} <= 1e-10",
            time.perf_counter() - start, 10.0)


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    slices = []
    cases = [
        torus_constant_setup(nx=32, p=4),            # 1024 sites
        dip_rectangle_setup(nx=33, p=8),             # 1024 interior sites
        bump_rectangle_setup(nx=33, p=8),
    ]
    for lat, spec, b, links, V, H in cases:
        assert H.n <= 1024
        window, dense = lowest_window(H, 20)
        sl = window_eigs(H, window)
        slices.append((len(sl), sl.certificate))
        err = np.abs(sl.values - dense[:20]).max() if len(sl) == 20 \
            else np.inf
        worst = max(worst, float(err))
    passed = worst <= 1e-8 and slices == [(20, CERTIFIED)] * 3
    _report(2, "oracle equivalence", passed,
            f"(pairs, certificate) {slices}; worst |window - dense| = "
            f"{worst:.2e} <= 1e-8 over 3 presets",
            time.perf_counter() - start, 30.0)


def test_criterion_3_landau_cluster_counts(tmp_path):
    start = time.perf_counter()
    cfg = build_config({"experiment": "torus_constant", "p": [4, 8, 16],
                        "out": str(tmp_path)})
    result = run_experiment(cfg)
    ok = result.passed
    details = []
    for entry in result.summary["results"]["per_p"]:
        details.append(f"p={entry['p']}: {entry['n_cluster']} states "
                       f"({entry['certificate']}), mean dev "
                       f"{entry['mean_dev']:.2e}")
    # independent dense oracle at p = 4, over the closed window
    inst = build_instance(cfg, 4)
    bval = 1 / TWO_PI
    lo, hi = 0.6 * bval, 1.4 * bval
    in_window = scipy.linalg.eigh(inst["op"].matrix.toarray(),
                                  eigvals_only=True,
                                  subset_by_value=(np.nextafter(lo, -np.inf),
                                                   hi))
    pipeline = window_eigs(inst["op"], (lo, hi))
    oracle_ok = in_window.size == 4 and \
        np.abs(np.sort(in_window) - pipeline.values).max() <= 1e-8
    ok = ok and oracle_ok
    details.append(f"dense oracle at p=4: {in_window.size} states, "
                   f"match {'ok' if oracle_ok else 'BAD'}")
    _report(3, "Landau cluster counts", ok, "; ".join(details),
            time.perf_counter() - start, 300.0)


def test_criterion_4_clustering_rate(preset_b_summary):
    summary = preset_b_summary.summary
    res = summary["results"]
    assertion = next(a for a in summary["assertions"]
                     if a["name"] == "clustering_rate")
    dists = ", ".join(f"p={p}: {d:.2e}" for p, d in res["max_distances"])
    exponent = res["clustering_exponent"]
    # a silent fallback to the full-space solve fails here, not only slows
    symmetry = [e["symmetry"] for e in res["per_p"]]
    detail = (f"max distances [{dists}]; exponent = "
              f"{exponent if exponent is not None else 'n/a (all at floor)'}"
              f" (bound -0.25); symmetry {symmetry}")
    passed = assertion["passed"] \
        and symmetry == ["C4+T"] * len(summary["p_list"])
    _report(4, "clustering rate", passed, detail, summary["elapsed"], 900.0)


def test_criterion_5_gap_edge_states(preset_c_summary):
    summary = preset_c_summary.summary
    names = [a["name"] for a in summary["assertions"]]
    checks = [a for a in summary["assertions"]
              if a["name"].startswith(("gap_states_", "weighted_mass_"))]
    assert checks, f"no edge-state assertions found in {names}"
    per_p = summary["results"]["per_p"]
    ok = all(a["passed"] for a in checks) \
        and [e["symmetry"] for e in per_p] == ["C4+T"] * len(summary["p_list"])
    detail = "; ".join(
        f"p={e['p']}: {e['n_genuine']} genuine ({e['certificate']}, "
        f"{e['symmetry']}), far mass {e['worst_far_mass']:.1e}, W(c_min) "
        f"{e['worst_w_at_cmin']:.2f}" for e in per_p)
    _report(5, "gap edge states localize", ok, detail,
            summary["elapsed"], 1200.0)


def test_criterion_6_decay_rate_law(preset_c_summary):
    summary = preset_c_summary.summary
    ratio = summary["results"].get("kappa_ratio_64_over_16")
    stderr = summary["results"].get("kappa_ratio_64_over_16_stderr")
    ok = ratio is not None and 1.5 <= ratio <= 2.5 \
        and stderr is not None and 0 < stderr < math.inf
    _report(6, "sqrt(p) decay-rate law", ok,
            f"|kappa_64| / |kappa_16| = {ratio:.3f} +- {stderr:.3f} in "
            f"[1.5, 2.5]" if ratio and stderr else "ratio unavailable",
            0.0, 1200.0)


def test_criterion_7_norm_lower_bound(preset_c_summary):
    # the bound certified at p = 8, 16, 32: no singular value of (H -
    # lam)|_S below d - C p^(-1/4) by a trusted inertia count, and the
    # measured gap (d - sigma_S) p^(1/4) at most C
    summary = preset_c_summary.summary
    per_p = summary["results"]["norm_bound"]
    assertion = next(a for a in summary["assertions"]
                     if a["name"] == "norm_bound_p8_to_p32")
    ok = assertion["passed"] and [e["p"] for e in per_p] == [8, 16, 32] \
        and all(e["count"] == 0 and e["downgrade"] is None for e in per_p)
    gaps = ", ".join(f"p={e['p']}: sigma_S {e['sigma_s']:.3f}, d "
                     f"{e['d_lambda']:.3f}, gap {e['bound_gap']:.2f}"
                     for e in per_p)
    _report(7, "norm lower bound", ok,
            f"[{gaps}]; C = {assertion['threshold']:.2f}",
            summary["elapsed"], 300.0)


def test_criterion_9_model_spectrum_suite():
    start = time.perf_counter()
    # 1000 random brute-force checks of the level rule: the window test at
    # each point, and the branches of a single-site union
    rng = np.random.default_rng(90210)
    lat = build_lattice("torus", 1.0, 4)
    site = np.zeros(lat.n_sites, dtype=bool)
    site[0] = True
    ok = True
    for _ in range(1000):
        r = rng.integers(1, 4)
        b = rng.uniform(0.2, 3.0)
        v = np.sort(rng.uniform(-1.0, 1.5, r))
        lo = rng.uniform(-0.5, 10.0)
        window = (lo, lo + rng.uniform(0.01, 3.0))
        in_window = any(level >= window[0] for level, _, _ in
                        brute_levels(b, v, window[1]))
        if levels_in_window([b], v[None, :], window)[0] != in_window:
            ok = False
            break
        cutoff = rng.uniform(b + v[0], 14.0)
        sig = sigma_region(
            ScalarField(site_values=np.full(lat.n_sites, b),
                        plaquette_values=np.full(lat.n_plaquettes, b),
                        lattice=lat),
            constant_potential(lat, np.diag(v)), region=site, cutoff=cutoff)
        ref = brute_levels(b, v, cutoff)
        if sig.branches != sorted((k, mu, lev, lev) for lev, k, mu in ref):
            ok = False
            break

    # interface disk radius for the field-dip window, within one cell
    lat = build_lattice("rectangle_dirichlet", 4.4, 64)
    spec = FieldSpec.radial_dip(1.0, 0.3, 1.0)
    b = sample_field(spec, lat)
    K = interface_set(lat, b, zero_potential(lat), (1.6, 2.4), cutoff=6.0)
    r = np.hypot(lat.positions[:, 0], lat.positions[:, 1])
    r_in = r[K.mask].max()
    cell = lat.spacing
    radius = np.sqrt(np.log(1.5))
    disk_ok = abs(r_in - radius) <= cell * np.sqrt(2)

    # exhaustive small cases for gaps and distances
    sig = SigmaUnion(intervals=[(0.7, 1.0, ()), (2.1, 3.0, ())],
                     branches=[], cutoff=3.0)
    cases_ok = (find_gaps(sig) == [(1.0, 2.1)]
                and dist_to_sigma(1.55, sig) == pytest.approx(0.55)
                and dist_to_sigma(0.85, sig) == 0.0
                and dist_to_sigma(3.4, sig) == pytest.approx(0.4))
    merged = SigmaUnion(intervals=[(1.0, 10.0, ())], branches=[], cutoff=10.0)
    cases_ok = cases_ok and find_gaps(merged) == []
    points = SigmaUnion(intervals=[(1.0, 1.0, ()), (3.0, 3.0, ()),
                                   (5.0, 5.0, ())], branches=[], cutoff=5.0)
    cases_ok = cases_ok and find_gaps(points) == [(1.0, 3.0), (3.0, 5.0)]

    passed = ok and disk_ok and cases_ok
    _report(9, "model-spectrum unit suite", passed,
            f"1000 brute-force level-rule checks {'ok' if ok else 'BAD'}; "
            f"disk radius dev {abs(r_in - radius):.3f} <= cell diag "
            f"{cell * 2**0.5:.3f}; "
            f"gap/distance cases {'ok' if cases_ok else 'BAD'}",
            time.perf_counter() - start, 10.0)
