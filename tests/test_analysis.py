"""Wall filter, weighted masses, decay fits, the norm-bound certificate."""

import numpy as np
import pytest

from conftest import (bump_rectangle_setup, dip_rectangle_setup, stacked,
                      torus_constant_setup)
from magspec import (FieldSpec, boundary_filter, build_lattice, decay_fit,
                     dense_spectrum, dist_to_sigma, distance_to_set,
                     gaussian_bump_potential, interface_set,
                     mass_fraction_beyond, sample_field, scaling_exponent,
                     sigma_region, weighted_mass)
from magspec.errors import ConsistencyError, InsufficientDataError
from magspec.solvers import SpectrumSlice


def _point_distance_field(nx=16, extent=1.0):
    lat = build_lattice("torus", extent, nx)
    mask = np.zeros(lat.n_sites, dtype=bool)
    mask[lat.site_index(nx // 2, nx // 2)] = True
    return lat, distance_to_set(lat, mask)


def test_weighted_mass_basics():
    lat, d = _point_distance_field()
    rng = np.random.default_rng(2)
    u = rng.standard_normal(lat.n_sites) + 1j * rng.standard_normal(lat.n_sites)
    assert weighted_mass(u, d, 0.0, 16) == 1.0

    inside = np.zeros(lat.n_sites, dtype=complex)
    inside[d.values == 0.0] = 1.0
    for c in (0.1, 1.0, 3.0):
        assert weighted_mass(inside, d, c, 16) == pytest.approx(1.0)

    single = np.zeros(lat.n_sites, dtype=complex)
    site = lat.site_index(1, 1)
    single[site] = 2.0
    d0 = d.values[site]
    got = weighted_mass(single, d, 0.7, 9)
    assert got == pytest.approx(np.exp(2 * 0.7 * 3 * d0))

    with pytest.raises(ValueError):
        weighted_mass(u, d, -0.1, 16)


def test_vector_length_off_the_site_count_is_refused():
    lat, d = _point_distance_field(nx=16, extent=4.0)
    u = np.ones(lat.n_sites + 1)
    with pytest.raises(ConsistencyError):
        weighted_mass(u, d, 0.5, 4)
    with pytest.raises(ConsistencyError):
        decay_fit(u, d)


def test_weighted_mass_overflow_safe():
    # weights of order exp(2 * 50 * sqrt(4096) * d) overflow naive sums;
    # the log-domain accumulation must return a finite answer or +inf
    lat, d = _point_distance_field(nx=32, extent=8.0)
    u = np.ones(lat.n_sites, dtype=complex)
    w = weighted_mass(u, d, 50.0, 4096)
    assert np.isinf(w) or w > 1e300


def _bits(x):
    return np.float64(x).tobytes()


def test_logsumexp_equals_scipy_bit_for_bit():
    # the output hashes depend on scipy's arithmetic, so the private copy
    # must match it exactly, ties and extreme magnitudes included
    from scipy.special import logsumexp
    from magspec.analysis import _logsumexp
    rng = np.random.default_rng(13)
    cases = [scale * rng.standard_normal(n) for n in (2, 3, 17, 1000, 13924)
             for scale in (1e-3, 1.0, 300.0)]
    cases += [np.array([x]) for x in (0.0, -2.5, 1e308, -1e308)]
    cases += [np.full(6, 1.25), np.array([3.0, -1.0, 3.0, 0.5]),
              np.array([1e308, 1e308]), np.array([1e308, -1e308, 5.0]),
              np.array([-1e308, -1e308]), np.array([709.0, 709.0, -745.0]),
              np.r_[np.full(40, 7.0), rng.standard_normal(500)]]
    with np.errstate(over="ignore"):  # 1e308 - (-1e308); scipy warns too
        for a in cases:
            assert _bits(_logsumexp(a)) == _bits(logsumexp(a)), a[:4]


def test_logsumexp_equals_scipy_on_bump_eigenvectors(tmp_path):
    # every input the weighted masses form at p = 8 of potential_bump
    from scipy.special import logsumexp
    from magspec.analysis import _logsumexp
    from magspec.config import build_config
    from magspec.experiments import PerP
    p = 8
    st = PerP(build_config({"experiment": "potential_bump", "p": [p],
                            "out": str(tmp_path)}), p)
    rep = st.localization
    rates = np.append(np.linspace(0.0, 6.0 * rep.c_min, 25), rep.c_min)
    assert rates.size == 26 and len(st.slice) >= 5
    d_all = st.interface.distance.values
    for u in stacked(st.slice).T:
        amp2 = np.abs(u) ** 2
        carrier = amp2 > 0
        log_amp2, d = np.log(amp2[carrier]), d_all[carrier]
        for a in [log_amp2] + [s * d + log_amp2
                               for s in 2.0 * rates * np.sqrt(p)]:
            assert _bits(_logsumexp(a)) == _bits(logsumexp(a))


def test_weighted_mass_monotone_in_rate():
    lat, d = _point_distance_field()
    rng = np.random.default_rng(4)
    u = rng.standard_normal(lat.n_sites)
    grid = np.linspace(0.0, 2.0, 9)
    w = [weighted_mass(u, d, c, 4) for c in grid]
    assert np.all(np.diff(w) >= 0)


def test_decay_fit_synthetic_exponential():
    lat, d = _point_distance_field(nx=64, extent=4.0)
    u = np.exp(-5.0 * d.values)
    kappa, stderr, shells = decay_fit(u, d)
    assert kappa == pytest.approx(-5.0, rel=0.02)
    assert 0 < stderr < 0.01 * abs(kappa)
    assert shells >= 4

    # noise on the shell profile shows up in the error, not in the count
    rng = np.random.default_rng(4)
    noisy = u * np.exp(rng.normal(0.0, 0.5, lat.n_sites))
    _, noisy_stderr, noisy_shells = decay_fit(noisy, d)
    assert noisy_stderr > 2 * stderr and noisy_shells == shells

    flat = np.ones(lat.n_sites)
    kappa, stderr, _ = decay_fit(flat, d)
    assert abs(kappa) < 1e-10 and stderr < 1e-10


def test_decay_fit_insufficient_shells():
    lat, d = _point_distance_field(nx=16, extent=1.0)
    u = np.zeros(lat.n_sites)
    u[d.values == 0.0] = 1.0  # support only in the zero shell
    with pytest.raises(InsufficientDataError):
        decay_fit(u, d)


def test_localization_report_masses_equal_scalar_reference():
    # c_star is the largest grid rate whose scalar mass is within the cap,
    # for a pair at the grid's top (sharply localized) and pairs below it
    lat, spec, b, links, V, H = bump_rectangle_setup(nx=32, p=8)
    from magspec import localization_report
    K = interface_set(lat, b, V, (1.3, 1.7), cutoff=4.0)
    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((lat.n_sites, 4)) + 0j
    vecs[:, 0] = np.exp(-3.0 * K.distance.values)  # localized at the set
    vecs[:5, 1] = 0.0                               # sites without mass
    vecs[:, 3] = np.exp(-20.0 * K.distance.values)  # sharply localized
    vecs /= np.linalg.norm(vecs, axis=0)
    sl = SpectrumSlice(values=np.zeros(4), residuals=np.zeros(4),
                       certificate="heuristic", blocks=[(None, vecs)])
    # b_min = 2.25 puts the rate c_min = 0.2 sqrt(b_min) at 0.3
    rep = localization_report(sl, K, 8, 1.0, b_min=2.25)
    assert rep.c_min == pytest.approx(0.3) and rep.c_cap == 10.0
    c_grid = np.linspace(0.0, 6.0 * rep.c_min, 25)
    filt = boundary_filter(sl, lat, 8, 1.0)
    near = lat.boundary_distance() <= 3.0 / np.sqrt(8)
    tops = []
    for i, e in enumerate(rep.entries):
        scalar = [weighted_mass(vecs[:, i], K.distance, c, 8)
                  for c in c_grid]
        tops.append(np.flatnonzero(np.array(scalar) <= 10.0)[-1])
        assert e.c_star == c_grid[tops[-1]]
        assert e.w_at_cmin == weighted_mass(vecs[:, i], K.distance,
                                            rep.c_min, 8)
        kappa, stderr, shells = decay_fit(vecs[:, i], K.distance)
        assert (e.kappa, e.kappa_stderr, e.shells) == (kappa, stderr, shells)
        amp2 = np.abs(vecs[:, i]) ** 2
        assert e.boundary_fraction == pytest.approx(
            amp2[near].sum() / amp2.sum(), rel=1e-14)
        assert e.artifact == filt.artifact_mask[i]
        assert e.far_mass_fraction == mass_fraction_beyond(
            vecs[:, i], K.distance, 3.0 / np.sqrt(8))
    assert tops[3] == c_grid.size - 1 and 0 < min(tops[:3]) < tops[3]


@pytest.mark.parametrize("case", ["C4+T", "C4", "none", "dump"])
def test_abs_sq_equals_the_column_amplitude_bit_for_bit(case, tmp_path):
    # |u|^2 scattered from block coordinates against |u|^2 of the lifted
    # column, on real and complex sectors, the whole space and a dump
    from dataclasses import replace
    from magspec import (assemble_H, constant_potential, read_slice,
                         window_eigs, write_slice)
    from magspec.analysis import _site_amplitude_sq, _site_sum
    lat, spec, b, links, V, H = dip_rectangle_setup(nx=22, p=4)
    if case == "C4":  # a complex off-diagonal potential breaks T
        H = assemble_H(lat, links, constant_potential(
            lat, [[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.2]]), 4)
    elif case == "none":
        H = replace(H, lattice=None)
    sl = window_eigs(H, (None, 0.5 * sum(dense_spectrum(H).values[11:13])))
    assert sl.symmetry == ("C4+T" if case == "dump" else case)
    if case == "dump":
        write_slice(sl, tmp_path / "eigs.bsev")
        sl = read_slice(tmp_path / "eigs.bsev")
    assert len(sl) == 12
    for i in range(len(sl)):
        got = _site_sum(sl.abs_sq(i), lat.n_sites)
        assert got.tobytes() == _site_amplitude_sq(sl.column(i),
                                                   lat.n_sites).tobytes()


def test_localization_of_a_slice_equals_that_of_its_dump(tmp_path):
    # the run reads |u|^2 from sector coordinates, the localization view
    # from the dump's lattice vectors: entry for entry the same report
    from magspec import read_slice, write_slice
    st = _bump_state(tmp_path, 8)
    write_slice(st.slice, tmp_path / "eigs.bsev")
    view = _bump_state(tmp_path, 8)
    view.slice = read_slice(tmp_path / "eigs.bsev")
    assert st.slice.symmetry == "C4+T" and view.slice.blocks[0][0] is None
    assert len(st.localization.entries) == len(st.slice) >= 5
    assert repr(view.localization) == repr(st.localization)


def test_scaling_exponent_cases():
    assert scaling_exponent([(4, 0.5), (16, 0.25)]) == pytest.approx(-0.5)
    assert scaling_exponent([(2, 1.0), (8, 1.0), (32, 1.0)]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        scaling_exponent([(4, 0.5)])
    with pytest.raises(ValueError):
        scaling_exponent([(4, 0.5), (8, -1.0)])


def test_boundary_filter_torus_identity():
    lat, spec, b, links, V, H = torus_constant_setup(nx=12, p=4)
    sl = dense_spectrum(H).select(np.arange(4))
    out = boundary_filter(sl, lat, 4, 1 / (2 * np.pi))
    assert len(out.kept) == 4 and not out.artifact_mask.any()
    assert np.array_equal(out.kept.values, sl.values)


def test_boundary_filter_flags_wall_vector():
    lat = build_lattice("rectangle_dirichlet", 2.0, 16)
    wall = lat.boundary_distance() <= lat.spacing * 1.01
    vec = np.where(wall, 1.0, 0.0).astype(complex)
    vec /= np.linalg.norm(vec)
    sl = SpectrumSlice(values=np.array([1.0]), residuals=np.zeros(1),
                       certificate="heuristic", blocks=[(None, vec[:, None])])
    out = boundary_filter(sl, lat, 4, 1.0)
    assert out.artifact_mask.tolist() == [True]
    assert len(out.kept) == 0


def _trial_setup(p, nx=64, half_width=2.6):
    lat = build_lattice("rectangle_dirichlet", 2 * half_width, nx)
    spec = FieldSpec.constant(1.0)
    b = sample_field(spec, lat)
    V = gaussian_bump_potential(lat, 1.0, 1.0)
    from magspec import assemble_H, edge_integrals, gauge_links
    links = gauge_links(edge_integrals(spec, lat, "symmetric"), p)
    H = assemble_H(lat, links, V, p)
    K = interface_set(lat, b, V, (1.3, 1.7), cutoff=4.0)
    return lat, b, V, H, K


def test_trial_support_enforced():
    # the norm bound's trial space is the interface complement less the
    # band within two magnetic lengths of the Dirichlet wall; the torus
    # has no wall, so there it is the whole complement
    from magspec.experiments import _bound_support
    p = 8
    lat, _, _, _, K = _trial_setup(p=p, nx=32)
    near = lat.boundary_distance() <= 2.0 / np.sqrt(p)
    support = _bound_support(K, p, 1.0)
    assert near.any() and (K.omega & near).any() and support.any()
    assert np.array_equal(support, K.omega & ~near)
    lat = build_lattice("torus", 2 * np.pi, 32)
    K = interface_set(lat, sample_field(FieldSpec.constant(1.0), lat),
                      gaussian_bump_potential(lat, 1.0, 1.0), (1.3, 1.7),
                      cutoff=4.0)
    assert K.mask.any() and np.array_equal(_bound_support(K, p, 1.0),
                                           K.omega)


def _bump_state(tmp_path, p, **keys):
    from magspec.config import build_config
    from magspec.experiments import PerP
    return PerP(build_config({"experiment": "potential_bump", "p": [p],
                              "trials_p": [p], "out": str(tmp_path),
                              **keys}), p)


def test_norm_bound_certificate_matches_dense_svd(tmp_path):
    # on a small instance the inertia count of G - t^2 is the number of
    # dense singular values of (H - lam)[:, S] below t, for t below, between
    # and above the smallest ones, and sigma_S is the smallest; S is
    # rotation invariant (four real sector blocks), and without one site it
    # is not (one complex block); without the first orbit of one
    # reflection pair of orbits and the second of another it is rotation
    # invariant but not reflection invariant, so the real columns of both
    # pairs straddle it, though the in and out counts balance (one block)
    from magspec.experiments import _bound_support
    from magspec.solvers import norm_bound_certificate
    p, lam = 4, 1.5
    st = _bump_state(tmp_path, p, nx=32)
    op = st.inst["op"]
    invariant = _bound_support(st.interface, p, 1.0)
    broken = invariant.copy()
    broken[np.flatnonzero(invariant)[0]] = False
    turn, flip = st.inst["lattice"].rotation, st.inst["lattice"].reflection
    orbit = lambda s: [s, turn[s], turn[turn[s]], turn[turn[turn[s]]]]
    pairs = {min(orbit(s)): (orbit(s), orbit(flip[s]))
             for s in np.flatnonzero(invariant)
             if min(orbit(s)) < min(orbit(flip[s]))}
    (lead, _), (_, partner) = list(pairs.values())[:2]
    chiral = invariant.copy()
    chiral[lead] = chiral[partner] = False
    assert np.array_equal(chiral[turn], chiral)
    assert not np.array_equal(chiral[flip], chiral)
    smallest = {}
    for support, symmetry in ((invariant, "C4+T"), (broken, "none"),
                              (chiral, "none")):
        dense = (op.matrix.toarray() - lam * np.eye(op.n))[:, support]
        svals = np.linalg.svd(dense, compute_uv=False)[::-1]
        smallest[symmetry] = svals[0]
        distinct = np.unique(np.round(svals[:12], 6))
        assert distinct.size >= 4
        for t in np.r_[0.5 * distinct[0],
                       0.5 * (distinct[:-1] + distinct[1:]),
                       distinct[-1] + 0.01]:
            sigma_s, count, downgrade, label = norm_bound_certificate(
                op, support, lam, t)
            assert downgrade is None and label == symmetry
            assert count == np.sum(svals < t), t
            assert abs(sigma_s - svals[0]) <= 1e-10
    record = st.norm_bound()
    assert record["symmetry"] == "C4+T" and record["count"] == 0
    assert abs(record["sigma_s"] - smallest["C4+T"]) <= 1e-10


def test_norm_bound_keeps_one_factor_alive(tmp_path, monkeypatch):
    # above sigma_S some sector counts a singular value below the threshold
    # and is factored again at 0; no earlier factor, of that sector or of
    # the one before, may still be held when a factorization starts
    import weakref
    import scipy.sparse.linalg as spla
    from magspec.experiments import _bound_support
    from magspec.solvers import norm_bound_certificate
    p, lam = 4, 1.5
    st = _bump_state(tmp_path, p, nx=32)
    op, support = st.inst["op"], _bound_support(st.interface, p, 1.0)
    sigma_s = norm_bound_certificate(op, support, lam, 0.0)[0]

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, rhs):  # a solver holding lu.solve holds the proxy
            return self.lu.solve(rhs)

    original, live, held = spla.splu, weakref.WeakSet(), []

    def tracked(*args, **kwargs):
        held.append(len(live))
        factor = Factor(original(*args, **kwargs))
        live.add(factor)
        return factor

    monkeypatch.setattr(spla, "splu", tracked)
    got, count, downgrade, symmetry = norm_bound_certificate(
        op, support, lam, sigma_s + 0.05)
    assert symmetry == "C4+T" and downgrade is None and count > 0
    assert got == sigma_s
    assert len(held) > 4  # at least one sector was factored twice
    assert held == [0] * len(held)


def test_norm_bound_gate_fails_with_the_wall_band(tmp_path, monkeypatch):
    # keeping the wall band in S lets the Dirichlet wall's edge states
    # into the trial space: sigma_S falls below d, the count turns positive
    # and the gate fails; so does a zero count that is not trusted
    import magspec.experiments as ex
    p = 8
    st = _bump_state(tmp_path, p)
    kept = st.norm_bound()
    assert kept["count"] == 0 and kept["downgrade"] is None
    monkeypatch.setattr(ex, "_bound_support",
                        lambda interface, p, b_min: interface.omega)
    walled = st.norm_bound()
    assert walled["sites"] > kept["sites"]
    assert walled["count"] > 0 and walled["sigma_s"] < walled["d_lambda"]
    untrusted = dict(kept, downgrade="off-diagonal pivot")
    for record, passed in ((kept, True), (walled, False), (untrusted, False)):
        assertions = ex._Assertions()
        ex._bump_sweep(st.cfg, [], {p: record}, assertions)
        (item,) = assertions.items
        assert item["name"] == f"norm_bound_p{p}_to_p{p}"
        assert item["passed"] == passed


def test_norm_bound_non_convergence_is_recorded(tmp_path, monkeypatch):
    # ARPACK failing in the certificate's eigenvalue-only solve is a
    # recorded ConvergenceError, not a traceback: the run writes its summary
    import json
    import scipy.sparse.linalg as spla
    from magspec.config import build_config
    from magspec.experiments import run_experiment
    original = spla.eigsh

    def failing(*args, **kwargs):
        if kwargs.get("return_eigenvectors", True) is False:
            raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                           np.empty((args[0].shape[0], 0)))
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", failing)
    cfg = build_config({"experiment": "potential_bump", "p": [4],
                        "trials_p": [4], "nx": 32, "out": str(tmp_path)})
    assert run_experiment(cfg).exit_code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["error"].startswith("ConvergenceError")


def test_norm_bound_trials_run_at_fiber_rank_2(tmp_path):
    # the trial space is lifted to the rank-2 fiber: the run writes its
    # summary, and with V = bump (x) Id, H is two copies of the rank-1
    # operator, so sigma_S is the rank-1 value
    import json
    from magspec.config import build_config
    from magspec.experiments import run_experiment
    cfg = build_config({"experiment": "potential_bump", "v_rank": 2,
                        "p": [4], "trials_p": [4], "out": str(tmp_path)})
    run_experiment(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    (entry,) = summary["results"]["norm_bound"]
    assert entry["p"] == 4 and np.isfinite(entry["sigma_s"])
    assert entry["count"] == 0 and entry["downgrade"] is None
    scalar = _bump_state(tmp_path / "rank1", 4).norm_bound()
    assert entry["sites"] == scalar["sites"]
    assert entry["sigma_s"] == pytest.approx(scalar["sigma_s"], rel=1e-9)


def test_trial_coherent_state_ratio_shrinks_with_p():
    # lowest-level coherent state at the bump center, mollified into the
    # norm bound's trial space, tested at its local level Lambda_0(0) =
    # b + V(0) = 2.  The center is only ~1.7 magnetic lengths deep at
    # p = 8, so the ratio starts large and collapses as the state shrinks
    # with p; the certified minimum over the trial space stays below it.
    from magspec.experiments import _bound_support
    from magspec.solvers import norm_bound_certificate
    ratios = {}
    for p, nx in ((8, 48), (16, 64), (32, 96), (64, 128)):
        lat, b, V, H, K = _trial_setup(p=p, nx=nx)
        support = _bound_support(K, p, 1.0)
        r2 = lat.positions[:, 0] ** 2 + lat.positions[:, 1] ** 2
        u = np.exp(-p * 1.0 * r2 / 4.0).astype(complex)
        ramp = np.clip(K.distance.values / (2.0 / np.sqrt(p)), 0.0, 1.0)
        u *= ramp * ramp * (3.0 - 2.0 * ramp)
        u[~support] = 0.0
        u /= np.linalg.norm(u)
        ratios[p] = np.linalg.norm(H.matrix @ u - 2.0 * u)
        # Lambda_0(0) lies in the union over the trial space
        assert dist_to_sigma(2.0, sigma_region(b, V, region=support,
                                               cutoff=4.0)) == 0.0
        sigma_s, count, _, _ = norm_bound_certificate(H, support, 2.0, 0.0)
        assert count == 0 and sigma_s <= ratios[p]
    seq = [ratios[p] for p in (8, 16, 32, 64)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert ratios[64] < 0.25


def test_transition_field_gap_holds_only_wall_states():
    # step-like field b(y) from 1 to 2: branch k=0 sweeps [1, 2], branch
    # k=1 starts at 3, so (2, 3) is a bulk gap.  Any state the window solver
    # finds there must live on the Dirichlet wall and get flagged.
    import magspec as ms
    p = 8
    lat = ms.build_lattice("rectangle_dirichlet", 6.0, 96)
    spec = ms.FieldSpec.transition(1.0, 2.0, 0.3)
    links = ms.gauge_links(ms.edge_integrals(spec, lat, "landau"), p)
    H = ms.assemble_H(lat, links, ms.zero_potential(lat), p)
    sl = ms.window_eigs(H, (2.2, 2.8))
    out = boundary_filter(sl, lat, p, spec.max_intensity())
    assert len(out.kept) == 0
    assert out.artifact_mask.all()


def test_localization_report_edge_states():
    lat, spec, b, links, V, H = bump_rectangle_setup(nx=72, p=16, half_width=2.6)
    from magspec import window_eigs, localization_report
    K = interface_set(lat, b, V, (1.3, 1.7), cutoff=4.0)
    sl = window_eigs(H, (1.35, 1.65))
    rep = localization_report(sl, K, 16, 1.0, b_min=1.0)
    assert len(rep.entries) == len(sl)
    genuine = [e for e in rep.entries if not e.artifact]
    assert genuine, "expected at least one non-artifact gap state"
    for e in genuine:
        assert weighted_mass(sl.column(e.index), K.distance, e.c_star,
                             16) <= 10.0
        assert e.far_mass_fraction <= 0.05
        assert e.kappa < 0
        assert e.c_star >= 0.2
