"""Dense oracle, window Krylov solver, inertia certification."""

import importlib
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (TWO_PI, bump_rectangle_setup, dip_rectangle_setup,
                      lowest_window, op_from_dense, stacked,
                      torus_constant_setup)
from magspec import (FieldSpec, PotentialField, assemble_H, build_lattice,
                     constant_potential, count_below, dense_spectrum,
                     edge_integrals, gauge_links, gershgorin_interval,
                     read_slice, trivial_links, window_eigs, write_slice,
                     zero_potential)
from magspec import solvers
from magspec.errors import ConvergenceError, DenseSizeError, WindowError
from magspec.solvers import C4, C4_T, CERTIFIED, HEURISTIC, NO_SYMMETRY


def test_dense_tiny_cases():
    sl = dense_spectrum(op_from_dense([[2.0]]))
    assert sl.values[0] == pytest.approx(2.0)
    sl = dense_spectrum(op_from_dense([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sl.values, [-1.0, 1.0])
    assert sl.residuals.max() <= 1e-14
    assert sl.certificate == CERTIFIED


def test_dense_guards():
    # the guard fires on dimension alone; no need to materialize 4097^2
    from magspec.operators import SparseHermitian
    op = SparseHermitian(matrix=sp.identity(4097, dtype=complex, format="csr"),
                         p=1, rank=1)
    with pytest.raises(DenseSizeError):
        dense_spectrum(op)


def test_lowest_free_field_ground_state():
    lat = build_lattice("torus", TWO_PI, 16)
    H = assemble_H(lat, trivial_links(lat, 2), zero_potential(lat), 2)
    sl = window_eigs(H, lowest_window(H, 1)[0])
    assert len(sl) == 1
    assert abs(sl.values[0]) <= sl.tol
    u = sl.column(0)
    overlap = abs(np.vdot(u, np.ones(H.n) / np.sqrt(H.n)))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_lowest_free_field_first_excited_level():
    n_side, p = 20, 2
    lat = build_lattice("torus", TWO_PI, n_side)
    H = assemble_H(lat, trivial_links(lat, p), zero_potential(lat), p)
    # the third level, wave vectors (+-1, +-1), is 4-fold too: keep it whole
    sl = window_eigs(H, lowest_window(H, 9)[0])
    assert len(sl) == 9
    h = lat.spacing
    lam2 = (1 / p) * (2 / h**2) * (1 - np.cos(TWO_PI / n_side))
    assert np.allclose(sl.values[1:5], lam2, rtol=1e-10)  # 4-fold degenerate
    assert sl.values[5] > sl.values[4] * 1.5


def test_lowest_matches_dense_oracle():
    lat, spec, b, links, V, H = torus_constant_setup(nx=16, p=4)
    window, dense = lowest_window(H, 20)
    sl = window_eigs(H, window)
    assert len(sl) == 20
    assert np.abs(sl.values - dense[:20]).max() <= 1e-8
    u = stacked(sl)
    gram = u.conj().T @ u
    assert np.abs(gram - np.eye(20)).max() <= 1e-8
    assert np.all(sl.residuals <= sl.tol)


def test_lowest_cluster_count_certified():
    lat, spec, b, links, V, H = torus_constant_setup(nx=32, p=8)
    bval = 1 / TWO_PI
    sl = window_eigs(H, (0.6 * bval, 1.4 * bval))
    assert len(sl) == 8
    assert sl.certificate == CERTIFIED


def test_cluster_count_scales_with_chern_number():
    # two flux quanta: the lowest cluster holds 2p states
    lat, spec, b, links, V, H = torus_constant_setup(nx=32, p=4, c1=2)
    bval = 2 / TWO_PI
    sl = window_eigs(H, (0.6 * bval, 1.4 * bval))
    assert len(sl) == 8
    assert sl.certificate == CERTIFIED


def test_window_empty_certified():
    lat, spec, b, links, V, H = torus_constant_setup(nx=24, p=4)
    bval = 1 / TWO_PI
    dense = dense_spectrum(H)
    window = (1.6 * bval, 2.4 * bval)  # inside the first gap
    assert not np.any((dense.values >= window[0]) & (dense.values <= window[1]))
    sl = window_eigs(H, window)
    assert len(sl) == 0
    assert sl.certificate == CERTIFIED


def test_window_single_interior_eigenvalue():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    op = op_from_dense((a + a.conj().T) / 2)
    w = dense_spectrum(op).values
    lam = w[3]
    eps = 0.4 * min(lam - w[2], w[4] - lam)
    sl = window_eigs(op, (lam - eps, lam + eps))
    assert len(sl) == 1
    assert sl.values[0] == pytest.approx(lam, abs=1e-10)
    assert sl.certificate == CERTIFIED


def test_window_shift_jitter_on_singular_factorization():
    # the midpoint shift hits an exact eigenvalue of a diagonal matrix; the
    # solver must jitter the shift and still find the pair
    op = op_from_dense(np.diag([0.0, 1.0, 2.0, 3.0, 4.0]))
    sl = window_eigs(op, (-0.5, 0.5))
    assert len(sl) == 1
    assert sl.values[0] == pytest.approx(0.0, abs=1e-10)


def test_window_validation():
    op = op_from_dense(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(WindowError):
        window_eigs(op, (2.0, 1.0))


def test_count_below_matches_dense():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    op = op_from_dense((a + a.conj().T) / 2)
    w = dense_spectrum(op).values
    for q in (5, 25, 50, 75, 95):
        sigma = np.percentile(w, q) + 1e-9
        count, downgrade = count_below(op, sigma)
        assert downgrade is None
        assert count == int(np.sum(w < sigma))


def test_count_below_records_exhausted_jitters(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    op = op_from_dense(np.diag([1.0, 2.0, 3.0]))
    assert count_below(op, 1.5) == (0, "jitter retries exhausted")


def test_inertia_consistency_on_assembled_operator():
    lat, spec, b, links, V, H = torus_constant_setup(nx=16, p=4)
    dense = dense_spectrum(H)
    bval = 1 / TWO_PI
    sl = window_eigs(H, (0.5 * bval, 3.5 * bval))
    expect = np.sum((dense.values >= 0.5 * bval) & (dense.values <= 3.5 * bval))
    assert len(sl) == expect
    assert sl.certificate == CERTIFIED


@pytest.mark.parametrize("order", ["C", "F"])
def test_chunked_residuals_match_the_one_shot_norm(order):
    # the reference: the whole N x k residual matrix at once, of the
    # vectors mapped by the sparse isometry (complex vectors in a complex
    # sector, real ones in a T-real sector)
    H = dip_rectangle_setup(nx=12, p=4)[-1]
    real = solvers._rotation_sectors(H, solvers.default_tol(H))[0][1]
    cases = [(None, H.n, True), (real, real.width, False),
             (replace(real, real=False), real.width, True)]
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 5, 8):
        values = rng.standard_normal(k)
        for sector, rows, complex_vectors in cases:
            u = rng.standard_normal((rows, k))
            if complex_vectors:
                u = u + 1j * rng.standard_normal((rows, k))
            u = np.asarray(u, order=order)
            full = u if sector is None else sector.isometry() @ u
            expect = np.linalg.norm(H.matrix @ full - full * values[None, :],
                                    axis=0)
            got = solvers._residuals(H, values, u, sector)
            assert np.array_equal(got, expect)


@pytest.fixture
def one_arpack_iteration(monkeypatch):
    """ARPACK's real eigsh stopped after one iteration, so it fails with
    the partial pairs converged by then."""
    original = spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda *args, **kwargs: original(
        *args, **kwargs, maxiter=1))


def test_convergence_error_carries_partial(one_arpack_iteration):
    lat, spec, b, links, V, H = torus_constant_setup(nx=24, p=4)
    with pytest.raises(ConvergenceError) as info:
        window_eigs(H, lowest_window(H, 40)[0])
    partial = info.value.partial
    assert partial is not None and 1 <= len(partial) <= 39
    assert partial.certificate == HEURISTIC
    u = stacked(partial)
    resid = H.matrix @ u - u * partial.values
    assert np.allclose(partial.residuals, np.linalg.norm(resid, axis=0),
                       rtol=1e-12, atol=0)


def _assert_same_pairs(a, b):
    for name in ("values", "residuals"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(stacked(a), stacked(b))


@pytest.fixture
def splu_calls(monkeypatch):
    """Keyword arguments of every SuperLU factorization, ARPACK's included,
    each with the factored matrix's ``dtype`` added."""
    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    original = spla.splu
    calls = []

    def counting(*args, **kwargs):
        calls.append(dict(kwargs, dtype=args[0].dtype))
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    monkeypatch.setattr(arpack, "splu", counting)
    return calls


def _assert_symmetric_mode_factors(calls, expected):
    # a silent return to ARPACK's own COLAMD factor shows up here
    assert len(calls) == expected
    for kwargs in calls:
        assert kwargs.get("permc_spec") == "MMD_AT_PLUS_A"
        assert kwargs.get("options", {}).get("SymmetricMode") is True


@pytest.mark.parametrize("lower, factorizations", [
    (-1.0, 2),   # below the Gershgorin bound: no count at alpha
    (0.6, 3),    # interior window: counts at both ends plus the midpoint
])
def test_window_one_factorization_per_shift(splu_calls, lower,
                                            factorizations):
    lat, spec, b, links, V, H = torus_constant_setup(nx=24, p=4)
    bval = 1 / TWO_PI
    sl = window_eigs(H, (lower * bval, 1.4 * bval))
    assert len(sl) == 4
    assert sl.certificate == CERTIFIED and sl.downgrade is None
    _assert_symmetric_mode_factors(splu_calls, factorizations)


@pytest.mark.parametrize("setup, m, factorizations", [
    (torus_constant_setup, 4, 2),                       # the whole space
    (lambda: dip_rectangle_setup(nx=34, p=8), 10, 8),   # four real sectors
], ids=["torus", "dip_sectors"])
def test_open_lower_end_starts_below_gershgorin(splu_calls, setup, m,
                                                factorizations):
    # alpha = None is the window from 1e-6 below the Gershgorin bound, with
    # no count there: each block factors at beta and the midpoint only
    H = setup()[-1]
    beta = lowest_window(H, m)[0][1]
    splu_calls.clear()
    open_end = window_eigs(H, (None, beta))
    _assert_symmetric_mode_factors(splu_calls, factorizations)
    closed = window_eigs(H, (gershgorin_interval(H)[0] - 1e-6, beta))
    assert len(open_end) == m and open_end.certificate == CERTIFIED
    _assert_same_pairs(open_end, closed)


def test_midpoint_count_mismatch_downgrades(eigsh_spy, monkeypatch):
    lat, spec, b, links, V, H = torus_constant_setup(nx=24, p=4)
    bval = 1 / TWO_PI
    window = (0.6 * bval, 1.4 * bval)
    original = solvers._inertia

    def wrong_midpoint_count(lu):
        # the midpoint's are the only pivots read after a Krylov solve
        count, downgrade = original(lu)
        return count + bool(eigsh_spy.calls), downgrade

    monkeypatch.setattr(solvers, "_inertia", wrong_midpoint_count)
    sl = window_eigs(H, window)
    assert len(sl) == 4
    assert sl.certificate == HEURISTIC
    assert sl.downgrade == solvers.COUNT_MISMATCH == "count mismatch"


@pytest.fixture
def eigsh_spy(monkeypatch):
    """Records the k and the shift of every ARPACK call; setting
    ``drop_first`` to a window removes one pair inside it from the first
    call's result."""
    original = spla.eigsh
    spy = SimpleNamespace(calls=[], shifts=[], drop_first=None)

    def spying(*args, **kwargs):
        w, u = original(*args, **kwargs)
        spy.calls.append(kwargs["k"])
        spy.shifts.append(kwargs["sigma"])
        if spy.drop_first is not None and len(spy.calls) == 1:
            lo, hi = spy.drop_first
            keep = np.ones(w.size, dtype=bool)
            keep[np.flatnonzero((w >= lo) & (w <= hi))[0]] = False
            w, u = w[keep], u[:, keep]
        return w, u

    monkeypatch.setattr(spla, "eigsh", spying)
    return spy


def _torus_cluster_window(nx=24, p=4):
    lat, spec, b, links, V, H = torus_constant_setup(nx=nx, p=p)
    bval = 1 / TWO_PI
    return H, (0.6 * bval, 1.4 * bval)


def test_window_krylov_k_is_inertia_count(eigsh_spy):
    H, window = _torus_cluster_window(nx=32, p=8)
    expected = count_below(H, window[1])[0] - count_below(H, window[0])[0]
    sl = window_eigs(H, window)
    assert eigsh_spy.calls == [expected] == [len(sl)] == [8]
    assert (sl.krylov_k, sl.growth_rounds) == (8, 0)
    assert sl.certificate == CERTIFIED


def test_window_shortfall_grows_k_once(eigsh_spy):
    H, window = _torus_cluster_window()
    eigsh_spy.drop_first = window
    sl = window_eigs(H, window)
    assert eigsh_spy.calls == [4, 2 * 4 + 8]
    assert (sl.krylov_k, sl.growth_rounds) == (16, 1)
    assert len(sl) == 4
    assert sl.certificate == CERTIFIED and sl.downgrade is None


def test_window_untrusted_count_starts_from_16(eigsh_spy, monkeypatch):
    H, window = _torus_cluster_window()
    original = solvers._inertia
    reads = []

    def untrusted_at_beta(lu):
        # pivots are read at alpha, then at beta, then at the midpoint
        count, downgrade = original(lu)
        reads.append(count)
        if len(reads) == 2:
            downgrade = "off-diagonal pivot"
        return count, downgrade

    monkeypatch.setattr(solvers, "_inertia", untrusted_at_beta)
    sl = window_eigs(H, window)
    assert eigsh_spy.calls == [16]
    assert (sl.krylov_k, sl.growth_rounds) == (16, 0)
    assert len(sl) == 4
    assert sl.certificate == HEURISTIC
    assert sl.downgrade == "off-diagonal pivot"


class _FactorSpy:
    """A SuperLU factor that logs each read of its ``L`` or ``U`` and each
    triangular solve, as (event, factor), into ``log``; ``U`` hands its
    pivots to ``corrupt`` first when one is given."""

    def __init__(self, lu, log, corrupt=None):
        self._lu, self._log, self._corrupt = lu, log, corrupt

    def __getattr__(self, name):
        if name in ("L", "U"):
            self._log.append(("read", self))
        value = getattr(self._lu, name)
        if name == "U" and self._corrupt is not None:
            value = value.copy()
            value.setdiag(self._corrupt(value.diagonal()))
        return value

    def solve(self, rhs):
        self._log.append(("solve", self))
        return self._lu.solve(rhs)


def _assert_pivots_read_after_last_solve(log):
    """Every factor in the spy log is read for its pivots, and no read of
    one comes before its last triangular solve."""
    for factor in dict.fromkeys(f for _, f in log if f is not None):
        reads = [i for i, entry in enumerate(log) if entry == ("read", factor)]
        solves = [i for i, entry in enumerate(log)
                  if entry == ("solve", factor)]
        assert reads and min(reads) > max(solves, default=-1)


def test_midpoint_pivots_are_read_after_the_krylov_solve(monkeypatch):
    # scipy caches CSC copies of L and U on a factor's first L or U read;
    # the factor of each sector's Krylov solve (its midpoint factor) is
    # read for its pivots only after that block's last eigsh call returns,
    # so the copies never meet ARPACK's workspace; no other factor (the
    # counts at alpha and beta) is read before a solve either
    log, splu, eigsh = [], spla.splu, spla.eigsh

    def returned(*args, **kwargs):
        out = eigsh(*args, **kwargs)
        log.append(("eigsh", None))
        return out

    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: _FactorSpy(
        splu(*args, **kwargs), log))
    monkeypatch.setattr(spla, "eigsh", returned)
    H = dip_rectangle_setup(nx=34, p=8)[-1]
    window, w = lowest_window(H, 10)
    sl = window_eigs(H, (0.5 * (w[0] + w[1]), window[1]))
    assert len(sl) == 9 and sl.certificate == CERTIFIED
    assert sl.symmetry == C4_T
    solved = [factor for event, factor in log if event == "solve"]
    midpoints = list(dict.fromkeys(solved))
    assert len(midpoints) == 4  # one Krylov factor per sector
    for factor in midpoints:
        last_solve = max(i for i, entry in enumerate(log)
                         if entry == ("solve", factor))
        solve_returns = log.index(("eigsh", None), last_solve)
        reads = [i for i, entry in enumerate(log) if entry == ("read", factor)]
        assert reads and min(reads) > solve_returns
    # alpha, beta and the midpoint in each of the four sectors
    assert len(dict.fromkeys(f for _, f in log if f is not None)) == 12
    _assert_pivots_read_after_last_solve(log)


def _bump_norm_bound_input(tmp_path):
    """(H, the norm bound's site set S, lambda = 1.5) of ``potential_bump``
    at p = 4 on the nx = 32 plane."""
    from magspec.config import build_config
    from magspec.experiments import PerP, _bound_support
    p = 4
    st = PerP(build_config({"experiment": "potential_bump", "p": [p],
                            "trials_p": [p], "nx": 32,
                            "out": str(tmp_path)}), p)
    return st.inst["op"], _bound_support(st.interface, p, 1.0), 1.5


@pytest.mark.parametrize("above", [False, True], ids=["zero", "above"])
def test_norm_bound_pivots_are_read_after_the_last_solve(tmp_path,
                                                         monkeypatch, above):
    # the norm bound's one-pair solve runs on each factor before its
    # pivots are read: at threshold 0 (count 0, the factor at t^2 = 0
    # solved) and above sigma_S, where a sector counts a singular value
    # below the threshold and is solved on a second factor at 0
    op, support, lam = _bump_norm_bound_input(tmp_path)
    threshold = 0.0
    if above:
        threshold = solvers.norm_bound_certificate(op, support, lam,
                                                   0.0)[0] + 0.05
    log, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: _FactorSpy(
        splu(*args, **kwargs), log))
    _, count, downgrade, symmetry = solvers.norm_bound_certificate(
        op, support, lam, threshold)
    assert symmetry == C4_T and downgrade is None
    assert (count > 0) == above
    factors = dict.fromkeys(factor for _, factor in log)
    assert len(factors) > 4 if above else len(factors) == 4
    _assert_pivots_read_after_last_solve(log)
    assert all(("solve", factor) in log for factor in factors)


def test_non_finite_midpoint_pivot_jitters_and_solves_again(eigsh_spy,
                                                            monkeypatch):
    # a pivot read after the Krylov solve as NaN, once, discards that
    # solve: the block refactors at a jittered midpoint and solves again
    H, window = _torus_cluster_window()
    log, injected, splu = [], [], spla.splu

    def nan_once(pivots):
        if eigsh_spy.calls and not injected:
            injected.append(pivots[0])
            pivots[0] = np.nan
        return pivots

    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: _FactorSpy(
        splu(*args, **kwargs), log, nan_once))
    sl = window_eigs(H, window)
    factors = list(dict.fromkeys(factor for _, factor in log))
    assert len(factors) == 4  # alpha, beta, the midpoint twice
    assert injected and eigsh_spy.calls == [4, 4]
    midpoint = 0.5 * (window[0] + window[1])
    assert eigsh_spy.shifts[0] == midpoint
    assert 0 < eigsh_spy.shifts[1] - midpoint <= 1e-9
    assert (sl.krylov_k, sl.growth_rounds) == (4, 0)
    assert len(sl) == 4
    assert sl.certificate == CERTIFIED and sl.downgrade is None


def _factor_of(matrix, shift):
    """``_factor``'s SuperLU factor of matrix - shift."""
    return solvers._factor(SimpleNamespace(matrix=sp.csr_matrix(matrix),
                                           n=matrix.shape[0]), shift)


def _assert_supernodal_pivots_are_u_diagonal(lu):
    pivots = solvers._supernodal_pivots(lu)
    assert pivots is not None  # the installed scipy's layout is read
    expect = lu.U.diagonal()
    assert pivots.dtype == expect.dtype
    assert pivots.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [1, 2, 7, 60, 400])
def test_supernodal_pivots_equal_u_diagonal_on_random_matrices(dtype, n):
    # real-symmetric and complex-Hermitian matrices at an indefinite shift:
    # the pivots read from L's supernodes are U's diagonal bit for bit, and
    # their count is the dense eigenvalue count below the shift
    rng = np.random.default_rng(n)
    a = sp.random(n, n, density=min(1.0, 6.0 / n), random_state=rng,
                  dtype=dtype)
    if dtype == np.complex128:
        a = a + 1j * sp.random(n, n, density=min(1.0, 6.0 / n),
                               random_state=rng)
    matrix = (a + a.conj().T + sp.diags(rng.standard_normal(n))).toarray()
    eigenvalues = np.linalg.eigvalsh(matrix)
    shift = float(np.median(eigenvalues)) + 0.01
    lu = _factor_of(matrix, shift)
    _assert_supernodal_pivots_are_u_diagonal(lu)
    count, downgrade = solvers._inertia(lu)
    assert count == np.sum(eigenvalues < shift)
    assert downgrade is None


@pytest.mark.parametrize("experiment, p", [
    ("torus_constant", 2), ("radial_dip", 2), ("potential_bump", 2)])
def test_supernodal_pivots_equal_u_diagonal_on_preset_blocks(experiment, p):
    # every block the preset's window solve factors (the four sectors, or
    # the whole torus), at shifts inside its spectrum
    from magspec.config import build_config
    from magspec.experiments import build_instance
    op = build_instance(build_config({"experiment": experiment, "p": [p]}),
                        p)["op"]
    sectors = solvers._rotation_sectors(op, solvers.default_tol(op))[0]
    blocks = [op] if sectors is None else [
        solvers._hermitian_block(op, s.isometry(), s.real, op.matrix)
        for s in sectors]
    assert len(blocks) == (1 if experiment == "torus_constant" else 4)
    for block in blocks:
        diagonal = block.matrix.diagonal().real
        for shift in np.quantile(diagonal, [0.2, 0.5]):
            _assert_supernodal_pivots_are_u_diagonal(
                solvers._factor(block, shift))


def test_factor_proxy_reads_u_diagonal_for_the_same_count():
    # a proxy is not scipy's SuperLU, so its pivots come from its U, and
    # the count is the one read from the factor's supernodes
    matrix = np.diag([-2.0, -1.0, 0.5, 3.0]) + 0.1 * (np.eye(4, k=1)
                                                      + np.eye(4, k=-1))
    lu, log = _factor_of(matrix, 0.0), []
    spy = _FactorSpy(lu, log)
    assert solvers._supernodal_pivots(spy) is None
    assert solvers._inertia(spy) == solvers._inertia(lu) == (2, None)
    assert log == [("read", spy)]


def test_pivot_read_makes_no_fill_sized_allocation():
    # U's CSC copy costs about 12 bytes per fill entry; the supernodal
    # read allocates only arrays of the block's size
    import tracemalloc

    from magspec.config import build_config
    from magspec.experiments import build_instance
    op = build_instance(build_config({"experiment": "radial_dip", "p": [4]}),
                        4)["op"]
    sector = solvers._rotation_sectors(op, solvers.default_tol(op))[0][0]
    block = solvers._hermitian_block(op, sector.isometry(), sector.real,
                                     op.matrix)
    del op
    lu = solvers._factor(block, 2.0)
    assert lu.nnz > 40 * block.n
    solvers._inertia(solvers._factor(block, 1.9))  # warm: lazy imports
    tracemalloc.start()
    try:
        solvers._inertia(lu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * block.n, (peak, block.n, lu.nnz)


def test_norm_bound_falls_back_to_zero_when_t2_never_factors(tmp_path,
                                                             monkeypatch):
    # no factor at t^2 or its jitters: every block's count is untrusted
    # ("jitter retries exhausted") and sigma_S comes from the factor at 0
    op, support, lam = _bump_norm_bound_input(tmp_path)
    dense = (op.matrix.toarray() - lam * np.eye(op.n))[:, support]
    smallest = np.linalg.svd(dense, compute_uv=False).min()
    factor, shifts = solvers._factor, []

    def only_at_zero(op, shift):
        shifts.append(shift)
        return factor(op, shift) if shift == 0.0 else None

    monkeypatch.setattr(solvers, "_factor", only_at_zero)
    sigma_s, count, downgrade, symmetry = solvers.norm_bound_certificate(
        op, support, lam, 0.5)
    assert (count, downgrade) == (0, "jitter retries exhausted")
    assert symmetry == C4_T and shifts.count(0.0) == 4
    assert len(shifts) == 4 * 4  # three tries at t^2, one at 0, per sector
    assert abs(sigma_s - smallest) <= 1e-10


def test_window_midpoint_that_never_factors_names_its_last_shift(
        monkeypatch):
    # no shift factors: the counts at alpha and beta are untrusted, and the
    # midpoint fails at 0, 1e-10 and 3e-10; the error names the next shift
    monkeypatch.setattr(solvers, "_factor", lambda op, shift: None)
    op = op_from_dense(np.diag([-1.0, 0.25, 1.0, 2.0, 3.0]))
    with pytest.raises(ConvergenceError, match=r"^factorization failed at "
                                               r"shift 6e-10 after jitters$"):
        window_eigs(op, (-0.5, 0.5))


def test_eigenvector_dump_round_trip(tmp_path):
    lat, spec, b, links, V, H = torus_constant_setup(nx=12, p=4)
    sl = window_eigs(H, lowest_window(H, 4)[0])
    assert len(sl) == 4
    path = tmp_path / "vecs.bsev"
    write_slice(sl, path)
    back = read_slice(path)
    assert back.dim == H.n
    _assert_same_pairs(back, sl)


def test_eigenvector_dump_layout(tmp_path):
    # the round trip cannot see a layout change made to both sides at once
    sl = dense_spectrum(op_from_dense([[1.0, 0.5j, 0.0], [-0.5j, 2.0, 0.25],
                                       [0.0, 0.25, 3.0]])).select([0, 2])
    path = tmp_path / "vecs.bsev"
    write_slice(sl, path)
    expect = struct.pack("<4sIQQ", b"BSEV", 1, 3, 2)
    for i in range(2):
        v = sl.column(i)
        interleaved = np.column_stack([v.real, v.imag]).ravel()
        expect += struct.pack("<dd", sl.values[i], sl.residuals[i])
        expect += struct.pack("<6d", *interleaved)
    assert path.read_bytes() == expect


def test_truncated_dump_is_refused(tmp_path):
    # cut inside the header, then inside the second of three pairs
    sl = dense_spectrum(op_from_dense(np.diag([1.0, 2.0, 3.0])))
    path = tmp_path / "vecs.bsev"
    write_slice(sl, path)
    whole = path.read_bytes()
    assert len(whole) == 24 + 3 * (16 + 3 * 16)
    for cut, reason in [(10, "in its header"), (len(whole) - 100,
                                                "1 of 3 pairs")]:
        path.write_bytes(whole[:cut])
        with pytest.raises(WindowError) as info:
            read_slice(path)
        assert str(path) in str(info.value) and reason in str(info.value)


def test_dump_with_trailing_bytes_is_refused(tmp_path):
    # a header that undercounts its pairs, or two dumps in one file
    sl = dense_spectrum(op_from_dense(np.diag([1.0, 2.0])))
    path = tmp_path / "vecs.bsev"
    write_slice(sl, path)
    whole = path.read_bytes()
    for tail in (bytes(40), whole):
        path.write_bytes(whole + tail)
        with pytest.raises(WindowError) as info:
            read_slice(path)
        assert str(path) in str(info.value)
        assert f"{len(tail)} bytes after its 2 pairs" in str(info.value)


# ----------------------------------------------------------------------
# rotation sectors


def _interior_window(H, lo=10, count=20):
    """Window around dense eigenvalues lo .. lo + count - 1, cut midway
    between neighbours; returned with those eigenvalues."""
    w = dense_spectrum(H).values
    hi = lo + count
    assert min(w[lo] - w[lo - 1], w[hi] - w[hi - 1]) > 1e-6
    return (0.5 * (w[lo - 1] + w[lo]), 0.5 * (w[hi - 1] + w[hi])), w[lo:hi]


def _table_sectors(nx, rank):
    """The four T-real sectors of a zero-field rank-r operator on the
    nx-cell square (a real symmetric potential keeps T), with R and S."""
    lat = build_lattice("rectangle_dirichlet", 3.0, nx)
    V = zero_potential(lat) if rank == 1 \
        else constant_potential(lat, [[0.3, 0.1], [0.1, -0.2]])
    H = assemble_H(lat, trivial_links(lat, 4), V, 4)
    sectors, symmetry, _ = solvers._rotation_sectors(H, 1e-8)
    assert symmetry == C4_T
    n = H.n
    rotate, flip = np.zeros((n, n)), solvers._fiber_lift(lat.reflection, rank)
    rotate[solvers._fiber_lift(lat.rotation, rank), np.arange(n)] = 1.0
    return lat, sectors, rotate, flip


def _assert_isometries_split_the_rotation(nx, rank, real):
    """The CSR isometries built from the orbit table: W^H W = I, R W =
    i^m W, T-fixed columns when ``real``, and sum_m W_m W_m^H = I."""
    lat, sectors, rotate, flip = _table_sectors(nx, rank)
    n = rotate.shape[0]
    mats = [replace(s, real=real).isometry() for s in sectors]
    assert all(sp.isspmatrix_csr(w) for w in mats)
    mats = [w.toarray() for w in mats]
    orbits, fixed = divmod(n, 4)
    assert fixed == rank * (lat.site_nx % 2)
    assert [w.shape[1] for w in mats] == [orbits + fixed] + [orbits] * 3
    total = np.zeros((n, n), dtype=complex)
    for m, w in enumerate(mats):
        assert np.abs(w.conj().T @ w - np.eye(w.shape[1])).max() <= 1e-15
        assert np.abs(rotate @ w - 1j ** m * w).max() <= 1e-15
        if real:
            assert np.abs(w[flip].conj() - w).max() <= 1e-15  # S conj(w) = w
        total += w @ w.conj().T
    assert np.abs(total - np.eye(n)).max() <= 1e-15
    if real:  # both kinds of column occur: T-fixed orbits and swapped pairs
        assert {4, 8} <= set(np.count_nonzero(np.hstack(mats), axis=0))


@pytest.mark.parametrize("nx", [7, 8])  # site_nx odd (origin site), even
@pytest.mark.parametrize("rank", [1, 2])
def test_sector_bases_split_the_rotation(nx, rank):
    _assert_isometries_split_the_rotation(nx, rank, real=False)


@pytest.mark.parametrize("nx", [7, 8])
@pytest.mark.parametrize("rank", [1, 2])
def test_real_basis_is_fixed_by_the_reflection(nx, rank):
    _assert_isometries_split_the_rotation(nx, rank, real=True)


@pytest.mark.parametrize("nx", [7, 8])
@pytest.mark.parametrize("rank", [1, 2])
def test_table_pairing_is_the_reflection_of_the_columns(nx, rank):
    # read off the table, T b_c = phi_c b_c' is the one entry of column c
    # of B^H S conj(B), and W_m is the sparse product B_m Q_m, columns in
    # the order of c, in every stored number and index (so every block and
    # output is that of the product)
    lat, sectors, rotate, flip = _table_sectors(nx, rank)
    orbits = sectors[0].orbits
    for m, sector in enumerate(sectors):
        b = replace(sector, real=False).isometry()
        twin = (b.conj().T @ b.conj()[flip]).tocsc()
        assert np.array_equal(np.diff(twin.indptr), np.ones(b.shape[1]))
        assert np.array_equal(twin.indices, orbits.twin[:b.shape[1]])
        phase = 1j ** (m * orbits.turns[:b.shape[1]])
        assert np.abs(twin.data - phase).max() <= 1e-15
        q = np.zeros((b.shape[1],) * 2, dtype=complex)
        col, r = 0, np.sqrt(0.5)
        for c, (c2, f) in enumerate(zip(twin.indices, twin.data)):
            if c2 == c:
                q[c, col], col = np.sqrt(f), col + 1
            elif c2 > c:
                q[[c, c2], col] = r, r * f
                q[[c, c2], col + 1] = 1j * r, -1j * r * f
                col += 2
        got, expect = sector.isometry(), b @ sp.csr_matrix(q)
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() \
                == getattr(expect, name).tobytes(), name


def test_one_orbit_table_per_operator(monkeypatch):
    # the window solve and the certificate share the operator's table
    original, built = solvers._build_orbit_table, []
    monkeypatch.setattr(solvers, "_build_orbit_table",
                        lambda op: built.append(op) or original(op))
    H, window, _ = _dip_case()
    sl = window_eigs(H, window)
    support = H.lattice.boundary_distance() > 0.5  # quarter-turn invariant
    assert solvers.norm_bound_certificate(H, support, 1.5, 0.0)[3] == C4_T
    assert sl.symmetry == C4_T and built == [H]
    assert all(sector.orbits is H.orbit_table for sector, _ in sl.blocks)
    # a new operator made from it by replace starts without the table
    assert replace(H, lattice=None).orbit_table is None


@pytest.mark.parametrize("setup", [dip_rectangle_setup, bump_rectangle_setup],
                         ids=["radial_dip", "potential_bump"])
@pytest.mark.parametrize("nx", [33, 34])  # site_nx even, odd (origin site)
def test_sector_solve_matches_full_solve(setup, nx, splu_calls):
    H = setup(nx=nx, p=8)[-1]
    window, dense = _interior_window(H)
    sector = window_eigs(H, window)
    # every sector is factored in real arithmetic
    assert len(splu_calls) >= 4
    assert {kwargs["dtype"] for kwargs in splu_calls} == {np.dtype(np.float64)}
    # without its lattice the operator has no rotation to detect
    full = window_eigs(replace(H, lattice=None), window)
    assert (sector.symmetry, full.symmetry) == (C4_T, NO_SYMMETRY)
    # four sector blocks against the whole space as one
    assert len(sector.blocks) == 4
    assert len(full.blocks) == 1 and full.blocks[0][0] is None
    assert 0 <= sector.symmetry_defect \
        <= solvers.C4_DEFECT_FRACTION * sector.tol
    assert full.symmetry_defect is None
    assert len(sector) == len(full) == 20
    assert np.abs(sector.values - full.values).max() <= sector.tol
    assert np.abs(sector.values - dense).max() <= sector.tol
    u = stacked(sector)
    resid = np.linalg.norm(H.matrix @ u - u * sector.values, axis=0)
    assert np.allclose(sector.residuals, resid, rtol=1e-12, atol=0)
    assert resid.max() <= sector.tol
    gram = u.conj().T @ u
    assert np.abs(gram - np.eye(20)).max() <= 1e-8
    assert sector.certificate == full.certificate == CERTIFIED
    assert sector.downgrade is None
    assert (sector.krylov_k, sector.growth_rounds) == (20, 0)


def _dip_case():
    """(H, window, dense eigenvalues in it) with real rotation sectors."""
    H = dip_rectangle_setup(nx=34, p=8)[-1]
    return (H, *_interior_window(H))


def _rank_two_case():
    """The same with complex sectors, from a rank-two potential."""
    lat, spec, b, links, V, H = dip_rectangle_setup(nx=22, p=4)
    V2 = constant_potential(lat, [[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.2]])
    H2 = assemble_H(lat, links, V2, 4)
    return (H2, *_interior_window(H2, lo=6, count=12))


@pytest.fixture(scope="module")
def dip_slice():
    H, window, _ = _dip_case()
    return H, window_eigs(H, window)


@pytest.mark.parametrize("case, symmetry, dtype", [
    (_dip_case, C4_T, np.float64), (_rank_two_case, C4, np.complex128)],
    ids=["C4+T", "C4"])
def test_column_maps_block_vectors_by_their_basis(case, symmetry, dtype):
    H, window, _ = case()
    sl = window_eigs(H, window)
    assert sl.symmetry == symmetry and len(sl) > 0
    sectors = solvers._rotation_sectors(H, sl.tol)[0]
    assert len(sl.blocks) == len(sectors) == 4
    for (sector, vectors), expect in zip(sl.blocks, sectors):
        assert sector == expect
        assert vectors.shape[0] == sector.width and vectors.dtype == dtype
    # each pair is one column of one block, and no column is used twice
    assert len(set(zip(sl.block, sl.index))) == len(sl) \
        == sum(vectors.shape[1] for _, vectors in sl.blocks)
    # every block mapped whole by its isometry, as one sparse product: the
    # gather is that product bit for bit
    mapped = [sector.isometry() @ vectors for sector, vectors in sl.blocks]
    for i in range(len(sl)):
        column, expect = sl.column(i), mapped[sl.block[i]][:, sl.index[i]]
        assert column.shape == (H.n,) and column.dtype == np.complex128
        assert column.tobytes() == expect.tobytes()


def test_sector_dump_equals_dump_of_its_columns(dip_slice, tmp_path):
    H, sl = dip_slice
    whole = solvers.SpectrumSlice(values=sl.values, residuals=sl.residuals,
                                  certificate=sl.certificate,
                                  blocks=[(None, stacked(sl))])
    write_slice(sl, tmp_path / "sectors.bsev")
    write_slice(whole, tmp_path / "whole.bsev")
    dump = (tmp_path / "sectors.bsev").read_bytes()
    assert dump == (tmp_path / "whole.bsev").read_bytes()
    assert len(dump) == 24 + len(sl) * (16 + 16 * H.n)


def test_sector_slice_holds_no_lattice_sized_vectors(dip_slice):
    # the pairs stay in block space beside their sectors, which hold the
    # orbit table and no isometry
    H, sl = dip_slice
    assert len(sl.blocks) == 4
    for name, value in vars(sl).items():
        arrays = [v for _, v in value] if name == "blocks" else [value]
        for a in arrays:
            assert np.ndim(a) == 0 or np.shape(a)[0] < H.n, name
    for sector, _ in sl.blocks:
        for value in [*vars(sector).values(), *vars(sector.orbits).values()]:
            assert not sp.issparse(value)
            assert np.ndim(value) < 2 or np.shape(value)[0] == 4
            assert np.size(value) <= H.n


def test_select_shares_the_block_vectors(dip_slice):
    H, sl = dip_slice
    keep = [0, 2, 3, len(sl) - 1]
    sub = sl.select(keep)
    for (basis, vectors), (own_basis, own) in zip(sub.blocks, sl.blocks):
        assert basis is own_basis and np.shares_memory(vectors, own)
    assert np.array_equal(sub.values, sl.values[keep])
    assert np.array_equal(sub.residuals, sl.residuals[keep])
    assert np.array_equal(stacked(sub), stacked(sl)[:, keep])


def test_degenerate_clusters_spanning_sectors():
    # the free Laplacian's 2-fold pairs at 1.364, 2.710, 3.526 and 4.561
    # each split over two rotation sectors, so no cluster QR sees a pair
    lat = build_lattice("rectangle_dirichlet", 3.0, 24)
    H = assemble_H(lat, trivial_links(lat, 4), zero_potential(lat), 4)
    window, dense = lowest_window(H, 11)  # the gap 4.87 .. 5.38
    sl = window_eigs(H, window)
    assert sl.symmetry == C4_T
    assert len(sl) == np.sum(dense <= window[1]) == 11
    assert np.abs(sl.values - dense[:11]).max() <= sl.tol
    bases = [s.isometry() for s in solvers._rotation_sectors(H, sl.tol)[0]]
    u = stacked(sl)
    weight = np.array([np.linalg.norm(b.conj().T @ u, axis=0)
                       for b in bases])
    sector = weight.argmax(axis=0)
    assert np.allclose(weight.max(axis=0), 1.0, atol=1e-10)
    pairs = np.flatnonzero(np.diff(sl.values) <= 1e-9)
    assert sl.values[pairs] == pytest.approx([1.364, 2.710, 3.526, 4.561],
                                             abs=1e-3)
    assert np.all(sector[pairs] != sector[pairs + 1])
    gram = u.conj().T @ u
    assert np.abs(gram - np.eye(11)).max() <= 1e-12
    resid = np.linalg.norm(H.matrix @ u - u * sl.values, axis=0)
    assert np.allclose(sl.residuals, resid, rtol=1e-12, atol=0)
    assert resid.max() <= sl.tol
    assert sl.certificate == CERTIFIED


def test_rank_two_potential_takes_sector_path():
    H2, window, dense = _rank_two_case()
    sl = window_eigs(H2, window)
    # the complex off-diagonal of V breaks T = conj S: complex sectors
    flip = solvers._fiber_lift(H2.lattice.reflection, 2)
    defect_t = solvers._row_sum_bound(H2.matrix[flip][:, flip].conj()
                                      - H2.matrix)
    assert defect_t > solvers.C4_DEFECT_FRACTION * sl.tol
    assert sl.symmetry == C4 and len(sl.blocks) == 4
    assert len(sl) == 12 and sl.certificate == CERTIFIED
    assert np.abs(sl.values - dense).max() <= sl.tol
    assert sl.residuals.max() <= sl.tol


def _one_shot_block(left, real, right):
    """The reference sector matrix: left^H right made whole at once."""
    half = left.conj().T @ right
    block = 0.5 * (half + half.conj().T)
    return (block.real if real else block).tocsr()


def _window_blocks(case):
    H, window, _ = case()
    window_eigs(H, window)


def _gram_blocks():
    H = _dip_case()[0]
    support = H.lattice.boundary_distance() > 0.5  # quarter-turn invariant
    assert solvers.norm_bound_certificate(H, support, 1.5, 0.0)[3] == C4_T


@pytest.mark.parametrize("build, real", [
    (lambda: _window_blocks(_dip_case), True),
    (lambda: _window_blocks(_rank_two_case), False),
    (_gram_blocks, True)], ids=["C4+T", "C4", "gram"])
def test_sector_block_equals_the_one_shot_product(build, real, monkeypatch):
    # the blocks are built over column halves; each must equal the whole
    # product's block in every stored number and index
    original, calls = solvers._hermitian_block, []

    def spy(op, left, flag, matrix=None):
        block = original(op, left, flag, matrix)
        calls.append((left, flag, matrix, block.matrix))
        return block

    monkeypatch.setattr(solvers, "_hermitian_block", spy)
    build()
    assert len(calls) == 4
    for left, flag, matrix, got in calls:
        assert flag == real
        expect = _one_shot_block(
            left, real, left if matrix is None else matrix @ left)
        assert got.dtype == (np.float64 if real else np.complex128)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(expect, name))


def test_sector_block_build_peaks_below_the_one_shot_build():
    # the whole N x N/4 product H W is the build's largest array; over two
    # column halves the traced peak is about 0.7 of the one-shot build's
    import tracemalloc
    H = dip_rectangle_setup(nx=48, p=8)[-1]
    basis = solvers._rotation_sectors(H, solvers.default_tol(H))[0][0] \
        .isometry()
    peaks = []
    for build in (lambda: solvers._hermitian_block(H, basis, True, H.matrix),
                  lambda: _one_shot_block(basis, True, H.matrix @ basis)):
        build()  # warm: lazy imports and caches stay out of the peak
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.8 * peaks[1], peaks


def _torus_case():
    H = torus_constant_setup(nx=24, p=4)[-1]
    bval = 1 / TWO_PI
    return H, (0.6 * bval, 1.4 * bval)


def _transition_case():
    lat = build_lattice("rectangle_dirichlet", 4.4, 25)
    spec = FieldSpec.transition()
    links = gauge_links(edge_integrals(spec, lat, "landau"), 4)
    H = assemble_H(lat, links, zero_potential(lat), 4)
    return H, _interior_window(H, lo=4, count=8)[0]


def _broken_site_case():
    lat, spec, b, links, V, H = bump_rectangle_setup(nx=25, p=4)
    values = V.values.copy()
    values[lat.site_index(3, 5)] += 1e-3
    H = assemble_H(lat, links, PotentialField(values, lat), 4)
    return H, _interior_window(H, lo=4, count=8)[0]


@pytest.mark.parametrize("case", [_torus_case, _transition_case,
                                  _broken_site_case],
                         ids=["torus", "transition", "broken_site"])
def test_asymmetric_operator_keeps_the_full_solve(case, splu_calls,
                                                  eigsh_spy):
    H, window = case()
    sl = window_eigs(H, window)
    calls = (len(splu_calls), list(eigsh_spy.calls))
    del splu_calls[:], eigsh_spy.calls[:]
    full = window_eigs(replace(H, lattice=None), window)
    assert sl.symmetry == NO_SYMMETRY
    if H.lattice.is_torus:
        assert sl.symmetry_defect is None
    else:
        assert sl.symmetry_defect > solvers.C4_DEFECT_FRACTION * sl.tol
    assert calls == (len(splu_calls), eigsh_spy.calls) == (3, [len(sl)])
    _assert_symmetric_mode_factors(splu_calls, 3)
    assert sl.certificate == CERTIFIED and len(sl) > 0
    _assert_same_pairs(sl, full)


def test_sector_convergence_error_carries_full_partial(one_arpack_iteration):
    H = dip_rectangle_setup(nx=34, p=8)[-1]
    with pytest.raises(ConvergenceError) as info:
        window_eigs(H, lowest_window(H, 40)[0])
    partial = info.value.partial
    assert partial is not None and 1 <= len(partial) <= 39
    assert partial.dim == H.n
    assert partial.certificate == HEURISTIC
    u = stacked(partial)
    resid = H.matrix @ u - u * partial.values
    assert np.allclose(partial.residuals, np.linalg.norm(resid, axis=0),
                       rtol=1e-12, atol=0)


def test_sector_solve_is_reproducible():
    H = dip_rectangle_setup(nx=34, p=8)[-1]
    window, _ = _interior_window(H)
    first, second = (window_eigs(H, window, seed=3) for _ in range(2))
    assert first.symmetry == C4_T
    _assert_same_pairs(first, second)
