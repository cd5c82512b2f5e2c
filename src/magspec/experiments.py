"""One per-p pipeline for every preset, and its machine-readable reports.

Each tensor power p runs the same stages, held by a lazy ``PerP`` context
that is dropped before the next p: ``build_instance``; the level union
(``sigma_region``) and, where the preset uses one, the interface set of the
configured window; the window solve; the preset's diagnostics (the shown
pairs' distances to the union, wall filter, localization report, and for p
in ``trials_p`` the norm lower bound, whose S, lam, d and threshold are
chosen here and certified by ``solvers``, the layer of every factorization
and Krylov solve).  A preset is a ``config.PRESETS`` record; here it adds
only assertions over the per-p results and across p (``CHECKS``).
``run_experiment`` runs every stage and writes tables, eigenvector dumps,
``sigma.json`` and a ``summary.json`` of pass/fail assertions, flushing
tables per p so a failed run keeps its finished artifacts; the CLI's
``spectrum``, ``model-sigma`` and ``localization`` select stages and
outputs of the same context.  Each writer first removes the files it
replaces (``_REPLACES``).
"""

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
import numpy as np

from .analysis import boundary_filter, localization_report, scaling_exponent
from .config import PRESETS, plan_geometry, run_ps
from .errors import (ConfigError, InsufficientDataError, InvalidSpecError,
                     MagspecError)
from .fields import (LANDAU, SYMMETRIC, PotentialField, constant_potential,
                     edge_integrals, gauge_links, gaussian_bump_potential,
                     sample_field, zero_potential)
from .lattice import TORUS, build_lattice
from .model import (dist_to_sigma, distances_to_sigma, find_gaps,
                    interface_set, sigma_region)
from .operators import assemble_H
from .solvers import (CERTIFIED, norm_bound_certificate, window_eigs,
                      write_slice)

# distance floor: measured cluster distances below this are numerical zero
DISTANCE_FLOOR = 1e-12
# the constant C of the norm lower bound ||(H - lam) u|| >= (d - C p^(-1/4))
# ||u||, u supported away from the interface set (CHANGES.md argues it)
NORM_BOUND_C = 0.0


@dataclass
class ExperimentResult:
    summary: dict
    out_dir: Path
    exit_code: int

    @property
    def passed(self):
        return self.exit_code == 0


def choose_gauge(cfg):
    if cfg.lattice_kind == TORUS:
        return LANDAU
    return SYMMETRIC if cfg.field_spec.is_radial else LANDAU


def build_potential(cfg, lattice):
    pot = cfg.potential
    if pot.kind == "none":
        return zero_potential(lattice, rank=pot.rank)
    if pot.kind == "bump":
        return gaussian_bump_potential(lattice, pot.height, pot.width,
                                       rank=pot.rank)
    if pot.kind == "const":
        m = np.asarray(pot.matrix, dtype=complex).reshape(pot.rank, pot.rank)
        return constant_potential(lattice, m)
    try:  # "file": PotentialSpec refuses other kinds
        with open(pot.path, "rb") as fh:
            vals = np.lib.format.read_array(fh)  # .npy only, no pickles
    except (OSError, ValueError) as exc:
        raise InvalidSpecError(f"v_file {pot.path} is not a .npy array: "
                               f"{exc}") from None
    return PotentialField(vals, lattice)


def build_instance(cfg, p):
    """Lattice, sampled field, links, potential, and operator at one p."""
    plan = plan_geometry(cfg, p)
    lattice = build_lattice(plan["kind"], plan["extent"], plan["nx"])
    b = sample_field(cfg.field_spec, lattice)
    links = gauge_links(edge_integrals(cfg.field_spec, lattice,
                                       choose_gauge(cfg)), p)
    potential = build_potential(cfg, lattice)
    op = assemble_H(lattice, links, potential, p)
    return dict(plan=plan, lattice=lattice, b=b, links=links,
                potential=potential, op=op)


def _bound_support(interface, p, b_min):
    """The sites of the norm bound's trial space: the interface complement
    less the band within two magnetic lengths 2 / sqrt(p b_min) of the
    Dirichlet wall (the torus has no wall)."""
    wall = interface.lattice.boundary_distance() <= 2.0 / np.sqrt(p * b_min)
    return interface.omega & ~wall


# ----------------------------------------------------------------------
# report files

def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    """Append the rows to the table at path, made with its header if new."""
    mode = "a" if Path(path).exists() else "w"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _dump_json(path, obj):
    def default(o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o)}")

    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, default=default, allow_nan=True)


def _rle_rows(mask_grid):
    """Run-length encoding per grid row: lists of [start, length]."""
    out = []
    for row in np.asarray(mask_grid, dtype=int):
        edges = np.flatnonzero(np.diff(np.r_[0, row, 0]))
        runs = [[int(s), int(e - s)] for s, e in zip(edges[0::2], edges[1::2])]
        out.append(runs)
    return out


def _branch_of(lam, sigma):
    """Label (k, mu) of the nearest unmerged branch interval."""
    best = (np.inf, (-1, -1))
    for k, mu, lo, hi in sigma.branches:
        d = max(lo - lam, lam - hi, 0.0)
        if d < best[0] or (d == best[0] and (k, mu) < best[1]):
            best = (d, (k, mu))
    return best[1]


_SPECTRUM_HEADER = ["experiment", "p", "h", "seed", "index", "lambda",
                    "residual", "dist_to_sigma", "branch_k", "branch_mu"]

_DUMP = "eigs_p{}.bsev"
# the files that run, or the CLI view of that name, writes; they go first,
# so none of an earlier run outlives a re-run, a failed one included
# (summary.json is always written)
_REPLACES = {"run": ("spectrum.csv", "gap_states.csv", "localization.csv",
                     "sigma.json", _DUMP.format("*")),
             "spectrum": ("spectrum.csv", _DUMP.format("*")),
             "model-sigma": ("sigma.json",),
             "localization": ("localization.csv",)}


def write_sigma(cfg, entries):
    """sigma.json: one level-union entry per p."""
    _dump_json(Path(cfg.out_dir) / "sigma.json",
               {"experiment": cfg.experiment, "entries": entries})


class _Assertions:
    def __init__(self):
        self.items = []

    def check(self, name, passed, measured=None, threshold=None):
        self.items.append(dict(name=name, passed=bool(passed),
                               measured=measured, threshold=threshold))
        return bool(passed)

    @property
    def all_passed(self):
        return all(item["passed"] for item in self.items)


# ----------------------------------------------------------------------
# the per-p pipeline

class PerP:
    """The pipeline stages of one p; each runs on first use and is kept.

    A view may set ``slice`` before first use to take the solve stage's
    output from a dump instead of solving.
    """

    def __init__(self, cfg, p):
        self.cfg = cfg
        self.p = p
        self.preset = PRESETS[cfg.experiment]
        self.solve_window, self.cutoff = self.preset.limits(cfg)
        self.out = Path(cfg.out_dir)
        self.dump = self.out / _DUMP.format(p)

    @cached_property
    def inst(self):
        """``build_instance``'s parts less the links, which no later stage
        reads: H holds them, and its provenance hashes them."""
        inst = build_instance(self.cfg, self.p)
        del inst["links"]
        return inst

    @property
    def h(self):
        return self.inst["plan"]["h"]

    @cached_property
    def sigma(self):
        return sigma_region(self.inst["b"], self.inst["potential"],
                            cutoff=self.cutoff)

    @cached_property
    def interface(self):
        """Interface set of the configured window, if the preset uses one.

        A set that holds a site of the outermost ring of a Dirichlet plane
        is refused: its states would be cut by the wall, not localized.
        """
        if not self.preset.interface or self.cfg.window is None:
            return None
        inst, window = self.inst, self.cfg.window
        lattice = inst["lattice"]
        interface = interface_set(lattice, inst["b"], inst["potential"],
                                  window, self.cutoff)
        ring = lattice.grid(interface.mask)
        if not lattice.is_torus and (ring[[0, -1]].any()
                                     or ring[:, [0, -1]].any()):
            raise ConfigError(f"the interface set of window {window} meets "
                              f"the Dirichlet wall at p = {self.p}")
        return interface

    @cached_property
    def slice(self):
        return window_eigs(self.inst["op"], self.solve_window,
                           tol=self.cfg.tol, seed=self.cfg.seed)

    @cached_property
    def filtered(self):
        return boundary_filter(self.slice, self.inst["lattice"], self.p,
                               self.cfg.field_spec.max_intensity())

    @property
    def shown(self):
        """Spectrum-table pairs: wall artifacts dropped, or flagged in place
        where the preset writes edge states."""
        return self.slice if self.preset.edge_states else self.filtered.kept

    @cached_property
    def distances(self):
        """Distances of the shown pairs to the level union."""
        return distances_to_sigma(self.shown.values, self.sigma)

    @cached_property
    def localization(self):
        spec = self.cfg.field_spec
        return localization_report(
            self.slice, self.interface, self.p, spec.max_intensity(),
            b_min=spec.min_intensity())

    def norm_bound(self):
        """The norm lower bound at the window midpoint lam, certified over
        the ``_bound_support`` sites S: with d = dist(lam, Sigma_S), the
        count of singular values of (H - lam)|_S below max(d - C p^(-1/4),
        0) (``norm_bound_certificate``)."""
        cfg, p, inst = self.cfg, self.p, self.inst
        support = _bound_support(self.interface, p,
                                 cfg.field_spec.min_intensity())
        lam = 0.5 * (cfg.window[0] + cfg.window[1])
        d = dist_to_sigma(lam, sigma_region(inst["b"], inst["potential"],
                                            region=support,
                                            cutoff=self.cutoff))
        threshold = max(d - NORM_BOUND_C * p ** -0.25, 0.0)
        sigma_s, count, downgrade, symmetry = norm_bound_certificate(
            inst["op"], support, lam, threshold, tol=cfg.tol, seed=cfg.seed)
        return dict(p=p, sites=int(support.sum()), d_lambda=d,
                    sigma_s=sigma_s, bound_gap=(d - sigma_s) * p ** 0.25,
                    count=count, downgrade=downgrade, symmetry=symmetry)

    def sigma_entry(self):
        sigma = self.sigma
        entry = {"p": self.p, "h": self.h,
                 "intervals": [[lo, hi] for lo, hi, _ in sigma.intervals],
                 "branch_labels": [list(map(list, labels))
                                   for _, _, labels in sigma.intervals],
                 "gaps": [list(g) for g in find_gaps(sigma)],
                 "cutoff": sigma.cutoff}
        interface = self.interface
        if interface is not None:
            entry["interface_rle"] = _rle_rows(
                interface.lattice.grid(interface.mask))
            entry["interface_sites"] = int(interface.mask.sum())
        return entry

    def _rows(self, entries):
        """Provenance columns plus one row per entry."""
        cfg = self.cfg
        return [[cfg.experiment, self.p, self.h, cfg.seed, *e]
                for e in entries]

    def _spectrum_rows(self):
        sl, sigma, dists = self.shown, self.sigma, self.distances
        return self._rows([i, lam, sl.residuals[i], dists[i],
                           *_branch_of(lam, sigma)]
                          for i, lam in enumerate(sl.values))

    def write_spectrum(self):
        """spectrum.csv rows of the shown pairs, and the eigenvector dump."""
        _write_csv(self.out / "spectrum.csv", _SPECTRUM_HEADER,
                   self._spectrum_rows())
        write_slice(self.slice, self.dump)

    def write_localization(self):
        _write_csv(self.out / "localization.csv", _SPECTRUM_HEADER[:5]
                   + ["c_star", "kappa", "W_at_cmin"],
                   self._rows([e.index, e.c_star, e.kappa, e.w_at_cmin]
                              for e in self.localization.entries))

    def write_edge_states(self):
        """gap_states.csv and localization.csv rows, and the dump."""
        rows = [row + [e.boundary_fraction, e.artifact] for row, e in
                zip(self._spectrum_rows(), self.localization.entries)]
        _write_csv(self.out / "gap_states.csv",
                   _SPECTRUM_HEADER + ["boundary_fraction", "artifact_flag"],
                   rows)
        self.write_localization()
        write_slice(self.slice, self.dump)


# ----------------------------------------------------------------------
# preset rules

def _solve_record(sl):
    """Certificate, downgrade reason, Krylov work and rotation symmetry of
    one window solve."""
    return dict(certificate=sl.certificate, downgrade=sl.downgrade,
                krylov_k=sl.krylov_k, growth_rounds=sl.growth_rounds,
                symmetry=sl.symmetry, symmetry_defect=sl.symmetry_defect)


def _distance_stats(st):
    """Largest and mean distance of the shown pairs to the level union."""
    if not len(st.shown):
        raise InsufficientDataError("empty spectrum slice")
    return float(st.distances.max()), float(st.distances.mean())


def _torus_checks(st, assertions):
    cfg, p, sl = st.cfg, st.p, st.slice
    max_distance = _distance_stats(st)[0]
    bval = cfg.field_spec.max_intensity()
    expect = p * cfg.c1
    assertions.check(f"cluster_count_p{p}",
                     len(sl) == expect and sl.certificate == CERTIFIED,
                     measured=len(sl), threshold=expect)
    mean_dev = abs(float(sl.values.mean()) - bval) / bval if len(sl) \
        else math.inf
    assertions.check(f"cluster_mean_p{p}", mean_dev <= 0.05,
                     measured=mean_dev, threshold=0.05)
    return dict(p=p, n_cluster=len(sl), **_solve_record(sl),
                mean_dev=mean_dev, max_distance=max_distance)


def _dip_checks(st, assertions):
    sl, filt = st.slice, st.filtered
    max_distance, mean_distance = _distance_stats(st)
    return dict(p=st.p, n_below=len(sl), n_kept=len(filt.kept),
                n_artifacts=int(filt.artifact_mask.sum()), **_solve_record(sl),
                max_distance=max_distance, mean_distance=mean_distance)


def _dip_sweep(cfg, per_p, bounds, assertions):
    """Interval clustering rate of the worst distance across p."""
    max_dists = [(e["p"], e["max_distance"]) for e in per_p]
    # distances numerically zero at every p: clustering holds outright and
    # no meaningful rate can be fitted
    exponent = None
    if not all(d <= DISTANCE_FLOOR for _, d in max_dists):
        exponent = scaling_exponent(
            [(p, max(d, DISTANCE_FLOOR)) for p, d in max_dists])
    assertions.check("clustering_rate", exponent is None or exponent <= -0.25,
                     measured=0.0 if exponent is None else exponent,
                     threshold=-0.25)
    return {"ceiling": PRESETS[cfg.experiment].limits(cfg)[0][1],
            "clustering_exponent": exponent, "max_distances": max_dists}


def _bump_checks(st, assertions):
    p, sl, loc = st.p, st.slice, st.localization
    genuine = [e for e in loc.entries if not e.artifact]
    assertions.check(
        f"gap_states_exist_p{p}",
        len(genuine) >= 1 and sl.certificate == CERTIFIED,
        measured=len(genuine), threshold=1)
    worst_far = max((e.far_mass_fraction for e in genuine), default=1.0)
    assertions.check(f"gap_states_interface_mass_p{p}", worst_far <= 0.05,
                     measured=worst_far, threshold=0.05)
    worst_w = max((e.w_at_cmin for e in genuine), default=math.inf)
    assertions.check(f"weighted_mass_cap_p{p}", worst_w <= loc.c_cap,
                     measured=worst_w, threshold=loc.c_cap)
    fitted = [e for e in genuine if np.isfinite(e.kappa)]
    kappas = [abs(e.kappa) for e in fitted]
    return dict(p=p, n_window=len(sl), n_genuine=len(genuine),
                **_solve_record(sl),
                worst_far_mass=worst_far, worst_w_at_cmin=worst_w,
                kappa_median=float(np.median(kappas)) if kappas else math.nan,
                kappa_stderr_max=max((e.kappa_stderr for e in fitted),
                                     default=math.nan),
                c_min=loc.c_min, c_cap=loc.c_cap)


def _bump_sweep(cfg, per_p, bounds, assertions):
    """Decay rates doubling from p to 4p; the norm bound certified at every
    p of ``trials_p`` with the one constant C."""
    kappa_by_p = {e["p"]: e["kappa_median"] for e in per_p}
    stderr_by_p = {e["p"]: e["kappa_stderr_max"] for e in per_p}
    inner = PRESETS[cfg.experiment].limits(cfg)[0]
    results = {"window": list(cfg.window), "inner_window": list(inner),
               "kappa_by_p": kappa_by_p}
    for p in cfg.p_list:
        if 4 * p in kappa_by_p and np.isfinite(kappa_by_p[p]):
            ratio = kappa_by_p[4 * p] / kappa_by_p[p]
            assertions.check(f"decay_rate_doubling_p{p}_to_{4 * p}",
                             1.5 <= ratio <= 2.5, measured=ratio,
                             threshold=[1.5, 2.5])
            name = f"kappa_ratio_{4 * p}_over_{p}"
            results[name] = ratio
            # first-order propagation, each kappa taken with the largest
            # slope standard error among the genuine states at its p
            results[f"{name}_stderr"] = ratio * math.hypot(
                stderr_by_p[4 * p] / kappa_by_p[4 * p],
                stderr_by_p[p] / kappa_by_p[p])
    if cfg.trials_p:
        norm = results["norm_bound"] = [bounds[p] for p in cfg.trials_p]
        worst = max(e["bound_gap"] for e in norm)
        certified = all(e["count"] == 0 and e["downgrade"] is None
                        for e in norm)
        assertions.check(f"norm_bound_p{norm[0]['p']}_to_p{norm[-1]['p']}",
                         certified and worst <= NORM_BOUND_C,
                         measured=worst, threshold=NORM_BOUND_C)
    return results


# each preset's assertions: (PerP, assertions) -> per-p summary entry, and
# (cfg, per_p, bounds, assertions) -> the results across p, or None
CHECKS = {
    "torus_constant": (_torus_checks, None),
    "radial_dip": (_dip_checks, _dip_sweep),
    "potential_bump": (_bump_checks, _bump_sweep),
}


def pipeline(cfg, writer, ps=None):
    """Per-p contexts of the run pipeline at ``ps`` (None: the p list), once
    cfg's output directory, made if missing, holds none of the files that
    ``writer`` replaces."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pattern in _REPLACES.get(writer, ()):
        for path in out.glob(pattern):
            path.unlink()
    return (PerP(cfg, p) for p in (cfg.p_list if ps is None else ps))


def _run_sweep(cfg, assertions):
    checks, sweep = CHECKS[cfg.experiment]
    edge_states = PRESETS[cfg.experiment].edge_states
    per_p, sigma_entries, bounds = [], [], {}
    # stages run lazily, so rebinding frees the previous p's context before
    # the next p does any work
    for st in pipeline(cfg, "run", run_ps(cfg)):
        p = st.p
        if p in cfg.p_list:
            per_p.append(checks(st, assertions))
            if edge_states:
                st.write_edge_states()
            else:
                st.write_spectrum()
            sigma_entries.append(st.sigma_entry())
        if p in cfg.trials_p:
            bounds[p] = st.norm_bound()
    del st
    results = {"per_p": per_p}
    if sweep is not None:
        results.update(sweep(cfg, per_p, bounds, assertions))
    write_sigma(cfg, sigma_entries)
    return results


def plan_report(cfg):
    """Dry-run view: the lattice of every p the run builds."""
    return [plan_geometry(cfg, p) for p in run_ps(cfg)]


def run_experiment(cfg, dry_run=False):
    """Execute the configured preset; artifacts land in cfg.out_dir.

    Exit code 0 means every configured assertion passed; partial results are
    written even when a solver fails mid-sweep.
    """
    out = Path(cfg.out_dir)
    if dry_run:
        out.mkdir(parents=True, exist_ok=True)
        summary = {"experiment": cfg.experiment, "dry_run": True,
                   "plans": plan_report(cfg)}
        _dump_json(out / "summary.json", summary)
        return ExperimentResult(summary=summary, out_dir=out, exit_code=0)

    assertions = _Assertions()
    summary = {"experiment": cfg.experiment, "seed": cfg.seed,
               "p_list": list(cfg.p_list)}
    error = None
    try:
        summary["results"] = _run_sweep(cfg, assertions)
    except MagspecError as exc:
        error = f"{type(exc).__name__}: {exc}"
        summary["error"] = error
    summary["assertions"] = assertions.items
    passed = assertions.all_passed and error is None
    summary["passed"] = passed
    _dump_json(out / "summary.json", summary)
    return ExperimentResult(summary=summary, out_dir=out,
                            exit_code=0 if passed else 1)
