"""Config parsing, sizing rules, CLI subcommands, reproducibility."""

import ast
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from magspec.cli import main
from magspec.config import (PRESETS, PotentialSpec, build_config,
                            interface_radius, parse_config, plan_geometry)
from magspec.errors import ConfigError, InvalidSpecError
from magspec.experiments import run_experiment


def test_minimal_config_fills_defaults():
    cfg = parse_config("experiment = torus_constant\np = 4, 8\n")
    assert cfg.experiment == "torus_constant"
    assert cfg.p_list == [4, 8]
    assert cfg.lattice_kind == "torus"
    assert cfg.resolution == "high-accuracy"
    assert cfg.seed == 0
    plan = plan_geometry(cfg, 8)
    # resolution rule h sqrt(p b) <= 0.1 picks the grid
    assert plan["h"] * math.sqrt(8 / (2 * math.pi)) <= 0.1
    assert plan["nx"] >= 2


def test_sections_and_comments_are_organizational():
    text = """
    # comment
    [experiment]
    experiment = potential_bump   # trailing comment
    p = [16, 32]
    [solver]
    tol = 1e-9
    """
    cfg = parse_config(text)
    assert cfg.p_list == [16, 32]
    assert cfg.tol == pytest.approx(1e-9)


def test_empty_p_rejected():
    with pytest.raises(ConfigError):
        parse_config("experiment = torus_constant\np =\n")


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="foo"):
        parse_config("experiment = torus_constant\nfoo = 1\n")


def test_syntax_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("experiment = torus_constant\np = 4\nbogus line\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("experiment = torus_constant\np = 4\np = 8\n")


def test_descending_p_rejected():
    with pytest.raises(ConfigError, match="ascending"):
        parse_config("experiment = torus_constant\np = 8, 4\n")


def test_empty_window_rejected():
    with pytest.raises(ConfigError, match="window"):
        parse_config("experiment = potential_bump\nwindow = 1.7, 1.3\n")


def test_unsatisfiable_resolution_states_required_size():
    with pytest.raises(ConfigError, match="max_sites"):
        parse_config("experiment = torus_constant\np = 256\nmax_sites = 100\n")


def test_interface_radius_analytic():
    cfg_b = build_config({"experiment": "radial_dip"})
    assert interface_radius(cfg_b) == pytest.approx(math.sqrt(math.log(1.5)),
                                                    abs=2e-3)
    cfg_c = build_config({"experiment": "potential_bump"})
    assert interface_radius(cfg_c) == pytest.approx(
        math.sqrt(math.log(1 / 0.3)), abs=2e-3)


def test_truncation_rule_drives_extent():
    cfg = build_config({"experiment": "potential_bump"})
    for p in (16, 64):
        plan = plan_geometry(cfg, p)
        want = 2 * (interface_radius(cfg) + 6.0 / math.sqrt(p))
        assert plan["extent"] == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("line, message", [
    ("nx = 1", "nx must be at least 2"),
    ("extent = -1", "lattice extent must be positive")])
def test_plan_refuses_a_grid_the_lattice_refuses(line, message):
    # the plan takes its site count from the lattice, so a grid that no
    # lattice can be built on is refused with the config, not at the first p
    with pytest.raises(InvalidSpecError, match=message):
        parse_config(f"experiment = radial_dip\n{line}\n")


def _write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_potential_file_kind(tmp_path):
    import numpy as np

    from magspec.experiments import build_instance

    vals = np.zeros((15 * 15, 1, 1), dtype=complex)  # nx=16 interior grid
    vals[:, 0, 0] = 0.25
    path = tmp_path / "pot.npy"
    np.save(path, vals)
    cfg = build_config({"experiment": "potential_bump", "p": [4], "nx": 16,
                        "extent": 4.0, "potential": "file",
                        "v_file": str(path)})
    inst = build_instance(cfg, 4)
    assert np.allclose(inst["potential"].eigenvalues, 0.25)


def test_non_finite_potential_file_is_refused_before_any_factor(
        tmp_path, monkeypatch, capsys):
    # one NaN site in v_file ends the run with InvalidSpecError, naming the
    # potential, before any factorization or dump
    import numpy as np
    import scipy.sparse.linalg as spla

    def no_factor(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(spla, "splu", no_factor)
    vals = np.full((15 * 15, 1, 1), 0.25, dtype=complex)
    vals[112, 0, 0] = np.nan
    np.save(tmp_path / "pot.npy", vals)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\np = 2\n"
                     "nx = 16\nextent = 6.0\npotential = file\n"
                     f"v_file = {tmp_path / 'pot.npy'}\nout = {out}\n")
    assert main(["run", "--config", cfg]) == 1
    assert re.search(r"^\[ERROR\] InvalidSpecError: potential ",
                     capsys.readouterr().out, re.M)
    assert not list(out.glob("eigs_p*.bsev"))


def test_missing_v_file_is_refused_at_dry_run(tmp_path, capsys, no_build):
    missing = tmp_path / "pot.npy"
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\np = 2\n"
                     "nx = 16\nextent = 6.0\npotential = file\n"
                     f"v_file = {missing}\nout = {tmp_path}/out\n")
    assert main(["run", "--config", cfg, "--dry-run"]) == 2
    assert capsys.readouterr().err == \
        f"error: v_file {missing} is not an existing file\n"
    assert not (tmp_path / "out").exists()


def test_potential_file_that_is_not_npy_is_a_spec_error(tmp_path, capsys):
    # a text file named *.npy ends the run with InvalidSpecError, naming
    # v_file, and the summary records it
    path = tmp_path / "pot.npy"
    path.write_text("0.25 0.25 0.25\n")
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\np = 2\n"
                     "nx = 16\nextent = 6.0\npotential = file\n"
                     f"v_file = {path}\nout = {out}\n")
    assert main(["run", "--config", cfg]) == 1
    message = f"InvalidSpecError: v_file {path} is not a .npy array: "
    assert f"[ERROR] {message}" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"].startswith(message)


@pytest.mark.parametrize("preset, nx, error", [
    ("radial_dip", 2, None),  # one site, no plaquette: refused with the config
    ("radial_dip", 3, "ConvergenceError: a block of 1 rows is too small"),
    ("radial_dip", 4, "ConvergenceError: a block of 2 rows is too small"),
    ("radial_dip", 5,
     "InsufficientDataError: need at least two points with distinct p"),
    # the window solves, but a norm-bound Gram block has one row
    ("potential_bump", 6, "ConvergenceError: a block of 1 rows is too small")])
def test_small_lattice_ends_in_a_recorded_error(tmp_path, capsys, preset, nx,
                                                error):
    # each ended in a traceback with no summary.json: nx = 2 in the field
    # sampling, 3 and 4 in a Krylov solve asked for k <= 0 pairs, 5 in the
    # clustering fit of a single p, and the norm bound in an ARPACK solve
    # asked for as many pairs as its block has rows
    out = tmp_path / "out"
    trials = "trials_p = 2\n" if preset == "potential_bump" else ""
    cfg = _write_cfg(tmp_path, f"experiment = {preset}\np = 2\nextent = 6.0\n"
                     f"nx = {nx}\n{trials}out = {out}\n")
    code = main(["run", "--config", cfg])
    captured = capsys.readouterr()
    if error is None:
        assert code == 2 and not out.exists()
        assert re.match(r"error: nx must be at least", captured.err)
        return
    assert code == 1 and f"[ERROR] {error}" in captured.out
    assert json.loads((out / "summary.json").read_text())["error"] \
        .startswith(error)


def test_cli_dry_run_and_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 2\nnx = 20\n"
                     f"out = {tmp_path}/out\n")
    assert main(["run", "--config", cfg, "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "nx=20" in out

    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[PASS] cluster_count_p2" in out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    # every per-p entry says why its certificate was downgraded, if it was,
    # and how much Krylov work its solve took
    per_p = summary["results"]["per_p"]
    assert per_p and all(e["certificate"] == "certified"
                         and "downgrade" in e and e["downgrade"] is None
                         and e["krylov_k"] == e["n_cluster"]
                         and e["growth_rounds"] == 0
                         for e in per_p)
    assert (tmp_path / "out" / "spectrum.csv").exists()
    assert (tmp_path / "out" / "eigs_p2.bsev").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\nfoo = 1\n")
    assert main(["run", "--config", cfg]) == 2
    assert "foo" in capsys.readouterr().err


def test_cli_spectrum_and_model_sigma(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\np = 8\n"
                     f"out = {tmp_path}/out\n")
    assert main(["spectrum", "--config", cfg]) == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()
    assert main(["model-sigma", "--config", cfg]) == 0
    sigma = json.loads((tmp_path / "out" / "sigma.json").read_text())
    entry = sigma["entries"][0]
    assert entry["gaps"], "bulk gap expected for the bump preset"
    assert entry["interface_sites"] > 0
    capsys.readouterr()


def test_cli_spectrum_window_override(tmp_path, capsys):
    # the torus solves its own lowest-cluster window: a --window that the
    # view would ignore is refused, and nothing is solved or written
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 4\nnx = 24\n"
                     f"out = {tmp_path}/out\n")
    assert main(["spectrum", "--config", cfg, "--window", "5,6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(r"\bwindow\b", err)
    assert not (tmp_path / "out").exists()


def test_cli_localization_on_dumps(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\np = 16\n"
                     f"out = {tmp_path}/out\n")
    assert main(["run", "--config", cfg]) == 0
    from_run = (tmp_path / "out" / "localization.csv").read_text()
    assert main(["localization", "--config", cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "localization.csv").read_text() == from_run
    loc = from_run.splitlines()
    assert loc[0].split(",") == ["experiment", "p", "h", "seed", "index",
                                 "c_star", "kappa", "W_at_cmin"]
    assert len(loc) > 1


def test_cli_spectrum_solves_run_window(tmp_path, capsys):
    # without --window the torus view solves run's lowest-cluster window,
    # which holds the whole 8-fold Landau cluster at p = 8
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 8\nnx = 32\n"
                     f"out = {tmp_path}/out\n")
    assert main(["spectrum", "--config", cfg]) == 0
    assert "p=8: 8 pairs (certified)" in capsys.readouterr().out


_SMALL = {
    "torus_constant": "p = 2\nnx = 16\n",
    "radial_dip": "p = 2, 4\nnx = 24\n",
    "potential_bump": "p = 4\nnx = 32\ntrials_p = 4\n",
}


@pytest.mark.parametrize("preset", ["torus_constant", "radial_dip"])
def test_empty_shown_slice_is_insufficient_data(tmp_path, capsys,
                                                monkeypatch, preset):
    # with every pair a wall artifact no shown pair is left to take the
    # worst distance over: the run records that, it does not crash
    import magspec.analysis

    monkeypatch.setattr(magspec.analysis, "WALL_ARTIFACT", -1.0)
    cfg = _write_cfg(tmp_path, f"experiment = {preset}\n{_SMALL[preset]}"
                     f"out = {tmp_path}/out\n")
    assert main(["run", "--config", cfg]) == 1
    capsys.readouterr()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["error"] == "InsufficientDataError: empty spectrum slice"


@pytest.mark.parametrize("preset", sorted(_SMALL))
def test_views_write_what_run_writes(tmp_path, capsys, preset):
    cfg = _write_cfg(tmp_path, f"experiment = {preset}\n{_SMALL[preset]}"
                     f"out = {tmp_path}/run\n")
    assert main(["run", "--config", cfg]) == 0
    view = tmp_path / "view"
    assert main(["model-sigma", "--config", cfg, "--out", str(view)]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(view)]) == 0
    capsys.readouterr()

    def entries(root):
        return json.loads((root / "sigma.json").read_text())["entries"]

    def table(path):
        with open(path, newline="") as fh:
            return [row[:10] for row in csv.reader(fh)]

    assert entries(view) == entries(tmp_path / "run")
    ran = "gap_states.csv" if preset == "potential_bump" else "spectrum.csv"
    assert table(view / "spectrum.csv") == table(tmp_path / "run" / ran)


def test_no_module_imports_a_private_name():
    # a module's private names are its own: no module of the package
    # imports one from another, by relative or by absolute import
    private = []
    for path in sorted((Path(__file__).parents[1] / "src" / "magspec")
                       .glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private += [f"{path.stem}: {alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith(
                        "magspec"))
                    for alias in node.names if alias.name.startswith("_")]
    assert private == []


# Public names that only tests reach, kept on purpose: the plain reference
# forms that the analysis fast paths are compared against, and the
# zero-field fixture.
TEST_REFERENCES = {
    "weighted_mass",         # localization_report's weighted masses
    "decay_fit",             # localization_report's decay fit
    "mass_fraction_beyond",  # localization_report's far-mass fraction
    "hermiticity_defect",    # the adjoint blocks of assemble_H
    "trivial_links",         # zero-field links for operator tests
}


def test_every_public_name_has_a_src_caller():
    # a top-level definition is reached when code outside its own body, and
    # outside every unreached definition but the test references, names it;
    # so unreached code keeps nothing alive
    src = Path(__file__).parents[1] / "src" / "magspec"
    defs, refs = [], {}  # refs: name -> top-level definitions naming it
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            key = None  # module-level code
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = (path.name, node.name)
                defs.append(key)
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    name = sub.id if isinstance(sub, ast.Name) else sub.attr
                    refs.setdefault(name, set()).add(key)
    dead = set()
    while True:
        ignored = {key for key in dead if key[1] not in TEST_REFERENCES}
        unreached = {key for key in defs
                     if not refs.get(key[1], set()) - ignored - {key}}
        if unreached == dead:
            break
        dead = unreached
    public = sorted(name for _, name in dead if not name.startswith("_"))
    assert public == sorted(TEST_REFERENCES)


def test_import_loads_neither_ndimage_nor_special():
    # every run's start-up pays for what the package imports; nothing in it
    # needs scipy.ndimage, which also loads scipy.special
    import magspec
    code = ("import sys, magspec, magspec.experiments, magspec.cli; "
            "print(sorted(m for m in ('scipy.ndimage', 'scipy.special') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(magspec.__file__).parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_gauge_check(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 4\n"
                     f"out = {tmp_path}/out\n")
    assert main(["gauge-check", "--config", cfg]) == 0
    assert "[PASS] gauge invariance" in capsys.readouterr().out


def test_cli_overrides(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 2, 4\n"
                     f"out = {tmp_path}/out\n")
    assert main(["run", "--config", cfg, "--p", "2", "--seed", "5",
                 "--out", str(tmp_path / "out2"), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "p=2" in out and "p=4" not in out
    summary = json.loads((tmp_path / "out2" / "summary.json").read_text())
    assert summary["plans"][0]["p"] == 2


@pytest.mark.parametrize("flag, value", [
    ("--p", "8,x"), ("--window", "1.3"), ("--seed", "x")])
def test_cli_malformed_override_names_the_flag(tmp_path, capsys, flag,
                                               value):
    # an override is parsed as the same key in the file would be, and its
    # error names the flag where the file's names the line
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\n"
                     f"out = {tmp_path}/out\n")
    assert main(["run", "--config", cfg, flag, value, "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1


@pytest.mark.parametrize("writer", ["run", "spectrum"])
def test_rewrite_leaves_no_stale_dump(tmp_path, capsys, writer):
    # a dump of a p the latest run did not solve, for another window, must
    # not be read back as current
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\np = 4, 8\n"
                     f"trials_p = 4\nout = {tmp_path}/out\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg]) == 0
    assert (out / "eigs_p8.bsev").exists()
    window = ["--window", "1.3,1.65"]
    assert main([writer, "--config", cfg, "--p", "4", *window]) == 0
    assert [path.name for path in out.glob("*.bsev")] == ["eigs_p4.bsev"]
    capsys.readouterr()
    assert main(["localization", "--config", cfg, *window]) == 0
    assert f"p=8: no dump {out / 'eigs_p8.bsev'}" in capsys.readouterr().err
    with open(out / "localization.csv", newline="") as fh:
        assert {row["p"] for row in csv.DictReader(fh)} == {"4"}
    assert (out / "eigs_p4.bsev").exists()  # the view keeps the dumps


def test_failed_run_leaves_no_stale_sigma(tmp_path, capsys):
    # a run that fails before it writes sigma.json leaves none, not the
    # level unions of the run before it
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\np = 4\nnx = 32\n"
                     f"trials_p = 4\nout = {out}\n")
    assert main(["run", "--config", cfg]) == 0
    assert (out / "sigma.json").exists()
    walled = _write_cfg(tmp_path, "experiment = potential_bump\np = 4\n"
                        f"extent = 2.0\nout = {out}\n", name="walled.cfg")
    assert main(["run", "--config", walled]) == 1
    assert "meets the Dirichlet wall" in capsys.readouterr().out
    assert not (out / "sigma.json").exists()


def test_failed_assertions_nonzero_exit_with_partial_results(tmp_path, capsys):
    # deliberately under-resolved torus: the cluster count cannot come out
    # right, the run must fail while still writing its artifacts
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 8\nnx = 8\n"
                     f"out = {tmp_path}/out\n")
    code = main(["run", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "spectrum.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False


def test_cli_threads_flag_is_refused(tmp_path, capsys):
    # BLAS and OpenMP take their thread counts from the environment; no
    # subcommand has a flag for them
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 2\n"
                     f"nx = 16\nout = {tmp_path}/out\n")
    for command in ("run", "spectrum", "model-sigma", "localization",
                    "gauge-check"):
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, "--dry-run", "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture
def no_build(monkeypatch):
    """Fail any test that builds a lattice operator, so a refusal is seen
    to come before every solve."""
    import magspec.experiments

    def build_instance(cfg, p):
        raise AssertionError(f"built the operator at p = {p}")

    monkeypatch.setattr(magspec.experiments, "build_instance", build_instance)


@pytest.mark.parametrize("preset, key, value", [
    # the inner-window margin, the weighted-mass cap and the rate the
    # report takes W at are constants of the pipeline, not config keys
    ("radial_dip", "window_margin", "0.1"),
    ("torus_constant", "c_cap", "5"),
    # a margin that empties the inner window, and a negative rate
    ("potential_bump", "window_margin", "0.2"),
    ("potential_bump", "c_min", "-0.5"),
    ("potential_bump", "c_cap", "5"),
])
def test_retired_key_is_unknown(tmp_path, capsys, no_build, preset, key,
                                value):
    cfg = _write_cfg(tmp_path, f"experiment = {preset}\n{key} = {value}\n"
                     f"out = {tmp_path}/out\n")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: line 2: unknown key {key!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, message", [
    ("trials_p = 0, 8\n", "all trials_p must be >= 1"),
    ("trials_p = 16, 8, 8\n", "trials_p list must be strictly ascending"),
    # p = 32768 plans more sites than max_sites; so does a trials_p of it
    ("p = 16\ntrials_p = 32768\n",
     "resolution rule needs nx = 1636 (2673225 sites) at p = 32768, above "
     "max_sites = 2000000; raise max_sites or reduce p"),
    ("p = 4\ntol = 0\n", "tol must be positive, got 0.0"),
    ("p = 4\nv_width = 0\n", "v_width must be positive, got 0.0"),
    # the solve window and the union cutoff of the preset's limits: a
    # window narrower than twice the 0.05 margin, a cutoff below its top
    ("window = 1.3, 1.39\n", "window (1.3, 1.39) leaves potential_bump the "
     "empty solve window (1.35, 1.3399999999999999)"),
    ("cutoff = 1.0\n", "window top 1.7 exceeds the level-union cutoff 1.0"),
    # the same rule on the torus, whose solve window is its lowest level
    ("experiment = torus_constant\np = 2\nnx = 16\ncutoff = 0.05\n",
     "window top 0.22281692032865347 exceeds the level-union cutoff 0.05"),
    # every float key is finite, and the rank is one the potential takes
    ("v_height = nan\n", "line 2: v_height must be finite, got nan"),
    ("field = radial_dip\nwidth = nan\n",
     "line 3: width must be finite, got nan"),
    ("cutoff = nan\n", "line 2: cutoff must be finite, got nan"),
    ("b = inf\n", "line 2: b must be finite, got inf"),
    ("window = 1.3, -inf\n", "line 2: window must be finite, got -inf"),
    ("v_matrix = 1e400\npotential = const\n",
     "line 2: v_matrix must be finite, got 1e400"),
    ("v_rank = 0\n", "v_rank must be in 1..8, got 0"),
    ("v_rank = 9\n", "v_rank must be in 1..8, got 9"),
    # a potential file that is not there
    ("potential = file\nv_file = no_such_dir/pot.npy\np = 2\nnx = 16\n"
     "extent = 6.0\n", "v_file no_such_dir/pot.npy is not an existing file"),
])
def test_bad_value_is_refused_before_any_solve(tmp_path, capsys, no_build,
                                               lines, message):
    # potential_bump unless the case names its experiment
    if not lines.startswith("experiment"):
        lines = f"experiment = potential_bump\n{lines}"
    cfg = _write_cfg(tmp_path, f"{lines}out = {tmp_path}/out\n")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--window", "1.3,1.39", "window (1.3, 1.39) leaves potential_bump the "
     "empty solve window (1.35, 1.3399999999999999)"),
    ("--window", "1.3,4.5",
     "window top 4.5 exceeds the level-union cutoff 4.0"),
    ("--window", "1.3,nan", "--window: window must be finite, got nan")])
def test_window_rule_is_checked_at_dry_run(tmp_path, capsys, no_build, flag,
                                           value, message):
    # the preset's limits are config rules, so a plan refuses what the run
    # would
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\n"
                     f"out = {tmp_path}/out\n")
    assert main(["run", "--config", cfg, flag, value, "--dry-run"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_dry_run_plans_every_p_the_run_builds(tmp_path, capsys):
    # the norm bound's p are built too, so the plan lists them
    cfg = _write_cfg(tmp_path, "experiment = potential_bump\np = 16\n"
                     f"trials_p = 8, 16\nout = {tmp_path}/out\n")
    assert main(["run", "--config", cfg, "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^p=(\d+):", out, re.M) == ["8", "16"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [plan["p"] for plan in summary["plans"]] == [8, 16]


def test_run_reproducible_bit_for_bit(tmp_path):
    digests = []
    for sub in ("r1", "r2"):
        cfg = build_config({"experiment": "torus_constant", "p": [2],
                            "nx": 16, "seed": 3,
                            "out": str(tmp_path / sub)})
        result = run_experiment(cfg)
        assert result.passed
        blob = (tmp_path / sub / "spectrum.csv").read_bytes() \
            + (tmp_path / sub / "eigs_p2.bsev").read_bytes()
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


def test_provenance_columns_on_every_row(tmp_path):
    cfg = build_config({"experiment": "torus_constant", "p": [2, 4],
                        "nx": 16, "seed": 9, "out": str(tmp_path / "o")})
    run_experiment(cfg)
    rows = (tmp_path / "o" / "spectrum.csv").read_text().splitlines()
    header = rows[0].split(",")
    for col in ("experiment", "p", "h", "seed"):
        assert col in header
    seed_col = header.index("seed")
    assert all(r.split(",")[seed_col] == "9" for r in rows[1:])


# ----------------------------------------------------------------------
# every field of the parsed config, pinned for each preset and shipped file

_REPO = Path(__file__).parents[1]

_NO_POTENTIAL = {"kind": "none", "height": 1.0, "width": 1.0, "matrix": None,
                 "rank": 1, "path": None}
_SETTINGS = {"nx": None, "tol": None, "max_sites": 2_000_000, "seed": 0,
             "out_dir": "magspec_out", "trials_p": [], "c1": 1}
_PINNED = {
    "torus_constant": dict(
        _SETTINGS, experiment="torus_constant",
        field_spec={"preset": "constant",
                    "params": (("b", 0.15915494309189535),)},
        potential=_NO_POTENTIAL, lattice_kind="torus", p_list=[4, 8, 16],
        window=None, cutoff=None, resolution="high-accuracy",
        extent=6.283185307179586),
    "radial_dip": dict(
        _SETTINGS, experiment="radial_dip",
        field_spec={"preset": "radial_dip",
                    "params": (("b_inf", 1.0), ("depth", 0.3),
                               ("width", 1.0))},
        potential=_NO_POTENTIAL, lattice_kind="rectangle_dirichlet",
        p_list=[8, 16, 32, 64], window=(1.6, 2.4), cutoff=2.0,
        resolution="high-accuracy", extent=None),
    "potential_bump": dict(
        _SETTINGS, experiment="potential_bump",
        field_spec={"preset": "constant", "params": (("b", 1.0),)},
        potential=dict(_NO_POTENTIAL, kind="bump"),
        lattice_kind="rectangle_dirichlet", p_list=[16, 32, 64],
        window=(1.3, 1.7), cutoff=4.0, resolution="standard", extent=None,
        trials_p=[8, 16, 32]),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_preset_minimal_config_pinned(name):
    cfg = parse_config(f"experiment = {name}\n")
    assert dataclasses.asdict(cfg) == _PINNED[name]


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_shipped_config_pinned(name):
    text = (_REPO / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
    assert dataclasses.asdict(parse_config(text)) == dict(
        _PINNED[name], out_dir=f"out_{name}")


@pytest.mark.parametrize("text, message", [
    ("experiment = torus_constant\nbogus line\n",
     "line 2: expected key = value, got 'bogus line'"),
    ("experiment = torus_constant\nfoo = 1\n", "line 2: unknown key 'foo'"),
    # the random norm-bound trials and their count are gone
    ("experiment = potential_bump\ntrials = 100\n",
     "line 2: unknown key 'trials'"),
    ("experiment = torus_constant\np = 4\np = 8\n",
     "line 3: duplicate key 'p'"),
    ("experiment = torus_constant\nseed = 1.5\n",
     "line 2: cannot parse seed = '1.5'"),
    ("experiment = torus_constant\ntol = tiny\n",
     "line 2: cannot parse tol = 'tiny'"),
    ("experiment = torus_constant\np = 4, x\n",
     "line 2: cannot parse p = '4, x'"),
    ("experiment = potential_bump\nwindow = 1.3, x\n",
     "line 2: cannot parse window = '1.3, x'"),
    ("experiment = potential_bump\nwindow = 1.3\n",
     "line 2: window needs two values"),
    ("experiment = potential_bump\nv_matrix = a\n",
     "line 2: cannot parse v_matrix = 'a'"),
    ("p = 4\n", "missing required key 'experiment'"),
    ("experiment = nope\n",
     "unknown experiment 'nope'; choose from "
     "['potential_bump', 'radial_dip', 'torus_constant']"),
    ("experiment = radial_dip\nfield = nope\n", "unknown field preset 'nope'"),
    ("experiment = potential_bump\npotential = nope\n",
     "unknown potential kind 'nope'"),
    ("experiment = potential_bump\npotential = const\n",
     "potential = const requires v_matrix"),
    ("experiment = potential_bump\npotential = const\nv_rank = 2\n"
     "v_matrix = 1, 0, 1\n", "v_matrix needs rank^2 = 4 entries"),
    ("experiment = potential_bump\npotential = file\n",
     "potential = file requires v_file"),
    ("experiment = torus_constant\np =\n", "p list must be non-empty"),
    ("experiment = torus_constant\np = 0, 4\n", "all p must be >= 1"),
    ("experiment = torus_constant\np = 8, 4\n",
     "p list must be strictly ascending"),
    ("experiment = potential_bump\nwindow = 1.7, 1.3\n",
     "window (1.7, 1.3) is empty"),
    # radial_dip's union is cut one level spacing above its cutoff: 2.1
    ("experiment = radial_dip\ncutoff = 0.1\n",
     "window top 2.4 exceeds the level-union cutoff 2.1"),
    ("experiment = potential_bump\nresolution = coarse\n",
     "resolution must be one of ['high-accuracy', 'standard']"),
    ("experiment = torus_constant\np = 256\nmax_sites = 100\n",
     "resolution rule needs nx = 402 (161604 sites) at p = 256, above "
     "max_sites = 100; raise max_sites or reduce p"),
    ("experiment = radial_dip\nfield = transition\n",
     "auto-sizing needs a radial field; give an explicit extent for preset "
     "transition"),
    ("experiment = torus_constant\nb = 0.3\n",
     "the torus field is constant with b = c1 / 2 pi; set c1, not field or b"),
    ("experiment = torus_constant\nfield = constant\n",
     "the torus field is constant with b = c1 / 2 pi; set c1, not field or b"),
    ("experiment = torus_constant\np = 4\nextent = 3.0\n",
     "b = c1 / 2 pi closes into a bundle only on the 2 pi x 2 pi torus; do "
     "not set extent"),
    # b + 0.35 lies in the window everywhere: K is unbounded
    ("experiment = potential_bump\np = 4\npotential = const\n"
     "v_matrix = 0.35\n",
     "window (1.3, 1.7) meets a local level at the sizing ray's end r = 8: "
     "the window is not in a gap of the far-field levels"),
    # b = 1 - 0.3 exp(-r^2) rounds to 1.0 far out, so b + 0.6 meets 1.6
    ("experiment = radial_dip\np = 4\npotential = const\nv_matrix = 0.6\n",
     "window (1.6, 2.4) meets a local level at the sizing ray's end r = 8: "
     "the window is not in a gap of the far-field levels"),
])
def test_config_error_messages(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_potential_spec_refuses_unknown_kind():
    with pytest.raises(ConfigError, match="unknown potential kind 'nope'"):
        PotentialSpec(kind="nope")


def test_preset_potential_honours_v_keys():
    cfg = parse_config("experiment = potential_bump\nv_height = 2.0\n"
                       "v_width = 0.5\n")
    assert (cfg.potential.height, cfg.potential.width) == (2.0, 0.5)


@pytest.mark.parametrize("preset, key, value", [
    # the torus solves its own lowest-cluster window, and only the bump
    # preset has the norm bound and the localization report
    ("torus_constant", "window", "5, 6"),
    ("torus_constant", "trials_p", "4"),
    ("radial_dip", "c1", "2"),
    ("radial_dip", "trials_p", "8"),
    # the bump preset's field is constant, which reads b alone
    ("potential_bump", "b_inf", "2"),
    ("potential_bump", "depth", "0.5"),
    # radial_dip's potential is none, which reads no v_* key
    ("radial_dip", "v_height", "1"),
])
def test_unread_key_is_refused_by_name(preset, key, value):
    with pytest.raises(ConfigError, match=rf"does not read {key}$"):
        parse_config(f"experiment = {preset}\n{key} = {value}\n")


def test_preset_unread_keys_pinned():
    # derived from each preset's record: window without an interface set,
    # trials_p without the norm bound, c1 off the torus
    assert {name: preset.unread for name, preset in PRESETS.items()} == {
        "torus_constant": {"window", "trials_p"},
        "radial_dip": {"trials_p", "c1"},
        "potential_bump": {"c1"}}


def test_unread_keys_follow_the_chosen_field_and_potential():
    cfg = parse_config("experiment = radial_dip\npotential = bump\n"
                       "v_height = 0.5\n")
    assert cfg.potential.height == 0.5
    cfg = parse_config("experiment = potential_bump\nfield = radial_dip\n"
                       "depth = 0.2\n")
    assert cfg.field_spec == build_config(
        {"experiment": "radial_dip", "depth": 0.2}).field_spec


def test_const_potential_unbounded_interface_is_refused():
    # the level 1.35 of V = 0.35 lies in [1.3, 1.7] at every site: the
    # sizing must see the set the lattice builds, not the field alone, and
    # refuse it, since that set has no outer radius
    from magspec.experiments import build_instance
    from magspec.model import interface_set

    text = ("experiment = potential_bump\np = 4\npotential = const\n"
            "v_matrix = 0.35\n")
    with pytest.raises(ConfigError, match="not in a gap of the far-field"):
        parse_config(text)
    cfg = parse_config(text + "extent = 6.0\n")
    inst = build_instance(cfg, 4)
    mask = interface_set(inst["lattice"], inst["b"], inst["potential"],
                         cfg.window, cfg.cutoff).mask
    assert mask.all()
    with pytest.raises(ConfigError, match="not in a gap of the far-field"):
        interface_radius(cfg)


@pytest.mark.parametrize("text, p", [
    # K is every site (the level 1.35 of V = 0.35 is in the window)
    ("potential = const\nv_matrix = 0.35\nextent = 6.0\np = 4\n", 4),
    # the bump's annulus does not fit inside a plane of side 2; the first
    # p of the sweep is the trial p = 8
    ("extent = 2.0\np = 16\n", 8)])
def test_interface_set_meeting_the_wall_is_refused(tmp_path, text, p):
    cfg = parse_config(f"experiment = potential_bump\n{text}"
                       f"out = {tmp_path}/out\n")
    result = run_experiment(cfg)
    assert result.exit_code == 1
    assert result.summary["error"] == (
        f"ConfigError: the interface set of window (1.3, 1.7) meets the "
        f"Dirichlet wall at p = {p}")


def test_file_potential_needs_extent(tmp_path):
    import numpy as np

    np.save(tmp_path / "pot.npy", np.zeros((1, 1, 1)))
    text = ("experiment = potential_bump\npotential = file\n"
            f"v_file = {tmp_path / 'pot.npy'}\n")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == ("auto-sizing needs a radial potential; give "
                               "an explicit extent for potential = file")
    assert parse_config(text + "extent = 4.0\n").extent == 4.0


def test_readme_names_exactly_the_config_keys():
    from magspec.config import _KEYS

    readme = (_REPO / "README.md").read_text(encoding="utf-8")
    paragraph = next(block for block in readme.split("\n\n")
                     if block.startswith("Recognized keys:"))
    assert sorted(re.findall(r"`([^`]+)`", paragraph)) == sorted(_KEYS)
    assert len(_KEYS) == 27


def test_readme_names_exactly_the_common_flags():
    from magspec.cli import build_parser

    readme = (_REPO / "README.md").read_text(encoding="utf-8")
    paragraph = next(block for block in readme.split("\n\n")
                     if block.startswith("Common flags:"))
    named = {flag.replace("-", "_") for flag in re.findall(
        r"`--([a-z-]+)", paragraph.split(".  ")[0])}
    for command in ("run", "spectrum", "model-sigma", "localization",
                    "gauge-check"):
        args = vars(build_parser().parse_args([command, "--config", "x"]))
        flags = set(args) - {"command"}
        assert flags == named | {"config"} and len(flags) == 6, command
