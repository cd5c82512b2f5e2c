"""Config parsing, sizing rules, CLI subcommands, reproducibility."""

import ast
import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from magspec.cli import main
from magspec.config import (build_config, interface_radius, parse_config,
                            plan_geometry)
from magspec.errors import ConfigError
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
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 4\nnx = 24\n"
                     f"out = {tmp_path}/out\n")
    # cluster window around the lowest level b = 1/(2 pi)
    assert main(["spectrum", "--config", cfg, "--window",
                 "0.0955,0.2228"]) == 0
    out = capsys.readouterr().out
    assert "4 pairs (certified)" in out


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
    "potential_bump": "p = 4\nnx = 32\ntrials_p = 4\ntrials = 5\n",
}


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


def test_cli_imports_no_private_experiments_name():
    tree = ast.parse((Path(__file__).parents[1] / "src" / "magspec"
                      / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("experiments", "magspec.experiments")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_convergence_table(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 2, 4\n"
                     f"nx = 20\nout = {tmp_path}/out\n")
    assert main(["convergence", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "p=2" in out and "p=4" in out
    table = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert table[0].startswith("experiment,p,seed,max_distance")
    assert len(table) == 3


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


def test_cli_threads_flag_sets_env(tmp_path, capsys):
    import os
    saved = {k: os.environ.get(k) for k in
             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "_MAGSPEC_THREADS")}
    try:
        cfg = _write_cfg(tmp_path, "experiment = torus_constant\np = 2\n"
                         f"nx = 16\nout = {tmp_path}/out\n")
        assert main(["run", "--config", cfg, "--dry-run", "--threads", "2"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        capsys.readouterr()
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


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
