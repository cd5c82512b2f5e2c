"""Command-line interface for the experiment pipelines.

Subcommands (all but gauge-check select stages and outputs of run):
    run          full preset pipeline with assertions (exit code 0 iff pass)
    spectrum     run's window solve: spectrum.csv and eigenvector dumps
    model-sigma  run's level unions, gaps and interface sets (sigma.json)
    localization run's localization.csv from stored eigenvector dumps
    gauge-check  gauge-invariance suite on a reduced instance

Common flags: --config PATH (required), --out DIR, --p LIST, --window A,B,
--seed N, --dry-run.  --out, --p, --window and --seed override the config
keys of their names, in the file's syntax.
"""

import argparse
import sys
from pathlib import Path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magspec",
        description="Spectral experiments for lattice magnetic operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("run", "full preset pipeline with assertions"),
            ("spectrum", "assemble and solve; write spectrum.csv"),
            ("model-sigma", "level unions, gaps, interface sets only"),
            ("localization", "analyze stored eigenvector dumps"),
            ("gauge-check", "gauge invariance suite")]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="config file path")
        cmd.add_argument("--out", help="output directory override")
        cmd.add_argument("--p", help="comma-separated tensor powers override")
        cmd.add_argument("--window", help="energy window override: A,B")
        cmd.add_argument("--seed", help="seed override")
        cmd.add_argument("--dry-run", action="store_true",
                         help="print the plan; no solves")
    return parser


def _load_config(args):
    from .config import parse_config
    from .errors import ConfigError

    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    overrides = {key: value for key in ("out", "p", "window", "seed")
                 if (value := getattr(args, key)) is not None}
    return parse_config(path.read_text(encoding="utf-8"), overrides)


def _print_assertions(summary):
    for item in summary.get("assertions", []):
        tag = "PASS" if item["passed"] else "FAIL"
        line = f"[{tag}] {item['name']}"
        if item.get("measured") is not None:
            line += f"  measured={item['measured']}"
        if item.get("threshold") is not None:
            line += f"  threshold={item['threshold']}"
        print(line)
    if "error" in summary:
        print(f"[ERROR] {summary['error']}")


def _cmd_run(cfg, args):
    from .experiments import run_experiment

    result = run_experiment(cfg, dry_run=args.dry_run)
    if args.dry_run:
        for plan in result.summary["plans"]:
            print(f"p={plan['p']}: {plan['kind']} extent={plan['extent']:.4g} "
                  f"nx={plan['nx']} h={plan['h']:.5g} sites={plan['n_sites']}")
        return 0
    _print_assertions(result.summary)
    print(f"artifacts: {result.out_dir}")
    return result.exit_code


def _cmd_spectrum(cfg, args):
    from .experiments import pipeline

    for st in pipeline(cfg, "spectrum"):
        st.write_spectrum()
        print(f"p={st.p}: {len(st.slice)} pairs ({st.slice.certificate}), "
              f"N={st.inst['op'].n}")
    print(f"artifacts: {cfg.out_dir}")
    return 0


def _cmd_model_sigma(cfg, args):
    from .experiments import pipeline, write_sigma

    entries = []
    for st in pipeline(cfg, "model-sigma"):
        entries.append(st.sigma_entry())
        print(f"p={st.p}: {len(entries[-1]['intervals'])} intervals, "
              f"{len(entries[-1]['gaps'])} gaps")
    write_sigma(cfg, entries)
    print(f"artifacts: {cfg.out_dir}")
    return 0


def _cmd_localization(cfg, args):
    from .config import PRESETS
    from .experiments import pipeline
    from .solvers import read_slice

    if not PRESETS[cfg.experiment].edge_states:
        print(f"the {cfg.experiment} preset has no localization report",
              file=sys.stderr)
        return 2
    wrote = 0
    for st in pipeline(cfg, "localization"):
        if not st.dump.exists():
            print(f"p={st.p}: no dump {st.dump}, skipping", file=sys.stderr)
            continue
        st.slice = read_slice(st.dump)
        if st.slice.dim != st.inst["op"].n:
            print(f"p={st.p}: dump dimension {st.slice.dim} does "
                  f"not match the lattice ({st.inst['op'].n})",
                  file=sys.stderr)
            return 2
        st.write_localization()
        wrote += len(st.slice)
        print(f"p={st.p}: {len(st.slice)} entries")
    print(f"artifacts: {cfg.out_dir}")
    return 0 if wrote else 2


def _cmd_gauge_check(cfg, args):
    import numpy as np
    from dataclasses import replace

    from .experiments import build_instance
    from .fields import apply_gauge_transform, plaquette_holonomy
    from .operators import assemble_H
    from .solvers import dense_spectrum

    # reduced instance: dense-oracle sized regardless of the sweep
    small = replace(cfg, nx=24, p_list=[min(cfg.p_list)])
    if args.dry_run:
        print(f"gauge check on nx=24, p={small.p_list[0]}")
        return 0
    p = small.p_list[0]
    inst = build_instance(small, p)
    lattice, links = inst["lattice"], inst["links"]
    rng = np.random.default_rng(cfg.seed)
    phases = np.exp(2j * np.pi * rng.random(lattice.n_sites))
    moved = apply_gauge_transform(links, phases)

    hol0 = plaquette_holonomy(links)
    hol1 = plaquette_holonomy(moved)
    drift = float(np.abs(np.angle(np.exp(1j * (hol1 - hol0)))).max())

    w0 = dense_spectrum(inst["op"]).values
    w1 = dense_spectrum(assemble_H(lattice, moved, inst["potential"],
                                   p)).values
    scale = float(np.abs(w0).max())
    spec_dev = float(np.abs(w1 - w0).max() / scale)

    ok = drift <= 1e-12 and spec_dev <= 1e-10
    print(f"[{'PASS' if ok else 'FAIL'}] gauge invariance  "
          f"holonomy_drift={drift:.3e}  spectrum_rel_dev={spec_dev:.3e}")
    return 0 if ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "spectrum": _cmd_spectrum,
    "model-sigma": _cmd_model_sigma,
    "localization": _cmd_localization,
    "gauge-check": _cmd_gauge_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    from .errors import MagspecError

    try:
        cfg = _load_config(args)
        # every view but gauge-check dry-runs as the plan of run
        if args.dry_run and args.command != "gauge-check":
            return _cmd_run(cfg, args)
        return _COMMANDS[args.command](cfg, args)
    except MagspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
