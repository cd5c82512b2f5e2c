"""One benchmark sample: set up, run the pipeline once, report as JSON.

Run in a fresh interpreter by ``run.py``, which sets the thread caps and
``PYTHONPATH`` in the environment before this process starts.  The result
file holds the monotonic time at which the pipeline was first called (the
parent subtracts its spawn time to get the set-up time), the wall time of
``run_experiment``, peak RSS, the summary, and per p the eigenvalues read
back from the dumps, N, nnz and the slice tolerance.  Everything after the
timed call is bookkeeping and is not timed.
"""

import argparse
import json
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--p", required=True, help="comma-separated p list")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="pipeline output dir")
    parser.add_argument("--result", required=True, help="result JSON path")
    parser.add_argument("--trace", help="write spans to this path")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the pipeline would be called")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()
    from magspec.config import parse_config, validate_config
    from magspec.experiments import build_instance, run_experiment
    from magspec.solvers import default_tol, read_slice

    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    cfg = replace(cfg, p_list=[int(s) for s in args.p.split(",")],
                  seed=args.seed, out_dir=args.out)
    validate_config(cfg)
    result = {"t_ready": time.monotonic()}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    if tracer is not None:
        tracer.run = "run"
    t0 = time.perf_counter()
    run_experiment(cfg)
    result["wall_s"] = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(args.trace)

    out = Path(args.out)
    result["summary"] = json.loads((out / "summary.json").read_text())
    result["bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
    per_p = []
    for p in cfg.p_list:
        op = build_instance(cfg, p)["op"]
        entry = {"p": p, "N": int(op.n), "nnz": int(op.matrix.nnz),
                 "tol": cfg.tol if cfg.tol is not None else default_tol(op)}
        dump = out / f"eigs_p{p}.bsev"
        if dump.exists():
            entry["values"] = read_slice(dump).values.tolist()
        per_p.append(entry)
    result["per_p"] = per_p

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}"}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
