"""Preset benchmark: time from ``run_experiment`` to a certified spectrum.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload dip_sweep --seed 1 --seconds 40 --trace 0

Each sample runs one workload through the public pipeline (``parse_config``
then ``run_experiment``) in a fresh child process with capped BLAS/OpenMP
threads and a private output directory under ``.bench_build/``.  Every
sample is checked against ``reference.json``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of the traced sample with the median wall
time, plus the tracing overhead.  The last line of standard output is one
JSON object; a full record of the run goes to ``.bench_build/results/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracer as tracing  # noqa: E402  (after the bytecode switch)
from workloads import WORKLOADS, pairs_in  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
REFERENCE = HERE / "reference.json"
DECLARATION = ROOT / "BENCHMARK.json"

SETUP_REPS = 3          # set-up-only children per untraced run
RUN_LIMIT = 150.0       # s, never start a sample expected to end later
HARD_LIMIT = 170.0      # s, children still running then are killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class SetupError(Exception):
    """The checkout lacks what the benchmark needs."""


def thread_cap():
    """One BLAS/OpenMP thread: two spin-waiting threads on a shared
    two-core machine doubled CPU time and added outliers without lowering
    the median wall time."""
    return 1


def child_env(cap):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # no .pyc files in the checkout; the package is compiled on every start
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(cap)
    return env


def run_child(workload, p_list, seed, env, timeout, trace=False,
              setup_only=False):
    """One fresh child process; returns its result dict or {"error": ...}."""
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    cmd = [sys.executable, str(HERE / "child.py"),
           "--config", str(ROOT / workload.config),
           "--p", ",".join(map(str, p_list)), "--seed", str(seed),
           "--out", str(work / "out"), "--result", str(work / "result.json")]
    if trace:
        cmd += ["--trace", str(work / "trace.json")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=work, timeout=timeout,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return {"error": f"child killed after {timeout:.0f} s"}
        duration = time.monotonic() - t_spawn
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"child exited {proc.returncode}: {tail[0]}"}
        res = json.loads((work / "result.json").read_text())
        res["setup_s"] = res.pop("t_ready") - t_spawn
        res["duration_s"] = duration
        if trace:
            res["trace"] = json.loads((work / "trace.json").read_text())
        return res
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_sample(res, reference, p_list):
    """Problems with one sample's outputs; empty when it is correct."""
    if "error" in res:
        return [res["error"]]
    problems = []
    summary = res["summary"]
    if "error" in summary:
        problems.append(f"pipeline error: {summary['error']}")
    failed = [a["name"] for a in summary.get("assertions", [])
              if not a["passed"]]
    if failed or not summary.get("passed"):
        problems.append(f"assertions failed: {failed}")
    per_p = summary.get("results", {}).get("per_p", [])
    if [e["p"] for e in per_p] != list(p_list):
        problems.append("summary does not cover every p")
    for entry in per_p:
        if entry["certificate"] != "certified":
            problems.append(f"p={entry['p']}: certificate "
                            f"{entry['certificate']}")
    for entry in res["per_p"]:
        p = entry["p"]
        ref = reference.get(str(p))
        if ref is None:
            problems.append(f"p={p}: no reference")
        elif "values" not in entry:
            problems.append(f"p={p}: no eigenvector dump")
        elif len(entry["values"]) != len(ref["values"]):
            problems.append(f"p={p}: {len(entry['values'])} pairs, "
                            f"reference has {len(ref['values'])}")
        else:
            dev = max((abs(a - b) for a, b in
                       zip(entry["values"], ref["values"])), default=0.0)
            if dev > ref["tol"]:
                problems.append(f"p={p}: eigenvalue off reference by "
                                f"{dev:.3g} > tol {ref['tol']:.3g}")
    return problems


def sample_pairs(res):
    per_p = res["summary"].get("results", {}).get("per_p", [])
    return sum(pairs_in(e) for e in per_p)


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def provenance(samples, cap, traced=None):
    timed = [s for s in samples if "per_p" in s]
    per_p = [{k: e[k] for k in ("p", "N", "nnz")} for e in timed[0]["per_p"]] \
        if timed else []
    if traced is not None:
        extra = {e["p"]: e for e in traced["trace"]["per_p"]}
        for e in per_p:
            e.update({k: extra.get(e["p"], {}).get(k) for k in ("fill", "k")})
    versions = timed[0]["versions"] if timed else {}
    return {"git_rev": git_revision(), **versions, "thread_cap": cap,
            "nproc": len(os.sched_getaffinity(0)), "per_p": per_p}


def collect(workload, p_list, seed, seconds, trace, env):
    """Run samples until the next one would end after ``seconds``."""
    start = time.monotonic()

    def child(**kwargs):
        left = HARD_LIMIT - (time.monotonic() - start)
        return run_child(workload, p_list, seed, env, max(left, 1.0), **kwargs)

    setups, plain, traced = [], [], []
    if not trace:
        for _ in range(SETUP_REPS):
            res = child(setup_only=True)
            if "setup_s" in res:
                setups.append(res["setup_s"])
    durations = []
    while True:
        t0 = time.monotonic()
        plain.append(child())
        if trace:
            traced.append(child(trace=True))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        step = statistics.median(durations)
        if elapsed + step > min(seconds, RUN_LIMIT):
            break
    setups += [s["setup_s"] for s in plain if "setup_s" in s]
    return setups, plain, traced


def median_sample(samples):
    """The sample with the (lower) median wall time."""
    ranked = sorted(samples, key=lambda s: s["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


def end_to_end(plain, setups):
    timed = [s for s in plain if "wall_s" in s]
    walls = [s["wall_s"] for s in timed]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "pairs_per_s": statistics.median(sample_pairs(s) / s["wall_s"]
                                         for s in timed),
    }
    lines = [
        f"  wall_s       {metrics['wall_s']:10.4f} s    median of "
        f"{len(walls)}; max {max(walls):.4f} s",
        f"  setup_s      {metrics['setup_s']:10.4f} s    median of "
        f"{len(setups)} set-ups",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:10.1f} MB",
        f"  pairs_per_s  {metrics['pairs_per_s']:10.3f} 1/s  "
        f"{sample_pairs(timed[0])} certified pairs per run",
    ]
    return metrics, lines


def per_layer(plain, traced):
    rep = median_sample([s for s in traced if "wall_s" in s])
    metrics = tracing.layer_metrics(rep["trace"], rep["wall_s"])
    metrics["experiments.bytes_written"] = rep["bytes_written"]
    metrics["trace.overhead_s"] = (
        statistics.median(s["wall_s"] for s in traced if "wall_s" in s)
        - statistics.median(s["wall_s"] for s in plain if "wall_s" in s))
    wall = metrics["trace.wall_s"]
    lines = [f"  traced wall_s {wall:.4f} s, overhead "
             f"{metrics['trace.overhead_s']:+.4f} s; self time by bucket:"]
    for key in tracing.SELF_BUCKETS + ("trace.unattributed_s",):
        lines.append(f"    {key:24s} {metrics[key]:9.4f} s "
                     f"{100 * metrics[key] / wall:5.1f}%")
    lines.append("  inclusive time by function group:")
    for key in tracing.INCLUSIVE:
        lines.append(f"    {key:24s} {metrics[key]:9.4f} s "
                     f"{100 * metrics[key] / wall:5.1f}%")
    return metrics, rep, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="magspec preset benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--p", help="comma-separated p list override "
                                    "(the smoke test uses tiny ones)")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    for need in (ROOT / "src" / "magspec" / "__init__.py",
                 ROOT / workload.config, args.reference, DECLARATION):
        if not need.exists():
            raise SetupError(f"{need} is missing; run the benchmark from a "
                             f"full checkout of the repository")
    p_list = [int(s) for s in args.p.split(",")] if args.p \
        else list(workload.p_list)
    reference = json.loads(args.reference.read_text())["workloads"]
    reference = reference.get(workload.name, {})
    seed = args.seed % 2 ** 32
    cap = thread_cap()
    env = child_env(cap)

    setups, plain, traced = collect(workload, p_list, seed, args.seconds,
                                    bool(args.trace), env)
    samples = plain + traced
    problems = [check_sample(s, reference, p_list) for s in samples]
    failed = sum(bool(p) for p in problems)
    timed_plain = [s for s in plain if "wall_s" in s]
    timed_traced = [s for s in traced if "wall_s" in s]
    if not timed_plain or (args.trace and not timed_traced):
        for issue in problems:
            print(f"sample failed: {issue}", file=sys.stderr)
        return 1

    print(f"workload {workload.name}  p={p_list}  seed={seed}  "
          f"threads={cap}  trace={args.trace}")
    if args.trace:
        metrics, rep, lines = per_layer(plain, traced)
        prov = provenance(samples, cap, traced=rep)
    else:
        metrics, lines = end_to_end(plain, setups)
        prov = provenance(samples, cap)
    lines.append(f"  failed_frac  {failed / len(samples):10.4f}      "
                 f"{failed} of {len(samples)} samples")
    print("\n".join(lines))
    for i, issue in enumerate(problems):
        if issue:
            print(f"  sample {i} incorrect: {'; '.join(issue)}")
    print("provenance " + json.dumps(prov))

    record = {"workload": workload.name, "p_list": p_list, "seed": seed,
              "seconds": args.seconds, "trace": args.trace,
              "setups_s": setups,
              "walls_s": [s.get("wall_s") for s in plain],
              "traced_walls_s": [s.get("wall_s") for s in traced],
              "problems": problems, "metrics": metrics, "provenance": prov}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    declared = json.loads(DECLARATION.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared[section]}}))
    return 0


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the child
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
