"""Regenerate reference.json: certified eigenvalues per workload and p.

    python3 perfbench/make_reference.py

Runs every workload once at seed 0 over its benchmark and smoke p lists and
stores, per p, the eigenvalues read back from the dump and the slice
tolerance.  Pair counts are certified by inertia and eigenvalues converge to
well within the tolerance, so one reference serves every seed.
"""

import json
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    env = run.child_env(run.thread_cap())
    out = {}
    for workload in WORKLOADS.values():
        p_list = sorted(set(workload.p_list) | set(workload.smoke_p))
        res = run.run_child(workload, p_list, 0, env, run.HARD_LIMIT)
        if "error" in res or not res["summary"].get("passed"):
            raise SystemExit(f"{workload.name}: reference run failed: "
                             f"{res.get('error', 'assertions failed')}")
        out[workload.name] = {str(e["p"]): {"tol": e["tol"],
                                            "values": e["values"]}
                              for e in res["per_p"]}
        print(f"{workload.name}: p={p_list} pairs="
              f"{[len(v['values']) for v in out[workload.name].values()]}")
    run.REFERENCE.write_text(json.dumps(
        {"generated_with": "make_reference.py, seed 0", "workloads": out},
        indent=1) + "\n")


if __name__ == "__main__":
    main()
