"""The benchmark's workloads: shipped preset configs with a fixed p list.

BENCHMARK.json declares dip_sweep and bump_edge.  torus_count stays
runnable by hand for its per-layer picture, but its run-to-run spread on a
shared two-core machine (IQR/median 0.32-0.34 over ten seeds) was above the
largest bound a declared workload may have.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # config file, relative to the checkout root
    p_list: tuple        # tensor powers the benchmark runs
    smoke_p: tuple       # tiny p list for the smoke test


# why each workload was chosen: perfbench/README.md
WORKLOADS = {w.name: w for w in (
    Workload("dip_sweep", "configs/radial_dip.cfg", (16,), (2,)),
    Workload("torus_count", "configs/torus_constant.cfg", (4, 8, 16), (2,)),
    Workload("bump_edge", "configs/potential_bump.cfg", (32, 64, 128), (4,)),
)}


def pairs_in(summary_per_p):
    """Certified in-window pairs of one per-p summary entry, any preset."""
    for key in ("n_cluster", "n_below", "n_window"):
        if key in summary_per_p:
            return int(summary_per_p[key])
    raise KeyError("per-p summary entry has no pair count")
