"""In-memory span tracer installed around magspec's public functions.

The tracer is installed from outside the package: every public function of
the layer modules is replaced, in every magspec module that holds a
reference to it, by a wrapper that records a span.  scipy's ``eigsh`` and
``splu`` are wrapped the same way, the latter both where magspec calls it
and where scipy's ARPACK module and ``factorized`` call it; the factor it
returns is handed out behind a counting proxy, so triangular solves are
spans too.  Spans live in a list until ``dump`` writes them out.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``run`` tags the phase the span
belongs to (``setup`` or ``run``).
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("config", "lattice", "fields", "operators", "model", "solvers",
          "analysis", "experiments")

# private report writers of the experiments layer, traced as its I/O
IO_FUNCTIONS = {"solvers.write_slice", "experiments._write_csv",
                "experiments._dump_json"}

EIGSH = "scipy.eigsh"
SPLU = "scipy.splu"
SOLVE = "scipy.solve"

_SPLU_HOLDERS = ("scipy.sparse.linalg", "scipy.sparse.linalg._dsolve.linsolve",
                 "scipy.sparse.linalg._eigen.arpack.arpack")


class Tracer:
    """Span stack plus the counters the pipeline cannot report itself."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = "setup"
        self.p = None
        self.per_p = {}
        self.certificates = []
        self.factor_nnz = []
        self.solve_rhs = 0
        self.k_max = 0

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(self, args, kwargs, out)
            return out
        return traced

    def entry(self):
        return self.per_p.setdefault(self.p, {"p": self.p})

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "per_p": list(self.per_p.values()),
                       "certificates": self.certificates,
                       "factor_nnz": self.factor_nnz,
                       "solve_rhs": self.solve_rhs, "k_max": self.k_max}, fh)


class CountingLU:
    """SuperLU factor whose solves are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        tracer = self._tracer
        tracer.solve_rhs += 1 if rhs.ndim == 1 else rhs.shape[1]
        tracer._open(SOLVE)
        try:
            return self._lu.solve(rhs, trans)
        finally:
            tracer._close()

    def __getattr__(self, name):
        return getattr(self._lu, name)


# ----------------------------------------------------------------------
# hooks that read sizes off arguments and results


def _set_p(tracer, args, kwargs):
    tracer.p = int(args[1] if len(args) > 1 else kwargs["p"])


def _after_assemble(tracer, args, kwargs, op):
    entry = tracer.entry()
    entry["N"] = int(op.n)
    entry["nnz"] = int(op.matrix.nnz)


def _after_window(tracer, args, kwargs, sl):
    tracer.certificates.append(sl.certificate)


def _before_eigsh(tracer, args, kwargs):
    k = int(kwargs.get("k", args[1] if len(args) > 1 else 6))
    tracer.k_max = max(tracer.k_max, k)
    tracer.entry()["k"] = k


def _after_splu(tracer, args, kwargs, lu):
    nnz = int(lu.nnz)
    tracer.factor_nnz.append(nnz)
    entry = tracer.entry()
    entry["fill"] = max(entry.get("fill", 0), nnz)


_HOOKS = {
    "experiments.build_instance": (_set_p, None),
    "operators.assemble_H": (None, _after_assemble),
    "solvers.window_eigs": (None, _after_window),
}


def _replace_everywhere(original, replacement, modules):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install():
    """Wrap every public layer function and scipy's eigsh/splu; return the tracer."""
    tracer = Tracer()
    layer_modules = [importlib.import_module(f"magspec.{layer}")
                     for layer in LAYERS]
    holders = [mod for name, mod in sys.modules.items()
               if name == "magspec" or name.startswith("magspec.")]

    for layer, mod in zip(LAYERS, layer_modules):
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            public = not attr.startswith("_") or name in IO_FUNCTIONS
            if not (public and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                continue
            before, after = _HOOKS.get(name, (None, None))
            _replace_everywhere(fn, tracer.wrap(fn, name, before, after),
                                holders)

    import scipy.sparse.linalg as spla
    _replace_everywhere(spla.eigsh,
                        tracer.wrap(spla.eigsh, EIGSH, before=_before_eigsh),
                        holders + [spla])

    splu = spla.splu
    factor = tracer.wrap(splu, SPLU, after=_after_splu)

    @functools.wraps(splu)
    def counting_splu(*args, **kwargs):
        return CountingLU(factor(*args, **kwargs), tracer)

    _replace_everywhere(splu, counting_splu,
                        holders + [importlib.import_module(name)
                                   for name in _SPLU_HOLDERS])
    return tracer


# ----------------------------------------------------------------------
# per-layer metrics from a dumped trace

def _bucket(name):
    """Self-time bucket of a span; the buckets partition the run's wall time."""
    if name in IO_FUNCTIONS:
        return "experiments.io_s"
    if name == EIGSH:
        return "solvers.arpack_self_s"
    if name == SPLU:
        return "solvers.factor_s"
    if name == SOLVE:
        return "solvers.solve_s"
    return name.split(".", 1)[0] + ".self_s"


SELF_BUCKETS = tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "solvers.arpack_self_s", "solvers.factor_s", "solvers.solve_s",
    "experiments.io_s")

# inclusive span time summed over the named functions
INCLUSIVE = {
    "solvers.eigsh_s": (EIGSH,),
    "solvers.count_below_s": ("solvers.count_below",),
    "solvers.window_eigs_s": ("solvers.window_eigs",),
    "analysis.localization_s": ("analysis.localization_report",),
    "analysis.trials_s": ("analysis.bandlimited_trial",
                          "analysis.norm_lower_bound_trial"),
    "analysis.filter_s": ("analysis.boundary_filter",),
    "analysis.cluster_s": ("analysis.cluster_assign",),
    "operators.assemble_s": ("operators.assemble_H",),
    "lattice.build_s": ("lattice.build_lattice",),
    "lattice.distance_s": ("lattice.distance_to_set",),
    "fields.links_s": ("fields.edge_integrals", "fields.gauge_links"),
    "model.sigma_s": ("model.sigma_region",),
    "model.interface_s": ("model.interface_set",),
}

CALLS = {
    "solvers.eigsh_calls": EIGSH,
    "solvers.count_below_calls": "solvers.count_below",
    "solvers.factorizations": SPLU,
    "solvers.solves": SOLVE,
}


def layer_metrics(trace, wall_s):
    """Per-layer metrics of one traced pipeline run.

    Self times cover only spans of the ``run`` phase, so together with
    ``trace.unattributed_s`` they add up to ``wall_s``; ``config.plan_s``
    also counts the planning done during set-up.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, run in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {key: 0.0 for key in SELF_BUCKETS}
    out.update({key: 0.0 for key in INCLUSIVE})
    out.update({key: 0 for key in CALLS})
    out["config.plan_s"] = 0.0
    owner = {name: key for key, names in INCLUSIVE.items() for name in names}
    counted = {name: key for key, name in CALLS.items()}
    for i, (name, t0, t1, parent, run) in enumerate(spans):
        if name == "config.plan_geometry":
            out["config.plan_s"] += t1 - t0
        if run != "run":
            continue
        out[_bucket(name)] += t1 - t0 - child_time[i]
        if name in owner:
            out[owner[name]] += t1 - t0
        if name in counted:
            out[counted[name]] += 1
    out["trace.unattributed_s"] = wall_s - sum(out[k] for k in SELF_BUCKETS)
    out["trace.wall_s"] = wall_s
    certs = trace["certificates"]
    out["solvers.certified_frac"] = (
        sum(c == "certified" for c in certs) / len(certs) if certs else 1.0)
    out["solvers.k_max"] = trace["k_max"]
    out["solvers.solve_rhs"] = trace["solve_rhs"]
    out["solvers.fill_nnz"] = max(trace["factor_nnz"], default=0)
    out["operators.nnz"] = sum(e.get("nnz", 0) for e in trace["per_p"])
    return out
