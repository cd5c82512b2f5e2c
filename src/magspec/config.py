"""Experiment configuration: sectioned key=value files, presets, sizing rules.

Config files are UTF-8 text with optional [section] headers (the headers are
organizational; keys form one flat namespace), ``key = value`` lines, and
``#`` comments.  Each rule is stated once:

- ``_KEYS`` lists every key with its value parser; unknown keys are
  rejected by name, and syntax and value errors carry line numbers.  A
  float that is not finite is refused, naming its key.
- Each preset is one ``PRESETS`` record: its values, its solve window and
  level-union cutoff (``limits``, checked before any build) and the keys
  it reads.  A key the run never reads is refused by name: the preset's
  ``unread``, and a field or ``v_*`` key counts only for the field preset
  or potential kind that reads it.
- A config is the preset's values, then the file's keys, then the CLI's
  overrides of keys, layered over the defaults of ``ExperimentConfig``, of
  the ``FieldSpec`` constructors and of ``PotentialSpec``.  A preset names
  its field and potential kind, so the field and ``v_*`` keys override its
  parameters.
- Sizing finds the interface radius with ``model.levels_in_window``, the
  level test that builds the lattice interface set.

Three experiments ship as presets:

    torus_constant   flat torus, constant field with integer total flux;
                     exact lowest-cluster multiplicity counts
    radial_dip       Dirichlet plane, field dip 1 - 0.3 exp(-|x|^2);
                     interval clustering and its rate across p
    potential_bump   Dirichlet plane, unit field plus a Gaussian potential
                     bump; annular interface with gap edge states

Lattice sizes follow the resolution rule h sqrt(p b_max) <= 0.25 (standard)
or 0.1 (high-accuracy), so the magnetic length spans at least 4 (resp. 10)
cells at every requested p; plane domains follow the truncation rule
half-width >= r_K + 6 / sqrt(p b_min).  A potential from a file has no
radial profile, so like a non-radial field it needs an explicit extent.
"""

import copy
import math
import re
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import ConfigError
from .fields import MAX_RANK, FieldSpec, gaussian
from .lattice import RECTANGLE, TORUS, build_lattice
from .model import levels_in_window

RESOLUTION_RULES = {"standard": 0.25, "high-accuracy": 0.1}

TWO_PI = 2 * math.pi


@dataclass
class PotentialSpec:
    kind: str = "none"            # none | bump | const | file
    height: float = 1.0
    width: float = 1.0
    matrix: tuple | None = None   # row-major entries for "const"
    rank: int = 1
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KEYS:
            raise ConfigError(f"unknown potential kind {self.kind!r}")


@dataclass
class ExperimentConfig:
    experiment: str
    field_spec: FieldSpec
    potential: PotentialSpec
    lattice_kind: str
    p_list: list
    window: tuple | None
    cutoff: float | None = None
    resolution: str = "standard"
    extent: float | None = None   # fixed side length; None = auto per p
    nx: int | None = None         # fixed grid; None = resolution rule
    tol: float | None = None
    max_sites: int = 2_000_000
    seed: int = 0
    out_dir: str = "magspec_out"
    trials_p: list = field(default_factory=list)  # p of the norm bound
    c1: int = 1                   # torus Chern number


def sigma_ceiling(window_top, b_max):
    """Union cutoff: the window plus one full level spacing of headroom."""
    return window_top + 2.0 * b_max


def _torus_limits(cfg):
    """The lowest Landau cluster; the configured window is not used.  The
    union cutoff is ``cutoff``, or one level spacing above the window."""
    bval = cfg.field_spec.max_intensity()
    window = (0.6 * bval, 1.4 * bval)
    cutoff = cfg.cutoff if cfg.cutoff is not None \
        else sigma_ceiling(window[1], bval)
    return window, cutoff


def _dip_limits(cfg):
    """All pairs below ``cutoff``, union one spacing above."""
    return (None, cfg.cutoff), sigma_ceiling(cfg.cutoff,
                                             cfg.field_spec.max_intensity())


# the solve window's margin inside each end of the configured gap window
WINDOW_MARGIN = 0.05


def _bump_limits(cfg):
    """The configured gap window shrunk by ``WINDOW_MARGIN`` at each end;
    the union cut at ``cutoff``."""
    lo, hi = cfg.window
    return (lo + WINDOW_MARGIN, hi - WINDOW_MARGIN), cfg.cutoff


@dataclass(frozen=True)
class Preset:
    """One experiment: ``values`` by config key (lattice_kind by its field);
    a key not named keeps its ExperimentConfig, FieldSpec or PotentialSpec
    default."""

    values: dict
    limits: Callable           # cfg -> (solve window, level-union cutoff)
    interface: bool = False    # builds the interface set of cfg.window
    edge_states: bool = False  # localization tables and the norm bound

    @property
    def unread(self):
        """Settings the run never reads: ``window`` without an interface
        set, ``trials_p`` without the norm bound, ``c1`` off the torus."""
        return {key for key, read in (
            ("window", self.interface), ("trials_p", self.edge_states),
            ("c1", self.values["lattice_kind"] == TORUS)) if not read}


PRESETS = {
    "torus_constant": Preset(dict(
        lattice_kind=TORUS, field="constant", potential="none",
        p=[4, 8, 16], window=None, extent=TWO_PI,
        resolution="high-accuracy"), _torus_limits),
    "radial_dip": Preset(dict(
        lattice_kind=RECTANGLE, field="radial_dip", potential="none",
        p=[8, 16, 32, 64], window=(1.6, 2.4), cutoff=2.0,
        resolution="high-accuracy"), _dip_limits, interface=True),
    "potential_bump": Preset(dict(
        lattice_kind=RECTANGLE, field="constant", potential="bump",
        p=[16, 32, 64], window=(1.3, 1.7), cutoff=4.0, trials_p=[8, 16, 32]),
        _bump_limits, interface=True, edge_states=True),
}


def _items(value):
    body = value.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    return [s for s in re.split(r"[,\s]+", body.strip()) if s]


def _ints(value):
    return [int(s) for s in _items(value)]


def _float(value):
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"must be finite, got {value.strip()}")
    return x


def _floats(value):
    return [_float(s) for s in _items(value)]


def _window(value):
    vals = _floats(value)
    if len(vals) != 2:
        raise ConfigError("needs two values")
    return tuple(vals)


# every config key with its value parser.  The field keys go to
# _field_from, "potential" and the v_* keys to _potential_from, and the
# others set the ExperimentConfig field of their name (see _RENAMED).
_KEYS = {
    "experiment": str, "p": _ints, "seed": int, "out": str,
    "resolution": str, "nx": int, "extent": _float, "cutoff": _float,
    "window": _window, "tol": _float, "max_sites": int, "trials_p": _ints,
    "c1": int,
    "field": str, "b": _float, "b_inf": _float, "depth": _float,
    "height": _float, "width": _float, "b_minus": _float, "b_plus": _float,
    "potential": str, "v_height": _float, "v_width": _float,
    "v_matrix": lambda value: tuple(_floats(value)), "v_rank": int,
    "v_file": str,
}

_RENAMED = {"p": "p_list", "out": "out_dir"}

# ExperimentConfig fields set straight from a key or a preset value
_SETTINGS = {f.name for f in fields(ExperimentConfig)} \
    - {"field_spec", "potential"}

# field preset -> the keys its FieldSpec constructor reads; a key the
# file does not give keeps the constructor's default
_FIELD_KEYS = {
    "constant": ("b",),
    "radial_dip": ("b_inf", "depth", "width"),
    "radial_bump": ("b_inf", "height", "width"),
    "transition": ("b_minus", "b_plus", "width"),
}

# potential kind -> the keys it reads, each with the PotentialSpec field
# it sets
_POTENTIAL_KEYS = {
    "none": {},
    "bump": {"v_height": "height", "v_width": "width", "v_rank": "rank"},
    "const": {"v_matrix": "matrix", "v_rank": "rank"},
    "file": {"v_file": "path"},
}


def parse_config(text, overrides=None):
    """Parse and validate a config file body into an ExperimentConfig;
    ``overrides`` (key -> value in the file's syntax, from the CLI flag
    ``--key``) replace the file's values, and their errors name the flag."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            continue  # sections are organizational only
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got "
                              f"{line.strip()!r}")
        key, value = (s.strip() for s in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = _parse(key, value, f"line {lineno}")
    for key, value in (overrides or {}).items():
        raw[key] = _parse(key, value, f"--{key}")
    return build_config(raw)


def _parse(key, value, where):
    """``value`` by the parser of ``key``; an error names ``where``."""
    try:
        return _KEYS[key](value)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {key} {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {key} = {value!r}") from exc


def build_config(raw):
    """Layer the preset's values, then the raw keys, over the defaults;
    then validate the combined settings."""
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    name = raw["experiment"]
    if name not in PRESETS:
        raise ConfigError(f"unknown experiment {name!r}; choose from "
                          f"{sorted(PRESETS)}")
    keys = copy.deepcopy({**PRESETS[name].values, **raw})
    if keys["lattice_kind"] == TORUS:
        if "field" in raw or "b" in raw:
            raise ConfigError("the torus field is constant with b = c1 / "
                              "2 pi; set c1, not field or b")
        if "extent" in raw:
            raise ConfigError("b = c1 / 2 pi closes into a bundle only on "
                              "the 2 pi x 2 pi torus; do not set extent")
        # c1 flux quanta through the preset's 2 pi x 2 pi torus
        keys["b"] = keys.get("c1", ExperimentConfig.c1) / TWO_PI
    settings = {_RENAMED.get(k, k): v for k, v in keys.items()}
    cfg = ExperimentConfig(
        field_spec=_field_from(keys), potential=_potential_from(keys),
        **{k: v for k, v in settings.items() if k in _SETTINGS})
    field, potential = keys["field"], keys["potential"]
    unread = PRESETS[name].unread.union(*_FIELD_KEYS.values(),
                                       *_POTENTIAL_KEYS.values())
    unread -= {*_FIELD_KEYS[field], *_POTENTIAL_KEYS[potential]}
    if refused := sorted(unread.intersection(raw)):
        raise ConfigError(f"{name} with field {field} and potential "
                          f"{potential} does not read {', '.join(refused)}")
    validate_config(cfg)
    return cfg


def _field_from(keys):
    kind = keys["field"]
    if kind not in _FIELD_KEYS:
        raise ConfigError(f"unknown field preset {kind!r}")
    return getattr(FieldSpec, kind)(
        **{key: keys[key] for key in _FIELD_KEYS[kind] if key in keys})


def _potential_from(keys):
    kind = keys["potential"]
    pot = PotentialSpec(kind=kind, **{
        name: keys[key] for key, name in _POTENTIAL_KEYS.get(kind, {}).items()
        if key in keys})
    if kind == "const":
        if pot.matrix is None:
            raise ConfigError("potential = const requires v_matrix")
        if len(pot.matrix) != pot.rank * pot.rank:
            raise ConfigError(f"v_matrix needs rank^2 = {pot.rank * pot.rank} "
                              f"entries")
    if kind == "file" and pot.path is None:
        raise ConfigError("potential = file requires v_file")
    return pot


def run_ps(cfg):
    """Every p the run builds: the p list and the norm bound's ``trials_p``,
    ascending."""
    return sorted({*cfg.p_list, *cfg.trials_p})


def validate_config(cfg):
    if not cfg.p_list:
        raise ConfigError("p list must be non-empty")
    for key, ps in (("p", cfg.p_list), ("trials_p", cfg.trials_p)):
        if any(p < 1 for p in ps):
            raise ConfigError(f"all {key} must be >= 1")
        if list(ps) != sorted(set(ps)):
            raise ConfigError(f"{key} list must be strictly ascending")
    # NaN fails these as well as zero and negative values
    if cfg.tol is not None and not cfg.tol > 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    if not cfg.potential.width > 0:
        raise ConfigError(f"v_width must be positive, got "
                          f"{cfg.potential.width}")
    if not 1 <= cfg.potential.rank <= MAX_RANK:
        raise ConfigError(f"v_rank must be in 1..{MAX_RANK}, got "
                          f"{cfg.potential.rank}")
    if cfg.window is not None and not cfg.window[0] < cfg.window[1]:
        raise ConfigError(f"window {cfg.window} is empty")
    preset = PRESETS[cfg.experiment]
    (lo, hi), cutoff = preset.limits(cfg)
    if lo is not None and not lo < hi:
        raise ConfigError(f"window {cfg.window} leaves {cfg.experiment} the "
                          f"empty solve window ({lo}, {hi})")
    # the union reaches the top of every window the run reads: the solve
    # window, and the configured one where it builds an interface set
    top = max(hi, cfg.window[1]) if preset.interface else hi
    if top > cutoff:
        raise ConfigError(f"window top {top} exceeds the level-union cutoff "
                          f"{cutoff}")
    if cfg.resolution not in RESOLUTION_RULES:
        raise ConfigError(f"resolution must be one of "
                          f"{sorted(RESOLUTION_RULES)}")
    # the resolution rule must be satisfiable at the largest p built
    plan = plan_geometry(cfg, run_ps(cfg)[-1])
    if plan["n_sites"] > cfg.max_sites:
        raise ConfigError(
            f"resolution rule needs nx = {plan['nx']} "
            f"({plan['n_sites']} sites) at p = {plan['p']}, above "
            f"max_sites = {cfg.max_sites}; raise max_sites or reduce p")


def interface_radius(cfg):
    """Outermost radius where some local level meets the window (radial data).

    Applies the interface set's level test (``model.levels_in_window``) to
    the field and the potential branches on a fine 1D radial grid; 0 when
    the window set is empty.  A hit at the ray's last sample means the set
    has no outer radius the ray can see, and the config is refused.
    """
    if cfg.window is None:
        return 0.0
    spec, pot = cfg.field_spec, cfg.potential
    if not spec.is_radial:
        raise ConfigError(f"auto-sizing needs a radial field; give an "
                          f"explicit extent for preset {spec.preset}")
    if pot.kind == "file":
        raise ConfigError("auto-sizing needs a radial potential; give an "
                          "explicit extent for potential = file")
    width = spec.radial_profile()[2]
    r_max = 8.0 * max(width, pot.width, 1.0)
    r = np.linspace(0.0, r_max, 4001)
    b = spec.intensity(r, np.zeros_like(r))
    v = np.zeros((r.size, 1))
    if pot.kind == "bump":
        v[:, 0] = pot.height * gaussian(r, 0.0, pot.width)
    elif pot.kind == "const":
        m = np.reshape(pot.matrix, (pot.rank, pot.rank))
        v = np.broadcast_to(np.linalg.eigvalsh(m), (r.size, pot.rank))
    hit = levels_in_window(b, v, cfg.window)
    if hit[-1]:
        raise ConfigError(f"window {cfg.window} meets a local level at the "
                          f"sizing ray's end r = {r_max:g}: the window is not "
                          f"in a gap of the far-field levels")
    return float(r[hit].max()) if hit.any() else 0.0


def plan_geometry(cfg, p):
    """Lattice parameters for one sweep entry under the sizing rules."""
    rule = RESOLUTION_RULES[cfg.resolution]
    b_max = cfg.field_spec.max_intensity()
    b_min = cfg.field_spec.min_intensity()
    extent = cfg.extent
    if extent is None:
        extent = 2.0 * (interface_radius(cfg) + 6.0 / math.sqrt(p * b_min))
    nx = cfg.nx if cfg.nx is not None \
        else max(int(math.ceil(extent * math.sqrt(p * b_max) / rule)), 2)
    n_sites = build_lattice(cfg.lattice_kind, extent, nx).n_sites
    return dict(kind=cfg.lattice_kind, extent=extent, nx=nx,
                h=extent / nx, n_sites=n_sites, p=p)
