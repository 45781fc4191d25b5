"""Convergence, tail, and transfer studies over expanding boxes, plus reports.

This module turns the library's building blocks into the four numerical
programs that probe how well the periodic box Q_alpha = (-alpha, alpha)^3
stands in for the whole space, all driven by one declarative JSON config:

* ``inversion`` -- invert one compactly supported vorticity on every box,
  extend each velocity to the reference box Q_beta, and watch the L^2/H^1
  gap to the reference inversion close as alpha grows;
* ``solution``  -- evolve the same initial data on every box and measure
  discrete L^2(0,T;H^1) and L^4(0,T;H^1.5) errors against the reference
  trajectory, plus sup-in-time tail masses;
* ``tail``      -- audit the a-priori tail bound
  tail(u(t), R) <= tail(u0, r) + Gamma/(R - r), with Gamma assembled from
  measured quantities of the run itself;
* ``transfer``  -- run the reference box to T* and sweep ascending alphas
  for the first alpha* from which every larger box keeps its H^1 norm
  squared below twice the reference bound M.

"R^3" is operationalised as the largest box Q_beta with beta >= 2*max(alpha);
all boxes share one lattice spacing h = 2*alpha_1/N_1 so fields nest exactly.

Config schema (JSON object; unknown keys anywhere are rejected, numbers
must be finite, and a key or section the study kind does not take is an
error)::

    {
      "kind": "inversion" | "solution" | "tail" | "transfer",
      "alphas": [1, 2, 4],            # strictly ascending box half-widths
      "base_n": 32,                   # resolution on the smallest box
      "beta": 8,                      # optional; default 2*max(alphas)
      "initial_data": {
        "family": "bump" | "trefoil" | "zero",
        # bump:    support_radius (req), amplitude, direction, support_tol
        # trefoil: major_radius, tube_radius, strength (req),
        #          resolution, div_tol, support_tol
        # zero:    support_radius (optional)
      },
      "solver": {                     # solution/tail/transfer only
        "dt": 1e-3, "t_end": 0.05,    # transfer derives t_end; omit it there
        "snapshot_every": 10,         # steps between stored snapshots
        "audit_every": 1              # steps between diagnostic audits
      },
      "norms": ["L2", "H1"],          # inversion/solution error columns
      "tail": {"inner_radius": 1.0, "radii": [2, 2.5, 3]},   # tail only
      "transfer": {"t_star_factor": 3.0},                    # transfer only
      "checks": {"ratio_bound": 0.5, "support_margin": <2h>},
      "allow_beyond_guaranteed": false,   # solution only
      "out_dir": "reports"            # optional; CLI --out overrides
    }

The per-key types, defaults, ranges and study kinds live in one table
(``_CONFIG_KEYS`` and the section tables it names).

Reports are CSV files with stable schemas plus ``checks.csv`` (one
machine-readable pass/fail record per assertion) and ``metadata.json``
(normalised config echo, code version, measured constants, wall time).
On the single-threaded reference path two runs of the same config produce
byte-identical CSVs; only the wall time in ``metadata.json`` may differ.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BlowUpError,
    ConfigurationError,
    DomainTooSmallError,
    StepSizeError,
    UsageError,
)
from .extension import extend_field, make_cutoff
from .initial_data import BumpSpec, TrefoilSpec, bump_vorticity, trefoil_vorticity
from .norms import (
    grad_l2_sq,
    inequality_report,
    l2_norm,
    lebesgue_norm,
    sobolev_norm,
    tail_mass,
)
from .solver import SolverConfig, Trajectory, existence_time, nse_solve, pressure_solve
from .spectral_core import BoxGrid, Field
from .vorticity import (
    VorticityField,
    curl_identity_report,
    curl_inv_periodic,
)

__all__ = [
    "CheckRecord",
    "StudyConfig",
    "StudyResult",
    "emit_report",
    "load_config",
    "measure_constants",
    "parse_config",
    "run_inversion_study",
    "run_snapshot_audit",
    "run_solution_study",
    "run_study",
    "run_tail_study",
    "run_transfer_study",
]

STUDY_KINDS = ("inversion", "solution", "tail", "transfer")

#: Relative slack for curl-identity and consistency checks inside studies.
_IDENTITY_TOL = 1e-10

#: sup-in-time tail columns of a solution study are taken at these fractions
#: of the smallest box half-width (recorded per run in metadata).
_SOLUTION_TAIL_FRACTIONS = (0.5, 0.75)


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class StudyConfig:
    """A fully validated, normalised study description.

    Instances come from :func:`parse_config`/:func:`load_config`;
    :meth:`to_dict` returns a JSON-able echo that parses back to an equal
    config, which is what ``metadata.json`` stores for reruns.
    """

    kind: str
    alphas: tuple[float, ...]
    base_n: int
    beta: float
    ns: tuple[int, ...]
    beta_n: int
    h: float
    initial_data: dict
    solver: dict | None
    norms: tuple[str, ...]
    tail_inner: float | None
    tail_radii: tuple[float, ...]
    t_star_factor: float | None
    ratio_bound: float
    support_margin: float
    allow_beyond_guaranteed: bool
    out_dir: str | None

    #: The normalised config, defaults included, that the fields were read
    #: from; keys a study kind does not take are absent.
    echo: dict = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        """Normalised config echo; ``parse_config(cfg.to_dict()) == cfg``."""
        return json.loads(json.dumps(self.echo))

    @property
    def support_radius(self) -> float:
        """Outer radius of the configured vorticity support."""
        data = self.initial_data
        if data["family"] == "trefoil":
            return data["major_radius"] + 3.0 * data["tube_radius"]
        return data["support_radius"]


def _norm_function(name: str):
    """Map a norm name like "L2", "H1", "H1.5" to a Field -> float callable,
    or None when the name is not of the form 'L<p>' (p >= 1) / 'H<s>' (s >= 0)."""
    try:
        kind, value = name[0], float(name[1:])
    except (IndexError, ValueError):
        return None
    if kind == "L" and value == 2.0:
        return l2_norm
    if kind == "L" and value >= 1.0:
        return lambda f: lebesgue_norm(f, value)
    if kind == "H" and value >= 0.0:
        return lambda f: sobolev_norm(f, value)
    return None


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """One config key: JSON type, default, range rule and study kinds.

    ``type`` names an entry of ``_TYPES`` or is the key table of a nested
    section.  ``default`` is ``_REQUIRED`` for a required key or section;
    None marks a default that :func:`parse_config` derives from other
    fields; an optional section has ``{}`` and takes its keys' defaults.
    ``rule`` is a (predicate, phrase) pair applied to the converted value.
    A key given to a study kind outside ``kinds`` is rejected.
    """

    type: object
    default: object = _REQUIRED
    rule: tuple | None = None
    kinds: tuple[str, ...] = STUDY_KINDS


def _finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _non_empty_list(test):
    return lambda v: isinstance(v, (list, tuple)) and bool(v) and all(map(test, v))


def _ascending(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


#: JSON type -> (test on the raw value, phrase, conversion or None).
_TYPES = {
    "number": (_finite_number, "a finite number", float),
    "int": (_integer, "an integer", None),
    "bool": (lambda v: isinstance(v, bool), "a boolean", None),
    "str": (lambda v: isinstance(v, str), "a string", None),
    "object": (lambda v: isinstance(v, dict), "an object", None),
    "numbers": (
        _non_empty_list(_finite_number),
        "a non-empty list of finite numbers",
        lambda v: tuple(float(x) for x in v),
    ),
    "names": (
        _non_empty_list(lambda x: isinstance(x, str)),
        "a non-empty list of names",
        tuple,
    ),
}

_POSITIVE = (lambda v: v > 0.0, "positive")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")

_SOLVER_KEYS = {
    "dt": _Key("number", rule=_POSITIVE),
    "t_end": _Key("number", rule=_POSITIVE, kinds=("solution", "tail")),
    "snapshot_every": _Key("int", 10, _AT_LEAST_ONE),
    "audit_every": _Key("int", 1, _AT_LEAST_ONE),
}

_FAMILY_KEYS = {
    "bump": {
        "family": _Key("str"),
        "support_radius": _Key("number"),
        "amplitude": _Key("number", 1.0),
        "direction": _Key(
            "numbers",
            (0.0, 0.0, 1.0),
            (lambda v: len(v) == 3 and any(v), "a nonzero 3-vector"),
        ),
        "support_tol": _Key("number", 1e-2),
    },
    "trefoil": {
        "family": _Key("str"),
        "major_radius": _Key("number"),
        "tube_radius": _Key("number"),
        "strength": _Key("number"),
        "resolution": _Key("int", 512),
        "div_tol": _Key("number", 1e-10),
        "support_tol": _Key("number", 1e-6),
    },
    "zero": {"family": _Key("str"), "support_radius": _Key("number", None)},
}

_CONFIG_KEYS = {
    "kind": _Key("str"),
    "alphas": _Key(
        "numbers",
        rule=(
            lambda v: v[0] > 0.0 and _ascending(v),
            "strictly ascending positive numbers",
        ),
    ),
    "base_n": _Key(
        "int", rule=(lambda v: v >= 8 and v % 2 == 0, "an even integer >= 8")
    ),
    "beta": _Key("number", None),
    "initial_data": _Key("object"),
    "solver": _Key(_SOLVER_KEYS, kinds=("solution", "tail", "transfer")),
    "norms": _Key(
        "names",
        ("L2", "H1"),
        (
            lambda v: all(map(_norm_function, v)),
            "'L<p>' (p >= 1) or 'H<s>' (s >= 0) names",
        ),
        kinds=("inversion", "solution"),
    ),
    "tail": _Key(
        {
            "inner_radius": _Key("number"),
            "radii": _Key("numbers", rule=(_ascending, "strictly ascending")),
        },
        kinds=("tail",),
    ),
    "transfer": _Key(
        {"t_star_factor": _Key("number", 1.0, _POSITIVE)}, {}, kinds=("transfer",)
    ),
    "checks": _Key(
        {
            "ratio_bound": _Key("number", 0.5, (lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
            "support_margin": _Key("number", None, (lambda v: v >= 0.0, "nonnegative")),
        },
        {},
    ),
    "allow_beyond_guaranteed": _Key("bool", False, kinds=("solution",)),
    "out_dir": _Key("str", None),
}


def _read(section: dict, table: dict, where: str, kind: str) -> dict:
    """Check one JSON object against a key table (see :class:`_Key`).

    Returns the values of the keys ``kind`` takes, defaults filled in and
    nested sections read recursively.
    """
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {where}; allowed keys: {sorted(table)}"
        )
    out = {}
    for key, spec in table.items():
        nested = isinstance(spec.type, dict)
        if kind not in spec.kinds:
            if key in section:
                noun = "section" if nested else "key"
                raise ConfigurationError(f"{kind} studies take no '{key}' {noun}")
            continue
        if key not in section:
            if spec.default is _REQUIRED:
                raise ConfigurationError(
                    f"{kind} studies need a '{key}' section"
                    if nested
                    else f"missing required key '{key}' in {where}"
                )
            out[key] = _read({}, spec.type, key, kind) if nested else spec.default
            continue
        raw = section[key]
        test, phrase, convert = _TYPES["object" if nested else spec.type]
        if not test(raw):
            raise ConfigurationError(
                f"'{key}' in {where} must be {phrase}, got {raw!r}"
            )
        value = raw
        if nested:
            value = _read(raw, spec.type, key, kind)
        elif convert is not None:
            value = convert(raw)
        if spec.rule is not None and not spec.rule[0](value):
            raise ConfigurationError(
                f"'{key}' in {where} must be {spec.rule[1]}, got {raw!r}"
            )
        out[key] = value
    return out


def parse_config(data: dict) -> StudyConfig:
    """Validate a raw config mapping and resolve every default.

    Raises ConfigurationError for unknown keys (at any level), missing
    required keys, wrong types, non-finite numbers, out-of-range values,
    non-nesting grids, and data that cannot fit the boxes.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    kind = data.get("kind")
    if kind not in STUDY_KINDS:
        raise ConfigurationError(
            f"'kind' must be one of {list(STUDY_KINDS)}, got {kind!r}"
        )
    top = _read(data, _CONFIG_KEYS, "config", kind)
    family = top["initial_data"].get("family")
    if family not in _FAMILY_KEYS:
        raise ConfigurationError(
            "initial_data 'family' must be 'bump', 'trefoil', or 'zero', "
            f"got {family!r}"
        )
    initial = _read(
        top["initial_data"], _FAMILY_KEYS[family], f"initial_data ({family})", kind
    )

    # Derived defaults and the checks that involve several fields.
    alphas = top["alphas"]
    h = 2.0 * alphas[0] / top["base_n"]
    beta = 2.0 * alphas[-1] if top["beta"] is None else top["beta"]
    if beta < 2.0 * alphas[-1]:
        raise ConfigurationError(
            f"reference box beta={beta} must be >= 2*max(alphas)={2.0 * alphas[-1]}"
        )

    def lattice_points(alpha: float, label: str) -> int:
        n = 2.0 * alpha / h
        if abs(n - round(n)) > 1e-9 or round(n) % 2:
            raise ConfigurationError(
                f"boxes do not share the lattice: {label}={alpha} needs "
                f"N={n:.6g} points at h={h:.6g} (must be an even integer)"
            )
        return int(round(n))

    if family == "zero" and initial["support_radius"] is None:
        initial["support_radius"] = 0.5 * alphas[0]
    checks = top["checks"]
    if checks["support_margin"] is None:
        checks["support_margin"] = 2.0 * h
    tail = top.get("tail", {})
    echo = {**top, "beta": beta, "initial_data": initial}
    if top["out_dir"] is None:
        del echo["out_dir"]
    cfg = StudyConfig(
        kind=kind,
        alphas=alphas,
        base_n=top["base_n"],
        beta=beta,
        ns=tuple(lattice_points(a, "alpha") for a in alphas),
        beta_n=lattice_points(beta, "beta"),
        h=h,
        initial_data=initial,
        solver=top.get("solver"),
        norms=top.get("norms", ()),
        tail_inner=tail.get("inner_radius"),
        tail_radii=tail.get("radii", ()),
        t_star_factor=top.get("transfer", {}).get("t_star_factor"),
        ratio_bound=checks["ratio_bound"],
        support_margin=checks["support_margin"],
        allow_beyond_guaranteed=top.get("allow_beyond_guaranteed", False),
        out_dir=top["out_dir"],
        echo=echo,
    )

    if kind in ("inversion", "solution") and alphas[0] < 1.0:
        raise ConfigurationError(
            "extension to the reference box needs alpha >= 1 on every box, "
            f"got min alpha = {alphas[0]}"
        )
    if kind == "tail":
        inner, radii = cfg.tail_inner, cfg.tail_radii
        if inner >= radii[0]:
            raise ConfigurationError(
                f"tail inner radius r={inner} must be below the smallest R={radii[0]}"
            )
        # The extension tail estimate needs R <= alpha - 1 on every box; the
        # boundary case is the closed limit and is accepted.
        if radii[-1] > alphas[0] - 1.0 + 1e-12:
            raise ConfigurationError(
                f"tail radius R={radii[-1]} exceeds alpha - 1 "
                f"on the alpha={alphas[0]} box"
            )
    limit = alphas[0] - cfg.support_margin
    if cfg.support_radius > limit:
        raise ConfigurationError(
            f"initial data reaches radius {cfg.support_radius:.6g} but must stay "
            f"within {limit:.6g} (= min alpha - support margin) on the "
            f"alpha={alphas[0]} box"
        )
    if kind == "tail" and cfg.support_radius >= cfg.tail_inner:
        raise ConfigurationError(
            f"tail inner radius r={cfg.tail_inner} must exceed the data support "
            f"radius {cfg.support_radius:.6g}"
        )
    return cfg


def load_config(path) -> StudyConfig:
    """Read and validate a JSON study config from disk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


# --------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class CheckRecord:
    """One machine-readable assertion outcome."""

    name: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""


@dataclass
class StudyResult:
    """Everything a study produced: table rows, assertions, and metadata."""

    kind: str
    columns: tuple[str, ...]
    rows: list[dict]
    checks: list[CheckRecord]
    constants: dict[str, float]
    extras: dict
    config: dict
    wall_time_s: float
    time_columns: tuple[str, ...] = ()
    time_rows: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(record.passed for record in self.checks)


#: study kind -> its runner; filled by :func:`_study`.
_RUNNERS: dict = {}


def _study(kind: str):
    """Decorate a study body into its public runner, registered for ``kind``.

    The runner rejects a config of another kind (audits take any kind),
    times the body, and builds the :class:`StudyResult` from the fields the
    body returns as a dict (all but ``kind``, ``config`` and ``wall_time_s``).
    """

    def decorate(body):
        @functools.wraps(
            body, assigned=("__module__", "__name__", "__qualname__", "__doc__")
        )
        def run(cfg: StudyConfig) -> StudyResult:
            if kind in STUDY_KINDS and cfg.kind != kind:
                raise UsageError(f"{body.__name__} got a {cfg.kind!r} config")
            start = time.perf_counter()
            parts = body(cfg)
            return StudyResult(
                kind=kind,
                config=cfg.to_dict(),
                wall_time_s=time.perf_counter() - start,
                **parts,
            )

        _RUNNERS[kind] = run
        return run

    return decorate


def _box_grids(cfg: StudyConfig):
    """(alpha, grid) for every box, built as the caller reaches it."""
    return ((alpha, BoxGrid(alpha, n)) for alpha, n in zip(cfg.alphas, cfg.ns))


def _build_vorticity(cfg: StudyConfig, grid: BoxGrid) -> VorticityField:
    """Realise the configured vorticity family on one grid."""
    data = cfg.initial_data
    try:
        if data["family"] == "bump":
            spec = BumpSpec(
                support_radius=data["support_radius"],
                amplitude=data["amplitude"],
                direction=tuple(data["direction"]),
            )
            return bump_vorticity(spec, grid, support_tol=data["support_tol"])
        if data["family"] == "trefoil":
            spec = TrefoilSpec(
                major_radius=data["major_radius"],
                tube_radius=data["tube_radius"],
                strength=data["strength"],
                resolution=data["resolution"],
            )
            return trefoil_vorticity(
                spec, grid, div_tol=data["div_tol"], support_tol=data["support_tol"]
            )
    except DomainTooSmallError as exc:
        raise ConfigurationError(
            f"initial data does not fit the alpha={grid.alpha} box: {exc}"
        ) from exc
    zeros = Field.from_physical(grid, np.zeros((3, grid.N, grid.N, grid.N)))
    return VorticityField(zeros, support_radius=data["support_radius"])


def _initial_velocity(cfg: StudyConfig, grid: BoxGrid) -> Field:
    """The periodic velocity of the configured vorticity on one grid."""
    return curl_inv_periodic(_build_vorticity(cfg, grid))


def _solver_config(cfg: StudyConfig, t_end: float, *, snapshots: bool) -> SolverConfig:
    sd = cfg.solver
    dt, every = sd["dt"], sd["snapshot_every"]
    times = []
    if snapshots:
        k = every
        while k * dt < t_end - 1e-9 * dt:
            times.append(k * dt)
            k += every
    return SolverConfig(
        dt=dt,
        t_end=t_end,
        snapshot_times=tuple(times),
        audit_every=sd["audit_every"],
    )


def _solve(
    u0: Field, scfg: SolverConfig, checks: list | None = None, name: str = ""
) -> Trajectory | None:
    """``nse_solve``, or None when the run blows up or violates the CFL bound.

    With ``checks`` the failure is appended to it as a failed ``name``
    record: measured is the last valid time of a blow-up (NaN for a CFL
    violation), the threshold is t_end, the note is the solver's message.
    """
    try:
        return nse_solve(u0, scfg)
    except BlowUpError as exc:
        measured, note = exc.last_valid_time, str(exc)
    except StepSizeError as exc:
        measured, note = float("nan"), str(exc)
    if checks is not None:
        checks.append(CheckRecord(name, False, measured, scfg.t_end, note=note))
    return None


def measure_constants(fields) -> dict[str, float]:
    """Largest functional-inequality ratios over the given velocity fields.

    Returns the measured Agmon constant, the L^6 Sobolev constant, and the
    pressure Calderon-Zygmund ratio ||p|| / ||u||_{L^4}^2; entries are NaN
    when every field is degenerate (zero).
    """
    agmon, sob6, press = [], [], []
    for u in fields:
        report = inequality_report(u)
        if report.flags["degenerate"]:
            continue
        agmon.append(report.entries["agmon_ratio"])
        sob6.append(report.entries["l6_ratio"])
        l4 = lebesgue_norm(u, 4)
        if l4 > 0.0:
            press.append(l2_norm(pressure_solve(u)) / l4**2)
    return {
        "c_agmon": max(agmon) if agmon else float("nan"),
        "c_sobolev6": max(sob6) if sob6 else float("nan"),
        "c_pressure": max(press) if press else float("nan"),
    }


def _check_decreasing(rows: list[dict], column: str) -> list[CheckRecord]:
    """Strict-decrease records per consecutive alpha pair (zero rows pass)."""
    out = []
    for prev, nxt in zip(rows, rows[1:]):
        a, b = prev[column], nxt[column]
        name = f"{column}_decreasing_alpha_{prev['alpha']:g}_to_{nxt['alpha']:g}"
        if math.isnan(a) or math.isnan(b):
            out.append(
                CheckRecord(name, False, float("nan"), a, note="non-finite error")
            )
        else:
            passed = b < a or (a == 0.0 and b == 0.0)
            note = "degenerate (both zero)" if a == b == 0.0 else ""
            out.append(CheckRecord(name, passed, b, a, note=note))
    return out


def _check_halving(rows: list[dict], column: str, bound: float) -> list[CheckRecord]:
    """err(2a)/err(a) <= bound for consecutive box-doubling pairs."""
    out = []
    for prev, nxt in zip(rows, rows[1:]):
        if abs(nxt["alpha"] / prev["alpha"] - 2.0) > 1e-12:
            continue
        a, b = prev[column], nxt[column]
        name = f"{column}_ratio_alpha_{prev['alpha']:g}_to_{nxt['alpha']:g}"
        if a == 0.0 and b == 0.0:
            out.append(CheckRecord(name, True, 0.0, bound, note="degenerate"))
        elif a == 0.0 or math.isnan(a) or math.isnan(b):
            out.append(CheckRecord(name, False, float("nan"), bound))
        else:
            out.append(CheckRecord(name, b / a <= bound, b / a, bound))
    return out


# --------------------------------------------------------------------------
# studies


@_study("inversion")
def run_inversion_study(cfg: StudyConfig) -> dict:
    """Invert one vorticity on every box and measure the gap on Q_beta.

    Per alpha: u_alpha = curl_inv_periodic(omega), extended to the reference
    box and compared with the reference inversion in each configured norm.
    Emits per-row gradient and vorticity norms (equal by the curl identity)
    and asserts strict error decrease plus the halving ratio on H^1.
    """
    ref_grid = BoxGrid(cfg.beta, cfg.beta_n)
    u_ref = _initial_velocity(cfg, ref_grid)

    norm_fns = [(name, _norm_function(name)) for name in cfg.norms]
    rows: list[dict] = []
    identity_worst = 0.0
    constants: dict[str, float] | None = None
    for alpha, grid in _box_grids(cfg):
        w = _build_vorticity(cfg, grid)
        u = curl_inv_periodic(w)
        if constants is None:
            constants = measure_constants([u])
        omega_norm = l2_norm(w.omega)
        del w
        grad_norm = math.sqrt(grad_l2_sq(u))
        extended = extend_field(u, ref_grid, make_cutoff(alpha))
        del u
        diff = extended - u_ref
        del extended
        row = {"alpha": alpha}
        for name, fn in norm_fns:
            row[f"err_{name}"] = fn(diff)
        del diff
        row["grad_norm"] = grad_norm
        row["omega_norm"] = omega_norm
        rows.append(row)
        if omega_norm > 0.0:
            identity_worst = max(
                identity_worst, abs(grad_norm - omega_norm) / omega_norm
            )

    checks: list[CheckRecord] = []
    for name in cfg.norms:
        checks.extend(_check_decreasing(rows, f"err_{name}"))
    if "H1" in cfg.norms:
        checks.extend(_check_halving(rows, "err_H1", cfg.ratio_bound))
    checks.append(
        CheckRecord(
            "curl_identity_per_row",
            identity_worst <= _IDENTITY_TOL,
            identity_worst,
            _IDENTITY_TOL,
            note="max |grad_norm - omega_norm| / omega_norm over rows",
        )
    )

    return dict(
        columns=("alpha", *(f"err_{n}" for n in cfg.norms), "grad_norm", "omega_norm"),
        rows=rows,
        checks=checks,
        constants=constants,
        extras={"beta": cfg.beta, "h": cfg.h},
    )


@_study("solution")
def run_solution_study(cfg: StudyConfig) -> dict:
    """Evolve identical data on every box; compare against the Q_beta run.

    Emits per-snapshot errors (``solution_times.csv``) and per-alpha
    discrete L^2(0,T;H^1) / L^4(0,T;H^1.5) integrals with sup-in-time tail
    columns.  A blow-up or CFL violation on any box aborts the sweep with a
    failed record.
    """
    t_end = cfg.solver["t_end"]
    ref_grid = BoxGrid(cfg.beta, cfg.beta_n)

    initial = [_initial_velocity(cfg, grid) for _, grid in _box_grids(cfg)]
    u0_ref = _initial_velocity(cfg, ref_grid)

    c_probe = measure_constants([initial[0]])
    checks: list[CheckRecord] = []
    t_min = float("inf")
    if not math.isnan(c_probe["c_agmon"]):
        horizons = [
            existence_time(u, c_probe["c_agmon"]).t_guaranteed
            for u in (*initial, u0_ref)
        ]
        t_min = min(horizons)
    if t_end > t_min:
        if not cfg.allow_beyond_guaranteed:
            raise ConfigurationError(
                f"t_end={t_end} exceeds the guaranteed existence time "
                f"{t_min:.6g}; set allow_beyond_guaranteed to proceed"
            )
        warnings.warn(
            f"integrating to t_end={t_end} beyond the guaranteed horizon "
            f"{t_min:.6g}",
            stacklevel=3,
        )
    checks.append(
        CheckRecord(
            "within_guaranteed_horizon",
            True,
            t_end,
            t_min,
            note=(
                "waived by allow_beyond_guaranteed" if t_end > t_min else ""
            ),
        )
    )

    tail_radii = tuple(f * cfg.alphas[0] for f in _SOLUTION_TAIL_FRACTIONS)
    columns = (
        "alpha",
        "err_L2T_H1",
        "err_L4T_H1.5",
        *(f"tail_sup_R{j + 1}" for j in range(len(tail_radii))),
        "blown_up",
    )
    parts = dict(
        columns=columns,
        rows=[],
        checks=checks,
        constants=c_probe,
        extras={
            "beta": cfg.beta,
            "h": cfg.h,
            "t_end": t_end,
            "t_guaranteed_min": t_min,
            "tail_sup_radii": list(tail_radii),
            "aborted": True,
        },
        time_columns=("alpha", "t", *(f"err_{n}" for n in cfg.norms)),
    )

    scfg = _solver_config(cfg, t_end, snapshots=True)
    ref_traj = _solve(u0_ref, scfg, checks, "no_blowup_reference")
    if ref_traj is None:
        return parts
    parts["constants"] = measure_constants(ref_traj.states)

    norm_fns = [(name, _norm_function(name)) for name in cfg.norms]
    h1 = _norm_function("H1")
    h15 = _norm_function("H1.5")
    rows = parts["rows"]
    time_rows: list[dict] = []
    aborted = False

    for i, alpha in enumerate(cfg.alphas):
        traj = _solve(initial[i], scfg, checks, f"no_blowup_alpha_{alpha:g}")
        if traj is None:
            nan_row = dict.fromkeys(columns, float("nan"))
            rows.append({**nan_row, "alpha": alpha, "blown_up": 1})
            aborted = True
            break
        if traj.times != ref_traj.times:
            raise UsageError(
                "snapshot schedules diverged between boxes; this is a bug"
            )
        cutoff = make_cutoff(alpha)
        h1_sq, h15_q4 = [], []
        tail_sups = [0.0] * len(tail_radii)
        for idx, (t, state) in enumerate(zip(traj.times, traj.states)):
            diff = extend_field(state, ref_grid, cutoff) - ref_traj.states[idx]
            trow = {"alpha": alpha, "t": t}
            for name, fn in norm_fns:
                trow[f"err_{name}"] = fn(diff)
            time_rows.append(trow)
            e1 = h1(diff)
            h1_sq.append(e1 * e1)
            e15 = h15(diff)
            h15_q4.append(e15**4)
            del diff
            for j, radius in enumerate(tail_radii):
                tail_sups[j] = max(tail_sups[j], tail_mass(state, radius))
        l2t_h1 = math.sqrt(np.trapezoid(h1_sq, traj.times))
        l4t_h15 = float(np.trapezoid(h15_q4, traj.times)) ** 0.25
        rows.append(dict(zip(columns, (alpha, l2t_h1, l4t_h15, *tail_sups, 0))))

    clean = [r for r in rows if not r["blown_up"]]
    checks.extend(_check_decreasing(clean, "err_L2T_H1"))
    checks.extend(_check_decreasing(clean, "err_L4T_H1.5"))
    finite_ok = all(math.isfinite(r["err_L4T_H1.5"]) for r in clean)
    checks.append(
        CheckRecord(
            "err_L4T_H1.5_finite",
            finite_ok,
            max((r["err_L4T_H1.5"] for r in clean), default=0.0),
            float("inf"),
        )
    )

    # t = 0 row must reproduce the plain restriction/inversion error.
    worst_t0 = 0.0
    for i, alpha in enumerate(cfg.alphas):
        t0_rows = [r for r in time_rows if r["alpha"] == alpha and r["t"] == 0.0]
        if not t0_rows:
            continue
        diff0 = extend_field(initial[i], ref_grid, make_cutoff(alpha)) - u0_ref
        for name, fn in norm_fns:
            expected = fn(diff0)
            got = t0_rows[0][f"err_{name}"]
            scale = max(abs(expected), 1e-300)
            worst_t0 = max(worst_t0, abs(got - expected) / scale)
        del diff0
    checks.append(
        CheckRecord(
            "t0_matches_inversion_error",
            worst_t0 <= 1e-12,
            worst_t0,
            1e-12,
            note="relative gap between t=0 rows and direct restriction errors",
        )
    )

    parts["extras"]["aborted"] = aborted
    parts["time_rows"] = time_rows
    return parts


@_study("tail")
def run_tail_study(cfg: StudyConfig) -> dict:
    """Audit tail(u(t), R) <= tail(u0, r) + Gamma/(R - r) on every box.

    Gamma is assembled from measured quantities of each run: with
    I = integral of the enstrophy over [0, T] (trapezoid on audit times)
    and C6 the largest measured L^6/gradient ratio over the snapshots,

        Gamma = 2 ||u0|| [ sqrt(T) I + 2 C6^(3/2) ||u0||^(1/2) T^(1/4) I^(3/4) ].

    Rows carry both sides and the margin at every snapshot time and radius.
    A blow-up or CFL violation ends the sweep with a failed record.
    """
    t_end = cfg.solver["t_end"]
    inner = cfg.tail_inner
    columns = ("alpha", "t", "R", "lhs", "rhs", "margin")
    rows: list[dict] = []
    checks: list[CheckRecord] = []
    gammas: dict[str, float] = {}
    min_margin = float("inf")
    constants = None
    scfg = _solver_config(cfg, t_end, snapshots=True)
    for alpha, grid in _box_grids(cfg):
        u0 = _initial_velocity(cfg, grid)
        traj = _solve(u0, scfg, checks, f"no_blowup_alpha_{alpha:g}")
        if traj is None:
            break
        run_constants = measure_constants(traj.states)
        if constants is None or (
            not math.isnan(run_constants["c_agmon"])
            and math.isnan(constants["c_agmon"])
        ):
            constants = run_constants

        u0_l2 = l2_norm(u0)
        tail0 = tail_mass(u0, inner)
        audit_t = [rec.time for rec in traj.diagnostics]
        audit_ens = [rec.entries["enstrophy"] for rec in traj.diagnostics]
        dissipation = float(np.trapezoid(audit_ens, audit_t))
        if u0_l2 == 0.0:
            gamma = 0.0
        else:
            c6 = run_constants["c_sobolev6"]
            gamma = (
                2.0
                * u0_l2
                * (
                    math.sqrt(t_end) * dissipation
                    + 2.0
                    * c6**1.5
                    * math.sqrt(u0_l2)
                    * t_end**0.25
                    * dissipation**0.75
                )
            )
        gammas[f"{alpha:g}"] = gamma

        for t, state in zip(traj.times, traj.states):
            for radius in cfg.tail_radii:
                lhs = tail_mass(state, radius)
                rhs = tail0 + gamma / (radius - inner)
                margin = rhs - lhs
                min_margin = min(min_margin, margin)
                rows.append(dict(zip(columns, (alpha, t, radius, lhs, rhs, margin))))

    checks.append(
        CheckRecord(
            "tail_bound_margin_nonnegative",
            min_margin >= 0.0,
            min_margin if math.isfinite(min_margin) else float("nan"),
            0.0,
            note="min over all snapshot times and radii of RHS - LHS",
        )
    )
    return dict(
        columns=columns,
        rows=rows,
        checks=checks,
        constants=constants or measure_constants([]),
        extras={
            "h": cfg.h,
            "t_end": t_end,
            "inner_radius": inner,
            "gamma": gammas,
        },
    )


@_study("transfer")
def run_transfer_study(cfg: StudyConfig) -> dict:
    """Sweep ascending boxes for the H^1 transfer threshold alpha*.

    The reference box fixes M = ||u0||_{H^1}^2 and the guaranteed horizon
    T_g; the sweep integrates every box to T* = t_star_factor * T_g and
    reports the first alpha* from which all larger boxes keep
    sup_t ||u(t)||_{H^1}^2 <= 2M.  A blow-up or CFL violation is recorded
    per box (a failed reference check or a ``blown_up`` row), not fatal.
    """
    u0_ref = _initial_velocity(cfg, BoxGrid(cfg.beta, cfg.beta_n))
    constants = measure_constants([u0_ref])
    if math.isnan(constants["c_agmon"]):
        raise ConfigurationError("transfer studies need nonzero initial data")

    estimate = existence_time(u0_ref, constants["c_agmon"])
    big_m = estimate.h1_bound
    t_star = cfg.t_star_factor * estimate.t_guaranteed

    def sup_stats(traj) -> tuple[float, float]:
        if traj is None:
            return float("nan"), float("nan")
        ens = max(rec.entries["enstrophy"] for rec in traj.diagnostics)
        h1_sq = max(
            2.0 * rec.entries["energy"] + rec.entries["enstrophy"]
            for rec in traj.diagnostics
        )
        return ens, h1_sq

    columns = (
        "alpha",
        "sup_enstrophy",
        "sup_h1_sq",
        "within_2m",
        "blown_up",
        "is_reference",
    )
    checks: list[CheckRecord] = []
    rows: list[dict] = []
    scfg = _solver_config(cfg, t_star, snapshots=False)
    ref_traj = _solve(u0_ref, scfg, checks, "reference_completes")
    ref_blown = int(ref_traj is None)
    ref_ens, ref_h1_sq = sup_stats(ref_traj)
    del ref_traj, u0_ref

    reference_ok = not ref_blown and ref_h1_sq <= big_m * (1.0 + 1e-9)
    checks.append(
        CheckRecord(
            "reference_within_bound",
            reference_ok,
            ref_h1_sq,
            big_m,
            note="sup_t ||u_ref||_{H^1}^2 must stay within M",
        )
    )

    alpha_star = None
    if reference_ok:
        for alpha, grid in _box_grids(cfg):
            traj = _solve(_initial_velocity(cfg, grid), scfg)
            blown = int(traj is None)
            ens, h1_sq = sup_stats(traj)
            del traj
            within = int(not blown and h1_sq <= 2.0 * big_m)
            rows.append(dict(zip(columns, (alpha, ens, h1_sq, within, blown, 0))))
        for row in reversed(rows):
            if not row["within_2m"]:
                break
            alpha_star = row["alpha"]
        checks.append(
            CheckRecord(
                "alpha_star_found",
                alpha_star is not None,
                alpha_star if alpha_star is not None else float("nan"),
                cfg.alphas[-1],
                note="first alpha from which every larger box stays <= 2M",
            )
        )

    ref_row = (cfg.beta, ref_ens, ref_h1_sq, int(reference_ok), ref_blown, 1)
    rows.append(dict(zip(columns, ref_row)))
    return dict(
        columns=columns,
        rows=rows,
        checks=checks,
        constants=constants,
        extras={
            "h": cfg.h,
            "m_bound": big_m,
            "t_guaranteed": estimate.t_guaranteed,
            "t_star": t_star,
            "t_star_factor": cfg.t_star_factor,
            "alpha_star": alpha_star,
        },
    )


@_study("audit")
def run_snapshot_audit(cfg: StudyConfig) -> dict:
    """Evaluate the inequality ratios and the curl identity per box.

    Accepts any study config; only the boxes and the initial data are used.
    """
    rows: list[dict] = []
    checks: list[CheckRecord] = []
    fields = []
    for alpha, grid in _box_grids(cfg):
        u = _initial_velocity(cfg, grid)
        report = inequality_report(u)
        identity = curl_identity_report(u)
        l4 = lebesgue_norm(u, 4)
        pressure_ratio = (
            l2_norm(pressure_solve(u)) / l4**2 if l4 > 0.0 else float("nan")
        )
        degenerate = report.flags["degenerate"]
        rows.append(
            {
                "alpha": alpha,
                "l2": report.entries["l2"],
                "h1": report.entries["h1"],
                "agmon_ratio": report.entries["agmon_ratio"],
                "l6_ratio": report.entries["l6_ratio"],
                "interp_ratio": report.entries["interp_ratio"],
                "pressure_ratio": pressure_ratio,
                "grad_norm": identity.entries["grad_norm"],
                "curl_norm": identity.entries["curl_norm"],
                "curl_rel_diff": identity.entries["rel_diff"],
                "degenerate": int(degenerate),
            }
        )
        rel = identity.entries["rel_diff"]
        applicable = not identity.flags["not_applicable"] and not degenerate
        checks.append(
            CheckRecord(
                f"curl_identity_alpha_{alpha:g}",
                (rel <= _IDENTITY_TOL) if applicable else True,
                rel,
                _IDENTITY_TOL,
                note="" if applicable else "degenerate field; vacuous",
            )
        )
        fields.append(u)
    return dict(
        columns=tuple(rows[0]),
        rows=rows,
        checks=checks,
        constants=measure_constants(fields),
        extras={"h": cfg.h},
    )


def run_study(cfg: StudyConfig) -> StudyResult:
    """Dispatch to the runner matching ``cfg.kind``."""
    return _RUNNERS[cfg.kind](cfg)


# --------------------------------------------------------------------------
# reports


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return None if not math.isfinite(value) else float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def emit_report(result: StudyResult, out_dir) -> list[Path]:
    """Write the study's CSV tables, check records, and metadata.

    Returns the written paths.  CSV bytes depend only on the config on the
    single-threaded path; ``metadata.json`` additionally records wall time.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    table = out / f"{result.kind}.csv"
    _write_csv(table, result.columns, result.rows)
    written.append(table)

    if result.time_rows:
        times = out / f"{result.kind}_times.csv"
        _write_csv(times, result.time_columns, result.time_rows)
        written.append(times)

    checks = out / "checks.csv"
    _write_csv(
        checks,
        ("name", "passed", "measured", "threshold", "note"),
        [
            {
                "name": c.name,
                "passed": int(c.passed),
                "measured": c.measured,
                "threshold": c.threshold,
                "note": c.note,
            }
            for c in result.checks
        ],
    )
    written.append(checks)

    from . import __version__

    meta = {
        "study": result.kind,
        "code_version": __version__,
        "config": result.config,
        "constants": result.constants,
        "wall_time_s": result.wall_time_s,
        "passed": result.passed,
        **{k: v for k, v in result.extras.items()},
    }
    meta_path = out / "metadata.json"
    meta_path.write_text(json.dumps(_json_safe(meta), indent=2, sort_keys=True) + "\n")
    written.append(meta_path)
    return written
