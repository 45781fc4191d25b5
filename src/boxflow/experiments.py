"""Convergence, tail, and transfer studies over expanding boxes, plus reports.

This module turns the library's building blocks into the four numerical
programs that probe how well the periodic box Q_alpha = (-alpha, alpha)^3
stands in for the whole space, all driven by one declarative JSON config:

* ``inversion`` -- invert one compactly supported vorticity on every box,
  extend each velocity to the reference box Q_beta, and watch the L^2/H^1
  gap to the reference inversion close as alpha grows (halving in H^1 with
  each doubling of alpha);
* ``solution``  -- evolve the same initial data on every box and measure
  discrete L^2(0,T;H^1) and L^4(0,T;H^1.5) errors against the reference
  trajectory, plus sup-in-time tail masses;
* ``tail``      -- audit the a-priori tail bound
  tail(u(t), R) <= tail(u0, r) + Gamma/(R - r), with Gamma assembled from
  measured quantities of the run itself;
* ``transfer``  -- run the reference box to T* and sweep ascending alphas
  for the first alpha* from which every larger box keeps its H^1 norm
  squared below twice the reference bound M.

``run_study(cfg)`` runs the study that ``cfg.kind`` names and returns a
`StudyResult`.

"R^3" is operationalised as the largest box Q_beta with beta >= 2*max(alpha);
all boxes share one lattice spacing h = 2*alpha_1/N_1 so fields nest exactly.

The solution, tail and transfer studies consume `nse_march` through one
guard, `_until_failure`: a blow-up or CFL violation ends that run alone, and
its box gets a failed check, a ``blown_up`` row or both.  No study stores a
trajectory.

Config schema (JSON object; unknown keys anywhere are rejected, numbers
must be finite, and a key or section the study kind does not take is an
error)::

    {
      "kind": "inversion" | "solution" | "tail" | "transfer",
      "alphas": [1, 2, 4],            # strictly ascending box half-widths
      "base_n": 32,                   # resolution on the smallest box
      "beta": 8,                      # optional; default 2*max(alphas)
      "initial_data": {
        "family": "bump" | "trefoil",   # zero data: a bump, amplitude 0
        # the other keys are the fields of BumpSpec or TrefoilSpec,
        # with their defaults
      },
      "solver": {                     # solution/tail/transfer only
        "dt": 1e-3, "t_end": 0.05,    # transfer derives t_end; omit it there
        "snapshot_every": 10          # solution/tail: steps between snapshots
      },                              # (every step is audited)
      "tail": {"inner_radius": 1.0, "radii": [2, 2.5, 3]},   # tail only
      "transfer": {"t_star_factor": 3.0},                    # transfer only
      "allow_beyond_guaranteed": false,   # solution only
      "out_dir": "reports"            # optional; CLI --out overrides
    }

The per-key types, ranges and study kinds live in one table
(``_CONFIG_KEYS`` and the section tables it names); the ``initial_data``
defaults are those of the spec classes.  The data must stay within
min(alphas) - 2h of the origin.  Inversion and solution studies report
their errors in L^2 and H^1.

Reports are CSV files with stable schemas plus ``checks.csv`` (one
machine-readable pass/fail record per assertion) and ``metadata.json``
(normalised config echo, code version, measured constants, wall time).
On the single-threaded reference path two runs of the same config produce
byte-identical CSVs; only the wall time in ``metadata.json`` may differ.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BlowUpError,
    ConfigurationError,
    DataError,
    StepSizeError,
    UsageError,
)
from .extension import extend_field
from .initial_data import BumpSpec, TrefoilSpec, bump_vorticity, trefoil_vorticity
from .norms import (
    _moments,
    grad_l2_sq,
    inequality_report,
    l2_norm,
    lebesgue_norm,
    tail_mass,
)
from .solver import SolverConfig, existence_time, nse_march, pressure_solve
from .spectral_core import BoxGrid, Field, _irfftn, _rfftn
from .vorticity import VorticityField, curl_inv_periodic

__all__ = [
    "CheckRecord",
    "StudyConfig",
    "StudyResult",
    "emit_report",
    "load_config",
    "measure_constants",
    "parse_config",
    "run_study",
]

#: Relative slack for curl-identity and consistency checks inside studies.
_IDENTITY_TOL = 1e-10

#: sup-in-time tail columns of a solution study are taken at these fractions
#: of the smallest box half-width (recorded per run in metadata).
_SOLUTION_TAIL_FRACTIONS = (0.5, 0.75)

#: Bound on err_H1(2 alpha) / err_H1(alpha) in the inversion study.
_RATIO_BOUND = 0.5


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
    beta: float
    ns: tuple[int, ...]
    beta_n: int
    h: float
    initial_data: dict
    solver: dict | None
    tail_inner: float | None
    tail_radii: tuple[float, ...]
    t_star_factor: float | None
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
        return _data_spec(self.initial_data).support_radius


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """One config key: JSON type, default, range rule and study kinds.

    ``type`` names an entry of ``_TYPES`` or is the key table of a nested
    section.  ``default`` is ``_REQUIRED`` for a required key or section;
    None marks a default that :func:`parse_config` derives from other
    fields; an optional section has ``{}`` and takes its keys' defaults.
    ``rule`` is a (predicate, phrase) pair applied to the converted value.
    A key given to a study kind outside ``kinds`` (None: every kind) is
    rejected.
    """

    type: object
    default: object = _REQUIRED
    rule: tuple | None = None
    kinds: tuple[str, ...] | None = None


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
}

_POSITIVE = (lambda v: v > 0.0, "positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "nonnegative")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")

_SOLVER_KEYS = {
    "dt": _Key("number", rule=_POSITIVE),
    "t_end": _Key("number", rule=_POSITIVE, kinds=("solution", "tail")),
    "snapshot_every": _Key("int", 10, _AT_LEAST_ONE, kinds=("solution", "tail")),
}

_FAMILY_KEYS = {
    "bump": {
        "family": _Key("str"),
        "support_radius": _Key("number", rule=_POSITIVE),
        "amplitude": _Key("number", BumpSpec.amplitude),
        "direction": _Key(
            "numbers",
            BumpSpec.direction,
            (lambda v: len(v) == 3 and any(v), "a nonzero 3-vector"),
        ),
        "support_tol": _Key("number", BumpSpec.support_tol, _NONNEGATIVE),
    },
    "trefoil": {
        "family": _Key("str"),
        "major_radius": _Key("number", rule=_POSITIVE),
        "tube_radius": _Key("number", rule=_POSITIVE),
        "strength": _Key("number"),
        "resolution": _Key("int", TrefoilSpec.resolution, _AT_LEAST_ONE),
        "div_tol": _Key("number", TrefoilSpec.div_tol, _NONNEGATIVE),
        "support_tol": _Key("number", TrefoilSpec.support_tol, _NONNEGATIVE),
    },
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
        if spec.kinds is not None and kind not in spec.kinds:
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
            f"initial_data 'family' must be one of {list(_FAMILY_KEYS)}, "
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

    tail = top.get("tail", {})
    echo = {**top, "beta": beta, "initial_data": initial}
    if top["out_dir"] is None:
        del echo["out_dir"]
    cfg = StudyConfig(
        kind=kind,
        alphas=alphas,
        beta=beta,
        ns=tuple(lattice_points(a, "alpha") for a in alphas),
        beta_n=lattice_points(beta, "beta"),
        h=h,
        initial_data=initial,
        solver=top.get("solver"),
        tail_inner=tail.get("inner_radius"),
        tail_radii=tail.get("radii", ()),
        t_star_factor=top.get("transfer", {}).get("t_star_factor"),
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
    limit = alphas[0] - 2.0 * h
    if cfg.support_radius > limit:
        raise ConfigurationError(
            f"initial data reaches radius {cfg.support_radius:.6g} but must stay "
            f"within {limit:.6g} (= min alpha - support margin 2h) on the "
            f"alpha={alphas[0]} box"
        )
    if kind == "tail" and cfg.support_radius >= cfg.tail_inner:
        raise ConfigurationError(
            f"tail inner radius r={cfg.tail_inner} must exceed the data support "
            f"radius {cfg.support_radius:.6g}"
        )
    return cfg


def _unique_keys(pairs) -> dict:
    """One JSON object; a key given twice is a configuration error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigurationError(f"key '{key}' is given twice in one object")
        out[key] = value
    return out


def load_config(path) -> StudyConfig:
    """Read and validate a JSON study config from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
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


def _box_grids(cfg: StudyConfig):
    """(alpha, grid) for every box, built as the caller reaches it."""
    return ((alpha, BoxGrid(alpha, n)) for alpha, n in zip(cfg.alphas, cfg.ns))


def _data_spec(data: dict) -> BumpSpec | TrefoilSpec:
    """The vorticity spec of a parsed ``initial_data`` section: its keys
    other than ``family`` are the spec's fields."""
    spec_class = BumpSpec if data["family"] == "bump" else TrefoilSpec
    return spec_class(**{k: v for k, v in data.items() if k != "family"})


def _build_vorticity(cfg: StudyConfig, grid: BoxGrid) -> VorticityField:
    """Realise the configured vorticity family on one grid.

    Data that fails the vorticity checks (divergence, mean, support) at this
    resolution and the spec's tolerances is a configuration error.  The
    generator is read by its global name, so a wrapper bound there sees it.
    """
    data = cfg.initial_data
    generate = bump_vorticity if data["family"] == "bump" else trefoil_vorticity
    try:
        return generate(_data_spec(data), grid)
    except DataError as exc:
        raise ConfigurationError(
            f"{data['family']} initial data is rejected on the "
            f"alpha={grid.alpha:g} box (N={grid.N}): {exc}"
        ) from exc


def _initial_velocity(cfg: StudyConfig, grid: BoxGrid) -> Field:
    """The periodic velocity of the configured vorticity on one grid."""
    return curl_inv_periodic(_build_vorticity(cfg, grid))


def _solver_config(cfg: StudyConfig, t_end: float) -> SolverConfig:
    """The study's ``solver`` section as a `SolverConfig` up to ``t_end``."""
    return SolverConfig(**{**cfg.solver, "t_end": t_end})


def _until_failure(name, march, failed: dict):
    """The steps of ``march`` until it ends or blows up or violates the CFL
    bound; such a failure ends the steps and is stored as failed[name],
    without the traceback, whose frames would keep the run's arrays."""
    try:
        yield from march
    except (BlowUpError, StepSizeError) as exc:
        failed[name] = exc.with_traceback(None)


def _failed_check(exc, name: str, t_end: float) -> CheckRecord:
    """The failed ``name`` record of a run that `_until_failure` ended:
    measured is the last valid time of a blow-up (NaN for a CFL violation),
    the threshold is t_end, the note is the solver's message."""
    measured = exc.last_valid_time if isinstance(exc, BlowUpError) else float("nan")
    return CheckRecord(name, False, measured, t_end, note=str(exc))


def _gap_norms(u: Field, ref: Field, weights) -> list[float]:
    """sqrt(vol sum_k w_k |gap_k|^2) of gap = extend_field(u, ref.grid) - ref
    for each weight w on ref's modes: bit for bit `l2_norm` (w = 1.0) and
    `sobolev_norm` (w = (1 + |k|^2)^s) of the gap, which is never held
    whole but made and summed one component at a time."""
    spectra = (_gap_component(u, ref, i) for i in range(3))
    return [math.sqrt(m) for m in _moments(ref.grid, spectra, weights)]


def _gap_component(u: Field, ref: Field, i: int) -> np.ndarray:
    """Component i of the gap as a spectrum, written over its samples."""
    ext = extend_field(u.component(i), ref.grid).physical
    ext -= ref.component(i).physical
    return _rfftn(ext, consume=True)


def _tail_masses(u: Field, radii) -> list[float]:
    """`tail_mass(u, R)` for each R, from one set of samples u does not keep."""
    u = Field(u.grid, physical=u.physical)
    return [tail_mass(u, radius) for radius in radii]


def measure_constants(fields) -> dict[str, float]:
    """Largest functional-inequality ratios over the given velocity fields.

    Returns the measured Agmon constant, the L^6 Sobolev constant, and the
    pressure Calderon-Zygmund ratio ||p|| / ||u||_{L^4}^2; entries are NaN
    when every field is degenerate (zero).  The fields keep no samples.
    """
    return _largest_ratios(map(_ratio_row, fields))


def _ratio_row(u: Field) -> dict:
    """The inequality and pressure ratios of u and its `degenerate` flag
    (set for zero u), measured on one set of samples that u does not keep."""
    u = Field(u.grid, physical=u.physical, spectral=u.spectral)
    report = inequality_report(u)
    return dict(
        report.entries,
        pressure_ratio=_pressure_ratio(u),
        degenerate=report.flags["degenerate"],
    )


def _pressure_ratio(u: Field) -> float:
    """||p|| / ||u||_{L^4}^2 for the pressure of u; NaN for zero u."""
    l4 = lebesgue_norm(u, 4)
    return l2_norm(pressure_solve(u)) / l4**2 if l4 > 0.0 else float("nan")


def _largest_ratios(rows) -> dict[str, float]:
    """The `measure_constants` maxima over the `_ratio_row` rows that are
    not degenerate."""
    rows = [r for r in rows if not r["degenerate"]]
    press = [r["pressure_ratio"] for r in rows if not math.isnan(r["pressure_ratio"])]
    return {
        "c_agmon": max((r["agmon_ratio"] for r in rows), default=float("nan")),
        "c_sobolev6": max((r["l6_ratio"] for r in rows), default=float("nan")),
        "c_pressure": max(press, default=float("nan")),
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


def _inversion_study(cfg: StudyConfig) -> dict:
    """Invert one vorticity on every box and measure the gap on Q_beta.

    Per alpha: u_alpha = curl_inv_periodic(omega), extended to the reference
    box and compared with the reference inversion in L^2 and H^1.  Emits
    per-row gradient and vorticity norms (equal by the curl identity) and
    asserts strict error decrease plus the halving ratio on H^1.
    """
    # the spectrum, then its samples over it on a fresh grid: the build grid
    # and the |k|^2 tables it cached die before the samples are made
    ref_grid = BoxGrid(cfg.beta, cfg.beta_n)
    u_ref = _initial_velocity(cfg, BoxGrid(cfg.beta, cfg.beta_n)).spectral
    u_ref = Field.from_physical(ref_grid, _irfftn(u_ref, ref_grid.N, consume=True))
    h1_weight = 1.0 + BoxGrid(cfg.beta, cfg.beta_n).ksq  # (1 + |k|^2)^1; that |k|^2 dies here

    rows: list[dict] = []
    identity_worst = 0.0
    constants: dict[str, float] | None = None
    for alpha, grid in _box_grids(cfg):
        w = _build_vorticity(cfg, grid)
        omega_norm = l2_norm(w.omega)
        u = curl_inv_periodic(w)  # over omega's spectrum
        del w
        if constants is None:  # one set of samples for the constants and the gap
            u = Field(grid, physical=u.physical, spectral=u.spectral)
            constants = measure_constants([u])
        grad_norm = math.sqrt(grad_l2_sq(u))
        err_l2, err_h1 = _gap_norms(u, u_ref, [1.0, h1_weight])
        del u
        rows.append(
            {
                "alpha": alpha,
                "err_L2": err_l2,
                "err_H1": err_h1,
                "grad_norm": grad_norm,
                "omega_norm": omega_norm,
            }
        )
        if omega_norm > 0.0:
            identity_worst = max(
                identity_worst, abs(grad_norm - omega_norm) / omega_norm
            )

    checks = [
        *_check_decreasing(rows, "err_L2"),
        *_check_decreasing(rows, "err_H1"),
        *_check_halving(rows, "err_H1", _RATIO_BOUND),
        CheckRecord(
            "curl_identity_per_row",
            identity_worst <= _IDENTITY_TOL,
            identity_worst,
            _IDENTITY_TOL,
            note="max |grad_norm - omega_norm| / omega_norm over rows",
        ),
    ]

    return dict(
        columns=tuple(rows[0]),
        rows=rows,
        checks=checks,
        constants=constants,
        extras={"beta": cfg.beta, "h": cfg.h},
    )


def _solution_study(cfg: StudyConfig) -> dict:
    """Evolve identical data on every box; compare against the Q_beta run.

    Emits per-snapshot errors (``solution_times.csv``) and per-alpha
    discrete L^2(0,T;H^1) / L^4(0,T;H^1.5) integrals with sup-in-time tail
    columns.  The reference and the boxes march in lockstep, compared at
    each snapshot.  A box that blows up or violates the CFL bound gets a
    failed record and a ``blown_up`` row, and the other boxes go on; a
    failed reference aborts the study with only its record.
    """
    t_end = cfg.solver["t_end"]
    initial = [_initial_velocity(cfg, grid) for _, grid in _box_grids(cfg)]
    ref_grid = BoxGrid(cfg.beta, cfg.beta_n)
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
            "c_agmon_horizon": c_probe["c_agmon"],
            "t_guaranteed_min": t_min,
            "tail_sup_radii": list(tail_radii),
            "aborted": True,
        },
        time_columns=("alpha", "t", "err_L2", "err_H1"),
    )

    scfg = _solver_config(cfg, t_end)
    failed = {}  # alpha or "reference" -> the failure that ended its march
    ref_march = _until_failure("reference", nse_march(u0_ref, scfg), failed)
    marches = {
        a: _until_failure(a, nse_march(u0, scfg), failed)
        for a, u0 in zip(cfg.alphas, initial)
    }
    del initial, u0_ref  # each march owns its start state
    snaps = {alpha: [] for alpha in cfg.alphas}  # (t, L2, H1, H1.5^4, tails)
    ref_rows = []
    for t, ref_state, _ in ref_march:
        if ref_state is not None:  # one set of samples for the ratios and every gap
            ref_state = Field(ref_grid, physical=ref_state.physical, spectral=ref_state.spectral)
            ref_rows.append(_ratio_row(ref_state))
        for alpha, march in list(marches.items()):
            t_box, state, _ = next(march, (None, None, None))
            if alpha in failed:  # this box's row only
                del marches[alpha]
                continue
            if t_box != t or (state is None) != (ref_state is None):
                raise UsageError(
                    "snapshot schedules diverged between boxes; this is a bug"
                )
            if state is not None:
                ksq = ref_grid.ksq
                e0, e1, e15 = _gap_norms(
                    state, ref_state, [1.0, 1.0 + ksq, (1.0 + ksq) ** 1.5]
                )
                snaps[alpha].append((t, e0, e1, e15**4, _tail_masses(state, tail_radii)))
            del state
        del ref_state
    if "reference" in failed:
        checks.append(_failed_check(failed["reference"], "no_blowup_reference", t_end))
        return parts
    parts["constants"] = _largest_ratios(ref_rows)

    rows, time_rows = parts["rows"], []
    for alpha in cfg.alphas:
        if alpha in failed:
            name = f"no_blowup_alpha_{alpha:g}"
            checks.append(_failed_check(failed[alpha], name, t_end))
            nan_row = dict.fromkeys(columns, float("nan"))
            rows.append({**nan_row, "alpha": alpha, "blown_up": 1})
            continue
        times, l2s, h1s, h15_q4, tails = zip(*snaps[alpha])
        time_rows += [
            {"alpha": alpha, "t": t, "err_L2": e0, "err_H1": e1}
            for t, e0, e1 in zip(times, l2s, h1s)
        ]
        l2t_h1 = math.sqrt(np.trapezoid([e1 * e1 for e1 in h1s], times))
        l4t_h15 = float(np.trapezoid(h15_q4, times)) ** 0.25
        tail_sups = [max(0.0, *col) for col in zip(*tails)]
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

    parts["extras"]["aborted"] = False
    parts["time_rows"] = time_rows
    return parts


def _tail_study(cfg: StudyConfig) -> dict:
    """Audit tail(u(t), R) <= tail(u0, r) + Gamma/(R - r) on every box.

    Gamma is assembled from measured quantities of each run: with
    I = integral of the enstrophy over [0, T] (trapezoid on audit times)
    and C6 the largest measured L^6/gradient ratio over the snapshots,

        Gamma = 2 ||u0|| [ sqrt(T) I + 2 C6^(3/2) ||u0||^(1/2) T^(1/4) I^(3/4) ].

    Rows carry both sides and the margin at every snapshot time and radius;
    each run is streamed, keeping only these floats.  A box that blows up or
    violates the CFL bound gets a failed record and no rows, and the larger
    boxes still run.
    """
    t_end = cfg.solver["t_end"]
    inner = cfg.tail_inner
    columns = ("alpha", "t", "R", "lhs", "rhs", "margin")
    rows: list[dict] = []
    checks: list[CheckRecord] = []
    gammas: dict[str, float] = {}
    min_margin = float("inf")
    constants = None
    scfg = _solver_config(cfg, t_end)
    failed = {}  # alpha -> the failure that ended its march
    for alpha, grid in _box_grids(cfg):
        u0 = _initial_velocity(cfg, grid)
        u0_l2 = l2_norm(u0)
        tail0 = _tail_masses(u0, [inner])[0]
        march = _until_failure(alpha, nse_march(u0, scfg), failed)
        del u0  # the march owns it
        times, masses, ratio_rows, audit_t, audit_ens = [], [], [], [], []
        for t, state, record in march:
            audit_t.append(t)
            audit_ens.append(record.entries["enstrophy"])
            if state is not None:
                times.append(t)
                masses.append(_tail_masses(state, cfg.tail_radii))
                ratio_rows.append(_ratio_row(state))
            del state
        if alpha in failed:  # this box's rows only
            name = f"no_blowup_alpha_{alpha:g}"
            checks.append(_failed_check(failed[alpha], name, t_end))
            continue
        run_constants = _largest_ratios(ratio_rows)
        if constants is None or (
            not math.isnan(run_constants["c_agmon"])
            and math.isnan(constants["c_agmon"])
        ):
            constants = run_constants

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

        for t, lhs_row in zip(times, masses):
            for radius, lhs in zip(cfg.tail_radii, lhs_row):
                rhs = tail0 + gamma / (radius - inner)
                margin = rhs - lhs
                min_margin = min(min_margin, margin)
                rows.append(dict(zip(columns, (alpha, t, radius, lhs, rhs, margin))))

    checks.append(
        CheckRecord(
            "tail_bound_margin_nonnegative",
            bool(rows) and min_margin >= 0.0,
            min_margin if math.isfinite(min_margin) else float("nan"),
            0.0,
            note=(
                "min over all snapshot times and radii of RHS - LHS"
                if rows
                else "no snapshot measured"
            ),
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


def _transfer_study(cfg: StudyConfig) -> dict:
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

    failed = {}  # alpha or "reference" -> the failure that ended its march

    def sup_stats(name, march) -> tuple[float, float]:
        """sup_t ||grad u||^2 and sup_t ||u||_{H^1}^2 over the march's audit
        records; NaN for a run that fails."""
        ens = h1_sq = float("-inf")
        for _, state, rec in _until_failure(name, march, failed):
            del state  # the records are all it reads
            ens = max(ens, rec.entries["enstrophy"])
            h1_sq = max(h1_sq, 2.0 * rec.entries["energy"] + rec.entries["enstrophy"])
        return (float("nan"), float("nan")) if name in failed else (ens, h1_sq)

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
    scfg = _solver_config(cfg, t_star)
    march = nse_march(u0_ref, scfg)
    del u0_ref  # the march owns it
    ref_ens, ref_h1_sq = sup_stats("reference", march)
    ref_blown = int("reference" in failed)
    if ref_blown:
        checks.append(_failed_check(failed["reference"], "reference_completes", t_star))

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
            ens, h1_sq = sup_stats(alpha, nse_march(_initial_velocity(cfg, grid), scfg))
            blown = int(alpha in failed)
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


#: Study kind -> (the study's body, its one-line help for the CLI).
STUDY_KINDS = {
    "inversion": (
        _inversion_study,
        "curl-inversion convergence toward the reference box",
    ),
    "solution": (_solution_study, "trajectory convergence toward the reference run"),
    "tail": (_tail_study, "a-priori tail-mass bound audit"),
    "transfer": (_transfer_study, "H^1 transfer-of-regularity sweep"),
}


def run_study(cfg: StudyConfig) -> StudyResult:
    """Run the study that ``cfg.kind`` names."""
    body = STUDY_KINDS[cfg.kind][0]
    start = time.perf_counter()
    parts = body(cfg)
    return StudyResult(
        kind=cfg.kind,
        config=cfg.to_dict(),
        wall_time_s=time.perf_counter() - start,
        **parts,
    )


# --------------------------------------------------------------------------
# reports


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    into place: a report file is either the old one or complete."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, columns, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in columns])
    _write_atomic(path, buffer.getvalue())


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

    Each file is written atomically (temporary file, then rename), so an
    interrupted run never leaves a truncated report; ``<kind>_times.csv`` is
    written when the study has time rows and removed when it has none.
    Returns the written paths.  CSV bytes depend only on the config on the
    single-threaded path; ``metadata.json`` additionally records wall time.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    table = out / f"{result.kind}.csv"
    _write_csv(table, result.columns, result.rows)
    written.append(table)

    times = out / f"{result.kind}_times.csv"
    if result.time_rows:
        _write_csv(times, result.time_columns, result.time_rows)
        written.append(times)
    else:  # no earlier run's table may stand for this one
        times.unlink(missing_ok=True)

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
    _write_atomic(
        meta_path, json.dumps(_json_safe(meta), indent=2, sort_keys=True) + "\n"
    )
    written.append(meta_path)
    return written
