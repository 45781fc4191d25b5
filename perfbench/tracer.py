"""Spans around boxflow's public entry points, installed from outside.

The tracer wraps every public function of the layer modules wherever the
function object is bound (``experiments`` imports ``nse_solve``,
``extend_field`` and others by name, so each binding is patched), the
``VorticityField`` constructor, and ``scipy.fft.{fftn,ifftn,rfftn,irfftn}``.
Each call becomes a :class:`Span` (name, start, end, parent, run id) kept in
memory; :meth:`Tracer.dump` writes them out when the run ends.  Nothing under
``src/`` changes: :meth:`Tracer.uninstall` puts every original back.

:func:`layer_metrics` turns the spans of one study into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import scipy.fft

LAYERS = (
    "spectral_core",
    "initial_data",
    "vorticity",
    "extension",
    "norms",
    "solver",
    "experiments",
    "cli",
)
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn")
SOLVER_SIZES = (16, 32, 64)
MB = float(1 << 20)


class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent", "run_id", "attrs")

    def __init__(self, name, start, end, parent, run_id, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run_id,
            "attrs": self.attrs or {},
        }


def _solver_steps(cfg) -> int:
    """Steps ``nse_solve`` takes for a SolverConfig: full dt steps to t_end,
    plus one shorter step when a remainder is left."""
    n_full = int(cfg.t_end / cfg.dt + 1e-12)
    remainder = cfg.t_end - n_full * cfg.dt
    return n_full + (1 if remainder > 1e-9 * cfg.dt else 0)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self, run_id: str = ""):
        self.spans: list[Span] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        traced.__wrapped__ = fn
        return traced

    def _wrap_alloc(self, fn, name: str, before, after):
        """Wrap ``fn`` and record its tracemalloc peak above the level at
        entry, plus whatever ``before(*args, **kwargs)`` and ``after(result)``
        return."""
        tracer = self

        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            base = 0
            if tracemalloc.is_tracing():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            index = tracer._open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = tracer._close(index)
                if tracemalloc.is_tracing():
                    span.attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1] - base
            if after:
                span.attrs.update(after(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, fn, name: str):
        tracer = self
        inverse_real = name.endswith("irfftn")

        def traced(x, *args, **kwargs):
            index = tracer._open(name)
            try:
                out = fn(x, *args, **kwargs)
            finally:
                span = tracer._close(index)
            workers = kwargs.get("workers", args[4] if len(args) > 4 else None)
            if workers is None:
                workers = scipy.fft.get_workers()
            span.attrs = {
                "bytes": int(getattr(x, "nbytes", 0)) + int(out.nbytes),
                "workers": int(workers),
                "physical": int(out.size if inverse_real else getattr(x, "size", 0)),
            }
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every boxflow module."""
        for module in _boxflow_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for fname in FFT_FUNCS:
            original = getattr(scipy.fft, fname)
            wrapped = self._wrap_fft(original, f"scipy.fft.{fname}")
            self._patches.append((scipy.fft, fname, original))
            setattr(scipy.fft, fname, wrapped)
            self._patch_everywhere(original, wrapped)

        solver = importlib.import_module("boxflow.solver")
        extension = importlib.import_module("boxflow.extension")
        special = {
            solver.nse_solve: self._wrap_alloc(
                solver.nse_solve,
                "solver.nse_solve",
                lambda u0, cfg: {"n": u0.grid.N, "steps": _solver_steps(cfg)},
                lambda traj: {
                    "trajectory_bytes": sum(
                        s.spectral.nbytes for s in traj.states if s.has_spectral
                    )
                },
            ),
            extension.extend_field: self._wrap_alloc(
                extension.extend_field, "extension.extend_field", None, None
            ),
        }
        for layer in LAYERS:
            module = importlib.import_module(f"boxflow.{layer}")
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrapped = special.get(fn) or self._wrap(fn, f"{layer}.{fname}")
                self._patch_everywhere(fn, wrapped)

        vorticity = importlib.import_module("boxflow.vorticity")
        cls = vorticity.VorticityField
        init = cls.__dict__["__init__"]
        self._patches.append((cls, "__init__", init))
        cls.__init__ = self._wrap(init, "vorticity.VorticityField")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([s.to_json() for s in self.spans], handle)


def _boxflow_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "boxflow" or name.startswith("boxflow."))
    ]


# -- span arithmetic ----------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def _ancestor(spans, span, prefix):
    """Nearest enclosing span whose name starts with ``prefix``, or None."""
    parent = span.parent
    while parent >= 0:
        if spans[parent].name.startswith(prefix):
            return spans[parent]
        parent = spans[parent].parent
    return None


def _outermost(spans, prefix):
    """Spans named ``prefix...`` not nested in another such span."""
    return [
        s for s in spans if s.name.startswith(prefix) and _ancestor(spans, s, prefix) is None
    ]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced study; ``spans`` are its spans only
    (indices in ``parent`` refer to this list)."""
    selfs = self_times(spans)
    ffts = _outermost(spans, "scipy.fft.")
    n_fft = len(ffts)
    solves = [s for s in spans if s.name == "solver.nse_solve"]
    steps = sum(s.attrs["steps"] for s in solves)
    solve_s = sum(s.duration for s in solves)
    moments = [s for s in spans if s.name == "norms.spectral_moment"]
    rfft_route = {
        s.parent
        for s in spans
        if s.name == "scipy.fft.rfftn"
        and s.parent >= 0
        and spans[s.parent].name == "norms.spectral_moment"
    }
    transforms = 0
    for span in ffts:
        solve = _ancestor(spans, span, "solver.nse_solve")
        if solve is not None:
            transforms += span.attrs["physical"] // solve.attrs["n"] ** 3
    norms_top = _outermost(spans, "norms.")
    extends = [s for s in spans if s.name == "extension.extend_field"]
    study = [s for s in spans if s.name == "bench.study"]

    def total(name):
        return sum(s.duration for s in _outermost(spans, name) if s.name == name)

    def self_total(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    def share(count, whole):
        return count / whole if whole else 0.0

    out = {
        "spectral_core.fft_calls": n_fft,
        "spectral_core.fft_s": sum(s.duration for s in ffts),
        "spectral_core.fft_gb": sum(s.attrs["bytes"] for s in ffts) / 1e9,
        "spectral_core.fft_real_share": share(
            sum(1 for s in ffts if s.name.endswith(("rfftn", "irfftn"))), n_fft
        ),
        "spectral_core.fft_threaded_share": share(
            sum(1 for s in ffts if s.attrs["workers"] > 1), n_fft
        ),
        "initial_data.bump_vorticity_s": self_total("initial_data.bump_vorticity"),
        "vorticity.validate_s": total("vorticity.VorticityField"),
        "vorticity.curl_inv_periodic_s": total("vorticity.curl_inv_periodic"),
        "extension.extend_field_s": sum(s.duration for s in extends),
        "extension.extend_field_calls": len(extends),
        "extension.peak_alloc_mb": max(
            (s.attrs.get("peak_alloc", 0) for s in extends), default=0
        )
        / MB,
        "norms.s": sum(s.duration for s in norms_top),
        "norms.calls": len(norms_top),
        "norms.rfft_route_share": share(len(rfft_route), len(moments)),
        "solver.nse_solve_s": solve_s,
        "solver.steps": steps,
    }
    for n in SOLVER_SIZES:
        at_n = [s for s in solves if s.attrs["n"] == n]
        n_steps = sum(s.attrs["steps"] for s in at_n)
        out[f"solver.s_per_step.n{n}"] = share(sum(s.duration for s in at_n), n_steps)
    out.update(
        {
            "solver.mpoint_steps_per_s": share(
                sum(s.attrs["n"] ** 3 * s.attrs["steps"] for s in solves) / 1e6, solve_s
            ),
            "solver.transforms_per_step": share(transforms, steps),
            "solver.pressure_solve_s": total("solver.pressure_solve"),
            "solver.trajectory_mb": sum(s.attrs["trajectory_bytes"] for s in solves) / MB,
            "solver.peak_alloc_mb": max(
                (s.attrs.get("peak_alloc", 0) for s in solves), default=0
            )
            / MB,
            "experiments.self_s": self_total("experiments.run_study"),
            "experiments.measure_constants_s": total("experiments.measure_constants"),
            "experiments.emit_report_s": total("experiments.emit_report"),
            "experiments.parse_config_s": total("experiments.parse_config"),
            "experiments.cpu_util": share(
                sum(s.attrs["cpu_s"] for s in study), sum(s.duration for s in study)
            ),
            "cli.main_s": total("cli.main"),
            "cli.exit_code": max((s.attrs["exit_code"] for s in study), default=0),
        }
    )
    return out


#: Per-layer metrics that are exact counts: identical on every traced study
#: of a workload, whatever the seed.
EXACT_COUNTS = (
    "spectral_core.fft_calls",
    "spectral_core.fft_threaded_share",
    "extension.extend_field_calls",
    "norms.calls",
    "solver.steps",
    "solver.transforms_per_step",
)


def median_metrics(per_study: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced studies; exact counts are
    taken from the first (the caller checks that they repeat)."""
    return {
        name: per_study[0][name]
        if name in EXACT_COUNTS
        else statistics.median(m[name] for m in per_study)
        for name in per_study[0]
    }
