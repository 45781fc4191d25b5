"""Tracer: wrappers are removed after a run, and span arithmetic is right."""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import scipy.fft

from perfbench import tracer as tracing
from perfbench.tracer import Span, Tracer, layer_metrics, self_times
from perfbench.workloads import WORKLOADS, make_config, run_study

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings():
    """Every attribute the tracer may rebind, by identity."""
    import boxflow.vorticity

    out = {("scipy.fft", f): id(getattr(scipy.fft, f)) for f in tracing.FFT_FUNCS}
    for name, module in list(sys.modules.items()):
        if name == "boxflow" or name.startswith("boxflow."):
            out.update({(name, a): id(v) for a, v in vars(module).items()})
    out[("VorticityField", "__init__")] = id(
        boxflow.vorticity.VorticityField.__dict__["__init__"]
    )
    return out


def _tiny(name):
    """The named workload on a small config; same code path, seconds to run."""
    small = {
        "inversion-n160": {"alphas": [1, 2], "base_n": 16, "beta": 4},
        "solution-n64": {"alphas": [1], "base_n": 16, "beta": 2,
                         "solver": {"dt": 2.5e-3, "t_end": 5e-3, "snapshot_every": 1}},
        "transfer-cli-2w": {"alphas": [1], "base_n": 16, "beta": 2,
                            "transfer": {"t_star_factor": 0.2}},
    }[name]
    return replace(WORKLOADS[name], config={**WORKLOADS[name].config, **small})


def test_every_wrapped_attribute_is_restored(tmp_path):
    import boxflow.cli  # noqa: F401  (load every layer before the snapshot)

    before = _bindings()
    workload = _tiny("inversion-n160")
    tracer = Tracer()
    with tracer:
        assert _bindings() != before
        run_study(workload, make_config(workload, 1), tmp_path / "a", tracer.span("bench.study"))
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"experiments.run_study", "vorticity.VorticityField", "scipy.fft.fftn"} <= names


def test_restored_after_an_exception():
    import boxflow.experiments

    before = _bindings()
    try:
        with Tracer():
            boxflow.experiments.parse_config({"kind": "nonsense"})
    except boxflow.ConfigurationError:
        pass
    assert _bindings() == before


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 6.0, 0, "r"),
        Span("b.first", 5.0, 5.5, 3, "r"),
        Span("b.second", 5.25, 5.75, 3, "r"),  # overlaps b.first
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 0.25, 0.5, 0.5]


def test_layer_metrics_on_hand_built_spans():
    spans = [
        Span("bench.study", 0.0, 4.0, -1, "r", {"cpu_s": 2.0, "exit_code": 0}),
        Span("solver.nse_solve", 0.0, 2.0, 0, "r", {"n": 16, "steps": 4, "trajectory_bytes": 1 << 20}),
        Span("scipy.fft.fftn", 0.5, 1.0, 1, "r", {"bytes": 10, "workers": 1, "physical": 3 * 16**3}),
        Span("scipy.fft.irfftn", 1.0, 1.5, 1, "r", {"bytes": 10, "workers": 2, "physical": 16**3}),
        Span("norms.l2_norm", 2.0, 3.0, 0, "r"),
        Span("norms.spectral_moment", 2.0, 3.0, 4, "r"),
        Span("scipy.fft.rfftn", 2.0, 2.5, 5, "r", {"bytes": 10, "workers": 1, "physical": 16**3}),
    ]
    m = layer_metrics(spans)
    assert m["spectral_core.fft_calls"] == 3
    assert m["spectral_core.fft_real_share"] == 2 / 3
    assert m["spectral_core.fft_threaded_share"] == 1 / 3
    assert m["solver.steps"] == 4
    assert m["solver.transforms_per_step"] == (3 + 1) / 4
    assert m["solver.s_per_step.n16"] == 0.5
    assert m["solver.trajectory_mb"] == 1.0
    assert m["norms.calls"] == 1 and m["norms.s"] == 1.0
    assert m["norms.rfft_route_share"] == 1.0
    assert m["experiments.cpu_util"] == 0.5


def test_metric_names_and_declared_set():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    computed = set(layer_metrics([Span("bench.study", 0.0, 1.0, -1, "r", {"cpu_s": 1.0, "exit_code": 0})]))
    computed |= {"trace.study_s", "trace.overhead_s"}
    assert computed == {m["name"] for m in bench["per_layer"]}
