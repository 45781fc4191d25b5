"""Each workload's code path on a tiny config, and the run.py contract."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.tracer import EXACT_COUNTS, Tracer, layer_metrics
from perfbench.workloads import WORKLOADS, bump_direction, criterion_checks, make_config, run_study
from perfbench.tests.test_tracer import _tiny

ROOT = Path(__file__).resolve().parents[2]


def test_seed_sets_only_a_unit_direction():
    assert bump_direction(7) == bump_direction(7) != bump_direction(8)
    assert math.isclose(sum(c * c for c in bump_direction(3)), 1.0)
    for name, workload in WORKLOADS.items():
        a, b = make_config(workload, 1), make_config(workload, 2)
        a["initial_data"].pop("direction"), b["initial_data"].pop("direction")
        assert a == b == workload.config, name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_config_runs_each_workload_path(name, tmp_path):
    workload = _tiny(name)
    cfg = make_config(workload, 7)
    plain = run_study(workload, cfg, tmp_path / "plain")
    counts = []
    for k in range(2):
        tracer = Tracer()
        with tracer:
            traced = run_study(workload, cfg, tmp_path / f"traced{k}", tracer.span("bench.study"))
        counts.append({n: layer_metrics(tracer.spans)[n] for n in EXACT_COUNTS})
    assert plain.csvs == traced.csvs
    assert counts[0] == counts[1]
    checks = criterion_checks(workload, plain)
    assert checks and all(ok for _, ok in checks), [c for c in checks if not c[1]]
    assert plain.exit_code == 0 and plain.study_s > 0.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solution-n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
