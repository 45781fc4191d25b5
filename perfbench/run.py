"""boxflow benchmark: one workload, measured for a fixed time.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are listed in ``perfbench/workloads.py`` and explained in
``perfbench/README.md``.  The run

1. times ``setup_s``: spawn a fresh interpreter that imports boxflow and
   loads and validates the workload config, several times;
2. runs the workload in one fresh worker process (``perfbench.worker``)
   that repeats the study for ``--seconds`` and checks every result;
3. prints each metric by name and unit, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (``study_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer ones.
Failed checks are the JSON ``failed`` count, out of ``attempted``.  The
program is used from ``src/`` as checked out; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, make_config  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
DEADLINE_S = 170.0
OUT_DIR = ROOT / ".perfbench-out"

_PROBE = (
    "import sys, time\n"
    "import boxflow\n"
    "from boxflow.experiments import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(repr(time.monotonic()))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_seconds(config_path: Path) -> list[float]:
    """Spawn-to-ready times of fresh interpreters that import boxflow and
    load the config (``time.monotonic`` is one clock for all processes)."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(config_path)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def _loadavg1() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "boxflow" / "__init__.py").is_file():
        print(f"error: no boxflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    workload = WORKLOADS[args.workload]
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace} "
        f"fft_workers {workload.threads} nproc {os.cpu_count()} "
        f"loadavg1 {_loadavg1():.2f} python {platform.python_version()} "
        f"numpy {numpy.__version__} scipy {scipy.__version__}"
    )

    setup = []
    if not args.trace:
        config_path = out / "config.json"
        config_path.write_text(json.dumps(make_config(workload, args.seed)))
        try:
            setup = _setup_seconds(config_path)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"error: setup probe failed: {exc}", file=sys.stderr)
            return 1

    cmd = [
        sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {remaining:.0f} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])

    checks = result["checks"]
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAIL {name}")
    studies = result["study_s"]
    if args.trace:
        metrics = _with_units(result["layer"], "per_layer")
    else:
        values = {
            "study_s": statistics.median(studies),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = _with_units(values, "end_to_end")
        print(
            f"studies {len(studies)}: "
            + " ".join(f"{s:.3f}" for s in studies)
            + " s; setup probes: "
            + " ".join(f"{s:.3f}" for s in setup)
            + " s"
        )
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"checks_failed {len(failed)} count (of {len(checks)} attempted)")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def _with_units(values: dict, section: str) -> dict:
    """Every metric of a BENCHMARK.json section, with its declared unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


if __name__ == "__main__":
    sys.exit(main())
