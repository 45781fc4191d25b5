"""The benchmark's workloads: study configs, one timed study, its checks.

A workload is a study config run end to end, either in process
(``parse_config`` -> ``run_study`` -> ``emit_report``) or through the
``boxflow`` command line.  The seed sets only the bump ``direction`` (a
random unit vector); every seed does the same work.

Importing this module does not import boxflow, so ``run.py`` can build
configs without paying boxflow's import time.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # the study config without the bump direction
    via_cli: bool = False
    threads: int = 1


_BUMP = {"family": "bump", "support_radius": 0.5}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inversion-n160",
            {
                "kind": "inversion",
                "alphas": [1, 2, 4],
                "base_n": 20,
                "beta": 8,
                "initial_data": dict(_BUMP),
            },
        ),
        Workload(
            "solution-n64",
            {
                "kind": "solution",
                "alphas": [1, 2],
                "base_n": 16,
                "beta": 4,
                "initial_data": dict(_BUMP),
                "solver": {"dt": 2.5e-3, "t_end": 0.0125, "snapshot_every": 1},
            },
        ),
        Workload(
            "transfer-cli-2w",
            {
                "kind": "transfer",
                "alphas": [1, 2],
                "base_n": 16,
                "beta": 4,
                "initial_data": dict(_BUMP, amplitude=10.0),
                "solver": {"dt": 2e-3},
                "transfer": {"t_star_factor": 0.6},
            },
            via_cli=True,
            threads=2,
        ),
    )
}


def bump_direction(seed: int) -> list[float]:
    """A unit vector drawn from ``seed``; the only input the seed changes."""
    rng = random.Random(seed)
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-6:
            return [c / norm for c in v]


def make_config(workload: Workload, seed: int) -> dict:
    cfg = copy.deepcopy(workload.config)
    cfg["initial_data"]["direction"] = bump_direction(seed)
    return cfg


@dataclass
class Outcome:
    """One study: its wall time, exit code and report files."""

    study_s: float
    exit_code: int
    csvs: dict[str, bytes]
    checks: list[dict]
    table: list[dict]
    metadata: dict


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def run_study(workload: Workload, cfg: dict, out_dir: Path, span=None) -> Outcome:
    """Run one study into ``out_dir`` and read its reports back.

    ``span`` is a context manager (a tracer span) around the timed part, or
    None.  The timed part is what a user waits for: config parsing, the
    study and the report.
    """
    from boxflow import cli, experiments

    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(cfg))
    report_dir = out_dir / "report"
    argv = [
        cfg["kind"], "--config", str(config_path), "--out", str(report_dir),
        "--threads", str(workload.threads),
    ]
    exit_code = 0
    with span or contextlib.nullcontext() as active:
        cpu0 = os.times()
        t0 = time.perf_counter()
        if workload.via_cli:
            with contextlib.redirect_stdout(io.StringIO()):
                exit_code = cli.main(argv)
        else:
            result = experiments.run_study(experiments.parse_config(copy.deepcopy(cfg)))
            experiments.emit_report(result, report_dir)
        study_s = time.perf_counter() - t0
        cpu1 = os.times()
        cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        if active is not None:
            active.attrs.update(cpu_s=cpu_s, exit_code=exit_code)

    csvs = {p.name: p.read_bytes() for p in sorted(report_dir.glob("*.csv"))}
    return Outcome(
        study_s=study_s,
        exit_code=exit_code,
        csvs=csvs,
        checks=_read_csv(report_dir / "checks.csv"),
        table=_read_csv(report_dir / f"{cfg['kind']}.csv"),
        metadata=json.loads((report_dir / "metadata.json").read_text()),
    )


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def criterion_checks(workload: Workload, out: Outcome) -> list[tuple[str, bool]]:
    """Every study check plus the acceptance conditions of the workload's
    study kind, as (name, passed) pairs."""
    checks = [(f"study.{c['name']}", c["passed"] == "1") for c in out.checks]
    kind = workload.config["kind"]
    if kind == "inversion":
        errs = [float(r["err_H1"]) for r in out.table]
        checks.append(("err_H1_strictly_decreasing", _strictly_decreasing(errs)))
        checks.append(
            ("err_H1_ratios_le_0.5", all(b / a <= 0.5 for a, b in zip(errs, errs[1:])))
        )
    elif kind == "solution":
        for column in ("err_L2T_H1", "err_L4T_H1.5"):
            vals = [float(r[column]) for r in out.table]
            checks.append((f"{column}_strictly_decreasing", _strictly_decreasing(vals)))
            checks.append((f"{column}_finite", all(math.isfinite(v) for v in vals)))
    elif kind == "transfer":
        alpha_star = out.metadata.get("alpha_star")
        checks.append(("alpha_star_found", alpha_star is not None))
        above = [
            r for r in out.table
            if r["is_reference"] == "0"
            and alpha_star is not None
            and float(r["alpha"]) >= alpha_star
        ]
        checks.append(
            (
                "boxes_at_or_above_alpha_star_within_2m",
                bool(above)
                and all(r["blown_up"] == "0" and r["within_2m"] == "1" for r in above),
            )
        )
    if workload.via_cli:
        checks.append(("cli_exit_code_0", out.exit_code == 0))
    return checks
