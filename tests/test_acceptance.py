"""Acceptance gate: the thirteen numbered criteria, one test each.

Every test computes its criterion at the stated tolerance and registers a
single PASS/FAIL line (echoed again in the terminal summary, see
conftest.py).  Data scales are tuned so each solver run is resolved at its
lattice and sits inside the guaranteed existence horizon where the
criterion requires it; runtime budgets are asserted where stated.
"""

import json
import math
import time

import numpy as np
import pytest

from boxflow.experiments import emit_report, parse_config, run_study
from boxflow.extension import extend_field, make_cutoff
from boxflow.initial_data import BumpSpec, bump_vorticity
from boxflow.norms import (
    inequality_report,
    l2_norm,
    lebesgue_norm,
    tail_mass,
)
from boxflow.solver import (
    SolverConfig,
    energy_audit,
    enstrophy_audit,
    existence_time,
    nse_solve,
    pressure_solve,
)
from boxflow.spectral_core import BoxGrid, Field, dilate, rescale_field
from boxflow.vorticity import curl_identity_report, curl_inv_periodic

from conftest import div_free_field, taylor_green

REPORT: list[str] = []


def record(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {label:<26} {'PASS' if ok else 'FAIL'}  {detail}"
    REPORT.append(line)
    print(line)
    assert ok, line


# Shared trajectories for the energy and enstrophy criteria: gentle data
# (large-scale, modest amplitude) keeps both runs inside their guaranteed
# horizon and the audit quadrature comfortably below the 1e-6 target.
@pytest.fixture(scope="module")
def tg_energy_run():
    grid = BoxGrid(2 * math.pi, 32)
    u0 = taylor_green(grid, amplitude=0.7)
    snaps = tuple(np.arange(1, 8) * 0.01)
    traj = nse_solve(
        u0, SolverConfig(dt=1e-3, t_end=0.08, snapshot_times=snaps, audit_every=1)
    )
    return u0, traj


@pytest.fixture(scope="module")
def bump_energy_run():
    grid = BoxGrid(10.0, 48)
    w = bump_vorticity(BumpSpec(support_radius=6.0, amplitude=0.25), grid)
    u0 = curl_inv_periodic(w)
    snaps = tuple(np.arange(1, 8) * (0.15 / 8))
    traj = nse_solve(
        u0, SolverConfig(dt=1e-3, t_end=0.15, snapshot_times=snaps, audit_every=1)
    )
    return u0, traj


def test_criterion_01_curl_identity(rng):
    start = time.perf_counter()
    worst = 0.0
    grid = BoxGrid(1.0, 32)
    for _ in range(20):
        rep = curl_identity_report(div_free_field(grid, rng))
        assert not rep.flags["not_applicable"]
        worst = max(worst, rep.entries["rel_diff"])
    gpi = BoxGrid(math.pi, 32)
    traj = nse_solve(
        taylor_green(gpi),
        SolverConfig(
            dt=1e-3,
            t_end=0.02,
            snapshot_times=(5e-3, 1e-2, 1.5e-2),
            audit_every=5,
        ),
    )
    for state in traj.states:
        worst = max(worst, curl_identity_report(state).entries["rel_diff"])
    wall = time.perf_counter() - start
    ok = worst <= 1e-10 and wall < 10.0
    record(
        1,
        "curl identity",
        ok,
        f"max rel |grad-curl| = {worst:.2e} <= 1e-10 over 20 fields + "
        f"{len(traj.states)} snapshots, {wall:.1f}s < 10s",
    )


def test_criterion_02_rescaling_law(rng):
    grid = BoxGrid(1.0, 32)
    worst = 0.0
    for _ in range(5):
        u = div_free_field(grid, rng)
        for p, k in ((2, 0), (2, 1), (2, 2), (4, 0)):
            for alpha in (2.0, 4.0):
                rep = rescale_field(u, alpha, p, k)
                worst = max(
                    worst, abs(rep.measured_ratio / rep.predicted_ratio - 1.0)
                )
    ok = worst <= 1e-10
    record(
        2,
        "rescaling law",
        ok,
        f"max |measured/predicted - 1| = {worst:.2e} <= 1e-10 "
        f"over (p,k) in {{(2,0),(2,1),(2,2),(4,0)}}, alpha in {{2,4}}",
    )


def test_criterion_03_extension_bounds(rng):
    tail_radii = {1.0: (), 2.0: (0.5, 0.9), 4.0: (1.0, 2.0, 2.9)}
    violations = 0
    checked = 0
    for alpha, radii in tail_radii.items():
        grid = BoxGrid(alpha, 32)
        ref = BoxGrid(2.0 * alpha, 64)
        cutoff = make_cutoff(alpha)
        for _ in range(20):
            u = div_free_field(grid, rng)
            ext = extend_field(u, ref, cutoff)
            checked += 1
            if l2_norm(ext) > 27.0 * l2_norm(u):
                violations += 1
            for R in radii:
                checked += 1
                if tail_mass(ext, R) > 27.0 * tail_mass(u, R):
                    violations += 1
    ok = violations == 0
    record(
        3,
        "extension bounds",
        ok,
        f"{violations} violations in {checked} factor-27 checks "
        f"(20 fields per alpha in {{1,2,4}})",
    )


def test_criterion_04_alpha_uniform_inequalities(rng):
    grid = BoxGrid(1.0, 32)
    fields = [div_free_field(grid, rng) for _ in range(5)]
    reports = [inequality_report(u) for u in fields]
    c_z = max(
        l2_norm(pressure_solve(u)) / lebesgue_norm(u, 4) ** 2 for u in fields
    )
    worst_drift = 0.0
    worst_slack = 0.0
    for u, rep in zip(fields, reports):
        for alpha in (2.0, 4.0):
            v = dilate(u, alpha)
            rep_a = inequality_report(v)
            for key in ("agmon_ratio", "l6_ratio"):
                worst_drift = max(
                    worst_drift,
                    abs(rep_a.entries[key] / rep.entries[key] - 1.0),
                )
            ratio = l2_norm(pressure_solve(v)) / lebesgue_norm(v, 4) ** 2
            worst_slack = max(worst_slack, ratio / c_z)
    ok = worst_drift <= 1e-10 and worst_slack <= 1.01
    record(
        4,
        "alpha-uniform inequalities",
        ok,
        f"ratio drift {worst_drift:.2e} <= 1e-10, "
        f"pressure slack {worst_slack:.6f} <= 1.01",
    )


def test_criterion_05_exact_solution():
    grid = BoxGrid(1.0, 16)
    _, y, _ = grid.meshgrid()
    arr = np.zeros((3, 16, 16, 16))
    arr[0] = np.sin(np.pi * y)
    u0 = Field.from_physical(grid, arr)
    traj = nse_solve(u0, SolverConfig(dt=1e-3, t_end=0.5, audit_every=100))
    exact = Field.from_physical(grid, arr * math.exp(-math.pi**2 * 0.5))
    rel = l2_norm(traj.states[-1] - exact) / l2_norm(exact)
    ok = rel <= 1e-10
    record(
        5,
        "exact decaying shear",
        ok,
        f"rel L2 error {rel:.2e} <= 1e-10 at t=0.5, dt=1e-3, N=16",
    )


def test_criterion_06_integrator_order():
    grid = BoxGrid(math.pi, 32)
    finals = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = nse_solve(
            taylor_green(grid, amplitude=20.0),
            SolverConfig(dt=dt, t_end=0.1, audit_every=1000),
        )
        finals.append(traj.states[-1])
    e1 = l2_norm(finals[0] - finals[1])
    e2 = l2_norm(finals[1] - finals[2])
    order = math.log2(e1 / e2)
    ok = order >= 3.8
    record(
        6,
        "integrator order",
        ok,
        f"observed order {order:.3f} >= 3.8 under dt halving (N=32, t=0.1)",
    )


def test_criterion_07_energy_inequality(tg_energy_run, bump_energy_run):
    worst_rel = 0.0
    for _, traj in (tg_energy_run, bump_energy_run):
        e0 = traj.diagnostics[0].entries["energy"]
        recs = energy_audit(traj)
        assert len(recs) == len(traj.diagnostics)
        worst = max(abs(r.entries["residual"]) for r in recs)
        worst_rel = max(worst_rel, worst / e0)
    ok = worst_rel <= 1e-6
    record(
        7,
        "energy inequality",
        ok,
        f"max |rho(t)|/E(0) = {worst_rel:.2e} <= 1e-6 "
        f"(2 runs, dt=1e-3, audits every step)",
    )


def test_criterion_08_enstrophy_bound(tg_energy_run, bump_energy_run):
    ok = True
    details = []
    for name, (u0, traj) in (("tg", tg_energy_run), ("bump", bump_energy_run)):
        c_a = max(
            inequality_report(s).entries["agmon_ratio"] for s in traj.states
        )
        est = existence_time(u0, c_a)
        t_end = traj.diagnostics[-1].time
        ok &= t_end <= est.t_guaranteed
        recs = enstrophy_audit(traj, c_a)
        ok &= all(not r.flags["violation"] for r in recs)
        ok &= all(r.flags["bound_applicable"] for r in recs)
        ok &= all(not r.flags["bound_violated"] for r in recs)
        times = [r.time for r in traj.diagnostics]
        lap2 = [r.entries["laplacian_norm"] ** 2 for r in traj.diagnostics]
        integral = float(np.trapezoid(lap2, times))
        ok &= integral <= 2.5 * est.h1_bound
        details.append(
            f"{name}: T={t_end:g} <= Tg={est.t_guaranteed:.3g}, "
            f"int={integral:.3g} <= {2.5 * est.h1_bound:.3g}"
        )
    record(8, "enstrophy bound", bool(ok), "; ".join(details))


def test_criterion_09_inversion_convergence():
    cfg = parse_config(
        {
            "kind": "inversion",
            "alphas": [1, 2, 4],
            "base_n": 32,
            "beta": 8,
            "initial_data": {"family": "bump", "support_radius": 0.5},
        }
    )
    res = run_study(cfg)
    errs = [row["err_H1"] for row in res.rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    ok = (
        res.passed
        and decreasing
        and all(r <= 0.5 for r in ratios)
        and res.wall_time_s < 120.0
    )
    record(
        9,
        "inversion convergence",
        ok,
        f"err_H1 = {[f'{e:.3e}' for e in errs]}, "
        f"ratios = {[f'{r:.2f}' for r in ratios]} <= 0.5, "
        f"{res.wall_time_s:.0f}s < 120s",
    )


def test_criterion_10_solution_convergence():
    cfg = parse_config(
        {
            "kind": "solution",
            "alphas": [1, 2, 4],
            "base_n": 16,
            "beta": 8,
            "initial_data": {"family": "bump", "support_radius": 0.5},
            "solver": {"dt": 2.5e-3, "t_end": 0.05, "snapshot_every": 5},
        }
    )
    res = run_study(cfg)
    h1 = [row["err_L2T_H1"] for row in res.rows]
    h15 = [row["err_L4T_H1.5"] for row in res.rows]
    ok = (
        res.passed
        and all(b < a for a, b in zip(h1, h1[1:]))
        and all(math.isfinite(v) for v in h15)
        and all(b < a for a, b in zip(h15, h15[1:]))
        and res.wall_time_s < 600.0
    )
    record(
        10,
        "solution convergence",
        ok,
        f"L2T_H1 = {[f'{e:.3e}' for e in h1]}, "
        f"L4T_H1.5 = {[f'{e:.3e}' for e in h15]}, "
        f"{res.wall_time_s:.0f}s < 600s",
    )


def test_criterion_11_tail_bound():
    cfg = parse_config(
        {
            "kind": "tail",
            "alphas": [4],
            "base_n": 64,
            "initial_data": {"family": "bump", "support_radius": 0.5},
            "solver": {"dt": 2e-3, "t_end": 0.05},
            "tail": {"inner_radius": 1.0, "radii": [2.0, 2.5, 3.0]},
        }
    )
    res = run_study(cfg)
    min_margin = min(row["margin"] for row in res.rows)
    ok = res.passed and min_margin >= 0.0
    record(
        11,
        "tail bound",
        ok,
        f"min margin {min_margin:.3e} >= 0 over {len(res.rows)} "
        f"(time, R) audit points, R in {{2, 2.5, 3}}",
    )


def test_criterion_12_transfer_study():
    cfg = parse_config(
        {
            "kind": "transfer",
            "alphas": [1, 2],
            "base_n": 16,
            "beta": 4,
            "initial_data": {
                "family": "bump",
                "support_radius": 0.5,
                "amplitude": 10.0,
            },
            "solver": {"dt": 2e-3},
            "transfer": {"t_star_factor": 3.0},
        }
    )
    res = run_study(cfg)
    alpha_star = res.extras["alpha_star"]
    sweep = [r for r in res.rows if not r["is_reference"]]
    at_or_above = [r for r in sweep if alpha_star is not None and r["alpha"] >= alpha_star]
    ok = (
        res.passed
        and alpha_star is not None
        and len(at_or_above) > 0
        and all(r["blown_up"] == 0 and r["within_2m"] == 1 for r in at_or_above)
    )
    record(
        12,
        "transfer study",
        ok,
        f"alpha* = {alpha_star}, T* = 3*Tg = {res.extras['t_star']:.4g}, "
        f"{len(at_or_above)} boxes at alpha >= alpha* all within 2M",
    )


def test_criterion_13_determinism(tmp_path):
    data = {
        "kind": "inversion",
        "alphas": [1, 2],
        "base_n": 16,
        "initial_data": {"family": "bump", "support_radius": 0.5},
    }
    digests = []
    for tag in ("a", "b"):
        res = run_study(parse_config(json.loads(json.dumps(data))))
        paths = emit_report(res, tmp_path / tag)
        digests.append(
            {p.name: p.read_bytes() for p in paths if p.suffix == ".csv"}
        )
    ok = digests[0] == digests[1] and len(digests[0]) >= 2
    record(
        13,
        "determinism",
        ok,
        f"{len(digests[0])} CSVs byte-identical across two runs",
    )
