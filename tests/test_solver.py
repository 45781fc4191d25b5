"""Time stepper and audits, anchored on two analytic flows.

The decaying shear (A sin(pi y / alpha), 0, 0) has an identically vanishing
nonlinear term, so the integrating factor must reproduce e^{-(pi/alpha)^2 t}
decay to roundoff; Taylor-Green data exercises the full nonlinear path,
where correctness shows up as fourth-order self-convergence, conservation
laws, and audit residuals at quadrature level.  Property tests over random
(alpha, N) pin the half-spectrum nonlinear term to an independently built
convective product.
"""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from boxflow.errors import (
    BlowUpError,
    ConfigurationError,
    DataError,
    StepSizeError,
    UsageError,
)
from boxflow.initial_data import BumpSpec, bump_vorticity
from boxflow.norms import (
    inequality_report,
    l2_norm,
    lebesgue_norm,
    relative_divergence,
    sobolev_norm,
)
from boxflow.solver import (
    DIAGNOSTIC_COLUMNS,
    SolverConfig,
    Trajectory,
    _StepKernel,
    energy_audit,
    enstrophy_audit,
    existence_time,
    nse_solve,
    pressure_solve,
    write_diagnostics_csv,
)
from boxflow.spectral_core import (
    BoxGrid,
    Field,
    _fftn,
    _hermitian_fill,
    _rfftn,
    dealias,
    divergence,
    gradient,
    laplacian,
    leray_project,
    set_default_workers,
)
from boxflow.vorticity import curl_inv_periodic

from conftest import div_free_field, taylor_green


def shear_flow(grid: BoxGrid, amplitude: float = 1.0) -> Field:
    _, y, _ = grid.meshgrid()
    u = np.zeros((3, grid.N, grid.N, grid.N))
    u[0] = amplitude * np.sin(np.pi * y / grid.alpha)
    return Field.from_physical(grid, u)


def shear_rate(grid: BoxGrid) -> float:
    return (np.pi / grid.alpha) ** 2


# ------------------------------------------------------------------ stepping


def test_zero_field_stays_zero():
    grid = BoxGrid(2.0, 16)
    zero = Field.from_physical(grid, np.zeros((3, 16, 16, 16)))
    traj = nse_solve(zero, SolverConfig(dt=1e-3, t_end=0.02))
    for state in traj.states:
        assert np.all(state.physical == 0.0)
    for rec in traj.diagnostics:
        assert rec.entries["energy"] == 0.0
        assert rec.flags["pressure_degenerate"]


def test_single_step_matches_viscous_decay():
    grid = BoxGrid(2.0, 16)
    u0 = shear_flow(grid)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3)
    u1 = nse_solve(u0, cfg).final
    decay = math.exp(-shear_rate(grid) * cfg.dt)
    assert np.abs(u1.physical - decay * u0.physical).max() < 1e-12


def test_shear_decay_over_half_time_unit():
    grid = BoxGrid(2.0, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=0.5))
    e0 = traj.diagnostics[0].entries["energy"]
    e_end = traj.diagnostics[-1].entries["energy"]
    exact = e0 * math.exp(-2.0 * shear_rate(grid) * 0.5)
    assert abs(e_end - exact) / e0 < 1e-10
    max_u = [r.entries["max_u"] for r in traj.diagnostics]
    assert all(b < a for a, b in zip(max_u, max_u[1:]))


def test_final_partial_step_reaches_horizon_exactly():
    grid = BoxGrid(2.0, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=3e-3, t_end=0.01))
    assert traj.times[-1] == 0.01
    e0 = traj.diagnostics[0].entries["energy"]
    exact = e0 * math.exp(-2.0 * shear_rate(grid) * 0.01)
    assert abs(traj.diagnostics[-1].entries["energy"] - exact) / e0 < 1e-12


def test_fourth_order_self_convergence():
    # amplitude 20 pushes the nonlinear time error far above roundoff while
    # staying inside the CFL ceiling (max|u| dt / h = 0.41 at dt = 4e-3)
    grid = BoxGrid(np.pi, 16)
    tg = taylor_green(grid, amplitude=20.0)
    ref = nse_solve(tg, SolverConfig(dt=2.5e-4, t_end=0.1, audit_every=100)).final
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        fin = nse_solve(tg, SolverConfig(dt=dt, t_end=0.1, audit_every=25)).final
        errors.append(l2_norm(fin - ref) / l2_norm(ref))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o > 3.8 for o in orders), (errors, orders)


def test_momentum_and_mean_preserved_exactly():
    grid = BoxGrid(np.pi, 16)
    tg = taylor_green(grid)
    traj = nse_solve(tg, SolverConfig(dt=1e-3, t_end=0.02))
    # bit-exact: the semigroup is 1 at k = 0 and the nonlinear increment's
    # zero mode is zeroed, so whatever mean the data carries is untouched
    assert np.array_equal(
        traj.final.spectral[:, 0, 0, 0], tg.spectral[:, 0, 0, 0]
    )


def test_trajectory_smoke_run_from_bump_vorticity():
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 32))
    u0 = curl_inv_periodic(w)
    traj = nse_solve(
        u0, SolverConfig(dt=1e-3, t_end=0.1, snapshot_times=(0.05,), audit_every=10)
    )
    assert traj.times == (0.0, 0.05, 0.1)
    for state in traj.states:
        assert relative_divergence(state) <= 1e-10
    energies = [r.entries["energy"] for r in traj.diagnostics]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_snapshots_snap_to_nearest_step():
    grid = BoxGrid(2.0, 16)
    cfg = SolverConfig(dt=1e-3, t_end=0.01, snapshot_times=(0.0033, 0.02))
    traj = nse_solve(shear_flow(grid), cfg)
    # 0.0033 snaps to step 3; 0.02 clamps to the final step
    assert traj.times == (0.0, 0.003, 0.01)


def test_audit_cadence_includes_endpoints():
    grid = BoxGrid(2.0, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=3e-3, t_end=0.01, audit_every=2))
    times = [round(r.time, 9) for r in traj.diagnostics]
    assert times == [0.0, 0.006, 0.01]


# ------------------------------------------------- nonlinear term properties

# even N in [8, 48]; the examples pin lattices that 3 divides
grids = st.builds(
    BoxGrid,
    alpha=st.floats(0.25, 8.0),
    N=st.integers(4, 24).map(lambda k: 2 * k),
)
seeds = st.integers(0, 2**32 - 1)
properties = settings(max_examples=25, deadline=None)


def random_velocity(grid: BoxGrid, seed: int) -> Field:
    # a broad envelope, so the modes above N/3 carry real content
    return div_free_field(grid, np.random.default_rng(seed), m0=grid.N / 4)


def convective_rhs(u: Field) -> np.ndarray:
    """-P[(v.grad)v] for v the 2/3-truncated u, output masked, zero mode 0."""
    v = dealias(u)
    f = np.empty_like(v.physical)
    for i in range(3):
        f[i] = np.sum(v.physical * gradient(v.component(i)).physical, axis=0)
    out = leray_project(dealias(Field.from_physical(u.grid, f))).spectral
    out[:, 0, 0, 0] = 0.0
    return -out


@properties
@given(grid=grids, seed=seeds)
@example(grid=BoxGrid(1.0, 24), seed=1)
@example(grid=BoxGrid(2.0, 48), seed=2)
def test_rotational_rhs_matches_convective_product(grid, seed):
    u = random_velocity(grid, seed)
    kernel = _StepKernel(grid)
    got = _hermitian_fill(kernel.rhs(kernel.half(u.spectral)))
    want = convective_rhs(u)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@properties
@given(grid=grids, seed=seeds)
@example(grid=BoxGrid(1.0, 24), seed=3)
def test_nonlinear_term_does_no_work(grid, seed):
    u = random_velocity(grid, seed)
    kernel = _StepKernel(grid)
    uhat = kernel.half(u.spectral)
    rhs = kernel.rhs(uhat)
    work = np.sum(kernel.mult * np.real(np.conj(uhat) * rhs))
    scale = np.sqrt(np.sum(kernel.mult * np.abs(uhat) ** 2))
    scale *= np.sqrt(np.sum(kernel.mult * np.abs(rhs) ** 2))
    assert abs(work) <= 1e-13 * scale


@properties
@given(n=st.integers(4, 24).map(lambda k: 2 * k), seed=seeds)
def test_hermitian_fill_restores_full_spectrum(n, seed):
    x = np.random.default_rng(seed).standard_normal((3, n, n, n))
    full = _fftn(x)
    # exact on the stored columns of a full transform ...
    assert np.array_equal(_hermitian_fill(full[..., : n // 2 + 1]), full)
    # ... and at roundoff from the real-to-complex transform, whose
    # butterflies differ from the complex transform's by ~1e-17
    assert np.abs(_hermitian_fill(_rfftn(x)) - full).max() <= 1e-15 * np.abs(full).max()


def test_every_solver_transform_gets_the_worker_count(monkeypatch):
    seen = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):

        def spy(*args, _fft=getattr(scipy.fft, name), **kwargs):
            seen.append(kwargs.get("workers"))
            return _fft(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    set_default_workers(2)
    try:
        tg = taylor_green(BoxGrid(np.pi, 16))
        nse_solve(tg, SolverConfig(dt=1e-3, t_end=2e-3, snapshot_times=(1e-3,)))
        pressure_solve(tg)
    finally:
        set_default_workers(1)
    assert len(seen) > 20 and set(seen) == {2}


# ------------------------------------------------------------ error contract


def test_cfl_violation_suggests_step_size():
    grid = BoxGrid(2.0, 16)
    u0 = shear_flow(grid)
    with pytest.raises(StepSizeError) as exc:
        nse_solve(u0, SolverConfig(dt=0.2, t_end=0.2))
    suggested = exc.value.suggested_dt
    umax = np.sqrt((u0.physical**2).sum(axis=0)).max()
    assert abs(suggested - 0.5 * grid.h / umax) < 1e-12
    with pytest.raises(StepSizeError):
        nse_solve(u0, SolverConfig(dt=0.2, t_end=0.4))


def test_blowup_threshold_halts_with_last_valid_time():
    grid = BoxGrid(2.0, 16)
    with pytest.raises(BlowUpError) as exc:
        nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=0.01, blowup_max_u=0.5))
    assert exc.value.last_valid_time == 0.0


def test_solver_input_validation(rng):
    grid = BoxGrid(2.0, 16)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3)
    bad = np.zeros((3, 16, 16, 16))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(DataError):
        nse_solve(Field.from_physical(grid, bad), cfg)
    from conftest import smooth_field

    divergent = smooth_field(grid, rng, rank="vector")
    with pytest.raises(DataError):
        nse_solve(divergent, cfg)
    with_mean = Field.from_physical(grid, np.ones((3, 16, 16, 16)))
    with pytest.raises(DataError):
        nse_solve(with_mean, cfg)
    with pytest.raises(UsageError):
        nse_solve(smooth_field(grid, rng), cfg)  # scalar


def test_config_validation():
    for kwargs in (
        dict(dt=0.0, t_end=1.0),
        dict(dt=-1e-3, t_end=1.0),
        dict(dt=1e-3, t_end=-1.0),
        dict(dt=1e-3, t_end=1.0, viscosity=0.0),
        dict(dt=1e-3, t_end=1.0, audit_every=0),
    ):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)


def test_trajectory_invariants_enforced(rng):
    grid = BoxGrid(2.0, 16)
    good = shear_flow(grid)
    with pytest.raises(DataError):
        Trajectory(times=(0.0, 0.0), states=(good, good))
    from conftest import smooth_field

    divergent = smooth_field(grid, rng, rank="vector")
    with pytest.raises(DataError):
        Trajectory(times=(0.0,), states=(divergent,))


# ------------------------------------------------------------------ pressure


def test_pressure_of_shear_is_zero():
    grid = BoxGrid(2.0, 16)
    p = pressure_solve(shear_flow(grid))
    assert np.all(p.physical == 0.0)


def test_pressure_solves_its_equation(rng):
    u = div_free_field(BoxGrid(2.0, 24), rng)
    p = pressure_solve(u)
    assert abs(p.mean_value()) == 0.0
    # rebuild the dealiased convective product independently
    f = np.zeros((3,) + u.physical.shape[1:])
    for i in range(3):
        gi = gradient(u.component(i))
        f[i] = np.sum(u.physical * gi.physical, axis=0)
    ff = dealias(Field.from_physical(u.grid, f))
    residual = l2_norm(laplacian(p) + divergence(ff))
    assert residual <= 1e-10 * sobolev_norm(ff, 1.0)


def test_pressure_quadratic_bound(rng):
    # measured ||p|| / ||u||_{L4}^2 on random div-free fields: 0.20 - 0.27
    for alpha in (1.0, 2.0, 4.0):
        u = div_free_field(BoxGrid(alpha, 24), rng)
        p = pressure_solve(u)
        assert l2_norm(p) <= 0.35 * lebesgue_norm(u, 4) ** 2


def test_shear_nonlinearity_counts_as_zero():
    # omega x u and grad(|u|^2 / 2) cancel exactly for a shear, up to roundoff
    traj = nse_solve(shear_flow(BoxGrid(2.0, 16)), SolverConfig(dt=1e-3, t_end=2e-3))
    assert all(rec.flags["pressure_degenerate"] for rec in traj.diagnostics)


def test_pressure_gradient_never_exceeds_nonlinearity():
    grid = BoxGrid(np.pi, 16)
    traj = nse_solve(taylor_green(grid), SolverConfig(dt=1e-3, t_end=0.02))
    for rec in traj.diagnostics:
        assert rec.entries["pressure_ratio"] <= 1.0 + 1e-10
        assert not rec.flags["pressure_degenerate"]


# -------------------------------------------------------------------- audits


def test_shear_energy_audit_is_quadrature_limited():
    # On the slow-decay box the trapezoid error sits below 1e-8 E(0)
    grid = BoxGrid(2.0 * np.pi, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=0.5))
    records = energy_audit(traj, tol=1e-8 * traj.diagnostics[0].entries["energy"])
    e0 = records[0].entries["energy"]
    assert max(abs(r.entries["residual"]) for r in records) < 1e-8 * e0
    assert not any(r.flags["violation"] for r in records)


def test_taylor_green_energy_audit():
    grid = BoxGrid(2.0 * np.pi, 16)
    traj = nse_solve(taylor_green(grid), SolverConfig(dt=1e-3, t_end=0.2))
    records = energy_audit(traj)
    e0 = records[0].entries["energy"]
    assert max(abs(r.entries["residual"]) for r in records) < 1e-6 * e0
    assert not any(r.flags["violation"] for r in records)


def test_energy_residual_is_second_order_in_dt():
    grid = BoxGrid(2.0 * np.pi, 16)
    tg = taylor_green(grid)
    worst = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = nse_solve(tg, SolverConfig(dt=dt, t_end=0.05))
        records = energy_audit(traj)
        worst.append(max(abs(r.entries["residual"]) for r in records))
    orders = [math.log2(a / b) for a, b in zip(worst, worst[1:])]
    assert all(1.9 < o < 2.1 for o in orders), (worst, orders)


def test_enstrophy_audit_shear_has_full_margin():
    # zero nonlinearity: d/dt ||grad u||^2 = -2 ||Delta u||^2, so the
    # inequality holds with the entire right-hand side to spare
    grid = BoxGrid(2.0, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=0.1))
    records = enstrophy_audit(traj, c_agmon=1.0)
    assert all(r.entries["margin"] > 0.0 for r in records)
    assert not any(r.flags["violation"] for r in records)
    assert not any(r.flags["bound_violated"] for r in records)


def test_enstrophy_audit_taylor_green_with_measured_constant():
    grid = BoxGrid(np.pi, 16)
    tg = taylor_green(grid)
    c_measured = inequality_report(tg).entries["agmon_ratio"]
    traj = nse_solve(tg, SolverConfig(dt=1e-3, t_end=0.05))
    records = enstrophy_audit(traj, c_measured)
    assert not any(r.flags["violation"] for r in records)
    assert all(r.flags["bound_applicable"] for r in records)
    assert not any(r.flags["bound_violated"] for r in records)


def test_audit_argument_errors():
    grid = BoxGrid(2.0, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=2e-3))
    with pytest.raises(UsageError):
        enstrophy_audit(traj, 0.0)
    lone = Trajectory(times=(0.0,), states=(shear_flow(grid),))
    with pytest.raises(UsageError):
        energy_audit(lone)
    with pytest.raises(UsageError):
        enstrophy_audit(lone, 1.0)


# ------------------------------------------------------------ existence time


def test_existence_time_formula():
    grid = BoxGrid(np.pi, 16)
    tg = taylor_green(grid)
    est1 = existence_time(tg, 0.5)
    est2 = existence_time(taylor_green(grid, amplitude=2.0), 0.5)
    assert abs(est1.h1_bound - sobolev_norm(tg, 1.0) ** 2) < 1e-12 * est1.h1_bound
    # doubling the data quadruples M and divides T by 16
    assert abs(est2.t_guaranteed - est1.t_guaranteed / 16.0) < 1e-10 * est1.t_guaranteed
    assert abs(est1.t_guaranteed - 2.0 / (9.0 * 0.5**4 * est1.h1_bound**2)) == 0.0


def test_existence_time_zero_field_and_bad_constant():
    grid = BoxGrid(2.0, 16)
    zero = Field.from_physical(grid, np.zeros((3, 16, 16, 16)))
    est = existence_time(zero, 1.0)
    assert est.h1_bound == 0.0 and math.isinf(est.t_guaranteed)
    with pytest.raises(UsageError):
        existence_time(zero, -1.0)


# ----------------------------------------------------------------------- csv


def test_diagnostics_csv_is_deterministic(tmp_path):
    grid = BoxGrid(2.0, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=5e-3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagnostics_csv(traj.diagnostics, a)
    write_diagnostics_csv(traj.diagnostics, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join(DIAGNOSTIC_COLUMNS)
    assert len(lines) == 1 + len(traj.diagnostics)
    # floats round-trip exactly
    first = lines[1].split(",")
    assert float(first[0]) == traj.diagnostics[0].time
    assert float(first[1]) == traj.diagnostics[0].entries["energy"]
