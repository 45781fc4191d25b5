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
import threading
import weakref

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
from boxflow import solver
from boxflow.initial_data import BumpSpec, bump_vorticity
from boxflow.norms import (
    inequality_report,
    l2_norm,
    lebesgue_norm,
    relative_divergence,
    sobolev_norm,
)
from boxflow.solver import (
    SolverConfig,
    _StepKernel,
    energy_audit,
    enstrophy_audit,
    existence_time,
    nse_march,
    nse_solve,
    pressure_solve,
)
from boxflow.spectral_core import (
    BoxGrid,
    Field,
    curl,
    divergence,
    gradient,
    laplacian,
    leray_project,
    set_default_workers,
)
from boxflow.vorticity import curl_inv_periodic

from conftest import (
    dealias,
    div_free_field,
    full_ksq,
    full_spectrum,
    meshgrid,
    taylor_green,
    traced_peak,
)


def shear_flow(grid: BoxGrid, amplitude: float = 1.0) -> Field:
    _, y, _ = meshgrid(grid)
    u = np.zeros((3, grid.N, grid.N, grid.N))
    u[0] = amplitude * np.sin(np.pi * y / grid.alpha)
    return Field.from_physical(grid, u)


def shear_rate(grid: BoxGrid) -> float:
    return (np.pi / grid.alpha) ** 2


# ------------------------------------------------------------------ stepping


def test_solve_keeps_no_samples_of_spectral_data():
    # the input checks read max |u| from samples that the stored t = 0
    # state does not keep
    grid = BoxGrid(np.pi, 16)
    u0 = Field.from_spectral(grid, taylor_green(grid).spectral)
    traj = nse_solve(u0, SolverConfig(dt=1e-3, t_end=2e-3))
    assert traj.states[0] is u0 and u0._physical is None


def test_solve_holds_each_state_array_only_while_it_is_read():
    # the traced peak above the input, in units of one vector half-spectrum:
    # the state, its 2/3 block, a, b and a stage's input (0.28 each at N=32),
    # u and omega after the axis -3 pass (0.85), the r2c accumulator (0.65)
    # and one slab of samples (1.0), next to the cached decays (5.1); the
    # full half-spectrum stage gave 6.9, and holding c, d and a stacked
    # cross product as well gave 10.5
    grid = BoxGrid(2.0, 32)
    u0 = curl_inv_periodic(bump_vorticity(BumpSpec(support_radius=0.5), grid))
    unit = u0.spectral.nbytes
    peak = traced_peak(lambda: nse_solve(u0, SolverConfig(dt=1e-3, t_end=4e-3)))
    assert peak <= 6.0 * unit


def test_zero_field_stays_zero():
    grid = BoxGrid(2.0, 16)
    zero = Field.from_physical(grid, np.zeros((3, 16, 16, 16)))
    traj = nse_solve(zero, SolverConfig(dt=1e-3, t_end=0.02))
    for state in traj.states:
        assert np.all(state.physical == 0.0)
    for rec in traj.diagnostics:
        assert rec.entries["energy"] == 0.0


def test_single_step_matches_viscous_decay():
    grid = BoxGrid(2.0, 16)
    u0 = shear_flow(grid)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3)
    u1 = nse_solve(u0, cfg).states[-1]
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
    ref = nse_solve(tg, SolverConfig(dt=2.5e-4, t_end=0.1)).states[-1]
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        fin = nse_solve(tg, SolverConfig(dt=dt, t_end=0.1)).states[-1]
        gap = Field.from_spectral(grid, fin.spectral - ref.spectral)
        errors.append(l2_norm(gap) / l2_norm(ref))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o > 3.8 for o in orders), (errors, orders)


def test_momentum_and_mean_preserved_exactly():
    grid = BoxGrid(np.pi, 16)
    tg = taylor_green(grid)
    traj = nse_solve(tg, SolverConfig(dt=1e-3, t_end=0.02))
    # bit-exact: the semigroup is 1 at k = 0 and the nonlinear increment's
    # zero mode is zeroed, so whatever mean the data carries is untouched
    assert np.array_equal(
        traj.states[-1].spectral[:, 0, 0, 0], tg.spectral[:, 0, 0, 0]
    )


def test_trajectory_smoke_run_from_bump_vorticity():
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 32))
    u0 = curl_inv_periodic(w)
    traj = nse_solve(u0, SolverConfig(dt=1e-3, t_end=0.1, snapshot_every=50))
    assert traj.times == (0.0, 0.05, 0.1)
    for state in traj.states:
        assert relative_divergence(state) <= 1e-10
    energies = [r.entries["energy"] for r in traj.diagnostics]
    assert all(b < a for a, b in zip(energies, energies[1:]))


# An independent reference for the step cadence: the time-based schedule
# the solver used to take (every `every`-th multiple of dt short of t_end,
# each snapped to the nearest completed step), as `dealias()` is kept for
# the 2/3 mask.
def requested_snapshot_times(dt, t_end, every):
    times, k = [], every
    while every and k * dt < t_end - 1e-9 * dt:
        times.append(k * dt)
        k += every
    return times


def nearest_steps(requested, step_times):
    """Indices of the completed steps nearest the requested times, plus
    t = 0 and the last step."""
    all_times = [0.0] + step_times
    wanted = {0, len(step_times)}
    for ts in requested:
        wanted.add(min(range(len(all_times)), key=lambda i: abs(all_times[i] - ts)))
    return wanted


@settings(max_examples=40, deadline=None)
@given(
    dt=st.floats(1e-4, 1e-2),
    n_full=st.integers(0, 30),
    remainder=st.sampled_from([0.0, 0.25, 0.5, 0.999]),
    every=st.integers(0, 12),
)
@example(dt=1e-3, n_full=10, remainder=0.0, every=3)
@example(dt=3e-3, n_full=3, remainder=1 / 3, every=2)
def test_snapshot_cadence_matches_nearest_time_schedule(dt, n_full, remainder, every):
    t_end = (n_full + remainder) * dt
    zero = Field(BoxGrid(1.0, 8), spectral=np.zeros((3, 8, 8, 5), complex))
    cfg = SolverConfig(dt=dt, t_end=t_end, snapshot_every=every)
    traj = nse_solve(zero, cfg)
    lengths, step_times = solver._plan_steps(cfg)
    all_times = [0.0] + step_times
    wanted = nearest_steps(requested_snapshot_times(dt, t_end, every), step_times)
    assert traj.times == tuple(all_times[k] for k in sorted(wanted))
    assert len(traj.diagnostics) == len(lengths) + 1
    assert [r.time for r in traj.diagnostics] == all_times


def record_bits(records) -> bytes:
    return np.array([[r.time, *r.entries.values()] for r in records]).tobytes()


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(0.5, 4.0),
    n=st.sampled_from([8, 12, 16]),
    seed=st.integers(0, 2**32 - 1),
    courant=st.floats(0.05, 0.4),
    n_full=st.integers(0, 5),
    remainder=st.sampled_from([0.0, 0.5]),
    every=st.sampled_from([0, 1, 3]),
)
@example(alpha=1.0, n=12, seed=1, courant=0.3, n_full=4, remainder=0.5, every=3)
@example(alpha=2.0, n=8, seed=2, courant=0.2, n_full=0, remainder=0.5, every=1)
def test_solve_collects_the_march_bit_for_bit(
    alpha, n, seed, courant, n_full, remainder, every
):
    grid = BoxGrid(alpha, n)
    u = div_free_field(grid, np.random.default_rng(seed), m0=n / 4)
    u0 = Field.from_spectral(grid, u.spectral / np.abs(u.physical).max())
    dt = courant * grid.h / math.sqrt(3.0)  # max|u| <= sqrt(3) at t = 0
    cfg = SolverConfig(dt=dt, t_end=(n_full + remainder) * dt, snapshot_every=every)
    marched = list(nse_march(u0, cfg))
    traj = nse_solve(u0, cfg)
    last = len(solver._plan_steps(cfg)[0])
    stored = [k for k, (_, state, _) in enumerate(marched) if state is not None]
    assert stored == [
        k for k in range(last + 1) if k in (0, last) or (every and k % every == 0)
    ]
    assert traj.times == tuple(marched[k][0] for k in stored)
    for state, k in zip(traj.states, stored):
        assert same_bits(state.spectral, marched[k][1].spectral)
    assert record_bits(traj.diagnostics) == record_bits(r for _, _, r in marched)


def test_march_frees_what_its_consumer_drops():
    # the march keeps only the spectrum it advances: u0 and every snapshot
    # die, spectrum included, by the step after the consumer lets go
    grid = BoxGrid(2.0, 16)
    u0 = Field.from_spectral(grid, taylor_green(grid).spectral)
    march = nse_march(u0, SolverConfig(dt=1e-3, t_end=4e-3, snapshot_every=1))
    dropped = []
    for _ in range(5):
        t, state, _ = next(march)
        assert all(ref() is None for ref in dropped)
        if t == 0.0:
            assert state is u0
            del u0
        dropped += [weakref.ref(state), weakref.ref(state.spectral)]
        del state
    assert next(march, None) is None
    assert all(ref() is None for ref in dropped)


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
    """-P[(v.grad)v] for v the 2/3-truncated u, output masked, zero mode 0,
    built on the full spectrum with complex FFTs; returns its m_3 >= 0 half."""
    g = u.grid
    k = g.k1d_diff
    kx, ky, kz = k[:, None, None], k[None, :, None], k[None, None, :]
    keep = 3 * np.abs(g.modes1d) < g.N
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    axes = (-3, -2, -1)
    vhat = full_spectrum(u) * mask
    v = scipy.fft.ifftn(vhat, axes=axes, norm="forward").real
    f = sum(
        v[j] * scipy.fft.ifftn(1j * kj * vhat, axes=axes, norm="forward").real
        for j, kj in enumerate((kx, ky, kz))
    )
    fhat = scipy.fft.fftn(f, axes=axes, norm="forward") * mask
    ksq = full_ksq(g)
    kdotf = kx * fhat[0] + ky * fhat[1] + kz * fhat[2]
    coef = np.divide(kdotf, ksq, out=np.zeros_like(kdotf), where=ksq > 0.0)
    out = fhat - np.stack([kx * coef, ky * coef, kz * coef])
    out[:, 0, 0, 0] = 0.0
    return -out[..., : g.N // 2 + 1]


@properties
@given(grid=grids, seed=seeds)
@example(grid=BoxGrid(1.0, 24), seed=1)
@example(grid=BoxGrid(2.0, 48), seed=2)
def test_rotational_rhs_matches_convective_product(grid, seed):
    u = random_velocity(grid, seed)
    kernel = _StepKernel(grid)
    rhs = kernel.stage(kernel.block(u.spectral))[0]
    got = kernel.scatter(rhs, np.zeros_like(u.spectral))
    want = convective_rhs(u)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@properties
@given(grid=grids, seed=seeds)
@example(grid=BoxGrid(1.0, 24), seed=3)
def test_nonlinear_term_does_no_work(grid, seed):
    u = random_velocity(grid, seed)
    kernel = _StepKernel(grid)
    uhat = u.spectral
    v = kernel.block(uhat)
    before = v.copy()
    rhs = kernel.scatter(kernel.stage(v)[0], np.zeros_like(uhat))
    assert same_bits(v, before)  # the stage reads its argument only
    work = np.sum(grid.mult * np.real(np.conj(uhat) * rhs))
    scale = np.sqrt(np.sum(grid.mult * np.abs(uhat) ** 2))
    scale *= np.sqrt(np.sum(grid.mult * np.abs(rhs) ** 2))
    assert abs(work) <= 1e-13 * scale


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def words(x: np.ndarray) -> np.ndarray:
    """The float64 words of the complex array x, real and imaginary last."""
    return x.view(np.float64).reshape(x.shape + (2,))


def test_cross_product_in_place_is_the_textbook_formula(rng):
    a, b = rng.standard_normal((2, 3, 6, 6, 6))
    want = np.stack(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )
    assert same_bits(solver._cross_in_place(a.copy(), b), want)


def stage_as_written(grid: BoxGrid, uhat: np.ndarray):
    """The nonlinear stage in fresh arrays throughout: -P(omega x u) of the
    2/3-truncated uhat with its zero mode zeroed, and u."""
    v = dealias(Field.from_spectral(grid, uhat))
    u, w = v.physical, curl(v).physical
    f = np.stack(
        [w[1] * u[2] - w[2] * u[1], w[2] * u[0] - w[0] * u[2], w[0] * u[1] - w[1] * u[0]]
    )
    fhat = leray_project(dealias(Field.from_physical(grid, f))).spectral
    fhat[:, 0, 0, 0] = 0.0
    return -fhat, u


@properties
@given(
    grid=grids,
    seed=seeds,
    dt=st.floats(1e-4, 1e-2),
    workers=st.sampled_from([1, 2]),
    shear=st.booleans(),
)
@example(grid=BoxGrid(1.0, 24), seed=4, dt=2.5e-3, workers=1, shear=False)
@example(grid=BoxGrid(3.0, 18), seed=5, dt=1e-3, workers=2, shear=False)
@example(grid=BoxGrid(0.7, 30), seed=6, dt=4e-3, workers=1, shear=False)
@example(grid=BoxGrid(2.0, 48), seed=7, dt=1e-3, workers=2, shear=False)
@example(grid=BoxGrid(0.25, 28), seed=0, dt=2.0**-7, workers=1, shear=False)
@example(grid=BoxGrid(2.0, 16), seed=0, dt=1e-3, workers=1, shear=True)
def test_step_is_the_textbook_formula_bit_for_bit(grid, seed, dt, workers, shear):
    # the block step, its slabs and pruned 1-d passes against IF-RK4 as
    # written from four full half-spectrum stages, on any worker count.
    # Shear flow leaves exact zeros on kept modes, whose signs the mask's
    # complex multiply sets.  A dropped mode gets the exact decay e2 uhat:
    # the formula adds the masked aliased term's signed zero there, which
    # the pruned stage never forms, so the bits differ only in the words
    # where e2 uhat is -0.0 (underflow, as at alpha 0.25, N 28 and dt 2^-7;
    # exact zeros of symmetric data, as of the studies' bump)
    uhat = (shear_flow(grid) if shear else random_velocity(grid, seed)).spectral
    kernel = _StepKernel(grid)
    e = np.exp(-0.5 * dt * grid.ksq)
    e2 = e * e
    a, u = stage_as_written(grid, uhat)
    b = stage_as_written(grid, e * (uhat + (0.5 * dt) * a))[0]
    c = stage_as_written(grid, e * uhat + (0.5 * dt) * b)[0]
    d = stage_as_written(grid, e2 * uhat + dt * (e * c))[0]
    want = e2 * uhat + (dt / 6.0) * (e2 * a + 2.0 * (e * (b + c)) + d)
    before = uhat.copy()
    set_default_workers(workers)
    try:
        first, umax = kernel.stage(kernel.block(uhat))
        assert same_bits(first, kernel.block(a))  # the stage as well as the step
        assert umax == float(np.sqrt(np.sum(u * u, axis=0)).max())
        got = kernel.advance(uhat, dt, first)
    finally:
        set_default_workers(1)
    dropped = dealias(Field(grid, spectral=np.ones_like(uhat))).spectral == 0.0
    decay = words(e2 * uhat)
    signed = dropped[..., None] & (decay == 0.0) & np.signbit(decay)
    assert same_bits(words(got), np.where(signed, decay, words(want)))
    assert same_bits(uhat, before)


def test_slab_passes_run_at_one_worker_on_the_pool(monkeypatch):
    # at two workers every transform runs numpy.fft's 1-d passes, and both
    # the pool's thread and the main thread run each kind: the slabs of a
    # stage and of an inverse transform, and the chunks of the whole-array
    # passes.  Nothing reaches scipy.fft.
    calls, stray = [], []
    for name in ("fft", "ifft", "rfft", "irfft"):

        def spy(*args, _fft=getattr(np.fft, name), _name=name, **kwargs):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(scipy.fft, name, lambda *a, _name=name, **k: stray.append(_name))
    set_default_workers(2)
    try:
        tg = taylor_green(BoxGrid(np.pi, 64))  # eight slabs and two chunks a stage
        nse_solve(tg, SolverConfig(dt=1e-3, t_end=1e-3))
        pressure_solve(tg)
    finally:
        set_default_workers(1)
    assert stray == []
    assert len(calls) > 20
    kinds = {"fft", "ifft", "rfft", "irfft"}
    assert {n for n, main in calls if not main} == kinds
    assert {n for n, main in calls if main} == kinds


def stage_and_step_bits(kernel, uhat, dt, workers):
    set_default_workers(workers)
    try:
        a, umax = kernel.stage(kernel.block(uhat))
        first = a.tobytes()  # `advance` sums the step into a
        return first, umax, kernel.advance(uhat, dt, a).tobytes()
    finally:
        set_default_workers(1)


@properties
@given(grid=grids, seed=seeds, dt=st.floats(1e-4, 1e-2))
@example(grid=BoxGrid(3.0, 18), seed=5, dt=1e-3)  # N not a multiple of `_SLAB`
@example(grid=BoxGrid(0.7, 30), seed=6, dt=4e-3)
@example(grid=BoxGrid(2.0, 16), seed=7, dt=1e-3)  # two slabs
def test_step_on_the_pool_is_the_serial_step_bit_for_bit(grid, seed, dt):
    # each slab writes only its rows and the |u|^2 maxima are reduced
    # with np.maximum, so the slabs' thread and order leave no trace
    uhat = random_velocity(grid, seed).spectral
    kernel = _StepKernel(grid)
    serial = stage_and_step_bits(kernel, uhat, dt, 1)
    assert stage_and_step_bits(kernel, uhat, dt, 2) == serial


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # raised on the pool's threads
def test_a_slab_that_overflows_blows_up_alike_on_the_pool(monkeypatch):
    # u_2 = A g(x) cos(z), divergence-free, peaked in the first slab's rows
    # of x: there omega x u overflows and its r2c holds NaN, in the second
    # slab all stays finite, and the step raises alike at either worker count
    grid = BoxGrid(1e-6, 16)
    x, _, z = meshgrid(grid)
    g = np.exp(3.0 * np.cos(np.pi * x / grid.alpha + 0.55 * np.pi))
    u = np.zeros((3,) + x.shape)
    u[1] = 1e150 * g * np.cos(np.pi * z / grid.alpha)
    u0 = dealias(Field.from_physical(grid, u))
    dt = 0.1 * grid.h / np.sqrt((u0.physical**2).sum(axis=0)).max()
    rfft, nan = solver._rfft, []

    def spy(a):
        out = rfft(a)
        nan.append(bool(np.isnan(out).any()))
        return out

    monkeypatch.setattr(solver, "_rfft", spy)
    raised = []
    for workers in (1, 2):
        set_default_workers(workers)
        nan.clear()
        try:
            with pytest.raises(BlowUpError) as exc:
                list(nse_march(u0, SolverConfig(dt=dt, t_end=dt)))
        finally:
            set_default_workers(1)
        assert sorted(nan[:2]) == [False, True]  # the first stage's slabs
        raised.append((str(exc.value), exc.value.last_valid_time))
    assert raised[0] == raised[1] == ("non-finite values after t=0.0", 0.0)


def pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("boxflow-slab")]


def test_switching_back_to_one_worker_leaves_no_pool_thread():
    set_default_workers(2)
    try:
        nse_solve(taylor_green(BoxGrid(np.pi, 16)), SolverConfig(dt=1e-3, t_end=1e-3))
        assert len(pool_threads()) == 1  # the caller is the second thread
    finally:
        set_default_workers(1)
    assert pool_threads() == []


def test_a_stage_starts_no_pool_thread_that_gets_no_slab():
    # N = 16 makes two slabs: at four workers the caller and one pool
    # thread take them, and no stage hands a drain to a third or fourth
    grid = BoxGrid(2.0, 16)
    kernel = _StepKernel(grid)
    v = kernel.block(random_velocity(grid, 0).spectral)
    set_default_workers(4)
    try:
        for _ in range(3):
            kernel.stage(v)
        assert len(pool_threads()) == 1
    finally:
        set_default_workers(1)
    assert pool_threads() == []


@properties
@given(n=st.integers(4, 48).map(lambda k: 2 * k))
@example(n=18)
@example(n=30)
def test_the_block_is_the_two_thirds_rule(n):
    # the step's block and the mask both read `two_thirds_cut`; conftest's
    # `dealias` builds the rule from the mode numbers on its own
    grid = BoxGrid(1.0, n)
    kernel = _StepKernel(grid)
    mask = grid.two_thirds_mask
    blk = kernel.block(mask)
    assert np.all(blk == 1.0)
    assert same_bits(kernel.scatter(blk, np.zeros_like(mask)), mask)
    kept = dealias(Field(grid, spectral=np.ones(grid.ksq.shape, complex))).spectral
    assert grid.two_thirds_cut == np.abs(grid.modes1d[kept[:, 0, 0] != 0]).max()


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


def test_blowup_threshold_halts_with_last_valid_time(monkeypatch):
    grid = BoxGrid(2.0, 16)
    monkeypatch.setattr(solver, "BLOWUP_MAX_U", 0.5)
    with pytest.raises(BlowUpError) as exc:
        nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=0.01))
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
        dict(dt=1e-3, t_end=math.nan),
        dict(dt=1e-3, t_end=1.0, snapshot_every=-1),
        dict(dt=1e-3, t_end=1.0, snapshot_every=1.5),
        dict(dt=1e-3, t_end=1.0, snapshot_every=True),
    ):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)


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
    residual = laplacian(p).spectral + divergence(ff).spectral
    residual = l2_norm(Field.from_spectral(u.grid, residual))
    assert residual <= 1e-10 * sobolev_norm(ff, 1.0)


def test_pressure_quadratic_bound(rng):
    # measured ||p|| / ||u||_{L4}^2 on random div-free fields: 0.20 - 0.27
    for alpha in (1.0, 2.0, 4.0):
        u = div_free_field(BoxGrid(alpha, 24), rng)
        p = pressure_solve(u)
        assert l2_norm(p) <= 0.35 * lebesgue_norm(u, 4) ** 2


# -------------------------------------------------------------------- audits


def test_shear_energy_audit_is_quadrature_limited():
    # One decaying mode and no nonlinear transfer: the per-step dissipation
    # sum is exact for pure decay, so only roundoff is left
    grid = BoxGrid(2.0 * np.pi, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=0.5))
    records = energy_audit(traj.diagnostics)
    e0 = records[0].entries["energy"]
    assert max(abs(r.entries["residual"]) for r in records) < 1e-12 * e0
    assert not any(r.flags["violation"] for r in records)


def test_energy_audit_holds_on_stiff_box():
    # dt max|k|^2 = 4.7: the top modes shrink by e^-4.7 in one step, where a
    # trapezoid in time over-counts the dissipation by 6e-2 E(0)
    grid = BoxGrid(1.0, 16)
    u0 = curl_inv_periodic(bump_vorticity(BumpSpec(support_radius=0.5), grid))
    traj = nse_solve(u0, SolverConfig(dt=2.5e-3, t_end=0.05))
    records = energy_audit(traj.diagnostics)
    e0 = records[0].entries["energy"]
    assert max(abs(r.entries["residual"]) for r in records) < 1e-7 * e0
    assert not any(r.flags["violation"] for r in records)


def test_taylor_green_energy_audit():
    grid = BoxGrid(2.0 * np.pi, 16)
    dt = 1e-3
    traj = nse_solve(
        taylor_green(grid), SolverConfig(dt=dt, t_end=0.2, snapshot_every=1)
    )
    records = energy_audit(traj.diagnostics)
    e0 = records[0].entries["energy"]
    assert max(abs(r.entries["residual"]) for r in records) < 1e-6 * e0
    assert not any(r.flags["violation"] for r in records)
    assert [r.entries["residual"] for r in records] == [
        d.entries["energy_residual"] for d in traj.diagnostics
    ]
    # the running residual sums, per step and per mode, the decay of the
    # start state plus the relaxed nonlinear part of the end state
    x = 2.0 * dt * grid.ksq
    phi, big = np.zeros_like(x), x > 0.0
    phi[big] = x[big] / (2.0 * (1.0 - np.exp(-x[big]))) - 0.5
    sq = [
        np.sum(np.abs(s.spectral) ** 2 * grid.mult, axis=0) * grid.volume
        for s in traj.states
    ]
    steps = [
        np.sum(0.5 * (1.0 - np.exp(-x)) * a + phi * (b - np.exp(-x) * a))
        for a, b in zip(sq, sq[1:])
    ]
    energy = np.array([d.entries["energy"] for d in traj.diagnostics])
    np.testing.assert_allclose(
        [r.entries["residual"] for r in records],
        energy + np.concatenate([[0.0], np.cumsum(steps)]) - e0,
        rtol=0.0,
        atol=1e-12 * e0,
    )


def test_energy_residual_is_second_order_in_dt():
    grid = BoxGrid(2.0 * np.pi, 16)
    tg = taylor_green(grid)
    worst = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = nse_solve(tg, SolverConfig(dt=dt, t_end=0.05))
        records = energy_audit(traj.diagnostics)
        worst.append(max(abs(r.entries["residual"]) for r in records))
    orders = [math.log2(a / b) for a, b in zip(worst, worst[1:])]
    assert all(1.9 < o < 2.1 for o in orders), (worst, orders)


def test_enstrophy_audit_shear_has_full_margin():
    # zero nonlinearity: d/dt ||grad u||^2 = -2 ||Delta u||^2, so the
    # inequality holds with the entire right-hand side to spare
    grid = BoxGrid(2.0, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=0.1))
    records = enstrophy_audit(traj.diagnostics, c_agmon=1.0)
    assert all(r.entries["margin"] > 0.0 for r in records)
    assert not any(r.flags["violation"] for r in records)
    assert not any(r.flags["bound_violated"] for r in records)


def test_enstrophy_audit_taylor_green_with_measured_constant():
    grid = BoxGrid(np.pi, 16)
    tg = taylor_green(grid)
    c_measured = inequality_report(tg).entries["agmon_ratio"]
    traj = nse_solve(tg, SolverConfig(dt=1e-3, t_end=0.05))
    records = enstrophy_audit(traj.diagnostics, c_measured)
    assert not any(r.flags["violation"] for r in records)
    assert all(r.flags["bound_applicable"] for r in records)
    assert not any(r.flags["bound_violated"] for r in records)


def test_audit_argument_errors():
    grid = BoxGrid(2.0, 16)
    traj = nse_solve(shear_flow(grid), SolverConfig(dt=1e-3, t_end=2e-3))
    with pytest.raises(UsageError):
        enstrophy_audit(traj.diagnostics, 0.0)
    with pytest.raises(UsageError, match="at least one"):
        energy_audit([])
    lone = traj.diagnostics[:1]
    assert len(energy_audit(lone)) == 1
    for records in ([], lone):
        with pytest.raises(UsageError, match="at least two"):
            enstrophy_audit(records, 1.0)


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
