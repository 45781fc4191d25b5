"""Strong-solution time integration of incompressible Navier-Stokes on Q_alpha.

The state is the velocity's half-spectrum `u.spectral`, shape
(3, N, N, N/2+1), and every snapshot wraps the state of its step.  The
equations are taken with nu = 1.  The state is marched by an
integrating-factor RK4: the viscous semigroup e^{-|k|^2 dt} is applied
exactly (true |k|^2, Nyquist included), so only the nonlinear term is under
the Runge-Kutta clock.  That term is omega x u (rotational form) of
the state truncated to the 2/3-rule modes, so products of kept modes alias
only onto dropped ones (Orszag's condition); it is masked, Leray-projected,
and its zero mode is zeroed, which makes momentum conservation bit-exact.
The curl, divergence, Leray projection and spectral moments are those of
`spectral_core` and `norms`; the solver keeps no operator of its own.

The stages and right-hand sides a, b, c, d live on the 2/3 block.  A stage
runs the n-d transforms as pocketfft's 1-d passes, in its order, only on
lines that meet a kept mode, and forms omega x u in slabs of `_SLAB` rows.
`--threads n` (`set_default_workers`) sets a count and picks no code path:
the slabs, and the chunks of the passes outside the slab loop, run on up to
n threads, each writing only its own rows.
A step adds the block's RK4 sum into e2 uhat: the kept modes get the
textbook formula's bits, the dropped ones the exact decay (the formula adds
a masked aliased zero there, so the sign of a zero differs where e2 uhat is
-0.0).  A step holds each state-sized array only while it is read.

`nse_march` is the one step loop, a generator of (t, snapshot or None, audit
record) at t = 0 and after each step that keeps no state it has moved past:
a consumer comparing runs snapshot by snapshot stores no trajectory.  The
studies consume it through one failure guard (`experiments._until_failure`).
`nse_solve` collects its snapshots and records into a `Trajectory`; only
the tests and the benchmark's tracer call it.

Every step is audited: t = 0 and each completed step record energy,
enstrophy, ||Delta u||, max |u| and the running energy-equality residual;
max |u| comes from the next step's first stage, the moments from one
|uhat|^2 pass per state (`_StepKernel.moments`).  `energy_audit` /
`enstrophy_audit` check a sequence of those records against the energy
equality and the enstrophy differential inequality, and `existence_time`
evaluates the guaranteed-existence horizon T = 2 / (9 C^4 M^2) for an H^1
bound M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    BlowUpError,
    ConfigurationError,
    DataError,
    StepSizeError,
    UsageError,
)
from .norms import (
    DiagnosticsRecord,
    relative_divergence,
    sobolev_norm,
    spectral_moments,
)
from .spectral_core import (
    _SLAB,
    BoxGrid,
    Field,
    _curl,
    _fft,
    _fft_split,
    _irfft,
    _irfftn,
    _leray_in_place,
    _map,
    _max_abs,
    _rfft,
    _rfftn,
    divergence,
)

# Blow-up thresholds: a step past either one halts the solve.
BLOWUP_MAX_U = 1e6
BLOWUP_MAX_ENSTROPHY = 1e8

@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon and snapshot cadence of one NSE solve with nu = 1,
    the value `energy_audit` and `existence_time` assume.

    The state is stored at t = 0, after every `snapshot_every`-th step (0:
    none in between) and after the last step.  `dt` must already respect
    the advective CFL ceiling for the data being run (checked per step
    against max |u| dt / h <= 0.5); the viscous limit needs no ceiling
    because the semigroup is applied exactly.
    """

    dt: float
    t_end: float
    snapshot_every: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ConfigurationError(f"t_end must be nonnegative, got {self.t_end!r}")
        every = self.snapshot_every
        if not isinstance(every, int) or isinstance(every, bool) or every < 0:
            raise ConfigurationError(
                f"snapshot_every must be an integer >= 0, got {every!r}"
            )


def _checked(t: float, state: Field) -> Field:
    """state, once it is divergence-free to 1e-10 relative."""
    rel = relative_divergence(state)
    if rel > 1e-10:
        raise DataError(f"state at t={t} is not divergence-free: {rel:.3e}")
    return state


@dataclass
class Trajectory:
    """Stored states of one solve plus the per-step diagnostic series.

    `times` are the completed-step times of the stored states, which
    `nse_march` has checked divergence-free as it yielded them.
    """

    times: tuple[float, ...]
    states: tuple[Field, ...]
    diagnostics: list[DiagnosticsRecord] = dataclass_field(default_factory=list)


@dataclass(frozen=True)
class ExistenceEstimate:
    """Guaranteed strong-solution horizon from the H^1 size of the data.

    `h1_bound` is M with ||u0||_{H^1}^2 <= M (here: equality), and
    `t_guaranteed` = 2 / (9 c^4 M^2) — quartic in the constant, quadratic
    in the data bound, +inf for zero data.
    """

    h1_bound: float
    t_guaranteed: float


def _cross_in_place(a, b) -> np.ndarray:
    """Overwrite the samples a with a x b, using two one-component temporaries."""
    x, t = a[1] * b[2], a[2] * b[1]
    x -= t
    np.multiply(a[1], b[0], out=t)  # a[1]'s last read
    np.multiply(a[2], b[0], out=a[1])
    np.multiply(a[0], b[1], out=a[2])
    a[2] -= t
    a[1] -= np.multiply(a[0], b[2], out=t)
    a[0] = x
    return a


class _StepKernel:
    """The IF-RK4 step on one grid; caches the block's wavevectors and the decays."""

    def __init__(self, grid: BoxGrid):
        self.grid = grid
        n, m = grid.N, grid.two_thirds_cut
        self.m, self.drop = m, slice(m + 1, n - m)  # the rows a full axis drops
        # the kept ranges 0..m and N-m..N-1 of a full axis, and their block rows
        self.halves = ((slice(0, m + 1),) * 2, (slice(n - m, n), slice(m + 1, None)))
        kb = np.delete(grid.k1d_diff, self.drop)
        self.k = kb[:, None, None], kb[None, :, None], kb[None, None, : m + 1]
        self.inv_ksq = self.block(grid.inv_ksq)
        self._decay = (None, None)  # (dt, `decay(dt)`): one dt at a time

    def block(self, a):
        """The 2/3 block of the half-spectrum array a, copied by slices."""
        a = np.delete(a[..., : self.m + 1], self.drop, axis=-2)
        return np.delete(a, self.drop, axis=-3)

    def scatter(self, blk, out):
        """The half-spectrum array out with the block blk added into its kept slots."""
        for fi, bi in self.halves:
            for fj, bj in self.halves:
                out[..., fi, fj, : self.m + 1] += blk[..., bi, bj, :]
        return out

    def decay(self, dt: float):
        """e^{-|k|^2 dt/2}, e^{-|k|^2 dt} on the block; e^{-|k|^2 dt}, phi in full."""
        if self._decay[0] != dt:
            self._decay = (None, None)
            e2 = np.exp(-0.5 * dt * self.grid.ksq)
            e = self.block(e2)
            e2 *= e2  # in place, as temporaries lift the peak RSS
            phi = (-2.0 * dt) * self.grid.ksq  # -x
            m = np.expm1(phi)  # -g
            phi -= m
            np.divide(phi, 2.0 * m, out=phi, where=m < 0)  # 0 at k = 0
            self._decay = (dt, (e, e * e, e2, phi))
        return self._decay[1]

    def moments(self, u: Field, dt: float) -> list[float]:
        """The audit's moments of u: ||u||^2, ||grad u||^2, ||lap u||^2,
        ||grad u||^2 over the true |k| and phi's moment M for step dt."""
        g = u.grid
        weights = (1.0, g.ksq_diff, g.ksq_diff**2, g.ksq, self.decay(dt)[3])
        return spectral_moments(u, weights)

    def stage(self, v):
        """-P(omega x u) on the block, zero mode zeroed, and max |u| (the
        root of the largest |u|^2, summed in np.sum's order), for u the
        state truncated to its block v, which is not written to."""
        n, m = self.grid.N, self.m
        uw = np.zeros((6, n) + v.shape[2:], complex)  # u and omega, N rows
        for full, blk in self.halves:  # the curl is pointwise: row by row
            uw[:3, full] = v[:, blk]
            _curl(v[:, blk], (self.k[0][blk],) + self.k[1:], out=uw[3:, full])
        _fft_split(uw, -3, inverse=True)
        f = np.empty((3, n, n, m + 1), complex)

        def slab(r):  # rows r.. of f, passes on this thread; their largest |u|^2
            rows = slice(r, r + _SLAB)
            x = np.zeros(uw[:, rows].shape[:2] + (n, n // 2 + 1), complex)
            for full, blk in self.halves:
                x[:, :, full, : m + 1] = uw[:, rows, blk]
            _fft(x[..., : m + 1], -2, inverse=True)  # in place
            x = _irfft(x, n)
            f[:, rows] = _rfft(_cross_in_place(x[3:], x[:3]))[..., : m + 1]
            return (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]).max()

        # np.maximum: the same in any order, and NaN propagates
        usq = functools.reduce(np.maximum, _map(slab, range(0, n, _SLAB)), 0.0)
        del uw
        re_im = f.view(np.float64)
        re_im *= float(1 / np.longdouble(n) ** 3)  # `_rfftn`'s, as pocketfft's
        f = np.delete(_fft_split(f, -3), self.drop, axis=-3)
        f = np.delete(_fft_split(f, -2), self.drop, axis=-2)
        f *= 1.0  # the mask's complex multiply: it sets the sign of some zeros
        _leray_in_place(f, self.k, self.inv_ksq)
        f[:, 0, 0, 0] = 0.0
        return np.negative(f, out=f), math.sqrt(usq)

    def advance(self, uhat, dt: float, a) -> np.ndarray:
        """One integrating-factor RK4 step of length dt from uhat, with a =
        stage(block(uhat))[0]: e2 uhat plus, on the block, dt/6 (e2 a +
        2 e (b + c) + d), which is summed in place of a."""
        e, e2, e2_full, _ = self.decay(dt)
        ub = self.block(uhat)
        b = self.stage(e * (ub + (0.5 * dt) * a))[0]
        c = self.stage(e * ub + (0.5 * dt) * b)[0]
        a *= e2
        b += c
        b *= e
        b *= 2.0
        a += b
        del b
        a += self.stage(e2 * ub + dt * (e * c))[0]
        a *= dt / 6.0
        return self.scatter(a, e2_full * uhat)

    def check_cfl(self, umax: float, dt: float) -> None:
        if umax * dt / self.grid.h > 0.5:
            raise StepSizeError(
                f"advective CFL violated: max|u| dt / h = "
                f"{umax * dt / self.grid.h:.3f} > 0.5",
                suggested_dt=0.5 * self.grid.h / umax,
            )


def _require_solvable(u: Field) -> None:
    if u.rank != "vector":
        raise UsageError("the solver integrates vector velocity fields")
    if not np.all(np.isfinite(u.spectral)):
        raise DataError("velocity field contains non-finite values")
    scale = _max_abs(_checked(0.0, u).physical)
    mean = float(np.abs(u.mean_value()).max())
    if scale > 0.0 and mean > 1e-10 * scale:
        raise DataError(f"velocity carries a mean: {mean:.3e}")


def _plan_steps(cfg: SolverConfig) -> tuple[list[float], list[float]]:
    """Step lengths and the completed-step times they reach."""
    n_full = int(math.floor(cfg.t_end / cfg.dt + 1e-12))
    remainder = cfg.t_end - n_full * cfg.dt
    lengths = [cfg.dt] * n_full
    times = [cfg.dt * (k + 1) for k in range(n_full)]
    if remainder > 1e-9 * cfg.dt:
        lengths.append(remainder)
        times.append(cfg.t_end)
    elif times:
        times[-1] = cfg.t_end  # absorb roundoff so the horizon is exact
    return lengths, times


def nse_march(u0: Field, cfg: SolverConfig):
    """March u0 to t_end, yielding (t, state, record) at t = 0 and after each step.

    `state` is the snapshot at the steps the schedule stores (t = 0, every
    `snapshot_every`-th step and the last step, each checked divergence-free
    to 1e-10 relative) and None at the others; `record` is the step's audit.
    The march keeps only the spectrum it advances, so a snapshot the
    consumer drops is freed by the next step.  Blow-up (max |u| above
    BLOWUP_MAX_U, enstrophy above BLOWUP_MAX_ENSTROPHY, or non-finite
    values) raises from its step with the last valid time attached.
    """
    _require_solvable(u0)
    grid = u0.grid
    kernel = _StepKernel(grid)
    lengths, step_times = _plan_steps(cfg)
    kernel.decay(cfg.dt)  # before any stage: below their temporaries in the heap

    integral = 0.0  # int ||grad u||^2, summed as `energy_audit` describes

    def audit(t: float, m: list[float], umax: float) -> DiagnosticsRecord:
        energy = 0.5 * m[0]
        return DiagnosticsRecord(
            time=t,
            entries={
                "energy": energy,
                "enstrophy": m[1],
                "laplacian_norm": math.sqrt(m[2]),
                "max_u": umax,
                "energy_residual": energy + integral - energy0,
            },
        )

    # each audit's right-hand side is the next step's first stage
    uhat = u0.spectral  # never written to: each step makes a new array
    a, umax = kernel.stage(kernel.block(uhat))
    m = kernel.moments(u0, cfg.dt)  # of u, the start state of each step
    energy0 = 0.5 * m[0]
    yield 0.0, u0, audit(0.0, m, umax)  # checked by `_require_solvable`
    del u0
    every = cfg.snapshot_every
    t_prev = 0.0
    for step, (dt_k, t_k) in enumerate(zip(lengths, step_times), start=1):
        kernel.check_cfl(umax, dt_k)
        if dt_k != cfg.dt:  # the last, shorter step: phi's moment of u
            m = kernel.moments(Field(grid, spectral=uhat), dt_k)
        uhat = kernel.advance(uhat, dt_k, a)
        if not np.all(np.isfinite(uhat)):
            raise BlowUpError(
                f"non-finite values after t={t_prev}", last_valid_time=t_prev
            )
        a, umax = kernel.stage(kernel.block(uhat))
        m_next = kernel.moments(Field(grid, spectral=uhat), dt_k)
        if umax > BLOWUP_MAX_U or m_next[1] > BLOWUP_MAX_ENSTROPHY:
            raise BlowUpError(
                f"blow-up thresholds exceeded at t={t_k}: max|u|={umax:.3e}",
                last_valid_time=t_prev,
            )
        integral += dt_k * m[3] + m_next[4] - m[4]
        m = m_next
        stored = (every and step % every == 0) or step == len(lengths)
        state = _checked(t_k, Field(grid, spectral=uhat)) if stored else None
        yield t_k, state, audit(t_k, m, umax)
        del state  # the consumer's to keep or drop
        t_prev = t_k


def nse_solve(u0: Field, cfg: SolverConfig) -> Trajectory:
    """The snapshots and audit records of `nse_march` as a Trajectory."""
    times, states, diagnostics = [], [], []
    for t, state, record in nse_march(u0, cfg):
        diagnostics.append(record)
        if state is not None:
            times.append(t)
            states.append(state)
    return Trajectory(tuple(times), tuple(states), diagnostics)


def pressure_solve(u: Field) -> Field:
    """Zero-mean pressure with -Delta p = div[(u.grad)u], solved spectrally.

    (u.grad)u is the output-dealiased convective product of the untruncated
    field: the pressure of u as given, not the one implied by the solver's
    nonlinear term, which sees u truncated to the 2/3-rule modes.
    """
    if u.rank != "vector":
        raise UsageError("pressure solve needs a velocity field")
    samples = u.physical
    f = np.zeros_like(samples)
    for f_i, uhat_i in zip(f, u.spectral):  # u_0 d_0 u_i, + u_1 d_1 u_i, + u_2 d_2 u_i
        for u_j, k_j in zip(samples, u.grid.k_axes()):
            f_i += u_j * _irfftn(1j * k_j * uhat_i, u.grid.N)
    fhat = _rfftn(f)
    del f
    fhat *= u.grid.two_thirds_mask
    # p_k = i (k.f_k) / |k|^2; the modes `inv_ksq` drops (zero and
    # all-Nyquist) get no pressure
    phat = divergence(Field(u.grid, spectral=fhat)).spectral
    phat *= u.grid.inv_ksq
    phat[0, 0, 0] = 0.0
    return Field(u.grid, spectral=phat)


def energy_audit(records) -> list[DiagnosticsRecord]:
    """Check the energy equality over a run's sequence of audit records.

    Each record carries the residual rho(t) = E(t) + int_0^t ||grad u||^2
    - E(0), the integral summed per step as the integrating factor treats
    viscosity: per mode, with x = 2|k|^2 dt and g = 1 - e^{-x}, |uhat|^2 is
    the decay of the start state plus what the nonlinear term feeds in and
    viscosity relaxes at rate 2|k|^2.  A step adds vol * sum mult of
    g |uhat0|^2 / 2 + phi (|uhat1|^2 - (1 - g) |uhat0|^2), phi = (x - g)/(2g),
    that is dt ||grad u0||^2 (true |k|) + M(u1) - M(u0) with M the phi moment:
    exact for pure decay however stiff, the trapezoid rule to second order
    for small x.  rho(t) > 1e-6 E(0) flags a violated energy inequality.
    """
    if not records:
        raise UsageError("energy audit needs at least one audit record")
    tol = 1e-6 * records[0].entries["energy"]
    out = []
    for rec in records:
        rho = rec.entries["energy_residual"]
        entries = {"energy": rec.entries["energy"], "residual": rho}
        out.append(DiagnosticsRecord(rec.time, entries, {"violation": rho > tol}))
    return out


def enstrophy_audit(records, c_agmon: float) -> list[DiagnosticsRecord]:
    """Check the enstrophy differential inequality over a run's sequence of
    audit records, interval by interval.

    Per step, the discrete d/dt ||grad u||^2 plus the mean ||Delta u||^2
    is compared against (27/16) c^4 ||grad u||^6 (endpoint average);
    `margin` = RHS - LHS should be nonnegative up to quadrature noise.
    Where 1 - (27/8) c^4 t ||grad u0||^4 stays positive, the closed-form
    enstrophy bound is evaluated too and checked from above.
    """
    if not np.isfinite(c_agmon) or c_agmon <= 0.0:
        raise UsageError(f"constant must be positive, got {c_agmon!r}")
    if len(records) < 2:
        raise UsageError("enstrophy audit needs at least two audit records")
    c4 = c_agmon**4
    t0 = records[0].time
    y0 = records[0].entries["enstrophy"]
    out = []
    for left, right in zip(records, records[1:]):
        dt = right.time - left.time
        ya, yb = left.entries["enstrophy"], right.entries["enstrophy"]
        za = left.entries["laplacian_norm"] ** 2
        zb = right.entries["laplacian_norm"] ** 2
        lhs = (yb - ya) / dt + 0.5 * (za + zb)
        rhs = (27.0 / 16.0) * c4 * 0.5 * (ya**3 + yb**3)
        margin = rhs - lhs
        denom = 1.0 - (27.0 / 8.0) * c4 * (right.time - t0) * y0**2
        applicable = denom > 0.0
        bound = y0 / math.sqrt(denom) if applicable else float("nan")
        out.append(
            DiagnosticsRecord(
                time=0.5 * (left.time + right.time),
                entries={
                    "lhs": lhs,
                    "rhs": rhs,
                    "margin": margin,
                    "enstrophy": yb,
                    "closed_form_bound": bound,
                },
                flags={
                    "violation": margin < -1e-8 * max(abs(lhs), rhs, 1e-300),
                    "bound_applicable": applicable,
                    "bound_violated": applicable and yb > bound * (1.0 + 1e-10),
                },
            )
        )
    return out


def existence_time(u0: Field, c_agmon: float) -> ExistenceEstimate:
    """Guaranteed horizon T = 2 / (9 c^4 M^2) with M = ||u0||_{H^1}^2."""
    if not np.isfinite(c_agmon) or c_agmon <= 0.0:
        raise UsageError(f"constant must be positive, got {c_agmon!r}")
    m = sobolev_norm(u0, 1.0) ** 2
    if m == 0.0:
        return ExistenceEstimate(h1_bound=0.0, t_guaranteed=float("inf"))
    return ExistenceEstimate(h1_bound=m, t_guaranteed=2.0 / (9.0 * c_agmon**4 * m**2))
