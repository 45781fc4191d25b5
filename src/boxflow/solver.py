"""Strong-solution time integration of incompressible Navier-Stokes on Q_alpha.

The state is the rfftn half-spectrum of the velocity, shape (3, N, N, N/2+1),
marched by an integrating-factor RK4: the viscous semigroup e^{-nu |k|^2 dt}
is applied exactly (true |k|^2, Nyquist included), so only the nonlinear term
is under the Runge-Kutta clock.  That term is omega x u (rotational form) of
the state truncated to the 2/3-rule modes, so products of kept modes alias
only onto dropped ones (Orszag's condition); it is masked, Leray-projected,
and its zero mode is zeroed, which makes momentum conservation bit-exact.
A stage costs nine real transforms.  The stored state keeps every mode.

Each audit point records energy, enstrophy, ||Delta u||, max |u|, the
running energy-equality residual, and the pressure-gradient-to-nonlinearity
ratio, reusing the next step's first stage: (u . grad) u = omega x u +
grad(|u|^2 / 2) costs one more transform.  `energy_audit` / `enstrophy_audit`
replay those series against the energy equality and the enstrophy
differential inequality, and `existence_time` evaluates the guaranteed-
existence horizon T = 2 / (9 C^4 M^2) for an H^1 bound M.
"""

from __future__ import annotations

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
    _half_grid_weights,
    relative_divergence,
    sobolev_norm,
)
from .spectral_core import BoxGrid, Field, _hermitian_fill, _irfftn, _rfftn

DIAGNOSTIC_COLUMNS = (
    "t",
    "energy",
    "enstrophy",
    "laplacian_norm",
    "max_u",
    "energy_residual",
    "pressure_ratio",
)


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon, and the knobs around one NSE solve.

    `dt` must already respect the advective CFL ceiling for the data being
    run (checked per step against max |u| dt / h <= 0.5); the viscous limit
    needs no ceiling because the semigroup is applied exactly.
    """

    dt: float
    t_end: float
    viscosity: float = 1.0
    snapshot_times: tuple[float, ...] = ()
    audit_every: int = 1
    blowup_max_u: float = 1e6
    blowup_max_enstrophy: float = 1e8

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ConfigurationError(
                f"t_end must be nonnegative, got {self.t_end!r}"
            )
        if not (np.isfinite(self.viscosity) and self.viscosity > 0.0):
            raise ConfigurationError(
                f"viscosity must be positive, got {self.viscosity!r}"
            )
        if int(self.audit_every) != self.audit_every or self.audit_every < 1:
            raise ConfigurationError(
                f"audit_every must be a positive integer, got {self.audit_every!r}"
            )


@dataclass
class Trajectory:
    """Stored states of one solve plus the per-audit diagnostic series.

    `times` are the actual completed-step times of the stored states
    (snapshot requests snap to the nearest step).  Construction re-checks
    the invariants: strictly increasing times, and every state
    divergence-free to 1e-10 relative.
    """

    times: tuple[float, ...]
    states: tuple[Field, ...]
    diagnostics: list[DiagnosticsRecord] = dataclass_field(default_factory=list)
    config: SolverConfig | None = None

    def __post_init__(self):
        if len(self.times) != len(self.states) or not self.states:
            raise UsageError("trajectory needs matching, nonempty times/states")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise DataError("trajectory times must be strictly increasing")
        for t, state in zip(self.times, self.states):
            rel = relative_divergence(state)
            if rel > 1e-10:
                raise DataError(
                    f"state at t={t} is not divergence-free: {rel:.3e}"
                )

    @property
    def final(self) -> Field:
        return self.states[-1]


@dataclass(frozen=True)
class ExistenceEstimate:
    """Guaranteed strong-solution horizon from the H^1 size of the data.

    `h1_bound` is M with ||u0||_{H^1}^2 <= M (here: equality), and
    `t_guaranteed` = 2 / (9 c^4 M^2) — quartic in the constant, quadratic
    in the data bound, +inf for zero data.
    """

    h1_bound: float
    t_guaranteed: float
    c_agmon: float


def _cross(a, b) -> np.ndarray:
    """a x b over the three leading components (entries broadcast)."""
    x = a[1] * b[2] - a[2] * b[1]
    y = a[2] * b[0] - a[0] * b[2]
    return np.stack([x, y, a[0] * b[1] - a[1] * b[0]])


class _StepKernel:
    """Precomputed half-spectrum machinery for repeated steps on one grid."""

    def __init__(self, grid: BoxGrid, viscosity: float = 1.0):
        self.grid = grid
        self.viscosity = viscosity
        nh = grid.N // 2 + 1
        k = grid.k1d_diff
        self.k = (k[:, None, None], k[None, :, None], k[:nh])
        self.ksq_true = _half_grid_weights(grid, diff=False)[0]
        self.ksq, self.mult = _half_grid_weights(grid, diff=True)
        with np.errstate(divide="ignore"):
            self.inv_ksq = np.where(self.ksq > 0.0, 1.0 / self.ksq, 0.0)
        keep = grid.dealias_keep1d
        self.keep = (keep[:, None, None] & keep[None, :, None] & keep[:nh]) * 1.0
        self._decay = {}  # dt -> (e^{-nu |k|^2 dt / 2}, e^{-nu |k|^2 dt})

    def half(self, full: np.ndarray) -> np.ndarray:
        """The stored columns m_3 = 0..N/2 of a full coefficient array."""
        return np.ascontiguousarray(full[..., : self.grid.N // 2 + 1])

    def sum_sq(self, arrays, weight=1.0) -> float:
        """sum over the full spectrum of weight |a|^2, from half-spectra."""
        w = self.mult * weight
        return float(sum(np.sum(w * (a.real**2 + a.imag**2)) for a in arrays))

    def product(self, uhat):
        """Masked half-spectrum of omega x u for the truncated state, and u."""
        v = uhat * self.keep
        u, w = _irfftn(v, self.grid.N), _irfftn(1j * _cross(self.k, v), self.grid.N)
        fhat = _rfftn(_cross(w, u))
        fhat *= self.keep
        return fhat, u

    def project(self, fhat) -> np.ndarray:
        """-P fhat in place, zero mode exactly zero."""
        div = self.inv_ksq * sum(k * f for k, f in zip(self.k, fhat))
        for k, f in zip(self.k, fhat):
            f -= k * div
        fhat[:, 0, 0, 0] = 0.0
        return np.negative(fhat, out=fhat)

    def rhs(self, uhat) -> np.ndarray:
        return self.project(self.product(uhat)[0])

    def first_stage(self, uhat, audit: bool):
        """The RHS at uhat, max |u|, and (audit only) the pressure ratio."""
        fhat, u = self.product(uhat)
        pressure = self.pressure_ratio(fhat, u) if audit else None
        return self.project(fhat), float(np.sqrt(np.sum(u * u, axis=0)).max()), pressure

    def advance(self, uhat, dt: float, a) -> np.ndarray:
        """One integrating-factor RK4 step of length dt; a = rhs(uhat)."""
        if dt not in self._decay:
            e = np.exp(-0.5 * self.viscosity * dt * self.ksq_true)
            self._decay[dt] = (e, e * e)
        e, e2 = self._decay[dt]
        b = self.rhs(e * (uhat + (0.5 * dt) * a))
        c = self.rhs(e * uhat + (0.5 * dt) * b)
        d = self.rhs(e2 * uhat + dt * (e * c))
        return e2 * uhat + (dt / 6.0) * (e2 * a + 2.0 * (e * (b + c)) + d)

    def moments(self, uhat) -> list[float]:
        """||u||^2, ||grad u||^2 and ||lap u||^2 from the half-spectrum."""
        return [self.grid.volume * self.sum_sq(uhat, self.ksq**p) for p in range(3)]

    def check_cfl(self, umax: float, dt: float) -> None:
        if umax * dt / self.grid.h > 0.5:
            raise StepSizeError(
                f"advective CFL violated: max|u| dt / h = "
                f"{umax * dt / self.grid.h:.3f} > 0.5",
                suggested_dt=0.5 * self.grid.h / umax,
            )

    def pressure_ratio(self, fhat, u) -> tuple[float, bool]:
        """||grad p|| / ||(u.grad)u||, with the degenerate zero-F flag.

        (u.grad)u = omega x u + grad(|u|^2 / 2), from the masked, unprojected
        `fhat` of `product` and one more transform.  F counts as zero when
        the two parts cancel to roundoff, as they do for a shear flow.
        """
        g = self.keep * _rfftn(0.5 * np.sum(u * u, axis=0))
        grad_g = [1j * k * g for k in self.k]
        conv = [f + dg for f, dg in zip(fhat, grad_g)]
        f_sq = self.sum_sq(conv)
        if f_sq <= 1e-24 * (self.sum_sq(fhat) + self.sum_sq(grad_g)):
            return 0.0, True
        kdotf = sum(k * c for k, c in zip(self.k, conv))
        return math.sqrt(self.sum_sq([kdotf], self.inv_ksq) / f_sq), False


def _require_solvable(u: Field) -> None:
    if u.rank != "vector":
        raise UsageError("the solver integrates vector velocity fields")
    if not np.all(np.isfinite(u.spectral)):
        raise DataError("velocity field contains non-finite values")
    rel = relative_divergence(u)
    if rel > 1e-10:
        raise DataError(f"velocity is not divergence-free: {rel:.3e}")
    scale = float(np.abs(u.physical).max())
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


def _snapshot_steps(cfg: SolverConfig, step_times: list[float]) -> set[int]:
    """Map requested snapshot times to nearest completed-step indices."""
    all_times = [0.0] + step_times
    wanted = {0, len(step_times)}
    for ts in cfg.snapshot_times:
        k = min(range(len(all_times)), key=lambda i: abs(all_times[i] - ts))
        wanted.add(k)
    return wanted


def nse_solve(u0: Field, cfg: SolverConfig) -> Trajectory:
    """March u0 to t_end, collecting snapshots and per-audit diagnostics.

    Audits happen every `audit_every` steps plus always at t = 0 and the
    final step.  Blow-up (configured thresholds on max |u| and enstrophy,
    or non-finite values) raises with the last valid time attached.
    """
    _require_solvable(u0)
    kernel = _StepKernel(u0.grid, cfg.viscosity)
    lengths, step_times = _plan_steps(cfg)
    snap_at = _snapshot_steps(cfg, step_times)

    uhat = kernel.half(u0.spectral)
    times = [0.0]
    states = [u0]
    diagnostics: list[DiagnosticsRecord] = []

    integral = 0.0  # running trapezoid of enstrophy over audit times

    def audit(t: float, moments, umax: float, pressure) -> None:
        nonlocal integral
        energy, enstrophy = 0.5 * moments[0], moments[1]
        energy0 = diagnostics[0].entries["energy"] if diagnostics else energy
        if diagnostics:
            last = diagnostics[-1]
            integral += 0.5 * (t - last.time) * (last.entries["enstrophy"] + enstrophy)
        ratio, degenerate = pressure
        diagnostics.append(
            DiagnosticsRecord(
                time=t,
                entries={
                    "energy": energy,
                    "enstrophy": enstrophy,
                    "laplacian_norm": math.sqrt(moments[2]),
                    "max_u": umax,
                    "energy_residual": energy + integral - energy0,
                    "pressure_ratio": ratio,
                },
                flags={"pressure_degenerate": degenerate},
            )
        )

    # each audit's right-hand side is the next step's first stage
    a, umax, pressure = kernel.first_stage(uhat, audit=True)
    audit(0.0, kernel.moments(uhat), umax, pressure)
    t_prev = 0.0
    for step, (dt_k, t_k) in enumerate(zip(lengths, step_times), start=1):
        kernel.check_cfl(umax, dt_k)
        uhat = kernel.advance(uhat, dt_k, a)
        if not np.all(np.isfinite(uhat)):
            raise BlowUpError(
                f"non-finite values after t={t_prev}", last_valid_time=t_prev
            )
        audited = step % cfg.audit_every == 0 or step == len(lengths)
        a, umax, pressure = kernel.first_stage(uhat, audit=audited)
        moments = kernel.moments(uhat)
        if umax > cfg.blowup_max_u or moments[1] > cfg.blowup_max_enstrophy:
            raise BlowUpError(
                f"blow-up thresholds exceeded at t={t_k}: max|u|={umax:.3e}",
                last_valid_time=t_prev,
            )
        if audited:
            audit(t_k, moments, umax, pressure)
        if step in snap_at:
            times.append(t_k)
            states.append(Field.from_spectral(u0.grid, _hermitian_fill(uhat)))
        t_prev = t_k

    return Trajectory(
        times=tuple(times),
        states=tuple(states),
        diagnostics=diagnostics,
        config=cfg,
    )


def pressure_solve(u: Field) -> Field:
    """Zero-mean pressure with -Delta p = div[(u.grad)u], solved spectrally.

    (u.grad)u is the output-dealiased convective product of the untruncated
    field: the pressure of u as given, not the one implied by the solver's
    nonlinear term, which sees u truncated to the 2/3-rule modes.
    """
    if u.rank != "vector":
        raise UsageError("pressure solve needs a velocity field")
    kernel = _StepKernel(u.grid)
    uhat = kernel.half(u.spectral)
    f = sum(
        u_j * _irfftn(1j * k_j * uhat, u.grid.N)
        for u_j, k_j in zip(u.physical, kernel.k)
    )
    fhat = kernel.keep * _rfftn(f)
    phat = 1j * kernel.inv_ksq * sum(k * f for k, f in zip(kernel.k, fhat))
    phat[0, 0, 0] = 0.0
    return Field.from_spectral(u.grid, _hermitian_fill(phat))


def write_diagnostics_csv(records, path) -> None:
    """Stream DiagnosticsRecords to CSV with the fixed diagnostic columns.

    Floats are written with repr (shortest round-trip form), so identical
    runs produce byte-identical files.
    """
    lines = [",".join(DIAGNOSTIC_COLUMNS)]
    for rec in records:
        row = [repr(float(rec.time))]
        row += [repr(float(rec.entries[c])) for c in DIAGNOSTIC_COLUMNS[1:]]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def energy_audit(traj: Trajectory, tol: float | None = None) -> list[DiagnosticsRecord]:
    """Replay the energy equality over the audit series.

    For each audit time t, the residual rho(t) = E(t) + int_0^t ||grad u||^2
    - E(0) (trapezoid in time) should sit at quadrature level; rho(t) > tol
    is flagged as a violation of the energy inequality.  Default tol is
    1e-6 E(0).
    """
    if not traj.diagnostics:
        raise UsageError("trajectory carries no audit records")
    e0 = traj.diagnostics[0].entries["energy"]
    if tol is None:
        tol = 1e-6 * e0
    out = []
    integral = 0.0
    prev = None
    for rec in traj.diagnostics:
        ens = rec.entries["enstrophy"]
        if prev is not None:
            t_prev, ens_prev = prev
            integral += 0.5 * (rec.time - t_prev) * (ens_prev + ens)
        prev = (rec.time, ens)
        residual = rec.entries["energy"] + integral - e0
        out.append(
            DiagnosticsRecord(
                time=rec.time,
                entries={
                    "energy": rec.entries["energy"],
                    "dissipation_integral": integral,
                    "residual": residual,
                },
                flags={"violation": residual > tol},
            )
        )
    return out


def enstrophy_audit(traj: Trajectory, c_agmon: float) -> list[DiagnosticsRecord]:
    """Check the enstrophy differential inequality interval by interval.

    Per audit interval, the discrete d/dt ||grad u||^2 plus the mean
    ||Delta u||^2 is compared against (27/16) c^4 ||grad u||^6 (endpoint
    average); `margin` = RHS - LHS should be nonnegative up to quadrature
    noise.  Where 1 - (27/8) c^4 t ||grad u0||^4 stays positive, the
    closed-form enstrophy bound is evaluated too and checked from above.
    """
    if not np.isfinite(c_agmon) or c_agmon <= 0.0:
        raise UsageError(f"constant must be positive, got {c_agmon!r}")
    if len(traj.diagnostics) < 2:
        raise UsageError("enstrophy audit needs at least two audit points")
    c4 = c_agmon**4
    recs = traj.diagnostics
    t0 = recs[0].time
    y0 = recs[0].entries["enstrophy"]
    out = []
    for left, right in zip(recs, recs[1:]):
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
        return ExistenceEstimate(
            h1_bound=0.0, t_guaranteed=float("inf"), c_agmon=c_agmon
        )
    return ExistenceEstimate(
        h1_bound=m,
        t_guaranteed=2.0 / (9.0 * c_agmon**4 * m**2),
        c_agmon=c_agmon,
    )
