"""Velocity reconstruction from vorticity, periodic and whole-space.

Periodic route: on Q_alpha the div-free velocity with curl u = omega is
recovered spectrally,

    uhat_k = (i k x omegahat_k) / |k|^2,   uhat_0 = 0,

exact on the grid up to roundoff.  Whole-space route: direct quadrature of
the Biot-Savart integral

    u(x) = -(1/4 pi) sum_y (x - y)/|x - y|^3 x omega(y) h^3,

summed over the lattice points of the support, self-term omitted.  The
quadrature costs O(support size) per point and serves purely as an oracle
for validating the periodic inversion against its whole-space limit; it is
never used inside any solver loop.

For divergence-free u the gradient and the curl carry the same energy,
||grad u||_L2 = ||curl u||_L2 — spectrally this is the per-mode identity
|k|^2 |uhat|^2 = |k x uhat|^2 + |k . uhat|^2 with the last term zero.
`curl_identity_report` measures both sides; `lplq_uniformity_report`
measures the vorticity-to-velocity L^p -> L^q operator norm across box
sizes, which stays bounded as the box grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainTooSmallError, SupportError, UsageError
from .extension import rehost_compact
from .norms import (
    DiagnosticsRecord,
    grad_l2_sq,
    l2_norm,
    lebesgue_norm,
    relative_divergence,
)
from .spectral_core import BoxGrid, Field, curl, leray_project


class VorticityField:
    """A vector field declared to be a vorticity: div-free, zero-mean, and
    supported in the ball B(0, support_radius).

    Construction measures and stores the actual residuals (`div_rel`,
    `mean_rel`, `support_leak_rel`) and rejects the field when they exceed
    the tolerances.  `support_tol` may be loosened — even to inf — for
    analytically periodic test data that is not compactly supported; the
    radius is then purely declarative.
    """

    def __init__(
        self,
        omega: Field,
        support_radius: float,
        *,
        div_tol: float = 1e-10,
        mean_tol: float = 1e-10,
        support_tol: float = 1e-6,
    ):
        if omega.rank != "vector":
            raise UsageError("vorticity must be a vector field")
        if not np.isfinite(support_radius) or support_radius <= 0:
            raise UsageError(
                f"support radius must be positive, got {support_radius!r}"
            )
        self.omega = omega
        self.support_radius = float(support_radius)
        self.div_tol = float(div_tol)
        self.mean_tol = float(mean_tol)
        self.support_tol = float(support_tol)

        scale = float(np.abs(omega.physical).max())
        if scale == 0.0:
            self.div_rel = self.mean_rel = self.support_leak_rel = 0.0
            return

        self.div_rel = relative_divergence(omega)
        if self.div_rel > div_tol:
            raise DataError(
                f"vorticity is not divergence-free: relative divergence "
                f"{self.div_rel:.3e} > {div_tol:.1e}"
            )
        self.mean_rel = float(np.abs(omega.mean_value()).max()) / scale
        if self.mean_rel > mean_tol:
            raise DataError(
                f"vorticity carries a mean: relative mean {self.mean_rel:.3e}"
            )
        x = omega.grid.x1d
        r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
        outside = r2 > self.support_radius**2
        if np.any(outside):
            leak = float(omega.magnitude()[outside].max())
        else:
            leak = 0.0
        self.support_leak_rel = leak / scale
        if self.support_leak_rel > support_tol:
            raise SupportError(
                f"vorticity leaks outside B(0, {self.support_radius}): "
                f"relative magnitude {self.support_leak_rel:.3e}"
            )

    @property
    def grid(self) -> BoxGrid:
        return self.omega.grid


def curl_inv_periodic(w: VorticityField) -> Field:
    """Divergence-free, zero-mean u on Q_alpha with curl u = omega.

    Needs the support to fit strictly inside the box; otherwise the periodic
    field cannot stand in for the whole-space one.
    """
    g = w.grid
    if w.support_radius >= g.alpha:
        raise DomainTooSmallError(
            f"support radius {w.support_radius} does not fit strictly inside "
            f"Q_{g.alpha}"
        )
    kx, ky, kz = g.k_axes(diff=True)
    wx, wy, wz = w.omega.spectral
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(g.ksq_diff > 0.0, 1.0 / g.ksq_diff, 0.0)
    uhat = np.stack(
        [
            1j * (ky * wz - kz * wy) * inv,
            1j * (kz * wx - kx * wz) * inv,
            1j * (kx * wy - ky * wx) * inv,
        ]
    )
    return Field.from_spectral(g, uhat)


def rehost_vorticity(w: VorticityField, target: BoxGrid) -> VorticityField:
    """Move compactly supported vorticity onto another box of the family.

    Zero-padding/cropping keeps the samples bit-identical, but the new box
    reads them through its own trigonometric interpolant, which perturbs the
    discrete divergence at spectral-truncation level; one projection (plus
    zeroing the mean mode) restores it to roundoff.  The projection is
    nonlocal, so it also smears truncation-level content outside the support
    ball; the rehosted field therefore revalidates under the tolerances the
    source field was accepted with, not the strict defaults.
    """
    if w.support_radius >= target.alpha:
        raise DomainTooSmallError(
            f"support radius {w.support_radius} does not fit inside "
            f"Q_{target.alpha}"
        )
    moved = leray_project(rehost_compact(w.omega, target))
    cleaned = moved.spectral.copy()
    cleaned[..., 0, 0, 0] = 0.0
    return VorticityField(
        Field.from_spectral(target, cleaned),
        w.support_radius,
        div_tol=w.div_tol,
        mean_tol=w.mean_tol,
        support_tol=w.support_tol,
    )


@dataclass(frozen=True)
class BiotSavartResult:
    """Velocities at the query points, with per-point resolution warnings."""

    velocities: np.ndarray  # (M, 3)
    under_resolved: np.ndarray  # (M,) bool: query within h/2 of a source point


def biot_savart_r3(w: VorticityField, query_points) -> BiotSavartResult:
    """Whole-space Biot-Savart quadrature over the support lattice points.

    The kernel sample at y = x is omitted (the integral is absolutely
    convergent; the omitted cell contributes O(h)).  Query points closer
    than h/2 to a source lattice point are answered but flagged
    under-resolved.
    """
    pts = np.asarray(query_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise UsageError("query points must have shape (M, 3)")
    g = w.grid
    x = g.x1d
    r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
    inside = r2 <= w.support_radius**2
    xs, ys_, zs = np.meshgrid(x, x, x, indexing="ij")
    sources = np.stack([xs[inside], ys_[inside], zs[inside]], axis=1)  # (K, 3)
    weights = w.omega.physical[:, inside].T  # (K, 3)

    velocities = np.zeros_like(pts)
    under = np.zeros(len(pts), dtype=bool)
    if sources.size == 0:
        return BiotSavartResult(velocities, under)
    prefactor = g.h**3 / (4.0 * np.pi)
    for i, p in enumerate(pts):
        d = p[None, :] - sources  # (K, 3)
        dist = np.sqrt(np.sum(d * d, axis=1))
        keep = dist > 1e-12
        under[i] = bool(np.any(dist[keep] < 0.5 * g.h)) or not np.all(keep)
        dk = d[keep]
        inv3 = dist[keep] ** -3
        # u = (1/4pi) sum omega x (x - y) / |x - y|^3 * h^3
        velocities[i] = prefactor * np.sum(
            np.cross(weights[keep], dk) * inv3[:, None], axis=0
        )
    return BiotSavartResult(velocities, under)


def curl_identity_report(u: Field) -> DiagnosticsRecord:
    """Measure ||grad u|| against ||curl u|| (equal for div-free fields).

    A field whose relative divergence exceeds 1e-8 gets the
    `not_applicable` flag instead of an error — the numbers are still
    reported, the equality just is not expected to hold.
    """
    if u.rank != "vector":
        raise UsageError("curl identity applies to vector fields")
    rel_div = relative_divergence(u)
    grad = float(np.sqrt(grad_l2_sq(u)))
    curl_norm = l2_norm(curl(u))
    if grad == 0.0 and curl_norm == 0.0:
        rel_diff = 0.0
    else:
        rel_diff = abs(grad - curl_norm) / max(curl_norm, 1e-300)
    return DiagnosticsRecord(
        time=0.0,
        entries={
            "grad_norm": grad,
            "curl_norm": curl_norm,
            "rel_diff": rel_diff,
            "rel_div": rel_div,
        },
        flags={"not_applicable": rel_div > 1e-8},
    )


@dataclass(frozen=True)
class UniformityRow:
    """One box size of the vorticity-to-velocity operator-norm table."""

    alpha: float
    velocity_norm: float
    vorticity_norm: float
    ratio: float
    degenerate: bool


def lplq_uniformity_report(
    w: VorticityField, p: float, alphas
) -> list[UniformityRow]:
    """Measure ||u_alpha||_Lq / ||omega||_Lp across boxes, 1/q = 1/p - 1/3.

    The exponent pairing is the one under which the vorticity-to-velocity
    map has an alpha-independent bound; the table lets the caller check
    that the measured ratios indeed show no growth trend.
    """
    if not (1.0 < p < 3.0):
        raise UsageError(f"exponent must lie in (1, 3), got {p!r}")
    q = 3.0 * p / (3.0 - p)
    h = w.grid.h
    rows = []
    for alpha in sorted(float(a) for a in alphas):
        n = int(round(2.0 * alpha / h))
        target = w.grid if target_matches(w.grid, alpha, n) else BoxGrid(alpha, n)
        hosted = w if target is w.grid else rehost_vorticity(w, target)
        u = curl_inv_periodic(hosted)
        un = lebesgue_norm(u, q)
        wn = lebesgue_norm(hosted.omega, p)
        degenerate = wn == 0.0
        ratio = float("nan") if degenerate else un / wn
        rows.append(
            UniformityRow(
                alpha=alpha,
                velocity_norm=un,
                vorticity_norm=wn,
                ratio=ratio,
                degenerate=degenerate,
            )
        )
    return rows


def target_matches(grid: BoxGrid, alpha: float, n: int) -> bool:
    """Whether (alpha, n) describes this very grid."""
    return n == grid.N and abs(alpha - grid.alpha) <= 1e-12 * grid.alpha
