"""Lattice and spectral norms, tail masses, and inequality reports.

Lebesgue norms are plain lattice quadrature with weight h^3 (exact for p = 2
by Parseval).  Sobolev norms are spectral sums,

    ||f||_{H^s}^2 = vol * sum_k (1 + |k|^2)^s |fhat_k|^2,

with vol = (2 alpha)^3.  Every such sum is `spectral_moments` (or its loop
`_moments`, over spectra made one component at a time), which takes its
per-mode weights as arrays and runs over the stored half-spectrum with
the Hermitian multiplicities `BoxGrid.mult`; a field given by its samples is
transformed once and keeps its coefficients, so several norms of one field
share them.

`inequality_report` reports three dimensionless ratios,

    agmon_ratio  = ||u||_inf / (||grad u|| ||lap u||)^(1/2)
    l6_ratio     = ||u||_L6 / ||grad u||
    interp_ratio = ||u||_H1 / (||u||_L2 ||u||_H2)^(1/2)

The first two are invariant under the pure dilation u(x) -> u(x/lambda), so
their constants measured on one box transfer to any box of the
shared-spacing family.  `interp_ratio` mixes inhomogeneous norms, so a
dilation changes it; it stays <= 1 by Cauchy-Schwarz.
Constants are always measured on concrete fields, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import DataError, UsageError
from .spectral_core import Field, _max_abs, divergence

_MEAN_RTOL = 1e-8


# ---------------------------------------------------------------------------
# Spectral moments
# ---------------------------------------------------------------------------

def spectral_moments(f: Field, weights) -> list[float]:
    """vol * sum_k w_k |fhat_k|^2 over all components for each weight w (a
    half-spectrum array or a constant), from one |fhat|^2 pass per component,
    each sum bit for bit a lone one.  Weights on `BoxGrid.ksq_diff` match the
    package's differential operators."""
    spectra = f.spectral[None] if f.rank == "scalar" else f.spectral
    return _moments(f.grid, spectra, weights)


def _moments(grid, spectra, weights) -> list[float]:
    """`spectral_moments` of the components `spectra`, scalar half-spectra
    on grid's modes, summed in the order they come.  Each is dropped once
    its |c|^2 is formed, and one weight's product w * mult is alive at a
    time: |c|^2 times it is written over it, or over |c|^2 by a constant
    last weight."""
    totals, last = [0.0] * len(weights), len(weights) - 1
    for c in spectra:
        sq = c.real * c.real
        sq += c.imag * c.imag
        del c
        for j, w in enumerate(weights):
            wm = w * grid.mult
            if wm.shape == sq.shape:
                wm *= sq
            else:  # a constant w: one column of factors
                wm = np.multiply(sq, wm, out=sq if j == last else None)
            totals[j] += float(wm.sum())
            del wm
        del sq
    return [grid.volume * t for t in totals]


def l2_norm(f: Field) -> float:
    """||f||_{L^2} via Parseval (all components)."""
    return float(np.sqrt(spectral_moments(f, [1.0])[0]))


def grad_l2_sq(f: Field) -> float:
    """||grad f||_{L^2}^2 summed over all components and directions."""
    return spectral_moments(f, [f.grid.ksq_diff])[0]


# ---------------------------------------------------------------------------
# Public norms
# ---------------------------------------------------------------------------

def lebesgue_norm(f: Field, p: float) -> float:
    """L^p lattice norm of |f|, p in [1, inf]."""
    if not p >= 1:
        raise UsageError(f"Lebesgue exponent must satisfy p >= 1, got {p!r}")
    mag = f.magnitude()
    if not np.all(np.isfinite(mag)):
        raise DataError("non-finite field samples")
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * f.grid.h**3) ** (1.0 / p))


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm by spectral sum; fractional s allowed."""
    if not np.isfinite(s) or s < 0:
        raise UsageError(f"Sobolev order must satisfy s >= 0, got {s!r}")
    return float(np.sqrt(spectral_moments(f, [(1.0 + f.grid.ksq) ** s])[0]))


def tail_mass(f: Field, R: float) -> float:
    """int_{|x| >= R} |f|^2 over the box, lattice quadrature."""
    if not R >= 0:
        raise UsageError(f"tail radius must be nonnegative, got {R!r}")
    mask = f.grid.radius_sq() >= R * R
    mag2 = f.magnitude() ** 2
    return float(np.sum(mag2[mask]) * f.grid.h**3)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class NormReport:
    """Named norm/ratio values for one field, CSV-serializable."""

    entries: dict[str, float]
    flags: dict[str, bool] = dataclass_field(default_factory=dict)


@dataclass
class DiagnosticsRecord:
    """Named norms/ratios/residuals attached to one instant of time."""

    time: float
    entries: dict[str, float]
    flags: dict[str, bool] = dataclass_field(default_factory=dict)


def inequality_report(u: Field) -> NormReport:
    """Measure the dimensionless functional-inequality ratios on one field.

    `u` is a vector field, conventionally divergence-free; a field whose
    mean exceeds 1e-8 of its largest sample is rejected.  The zero field is
    reported with NaN ratios and the `degenerate` flag set.
    """
    if u.rank != "vector":
        raise UsageError("inequality_report expects a vector field")
    mean = np.abs(u.mean_value()).max()
    samples = Field(u.grid, physical=u.physical)  # one transform of a spectrum
    scale = max(_max_abs(samples.physical), 1e-300)
    if mean > _MEAN_RTOL * scale:
        raise DataError(
            "inequality_report requires a zero-mean field "
            f"(relative mean {mean / scale:.2e})"
        )
    linf = lebesgue_norm(samples, np.inf)
    l6 = lebesgue_norm(samples, 6)
    del samples
    g = u.grid
    l2, grad, lap, h2 = np.sqrt(
        spectral_moments(u, [1.0, g.ksq_diff, g.ksq_diff**2, (1.0 + g.ksq) ** 2])
    )
    h1 = np.sqrt(l2**2 + grad**2)
    degenerate = linf == 0.0 or grad == 0.0 or lap == 0.0
    if degenerate:
        agmon = l6r = interp = float("nan")
    else:
        agmon = linf / np.sqrt(grad * lap)
        l6r = l6 / grad
        interp = h1 / np.sqrt(l2 * h2)
    entries = {
        "l2": float(l2),
        "linf": linf,
        "l6": l6,
        "grad_l2": float(grad),
        "lap_l2": float(lap),
        "h1": float(h1),
        "h2": float(h2),
        "agmon_ratio": float(agmon),
        "l6_ratio": float(l6r),
        "interp_ratio": float(interp),
    }
    return NormReport(entries=entries, flags={"degenerate": bool(degenerate)})


def relative_divergence(u: Field) -> float:
    """||div u|| / ||grad u||, a dimensionless divergence-freeness measure."""
    grad = np.sqrt(grad_l2_sq(u))
    if grad == 0.0:
        return 0.0
    return l2_norm(divergence(u)) / grad
