"""Smooth cutoff extension of box fields to a larger box.

A field u on Q_alpha = (-alpha, alpha)^3 is extended to a reference box
Q_beta by

    u_ext(x) = psi(x) * u_per(x),

where u_per is the periodic extension of u and psi is a tensor product of
per-axis quintic-smoothstep profiles: psi = 1 on Q_alpha, psi = 0 outside
Q_(alpha+1), with the fade happening on a band of unit width regardless of
alpha.  That fixed band is what makes the derivative bounds of the cutoff
independent of the box size, and with them the extension-operator constants:

    ||u_ext||_L2  <= 27 ||u||_L2
    ||grad u_ext||_L2 <= max(26*M1, 27) ||u||_H1
    ||u_ext||_H2  <= max(27*M2, 52*M1, 27) ||u||_H2

where M1, M2 bound |grad psi| and |hess psi|.  The factor 27 counts the 3^3
neighbouring periodic cells a point of the padded box can pull values from;
the same counting gives the tail comparison

    int_{|x| >= R} |u_ext|^2  <=  27 * int_{x in Q_alpha, |x| >= R} |u|^2

for every R <= alpha - 1, which on shared-spacing lattices is an exact
counting identity, not an estimate (each source lattice point has at most 27
images, each weighted by psi^2 <= 1, and any image of a point with |y| < R
either keeps its coordinates or gains one of size > alpha - 1 >= R).

`extend_field(u, target)` takes alpha from the grid of u, so the cutoff is
always that of the source box; it needs alpha >= 1 and beta >= alpha + 1.
`cutoff_profile(alpha, s)` is one axis factor of psi.

All grids involved must belong to one shared-spacing family (equal h); the
lattices of such a family coincide where the boxes overlap, so extension is
pure index arithmetic with no interpolation anywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, GridCompatibilityError, SupportError
from .spectral_core import BoxGrid, Field, _padded, _slabs

# Per-axis profile bounds for the quintic smoothstep 6t^5 - 15t^4 + 10t^3:
# max |zeta'| = 15/8 (at mid-band), max |zeta''| = 10/sqrt(3).
AXIS_GRAD_BOUND = 15.0 / 8.0
AXIS_CURV_BOUND = 10.0 / np.sqrt(3.0)

# Whole-cutoff bounds from the tensor-product structure (0 <= zeta <= 1):
# |grad psi|^2 <= 3 max|zeta'|^2, |hess psi|^2 <= 3 max|zeta''|^2 + 6 max|zeta'|^4.
CUTOFF_GRAD_BOUND = float(np.sqrt(3.0) * AXIS_GRAD_BOUND)
CUTOFF_HESS_BOUND = float(
    np.sqrt(3.0 * AXIS_CURV_BOUND**2 + 6.0 * AXIS_GRAD_BOUND**4)
)

# Extension-operator constants (independent of alpha).
EXTENSION_L2_BOUND = 27.0
EXTENSION_GRAD_BOUND = max(26.0 * CUTOFF_GRAD_BOUND, 27.0)
EXTENSION_H2_BOUND = max(27.0 * CUTOFF_HESS_BOUND, 52.0 * CUTOFF_GRAD_BOUND, 27.0)

def _smoothstep(t: np.ndarray) -> np.ndarray:
    """The C^2 quintic 6t^5 - 15t^4 + 10t^3 on [0, 1]."""
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def cutoff_profile(alpha: float, s) -> np.ndarray:
    """One axis factor of psi: 1 for |s| <= alpha, smooth fade to 0 by alpha+1."""
    t = np.clip(np.abs(np.asarray(s, dtype=np.float64)) - alpha, 0.0, 1.0)
    return 1.0 - _smoothstep(t)


def _shared_spacing_offset(src: BoxGrid, dst: BoxGrid) -> int:
    """Index shift aligning two lattices of one shared-spacing family."""
    if abs(src.h - dst.h) > 1e-12 * src.h:
        raise GridCompatibilityError(
            f"grids do not share lattice spacing: h={src.h!r} vs {dst.h!r}"
        )
    # With equal h and even N on both sides the offset is automatically an
    # integer number of cells, so the lattices coincide on the overlap.
    return (dst.N - src.N) // 2


def extend_field(u: Field, target: BoxGrid) -> Field:
    """psi * (periodic extension of u), sampled on the target lattice.

    psi is the cutoff of the source box Q_alpha, so the result equals u
    exactly on Q_alpha and vanishes outside Q_(alpha+1).  Requires
    alpha >= 1 (so Q_(alpha-1) exists) and a target box that holds the
    whole fade band: beta >= alpha + 1.
    """
    alpha = u.grid.alpha
    if alpha < 1.0:
        raise ConfigurationError(f"cutoff needs alpha >= 1, got {alpha!r}")
    if target.N < u.grid.N:
        raise GridCompatibilityError(
            f"extension target Q_{target.alpha} is smaller than the source "
            f"box Q_{alpha}"
        )
    offset = _shared_spacing_offset(u.grid, target)
    if target.alpha < alpha + 1.0 - 1e-12:
        raise SupportError(
            f"target box Q_{target.alpha} truncates the cutoff band of "
            f"Q_{alpha} (need beta >= alpha + 1)"
        )
    n, idx = target.N, (np.arange(target.N) - offset) % u.grid.N
    src = u.physical
    ext = _padded(src.shape[:-3] + (n, n, n))  # the gap transforms them in place
    z = cutoff_profile(alpha, target.x1d)
    for rows in _slabs(ext):  # psi = (z_x z_y) z_z, then times the samples, a slab at a time
        slab = ext[..., rows, :, :]
        np.multiply(z[rows, None, None] * z[None, :, None], z[None, None, :], out=slab)
        slab *= np.take(np.take(src[..., idx[rows], :, :], idx, axis=-2), idx, axis=-1)
    return Field.from_physical(target, ext)
