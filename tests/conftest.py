"""Shared fixtures and field generators for the test suite."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from boxflow.errors import UsageError
from boxflow.norms import (
    NormReport,
    grad_l2_sq,
    l2_norm,
    lebesgue_norm,
    relative_divergence,
    spectral_moments,
)
from boxflow.spectral_core import BoxGrid, Field, curl, gradient, leray_project


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def traced_peak(fn) -> int:
    """The traced peak of fn() in bytes, in a window opened for the call;
    tracemalloc is stopped however fn ends."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def meshgrid(grid: BoxGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full 3-d coordinate arrays of the grid's samples, indexed [x, y, z]."""
    return np.meshgrid(grid.x1d, grid.x1d, grid.x1d, indexing="ij")


def white_field(grid: BoxGrid, rng, rank="scalar") -> Field:
    """Unfiltered white-noise samples (rough; fine for transform tests)."""
    shape = (grid.N,) * 3 if rank == "scalar" else (3,) + (grid.N,) * 3
    return Field.from_physical(grid, rng.standard_normal(shape))


def full_spectrum(f: Field) -> np.ndarray:
    """Oracle: all N^3 coefficients of f, by a complex FFT of its samples."""
    return scipy.fft.fftn(f.physical, axes=(-3, -2, -1), norm="forward")


def full_ksq(grid: BoxGrid, diff: bool = True) -> np.ndarray:
    """|k|^2 on the full N^3 mode lattice, for `full_spectrum` sums."""
    k = grid.k1d_diff if diff else grid.k1d
    return k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2


def dealias(f: Field) -> Field:
    """Reference 2/3 rule: zero every coefficient with some 3|m_i| >= N.

    Built from the mode numbers rather than `BoxGrid.two_thirds_mask`, so
    the tests can hold the solver's mask against it.
    """
    n = f.grid.N
    keep = 3 * np.abs(f.grid.modes1d) < n
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, : n // 2 + 1]
    return Field(f.grid, spectral=f.spectral * mask)


def curl_identity_report(u: Field) -> NormReport:
    """Oracle: ||grad u|| against ||curl u|| (equal for div-free fields).

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
    return NormReport(
        entries={
            "grad_norm": grad,
            "curl_norm": curl_norm,
            "rel_diff": rel_diff,
            "rel_div": rel_div,
        },
        flags={"not_applicable": rel_div > 1e-8},
    )


def dilate(f: Field, alpha: float) -> Field:
    """f relabelled onto Q_alpha at the same N: the same samples and spectrum."""
    return Field(BoxGrid(alpha, f.grid.N), physical=f._physical, spectral=f._spectral)


def derivative_norm(f: Field, p: float, k: int) -> float:
    """||D^k f||_{L^p} of the pointwise Euclidean magnitude over every order-k
    derivative and component, by the package's norms: a spectral sum for
    p = 2 (sum_ij ||d_i d_j f||^2 at k = 2), else `lebesgue_norm` of f or,
    for scalar f, of its gradient.  A dilation by lam scales it by
    lam^(3/p - k)."""
    if p == 2:
        weight = (1.0, f.grid.ksq_diff, f.grid.ksq_diff**2)[k]
        return math.sqrt(spectral_moments(f, [weight])[0])
    return lebesgue_norm(gradient(f) if k else f, p)


def smooth_field(grid: BoxGrid, rng, rank="scalar", zero_mean=True, m0=None) -> Field:
    """Random field with an exp(-|m|^2/m0^2) spectral envelope.

    Smooth enough that second derivatives are well resolved, which the
    inequality and identity tests need.
    """
    if m0 is None:
        m0 = grid.N / 8
    f = white_field(grid, rng, rank=rank)
    m = grid.modes1d
    mz = m[: grid.N // 2 + 1]  # half-spectrum columns; the last is +-N/2
    env = np.exp(-(m[:, None, None] ** 2 + m[None, :, None] ** 2 + mz**2) / m0**2)
    coeffs = f.spectral * env
    if zero_mean:
        coeffs[..., 0, 0, 0] = 0.0
    return Field.from_physical(grid, Field.from_spectral(grid, coeffs).physical)


def div_free_field(grid: BoxGrid, rng, m0=None) -> Field:
    """Random smooth divergence-free, zero-mean vector field."""
    return leray_project(smooth_field(grid, rng, rank="vector", m0=m0))


def taylor_green(grid: BoxGrid, amplitude=1.0) -> Field:
    """The classic single-scale divergence-free test flow.

    u = A (sin x' cos y' cos z', -cos x' sin y' cos z', 0) with x' = pi x / alpha,
    so the field is exactly periodic on any box.
    """
    s = np.pi / grid.alpha
    x, y, z = meshgrid(grid)
    u = np.empty((3, grid.N, grid.N, grid.N))
    u[0] = amplitude * np.sin(s * x) * np.cos(s * y) * np.cos(s * z)
    u[1] = -amplitude * np.cos(s * x) * np.sin(s * y) * np.cos(s * z)
    u[2] = 0.0
    return Field.from_physical(grid, u)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criteria verdicts after the test summary."""
    try:
        from test_acceptance import REPORT
    except ImportError:
        return
    if REPORT:
        terminalreporter.section("acceptance criteria")
        for line in sorted(REPORT):
            terminalreporter.write_line(line)
