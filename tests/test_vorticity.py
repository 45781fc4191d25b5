"""Vorticity inversion: periodic spectral route vs whole-space quadrature.

The anchor oracles are a one-mode shear sheet whose inversion is a one-line
closed form, and the far-field/near-field behaviour of the Biot-Savart
integral for a compact bump (dipole decay |u| ~ |x|^-3, agreement with the
periodic inversion once the box dwarfs the support).
"""

import numpy as np
import pytest

from boxflow.errors import DataError, DomainTooSmallError, SupportError, UsageError
from boxflow.initial_data import BumpSpec, bump_vorticity
from boxflow.norms import NormReport, l2_norm, relative_divergence
from boxflow.spectral_core import BoxGrid, Field, curl, gradient
from boxflow.vorticity import VorticityField, biot_savart_r3, curl_inv_periodic

from conftest import (
    curl_identity_report,
    div_free_field,
    meshgrid,
    smooth_field,
    taylor_green,
    traced_peak,
)


def sine_sheet(alpha, n, c=1.3):
    """omega = (0, 0, c sin(pi x / alpha)) — periodic, div-free, mean-free.

    Not compactly supported, so the support check is waived and the radius
    is declarative (just under the box, which every `VorticityField` needs).
    """
    grid = BoxGrid(alpha, n)
    x, _, _ = meshgrid(grid)
    om = np.zeros((3, n, n, n))
    om[2] = c * np.sin(np.pi * x / alpha)
    return grid, VorticityField(
        Field.from_physical(grid, om), 0.9 * alpha, support_tol=np.inf
    )


# ---------------------------------------------------------------- inversion


def test_sine_sheet_inversion_matches_closed_form():
    # curl(0, -(c alpha/pi) cos(pi x/alpha), 0) = (0, 0, c sin(pi x/alpha))
    alpha, c = 2.0, 1.3
    grid, w = sine_sheet(alpha, 32, c)
    u = curl_inv_periodic(w)
    x, _, _ = meshgrid(grid)
    expected = np.zeros((3, 32, 32, 32))
    expected[1] = -(c * alpha / np.pi) * np.cos(np.pi * x / alpha)
    assert np.abs(u.physical - expected).max() < 1e-12


def test_bump_build_and_inversion_hold_no_vector_temporary():
    # in units of one vector half-spectrum at N=64 (1.75): the divergence
    # check holds omega, the |k|^2 table, div omega and its |c|^2 (1.67)
    # and one slab of the divergence; |omega| dies before it.  The inversion
    # writes uhat over omega, slab by slab, beside the |k|^2 and 1/|k|^2
    # tables.  uhat made beside omega gave 2.41; the whole k_l omega_j
    # beside them, and the potential e ghat beside its curl in the build,
    # 2.69
    grid = BoxGrid(2.0, 64)
    unit = 3 * 64 * 64 * 33 * 16
    peak = traced_peak(lambda: curl_inv_periodic(bump_vorticity(BumpSpec(0.5), grid)))
    assert peak <= 1.85 * unit


def test_zero_vorticity_inverts_to_zero():
    grid = BoxGrid(2.0, 16)
    w = VorticityField(Field.from_physical(grid, np.zeros((3, 16, 16, 16))), 0.5)
    assert w.div_rel == 0.0 and w.support_leak_rel == 0.0
    assert np.all(curl_inv_periodic(w).physical == 0.0)


def test_curl_of_inversion_recovers_bump():
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 32))
    omega = Field.from_spectral(w.grid, w.omega.spectral.copy())  # w is consumed
    u = curl_inv_periodic(w)
    gap = Field.from_spectral(u.grid, curl(u).spectral - omega.spectral)
    err = l2_norm(gap) / l2_norm(omega)
    assert err < 1e-12


def test_inversion_is_divergence_free_and_mean_free():
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 32))
    u = curl_inv_periodic(w)
    assert w.omega is None  # u is written over omega's spectrum
    assert relative_divergence(u) < 1e-13
    assert np.abs(u.mean_value()).max() < 1e-14


def test_spectral_vorticity_keeps_no_samples():
    # the checks read the samples of a vorticity given as a spectrum, and
    # drop them
    w = bump_vorticity(BumpSpec(support_radius=0.5), BoxGrid(1.0, 16))
    assert w.omega.has_spectral and w.omega._physical is None
    assert 0.0 < w.support_leak_rel < 1e-2


def test_vorticity_given_by_samples_leaves_them_unchanged():
    # the checks square a spectrum's fresh samples in place, never the
    # samples a field stores; both layouts of given samples are read only
    grid = BoxGrid(2.0, 32)
    padded = bump_vorticity(BumpSpec(0.5), grid).omega.physical
    for samples in (padded, np.ascontiguousarray(padded)):
        kept = samples.tobytes()
        w = VorticityField(Field.from_physical(grid, samples), 0.5, support_tol=1e-2)
        assert w.omega.physical is samples and samples.tobytes() == kept
        assert 0.0 < w.support_leak_rel < 1e-2


def test_support_touching_box_rejected(rng):
    grid, w = sine_sheet(2.0, 16)
    with pytest.raises(DomainTooSmallError, match="does not fit strictly inside"):
        VorticityField(w.omega, 2.0, support_tol=np.inf)
    # the fit is checked before the divergence
    divergent = smooth_field(grid, rng, rank="vector")
    with pytest.raises(DomainTooSmallError):
        VorticityField(divergent, 2.5, support_tol=np.inf)


# --------------------------------------------------------------- validation


def test_divergent_field_rejected(rng):
    grid = BoxGrid(2.0, 16)
    f = smooth_field(grid, rng, rank="vector")  # not projected
    with pytest.raises(DataError, match="divergence"):
        VorticityField(f, 0.9 * grid.alpha, support_tol=np.inf)


def test_mean_carrying_field_rejected():
    grid = BoxGrid(2.0, 16)
    f = Field.from_physical(grid, np.ones((3, 16, 16, 16)))  # div = 0, mean = 1
    with pytest.raises(DataError, match="mean"):
        VorticityField(f, 0.9 * grid.alpha, support_tol=np.inf)


def test_leaky_declared_support_rejected():
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 32))
    with pytest.raises(SupportError):
        VorticityField(w.omega, 0.2)


def test_bad_arguments_rejected(rng):
    grid = BoxGrid(2.0, 16)
    with pytest.raises(UsageError):
        VorticityField(smooth_field(grid, rng), 0.5)  # scalar
    vec = Field.from_physical(grid, np.zeros((3, 16, 16, 16)))
    for radius in (0.0, -1.0, np.inf):
        with pytest.raises(UsageError):
            VorticityField(vec, radius)


# -------------------------------------------------------------- Biot-Savart


def test_biot_savart_zero_field_zero_velocity():
    grid = BoxGrid(2.0, 16)
    w = VorticityField(Field.from_physical(grid, np.zeros((3, 16, 16, 16))), 0.5)
    res = biot_savart_r3(w, [[0.7, 0.0, 0.0], [0.0, 1.1, 0.3]])
    assert np.all(res.velocities == 0.0)


def test_biot_savart_flags_points_near_sources():
    grid = BoxGrid(2.0, 32)
    w = bump_vorticity(BumpSpec(0.5), grid)
    h = grid.h
    pts = [
        [0.0, 0.0, 0.0],          # on a source lattice point (self-hit)
        [h / 4.0, 0.0, 0.0],      # within h/2 of a source
        [1.5, 0.0, 0.0],          # a full unit away from the support
    ]
    res = biot_savart_r3(w, pts)
    assert res.under_resolved.tolist() == [True, True, False]
    assert np.all(np.isfinite(res.velocities))


def test_biot_savart_far_field_dipole_decay():
    # No net vorticity, so the far field is the dipole of the stream
    # potential: |u| ~ |x|^-3, giving ratio 8 per distance doubling.
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 48))
    directions = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0] / np.sqrt(3.0),
            [1.0 / 3.0, -2.0 / 3.0, 2.0 / 3.0],
        ]
    )
    near = biot_savart_r3(w, 2.0 * directions)
    far = biot_savart_r3(w, 4.0 * directions)
    assert not near.under_resolved.any() and not far.under_resolved.any()
    ratios = np.linalg.norm(near.velocities, axis=1) / np.linalg.norm(
        far.velocities, axis=1
    )
    assert np.all((7.7 < ratios) & (ratios < 8.3))


def test_biot_savart_matches_periodic_inversion():
    # Support radius 0.5 in a half-width-4 box: the nearest periodic image
    # sits 8 away, so the whole-space quadrature and the periodic inversion
    # should agree to the image-contamination level (~1.5e-2 at |x| = 1).
    grid = BoxGrid(4.0, 128)
    w = bump_vorticity(BumpSpec(0.5), grid)
    rng = np.random.default_rng(7)
    raw = rng.uniform(-1.0, 1.0, size=(60, 3))
    rr = np.linalg.norm(raw, axis=1)
    raw = raw[(rr >= 0.6) & (rr <= 1.0)][:10]
    assert len(raw) == 10
    idx = np.round((raw + grid.alpha) / grid.h).astype(int) % grid.N
    lattice_pts = np.stack(
        [grid.x1d[idx[:, 0]], grid.x1d[idx[:, 1]], grid.x1d[idx[:, 2]]], axis=1
    )
    res = biot_savart_r3(w, lattice_pts)
    assert not res.under_resolved.any()
    u = curl_inv_periodic(w)  # after the quadrature: it consumes w
    periodic = u.physical[:, idx[:, 0], idx[:, 1], idx[:, 2]].T
    rel = np.linalg.norm(res.velocities - periodic, axis=1) / np.linalg.norm(
        periodic, axis=1
    )
    assert rel.max() < 2e-2


def test_biot_savart_rejects_bad_query_shape():
    grid = BoxGrid(2.0, 16)
    w = VorticityField(Field.from_physical(grid, np.zeros((3, 16, 16, 16))), 0.5)
    with pytest.raises(UsageError):
        biot_savart_r3(w, [0.1, 0.2, 0.3])  # (3,) instead of (M, 3)


# ------------------------------------------------------------ curl identity


def test_curl_identity_for_div_free_fields(rng):
    for u in (taylor_green(BoxGrid(2.0, 24)), div_free_field(BoxGrid(1.0, 24), rng)):
        rec = curl_identity_report(u)
        assert isinstance(rec, NormReport)  # a one-field report, no time
        assert rec.entries["rel_diff"] < 1e-12
        assert not rec.flags["not_applicable"]


def test_curl_identity_zero_field():
    u = Field.from_physical(BoxGrid(2.0, 16), np.zeros((3, 16, 16, 16)))
    rec = curl_identity_report(u)
    assert rec.entries["rel_diff"] == 0.0
    assert not rec.flags["not_applicable"]


def test_curl_identity_flags_divergent_field(rng):
    # A gradient field is curl-free but certainly not divergence-free.
    phi = smooth_field(BoxGrid(2.0, 24), rng)
    rec = curl_identity_report(gradient(phi))
    assert rec.flags["not_applicable"]
    assert rec.entries["rel_div"] > 1e-8
    assert rec.entries["grad_norm"] > 0.0

