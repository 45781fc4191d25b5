"""Deterministic vorticity generators: the radial bump and the knotted tube.

Both constructions are checked against structure they must have exactly
(divergence, mean, symmetry-forced helicity) and against resolution audits
that must improve superalgebraically as the grid refines.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxflow.errors import DomainTooSmallError, UsageError
from boxflow.initial_data import (
    BumpSpec,
    TrefoilSpec,
    bump_vorticity,
    mollifier,
    trefoil_vorticity,
)
from boxflow.spectral_core import BoxGrid, Field, curl
from boxflow.vorticity import curl_identity_report, curl_inv_periodic


# ----------------------------------------------------------------- mollifier


def test_mollifier_profile():
    assert mollifier(np.array(0.0)) == 1.0
    assert mollifier(np.array([1.0, -1.0, 1.5, -7.0])).tolist() == [0.0] * 4
    # exp(-c s^2 / (1 - s^2)) at s = 1/2, c = 9: exp(-3)
    assert abs(mollifier(np.array(0.5)) - np.exp(-3.0)) < 1e-15
    # strictly decreasing until the tail underflows (exp(-83) at s = 0.95)
    s = np.linspace(0.0, 0.95, 400)
    assert np.all(np.diff(mollifier(s)) < 0.0)


def test_mollifier_matches_its_reference_formula():
    # the profile is built in place, in the order of this formula
    s = np.linspace(-1.5, 1.5, 20001)
    inside = np.abs(s) < 1.0
    denom = np.where(inside, 1.0 - s * s, 1.0)
    expected = np.where(inside, np.exp(-9.0 * (s * s) / denom), 0.0)
    assert np.array_equal(mollifier(s), expected)


# ---------------------------------------------------------------------- bump


def test_bump_is_divergence_free_and_mean_free():
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 32))
    assert w.div_rel < 1e-13   # curl of a potential: cancellation to roundoff
    assert w.mean_rel == 0.0   # derivative kills the zero mode exactly


def test_bump_support_leak_shrinks_with_resolution():
    leaks = [
        bump_vorticity(BumpSpec(0.5), BoxGrid(1.0, n)).support_leak_rel
        for n in (32, 64, 96)
    ]
    assert leaks[0] < 1e-2
    assert leaks[1] < 1e-5
    assert leaks[2] < 1e-7
    assert leaks[1] < leaks[0] / 10 and leaks[2] < leaks[1] / 10


def test_bump_velocity_satisfies_curl_identity():
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 32))
    rec = curl_identity_report(curl_inv_periodic(w))
    assert rec.entries["rel_diff"] < 1e-12
    assert not rec.flags["not_applicable"]


def helicity(w) -> float:
    """int u . omega by lattice quadrature, u the periodic inversion of omega."""
    omega, h = w.omega.physical.copy(), w.grid.h  # the inversion consumes w
    u = curl_inv_periodic(w)
    return float(np.sum(u.physical * omega) * h**3)


def test_bump_helicity_vanishes():
    # The potential is g(|x|) e with constant e, so A . curl A = 0 pointwise
    # and the helicity integral is exactly zero; the grid sees roundoff.
    w = bump_vorticity(BumpSpec(0.5), BoxGrid(2.0, 32))
    assert abs(helicity(w)) < 1e-14


def test_bump_determinism():
    a = bump_vorticity(BumpSpec(0.5, amplitude=2.5), BoxGrid(2.0, 32))
    b = bump_vorticity(BumpSpec(0.5, amplitude=2.5), BoxGrid(2.0, 32))
    assert np.array_equal(a.omega.physical, b.omega.physical)


def test_bump_scales_linearly_and_normalizes_direction():
    grid = BoxGrid(2.0, 32)
    one = bump_vorticity(BumpSpec(0.5), grid)
    two = bump_vorticity(BumpSpec(0.5, amplitude=2.0), grid)
    assert np.allclose(two.omega.physical, 2.0 * one.omega.physical, rtol=1e-13)
    long_dir = bump_vorticity(BumpSpec(0.5, direction=(0.0, 0.0, 5.0)), grid)
    assert np.array_equal(long_dir.omega.physical, one.omega.physical)


def potential_curl(spec: BumpSpec, grid: BoxGrid) -> np.ndarray:
    """The bump's spectrum as the curl of the whole potential e ghat."""
    e = np.asarray(spec.direction, dtype=np.float64)
    e = e / np.sqrt(np.sum(e * e))
    g = mollifier(np.sqrt(grid.radius_sq()) / spec.support_radius) * spec.amplitude
    ghat = Field.from_physical(grid, g).spectral
    return curl(Field.from_spectral(grid, e[:, None, None, None] * ghat)).spectral


@settings(max_examples=15, deadline=None)
@given(
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda e: np.linalg.norm(e) > 1e-3
    ),
    amplitude=st.floats(0.1, 10.0),
    n=st.integers(4, 32).map(lambda k: 2 * k),
)
@example(direction=(0.0, 0.0, 1.0), amplitude=1.0, n=64)  # several slabs
@example(direction=(-2.0, 0.0, 0.0), amplitude=3.0, n=40)
def test_bump_spectrum_is_the_curl_of_its_whole_potential(direction, amplitude, n):
    # the potential is made and curled a slab at a time; the bits are those
    # of the curl of the whole potential
    grid = BoxGrid(1.0, n)
    spec = BumpSpec(0.5, amplitude, direction)
    got = bump_vorticity(spec, grid, support_tol=np.inf).omega.spectral
    assert got.tobytes() == potential_curl(spec, grid).tobytes()


def test_bump_argument_errors():
    with pytest.raises(DomainTooSmallError):
        bump_vorticity(BumpSpec(2.0), BoxGrid(2.0, 16))
    with pytest.raises(UsageError):
        bump_vorticity(BumpSpec(0.5, direction=(0.0, 0.0, 0.0)), BoxGrid(2.0, 16))


# ------------------------------------------------------------------- trefoil


def test_trefoil_meets_strict_tolerances_when_resolved():
    # 3a/h = 28.8 here; the audit trail should show projection at roundoff,
    # truncation residue ~1e-11, and final divergence within the default tol.
    w = trefoil_vorticity(TrefoilSpec(0.5, 0.3, 1.0), BoxGrid(2.0, 128))
    assert w.projection_div_rel < 1e-14
    assert w.truncation_leak_rel < 1e-9
    assert w.div_rel < 1e-10
    assert w.support_leak_rel == 0.0  # truncation zeroes outside exactly


def test_trefoil_helicity_sign_tracks_circulation_sign():
    grid = BoxGrid(2.0, 64)
    plus = trefoil_vorticity(TrefoilSpec(0.5, 0.3, 1.0), grid, div_tol=1e-5)
    minus = trefoil_vorticity(TrefoilSpec(0.5, 0.3, -1.0), grid, div_tol=1e-5)
    hp, hm = helicity(plus), helicity(minus)
    # measured 0.555 at this scale, already stable to 6 digits vs N=128
    assert 0.4 < hp < 0.7
    assert abs(hp + hm) < 1e-10 * abs(hp)  # exact mirror pair on the lattice


def test_trefoil_zero_strength_is_zero_field():
    w = trefoil_vorticity(TrefoilSpec(0.5, 0.1, 0.0), BoxGrid(2.0, 32))
    assert np.all(w.omega.physical == 0.0)
    assert w.projection_div_rel == 0.0
    assert w.truncation_leak_rel == 0.0


def test_trefoil_determinism():
    a = trefoil_vorticity(TrefoilSpec(0.5, 0.3, 1.0), BoxGrid(2.0, 48), div_tol=1e-4)
    b = trefoil_vorticity(TrefoilSpec(0.5, 0.3, 1.0), BoxGrid(2.0, 48), div_tol=1e-4)
    assert np.array_equal(a.omega.physical, b.omega.physical)


def test_trefoil_argument_errors():
    with pytest.raises(DomainTooSmallError):
        # max |gamma| = 1.5 plus the 3a = 0.9 tube reach is B(0, 2.4), beyond Q_2
        trefoil_vorticity(TrefoilSpec(1.0, 0.3, 1.0), BoxGrid(2.0, 16))
    for spec in (TrefoilSpec(0.5, -0.1, 1.0), TrefoilSpec(0.5, 0.1, 1.0, resolution=0)):
        with pytest.raises(UsageError):
            trefoil_vorticity(spec, BoxGrid(2.0, 16))
