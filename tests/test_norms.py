"""Norm layer: lattice/spectral agreement, exact values, inequalities."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxflow import (
    BoxGrid,
    DataError,
    Field,
    UsageError,
    gradient,
    inequality_report,
    l2_norm,
    lebesgue_norm,
    leray_project,
    relative_divergence,
    sobolev_norm,
    tail_mass,
)
from boxflow.norms import grad_l2_sq, spectral_moments

from conftest import (
    dilate,
    div_free_field,
    full_ksq,
    full_spectrum,
    meshgrid,
    smooth_field,
    taylor_green,
    traced_peak,
    white_field,
)

WEIGHTS = {
    "1": lambda ksq: np.ones_like(ksq),
    "k2": lambda ksq: ksq,
    "k4": lambda ksq: ksq**2,
}


def full_moment(f: Field, weight, diff: bool = False) -> float:
    """Oracle for `spectral_moments`: the same sum over all N^3 modes."""
    w = weight(full_ksq(f.grid, diff))
    return f.grid.volume * float(np.sum(w * np.abs(full_spectrum(f)) ** 2))


class TestLebesgue:
    def test_parseval_matches_lattice(self, rng):
        g = BoxGrid(2.0, 16)
        f = smooth_field(g, rng)
        lattice = lebesgue_norm(f, 2)
        spectral = np.sqrt(g.volume * np.sum(np.abs(full_spectrum(f)) ** 2))
        assert lattice == pytest.approx(spectral, rel=1e-12)
        assert l2_norm(f) == pytest.approx(lattice, rel=1e-12)

    def test_single_sine_analytic_values(self):
        # mean values of sin^2, sin^4, sin^6 over a period: 1/2, 3/8, 5/16
        g = BoxGrid(1.5, 16)
        f = Field.from_physical(g, np.sin(np.pi * meshgrid(g)[0] / g.alpha))
        vol = g.volume
        assert lebesgue_norm(f, 2) == pytest.approx(np.sqrt(vol / 2), rel=1e-12)
        assert lebesgue_norm(f, 4) == pytest.approx((vol * 3 / 8) ** 0.25, rel=1e-12)
        assert lebesgue_norm(f, 6) == pytest.approx((vol * 5 / 16) ** (1 / 6), rel=1e-12)
        assert lebesgue_norm(f, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_vector_magnitude_contracts_components(self, rng):
        g = BoxGrid(1.0, 8)
        u = white_field(g, rng, rank="vector")
        byhand = np.sqrt(np.sum(u.physical**2) * g.h**3)
        assert lebesgue_norm(u, 2) == pytest.approx(byhand, rel=1e-12)

    def test_bad_exponent(self, rng):
        g = BoxGrid(1.0, 8)
        f = white_field(g, rng)
        for p in (0.5, np.nan):
            with pytest.raises(UsageError):
                lebesgue_norm(f, p)


class TestSobolev:
    def test_single_mode_scaling(self):
        g = BoxGrid(2.0, 16)
        x, _, _ = meshgrid(g)
        f = Field.from_physical(g, np.sin(3 * np.pi * x / g.alpha))
        k = 3 * np.pi / g.alpha
        l2 = l2_norm(f)
        for s in (0.5, 1.0, 1.7, 2.0):
            assert sobolev_norm(f, s) == pytest.approx(
                (1 + k**2) ** (s / 2) * l2, rel=1e-12
            )

    def test_s_zero_is_l2(self, rng):
        g = BoxGrid(1.0, 16)
        f = smooth_field(g, rng, zero_mean=False)
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_monotone_in_order(self, rng):
        g = BoxGrid(2.0, 16)
        f = smooth_field(g, rng)
        orders = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        vals = [sobolev_norm(f, s) for s in orders]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_negative_order_rejected(self, rng):
        g = BoxGrid(1.0, 8)
        with pytest.raises(UsageError):
            sobolev_norm(white_field(g, rng), -1.0)

    def test_interpolation_inequality(self, rng):
        # ||f||_{H^{1+t}} <= ||f||_{H^1}^{1-t} ||f||_{H^2}^t  (Hoelder in k)
        g = BoxGrid(2.0, 24)
        f = smooth_field(g, rng, rank="vector")
        h1 = sobolev_norm(f, 1.0)
        h2 = sobolev_norm(f, 2.0)
        for theta in (0.25, 0.5, 0.75):
            lhs = sobolev_norm(f, 1.0 + theta)
            assert lhs <= h1 ** (1 - theta) * h2**theta * (1 + 1e-10)

    def test_half_spectrum_norms_match_full_spectrum(self, rng):
        g = BoxGrid(1.0, 16)
        f = smooth_field(g, rng, rank="vector")
        assert not f.has_spectral
        for s in (1.0, 1.5, 2.0):
            want = np.sqrt(full_moment(f, lambda k: (1.0 + k) ** s))
            assert sobolev_norm(f, s) == pytest.approx(want, rel=1e-12)
        want = full_moment(f, WEIGHTS["k2"], diff=True)
        assert grad_l2_sq(f) == pytest.approx(want, rel=1e-12)
        want = full_moment(f, WEIGHTS["k4"], diff=True)
        assert spectral_moments(f, [g.ksq_diff**2])[0] == pytest.approx(want, rel=1e-12)

    def test_samples_are_transformed_once(self, rng, monkeypatch):
        import boxflow.spectral_core as sc

        calls = []
        rfftn = sc._rfftn
        monkeypatch.setattr(sc, "_rfftn", lambda a: calls.append(a.shape) or rfftn(a))
        g = BoxGrid(1.0, 16)
        f = Field.from_physical(g, white_field(g, rng, rank="vector").physical)
        l2_norm(f), sobolev_norm(f, 1.0), grad_l2_sq(f)
        assert calls == [(3, 16, 16, 16)] and f.has_spectral

    def test_gradient_norm_matches_operator(self, rng):
        g = BoxGrid(2.0, 16)
        f = smooth_field(g, rng)
        direct = l2_norm(gradient(f))
        assert np.sqrt(grad_l2_sq(f)) == pytest.approx(direct, rel=1e-12)


class TestTailMass:
    def test_monotone_and_endpoints(self, rng):
        g = BoxGrid(2.0, 24)
        f = smooth_field(g, rng, rank="vector")
        total = lebesgue_norm(f, 2) ** 2
        radii = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
        masses = [tail_mass(f, R) for R in radii]
        assert masses[0] == pytest.approx(total, rel=1e-12)
        assert all(a >= b - 1e-15 for a, b in zip(masses, masses[1:]))
        assert tail_mass(f, np.sqrt(3) * g.alpha + g.h) == 0.0

    def test_compact_support_tail_vanishes(self):
        g = BoxGrid(4.0, 32)
        x, y, z = meshgrid(g)
        r2 = x**2 + y**2 + z**2
        samples = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1 - r2, 1e-30)), 0.0)
        f = Field.from_physical(g, samples)
        assert tail_mass(f, 1.0) == 0.0
        assert tail_mass(f, 0.5) > 0.0

    def test_negative_radius_rejected(self, rng):
        g = BoxGrid(1.0, 8)
        for radius in (-0.1, np.nan):
            with pytest.raises(UsageError):
                tail_mass(white_field(g, rng), radius)


class TestInequalityReport:
    def test_entries_and_flags(self, rng):
        g = BoxGrid(2.0, 16)
        u = div_free_field(g, rng)
        rep = inequality_report(u)
        for key in (
            "l2",
            "linf",
            "l6",
            "grad_l2",
            "lap_l2",
            "h1",
            "h2",
            "agmon_ratio",
            "l6_ratio",
            "interp_ratio",
        ):
            assert np.isfinite(rep.entries[key])
        assert not rep.flags["degenerate"]
        assert rep.entries["h1"] == pytest.approx(
            np.hypot(rep.entries["l2"], rep.entries["grad_l2"]), rel=1e-12
        )

    def test_single_shell_interp_ratio_is_one(self):
        # every mode of this field sits on one |k| shell, so the H^1 vs
        # (L^2 H^2)^(1/2) comparison is an identity
        g = BoxGrid(np.pi, 16)
        rep = inequality_report(taylor_green(g))
        assert rep.entries["interp_ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_ratios_dilation_invariant(self, rng):
        # the Agmon and L6/gradient ratios are built from homogeneous norms
        # and survive dilation exactly; the interpolation ratio mixes
        # inhomogeneous norms and is instead capped at 1 (Cauchy-Schwarz)
        g = BoxGrid(1.0, 16)
        u = div_free_field(g, rng)
        base = inequality_report(u)
        assert base.entries["interp_ratio"] <= 1 + 1e-12
        for lam in (2.0, 4.0):
            rep = inequality_report(dilate(u, lam))
            for key in ("agmon_ratio", "l6_ratio"):
                assert rep.entries[key] == pytest.approx(
                    base.entries[key], rel=1e-12
                )
            assert rep.entries["interp_ratio"] <= 1 + 1e-12

    def test_zero_field_degenerate(self):
        g = BoxGrid(1.0, 8)
        u = Field.from_physical(g, np.zeros((3, 8, 8, 8)))
        rep = inequality_report(u)
        assert rep.flags["degenerate"]
        assert np.isnan(rep.entries["agmon_ratio"])

    def test_scalar_rejected(self, rng):
        g = BoxGrid(1.0, 8)
        with pytest.raises(UsageError):
            inequality_report(smooth_field(g, rng))

    def test_mean_carrying_field_rejected_unless_waived(self, rng):
        g = BoxGrid(1.0, 8)
        u = div_free_field(g, rng)
        shifted = Field.from_physical(g, u.physical + 0.5)
        with pytest.raises(DataError):
            inequality_report(shifted)

    def test_moments_hold_one_weight_product_at_a_time(self, rng):
        # the traced peak of a report on samples and spectrum (the studies'
        # case) in units of one real half-spectrum array, after the grid's
        # tables are built: the two weights the report makes, |u^|^2 and one
        # weight's product (4.06); all four products at once gave 5.06
        g = BoxGrid(2.0, 64)
        u = div_free_field(g, rng)
        u = Field(g, physical=u.physical, spectral=u.spectral)
        g.ksq, g.ksq_diff, g.mult
        assert traced_peak(lambda: inequality_report(u)) <= 4.5 * g.ksq.nbytes


class TestHelpers:
    def test_relative_divergence(self, rng):
        g = BoxGrid(2.0, 16)
        u = leray_project(smooth_field(g, rng, rank="vector"))
        assert relative_divergence(u) < 1e-12
        grad = gradient(smooth_field(g, rng))
        assert relative_divergence(grad) > 0.1

    def test_moment_constant_weight(self, rng):
        g = BoxGrid(1.0, 8)
        f = smooth_field(g, rng)
        m = spectral_moments(f, [WEIGHTS["1"](g.ksq)])[0]
        assert np.sqrt(m) == pytest.approx(l2_norm(f), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.25, 8.0),
    n=st.integers(4, 24).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
    weight=st.sampled_from(sorted(WEIGHTS)),
    diff=st.booleans(),
)
@example(alpha=1.0, n=8, seed=0, weight="k4", diff=False)
def test_spectral_moment_matches_full_spectrum(alpha, n, seed, weight, diff):
    g = BoxGrid(alpha, n)
    f = white_field(g, np.random.default_rng(seed), rank="vector")
    want = full_moment(f, WEIGHTS[weight], diff)
    w = WEIGHTS[weight](g.ksq_diff if diff else g.ksq)
    assert spectral_moments(f, [w])[0] == pytest.approx(want, rel=1e-14)


def moment_by_component(f: Field, w) -> float:
    """One weight's moment as one loop over components."""
    w = w * f.grid.mult
    total = 0.0
    for c in f.spectral[None] if f.rank == "scalar" else f.spectral:
        sq = c.real * c.real
        sq += c.imag * c.imag
        sq *= w
        total += float(sq.sum())
    return f.grid.volume * total


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.25, 8.0),
    n=st.integers(4, 24).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
    rank=st.sampled_from(["scalar", "vector"]),
)
@example(alpha=1.0, n=18, seed=0, rank="vector")
def test_fused_moments_equal_one_weight_at_a_time(alpha, n, seed, rank):
    g = BoxGrid(alpha, n)
    rng = np.random.default_rng(seed)
    f = white_field(g, rng, rank=rank)
    weights = (1.0, g.ksq_diff, g.ksq_diff**2, g.ksq, rng.random(g.ksq.shape))
    want = [moment_by_component(f, w) for w in weights]
    assert spectral_moments(f, weights) == want  # bit for bit
    assert grad_l2_sq(f) == want[1]


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.25, 8.0),
    n=st.integers(4, 12).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
)
@example(alpha=1.0, n=16, seed=0)
def test_inequality_report_is_the_lone_norms(alpha, n, seed):
    # one moment pass and one read of the samples give every entry's bits
    import boxflow.spectral_core as sc

    g = BoxGrid(alpha, n)
    u = Field(g, spectral=div_free_field(g, np.random.default_rng(seed)).spectral)
    calls = []
    irfftn = sc._irfftn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_irfftn", lambda a, n: calls.append(a.shape) or irfftn(a, n))
        rep = inequality_report(u).entries
    assert [c for c in calls if len(c) == 4] == [u.spectral.shape]  # one vector
    assert rep["l2"] == l2_norm(u)
    assert rep["grad_l2"] == np.sqrt(grad_l2_sq(u))
    assert rep["lap_l2"] == np.sqrt(spectral_moments(u, [g.ksq_diff**2])[0])
    assert rep["h2"] == sobolev_norm(u, 2)
    assert rep["linf"] == lebesgue_norm(u, np.inf)
    assert rep["l6"] == lebesgue_norm(u, 6)
