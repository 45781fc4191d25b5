"""Norm layer: lattice/spectral agreement, exact values, inequalities."""

import numpy as np
import pytest

from boxflow import (
    BoxGrid,
    DataError,
    Field,
    UsageError,
    gradient,
    inequality_report,
    l2_inner,
    l2_norm,
    lebesgue_norm,
    leray_project,
    relative_divergence,
    sobolev_norm,
    tail_mass,
)
from boxflow.norms import grad_l2_sq, lap_l2_sq, spectral_moment

from conftest import div_free_field, smooth_field, taylor_green, white_field


class TestLebesgue:
    def test_parseval_matches_lattice(self, rng):
        g = BoxGrid(2.0, 16)
        f = smooth_field(g, rng)
        lattice = lebesgue_norm(f, 2)
        spectral = np.sqrt(g.volume * np.sum(np.abs(f.spectral) ** 2))
        assert lattice == pytest.approx(spectral, rel=1e-12)
        assert l2_norm(f) == pytest.approx(lattice, rel=1e-12)

    def test_single_sine_analytic_values(self):
        # mean values of sin^2, sin^4, sin^6 over a period: 1/2, 3/8, 5/16
        g = BoxGrid(1.5, 16)
        f = Field.from_physical(g, np.sin(np.pi * g.meshgrid()[0] / g.alpha))
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
        with pytest.raises(UsageError):
            lebesgue_norm(f, 0.5)


class TestSobolev:
    def test_single_mode_scaling(self):
        g = BoxGrid(2.0, 16)
        x, _, _ = g.meshgrid()
        f = Field.from_physical(g, np.sin(3 * np.pi * x / g.alpha))
        k = 3 * np.pi / g.alpha
        l2 = l2_norm(f)
        for s in (0.5, 1.0, 1.7, 2.0):
            assert sobolev_norm(f, s, homogeneous=True) == pytest.approx(
                k**s * l2, rel=1e-12
            )
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

    def test_homogeneous_needs_zero_mean(self, rng):
        g = BoxGrid(1.0, 8)
        f = smooth_field(g, rng, zero_mean=False)
        f = Field.from_physical(g, f.physical + 1.0)
        with pytest.raises(DataError):
            sobolev_norm(f, 1.0, homogeneous=True)

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

    def test_rfft_route_matches_full_spectral(self, rng):
        g = BoxGrid(1.0, 16)
        samples = smooth_field(g, rng, rank="vector").physical
        fresh = Field.from_physical(g, samples.copy())  # no cached coefficients
        cached = Field.from_physical(g, samples.copy())
        cached.spectral
        assert not fresh.has_spectral and cached.has_spectral
        for s, hom in ((1.0, True), (1.5, False), (2.0, True)):
            a = sobolev_norm(fresh, s, homogeneous=hom)
            b = sobolev_norm(cached, s, homogeneous=hom)
            assert a == pytest.approx(b, rel=1e-12)
        assert grad_l2_sq(fresh) == pytest.approx(grad_l2_sq(cached), rel=1e-12)
        assert lap_l2_sq(fresh) == pytest.approx(lap_l2_sq(cached), rel=1e-12)

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
        x, y, z = g.meshgrid()
        r2 = x**2 + y**2 + z**2
        samples = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1 - r2, 1e-30)), 0.0)
        f = Field.from_physical(g, samples)
        assert tail_mass(f, 1.0) == 0.0
        assert tail_mass(f, 0.5) > 0.0

    def test_negative_radius_rejected(self, rng):
        g = BoxGrid(1.0, 8)
        with pytest.raises(UsageError):
            tail_mass(white_field(g, rng), -0.1)


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
        assert rep.columns()[-1] == "degenerate"
        assert len(rep.row()) == len(rep.columns())

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
        from boxflow import dilate

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
        rep = inequality_report(shifted, zero_mean=False)
        assert np.isfinite(rep.entries["agmon_ratio"])


class TestHelpers:
    def test_relative_divergence(self, rng):
        g = BoxGrid(2.0, 16)
        u = leray_project(smooth_field(g, rng, rank="vector"))
        assert relative_divergence(u) < 1e-12
        grad = gradient(smooth_field(g, rng))
        assert relative_divergence(grad) > 0.1

    def test_inner_product_polarization(self, rng):
        g = BoxGrid(1.0, 8)
        f = smooth_field(g, rng, rank="vector")
        h = smooth_field(g, rng, rank="vector")
        lhs = l2_inner(f, h)
        rhs = 0.25 * (l2_norm(f + h) ** 2 - l2_norm(f - h) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_moment_constant_weight(self, rng):
        g = BoxGrid(1.0, 8)
        f = smooth_field(g, rng)
        m = spectral_moment(f, lambda ksq: np.ones_like(ksq))
        assert np.sqrt(m) == pytest.approx(l2_norm(f), rel=1e-12)
