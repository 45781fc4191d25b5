"""Grid, transform, and spectral-operator behaviour.

Fields store half-spectra; tests that need a coefficient with m_3 < 0 or a
sum over every mode read them from `full_spectrum`, a complex FFT of the
samples.  Hypothesis properties over random (alpha, N) pin the half-spectrum
round trip, Parseval and the operator algebra.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from boxflow.errors import ConfigurationError, DataError, UsageError
from boxflow.solver import SolverConfig, nse_solve
from boxflow.spectral_core import (
    BoxGrid,
    Field,
    _fft,
    _irfftn,
    _map,
    curl,
    dilate,
    divergence,
    gradient,
    laplacian,
    leray_project,
    rescale_field,
    set_default_workers,
)

from conftest import (
    dealias,
    full_ksq,
    full_spectrum,
    smooth_field,
    taylor_green,
    white_field,
)


def coeff(f: Field, m):
    """Spectral coefficient at integer mode triple m (any sign of m_3)."""
    modes = list(f.grid.modes1d)
    return full_spectrum(f)[
        ..., modes.index(m[0]), modes.index(m[1]), modes.index(m[2])
    ]


def spectral_l2(f: Field) -> float:
    return float(np.sqrt(f.grid.volume * np.sum(np.abs(full_spectrum(f)) ** 2)))


def lattice_l2(f: Field) -> float:
    return float(np.sqrt(np.sum(f.physical**2) * f.grid.h**3))


class TestBoxGrid:
    def test_spacing_and_volume(self):
        g = BoxGrid(2.0, 32)
        assert g.h == pytest.approx(4.0 / 32)
        assert g.volume == pytest.approx(64.0)
        assert g.x1d[0] == -2.0 and g.x1d[-1] == pytest.approx(2.0 - g.h)

    def test_wavevectors(self):
        """k = (pi/alpha) m with m in [-N/2, N/2); set closed under negation
        except the Nyquist row, k = 0 present exactly once."""
        g = BoxGrid(1.5, 16)
        m = g.modes1d
        assert m.min() == -8 and m.max() == 7
        assert np.count_nonzero(m == 0) == 1
        for v in m:
            if v != -8:
                assert -v in m
        np.testing.assert_allclose(g.k1d, np.pi / 1.5 * m)
        assert g.k1d_diff[m == -8] == 0.0

    def test_shared_spacing_grids_nest(self):
        small, big = BoxGrid(1.0, 16), BoxGrid(2.0, 32)
        assert small.h == big.h
        # Q_1 lattice is a contiguous block of the Q_2 lattice
        offset = round((big.alpha - small.alpha) / big.h)
        np.testing.assert_allclose(big.x1d[offset : offset + small.N], small.x1d)

    @pytest.mark.parametrize("alpha,n", [(0.0, 16), (-1.0, 16), (1.0, 15), (1.0, 4), (1.0, 16.5)])
    def test_rejects_bad_parameters(self, alpha, n):
        with pytest.raises(ConfigurationError):
            BoxGrid(alpha, n)


class TestTransforms:
    def test_round_trip(self, rng):
        g = BoxGrid(1.0, 16)
        for rank in ("scalar", "vector"):
            f = white_field(g, rng, rank=rank)
            back = np.ascontiguousarray(
                Field.from_spectral(g, f.spectral).physical
            )
            np.testing.assert_allclose(back, f.physical, rtol=0, atol=1e-12 * np.abs(f.physical).max())

    def test_constant_field(self):
        g = BoxGrid(2.0, 16)
        f = Field.from_physical(g, np.full((16, 16, 16), 3.25))
        fh = f.spectral.copy()
        assert fh[0, 0, 0] == pytest.approx(3.25)
        fh[0, 0, 0] = 0.0
        assert np.abs(fh).max() < 1e-14

    def test_single_sine_two_modes(self):
        """sin(pi x1 / alpha) lives at m = (+-1, 0, 0) alone, weight 1/2 each
        (corner phase origin flips the sign of odd modes)."""
        g = BoxGrid(2.0, 16)
        x = g.meshgrid()[0]
        f = Field.from_physical(g, np.sin(np.pi * x / g.alpha))
        assert coeff(f, (1, 0, 0)) == pytest.approx(0.5j, abs=1e-14)
        assert coeff(f, (-1, 0, 0)) == pytest.approx(-0.5j, abs=1e-14)
        fh = f.spectral.copy()
        fh[1, 0, 0] = fh[-1, 0, 0] = 0.0
        assert np.abs(fh).max() < 1e-14

    def test_parseval(self, rng):
        f = white_field(BoxGrid(1.7, 24), rng)
        assert spectral_l2(f) == pytest.approx(lattice_l2(f), rel=1e-12)

    def test_reality_is_hermitian_symmetry(self, rng):
        """The stored half is the m_3 = 0..N/2 part of the full spectrum, and
        Hermitian symmetry gives the rest."""
        f = white_field(BoxGrid(1.0, 16), rng)
        full = full_spectrum(f)
        assert f.spectral.shape == (16, 16, 9)
        np.testing.assert_allclose(f.spectral, full[..., :9], atol=1e-15)
        mirrored = np.roll(np.flip(full, axis=(0, 1, 2)), 1, axis=(0, 1, 2))
        np.testing.assert_allclose(mirrored, np.conj(full), atol=1e-13)

    def test_spectral_shape_is_the_half_spectrum(self, rng):
        g = BoxGrid(1.0, 16)
        for shape in ((16, 16, 9), (3, 16, 16, 9)):
            Field.from_spectral(g, np.zeros(shape, dtype=complex))
        for shape in ((16, 16, 16), (3, 16, 16, 16), (16, 16, 8)):
            with pytest.raises(UsageError):
                Field.from_spectral(g, np.zeros(shape, dtype=complex))

    def test_inverse_transform_never_batches_a_vector(self, monkeypatch):
        """The c2r copies its whole input into a scratch, so on one worker
        a vector goes one component at a time."""
        ranks = []
        original = scipy.fft.irfftn

        def spy(a, *args, **kwargs):
            ranks.append(a.ndim)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, "irfftn", spy)
        g = BoxGrid(np.pi, 16)
        Field.from_spectral(g, taylor_green(g).spectral).physical
        nse_solve(taylor_green(g), SolverConfig(dt=1e-3, t_end=2e-3))
        assert ranks and set(ranks) == {3}

    def test_c2c_pass_writes_into_a_view_of_a_wider_array(self, rng):
        """The stage's axis -2 pass transforms a slab's kept columns in
        place, so its c2r reads the transformed columns."""
        a = rng.standard_normal((2, 4, 16, 9)) + 1j * rng.standard_normal((2, 4, 16, 9))
        want = scipy.fft.ifft(a[..., :6], axis=-2, norm="forward")
        rest = a[..., 6:].copy()
        _fft(a[..., :6], -2, inverse=True, workers=1)
        assert a[..., :6].tobytes() == want.tobytes()
        assert a[..., 6:].tobytes() == rest.tobytes()

    def test_map_hands_each_item_to_one_thread_once(self):
        """More threads than cores and a short switch interval: an item
        handed out twice or lost would show in the results or the calls."""
        calls, results = [], []

        def square(i):
            calls.append(i)
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        set_default_workers(4)
        try:
            caller = threading.Thread(target=lambda: results.append(_map(square, range(2000))))
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive()
        finally:
            set_default_workers(1)
            sys.setswitchinterval(interval)
        assert results == [[i * i for i in range(2000)]]
        assert sorted(calls) == list(range(2000))

    def test_samples_of_a_spectrum_are_not_cached(self, rng):
        g = BoxGrid(1.0, 16)
        f = Field.from_spectral(g, white_field(g, rng, rank="vector").spectral)
        samples = f.samples()
        assert f._physical is None
        assert np.array_equal(samples, f.physical)
        assert f.samples() is f.physical

    def test_magnitude_is_the_root_of_the_summed_squares(self, rng):
        f = white_field(BoxGrid(1.0, 16), rng, rank="vector")
        p = f.physical
        assert np.array_equal(f.magnitude(), np.sqrt(np.sum(p**2, axis=0)))

    def test_non_finite_samples_rejected(self):
        g = BoxGrid(1.0, 16)
        bad = np.zeros((16, 16, 16))
        bad[3, 4, 5] = np.nan
        with pytest.raises(DataError):
            Field.from_physical(g, bad).spectral
        badh = np.zeros((16, 16, 9), dtype=complex)
        badh[0, 0, 1] = np.inf
        with pytest.raises(DataError):
            Field.from_spectral(g, badh).physical


class TestDiffOps:
    def test_gradient_of_sine(self):
        g = BoxGrid(3.0, 32)
        x = g.meshgrid()[0]
        s = np.pi / g.alpha
        grad = gradient(Field.from_physical(g, np.sin(s * x)))
        np.testing.assert_allclose(grad.physical[0], s * np.cos(s * x), atol=1e-12)
        assert np.abs(grad.physical[1:]).max() < 1e-13

    def test_curl_of_gradient_vanishes(self, rng):
        f = smooth_field(BoxGrid(1.0, 24), rng)
        w = curl(gradient(f))
        assert np.abs(w.physical).max() < 1e-12 * np.abs(f.physical).max()

    def test_divergence_of_curl_vanishes(self, rng):
        v = smooth_field(BoxGrid(2.0, 24), rng, rank="vector")
        d = divergence(curl(v))
        assert np.abs(d.physical).max() < 1e-12 * np.abs(v.physical).max()

    def test_laplacian_is_div_grad(self, rng):
        f = smooth_field(BoxGrid(1.3, 24), rng)
        lhs = laplacian(f).physical
        rhs = divergence(gradient(f)).physical
        np.testing.assert_allclose(lhs, rhs, atol=1e-11 * np.abs(lhs).max())

    def test_rank_rules(self, rng):
        g = BoxGrid(1.0, 16)
        s = white_field(g, rng)
        v = white_field(g, rng, rank="vector")
        with pytest.raises(UsageError):
            gradient(v)
        with pytest.raises(UsageError):
            divergence(s)
        with pytest.raises(UsageError):
            curl(s)
        # laplacian accepts both
        laplacian(s), laplacian(v)

    def test_second_derivatives_sum_to_laplacian_norm(self, rng):
        """sum_ij ||d_i d_j f||^2 equals ||lap f||^2 (|k_i k_j|^2 sums to |k|^4)."""
        f = smooth_field(BoxGrid(1.0, 24), rng)
        total = 0.0
        for gi in (gradient(f).component(i) for i in range(3)):
            for c in gradient(gi).component(0), gradient(gi).component(1), gradient(gi).component(2):
                total += lattice_l2(c) ** 2
        lap = spectral_l2(laplacian(f)) ** 2
        assert total == pytest.approx(lap, rel=1e-10)

    def test_poincare(self, rng):
        """||f|| <= (alpha/pi) ||grad f|| for zero-mean f; ratio linear in alpha."""
        base = smooth_field(BoxGrid(1.0, 24), rng, zero_mean=True, m0=6.0)
        ratios = []
        for alpha in (1.0, 2.0, 4.0):
            f = dilate(base, alpha)
            l2 = spectral_l2(f)
            grad = np.sqrt(
                f.grid.volume
                * np.sum(full_ksq(f.grid) * np.abs(full_spectrum(f)) ** 2)
            )
            assert l2 <= (alpha / np.pi) * grad
            ratios.append(l2 / grad)
        np.testing.assert_allclose(
            [r / ratios[0] for r in ratios], [1.0, 2.0, 4.0], rtol=1e-12
        )


class TestLeray:
    def test_kills_gradients(self, rng):
        f = smooth_field(BoxGrid(1.0, 24), rng)
        g = gradient(f)
        proj = leray_project(g)
        assert np.abs(proj.physical).max() < 1e-12 * np.abs(g.physical).max()

    def test_fixes_divergence_free_fields(self):
        u = taylor_green(BoxGrid(np.pi, 16))
        np.testing.assert_allclose(leray_project(u).physical, u.physical, atol=1e-12)

    def test_idempotent(self, rng):
        v = smooth_field(BoxGrid(1.0, 16), rng, rank="vector")
        once = leray_project(v)
        twice = leray_project(once)
        np.testing.assert_allclose(
            twice.spectral, once.spectral, atol=1e-10 * np.abs(once.spectral).max()
        )

    def test_self_adjoint(self, rng):
        g = BoxGrid(1.0, 16)
        v, w = (smooth_field(g, rng, rank="vector") for _ in range(2))
        inner = lambda a, b: np.sum(a.physical * b.physical) * g.h**3
        assert inner(leray_project(v), w) == pytest.approx(
            inner(v, leray_project(w)), rel=1e-10
        )

    def test_projected_field_is_divergence_free(self, rng):
        v = white_field(BoxGrid(1.0, 16), rng, rank="vector")
        d = divergence(leray_project(v))
        assert np.abs(d.physical).max() < 1e-12 * np.abs(v.physical).max()

    def test_input_array_untouched(self, rng):
        v = white_field(BoxGrid(1.0, 16), rng, rank="vector")
        before = v.spectral.copy()
        leray_project(v)
        assert np.array_equal(v.spectral, before)

    def test_mean_mode_untouched(self, rng):
        g = BoxGrid(1.0, 16)
        v = smooth_field(g, rng, rank="vector", zero_mean=False)
        np.testing.assert_allclose(
            leray_project(v).spectral[:, 0, 0, 0], v.spectral[:, 0, 0, 0], atol=1e-15
        )


class TestDealias:
    def test_two_thirds_mask(self, rng):
        f = white_field(BoxGrid(1.0, 16), rng)
        fh = f.spectral * f.grid.two_thirds_mask
        assert np.array_equal(fh, dealias(f).spectral)
        m = f.grid.modes1d
        keep = np.abs(m) <= 16 / 3
        assert keep.sum() == 11  # |m| <= 5
        # mode with an index of |m| = 7 must be gone, |m| = 5 intact
        modes = list(m)
        assert fh[modes.index(7), 0, 0] == 0.0
        assert fh[modes.index(-8), 2, 3] == 0.0
        assert fh[modes.index(5), 0, 0] == f.spectral[modes.index(5), 0, 0]

    def test_two_thirds_rule_is_strict_when_three_divides_n(self):
        # 3|m| < N: at N=24 the |m| = 8 modes go, since 8 + 8 aliases to -8
        g = BoxGrid(1.0, 24)
        keep = g.two_thirds_mask[:, 0, 0] == 1.0
        assert np.abs(g.modes1d[keep]).max() == 7
        assert keep.sum() == 15

    def test_product_matches_double_resolution(self):
        """Dealiased product at N agrees with the 2N product truncated to the
        retained modes."""
        gN, g2N = BoxGrid(1.0, 16), BoxGrid(1.0, 32)
        def product_field(g):
            x = g.meshgrid()[0]
            return Field.from_physical(
                g, np.sin(4 * np.pi * x) * np.sin(5 * np.pi * x)
            )
        coarse = dealias(product_field(gN))
        fine = product_field(g2N)
        for m in [(1, 0, 0), (-1, 0, 0), (3, 2, 1), (5, 0, 0)]:
            assert coeff(coarse, m) == pytest.approx(coeff(fine, m), abs=1e-12)
        # the m1+m2 = 9 harmonic is unrepresentable at N=16 and must not alias in
        assert abs(coeff(coarse, (-7, 0, 0))) < 1e-13


class TestRescale:
    @pytest.mark.parametrize(
        "p,k,alpha",
        [(2, 0, 2.0), (2, 1, 2.0), (2, 2, 2.0), (4, 0, 2.0), (2, 0, 4.0), (4, 0, 4.0)],
    )
    def test_scaling_law(self, p, k, alpha):
        g = BoxGrid(1.0, 32)
        x = g.meshgrid()[0]
        f = Field.from_physical(g, np.sin(np.pi * x))
        rep = rescale_field(f, alpha, p, k)
        assert rep.predicted_ratio == pytest.approx(alpha ** (3.0 / p - k))
        assert rep.rel_error < 1e-10

    def test_scaling_law_smooth_random(self, rng):
        f = smooth_field(BoxGrid(1.0, 24), rng)
        for (p, k) in [(2, 0), (2, 1), (2, 2), (4, 0), (3, 1)]:
            assert rescale_field(f, 2.0, p, k).rel_error < 1e-10

    def test_sup_norm_invariant(self, rng):
        f = smooth_field(BoxGrid(1.0, 16), rng)
        rep = rescale_field(f, 4.0, np.inf, 0)
        assert rep.measured_ratio == pytest.approx(1.0, rel=1e-12)

    def test_usage_errors(self, rng):
        f = smooth_field(BoxGrid(1.0, 16), rng)
        with pytest.raises(UsageError):
            rescale_field(f, 2.0, 2, 3)
        with pytest.raises(UsageError):
            rescale_field(f, 2.0, 0.5, 0)


class TestFieldArithmetic:
    def test_add_sub_scale(self, rng):
        g = BoxGrid(1.0, 16)
        a, b = (white_field(g, rng) for _ in range(2))
        np.testing.assert_allclose(
            (a + b).physical, a.physical + b.physical, atol=1e-14
        )
        np.testing.assert_allclose(
            (a - 2.0 * b).physical, a.physical - 2 * b.physical, atol=1e-13
        )

    def test_mismatched_grids_rejected(self, rng):
        a = white_field(BoxGrid(1.0, 16), rng)
        b = white_field(BoxGrid(2.0, 16), rng)
        with pytest.raises(UsageError):
            a + b


# even N in [8, 48] on random boxes
grids = st.builds(
    BoxGrid,
    alpha=st.floats(0.25, 8.0),
    N=st.integers(4, 24).map(lambda k: 2 * k),
)
seeds = st.integers(0, 2**32 - 1)
properties = settings(max_examples=25, deadline=None)


def random_samples(grid: BoxGrid, seed: int, rank="vector") -> Field:
    return white_field(grid, np.random.default_rng(seed), rank=rank)


class TestHalfSpectrumProperties:
    @properties
    @given(grid=grids, seed=seeds)
    @example(grid=BoxGrid(1.0, 8), seed=0)
    def test_round_trip(self, grid, seed):
        f = random_samples(grid, seed)
        back = Field.from_spectral(grid, f.spectral).physical
        assert np.abs(back - f.physical).max() <= 1e-14 * np.abs(f.physical).max()

    @properties
    @given(grid=grids, seed=seeds)
    @example(grid=BoxGrid(1.0, 18), seed=3)
    @example(grid=BoxGrid(2.0, 48), seed=4)
    def test_inverse_per_component_equals_batched(self, grid, seed):
        spectrum = random_samples(grid, seed).spectral
        n = grid.N
        batched = scipy.fft.irfftn(
            spectrum, s=(n, n, n), axes=(-3, -2, -1), norm="forward"
        )
        assert np.array_equal(_irfftn(spectrum, n), batched)

    @properties
    @given(grid=grids, seed=seeds)
    def test_parseval(self, grid, seed):
        f = random_samples(grid, seed)
        half = grid.volume * np.sum(grid.mult * np.abs(f.spectral) ** 2)
        assert half == pytest.approx(lattice_l2(f) ** 2, rel=1e-13)

    @properties
    @given(grid=grids, seed=seeds)
    @example(grid=BoxGrid(0.25, 48), seed=1)
    def test_divergence_of_curl_vanishes(self, grid, seed):
        f = random_samples(grid, seed)
        d = divergence(curl(f)).spectral
        assert np.linalg.norm(d) <= 1e-14 * np.linalg.norm(laplacian(f).spectral)

    @properties
    @given(grid=grids, seed=seeds)
    @example(grid=BoxGrid(1.0, 24), seed=2)
    def test_leray_idempotent(self, grid, seed):
        once = leray_project(random_samples(grid, seed)).spectral
        twice = leray_project(Field.from_spectral(grid, once)).spectral
        assert np.linalg.norm(twice - once) <= 1e-14 * np.linalg.norm(once)
