"""Cutoff extension: profile bounds, counting constants, exact interior."""

import numpy as np
import pytest

from boxflow import (
    BoxGrid,
    ConfigurationError,
    Field,
    GridCompatibilityError,
    SupportError,
    lebesgue_norm,
    sobolev_norm,
    tail_mass,
)
from boxflow.extension import (
    AXIS_GRAD_BOUND,
    CUTOFF_GRAD_BOUND,
    EXTENSION_GRAD_BOUND,
    EXTENSION_H2_BOUND,
    EXTENSION_L2_BOUND,
    cutoff_profile,
    extend_field,
)
from boxflow.norms import grad_l2_sq

from conftest import meshgrid, smooth_field


class TestCutoff:
    def test_plateau_and_outside_values(self):
        assert cutoff_profile(2.0, 0.0) == 1.0
        assert cutoff_profile(2.0, 2.0) == 1.0
        assert cutoff_profile(2.0, -3.0) == 0.0
        assert cutoff_profile(2.0, 5.0) == 0.0
        assert cutoff_profile(2.0, 2.5) == pytest.approx(0.5, abs=1e-14)
        psi0 = cutoff_profile(2.0, 0.0) ** 3
        assert psi0 == 1.0

    def test_axis_slope_bound(self):
        s = np.linspace(0.9, 2.1, 200_001)
        z = cutoff_profile(1.0, s)
        slope = np.abs(np.diff(z) / np.diff(s))
        assert slope.max() <= AXIS_GRAD_BOUND * (1 + 1e-6)
        assert slope.max() >= AXIS_GRAD_BOUND * (1 - 1e-3)  # bound is attained

    @pytest.mark.parametrize("alpha", [1.0, 4.0])
    def test_gradient_bound_alpha_independent(self, alpha):
        # |grad psi|^2 = sum_i zeta'(x_i)^2 prod_{j != i} zeta(x_j)^2,
        # evaluated on a fine sample of the fade band
        s = np.linspace(-alpha - 1.2, alpha + 1.2, 121)
        z = cutoff_profile(alpha, s)
        dz = np.gradient(z, s)
        zx, zy, zz_ = np.ix_(z, z, z)
        dx, dy, dz3 = np.ix_(dz, dz, dz)
        grad_sq = (dx * zy * zz_) ** 2 + (zx * dy * zz_) ** 2 + (zx * zy * dz3) ** 2
        assert np.sqrt(grad_sq.max()) <= CUTOFF_GRAD_BOUND * (1 + 1e-3)

    def test_small_alpha_rejected(self, rng):
        # Q_1.5 holds the fade band of Q_0.5, but Q_(alpha-1) is empty
        u = smooth_field(BoxGrid(0.5, 8), rng, rank="vector")
        with pytest.raises(ConfigurationError, match="alpha >= 1"):
            extend_field(u, BoxGrid(1.5, 24))


class TestExtendField:
    def setup_method(self):
        self.src = BoxGrid(2.0, 32)  # h = 1/8
        self.dst = BoxGrid(4.0, 64)

    def test_interior_samples_kept_exactly(self, rng):
        u = smooth_field(self.src, rng, rank="vector")
        ext = extend_field(u, self.dst)
        off = (self.dst.N - self.src.N) // 2
        sl = slice(off, off + self.src.N)
        assert np.array_equal(ext.physical[:, sl, sl, sl], u.physical)

    @pytest.mark.parametrize(
        "src,dst",
        [
            (BoxGrid(1.25, 10), BoxGrid(2.5, 20)),  # odd offset 5
            (BoxGrid(1.0, 8), BoxGrid(2.75, 22)),  # odd offset 7
        ],
    )
    def test_gather_matches_fancy_index(self, rng, src, dst):
        """Bit for bit the single 3-d fancy-index gather it replaced."""
        z = cutoff_profile(src.alpha, dst.x1d)
        psi = z[:, None, None] * z[None, :, None] * z[None, None, :]
        off = (dst.N - src.N) // 2
        idx = (np.arange(dst.N) - off) % src.N
        for rank in ("scalar", "vector"):
            u = smooth_field(src, rng, rank=rank)
            old = u.physical[
                ..., idx[:, None, None], idx[None, :, None], idx[None, None, :]
            ] * psi
            got = extend_field(u, dst).physical
            # padded samples: the [..., :N] view of a half-spectrum buffer
            assert got.base.shape == got.shape[:-1] + (dst.N // 2 + 1,)
            assert got.base.dtype == np.complex128 and np.shares_memory(got, got.base)
            assert got.strides[-2:] == ((dst.N + 2) * 8, 8)
            assert got.tobytes() == np.ascontiguousarray(old).tobytes()

    def test_zero_outside_padded_box(self, rng):
        u = smooth_field(self.src, rng, rank="vector")
        ext = extend_field(u, self.dst)
        x, y, z = meshgrid(self.dst)
        outside = (
            (np.abs(x) >= self.src.alpha + 1)
            | (np.abs(y) >= self.src.alpha + 1)
            | (np.abs(z) >= self.src.alpha + 1)
        )
        assert np.all(ext.physical[:, outside] == 0.0)

    def test_l2_bound(self, rng):
        for _ in range(5):
            u = smooth_field(self.src, rng, rank="vector")
            ext = extend_field(u, self.dst)
            assert lebesgue_norm(ext, 2) <= EXTENSION_L2_BOUND * lebesgue_norm(u, 2)

    def test_tail_counting_bound(self, rng):
        # images of a far sample stay far: the squared tail comparison with
        # factor 27 is exact on the lattice for every R <= alpha - 1
        for _ in range(5):
            u = smooth_field(self.src, rng, rank="vector")
            ext = extend_field(u, self.dst)
            for R in (0.0, 0.25, 0.5, 1.0):
                lhs = tail_mass(ext, R)
                rhs = 27.0 * tail_mass(u, R)
                assert lhs <= rhs * (1 + 1e-12)

    def test_gradient_and_h2_bounds(self, rng):
        for _ in range(3):
            u = smooth_field(self.src, rng, rank="vector")
            ext = extend_field(u, self.dst)
            grad_ext = np.sqrt(grad_l2_sq(ext))
            assert grad_ext <= EXTENSION_GRAD_BOUND * sobolev_norm(u, 1)
            assert sobolev_norm(ext, 2) <= EXTENSION_H2_BOUND * sobolev_norm(u, 2)

    def test_linearity(self, rng):
        u = smooth_field(self.src, rng, rank="vector")
        v = smooth_field(self.src, rng, rank="vector")
        combo = Field.from_physical(self.src, 2.0 * u.physical - 3.0 * v.physical)
        combo = extend_field(combo, self.dst).physical
        parts = 2.0 * extend_field(u, self.dst).physical
        parts -= 3.0 * extend_field(v, self.dst).physical
        assert np.max(np.abs(combo - parts)) <= 1e-13 * np.max(np.abs(combo))

    def test_band_must_fit(self, rng):
        u = smooth_field(self.src, rng, rank="vector")
        tight = BoxGrid(2.5, 40)  # same h, but 2.5 < 2 + 1
        with pytest.raises(SupportError):
            extend_field(u, tight)

    def test_spacing_mismatch_rejected(self, rng):
        u = smooth_field(self.src, rng, rank="vector")
        with pytest.raises(GridCompatibilityError):
            extend_field(u, BoxGrid(4.0, 48))

