import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamdp import (
    ErmError,
    MechanismError,
    laplace_noise,
    laplace_scale,
    output_perturb,
    pberm,
    sampling_probability,
    solve,
    solve_tolerance,
    subsample,
)
from streamdp.mechanisms import TAU_SHARE
from streamdp.rng import make_rng
from conftest import random_dataset


TAU = 1e-6  # the solve tolerance of the pberm tests


def laplace_one(scale, dims, seed):
    """One member's Laplace(scale) noise of shape dims from seed."""
    return laplace_noise([scale], [seed], dims)[0]


class TestLaplace:
    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(laplace_one(1.0, (3, 4), 99), laplace_one(1.0, (3, 4), 99))

    def test_seed_changes_noise(self):
        a = laplace_one(1.0, (3, 4), 1)
        b = laplace_one(1.0, (3, 4), 2)
        assert not np.array_equal(a, b)

    def test_moments_small_sample(self):
        b = 2.5
        x = laplace_one(b, (1, 200_000), 7).ravel()
        assert np.mean(np.abs(x)) == pytest.approx(b, rel=0.02)
        assert np.var(x) == pytest.approx(2 * b * b, rel=0.05)

    def test_scale_is_linear(self):
        a = laplace_one(1.0, (2, 2), 5)
        c = laplace_one(3.0, (2, 2), 5)
        np.testing.assert_allclose(c, 3.0 * a)


def old_laplace(scale, dims, seed):
    """The per-model formula: one generator, inverse CDF."""
    u = make_rng(seed, "laplace").random(dims)
    v = u - 0.5
    mag = np.maximum(1.0 - 2.0 * np.abs(v), np.finfo(np.float64).tiny)
    return -scale * np.sign(v) * np.log(mag)


class TestLaplaceBitExact:
    @pytest.mark.parametrize("dims", [(1, 1), (3, 5), (2, 20), (10, 78), (1, 1001)])
    def test_vector_equals_per_spec_generator(self, dims):
        for seed in (0, 1, 2**32 - 1, 2**32, 2**62 + 12345):
            assert np.array_equal(laplace_one(0.37, dims, seed), old_laplace(0.37, dims, seed))

    def test_stack_equals_each_spec(self):
        rng = np.random.default_rng(4)
        scales = rng.uniform(0.01, 5, size=40)
        seeds = rng.integers(0, 2**63 - 1, size=40)
        stack = laplace_noise(scales, seeds, (3, 7))
        for nu, scale, seed in zip(stack, scales, seeds):
            assert np.array_equal(nu, old_laplace(float(scale), (3, 7), int(seed)))

    def test_perturbing_a_stack_equals_one_model_at_a_time(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((6, 3, 4))
        scales = [0.5 + i if i % 3 else 0.0 for i in range(6)]
        seeds = [1000 + i for i in range(6)]
        noisy, l1, l2 = output_perturb(stack, scales, seeds)
        for w, scale, seed, out, n1, n2 in zip(stack, scales, seeds, noisy, l1, l2):
            if scale == 0.0:
                assert np.array_equal(out, w) and n1 == n2 == 0.0
                continue
            nu = old_laplace(scale, (3, 4), seed)
            assert np.array_equal(out, w + nu)
            assert n1 == float(np.abs(nu).sum())
            assert n2 == float(np.linalg.norm(nu))
            alone = output_perturb(w[None], [scale], [seed])
            assert np.array_equal(alone[0][0], out)
            assert (alone[1][0], alone[2][0]) == (n1, n2)


class TestNoiseScale:
    def test_catalogue_formulas(self):
        # each former catalogue entry, as an event's interval size n, charge
        # and sampled level
        L, lam, eps = 0.5, 2.0, Fraction(1, 4)
        # the calibrated bound is Delta + tau/lam = (1 + 2 * TAU_SHARE) * Delta
        c = 1 + 2 * TAU_SHARE
        # multires level 3 (B=8): n = 8B, charge eps/16
        assert laplace_scale(L, lam, 64, eps / 16) == pytest.approx(c * 4 * L / (lam * 8 * eps))
        # pberm small update (b0=4): charge eps/2
        assert laplace_scale(L, lam, 4, eps / 2) == pytest.approx(c * 4 * L / (lam * 4 * eps))
        # multires_sampled level 3 (B=8)
        assert laplace_scale(L, lam, 64, eps / 16, 3) == pytest.approx(
            c * 4 * L / (lam * 8 * 8 * eps))
        # pberm_sampled level 2 (b0=4)
        assert laplace_scale(L, lam, 16, eps / 8, 2) == pytest.approx(
            c * 4 * L / (lam * 4 * 4 * eps))
        # sliding_base (base size 16): charge eps/3
        assert laplace_scale(L, lam, 16, eps / 3) == pytest.approx(c * 6 * L / (lam * eps * 16))
        # sliding_update level 1 (w0=2): n = 2 w0, charge eps/12
        assert laplace_scale(L, lam, 4, eps / 12) == pytest.approx(c * 12 * L / (lam * 2 * eps))
        # sliding_update_sampled level 2 (w0=2)
        assert laplace_scale(L, lam, 8, eps / 24, 2) == pytest.approx(
            c * 12 * L / (lam * 4 * 2 * eps))

    def test_tolerance_and_scale_share_one_sensitivity(self):
        L, lam, n, charge = 0.5, 2.0, 64, Fraction(1, 3)
        delta = 2 * L / (lam * n)
        tau = solve_tolerance(L, lam, n)
        assert tau == pytest.approx(TAU_SHARE * 2 * lam * delta)
        assert laplace_scale(L, lam, n, charge) == pytest.approx((delta + tau / lam) / charge)
        for bad in ((L, lam, 0), (0.0, lam, n), (L, math.inf, n)):
            with pytest.raises(MechanismError):
                solve_tolerance(*bad)

    def test_missing_or_invalid_params(self):
        with pytest.raises(MechanismError):
            laplace_scale(1.0, 1.0, 0, Fraction(1, 2))  # no points
        with pytest.raises(MechanismError):
            laplace_scale(1.0, -1.0, 8, Fraction(1, 2))
        with pytest.raises(MechanismError):
            laplace_scale(None, 1.0, 8, Fraction(1, 2))
        with pytest.raises(MechanismError):
            laplace_scale(0.0, 1.0, 8, Fraction(1, 2))
        with pytest.raises(MechanismError):
            laplace_scale(1.0, 1.0, 8, Fraction(0))
        for L, lam in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
                       (np.float64(math.nan), 1.0)):
            with pytest.raises(MechanismError, match="must be positive and finite"):
                laplace_scale(L, lam, 8, Fraction(1, 2))
        # a quotient that underflows to 0 or overflows to inf, and an eps no float holds
        for L, lam, charge in ((0.1, 1e308, Fraction(1, 2)), (1.0, 1.0, Fraction(1, 10**400)),
                               (1e308, 1e-308, Fraction(1, 2)), (1.0, 1.0, Fraction(10**400)),
                               (1.0, 1.0, Fraction(10**308))):
            with pytest.raises(MechanismError):
                laplace_scale(L, lam, 8, charge)
        with pytest.raises(MechanismError, match="too large for a float"):
            laplace_scale(1.0, 1.0, 8, Fraction(10**300), sampled_level=40)


class TestSampling:
    def test_level_zero_is_identity_probability(self):
        assert sampling_probability("exp_formula", 0, 0.1) == pytest.approx(1.0)
        assert sampling_probability("reciprocal", 0, 0.1) == 1.0

    def test_exp_formula_matches_closed_form(self):
        eps, k = 0.1, 3
        expect = math.expm1(eps / (2 * 2**k)) / math.expm1(eps / 2)
        assert sampling_probability("exp_formula", k, eps) == pytest.approx(expect)

    def test_probability_decreases_with_level(self):
        ps = [sampling_probability("exp_formula", k, 0.5) for k in range(5)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_unknown_rule(self):
        with pytest.raises(MechanismError):
            sampling_probability("bogus", 1, 0.1)

    def test_subsample_preserves_order(self, rng):
        data = random_dataset(rng, 200, 2, 2)
        p = sampling_probability("reciprocal", 1, 1.0)
        out = data.take(subsample(data.n, p, seed=11))
        assert p == 0.5
        # sampled rows appear in original relative order
        pos = [np.flatnonzero((data.X == row).all(axis=1))[0] for row in out.X]
        assert pos == sorted(pos)

    def test_subsample_empty_in_empty_out(self):
        from streamdp import Dataset

        data = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        p = sampling_probability("reciprocal", 2, 1.0)
        rows = subsample(data.n, p, seed=0)
        assert len(rows) == 0 and p == 0.25

    def test_identity_at_p_one_returns_same_rows(self, rng):
        data = random_dataset(rng, 50, 2, 2)
        p = sampling_probability("exp_formula", 0, 0.1)
        rows = subsample(data.n, p, seed=3)
        assert p == pytest.approx(1.0)
        np.testing.assert_array_equal(data.take(rows).X, data.X)

    @given(st.integers(1, 6), st.floats(0.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_exp_formula_in_unit_interval(self, level, eps):
        p = sampling_probability("exp_formula", level, eps)
        assert 0.0 < p <= 1.0


class TestOutputPerturb:
    def test_records_noise_norms(self):
        noisy, l1, l2 = output_perturb(np.zeros((1, 2, 3)), [0.5], [21])
        assert l1[0] == pytest.approx(np.abs(noisy[0]).sum())
        assert l2[0] == pytest.approx(np.linalg.norm(noisy[0]))

    def test_shape_mismatch(self):
        with pytest.raises(ErmError, match=r"\(S, k, d\) stack"):
            output_perturb(np.zeros((2, 3)), [1.0, 1.0], [0, 1])
        with pytest.raises(MechanismError, match="one scale per model"):
            output_perturb(np.zeros((2, 2, 3)), [1.0], [0])

    @pytest.mark.parametrize("scale", [-1.0, float("inf"), float("nan")])
    def test_bad_scales_rejected(self, scale):
        with pytest.raises(MechanismError):
            output_perturb(np.zeros((2, 2, 2)), [1.0, scale], [0, 1])


def zero_model(data):
    """One model's bias toward the zero model, as a stack of one."""
    return np.zeros((1, data.k, data.d))


def pberm_one(bias, data, lam, scale, noise_seed, tau=TAU):
    """pberm of one member solved to tau, with noise from noise_seed: its
    noisy (k, d) weights, noise_l1 and noise_l2."""
    w, l1, l2 = pberm(bias, data, lam, [tau], [scale], [noise_seed])
    return w[0], l1[0], l2[0]


class TestPsgdPberm:
    # private SGD (psgd) is pberm on the zero model: regularized toward 0
    def test_psgd_zero_delta_is_nonprivate_escape(self, rng):
        data = random_dataset(rng, 60, 3, 2)
        w, l1, l2 = pberm_one(zero_model(data), data, 0.5, 0.0, 5)
        np.testing.assert_array_equal(w, solve(data, zero_model(data), 0.5, [TAU])[0])
        assert l1 == l2 == 0.0

    def test_psgd_negative_delta_rejected(self, rng):
        data = random_dataset(rng, 20, 2, 2)
        with pytest.raises(MechanismError):
            pberm_one(zero_model(data), data, 0.5, -1.0, 0)

    def test_psgd_noise_actually_added(self, rng):
        data = random_dataset(rng, 60, 3, 2)
        clean, _, _ = pberm_one(zero_model(data), data, 0.5, 0.0, 5)
        noisy, l1, l2 = pberm_one(zero_model(data), data, 0.5, 0.3, 77)
        assert l2 > 0
        np.testing.assert_array_equal(noisy - clean, laplace_one(0.3, clean.shape, 77))
        assert np.linalg.norm(noisy - clean) == pytest.approx(l2)
        assert np.abs(noisy - clean).sum() == pytest.approx(l1)

    def test_pberm_applies_given_scale(self, rng):
        data = random_dataset(rng, 30, 2, 2)
        bias = np.zeros((1, 2, 2))
        clean, _, clean_l2 = pberm_one(bias, data, 2.0, 0.0, 0)
        noisy, _, noisy_l2 = pberm_one(bias, data, 2.0, 0.4, 9)
        assert clean_l2 == 0.0
        np.testing.assert_allclose(noisy - clean, laplace_one(0.4, (2, 2), 9))
        assert np.linalg.norm(noisy - clean) == pytest.approx(noisy_l2)

    def test_pberm_empty_data_rejected(self):
        from streamdp import Dataset, ErmError

        data = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ErmError):
            pberm_one(np.zeros((1, 2, 2)), data, 1.0, 1.0, 0)
