import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamdp import (
    MechanismError,
    ModelWeights,
    NoiseSpec,
    RegularizerSpec,
    TrainConfig,
    laplace_scale,
    laplace_stack,
    laplace_vector,
    output_perturb,
    pberm,
    sampling_probability,
    subsample,
)
from streamdp.rng import make_rng
from conftest import random_dataset


class TestNoiseSpec:
    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_scales_rejected(self, scale):
        with pytest.raises(MechanismError):
            NoiseSpec(scale, (2, 2), 0)


class TestLaplace:
    def test_deterministic_per_seed(self):
        spec = NoiseSpec(1.0, (3, 4), 99)
        np.testing.assert_array_equal(laplace_vector(spec), laplace_vector(spec))

    def test_seed_changes_noise(self):
        a = laplace_vector(NoiseSpec(1.0, (3, 4), 1))
        b = laplace_vector(NoiseSpec(1.0, (3, 4), 2))
        assert not np.array_equal(a, b)

    def test_moments_small_sample(self):
        b = 2.5
        x = laplace_vector(NoiseSpec(b, (1, 200_000), 7)).ravel()
        assert np.mean(np.abs(x)) == pytest.approx(b, rel=0.02)
        assert np.var(x) == pytest.approx(2 * b * b, rel=0.05)

    def test_scale_is_linear(self):
        a = laplace_vector(NoiseSpec(1.0, (2, 2), 5))
        c = laplace_vector(NoiseSpec(3.0, (2, 2), 5))
        np.testing.assert_allclose(c, 3.0 * a)


def old_laplace(spec):
    """The per-spec formula: one generator, inverse CDF."""
    u = make_rng(spec.seed, "laplace").random(spec.dims)
    v = u - 0.5
    mag = np.maximum(1.0 - 2.0 * np.abs(v), np.finfo(np.float64).tiny)
    return -spec.scale * np.sign(v) * np.log(mag)


class TestLaplaceBitExact:
    @pytest.mark.parametrize("dims", [(1, 1), (3, 5), (2, 20), (10, 78), (1, 1001)])
    def test_vector_equals_per_spec_generator(self, dims):
        for seed in (0, 1, 2**32 - 1, 2**32, 2**62 + 12345):
            spec = NoiseSpec(0.37, dims, seed)
            assert np.array_equal(laplace_vector(spec), old_laplace(spec))

    def test_stack_equals_each_spec(self):
        rng = np.random.default_rng(4)
        specs = [NoiseSpec(float(s), (3, 7), int(x)) for s, x in
                 zip(rng.uniform(0.01, 5, size=40), rng.integers(0, 2**63 - 1, size=40))]
        stack = laplace_stack(specs)
        for nu, spec in zip(stack, specs):
            assert np.array_equal(nu, old_laplace(spec))

    def test_perturbing_a_stack_equals_one_model_at_a_time(self):
        rng = np.random.default_rng(5)
        models = [ModelWeights(rng.standard_normal((3, 4))) for _ in range(6)]
        specs = [NoiseSpec(0.5 + i, (3, 4), 1000 + i) if i % 3 else None for i in range(6)]
        out = output_perturb(models, specs)
        for model, spec, pm in zip(models, specs, out):
            if spec is None:
                assert pm.weights is model and pm.noise_l1 == pm.noise_l2 == 0.0
                continue
            nu = old_laplace(spec)
            assert np.array_equal(pm.weights.w, model.w + nu)
            assert pm.noise_l1 == float(np.abs(nu).sum())
            assert pm.noise_l2 == float(np.linalg.norm(nu))
            assert pm.spec == spec


class TestNoiseScale:
    def test_catalogue_formulas(self):
        # each former catalogue entry, as an event's interval size n, charge
        # and sampled level
        L, lam, eps = 0.5, 2.0, Fraction(1, 4)
        # multires level 3 (B=8): n = 8B, charge eps/16
        assert laplace_scale(L, lam, 64, eps / 16) == pytest.approx(4 * L / (lam * 8 * eps))
        # pberm small update (b0=4): charge eps/2
        assert laplace_scale(L, lam, 4, eps / 2) == pytest.approx(4 * L / (lam * 4 * eps))
        # multires_sampled level 3 (B=8)
        assert laplace_scale(L, lam, 64, eps / 16, 3) == pytest.approx(
            4 * L / (lam * 8 * 8 * eps))
        # pberm_sampled level 2 (b0=4)
        assert laplace_scale(L, lam, 16, eps / 8, 2) == pytest.approx(
            4 * L / (lam * 4 * 4 * eps))
        # sliding_base (base size 16): charge eps/3
        assert laplace_scale(L, lam, 16, eps / 3) == pytest.approx(6 * L / (lam * eps * 16))
        # sliding_update level 1 (w0=2): n = 2 w0, charge eps/12
        assert laplace_scale(L, lam, 4, eps / 12) == pytest.approx(12 * L / (lam * 2 * eps))
        # sliding_update_sampled level 2 (w0=2)
        assert laplace_scale(L, lam, 8, eps / 24, 2) == pytest.approx(
            12 * L / (lam * 4 * 2 * eps))

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
        w = ModelWeights(np.zeros((2, 3)))
        pm = output_perturb(w, NoiseSpec(0.5, (2, 3), 21))
        assert pm.noise_l1 == pytest.approx(np.abs(pm.weights.w).sum())
        assert pm.noise_l2 == pytest.approx(np.linalg.norm(pm.weights.w))

    def test_shape_mismatch(self):
        with pytest.raises(MechanismError):
            output_perturb(ModelWeights(np.zeros((2, 2))), NoiseSpec(1.0, (2, 3), 0))


def zero_model(data):
    return ModelWeights(np.zeros((data.k, data.d)))


class TestPsgdPberm:
    # private SGD (psgd) is pberm on the zero model: regularized toward 0
    def test_psgd_zero_delta_is_nonprivate_escape(self, rng):
        data = random_dataset(rng, 60, 3, 2)
        cfg = TrainConfig(iterations=40, seed=5)
        pm = pberm(zero_model(data), data, 0.5, cfg, 0.0)
        from streamdp import sgd_train

        np.testing.assert_array_equal(pm.weights.w, sgd_train(data, RegularizerSpec(0.5), cfg).w)
        assert pm.noise_l2 == 0.0 and pm.spec is None

    def test_psgd_negative_delta_rejected(self, rng):
        data = random_dataset(rng, 20, 2, 2)
        with pytest.raises(MechanismError):
            pberm(zero_model(data), data, 0.5, TrainConfig(iterations=5), -1.0)

    def test_psgd_noise_actually_added(self, rng):
        data = random_dataset(rng, 60, 3, 2)
        cfg = TrainConfig(iterations=40, seed=5)
        clean = pberm(zero_model(data), data, 0.5, cfg, 0.0)
        noisy = pberm(zero_model(data), data, 0.5, cfg, 0.3, noise_seed=77)
        assert noisy.noise_l2 > 0
        np.testing.assert_allclose(
            noisy.weights.w - clean.weights.w,
            noisy.weights.w - clean.weights.w,
        )
        assert np.linalg.norm(noisy.weights.w - clean.weights.w) == pytest.approx(
            noisy.noise_l2
        )

    def test_pberm_applies_given_scale(self, rng):
        data = random_dataset(rng, 30, 2, 2)
        bias = ModelWeights(np.zeros((2, 2)))
        cfg = TrainConfig(iterations=10)
        clean = pberm(bias, data, 2.0, cfg, 0.0)
        noisy = pberm(bias, data, 2.0, cfg, 0.4, noise_seed=9)
        assert clean.spec is None and noisy.spec.scale == 0.4
        assert np.linalg.norm(noisy.weights.w - clean.weights.w) == pytest.approx(
            noisy.noise_l2
        )

    def test_pberm_empty_data_rejected(self):
        from streamdp import Dataset, ErmError

        data = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ErmError):
            pberm(ModelWeights(np.zeros((2, 2))), data, 1.0, TrainConfig(iterations=5), 1.0)
