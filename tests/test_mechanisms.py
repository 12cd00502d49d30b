import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamdp import (
    MechanismError,
    ModelWeights,
    NoiseSpec,
    RegularizerSpec,
    SamplingSpec,
    TrainConfig,
    laplace_vector,
    noise_scale,
    output_perturb,
    pberm,
    psgd,
    sampling_probability,
    subsample,
)
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


class TestNoiseScale:
    def test_catalogue_formulas(self):
        L, lam, eps = 0.5, 2.0, 0.25
        assert noise_scale("multires", L=L, lam=lam, eps=eps, B=8) == pytest.approx(
            4 * L / (lam * 8 * eps)
        )
        assert noise_scale("pberm", L=L, lam=lam, eps=eps, b0=4) == pytest.approx(
            4 * L / (lam * 4 * eps)
        )
        assert noise_scale(
            "multires_sampled", L=L, lam=lam, eps=eps, B=8, level=3
        ) == pytest.approx(4 * L / (lam * 8 * 8 * eps))
        assert noise_scale(
            "pberm_sampled", L=L, lam=lam, eps=eps, b0=4, level=2
        ) == pytest.approx(4 * L / (lam * 4 * 4 * eps))
        assert noise_scale(
            "sliding_base", L=L, lam=lam, eps=eps, base_size=16
        ) == pytest.approx(6 * L / (lam * eps * 16))
        assert noise_scale("sliding_update", L=L, lam=lam, eps=eps, w0=2) == pytest.approx(
            12 * L / (lam * 2 * eps)
        )
        assert noise_scale(
            "sliding_update_sampled", L=L, lam=lam, eps=eps, w0=2, level=2
        ) == pytest.approx(12 * L / (lam * 4 * 2 * eps))

    def test_missing_or_invalid_params(self):
        with pytest.raises(MechanismError):
            noise_scale("multires", L=1.0, lam=1.0, eps=1.0)  # no B
        with pytest.raises(MechanismError):
            noise_scale("multires", L=1.0, lam=-1.0, eps=1.0, B=8)
        with pytest.raises(MechanismError):
            noise_scale("nope", L=1.0, lam=1.0, eps=1.0)


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
        rows, p = subsample(data, SamplingSpec("reciprocal", 1, seed=11), eps=1.0)
        out = data.take(rows)
        assert p == 0.5
        # sampled rows appear in original relative order
        pos = [np.flatnonzero((data.X == row).all(axis=1))[0] for row in out.X]
        assert pos == sorted(pos)

    def test_subsample_empty_in_empty_out(self):
        from streamdp import Dataset

        data = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        rows, p = subsample(data, SamplingSpec("reciprocal", 2, seed=0), eps=1.0)
        assert len(rows) == 0 and p == 0.25

    def test_identity_at_p_one_returns_same_rows(self, rng):
        data = random_dataset(rng, 50, 2, 2)
        rows, p = subsample(data, SamplingSpec("exp_formula", 0, seed=3), eps=0.1)
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


class TestPsgdPberm:
    def test_psgd_zero_delta_is_nonprivate_escape(self, rng):
        data = random_dataset(rng, 60, 3, 2)
        cfg = TrainConfig(iterations=40, seed=5)
        pm = psgd(data, 0.0, RegularizerSpec(0.5), cfg)
        from streamdp import sgd_train

        np.testing.assert_array_equal(pm.weights.w, sgd_train(data, RegularizerSpec(0.5), cfg).w)
        assert pm.noise_l2 == 0.0 and pm.spec is None

    def test_psgd_negative_delta_rejected(self, rng):
        data = random_dataset(rng, 20, 2, 2)
        with pytest.raises(MechanismError):
            psgd(data, -1.0, RegularizerSpec(0.5), TrainConfig(iterations=5))

    def test_psgd_noise_actually_added(self, rng):
        data = random_dataset(rng, 60, 3, 2)
        cfg = TrainConfig(iterations=40, seed=5)
        clean = psgd(data, 0.0, RegularizerSpec(0.5), cfg)
        noisy = psgd(data, 0.3, RegularizerSpec(0.5), cfg, noise_seed=77)
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
