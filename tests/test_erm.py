from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamdp import (
    CertificateError,
    Dataset,
    DivergenceError,
    ErmError,
    TrainConfig,
    clip_l1,
    evaluate_accuracy,
    lipschitz_public,
    loss_and_gradient,
    sgd_train,
    solve,
)
from streamdp import erm
from streamdp.rng import make_rng
from conftest import random_dataset


def numeric_gradient(w, data, lam, bias=None, h=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp = w.copy()
            wp[i, j] += h
            lp, _ = loss_and_gradient(wp, data, lam, bias)
            wm = w.copy()
            wm[i, j] -= h
            lm, _ = loss_and_gradient(wm, data, lam, bias)
            grad[i, j] = (lp - lm) / (2 * h)
    return grad


def zeros(data, S):
    """The biases of S seeds that train toward the zero model."""
    return np.zeros((S, data.k, data.d))


def train_one(data, cfg, lam, seed, bias=None, rows=None):
    """sgd_train of seed alone on all of data, from the (k, d) bias (the
    zero model without one): its (k, d) weights. rows, if given, is its
    one-member row-set list."""
    bias = zeros(data, 1) if bias is None else bias[None]
    return sgd_train(data, bias, cfg, lam, (seed,), rows)[0]


class TestDataset:
    def test_shapes_and_counts(self, rng):
        data = random_dataset(rng, 10, 4, 3)
        assert data.n == 10 and data.d == 4 and data.k == 3

    def test_label_out_of_range_rejected(self, rng):
        X = rng.standard_normal((3, 2))
        with pytest.raises(ErmError):
            Dataset(X, np.array([0, 1, 3]), 3)

    def test_slice_is_inclusive(self, rng):
        data = random_dataset(rng, 10, 2, 2)
        part = data.slice(2, 4)
        assert part.n == 3
        np.testing.assert_array_equal(part.X, data.X[2:5])

    def test_slice_out_of_range(self, rng):
        data = random_dataset(rng, 5, 2, 2)
        with pytest.raises(ErmError):
            data.slice(0, 5)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 9))
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 12))
            data = random_dataset(rng, n, d, k)
            lam = float(rng.uniform(0.01, 2.0))
            w = rng.standard_normal((k, d))
            _, grad = loss_and_gradient(w, data, lam)
            num = numeric_gradient(w, data, lam)
            denom = max(np.linalg.norm(num), 1e-12)
            assert np.linalg.norm(grad - num) / denom <= 1e-5

    def test_gradient_with_bias_reference(self, rng):
        data = random_dataset(rng, 8, 3, 3)
        bias = rng.standard_normal((3, 3))
        w = rng.standard_normal((3, 3))
        _, grad = loss_and_gradient(w, data, 0.5, bias)
        num = numeric_gradient(w, data, 0.5, bias)
        assert np.linalg.norm(grad - num) / np.linalg.norm(num) <= 1e-5

    def test_loss_at_bias_has_pure_data_gradient(self, rng):
        # at w = bias the penalty term and its gradient contribution vanish
        data = random_dataset(rng, 6, 2, 2)
        bias = rng.standard_normal((2, 2))
        with_pen, g_pen = loss_and_gradient(bias, data, 3.0, bias)
        no_pen, g_free = loss_and_gradient(bias, data, 1e-12, bias)
        assert with_pen == pytest.approx(no_pen, abs=1e-9)
        np.testing.assert_allclose(g_pen, g_free, atol=1e-9)


def blobs(rng, n, d, k, scale=1.0):
    """Gaussian blobs around k class means, as the synthetic streams are."""
    y = rng.integers(0, k, size=n)
    X = 0.5 * rng.standard_normal((n, d))
    X[:, 0] += np.cos(2 * np.pi * y / k)
    X[:, 1] += np.sin(2 * np.pi * y / k)
    return Dataset(scale * X, y, k)


class TestSolve:
    @pytest.mark.parametrize("lam", [0.05, 1.0, 30.0])
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_every_member_is_within_its_tolerance(self, rng, lam, n):
        data = blobs(rng, 400, 5, 3)
        bias = 0.3 * rng.standard_normal((3, 3, 5))
        tau = np.array([1e-3, 1e-6, 1e-9])
        rows = [range(0, n), np.sort(rng.choice(400, n, replace=False)), range(400 - n, 400)]
        w = solve(data, bias, lam, tau, rows)
        for i in range(3):
            r = np.asarray(rows[i])
            _, grad = loss_and_gradient(w[i], Dataset(data.X[r], data.y[r], 3), lam, bias[i])
            assert np.linalg.norm(grad) <= tau[i]

    @pytest.mark.parametrize("d,k", [(4, 3), (20, 3), (40, 10)])
    @pytest.mark.parametrize("n", [1, 5, 64, 3000])
    def test_a_member_in_a_stack_equals_the_member_alone(self, rng, d, k, n):
        # shared rows read in place, several ranges and index arrays gathered,
        # each with its own bias and tolerance
        data = blobs(rng, 3 * n + 7, d, k, scale=2.0)
        S = 5
        bias = 0.2 * rng.standard_normal((S, k, d))
        tau = 10.0 ** -rng.integers(4, 9, size=S)
        layouts = {
            "shared": [range(3, 3 + n)] * S,
            "ranges": [range(i, i + n) for i in range(S)],
            "indices": [np.sort(rng.choice(data.n, n, replace=False)) for _ in range(S)],
        }
        for rows in layouts.values():
            stacked = solve(data, bias, 0.5, tau, rows)
            for i in range(S):
                alone = solve(data, bias[i : i + 1], 0.5, tau[i : i + 1], rows[i : i + 1])
                np.testing.assert_array_equal(stacked[i], alone[0])

    @pytest.mark.parametrize("n", [3000, 2051])
    def test_an_image_member_in_a_shared_stack_equals_the_member_alone(self, rng, n):
        # d=784, k=10 on shared rows: the 2,048-row chunk takes the stacked
        # product, and so does the 952-row tail at n=3000; the 3-row tail at
        # n=2051 does not
        d, k, S = 784, 10, 3
        data = blobs(rng, n + 5, d, k)
        bias = 0.01 * rng.standard_normal((S, k, d))
        tau = 10.0 ** -rng.integers(5, 8, size=S)
        rows = [range(5, 5 + n)] * S
        stacked = solve(data, bias, 0.01, tau, rows)
        for i in range(S):
            alone = solve(data, bias[i : i + 1], 0.01, tau[i : i + 1], rows[i : i + 1])
            np.testing.assert_array_equal(stacked[i], alone[0])

    def test_huge_lambda_pins_weights_to_bias(self, rng):
        data = random_dataset(rng, 40, 3, 3)
        bias = rng.standard_normal((1, 3, 3))
        w = solve(data, bias, 1e6, 1e-9)
        assert np.all(np.isfinite(w))
        assert np.linalg.norm(w - bias) < 1e-3

    def test_the_cap_refuses_the_first_uncertified_member(self, rng, monkeypatch):
        data = blobs(rng, 200, 4, 3)
        bias = np.zeros((3, 3, 4))
        # member 0 is certified at its bias's gradient; the others need steps
        _, g0 = loss_and_gradient(bias[0], data.slice(0, 49), 0.5)
        tau = [2 * np.linalg.norm(g0), 1e-9, 1e-9]
        monkeypatch.setattr(erm, "SOLVE_CAP", 1)
        with pytest.raises(CertificateError, match=r"^no certificate after 1 iterations: "
                           r"gradient norm \S+ above the tolerance$") as exc:
            solve(data, bias, 0.5, tau, [range(0, 50), range(50, 100), range(100, 150)])
        assert exc.value.member == 1 and exc.value.iterations == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_a_gradient_that_is_not_finite_is_refused_at_once(self, rng):
        X = rng.standard_normal((20, 3))
        X[12] = 1e200
        data = Dataset(X, rng.integers(0, 2, size=20), 2)
        with pytest.raises(CertificateError, match="after 0 iterations: gradient norm inf") \
                as exc:
            solve(data, np.zeros((2, 2, 3)), 1.0, 1e-6, [range(0, 10), range(10, 20)])
        assert exc.value.member == 1

    @pytest.mark.parametrize("args,message", [
        ((0.0, 1e-6, None), "lambda must be > 0 and finite"),
        ((float("nan"), 1e-6, None), "lambda must be > 0 and finite"),
        ((1.0, 0.0, None), "tolerances must be positive and finite"),
        ((1.0, float("inf"), None), "tolerances must be positive and finite"),
        ((1.0, 1e-6, [range(0, 3)]), "need one row set per member"),
        ((1.0, 1e-6, [range(0, 3), range(0, 4)]), "equal, non-empty row sets"),
        ((1.0, 1e-6, [range(0, 0), range(0, 0)]), "equal, non-empty row sets"),
        ((1.0, 1e-6, [range(8, 11), range(8, 11)]), r"training rows must lie in \[0, 10\)"),
        ((1.0, 1e-6, [np.array([0, 10]), np.array([1, 2])]),
         r"training rows must lie in \[0, 10\)"),
    ], ids=["lambda-0", "lambda-nan", "tau-0", "tau-inf", "one-row-set", "unequal-sizes",
            "empty", "range-past-the-end", "index-past-the-end"])
    def test_bad_arguments_raise_erm_error(self, rng, args, message):
        data = random_dataset(rng, 10, 2, 2)
        lam, tau, rows = args
        with pytest.raises(ErmError, match=message):
            solve(data, np.zeros((2, 2, 2)), lam, tau, rows)


class TestSgd:
    def test_deterministic_per_seed(self, rng):
        data = random_dataset(rng, 50, 3, 2)
        cfg = TrainConfig(iterations=50)
        w1 = train_one(data, cfg, 0.1, 7)
        w2 = train_one(data, cfg, 0.1, 7)
        np.testing.assert_array_equal(w1, w2)

    def test_seed_changes_trajectory(self, rng):
        data = random_dataset(rng, 50, 3, 2)
        w1 = train_one(data, TrainConfig(iterations=50), 0.1, 1)
        w2 = train_one(data, TrainConfig(iterations=50), 0.1, 2)
        assert not np.array_equal(w1, w2)

    def test_separable_problem_learns(self, rng):
        n, d = 400, 4
        y = rng.integers(0, 2, size=n)
        X = rng.standard_normal((n, d)) * 0.1
        X[:, 0] += np.where(y == 0, 1.0, -1.0)
        data = Dataset(X, y, 2)
        w = train_one(data, TrainConfig(iterations=300), 0.01, 3)
        assert evaluate_accuracy(w[None], data)[0] > 0.95

    def test_empty_dataset_rejected(self):
        data = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ErmError):
            train_one(data, TrainConfig(iterations=5), 0.1, 0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("inf"), float("nan")])
    def test_lambda_must_be_positive_and_finite(self, rng, lam):
        data = random_dataset(rng, 10, 2, 2)
        with pytest.raises(ErmError, match="lambda must be > 0 and finite"):
            train_one(data, TrainConfig(iterations=2), lam, 0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("inf"), float("nan")])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ErmError, match="gamma must be > 0 and finite"):
            TrainConfig(gamma=gamma)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 3), (3, 3, 2), (2, 3, 2, 1)])
    def test_bias_must_be_one_model_per_seed(self, rng, shape):
        # two seeds on data of k=3 classes, d=2 features: the bias is (2, 3, 2)
        data = random_dataset(rng, 10, 2, 3)
        with pytest.raises(ErmError, match=r"bias shape .* does not match \(2, 3, 2\)"):
            sgd_train(data, np.zeros(shape), TrainConfig(iterations=2), 0.5, (1, 2))


def reference_sgd(data, lam, cfg, seed, bias=None):
    """SGD of a single seed on all of data, from bias (the zero model
    without one): one minibatch draw and one (m, d) step per iteration."""
    wg = np.zeros((data.k, data.d)) if bias is None else bias
    w = wg.copy()
    rng = make_rng(seed, "sgd")
    for i in range(1, cfg.iterations * cfg.passes + 1):
        idx = rng.integers(0, data.n, size=min(cfg.minibatch, data.n))
        Xb, yb = data.X[idx], data.y[idx]
        scores = Xb @ w.T
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1)[:, None]
        probs[np.arange(len(idx)), yb] -= 1.0
        g = (probs.T @ Xb) / len(idx)
        eta = 1.0 / (cfg.gamma * i)
        w = (w - eta * g + 2.0 * eta * lam * wg) / (1.0 + 2.0 * eta * lam)
        if not np.all(np.isfinite(w)):
            raise DivergenceError(i)
    return w


# Benchmark-shaped problems: minibatch 256, and the d=784 of the image
# workload, take BLAS paths that random_problem's small sizes never reach;
# k=130 sums each row of class scores in numpy's blocked pairwise order.
BENCHMARK_SHAPES = {
    "k3-d20": dict(k=3, n=1024, d=20, iterations=60),
    "k10-d784": dict(k=10, n=600, d=784, iterations=3),
    "k130-d6": dict(k=130, n=512, d=6, iterations=4),
}


def random_problem(rng, case):
    """Case `case` of a fixed spread of sizes: minibatch above and below n,
    one or more passes, zero or nonzero bias, k in {2, 3, 10}; or, for a
    name in BENCHMARK_SHAPES, that shape with a bias, one pass of minibatch
    256. Returns the data, lambda, bias, TrainConfig and seed."""
    shape = BENCHMARK_SHAPES.get(case)
    if shape:
        k, n, d = shape["k"], shape["n"], shape["d"]
    else:
        k = (2, 3, 10)[case % 3]
        n, d = int(rng.integers(1, 120)), int(rng.integers(1, 25))
    data = Dataset(rng.standard_normal((n, d)) * rng.choice([0.3, 1.0, 4.0]),
                   rng.integers(0, k, size=n), k)
    bias = rng.standard_normal((k, d)) if shape or case % 2 else None
    lam = float(rng.choice([0.01, 1.0, 50.0]))
    cfg = TrainConfig(
        gamma=float(rng.choice([1.0, 10.0])), iterations=int(rng.integers(1, 30)),
        minibatch=int(rng.choice([1, 7, 64, 500])), passes=int(rng.integers(1, 4)),
    )
    seed = int(rng.integers(0, 2**31))
    if shape:
        cfg = replace(cfg, iterations=shape["iterations"], minibatch=256, passes=1)
    return data, lam, bias, cfg, seed


def case_rng(case, offset=0):
    """The generator case `case` draws its problem from."""
    if case in BENCHMARK_SHAPES:
        case = 1000 + list(BENCHMARK_SHAPES).index(case)
    return np.random.default_rng(offset + case)


class TestSgdAgainstReference:
    """sgd_train against reference_sgd on each seed's rows, bit for bit.

    `all_rows(n, S)` names every row of the data for each of S seeds in one
    of the forms a caller may give them in: rows=None (the default), a
    range, a list, or an int32 index array.
    """

    @pytest.fixture(params=["none", "range", "list", "int32"])
    def all_rows(self, request):
        forms = {"range": range, "list": lambda n: list(range(n)),
                 "int32": lambda n: np.arange(n, dtype=np.int32)}
        if request.param == "none":
            return lambda n, S: None
        return lambda n, S: [forms[request.param](n)] * S

    @pytest.mark.parametrize("case", [*range(20), *BENCHMARK_SHAPES])
    def test_single_seed_matches_reference_loop(self, case, all_rows):
        data, lam, bias, cfg, seed = random_problem(case_rng(case), case)
        np.testing.assert_array_equal(train_one(data, cfg, lam, seed, bias, all_rows(data.n, 1)),
                                      reference_sgd(data, lam, cfg, seed, bias))

    @pytest.mark.parametrize("case", [*range(0, 20, 3), *BENCHMARK_SHAPES])
    def test_seed_stack_matches_single_seeds(self, case, all_rows):
        rng = case_rng(case, 100)
        data, _, _, cfg, _ = random_problem(rng, case)
        seeds = (5, 2**40, 5, 2**64 - 1)  # seeds of two 32-bit entropy words, too
        biases = rng.standard_normal((len(seeds), data.k, data.d))
        stacked = sgd_train(data, biases, cfg, 0.7, seeds, all_rows(data.n, len(seeds)))
        for seed, bias, got in zip(seeds, biases, stacked):
            want = reference_sgd(data, 0.7, cfg, seed, bias)
            np.testing.assert_array_equal(got, want)

    def test_rows_train_like_the_subset(self, rng):
        # the last row set is shorter than the minibatch, the others are not
        data = random_dataset(rng, 90, 4, 3)
        cfg = TrainConfig(iterations=25, minibatch=8)
        rows = [np.arange(0, 90, 3), np.arange(40, 90), np.arange(90), np.array([5, 17, 60])]
        stacked = sgd_train(data, zeros(data, 4), cfg, 0.5, (1, 2, 3, 4), rows)
        for seed, r, got in zip((1, 2, 3, 4), rows, stacked):
            want = reference_sgd(data.take(r), 0.5, cfg, seed)
            np.testing.assert_array_equal(got, want)

    def test_range_rows_train_like_the_slice(self, rng):
        data = random_dataset(rng, 90, 4, 3)
        cfg = TrainConfig(iterations=25, minibatch=8)
        rows = [range(10, 50), range(90), range(70, 78), range(0, 90, 3)]
        stacked = sgd_train(data, zeros(data, 4), cfg, 0.5, (1, 2, 3, 4), rows)
        for seed, r, got in zip((1, 2, 3, 4), rows, stacked):
            want = reference_sgd(data.take(np.asarray(r)), 0.5, cfg, seed)
            np.testing.assert_array_equal(got, want)

    def test_single_row_members_train_like_their_row(self, rng):
        # a one-row member's every draw names its one row
        data = random_dataset(rng, 90, 4, 3)
        cfg = TrainConfig(iterations=25, minibatch=8)
        rows = [range(17, 18), np.array([42]), range(0, 1), np.array([89])]
        stacked = sgd_train(data, zeros(data, 4), cfg, 0.5, (1, 2, 3, 4), rows)
        for seed, r, got in zip((1, 2, 3, 4), rows, stacked):
            want = reference_sgd(data.slice(r[0], r[0]), 0.5, cfg, seed)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [90, 1000, -1])
    def test_a_single_row_outside_the_data_rejected(self, rng, bad):
        data = random_dataset(rng, 90, 4, 3)
        with pytest.raises(ErmError, match=r"\[0, 90\)"):
            sgd_train(data, zeros(data, 2), TrainConfig(iterations=3, minibatch=8), 0.5,
                      (1, 2), [np.array([5]), np.array([bad])])

    @pytest.mark.parametrize("bad", [90, 1000, -1])
    def test_rows_outside_the_data_rejected(self, rng, bad):
        # a negative index would read from the end, so every row is checked
        # before training, drawn or not
        data = random_dataset(rng, 90, 4, 3)
        rows = [np.arange(10), np.array([5, bad, 7])]
        with pytest.raises(ErmError, match=r"\[0, 90\)"):
            sgd_train(data, zeros(data, 2), TrainConfig(iterations=30, minibatch=2), 0.5,
                      (1, 2), rows)
        with pytest.raises(ErmError):
            sgd_train(data, zeros(data, 1), TrainConfig(iterations=1, minibatch=8), 0.5,
                      (1,), [range(85, 95)])
        with pytest.raises(ErmError, match=r"\[0, 90\)"):
            sgd_train(data, zeros(data, 1), TrainConfig(iterations=1, minibatch=1), 0.5,
                      (1,), [np.append(np.arange(89), bad)])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_reported_at_first_nonfinite_iteration(self, rng):
        data = random_dataset(rng, 40, 3, 3)
        huge = Dataset(data.X * 1e200, data.y, 3)
        cfg = TrainConfig(iterations=10, minibatch=8)
        with pytest.raises(DivergenceError) as ref:
            reference_sgd(huge, 0.5, cfg, 4)
        with pytest.raises(DivergenceError) as got:
            train_one(huge, cfg, 0.5, 4)
        assert got.value.iteration == ref.value.iteration
        # in a stack, one diverging seed stops the call at its iteration
        mixed = Dataset(np.vstack([data.X, huge.X]), np.concatenate([data.y, data.y]), 3)
        rows = [np.arange(40), np.arange(40, 80)]
        with pytest.raises(DivergenceError) as stacked:
            sgd_train(mixed, zeros(mixed, 2), cfg, 0.5, (4, 4), rows)
        assert stacked.value.iteration == ref.value.iteration
        assert stacked.value.member == 1  # the first non-finite member


class TestLipschitz:
    def test_single_class_is_zero(self):
        assert lipschitz_public(1, 16) == 0.0

    def test_public_bound_formula(self):
        # (k-1)/(2mk) * c * sqrt(m) with k=3, m=16, c=2
        assert lipschitz_public(3, 16, 2.0) == pytest.approx((3 - 1) / (2 * 16 * 3) * 2.0 * 4.0)

    def test_public_bound_shrinks_with_m(self):
        assert lipschitz_public(3, 400) < lipschitz_public(3, 100)


class TestEvaluate:
    def test_tie_breaks_to_lowest_class(self):
        w = np.zeros((1, 3, 2))
        data = Dataset(np.ones((4, 2)), np.zeros(4, dtype=int), 3)
        assert evaluate_accuracy(w, data).tolist() == [1.0]

    def test_perfect_and_zero(self):
        w = np.array([[[1.0], [-1.0]]])
        data = Dataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
        assert evaluate_accuracy(w, data).tolist() == [1.0]
        flipped = Dataset(data.X, np.array([1, 0]), 2)
        assert evaluate_accuracy(w, flipped).tolist() == [0.0]

    @pytest.mark.parametrize("shape", [(3, 2), (1, 1, 3, 2), (1, 2, 2)])
    def test_weights_must_be_an_rkd_stack(self, shape):
        data = Dataset(np.ones((4, 2)), np.zeros(4, dtype=int), 3)
        with pytest.raises(ErmError, match=r"is not \(R, k, d\)"):
            evaluate_accuracy(np.zeros(shape), data)


class TestClip:
    def test_large_rows_scaled_small_rows_kept(self):
        X = np.array([[3.0, -1.0], [0.25, 0.25]])
        out = clip_l1(Dataset(X, np.array([0, 1]), 2))
        assert np.abs(out.X[0]).sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(out.X[1], X[1])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_clip_never_exceeds_unit_l1(self, row):
        X = np.array([row])
        out = clip_l1(Dataset(X, np.array([0]), 2))
        assert np.abs(out.X).sum() <= 1.0 + 1e-12


class TestScoring:
    """The BLAS shape rules (`_one_product` for evaluate_accuracy's scores,
    `_stacked_product` for solve's) against one product per model, and
    evaluate_accuracy's first maxima against np.argmax."""

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("d", [4, 20, 784])
    def test_one_product_gives_each_model_its_own_bits(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        for n in (1, 2, 7, 64, 750):
            X = rng.standard_normal((n, d))
            y = rng.integers(0, k, size=n)
            for R in (1, 2, 5, 9, 17, 64):
                W = rng.standard_normal((R, k, d))
                if erm._one_product(n, d, R * k):
                    scores = (X @ W.reshape(R * k, d).T).reshape(n, R, k)
                    for r in range(R):
                        assert np.array_equal(scores[:, r], X @ W[r].T), (n, R, r)
                want = [np.count_nonzero(np.argmax(X @ w.T, axis=1) == y) / n for w in W]
                assert evaluate_accuracy(W, Dataset(X, y, k)).tolist() == want

    # d=784 and c=2048, 952 and 3 are the image workload's shapes. Outside the
    # rule, stacking changes the bits at a small product (k=2, d=784, c=512),
    # at N = c not a multiple of 8 (k=10, d=784, c=700, 1500, 2047) and at
    # N = d not a multiple of 8 (d=300), which is why the grid holds them.
    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("d", [20, 300, 784])
    def test_stacked_product_gives_each_member_its_own_bits(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        for c in (3, 512, 700, 952, 1500, 2047, 2048):
            Xc = rng.standard_normal((c, d))
            for S in (2, 40):  # S*k up to 400
                if erm._stacked_product(k, c, d):  # the scores
                    W = rng.standard_normal((S, k, d))
                    scores = (W.reshape(S * k, d) @ Xc.T).reshape(S, k, c)
                    for s in range(S):
                        assert np.array_equal(scores[s], W[s] @ Xc.T), (c, S, s)
                if erm._stacked_product(k, d, c):  # the gradient
                    P = rng.standard_normal((S, k, c))
                    grad = (P.reshape(S * k, c) @ Xc).reshape(S, k, d)
                    for s in range(S):
                        assert np.array_equal(grad[s], P[s] @ Xc), (c, S, s)

    def test_only_an_image_shaped_shared_stack_takes_the_stacked_product(self, rng,
                                                                         monkeypatch):
        taken = []
        rule = erm._stacked_product

        def spy(k, n, inner):
            taken.append(rule(k, n, inner))
            return taken[-1]

        monkeypatch.setattr(erm, "_stacked_product", spy)
        image, small = blobs(rng, 2100, 784, 10), blobs(rng, 3000, 20, 3)
        for data, rows, want in [
                (image, [range(0, 2048)] * 2, {True}),  # shared rows: one product
                (small, [range(0, 3000)] * 4, {False}),  # d=20: never admitted
                (image, [range(0, 2048), range(52, 2100)], set()),  # gathered, 3-D
        ]:
            taken.clear()
            solve(data, np.zeros((len(rows), data.k, data.d)), 1.0, 1e-3, rows)
            assert set(taken) == want, (data.d, rows)

    def test_small_models_take_one_product(self):
        # the 9-model chunks of a 750-row test set at d=20, k=3
        assert erm._one_product(750, 20, 9 * 3)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_first_max_is_argmax(self, k):
        rng = np.random.default_rng(k)
        planes = rng.integers(-2, 3, size=(k, 30, 40)).astype(float)  # many ties
        assert np.array_equal(erm._first_max(planes), np.argmax(planes, axis=0))
        planes[0, 4, :] = np.inf
        planes[-1, 5, ::3] = -np.inf
        assert np.array_equal(erm._first_max(planes), np.argmax(planes, axis=0))
        planes[1, 6, 7] = planes[k - 1, 8, 9] = np.nan
        assert np.array_equal(erm._first_max(planes), np.argmax(planes, axis=0))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("d", [4, 20])
    def test_ties_and_nans_score_as_argmax_in_every_form(self, d, k, nan):
        rng = np.random.default_rng(10 * d + k)
        R, m = 5, 24
        X = rng.integers(-1, 2, size=(R * m, d)).astype(float)  # integer scores: ties
        if nan:
            X[::7, 0] = np.inf  # inf, -inf or NaN scores, as the weights' signs fall
            X[::11, 1] = np.nan
        y = rng.integers(0, k, size=R * m)
        W = rng.integers(-1, 2, size=(R, k, d)).astype(float)
        data = Dataset(X, y, k)

        def argmax_accuracy(w, rows):
            return np.count_nonzero(np.argmax(X[rows] @ w.T, axis=1) == y[rows]) / len(y[rows])

        every = slice(None)
        want = [argmax_accuracy(w, every) for w in W]
        assert [evaluate_accuracy(w[None], data)[0] for w in W] == want
        assert evaluate_accuracy(W, data).tolist() == want
        runs = [argmax_accuracy(w, slice(r * m, (r + 1) * m)) for r, w in enumerate(W)]
        assert evaluate_accuracy(W, data, per_model=True).tolist() == runs
