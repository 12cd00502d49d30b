"""Non-private convex ERM machinery.

Multiclass logistic (softmax cross-entropy) loss, exact gradients, biased L2
regularization toward a reference model, the certified solve that training
uses (`solve`: full-batch L-BFGS until the gradient norm is at most a public
tolerance), SGD with a 1/(gamma*i) step schedule (library code, which no run
calls: `sgd_train`, a plain per-seed loop), and Lipschitz-constant
computation for DP noise calibration. A model is a (k, d) float64 weight
array, and training and scoring take S models as one (S, k, d) stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rng import make_rng


class ErmError(ValueError):
    """Raised for dimension mismatches, empty data and invalid configs."""


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite weights.

    `member` is the position, in its stack, of the seed whose weights are
    non-finite.
    """

    def __init__(self, iteration: int, member: int = 0):
        super().__init__(f"non-finite weights at iteration {iteration}")
        self.iteration = iteration
        self.member = member


@dataclass(frozen=True)
class Dataset:
    """Ordered labeled examples with shared dimension d and class count k.

    X has shape (n, d), y has shape (n,) with integer labels in [0, k).
    classes, where a loader read the labels from a file, holds the label
    value that each class index stands for, in increasing order; None means
    the indices are the values.
    """

    X: np.ndarray
    y: np.ndarray
    k: int
    classes: np.ndarray | None = None

    def __post_init__(self):
        # C order: `solve` reads an interval's rows as one contiguous view
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise ErmError(f"features must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ErmError(f"label shape {y.shape} does not match {X.shape[0]} examples")
        if len(y) and (y.min() < 0 or y.max() >= self.k):
            raise ErmError(f"labels must lie in [0, {self.k})")
        if self.classes is not None and len(self.classes) != self.k:
            raise ErmError(f"{len(self.classes)} class values for k={self.k} classes")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y.astype(np.int64))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def slice(self, a: int, b: int) -> "Dataset":
        """Examples with stream indices in the inclusive range [a, b]."""
        if a < 0 or b >= self.n or a > b:
            raise ErmError(f"interval [{a}, {b}] outside stream of length {self.n}")
        return Dataset(self.X[a : b + 1], self.y[a : b + 1], self.k, self.classes)

    def take(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.X[mask], self.y[mask], self.k, self.classes)


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 10.0
    iterations: int = 500
    minibatch: int = 256
    passes: int = 1

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ErmError(f"gamma must be > 0 and finite, got {self.gamma}")
        if self.iterations < 1:
            raise ErmError("iterations must be >= 1")
        if self.minibatch < 1 or self.passes < 1:
            raise ErmError("minibatch and passes must be >= 1")


def _check_dims(w: np.ndarray, data: Dataset, ndim: int):
    if w.ndim != ndim or w.shape[-2:] != (data.k, data.d):
        want = "(k, d)" if ndim == 2 else "(R, k, d)"
        raise ErmError(f"weight shape {w.shape} is not {want} with k={data.k}, d={data.d}")


def loss_and_gradient(w: np.ndarray, batch: Dataset, lam: float,
                      bias: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of the (k, d) weights w plus
    lam*||w - bias||_F^2 (bias None: the zero model), and its gradient."""
    if batch.n == 0:
        raise ErmError("empty batch")
    w = np.asarray(w, dtype=np.float64)
    _check_dims(w, batch, 2)
    scores = batch.X @ w.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    probs = exp / total[:, None]
    log_probs = shifted - np.log(total)[:, None]
    n = batch.n
    data_loss = -log_probs[np.arange(n), batch.y].mean()
    diff = w if bias is None else w - bias
    loss = data_loss + lam * float(np.sum(diff * diff))
    probs[np.arange(n), batch.y] -= 1.0
    grad = (probs.T @ batch.X) / n + 2.0 * lam * diff
    return float(loss), grad


def sgd_train(data: Dataset, bias, cfg: TrainConfig, lam: float, seeds,
              rows=None) -> np.ndarray:
    """SGD with step size 1/(gamma*i), deterministic in the seed: the
    trained (S, k, d) weights of S seeds, each trained on its own.

    Seed i starts at bias[i] of the (S, k, d) bias array and minimizes the
    data loss plus lam*||w - bias[i]||_F^2 over rows[i] of data, if given
    (a range or an array of row indices), all of data without; a row
    outside data raises ErmError. Each iteration draws min(minibatch, n_i)
    positions in rows[i] from the seed's own stream, `make_rng(seed,
    "sgd")`, and takes the plain stochastic gradient of the data term on
    those rows. The quadratic penalty is applied as a proximal (implicit)
    step, which stays stable for arbitrarily large lam. The seeds train in
    stack order, and the first whose weights turn non-finite raises
    DivergenceError at its own iteration.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ErmError(f"lambda must be > 0 and finite, got {lam}")
    S, k, d = len(seeds), data.k, data.d
    wg = np.asarray(bias, dtype=np.float64)
    if wg.shape != (S, k, d):
        raise ErmError(f"bias shape {wg.shape} does not match ({S}, {k}, {d})")
    if rows is None:
        rows = [range(data.n)] * S
    elif len(rows) != S:
        raise ErmError("need one row set per seed")
    rows = [np.asarray(r) for r in rows]
    if min(len(r) for r in rows) == 0:
        raise ErmError("empty training set")
    if any(r.min() < 0 or r.max() >= data.n for r in rows):
        raise ErmError(f"training rows must lie in [0, {data.n})")
    out = np.empty_like(wg)
    for s, (seed, r, w0) in enumerate(zip(seeds, rows, wg)):
        rng = make_rng(seed, "sgd")
        m = min(cfg.minibatch, len(r))
        w = w0
        for i in range(1, cfg.iterations * cfg.passes + 1):
            idx = r[rng.integers(0, len(r), size=m)]
            Xb = data.X[idx]
            scores = Xb @ w.T
            exp = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs = exp / exp.sum(axis=1)[:, None]
            probs[np.arange(m), data.y[idx]] -= 1.0
            g = (probs.T @ Xb) / m
            eta = 1.0 / (cfg.gamma * i)
            w = (w - eta * g + 2.0 * eta * lam * w0) / (1.0 + 2.0 * eta * lam)
            if not np.isfinite(w).all():
                raise DivergenceError(i, s)
        out[s] = w
    return out


class CertificateError(RuntimeError):
    """Raised when `solve` cannot certify a member: its gradient norm is
    still above its tolerance when it reaches the iteration cap, when its
    line search finds no acceptable step, or when its gradient is not
    finite.

    `member` is the member's position in its stack; `where` names what it
    was training.
    """

    def __init__(self, iterations: int, grad_norm: float, member: int = 0,
                 where: str | None = None):
        at = f" in {where}" if where else ""
        super().__init__(f"no certificate after {iterations} iterations: gradient norm "
                         f"{grad_norm:.6g} above the tolerance{at}")
        self.iterations = iterations
        self.grad_norm = grad_norm
        self.member = member
        self.where = where


# The settings of `solve`, public and the same for every run: the curvature
# pairs L-BFGS keeps, the iterations after which a member is refused, the
# Armijo constant, and the step halvings one iteration may take.
SOLVE_MEMORY = 10
SOLVE_CAP = 500
_ARMIJO = 1e-4
_HALVINGS = 60
# `_objective` reads a member's rows in chunks of this many, so that its
# temporaries stay a few hundred kB a member however long the interval.
_CHUNK_ROWS = 2048


def _objective(X, y, w, bias, lam):
    """F and ∇F of each model of the (S, k, d) stack w: the mean softmax
    cross-entropy over its rows plus lam*||w[s] - bias[s]||_F^2, as (S,)
    values and an (S, k, d) gradient.

    X is (n, d), read by every model, or (S, n, d), one block per model,
    and y the rows' classes, (1, n) or (S, n). Rows are read in chunks of
    _CHUNK_ROWS, whose loss sums and gradient products are added in order.
    Scores are class-major, (S, k, rows), so that the class reductions run
    over whole rows of scores. Every operation gives each model's slice the
    bits it gets alone, so a model's values do not depend on the others in
    the stack: reductions run within a slice, and the products are a BLAS
    product per slice, except that where every model reads one (n, d) X and
    `_stacked_product` admits a chunk of c rows, its scores are one
    (S*k, d) @ (d, c) product and its gradient one (S*k, c) @ (c, d)
    product. At d = 784, k = 10 (28x28 images, ten classes) the rule admits
    the gradient of every chunk of 128 rows or more, and the scores of
    those whose row count is a multiple of 8; at d = 20, k = 3 it admits
    nothing.
    """
    S, k, d = w.shape
    n = X.shape[-2]
    loss, grad = np.zeros(S), np.zeros_like(w)
    for start in range(0, n, _CHUNK_ROWS):
        Xc, yc = X[..., start : start + _CHUNK_ROWS, :], y[:, start : start + _CHUNK_ROWS]
        c = Xc.shape[-2]
        true = yc * c + (np.arange(S) * (k * c))[:, None] + np.arange(c)  # in (S, k, c)
        if X.ndim == 2 and _stacked_product(k, c, d):
            scores = (w.reshape(S * k, d) @ Xc.T).reshape(S, k, c)
        else:
            scores = np.matmul(w, Xc.swapaxes(-1, -2))
        scores -= scores.max(axis=1, keepdims=True)
        shifted_true = scores.reshape(-1)[true]
        np.exp(scores, out=scores)
        total = scores.sum(axis=1, keepdims=True)
        scores /= total
        scores.reshape(-1)[true] -= 1.0
        loss += (np.log(total[:, 0]) - shifted_true).sum(axis=-1)
        if X.ndim == 2 and _stacked_product(k, d, c):
            grad += (scores.reshape(S * k, c) @ Xc).reshape(S, k, d)
        else:
            grad += np.matmul(scores, Xc)
    diff = w - bias
    f = loss / n + lam * _dot(diff, diff)
    return f, grad / n + 2.0 * lam * diff


def _dot(a, b):
    """Each member's inner product of two (S, ...) stacks, as (S,) values."""
    return np.einsum("ij,ij->i", a.reshape(len(a), -1), b.reshape(len(b), -1))


def solve(data: Dataset, bias, lam: float, tau, rows=None) -> np.ndarray:
    """Certified minimisers: the (S, k, d) weights of S members, each solved
    until the gradient norm of its objective is at most its tolerance.

    Member i minimises F_i(w), the mean softmax cross-entropy over rows[i]
    of data (all of data without rows) plus lam*||w - bias[i]||_F^2, and
    stops at the first iterate with ||∇F_i(w)||_2 <= tau[i]. F_i is
    2*lam-strongly convex, so that iterate lies within tau[i]/(2*lam) of
    F_i's minimiser, in L2. A member that does not get there within
    SOLVE_CAP iterations, whose line search finds no step, or whose
    gradient is not finite raises CertificateError naming its position: it
    is refused, not released.

    The method is full-batch L-BFGS with SOLVE_MEMORY curvature pairs: the
    initial inverse Hessian is 1/(2*lam) times the identity until the first
    pair, then the usual s.y/y.y scaling, and a backtracking line search
    from step 1 halves the step until the Armijo condition holds or the
    trial is certified. Each member starts at its bias and keeps its own
    step sizes and curvature pairs; a pair without positive curvature is
    kept with weight 0. The members run in lockstep, and a certified member
    leaves the stack, whose arrays shrink to the members left.

    rows holds one row set per member, a range or an array of row indices,
    all of one size. Members whose rows are one and the same range read one
    view of data.X, and their products are one product for the stack where
    `_stacked_product` admits the shapes (see `_objective`); otherwise each
    member's rows are gathered into a block of its own. Either way every
    operation gives each member's slice the bits it gets alone, so a
    member's weights do not depend on the other members of its stack:
    solved alone, it gets the same bits.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ErmError(f"lambda must be > 0 and finite, got {lam}")
    k, d = data.k, data.d
    bias = np.asarray(bias, dtype=np.float64)
    S = len(bias)
    if bias.shape != (S, k, d):
        raise ErmError(f"bias shape {bias.shape} is not (S, {k}, {d})")
    tau = np.broadcast_to(np.asarray(tau, dtype=np.float64), (S,))
    if not (np.isfinite(tau) & (tau > 0)).all():
        raise ErmError("tolerances must be positive and finite")
    if rows is None:
        rows = [range(data.n)] * S
    elif len(rows) != S:
        raise ErmError("need one row set per member")
    r0 = rows[0]
    if len(r0) == 0 or any(len(r) != len(r0) for r in rows):
        raise ErmError("the members of a stack need equal, non-empty row sets")
    if isinstance(r0, range) and r0.step == 1 and all(
            isinstance(r, range) and r == r0 for r in rows):
        if r0.start < 0 or r0.stop > data.n:
            raise ErmError(f"training rows must lie in [0, {data.n})")
        X, y = data.X[r0.start : r0.stop], data.y[None, r0.start : r0.stop]
    else:
        idx = np.array([np.asarray(r) for r in rows], dtype=np.int64)
        if idx.min() < 0 or idx.max() >= data.n:
            raise ErmError(f"training rows must lie in [0, {data.n})")
        X, y = data.X[idx], data.y[idx]
    out = np.empty_like(bias)
    at = np.arange(S)  # each member's position in the stack
    w = bias.copy()
    f, g = _objective(X, y, w, bias, lam)
    pairs = []  # (s, y, 1/s.y) of the last SOLVE_MEMORY steps, oldest first
    gamma = np.full(S, 0.5 / lam)
    for it in itertools.count():
        norm = np.sqrt(_dot(g, g))
        done = norm <= tau
        bad = ~done if it == SOLVE_CAP else ~np.isfinite(norm)
        if bad.any():
            j = int(np.argmax(bad))
            raise CertificateError(it, float(norm[j]), int(at[j]))
        if done.any():
            out[at[done]] = w[done]
            keep = ~done
            if not keep.any():
                return out
            at, w, f, g, norm = at[keep], w[keep], f[keep], g[keep], norm[keep]
            bias, tau, gamma = bias[keep], tau[keep], gamma[keep]
            pairs = [(ps[keep], py[keep], rho[keep]) for ps, py, rho in pairs]
            if X.ndim == 3:
                X, y = X[keep], y[keep]
        # the two-loop recursion over the stored pairs, newest first
        q, alpha = -g.reshape(len(g), -1), []
        for ps, py, rho in reversed(pairs):
            alpha.append(rho * _dot(ps, q))
            q = q - alpha[-1][:, None] * py
        q = gamma[:, None] * q
        for (ps, py, rho), a in zip(pairs, reversed(alpha)):
            q = q + (a - rho * _dot(py, q))[:, None] * ps
        p = q.reshape(g.shape)
        slope = _dot(g, p)
        # backtracking: the pending members' trials are evaluated together
        step = np.ones(len(w))
        w_new, f_new, g_new = np.empty_like(w), np.empty_like(f), np.empty_like(g)
        pending = np.arange(len(w))
        for _ in range(_HALVINGS):
            whole = len(pending) == len(w)
            trial = w[pending] + step[pending, None, None] * p[pending]
            ft, gt = _objective(X if X.ndim == 2 or whole else X[pending],
                                y if len(y) == 1 or whole else y[pending],
                                trial, bias[pending], lam)
            ok = ((ft <= f[pending] + _ARMIJO * step[pending] * slope[pending])
                  | (np.sqrt(_dot(gt, gt)) <= tau[pending]))
            took = pending[ok]
            w_new[took], f_new[took], g_new[took] = trial[ok], ft[ok], gt[ok]
            pending = pending[~ok]
            if not len(pending):
                break
            step[pending] *= 0.5
        else:
            j = int(pending[0])
            raise CertificateError(it, float(norm[j]), int(at[j]))
        ps, py = (w_new - w).reshape(len(w), -1), (g_new - g).reshape(len(w), -1)
        sy = _dot(ps, py)
        curved = sy > 0
        rho = np.divide(1.0, sy, out=np.zeros_like(sy), where=curved)
        pairs = (pairs + [(ps, py, rho)])[-SOLVE_MEMORY:]
        gamma = np.divide(sy, _dot(py, py), out=gamma, where=curved)
        w, f, g = w_new, f_new, g_new


def lipschitz_public(k: int, m: int, norm_cap: float = 1.0) -> float:
    """Data-independent bound (k-1)/(2mk) * c * sqrt(m) under per-row norm <= c."""
    if m <= 0:
        raise ErmError("m must be positive")
    if norm_cap <= 0:
        raise ErmError("norm cap must be positive")
    if k <= 1:
        return 0.0
    return (k - 1) / (2.0 * m * k) * norm_cap * math.sqrt(m)


# One (n, d) @ (d, R*k) product scores R models at once, and gives each
# model's columns the bits of that model's own (n, d) @ (d, k) product for
# the shapes `_one_product` admits (tests/test_erm.py checks them). Outside
# them, OpenBLAS 0.3 picks other kernels for the two products (a gemv for one
# row, small-matrix kernels at larger d, another block past 192 columns),
# and the bits can differ.
_ONE_PRODUCT_COLUMNS = 192
_ONE_PRODUCT_MAX_D = 31


def _one_product(n: int, d: int, columns: int) -> bool:
    return n > 1 and d <= _ONE_PRODUCT_MAX_D and columns <= _ONE_PRODUCT_COLUMNS


# One (S*k, K) @ (K, N) product of S stacked models gives each model's k rows
# the bits of that model's own (k, K) @ (K, N) product for the shapes
# `_stacked_product` admits (tests/test_erm.py checks them, up to S*k = 400).
# Outside them the bits can differ: OpenBLAS 0.3 takes its small-matrix
# kernels for the model's own product up to M*N*K = 10**6 (M = k), and past
# that the two products often differed where N was not a multiple of 8.
_STACKED_PRODUCT_MIN_MNK = 10**6
_STACKED_PRODUCT_N_STEP = 8


def _stacked_product(k: int, n: int, inner: int) -> bool:
    return k * n * inner > _STACKED_PRODUCT_MIN_MNK and n % _STACKED_PRODUCT_N_STEP == 0


def _first_max(planes: np.ndarray) -> np.ndarray:
    """np.argmax(planes, axis=0) over k class planes: the first class of
    highest score, so ties go to the lowest class.

    The planes are compared whole, which costs k passes over contiguous
    arrays where np.argmax over a short last axis costs a call per row. A
    class beats the best so far only when it is strictly higher, and the
    last class to do so is the first maximum. np.maximum carries a NaN into
    the running best, and a NaN anywhere falls back on np.argmax, which
    takes the first NaN as the maximum.
    """
    planes = np.ascontiguousarray(planes)
    best = planes[0].copy()
    pred = np.zeros(best.shape, dtype=np.min_scalar_type(len(planes) - 1))
    higher = np.empty(best.shape, dtype=bool)
    for c in range(1, len(planes)):
        np.greater(planes[c], best, out=higher)
        np.maximum(best, planes[c], out=best)
        np.maximum(pred, higher * pred.dtype.type(c), out=pred)
    if np.isnan(best).any():
        return np.argmax(planes, axis=0)
    return pred


def evaluate_accuracy(w, data: Dataset, per_model: bool = False) -> np.ndarray:
    """Fraction of correct argmax predictions of each of the (R, k, d)
    weights w, as R accuracies; ties go to the lowest class.

    Each model is scored on all of data or, with per_model, model r on the
    r-th of R equal runs of consecutive rows. Scores on all of data come
    from one X @ w.reshape(R*k, d).T product where `_one_product` admits its
    shape, and from one product per model otherwise and with per_model;
    either way each model gets the bits of its own (rows, d) @ (d, k)
    product. The prediction is the first maximum over the class planes
    (`_first_max`), and an accuracy is an exact hit count over the row
    count, so each model gets the value it gets alone, bit for bit.
    """
    if data.n == 0:
        raise ErmError("cannot evaluate on an empty dataset")
    w = np.asarray(w)
    _check_dims(w, data, 3)
    R, k, d = w.shape
    X, y = data.X, data.y
    if per_model:
        if data.n % R:
            raise ErmError(f"{data.n} rows do not split into {R} equal runs")
        X, y = X.reshape(R, -1, d), y.reshape(R, -1)
    if not per_model and _one_product(data.n, d, R * k):
        planes = (X @ w.reshape(R * k, d).T).reshape(-1, R, k).transpose(2, 1, 0)
    else:
        planes = (X @ w.swapaxes(-1, -2)).transpose(2, 0, 1)  # (k, R, rows)
    return np.count_nonzero(_first_max(planes) == y, axis=-1) / y.shape[-1]


def clip_l1(data: Dataset) -> Dataset:
    """Scale each example so that its L1 norm is at most 1."""
    norms = np.abs(data.X).sum(axis=1)
    scale = np.where(norms > 1.0, norms, 1.0)
    return Dataset(data.X / scale[:, None], data.y, data.k, data.classes)
