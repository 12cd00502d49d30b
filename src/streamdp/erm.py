"""Non-private convex ERM machinery.

Multiclass logistic (softmax cross-entropy) loss, exact gradients, SGD with a
1/(gamma*i) step schedule, biased L2 regularization toward a reference model,
and Lipschitz-constant computation for DP noise calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .rng import make_rng


class ErmError(ValueError):
    """Raised for dimension mismatches, empty data and invalid configs."""


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite weights."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite weights at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class Dataset:
    """Ordered labeled examples with shared dimension d and class count k.

    X has shape (n, d), y has shape (n,) with integer labels in [0, k).
    """

    X: np.ndarray
    y: np.ndarray
    k: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise ErmError(f"features must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ErmError(f"label shape {y.shape} does not match {X.shape[0]} examples")
        if len(y) and (y.min() < 0 or y.max() >= self.k):
            raise ErmError(f"labels must lie in [0, {self.k})")
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
        return Dataset(self.X[a : b + 1], self.y[a : b + 1], self.k)

    def take(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.X[mask], self.y[mask], self.k)


@dataclass(frozen=True)
class ModelMeta:
    """Provenance: training interval, regularizer lineage, noise applied."""

    interval: tuple[int, int] | None = None
    reg_source: int | None = None
    noise_scale: float | None = None
    model_id: int | None = None


@dataclass(frozen=True)
class ModelWeights:
    w: np.ndarray
    meta: ModelMeta = field(default_factory=ModelMeta)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2:
            raise ErmError(f"weights must be a k x d matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ErmError("weights contain non-finite entries")
        if self.meta.interval is not None and self.meta.interval[0] > self.meta.interval[1]:
            raise ErmError(f"malformed interval {self.meta.interval}")
        object.__setattr__(self, "w", w)

    def with_meta(self, **kw) -> "ModelWeights":
        return ModelWeights(self.w, replace(self.meta, **kw))


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 10.0
    iterations: int = 500
    minibatch: int = 256
    passes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ErmError("gamma must be > 0")
        if self.iterations < 1:
            raise ErmError("iterations must be >= 1")
        if self.minibatch < 1 or self.passes < 1:
            raise ErmError("minibatch and passes must be >= 1")


@dataclass(frozen=True)
class RegularizerSpec:
    """L2 penalty lam * ||w - bias||_F^2; bias=None regularizes toward 0."""

    lam: float
    bias: ModelWeights | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ErmError("lambda must be > 0")

    def bias_matrix(self, k: int, d: int) -> np.ndarray:
        if self.bias is None:
            return np.zeros((k, d))
        wg = self.bias.w
        if wg.shape != (k, d):
            raise ErmError(f"bias shape {wg.shape} does not match ({k}, {d})")
        return wg


def _check_dims(w: np.ndarray, data: Dataset):
    if w.shape != (data.k, data.d):
        raise ErmError(f"weight shape {w.shape} does not match (k={data.k}, d={data.d})")


def _softmax_terms(w: np.ndarray, X: np.ndarray):
    """Max-shifted scores X @ w.T, each row's sum of exponentials, and the softmax."""
    scores = X @ w.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    return shifted, total, exp / total[:, None]


def loss_and_gradient(
    w: ModelWeights, batch: Dataset, reg: RegularizerSpec
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy plus lam*||w - w_g||_F^2 and its gradient."""
    if batch.n == 0:
        raise ErmError("empty batch")
    _check_dims(w.w, batch)
    wg = reg.bias_matrix(batch.k, batch.d)
    shifted, total, probs = _softmax_terms(w.w, batch.X)
    log_probs = shifted - np.log(total)[:, None]
    n = batch.n
    data_loss = -log_probs[np.arange(n), batch.y].mean()
    diff = w.w - wg
    loss = data_loss + reg.lam * float(np.sum(diff * diff))
    resid = probs
    resid[np.arange(n), batch.y] -= 1.0
    grad = (resid.T @ batch.X) / n + 2.0 * reg.lam * diff
    return float(loss), grad


def sgd_train(data: Dataset, reg: RegularizerSpec, cfg: TrainConfig) -> ModelWeights:
    """SGD with step size 1/(gamma*i), deterministic in cfg.seed.

    The quadratic penalty is applied as a proximal (implicit) step each
    iteration, which stays stable for arbitrarily large lam; the data term
    uses the plain stochastic gradient. Initialized at the regularizer bias.
    """
    if data.n == 0:
        raise ErmError("empty training set")
    wg = reg.bias_matrix(data.k, data.d)
    w = wg.copy()
    rng = make_rng(cfg.seed, "sgd")
    total = cfg.iterations * cfg.passes
    for i in range(1, total + 1):
        idx = rng.integers(0, data.n, size=min(cfg.minibatch, data.n))
        Xb, yb = data.X[idx], data.y[idx]
        _, _, probs = _softmax_terms(w, Xb)
        probs[np.arange(len(idx)), yb] -= 1.0
        g = (probs.T @ Xb) / len(idx)
        eta = 1.0 / (cfg.gamma * i)
        w = (w - eta * g + 2.0 * eta * reg.lam * wg) / (1.0 + 2.0 * eta * reg.lam)
        if not np.all(np.isfinite(w)):
            raise DivergenceError(i)
    return ModelWeights(w, ModelMeta(interval=None, reg_source=None, noise_scale=None))


def biased_erm_minimize(
    data: Dataset, bias: ModelWeights, lam: float, cfg: TrainConfig
) -> ModelWeights:
    """Minimize the data loss plus lam*||w - bias||^2, starting from bias."""
    out = sgd_train(data, RegularizerSpec(lam, bias), cfg)
    return out.with_meta(reg_source=bias.meta.model_id)


def lipschitz_data(data: Dataset) -> float:
    """Diagnostic L = (k-1)/(2mk) * ||X||_F computed from the data itself.

    Leaks information about the private data; use lipschitz_public for noise
    calibration.
    """
    if data.n == 0:
        raise ErmError("empty dataset")
    if data.k <= 1:
        return 0.0
    fro = float(np.linalg.norm(data.X))
    return (data.k - 1) / (2.0 * data.n * data.k) * fro


def lipschitz_public(k: int, m: int, norm_cap: float = 1.0) -> float:
    """Data-independent bound (k-1)/(2mk) * c * sqrt(m) under per-row norm <= c."""
    if m <= 0:
        raise ErmError("m must be positive")
    if norm_cap <= 0:
        raise ErmError("norm cap must be positive")
    if k <= 1:
        return 0.0
    return (k - 1) / (2.0 * m * k) * norm_cap * np.sqrt(m)


def evaluate_accuracy(w: ModelWeights, data: Dataset) -> float:
    """Fraction of correct argmax predictions; ties go to the lowest class."""
    if data.n == 0:
        raise ErmError("cannot evaluate on an empty dataset")
    _check_dims(w.w, data)
    pred = np.argmax(data.X @ w.w.T, axis=1)
    return float(np.mean(pred == data.y))


def clip_l1(data: Dataset) -> Dataset:
    """Scale each example so that its L1 norm is at most 1."""
    norms = np.abs(data.X).sum(axis=1)
    scale = np.where(norms > 1.0, norms, 1.0)
    return Dataset(data.X / scale[:, None], data.y, data.k)
