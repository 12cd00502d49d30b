"""Non-private convex ERM machinery.

Multiclass logistic (softmax cross-entropy) loss, exact gradients, SGD with a
1/(gamma*i) step schedule, biased L2 regularization toward a reference model,
and Lipschitz-constant computation for DP noise calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream_keys


class ErmError(ValueError):
    """Raised for dimension mismatches, empty data and invalid configs."""


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite weights.

    `member` is the position, in a lockstep stack, of the first seed whose
    weights are non-finite; `where` names what that member was training.
    """

    def __init__(self, iteration: int, member: int = 0, where: str | None = None):
        at = f" in {where}" if where else ""
        super().__init__(f"non-finite weights at iteration {iteration}{at}")
        self.iteration = iteration
        self.member = member
        self.where = where

    def __reduce__(self):
        # rebuilt from its fields, not from its message, so that it survives
        # the pipe from a lane process
        return type(self), (self.iteration, self.member, self.where)


@dataclass(frozen=True)
class Dataset:
    """Ordered labeled examples with shared dimension d and class count k.

    X has shape (n, d), y has shape (n,) with integer labels in [0, k).
    """

    X: np.ndarray
    y: np.ndarray
    k: int

    def __post_init__(self):
        # C order: SGD gathers minibatch rows with np.take, which copies a
        # non-contiguous source in full on every call
        X = np.ascontiguousarray(self.X, dtype=np.float64)
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
class ModelWeights:
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2:
            raise ErmError(f"weights must be a k x d matrix, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ErmError("weights contain non-finite entries")
        object.__setattr__(self, "w", w)

    @classmethod
    def checked_stack(cls, stack: np.ndarray) -> list["ModelWeights"]:
        """One model per slice of an (S, k, d) float64 stack.

        The stack is checked once, as a whole, instead of slice by slice.
        """
        if not np.isfinite(stack).all():
            raise ErmError("weights contain non-finite entries")
        models = []
        for w in stack:
            model = object.__new__(cls)
            object.__setattr__(model, "w", w)
            models.append(model)
        return models


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
    if w.shape[-2:] != (data.k, data.d):
        raise ErmError(f"weight shape {w.shape} does not match (k={data.k}, d={data.d})")


def loss_and_gradient(
    w: ModelWeights, batch: Dataset, reg: RegularizerSpec
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy plus lam*||w - w_g||_F^2 and its gradient."""
    if batch.n == 0:
        raise ErmError("empty batch")
    _check_dims(w.w, batch)
    wg = reg.bias_matrix(batch.k, batch.d)
    scores = batch.X @ w.w.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    probs = exp / total[:, None]
    log_probs = shifted - np.log(total)[:, None]
    n = batch.n
    data_loss = -log_probs[np.arange(n), batch.y].mean()
    diff = w.w - wg
    loss = data_loss + reg.lam * float(np.sum(diff * diff))
    probs[np.arange(n), batch.y] -= 1.0
    grad = (probs.T @ batch.X) / n + 2.0 * reg.lam * diff
    return float(loss), grad


# Indices are drawn ahead in blocks of about this many bytes. A block large
# enough to move glibc's dynamic mmap threshold would leave later allocations
# of a few MB (such as a CSV load) resident, raising the peak RSS.
_INDEX_BLOCK_BYTES = 1 << 18


def _minibatch_indices(seeds, rows, total, m, data: Dataset):
    """Yield each iteration's (S, m) row indices into data, with the flat
    position of each drawn row's true class in an (S, m, k) array.

    Seed s draws from its own "sgd" stream over its len(rows[s]) rows and
    maps the draws through rows[s]: a range adds its start, an index array
    is indexed. The streams are `make_rng(seed, "sgd")`'s, keyed by one
    `rng.stream_keys` call for all seeds. One Philox generator draws them
    all: it is re-keyed to a seed's stream before that seed's draws and its
    state kept for the seed's next block, which gives what a generator per
    seed would at a quarter of the cost of building one. A seed of one row
    draws nothing, as numpy's integers(0, 1) draws nothing: its indices are
    that row. Each stream is drawn in blocks of iterations, which gives the
    values of one (total, m) draw, or of one size-m draw per iteration; a
    block's indices and positions together take about _INDEX_BLOCK_BYTES. A
    block holding an index outside [0, n) raises ErmError, so that the
    gather, which clips, never reads a row the rows do not name.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    zero = np.zeros(4, dtype=np.uint64)
    states = {s: {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
                  "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
              for s, key in enumerate(stream_keys(seeds, "sgd")) if len(rows[s]) > 1}
    single = [s for s in range(len(seeds)) if s not in states]
    single_rows = np.array([rows[s][0] for s in single], dtype=np.int64)[:, None]
    row_start = np.arange(len(seeds) * m).reshape(len(seeds), m) * data.k
    block = max(1, _INDEX_BLOCK_BYTES // (16 * len(seeds) * m))
    for start in range(0, total, block):
        count = min(block, total - start)
        idx = np.empty((count, len(seeds), m), dtype=np.int64)
        idx[:, single] = single_rows
        for s, state in states.items():
            r = rows[s]
            bitgen.state = state
            draws = gen.integers(0, len(r), size=(count, m))
            if start + count < total:
                states[s] = bitgen.state
            idx[:, s] = draws + r.start if isinstance(r, range) else r[draws]
        if idx.min() < 0 or idx.max() >= data.n:
            raise ErmError(f"training rows must lie in [0, {data.n})")
        yield from zip(idx, row_start + data.y[idx])


def sgd_train(data: Dataset, reg, cfg: TrainConfig, seeds=None, rows=None):
    """SGD with step size 1/(gamma*i), deterministic in the seed.

    The quadratic penalty is applied as a proximal (implicit) step each
    iteration, which stays stable for arbitrarily large lam; the data term
    uses the plain stochastic gradient. Initialized at the regularizer bias.

    With seeds=None this trains seed cfg.seed on all of data against reg and
    returns its ModelWeights. Given a sequence of seeds, it trains them in
    lockstep as one (S, k, d) weight stack and returns one ModelWeights per
    seed. reg is then one RegularizerSpec for every seed or a sequence with
    one per seed (all with the same lam), and rows, if given, holds each
    seed's rows of data: a range for a contiguous interval, or an array of
    row indices; a drawn row outside data raises ErmError. Each seed draws
    its minibatch indices ahead from its own "sgd" stream (the values
    per-iteration draws would give), and every step applies the same
    floating-point operations to each slice of the stack, so a seed's
    weights do not depend on the other seeds. All seeds must share the
    minibatch size min(minibatch, n_i).

    A step works class-major, on (S, k, m) scores in buffers allocated once
    per call, yet performs the operations of a plain per-seed loop on
    (m, k) scores in that loop's order, so the weights match it bit for bit.
    """
    single = seeds is None
    if single:
        seeds, reg = (cfg.seed,), (reg,)
    elif isinstance(reg, RegularizerSpec):
        reg = (reg,) * len(seeds)
    if len(reg) != len(seeds) or (rows is not None and len(rows) != len(seeds)):
        raise ErmError("need one regularizer and one row set per seed")
    if len({r.lam for r in reg}) != 1:
        raise ErmError("seeds trained in lockstep must share lambda")
    if rows is None:
        rows = [range(data.n)] * len(seeds)
    sizes = [len(r) for r in rows]
    if min(sizes) == 0:
        raise ErmError("empty training set")
    m = min(cfg.minibatch, sizes[0])
    if any(min(cfg.minibatch, n) != m for n in sizes):
        raise ErmError("seeds trained in lockstep must share the minibatch size")
    batches = _minibatch_indices(seeds, rows, cfg.iterations * cfg.passes, m, data)
    S, k, d = len(seeds), data.k, data.d
    lam = reg[0].lam
    wg = np.stack([r.bias_matrix(k, d) for r in reg])
    w = wg.copy()
    # Every step writes into these, so that a step allocates no temporaries.
    Xb = np.empty((S, m, d))
    Xb_t = Xb.swapaxes(-1, -2)
    scores = np.empty((S, k, m))  # class-major: the class reductions run along m
    top, total = np.empty((S, 1, m)), np.empty((S, 1, m))
    # The softmax is written through the transposed view of an (S, m, k)
    # array: the gradient product gives the reference loop's bits only with
    # that operand, not with a contiguous (S, k, m) one.
    probs = np.empty((S, m, k))
    probs_t, probs_flat = probs.swapaxes(-1, -2), probs.reshape(-1)
    g, pull = np.empty_like(w), np.empty_like(w)
    finite = np.empty(w.shape, dtype=bool)
    for i, (idx, true_class) in enumerate(batches, start=1):
        # the indices are checked, and "raise" would gather through a temporary
        np.take(data.X, idx, axis=0, out=Xb, mode="clip")
        np.matmul(w, Xb_t, out=scores)
        np.maximum.reduce(scores, axis=1, out=top, keepdims=True)
        np.subtract(scores, top, out=scores)
        np.exp(scores, out=scores)
        if k < 8:
            # numpy sums fewer than 8 contiguous values in order, as this does
            np.add.reduce(scores, axis=1, out=total, keepdims=True)
            np.divide(scores, total, out=probs_t)
        else:
            # and more pairwise, so they are summed where the loop sums them
            probs_t[...] = scores
            np.add.reduce(probs, axis=2, out=total[:, 0])
            np.divide(probs_t, total, out=probs_t)
        probs_flat[true_class] -= 1.0
        np.matmul(probs_t, Xb, out=g)
        eta = 1.0 / (cfg.gamma * i)
        # the loop's w = (w - eta * (g / m) + 2 * eta * lam * wg) / (1 + 2 * eta * lam)
        np.divide(g, m, out=g)
        np.multiply(eta, g, out=g)
        np.subtract(w, g, out=w)
        np.multiply(2.0 * eta * lam, wg, out=pull)
        np.add(w, pull, out=w)
        np.divide(w, 1.0 + 2.0 * eta * lam, out=w)
        if not np.isfinite(w, out=finite).all():
            raise DivergenceError(i, int(np.argmin(finite.all(axis=(1, 2)))))
    models = ModelWeights.checked_stack(w)
    return models[0] if single else models


def biased_erm_minimize(data: Dataset, bias, lam: float, cfg: TrainConfig, seeds, rows=None):
    """`sgd_train` of seed i from bias[i], minimizing data loss + lam*||w - bias[i]||^2."""
    return sgd_train(data, [RegularizerSpec(lam, b) for b in bias], cfg, seeds, rows)


def lipschitz_public(k: int, m: int, norm_cap: float = 1.0) -> float:
    """Data-independent bound (k-1)/(2mk) * c * sqrt(m) under per-row norm <= c."""
    if m <= 0:
        raise ErmError("m must be positive")
    if norm_cap <= 0:
        raise ErmError("norm cap must be positive")
    if k <= 1:
        return 0.0
    return (k - 1) / (2.0 * m * k) * norm_cap * math.sqrt(m)


def evaluate_accuracy(w, data: Dataset, per_model: bool = False):
    """Fraction of correct argmax predictions; ties go to the lowest class.

    w is one ModelWeights, giving a float, or an (R, k, d) weight stack,
    giving R accuracies: each model scored on all of data or, with
    per_model, model r on the r-th of R equal runs of consecutive rows.
    Model r's scores come from its own (rows, d) @ (d, k) product, and an
    accuracy is an exact hit count over the row count, so each model gets
    the value it gets alone, bit for bit.
    """
    if data.n == 0:
        raise ErmError("cannot evaluate on an empty dataset")
    single = isinstance(w, ModelWeights)
    w = w.w if single else np.asarray(w)
    _check_dims(w, data)
    X, y = data.X, data.y
    if per_model:
        if data.n % len(w):
            raise ErmError(f"{data.n} rows do not split into {len(w)} equal runs")
        X, y = X.reshape(len(w), -1, data.d), y.reshape(len(w), -1)
    hits = np.count_nonzero(np.argmax(X @ w.swapaxes(-1, -2), axis=-1) == y, axis=-1)
    acc = hits / y.shape[-1]
    return float(acc) if single else acc


def clip_l1(data: Dataset) -> Dataset:
    """Scale each example so that its L1 norm is at most 1."""
    norms = np.abs(data.X).sum(axis=1)
    scale = np.where(norms > 1.0, norms, 1.0)
    return Dataset(data.X / scale[:, None], data.y, data.k)
