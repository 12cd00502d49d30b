"""Non-private convex ERM machinery.

Multiclass logistic (softmax cross-entropy) loss, exact gradients, SGD with a
1/(gamma*i) step schedule, biased L2 regularization toward a reference model,
and Lipschitz-constant computation for DP noise calibration. A model is a
(k, d) float64 weight array, and training and scoring take S models as one
(S, k, d) stack.
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
    classes, where a loader read the labels from a file, holds the label
    value that each class index stands for, in increasing order; None means
    the indices are the values.
    """

    X: np.ndarray
    y: np.ndarray
    k: int
    classes: np.ndarray | None = None

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


def sgd_train(data: Dataset, bias, cfg: TrainConfig, lam: float, seeds,
              rows=None) -> np.ndarray:
    """SGD with step size 1/(gamma*i), deterministic in the seed: the
    trained (S, k, d) weights of S seeds, trained in lockstep as one stack.

    Seed i starts at bias[i] of the (S, k, d) bias array and minimizes the
    data loss plus lam*||w - bias[i]||_F^2 over rows[i] of data, if given:
    a range for a contiguous interval, or an array of row indices, all of
    data without; a drawn row outside data raises ErmError. The quadratic
    penalty is applied as a proximal (implicit) step each iteration, which
    stays stable for arbitrarily large lam; the data term uses the plain
    stochastic gradient. Each seed draws its minibatch indices ahead from
    its own "sgd" stream (the values per-iteration draws would give), and
    every step applies the same floating-point operations to each slice of
    the stack, so a seed's weights do not depend on the other seeds. All
    seeds must share the minibatch size min(minibatch, n_i).

    A step works class-major, on (S, k, m) scores in buffers allocated once
    per call, yet performs the operations of a plain per-seed loop on
    (m, k) scores in that loop's order, so the weights match it bit for bit.
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
    sizes = [len(r) for r in rows]
    if min(sizes) == 0:
        raise ErmError("empty training set")
    m = min(cfg.minibatch, sizes[0])
    if any(min(cfg.minibatch, n) != m for n in sizes):
        raise ErmError("seeds trained in lockstep must share the minibatch size")
    batches = _minibatch_indices(seeds, rows, cfg.iterations * cfg.passes, m, data)
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
    return w  # every step checked it finite


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
