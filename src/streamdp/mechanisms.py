"""Randomized privacy layer.

Laplace noise via inverse-CDF sampling from a counter-based generator, output
perturbation of trained weights, the Laplace scale of one release (one formula
for every schedule, derived in `laplace_scale`), and independent-inclusion
subsampling for amplification.

Noise is drawn per stack: `pberm` trains an (S, k, d) stack of models in
lockstep and `output_perturb` perturbs it with one `laplace_noise` draw from
the members' scales and noise seeds, whose uniforms for every member come
from a few array operations (`rng.philox_random`) rather than one generator
per member, with the values those generators would give. A stack stays
arrays throughout: weights in, noisy weights and noise norms out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .erm import Dataset, ErmError, ModelWeights, TrainConfig, biased_erm_minimize
from .rng import make_rng, philox_random, stream_keys


class MechanismError(ValueError):
    """Invalid noise or sampling parameters."""


@dataclass(frozen=True)
class NoiseSpec:
    scale: float
    dims: tuple[int, int]
    seed: int

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise MechanismError(f"Laplace scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class PerturbedModel:
    weights: ModelWeights
    noise_l1: float
    noise_l2: float
    spec: NoiseSpec | None


def sampling_probability(rule: str, level: int, eps: float) -> float:
    """Inclusion probability that makes subsampled release level-equivalent."""
    if rule == "exp_formula":
        p = math.expm1(eps / (2.0 * 2**level)) / math.expm1(eps / 2.0)
    elif rule == "reciprocal":
        p = 1.0 / 2**level
    else:
        raise MechanismError(f"unknown sampling rule {rule!r}")
    if not 0.0 < p <= 1.0:
        raise MechanismError(f"inclusion probability {p} outside (0, 1]")
    return p


def laplace_stack(specs) -> np.ndarray:
    """I.i.d. Laplace(0, spec.scale) noise for each of S specs of equal dims,
    as one (S, *dims) array, by inverse CDF (`laplace_noise`)."""
    dims = specs[0].dims
    if any(s.dims != dims for s in specs):
        raise MechanismError("a noise stack needs equal dims")
    return laplace_noise([s.scale for s in specs], [s.seed for s in specs], dims)


def laplace_noise(scales, seeds, dims) -> np.ndarray:
    """I.i.d. Laplace(0, scales[i]) noise from seed seeds[i] for each i, as
    one (S, *dims) array, by inverse CDF: the noise of
    NoiseSpec(scales[i], dims, seeds[i]).

    Member i's uniforms are `make_rng(seeds[i], "laplace").random(dims)`,
    computed for the whole stack at once (`rng.stream_keys` and
    `rng.philox_random`), so the noise is a deterministic function of the
    scale and the seed alone.
    """
    keys = stream_keys(seeds, "laplace")
    v = philox_random(keys, math.prod(dims)).reshape(len(keys), *dims) - 0.5
    # |v| = 0.5 exactly (u == 0.0) would map to -inf; nudge into the support.
    mag = np.maximum(1.0 - 2.0 * np.abs(v), np.finfo(np.float64).tiny)
    scale = -np.asarray(scales, dtype=np.float64).reshape(-1, *(1,) * len(dims))
    return scale * np.sign(v) * np.log(mag)


def laplace_vector(spec: NoiseSpec) -> np.ndarray:
    """I.i.d. Laplace(0, scale) matrix via inverse CDF; deterministic per seed."""
    return laplace_stack([spec])[0]


def laplace_scale(L, lam, n: int, charge, sampled_level: int | None = None) -> float:
    """Laplace scale of one release: 2L / (lam * n * eps).

    A release perturbs the minimiser of an L-Lipschitz loss averaged over its
    n points plus a lam-strongly-convex penalty. Replacing one of the n
    points moves that minimiser by at most 2L/(lam*n) (Chaudhuri, Monteleoni
    & Sarwate 2011), so Laplace noise of scale 2L/(lam*n*eps) makes the
    release eps-DP. That bound is for the exact minimiser and in L2; the
    calibration takes it as the L1 sensitivity of the trained weights, and
    this function is the one place to change if that is revised.

    eps is what the release itself spends. Unsampled, that is its ledger
    charge. A sampled release at level j keeps each point with the
    probability `sampling_probability` gives, which amplifies an eps of
    charge * 2^j down to the charge (Balle, Barthe & Gaboardi 2018), so it
    spends charge * 2^j: half the schedule's eps under exp_formula, a sixth
    under reciprocal.
    """
    for name, v in (("L", L), ("lam", lam), ("charge", charge)):
        if v is None or v <= 0:
            raise MechanismError(f"parameter {name} must be positive, got {v}")
    if n < 1:
        raise MechanismError(f"a release needs at least one point, got n={n}")
    eps = charge if sampled_level is None else charge * 2**sampled_level
    return 2.0 * L / (lam * n * float(eps))


def output_perturb(w, spec, seeds=None):
    """Add Laplace noise to the weights, recording the noise norms.

    w and spec are one model and its NoiseSpec, giving one PerturbedModel;
    a spec of None releases the model unperturbed. Given seeds, w is an
    (S, k, d) weight stack and spec its S Laplace scales: member i gets the
    noise of NoiseSpec(spec[i], (k, d), seeds[i]), or none where spec[i] is
    0, and the result is the noisy (S, k, d) stack with the (S,) noise_l1
    and noise_l2 arrays. The noise of a stack is one `laplace_noise` draw,
    checked for finiteness once.
    """
    if seeds is None:
        if spec is None:
            return PerturbedModel(w, 0.0, 0.0, None)
        if w.w.shape != spec.dims:
            raise MechanismError(f"weight shape {w.w.shape} does not match noise dims {spec.dims}")
        noisy, l1, l2 = output_perturb(w.w[None], [spec.scale], [spec.seed])
        return PerturbedModel(ModelWeights(noisy[0]), float(l1[0]), float(l2[0]), spec)
    w, scales = np.asarray(w), np.asarray(spec, dtype=np.float64)
    bad = ~(np.isfinite(scales) & (scales >= 0))
    if bad.any():
        raise MechanismError(
            f"Laplace scale must be positive and finite, got {scales[bad][0]}")
    l1, l2 = np.zeros(len(w)), np.zeros(len(w))
    noisy = np.flatnonzero(scales)
    if not len(noisy):
        return w, l1, l2
    nu = laplace_noise(scales[noisy], np.asarray(seeds)[noisy], w.shape[1:])
    if len(noisy) == len(w):
        out = w + nu
    else:
        out = w.copy()
        out[noisy] += nu
    if not np.isfinite(out).all():
        raise ErmError("weights contain non-finite entries")
    nu = nu.reshape(len(noisy), -1)
    l1[noisy] = np.abs(nu).sum(axis=1)
    # the L2 norm as np.linalg.norm takes it: one BLAS dot per model
    l2[noisy] = np.sqrt([row.dot(row) for row in nu])
    return out, l1, l2


def pberm(
    bias,
    data: Dataset,
    lam: float,
    cfg: TrainConfig,
    scale: float,
    noise_seed=None,
    seeds=None,
    rows=None,
):
    """Private biased regularized ERM: fine-tune toward bias, then perturb.

    Minimizes the data loss plus lam*||w - bias||^2 from bias and adds
    Laplace(scale) noise, the scale the caller's schedule calibrated;
    scale=0 is the explicit non-private escape hatch and releases the model
    unperturbed, and a negative scale is rejected. A zero bias model trains
    toward 0. With seeds=None one ModelWeights bias trains with cfg.seed and
    gets noise from noise_seed (default cfg.seed): one PerturbedModel.

    Given seeds, a stack trains in lockstep: bias is an (S, k, d) array,
    seed i trains from bias[i] (on rows[i] of data, if given) and gets
    Laplace(scale[i]) noise from noise_seed[i]. The result is the noisy
    (S, k, d) weights with the (S,) noise_l1 and noise_l2 arrays
    (`output_perturb`).
    """
    if seeds is None:
        noise_seed = cfg.seed if noise_seed is None else noise_seed
        w, l1, l2 = pberm(bias.w[None], data, lam, cfg, [scale], [noise_seed], [cfg.seed])
        return PerturbedModel(ModelWeights(w[0]), float(l1[0]), float(l2[0]),
                              NoiseSpec(scale, bias.w.shape, noise_seed) if scale else None)
    return output_perturb(biased_erm_minimize(data, bias, lam, cfg, seeds, rows), scale,
                          noise_seed)


def subsample(n: int, p: float, seed: int) -> np.ndarray:
    """Keep each of n rows independently with probability p.

    Returns the indices of the kept rows, in increasing order: all rows when
    p is 1, none when n is 0.
    """
    if n == 0 or p >= 1.0:
        return np.arange(n)
    rng = make_rng(seed, "subsample")
    return np.flatnonzero(rng.random(n) < p)
