"""Randomized privacy layer.

Laplace noise via inverse-CDF sampling from a counter-based generator, output
perturbation of trained weights, the Laplace scale of one release (one formula
for every schedule, derived in `laplace_scale`), and independent-inclusion
subsampling for amplification.

Noise is drawn per stack: `pberm` trains a stack of models in lockstep and
`output_perturb` perturbs them with one `laplace_stack` draw, whose uniforms
for every member come from a few array operations (`rng.philox_random`)
rather than one generator per member, with the values those generators
would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .erm import Dataset, ModelWeights, TrainConfig, biased_erm_minimize
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
    as one (S, *dims) array, by inverse CDF.

    Spec i's uniforms are `make_rng(spec.seed, "laplace").random(dims)`,
    computed for the whole stack at once (`rng.stream_keys` and
    `rng.philox_random`), so the noise is a deterministic function of the
    spec alone.
    """
    dims = specs[0].dims
    if any(s.dims != dims for s in specs):
        raise MechanismError("a noise stack needs equal dims")
    keys = stream_keys([s.seed for s in specs], "laplace")
    v = philox_random(keys, math.prod(dims)).reshape(len(specs), *dims) - 0.5
    # |v| = 0.5 exactly (u == 0.0) would map to -inf; nudge into the support.
    mag = np.maximum(1.0 - 2.0 * np.abs(v), np.finfo(np.float64).tiny)
    scale = np.array([-s.scale for s in specs]).reshape(-1, *(1,) * len(dims))
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


def output_perturb(w, spec):
    """Add Laplace noise to the weights, recording the noise norms.

    w and spec are one model and its NoiseSpec, giving one PerturbedModel,
    or equal-length sequences of models of one shape and their specs,
    giving a list; a spec of None releases its model unperturbed. The noise
    of a sequence is one `laplace_stack` draw, checked for finiteness once.
    """
    if isinstance(w, ModelWeights):
        return output_perturb([w], [spec])[0]
    for model, s in zip(w, spec):
        if s is not None and model.w.shape != s.dims:
            raise MechanismError(
                f"weight shape {model.w.shape} does not match noise dims {s.dims}")
    out = [PerturbedModel(model, 0.0, 0.0, None) for model in w]
    noisy = [i for i, s in enumerate(spec) if s is not None]
    if not noisy:
        return out
    nu = laplace_stack([spec[i] for i in noisy])
    weights = ModelWeights.checked_stack(np.stack([w[i].w for i in noisy]) + nu)
    nu = nu.reshape(len(noisy), -1)
    l1 = np.abs(nu).sum(axis=1).tolist()
    for j, i in enumerate(noisy):
        # the L2 norm as np.linalg.norm takes it: one BLAS dot per model
        out[i] = PerturbedModel(weights[j], l1[j], math.sqrt(nu[j].dot(nu[j])), spec[i])
    return out


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
    toward 0. With seeds=None one model trains with cfg.seed and gets noise
    from noise_seed (default cfg.seed). Given seeds, they train in lockstep
    from bias[i] (on rows[i] of data, if given) and seed i gets
    Laplace(scale[i]) noise from noise_seed[i]; one PerturbedModel per seed.
    """
    if seeds is None:
        noise_seed = cfg.seed if noise_seed is None else noise_seed
        return pberm([bias], data, lam, cfg, [scale], [noise_seed], [cfg.seed])[0]
    models = biased_erm_minimize(data, bias, lam, cfg, seeds, rows)
    return output_perturb(models, [None if s == 0.0 else NoiseSpec(s, w.w.shape, seed)
                                   for w, s, seed in zip(models, scale, noise_seed)])


def subsample(n: int, p: float, seed: int) -> np.ndarray:
    """Keep each of n rows independently with probability p.

    Returns the indices of the kept rows, in increasing order: all rows when
    p is 1, none when n is 0.
    """
    if n == 0 or p >= 1.0:
        return np.arange(n)
    rng = make_rng(seed, "subsample")
    return np.flatnonzero(rng.random(n) < p)
