"""Randomized privacy layer.

Laplace noise via inverse-CDF sampling from a counter-based generator, output
perturbation of trained weights, the Laplace scale of one release (one formula
for every schedule, derived in `laplace_scale`), and independent-inclusion
subsampling for amplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .erm import Dataset, ModelWeights, TrainConfig, biased_erm_minimize
from .rng import make_rng


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


def laplace_vector(spec: NoiseSpec) -> np.ndarray:
    """I.i.d. Laplace(0, scale) matrix via inverse CDF; deterministic per seed."""
    rng = make_rng(spec.seed, "laplace")
    u = rng.random(spec.dims)
    v = u - 0.5
    # |v| = 0.5 exactly (u == 0.0) would map to -inf; nudge into the support.
    mag = np.maximum(1.0 - 2.0 * np.abs(v), np.finfo(np.float64).tiny)
    return -spec.scale * np.sign(v) * np.log(mag)


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


def output_perturb(w: ModelWeights, spec: NoiseSpec) -> PerturbedModel:
    """Add Laplace noise to the weights, recording the noise norms."""
    if w.w.shape != spec.dims:
        raise MechanismError(f"weight shape {w.w.shape} does not match noise dims {spec.dims}")
    nu = laplace_vector(spec)
    noisy = w.with_meta(noise_scale=spec.scale)
    noisy = ModelWeights(w.w + nu, noisy.meta)
    return PerturbedModel(
        weights=noisy,
        noise_l1=float(np.abs(nu).sum()),
        noise_l2=float(np.linalg.norm(nu)),
        spec=spec,
    )


def _identity_perturbed(w: ModelWeights) -> PerturbedModel:
    return PerturbedModel(weights=w, noise_l1=0.0, noise_l2=0.0, spec=None)


def _perturb_each(models, deltas, noise_seeds) -> list[PerturbedModel]:
    """Laplace(delta) output perturbation of each model with its own delta
    and seed; delta=0 releases that model unperturbed."""
    return [_identity_perturbed(w) if delta == 0.0
            else output_perturb(w, NoiseSpec(delta, w.w.shape, seed))
            for w, delta, seed in zip(models, deltas, noise_seeds)]


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
    toward 0. With seeds=None one model is trained with cfg.seed and
    perturbed with noise_seed (default cfg.seed). Given a sequence of seeds,
    `sgd_train` trains them in lockstep (seed i on the rows rows[i] of data,
    if rows is given) and seed i, with bias[i], is perturbed with
    Laplace(scale[i]) noise from noise_seed[i]; one PerturbedModel per seed
    is returned.
    """
    if seeds is None:
        noise_seed = cfg.seed if noise_seed is None else noise_seed
        models = [biased_erm_minimize(data, bias, lam, cfg)]
        return _perturb_each(models, [scale], [noise_seed])[0]
    models = biased_erm_minimize(data, bias, lam, cfg, seeds, rows)
    return _perturb_each(models, scale, noise_seed)


def subsample(n: int, p: float, seed: int) -> np.ndarray:
    """Keep each of n rows independently with probability p.

    Returns the indices of the kept rows, in increasing order: all rows when
    p is 1, none when n is 0.
    """
    if n == 0 or p >= 1.0:
        return np.arange(n)
    rng = make_rng(seed, "subsample")
    return np.flatnonzero(rng.random(n) < p)
