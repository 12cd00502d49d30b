"""Randomized privacy layer.

Laplace noise via inverse-CDF sampling from a counter-based generator, output
perturbation of trained weights, the catalogue of noise-scale formulas used by
the release schedules, and independent-inclusion subsampling for amplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .erm import (
    Dataset,
    ModelWeights,
    RegularizerSpec,
    TrainConfig,
    biased_erm_minimize,
    sgd_train,
)
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


@dataclass(frozen=True)
class SamplingSpec:
    """Inclusion-probability rule: 'exp_formula' on (level, eps) or 'reciprocal' on level."""

    rule: str
    level: int
    seed: int

    def probability(self, eps: float) -> float:
        return sampling_probability(self.rule, self.level, eps)


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


def noise_scale(kind: str, **params) -> float:
    """Laplace scale for one release, per the schedule the caller is running.

    Kinds: multires, pberm, pberm_sampled, multires_sampled, sliding_base,
    sliding_update, sliding_update_sampled.
    """
    L = params.get("L")
    lam = params.get("lam")
    eps = params.get("eps")
    for name in ("L", "lam", "eps"):
        v = params.get(name)
        if v is None or v <= 0:
            raise MechanismError(f"parameter {name} must be positive, got {v}")

    def need(name):
        v = params.get(name)
        floor = 0 if name == "level" else 1  # level 0 is the unsampled identity
        if v is None or v < floor:
            raise MechanismError(f"parameter {name} must be present and >= {floor} for kind {kind!r}")
        return v

    if kind == "multires":
        return 4.0 * L / (lam * need("B") * eps)
    if kind == "multires_sampled":
        return 4.0 * L / (lam * 2 ** need("level") * need("B") * eps)
    if kind == "pberm":
        return 4.0 * L / (lam * need("b0") * eps)
    if kind == "pberm_sampled":
        return 4.0 * L / (lam * 2 ** need("level") * need("b0") * eps)
    if kind == "sliding_base":
        return 6.0 * L / (lam * eps * need("base_size"))
    if kind == "sliding_update":
        return 12.0 * L / (lam * need("w0") * eps)
    if kind == "sliding_update_sampled":
        return 12.0 * L / (lam * 2 ** need("level") * need("w0") * eps)
    raise MechanismError(f"unknown noise kind {kind!r}")


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


def psgd(
    data: Dataset,
    delta: float,
    reg: RegularizerSpec,
    cfg: TrainConfig,
    noise_seed=None,
    seeds=None,
    rows=None,
):
    """Private SGD via output perturbation: train, then add Laplace(delta) noise.

    delta=0 is the explicit non-private escape hatch used by replay harness
    comparisons; any other non-positive value is rejected. With seeds=None
    one model is trained with cfg.seed and perturbed with noise_seed (default
    cfg.seed). Given a sequence of seeds, `sgd_train` trains them in lockstep
    (seed i on the rows rows[i] of data, if rows is given) and seed i is
    perturbed with Laplace(delta[i]) noise from noise_seed[i]; one
    PerturbedModel per seed is returned.
    """
    if seeds is None:
        noise_seed = cfg.seed if noise_seed is None else noise_seed
        return _perturb_each([sgd_train(data, reg, cfg)], [delta], [noise_seed])[0]
    return _perturb_each(sgd_train(data, reg, cfg, seeds, rows), delta, noise_seed)


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
    scale=0 releases the model unperturbed. Seeds work as in `psgd`, with
    one bias and one scale per seed when seeds is given.
    """
    if seeds is None:
        noise_seed = cfg.seed if noise_seed is None else noise_seed
        models = [biased_erm_minimize(data, bias, lam, cfg)]
        return _perturb_each(models, [scale], [noise_seed])[0]
    models = biased_erm_minimize(data, bias, lam, cfg, seeds, rows)
    return _perturb_each(models, scale, noise_seed)


def subsample(data: Dataset, spec: SamplingSpec, eps: float) -> tuple[np.ndarray, float]:
    """Include each element independently with the rule's probability.

    Returns the indices of the kept rows, in increasing order (all rows when
    the probability is 1, none for an empty input), and the inclusion
    probability for the ledger.
    """
    p = spec.probability(eps)
    if data.n == 0 or p >= 1.0:
        return np.arange(data.n), p
    rng = make_rng(spec.seed, "subsample")
    return np.flatnonzero(rng.random(data.n) < p), p
