"""Randomized privacy layer.

Laplace noise via inverse-CDF sampling from a counter-based generator, output
perturbation of trained weights, the Laplace scale of one release and the
tolerance its solve stops at (one formula each for every schedule, derived in
`laplace_scale`), and independent-inclusion subsampling for amplification.

Noise is drawn per stack: `pberm` solves an (S, k, d) stack of models in
lockstep and `output_perturb` perturbs it with one `laplace_noise` draw from
the members' scales and noise seeds, whose uniforms for every member come
from a few array operations (`rng.philox_random`) rather than one generator
per member, with the values those generators would give. A stack stays
arrays throughout: weights in, noisy weights and noise norms out.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import erm
from .erm import Dataset, ErmError
from .rng import make_rng, philox_random, stream_keys


class MechanismError(ValueError):
    """Invalid noise or sampling parameters."""


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


def laplace_noise(scales, seeds, dims) -> np.ndarray:
    """I.i.d. Laplace(0, scales[i]) noise from seed seeds[i] for each i, as
    one (S, *dims) array, by inverse CDF.

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


# The share of the sensitivity that a solve may leave between a release and
# the exact minimiser: tau = TAU_SHARE * 2 * lam * sensitivity.
TAU_SHARE = 0.01


def _sensitivity(L, lam, n: int) -> float:
    """2L / (lam * n): how far replacing one of n points moves the exact
    minimiser (`laplace_scale`), with the checks both uses share."""
    for name, v in (("L", L), ("lam", lam)):
        if v is None or not (v > 0 and math.isfinite(v)):
            raise MechanismError(f"parameter {name} must be positive and finite, got {v}")
    if n < 1:
        raise MechanismError(f"a release needs at least one point, got n={n}")
    return 2.0 * L / (lam * n)


def solve_tolerance(L, lam, n: int) -> float:
    """tau, the gradient norm at which a release's solve stops:
    TAU_SHARE * 2 * lam * Delta, with Delta = 2L/(lam*n) (`laplace_scale`)."""
    return TAU_SHARE * 2.0 * lam * _sensitivity(L, lam, n)


def laplace_scale(L, lam, n: int, charge, sampled_level: int | None = None) -> float:
    """Laplace scale of one release: (Delta + tau/lam) / eps = 1.02 * Delta / eps,
    with Delta = 2L / (lam * n).

    A release perturbs the minimiser of an L-Lipschitz loss averaged over its
    n points plus a lam-strongly-convex penalty. Replacing one of the n
    points moves that minimiser by at most Delta = 2L/(lam*n) (Chaudhuri,
    Monteleoni & Sarwate 2011). That bound is for the exact minimiser and in
    L2; the calibration takes it as the L1 sensitivity of the trained
    weights, and `_sensitivity` is the one place to change if that is
    revised.

    The release is not the exact minimiser but the first iterate of
    `erm.solve` whose gradient norm is at most tau = `solve_tolerance`
    = TAU_SHARE * 2 * lam * Delta, a public number fixed with the schedule.
    The objective is 2*lam-strongly convex, so that iterate lies within
    tau/(2*lam) of its own minimiser, on either of two neighbouring data
    sets. The two releases therefore differ by at most
    Delta + 2 * tau/(2*lam) = Delta + tau/lam = (1 + 2 * TAU_SHARE) * Delta,
    and Laplace noise of scale (Delta + tau/lam)/eps makes the release
    eps-DP.

    eps is what the release itself spends. Unsampled, that is its ledger
    charge. A sampled release at level j keeps each point with the
    probability `sampling_probability` gives, which amplifies an eps of
    charge * 2^j down to the charge (Balle, Barthe & Gaboardi 2018), so it
    spends charge * 2^j: half the schedule's eps under exp_formula, a sixth
    under reciprocal.

    The scale is a positive, finite float, or MechanismError says why not:
    L or lam not positive and finite, a charge not positive, no points, or
    a quotient that overflows or underflows (to 0 or below the normal
    floats).
    """
    delta = _sensitivity(L, lam, n)
    if charge is None or charge <= 0:
        raise MechanismError(f"parameter charge must be positive, got {charge}")
    eps = charge if sampled_level is None else charge * 2**sampled_level
    try:
        feps = float(eps)
    except OverflowError:
        raise MechanismError(f"a release's eps {eps} is too large for a float") from None
    bound = delta + solve_tolerance(L, lam, n) / lam
    scale = bound / feps if feps > 0 else 0.0
    if not (scale >= sys.float_info.min and math.isfinite(scale)):
        raise MechanismError(f"the Laplace scale (Delta + tau/lam)/eps is {scale} at L={L}, "
                             f"lam={lam}, n={n}, eps={feps}: not a positive, finite, "
                             "normal float")
    return scale


def output_perturb(w, scales, seeds):
    """Add Laplace noise to an (S, k, d) weight stack, recording the noise
    norms: the noisy (S, k, d) stack with the (S,) noise_l1 and noise_l2
    arrays.

    Member i gets Laplace(scales[i]) noise from seeds[i], or none where
    scales[i] is 0, which releases it unperturbed. The noise of a stack is
    one `laplace_noise` draw, checked for finiteness once.
    """
    w, scales = np.asarray(w), np.asarray(scales, dtype=np.float64)
    if w.ndim != 3:
        raise ErmError(f"weights must be an (S, k, d) stack, got shape {w.shape}")
    if scales.shape != (len(w),):
        raise MechanismError(f"need one scale per model of {len(w)}, got shape {scales.shape}")
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


def biased_erm_minimize(data: Dataset, bias, lam: float, tau, rows=None):
    """`erm.solve`, looked up at each call. It has a name of its own only
    for the benchmark tracer's erm.biased span."""
    return erm.solve(data, bias, lam, tau, rows)


def pberm(bias, data: Dataset, lam: float, tau, scales, noise_seeds, rows=None):
    """Private biased regularized ERM: fine-tune toward bias, then perturb.

    Member i of S is solved in lockstep from bias[i] of the (S, k, d) bias
    array, on rows[i] of data if given, minimizing the data loss plus
    lam*||w - bias[i]||^2 until its gradient norm is at most tau[i]
    (`erm.solve`); a zero bias trains toward 0. It then gets
    Laplace(scales[i]) noise from noise_seeds[i], the scale the caller's
    schedule calibrated for that tolerance; a scale of 0 is the explicit
    non-private escape hatch and releases it unperturbed, and a negative
    scale is rejected. The result is the noisy (S, k, d) weights with the
    (S,) noise_l1 and noise_l2 arrays (`output_perturb`).
    """
    return output_perturb(biased_erm_minimize(data, bias, lam, tau, rows), scales, noise_seeds)


def subsample(n: int, p: float, seed: int) -> np.ndarray:
    """Keep each of n rows independently with probability p.

    Returns the indices of the kept rows, in increasing order: all rows when
    p is 1, none when n is 0.
    """
    if n == 0 or p >= 1.0:
        return np.arange(n)
    rng = make_rng(seed, "subsample")
    return np.flatnonzero(rng.random(n) < p)
