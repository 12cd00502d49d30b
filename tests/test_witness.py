"""Replace-one witness: does each event's noise cover what one point moves?

Training is a function of the data: each event is solved to its certificate
(`erm.solve`). With an event's bias model fixed, its pre-noise weights on
two neighbouring streams differ only through the data, and Laplace noise of
scale b per coordinate covers a difference Δw at ε = ‖Δw‖₁ / b. For every
trained event of a run, the event is solved again, once on its interval and
once per neighbour that replaces the interval's first row by a norm-1
candidate with a moved label, in one lockstep `solve` call; the realised ε
of each neighbour must be at most the ε the event is charged. A witness is a
lower bound on the true loss, not a proof.

The calibration in `mechanisms.laplace_scale` fails this by factors of
about 4 to 100 (ROADMAP item 1), so every case is a strict xfail until the
calibration is fixed. Only the ratio's AssertionError is the expected
failure: any other error fails the case.
"""

from fractions import Fraction

import numpy as np
import pytest

from streamdp import Dataset, SchedulerConfig
from streamdp.erm import lipschitz_public, solve
from streamdp.schedulers import build_schedule, execute

N, D, K, SEED = 512, 20, 3, 7

CONFIGS = [
    SchedulerConfig("multires", Fraction(1), 1.0, None, B=64),
    SchedulerConfig("continual", Fraction(1), 1.0, None, B=128, b0=32),
    SchedulerConfig("sliding", Fraction(1), 1.0, None, w=56, w0=8),
    SchedulerConfig("baseline-independent", Fraction(1), 1.0, None, b0=64),
    SchedulerConfig("baseline-basic", Fraction(1), 1.0, None, B=128, b0=32),
]


def clipped_stream():
    """Gaussian blobs around class means on the unit circle, each row
    L2-clipped to norm 1."""
    rng = np.random.default_rng(11)
    y = rng.integers(0, K, size=N)
    X = 0.5 * rng.standard_normal((N, D))
    X[:, 0] += np.cos(2 * np.pi * y / K)
    X[:, 1] += np.sin(2 * np.pi * y / K)
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    return Dataset(X, y, K)


def candidates(x, y):
    """Norm-1 replacements for the row (x, y), each with the next label: the
    row's own direction negated and the two class-mean axes."""
    X = np.zeros((3, D))
    X[0] = -x / np.linalg.norm(x)
    X[1, 0] = X[2, 1] = 1.0
    return X, np.full(3, (y + 1) % K)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the noise scale undercuts the replace-one sensitivity")
@pytest.mark.parametrize("sched", CONFIGS, ids=lambda s: s.name)
def test_noise_covers_a_replaced_point(sched):
    stream = clipped_stream()
    sched = SchedulerConfig(sched.name, sched.eps, sched.lam,
                            lipschitz_public(K, sched.batch), B=sched.B, b0=sched.b0,
                            w=sched.w, w0=sched.w0)
    schedule = build_schedule(sched, N)
    [run] = execute(schedule, stream, seeds=(SEED,))
    worst = []
    for e in schedule.events:
        if e.adopt or e.eps == 0:
            continue
        cand_X, cand_y = candidates(stream.X[e.a], stream.y[e.a])
        data = Dataset(np.vstack([stream.X, cand_X]), np.concatenate([stream.y, cand_y]), K)
        rows = np.arange(e.a, e.b + 1)
        neighbours = [np.concatenate([[N + j], rows[1:]]) for j in range(len(cand_y))]
        # the run's weights hold the zero model in their last slot
        bias = run.weights[-1 if e.reg_source is None else e.reg_source]
        members = 1 + len(neighbours)
        models = solve(data, np.repeat(bias[None], members, axis=0), schedule.lam,
                       [e.tau] * members, [rows, *neighbours])
        realised = max(np.abs(m - models[0]).sum() for m in models[1:]) / e.noise_scale
        worst.append((realised / float(e.eps), e.t, e.kind, e.a, e.b))
    if not worst:  # not an AssertionError: the expected failure is the calibration's alone
        pytest.fail("no trained event to retrain")
    ratio, t, kind, a, b = max(worst)
    assert ratio <= 1, (f"{kind} at t={t} on [{a}, {b}] leaks {ratio:.1f}x its charge; "
                        f"ratios {min(worst)[0]:.1f}-{ratio:.1f}x over {len(worst)} events")
