"""Release schedules: multi-resolution, continual cumulative, sliding window.

A schedule is built from one `SchedulerConfig` by `build_schedule`, which
keeps that config as `Schedule.config`. Schedules are pure, RNG-free event
lists (so they can be inspected, diffed and charged to a ledger without
touching data), each event carrying its charge, Laplace scale, solve
tolerance and, if sampled, inclusion probability; `execute` trains and
perturbs their models against a stream.

Time convention: stream points are 0-indexed. An event at step t fires on the
arrival of point index t. Multi-resolution, continual and baseline releases
train on the completed preceding block [t - s, t - 1]; sliding-window events
cover the current window [t - w + 1, t] including the newest point. A stream
of length T therefore fires events at steps t <= T - 1.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import string
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .erm import SOLVE_MEMORY, CertificateError, Dataset
from .ledger import Ledger, LedgerError
from .mechanisms import (TAU_SHARE, laplace_scale, pberm, sampling_probability,
                         solve_tolerance, subsample)
from .rng import first_integers, stream_keys

KIND_SUBSYSTEM = {
    "MultiRes": "multires",
    "Base": "continual",
    "LargeUpdate": "continual",
    "SmallUpdate": "continual",
    "WindowInit": "sliding",
    "WindowAdvance": "sliding",
    "WindowRefresh": "sliding",
    "BaselineIndependent": "baseline",
    "BaselineBasicCumulative": "baseline",
}


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class SchedulerConfig:
    """The parameters of a schedule: scheduler name, total eps, lambda,
    Lipschitz constant and block sizes (each scheduler reads its own).

    L=None stands for the public bound, which the caller resolves from the
    stream before building the schedule.
    """

    name: str
    eps: Fraction
    lam: float
    L: float | None
    B: int | None = None
    b0: int | None = None
    w: int | None = None
    w0: int | None = None
    standalone_base: bool = False
    first_base_at_2B: bool = False

    @property
    def batch(self) -> int:
        """Smallest release granularity, used for recent/old evaluation windows."""
        for v in (self.b0, self.w0, self.B):
            if v is not None:
                return v
        return 1


@dataclass(slots=True)
class EventSpec:
    """One model training/adoption with its interval, noise and exact charge,
    the gradient norm tau its solve stops at (`mechanisms.solve_tolerance`)
    and, for a sampled event, the probability p each point is kept with."""

    t: int
    kind: str
    level: int | None
    a: int
    b: int
    eps: Fraction
    noise_scale: float
    tau: float
    model_id: int
    reg_source: int | None = None  # None: trained toward the zero model
    adopt: bool = False  # released, not trained: a continual base adopts a multires model
    side: str | None = None  # sliding: base | left | right
    sampled_rule: str | None = None  # exp_formula | reciprocal, at this event's level
    p: float | None = None  # None: not sampled

    @property
    def subsystem(self) -> str:
        return KIND_SUBSYSTEM[self.kind]

    @property
    def interval(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(slots=True)
class ChainState:
    """Sliding-window dependency chain after one step (`sliding_chain`)."""

    t: int
    buckets: tuple  # ((a, b, side, model_id), ...) in descending size order
    trained: tuple  # model ids trained at this step
    released: int


# Per scheduler name without `-sample`: the block sizes of SchedulerConfig
# it reads, and the most one point may be charged in each of its
# subsystems, as a multiple of eps (`schedule_budgets`).
REQUIRES = {"multires": ("B",), "continual": ("B", "b0"), "sliding": ("w", "w0"),
            "baseline-independent": ("b0",), "baseline-basic": ("B", "b0")}
_BUDGETS = {"multires": {"multires": 1}, "continual": {"continual": 1, "multires": 1},
            "sliding": {"sliding": 1}, "baseline-independent": {"baseline": 1},
            "baseline-basic": {"baseline": 2}}


def schedule_budgets(name: str, eps: Fraction, standalone_base: bool = False) -> dict:
    """subsystem -> the most one point may be charged in it, for a schedule of
    `name` (without `-sample`) and total eps. Continual with standalone
    bases charges them to continual, within 2 eps, and has no multires."""
    if name == "continual" and standalone_base:
        return {"continual": 2 * eps}
    return {sub: times * eps for sub, times in _BUDGETS[name].items()}


@dataclass(frozen=True)
class Schedule:
    """The events and releases `build_schedule` builds from config, the
    SchedulerConfig whose eps, lambda and L (resolved) they are calibrated
    for, and trained with."""

    config: SchedulerConfig
    events: tuple
    releases: tuple  # (t, model_id) pairs in time order, each once

    @property
    def budgets(self) -> dict:
        """The config's `schedule_budgets`, a fresh dict on each access."""
        cfg = self.config
        return schedule_budgets(cfg.name.removesuffix("-sample"), cfg.eps, cfg.standalone_base)


def _calibration(cfg, n, eps, level, rule) -> tuple:
    """The Laplace scale an event of n points charged eps buys, the tolerance
    of its solve and, sampled under rule at level, the probability each
    point is kept with (`laplace_scale`, `solve_tolerance`,
    `sampling_probability`: an exp_formula level spends the schedule's eps)."""
    return (laplace_scale(cfg.L, cfg.lam, n, eps, level if rule else None),
            solve_tolerance(cfg.L, cfg.lam, n),
            None if rule is None else sampling_probability(rule, level, float(cfg.eps)))


def _event(cfg, t, kind, level, a, b, eps, model_id, rule=None, adopt=False,
           reg_source=None, side=None, calibration=None) -> EventSpec:
    """An event of the schedule cfg on [a, b] charged eps, with its
    `_calibration` unless the caller passes it; an adopted model is not
    trained and has none."""
    if adopt:
        scale, tau, p = 0.0, 0.0, None
    else:
        scale, tau, p = calibration or _calibration(cfg, b - a + 1, eps, level, rule)
    return EventSpec(t, kind, level, a, b, eps, scale, tau, model_id, reg_source, adopt, side,
                     rule, p)


def _rule(cfg, rule: str) -> str | None:
    """rule for a sampled scheduler's (`-sample`) events, else None."""
    return rule if cfg.name.endswith("-sample") else None


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def multires_events_at(t: int, B: int):
    """Levels (k, interval) released at step t: one per k with 2^k*B | t."""
    if t <= 0 or B < 1 or t % B:
        return []
    out = []
    k = 0
    while (s := (1 << k) * B) <= t:
        if t % s == 0:
            out.append((k, (t - s, t - 1)))
        k += 1
    return out


def _multires_events(cfg, T, ids, rule) -> list:
    if cfg.B < 1:
        raise ScheduleError("B must be >= 1")
    return [_event(cfg, t, "MultiRes", k, a, b, cfg.eps / (2 * 2**k), next(ids), rule)
            for t in range(cfg.B, T, cfg.B) for k, (a, b) in multires_events_at(t, cfg.B)]


def _multires(cfg, T) -> Schedule:
    events = _multires_events(cfg, T, itertools.count(), _rule(cfg, "exp_formula"))
    releases = tuple((e.t, e.model_id) for e in events)
    return Schedule(cfg, tuple(events), releases)


def _continual(cfg, T) -> Schedule:
    """Continual cumulative updates riding on an embedded multi-res schedule.

    Base steps at t = 2^k*B adopt the multi-res model over the prefix (no
    continual charge); large updates at t - t_g = 2^j*b0 retrain on the whole
    gap against the base model; other multiples of b0 are small updates
    against the latest checkpoint. With standalone_base the bases are
    trained directly (multi-res-style fixed noise, charged under continual)
    and no multi-res events are emitted. The embedded multi-res events are
    never sampled.
    """
    B, b0, eps = cfg.B, cfg.b0, cfg.eps
    if b0 < 1 or B < b0 or B % b0:
        raise ScheduleError("need 1 <= b0 <= B with B a multiple of b0")
    event = functools.partial(_event, cfg)
    ids = itertools.count()
    events = []
    multires_prefix = {}  # base time -> adopted model id
    if not cfg.standalone_base:
        events = _multires_events(cfg, T, ids, None)
        multires_prefix = {e.t: e.model_id for e in events if e.a == 0 and e.t == e.b + 1}
    releases = [(e.t, e.model_id) for e in events]

    t_g = None
    f_g = f_c = None
    min_ratio = 2 if cfg.first_base_at_2B else 1
    for t in range(B, T):
        ratio = t // B
        if t % B == 0 and _is_pow2(ratio) and ratio >= min_ratio:
            k = ratio.bit_length() - 1
            if cfg.standalone_base:
                ev = event(t, "Base", k, 0, t - 1, eps / (2 * 2**k), next(ids))
            else:
                ev = event(t, "Base", k, 0, t - 1, Fraction(0), multires_prefix[t], adopt=True)
            events.append(ev)
            releases.append((t, ev.model_id))
            t_g, f_g, f_c = t, ev.model_id, ev.model_id
        elif t_g is not None and (t - t_g) % b0 == 0:
            blocks = (t - t_g) // b0
            if _is_pow2(blocks) and blocks >= 2:
                j = blocks.bit_length() - 1
                ev = event(t, "LargeUpdate", j, t_g, t - 1, eps / (2 * 2**j), next(ids),
                           _rule(cfg, "exp_formula"), reg_source=f_g)
                f_c = ev.model_id
            else:
                ev = event(t, "SmallUpdate", None, t - b0, t - 1, eps / 2, next(ids),
                           reg_source=f_c)
            events.append(ev)
            releases.append((t, ev.model_id))
    # merge the embedded multires releases into time order; an adopted base
    # is the multires model released at the same step, so it is listed once
    releases = sorted(dict.fromkeys(releases), key=lambda r: r[0])
    return Schedule(cfg, tuple(events), tuple(releases))


def _baseline_independent(cfg, T) -> Schedule:
    """Each disjoint b0 batch trained and sanitized on its own, eps/2 apiece.

    No regularization lineage: every batch model is biased toward zero, so
    each release depends on exactly one batch of data.
    """
    b0 = cfg.b0
    if b0 < 1:
        raise ScheduleError(f"b0 must be >= 1, got {b0}")
    ids = itertools.count()
    events = [_event(cfg, t, "BaselineIndependent", None, t - b0, t - 1, cfg.eps / 2, next(ids))
              for t in range(b0, T, b0)]
    return Schedule(cfg, tuple(events), tuple((e.t, e.model_id) for e in events))


def _baseline_basic(cfg, T) -> Schedule:
    """Cumulative retrain at t = 2^k*B, small b0 updates against the previous model."""
    B, b0, eps = cfg.B, cfg.b0, cfg.eps
    if b0 < 1 or B < b0 or B % b0:
        raise ScheduleError("need 1 <= b0 <= B with B a multiple of b0")
    event = functools.partial(_event, cfg)
    events = []
    prev = None
    t_g = None
    ids = itertools.count()
    for t in range(B, T):
        ratio = t // B
        if t % B == 0 and _is_pow2(ratio):
            k = ratio.bit_length() - 1
            ev = event(t, "BaselineBasicCumulative", k, 0, t - 1, eps / (2 * 2**k), next(ids))
            t_g = t
        elif t_g is not None and (t - t_g) % b0 == 0:
            ev = event(t, "BaselineBasicCumulative", None, t - b0, t - 1, eps / 2, next(ids),
                       reg_source=prev)
        else:
            continue
        events.append(ev)
        prev = ev.model_id
    return Schedule(cfg, tuple(events), tuple((e.t, e.model_id) for e in events))


def window_shape(w: int, w0: int) -> int:
    """Validate w = (2^k - 1) * w0 with k >= 2 and return k."""
    if w0 < 1 or w % w0:
        raise ScheduleError(f"w={w} must be a multiple of w0={w0}")
    blocks = w // w0 + 1
    if not _is_pow2(blocks) or blocks < 4:
        raise ScheduleError(f"w={w} must equal (2^k - 1)*w0 with k >= 2, got w0={w0}")
    return blocks.bit_length() - 1


def _sliding_steps(T, w, w0):
    """The sliding window's release steps on a stream of length T, in closed
    form.

    Step n fires at t = w - 1 + n*w0 and covers the window [t - w + 1, t] of
    2^k - 1 blocks of w0 points, k = `window_shape(w, w0)`. With
    r = n mod 2^(k-1), the base bucket holds 2^(k-1) blocks, the left side
    the binary decomposition of the 2^(k-1) - 1 - r blocks before it,
    smallest oldest, and the right side that of the r blocks after it,
    largest next to the base. Yields (t, kind, chain, trained) per step:
    chain is the window's buckets as (a, b, side, blocks, model_id) tuples,
    base first, then by descending size with a left bucket before a right
    one of the same size; trained holds the chain positions of the buckets
    whose interval was not in the previous step's chain, each given the
    next model id in chain order. The others keep their model ids. The kind
    is WindowInit at n = 0, WindowRefresh where r = 0 and WindowAdvance
    otherwise.
    """
    k = window_shape(w, w0)
    cycle = 2 ** (k - 1)
    ids = itertools.count()
    prev = {}  # (a, b) -> model id, of the previous step's chain
    for n, t in enumerate(range(w - 1, T, w0)):
        r = n % cycle
        left = cycle - 1 - r
        start = t - w + 1
        a = start + left * w0
        spans = [(a, a + cycle * w0 - 1, "base", cycle)]
        for j in reversed(range(k - 1)):
            size = 1 << j
            if left & size:
                a = start + (left & (size - 1)) * w0
                spans.append((a, a + size * w0 - 1, "left", size))
            if r & size:
                a = t + 1 - (r & (2 * size - 1)) * w0
                spans.append((a, a + size * w0 - 1, "right", size))
        chain, trained = [], []
        for idx, (a, b, side, blocks) in enumerate(spans):
            mid = prev.get((a, b))
            if mid is None:
                mid = next(ids)
                trained.append(idx)
            chain.append((a, b, side, blocks, mid))
        prev = {(a, b): mid for a, b, _, _, mid in chain}
        kind = "WindowInit" if n == 0 else "WindowAdvance" if r else "WindowRefresh"
        yield t, kind, chain, trained


def _sliding(cfg, T) -> Schedule:
    """Sliding-window release with a binary bucket structure on either side
    of the base bucket, computed per step from the step number
    (`_sliding_steps`): retrains exactly the buckets whose interval is new,
    each regularized on the next larger bucket's (possibly just retrained)
    model, and releases the smallest bucket's.
    """
    w, w0, eps = cfg.w, cfg.w0, cfg.eps
    k = window_shape(w, w0)
    event = functools.partial(_event, cfg)
    # A side bucket of 2^j blocks spans 2^j * w0 points, so its charge, rule
    # and calibration depend on j alone: each level's are worked out once.
    levels = []
    for j in range(k - 1):
        charge, rule = eps / (6 * 2**j), _rule(cfg, "reciprocal") if j > 0 else None
        levels.append((charge, rule, _calibration(cfg, 2**j * w0, charge, j, rule)))
    events, releases = [], []
    for t, kind, chain, trained in _sliding_steps(T, w, w0):
        for idx in trained:
            a, b, side, blocks, mid = chain[idx]
            if idx == 0:  # the base
                events.append(event(t, kind, k - 1, a, b, eps / 3, mid, side="base"))
            else:
                j = blocks.bit_length() - 1
                charge, rule, calibration = levels[j]
                events.append(event(t, kind, j, a, b, charge, mid, rule, calibration=calibration,
                                    reg_source=chain[idx - 1][4], side=side))
        releases.append((t, chain[-1][4]))
    return Schedule(cfg, tuple(events), tuple(releases))


def sliding_chain(T, w, w0) -> tuple:
    """The sliding window's dependency chain after each release step of a
    sliding schedule of w and w0 on a stream of length T, as ChainStates,
    from the same closed-form steps (`_sliding_steps`)."""
    return tuple(
        ChainState(t, tuple((a, b, side, mid) for a, b, side, _, mid in chain),
                   tuple(chain[idx][4] for idx in trained), chain[-1][4])
        for t, _, chain, trained in _sliding_steps(T, w, w0))


def ledger_from_events(schedule: Schedule) -> Ledger:
    """A fresh ledger of the schedule's budgets, charged with its events (dry
    run: no data, no RNG)."""
    charged = [e for e in schedule.events if e.eps > 0]
    ledger = Ledger(budgets=schedule.budgets)
    ledger.extend([e.a for e in charged], [e.b for e in charged],
                  [e.eps.numerator for e in charged], [e.eps.denominator for e in charged],
                  [e.subsystem for e in charged], [e.t for e in charged],
                  [e.kind if e.side is None else f"{e.kind}/{e.side}" for e in charged])
    return ledger


@dataclass(eq=False)
class RunResult:
    """A run of a schedule for a tuple of seeds (`execute`), as arrays
    indexed by [seed position, model id].

    weights[i, mid] is model mid's released, noisy, weights for seed i, or
    for an event skipped on an empty subsample its bias model; the last
    slot is the zero model that an event without a regularizer trains
    toward. noise_l1 and noise_l2 hold each model's noise norms, zero where
    it was released unperturbed; skip marks the skipped (seed, event) pairs.
    """

    weights: np.ndarray  # (S, M + 1, k, d)
    noise_l1: np.ndarray  # (S, M + 1)
    noise_l2: np.ndarray  # (S, M + 1)
    skip: np.ndarray  # (S, M + 1)


# Release scoring works in chunks of about this many bytes (`harness`), and
# `execute` gathers copies of an interval's rows for its members only up to it.
_STACK_BYTES = 160 << 10

# A solve holds, per member of n rows (an event solved once for one or
# more seeds), its rows where they are gathered, its (k, n) scores, and
# about _SOLVE_ARRAYS arrays the size of its weights: the iterate, its
# gradient, the direction, the trial and their temporaries, and the
# 2 * SOLVE_MEMORY vectors of its curvature pairs. `execute` stacks members
# up to about _SOLVE_BYTES of these: stacking spreads the per-call cost of
# the solver's and the noise draw's numpy operations over many small
# members. Sliding-w255's 5,473 tiny events ran in 260, 224, 194 and 204 ms
# at caps of 1, 2, 4 and 8 MiB, at one peak RSS.
_SOLVE_BYTES = 4 << 20
_SOLVE_ARRAYS = 2 * SOLVE_MEMORY + 8


def execute(
    schedule: Schedule,
    stream: Dataset,
    nonprivate: bool = False,
    *,
    seeds,
) -> RunResult:
    """Run a schedule against a stream: train and perturb its models for
    each of `seeds`, a sequence, returning one RunResult of them all.

    The schedule is RNG-free, so every seed trains the same events on the
    same slices, and events are trained in dependency waves: an event's wave
    is one more than its `reg_source`'s, and events without one are wave 1, so
    the events of a wave are independent of each other. A wave is solved as
    members (event, seat positions, rows), where the seat positions are the
    places in `seeds` that one solve serves. An unsampled event's seeds train
    on one range with one lambda and tau, so where their biases are
    bit-equal (one comparison per wave, as int64, so that -0.0 is not 0.0)
    the event is one member serving every seat: in a private run, the
    events trained toward the zero model; in a nonprivate one, every
    unsampled event. Otherwise, and for a sampled event, whose seeds draw
    their own rows, each seed is a member of one seat. The members are
    grouped by the number of rows they train on, and each group is solved
    in lockstep by `pberm` with its config's lambda toward each member's
    regularizer (the zero model without one), to each event's tolerance
    tau, one call per stack (`_stacks`). Where copies of an unsampled
    event's range for each of its members would take more than
    _STACK_BYTES, its members are stacks of their own, each of which reads
    the range in place. Otherwise, and for a sampled event's members, each
    member reads its own gathered rows, and the members of one row count
    are pooled into stacks of about _SOLVE_BYTES. `pberm` fans each solved
    member out to its (seed, event) releases with one index and perturbs
    them in one draw. Solving is deterministic and a member's result does
    not depend on its stack-mates, and a seed's subsample and noise streams
    derive from that seed and the model id alone, so its result equals a
    run of that seed by itself, event by event; the subseeds of every
    (event, seed) are derived up front, one vectorised call per label
    (`_subseeds`).

    The run is kept as arrays with a leading seed axis: one (S, M + 1, k, d)
    weight array indexed by seed position and model id, whose last model
    slot is the zero model, and (S, M + 1) noise-norm and skip columns
    beside it. A stack gathers its members' biases from it with one
    fancy index and trains as arrays from there (`pberm`), in this process,
    and its noisy weights, noise_l1 and noise_l2 are stored with one
    assignment each. A stack's result depends on its own inputs alone, and
    its biases come from earlier waves, so the order of a wave's stacks
    does not matter. Nothing is charged here: the run's charges are the
    schedule's (`ledger_from_events`).

    A sampled event keeps each point with its probability p. One whose
    subsample is empty is skipped for that seed: it is neither trained nor
    released, and later events regularized on it use its bias model, which
    minimises the empty-data objective lam*||w - bias||^2, so that is
    post-processing. Its charge still stands, since the amplified charge
    covers subsample-then-release whatever the subsample.

    nonprivate=True forces all noise scales to zero. A member that cannot
    be certified raises CertificateError naming its event and its first
    seed: the first such member in wave order. An empty `seeds` raises
    ScheduleError.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ScheduleError("need at least one seed")
    trained = [e for e in schedule.events if not e.adopt]
    for e in trained:
        if e.b >= stream.n:
            raise ScheduleError(f"event at t={e.t} needs point {e.b} beyond stream end")
    ids = [e.model_id for e in trained]
    noise_seeds = _subseeds(seeds, "noise", ids)
    sample_seeds = _subseeds(seeds, "sample", [e.model_id for e in trained if e.sampled_rule])
    zero = 1 + max((e.model_id for e in schedule.events), default=-1)  # the zero model's slot
    weights = np.zeros((len(seeds), zero + 1, stream.k, stream.d))
    noise_l1, noise_l2 = np.zeros((2, len(seeds), zero + 1))
    skip = np.zeros((len(seeds), zero + 1), dtype=bool)
    scale, tau = np.zeros((2, zero + 1))
    source = np.full(zero + 1, zero)  # each model's regularizer
    for e in trained:
        scale[e.model_id] = 0.0 if nonprivate else e.noise_scale
        tau[e.model_id] = e.tau
        if e.reg_source is not None:
            source[e.model_id] = e.reg_source
    every = tuple(range(len(seeds)))  # the seats of a member that serves every seed
    lam = schedule.config.lam

    def member_bytes(n, gathered):
        """What a solve holds for one member of n rows (see _SOLVE_BYTES)."""
        rows = n * (stream.d + stream.k) if gathered else n * stream.k
        return (rows + _SOLVE_ARRAYS * stream.k * stream.d) * 8

    for wave in _waves(trained):
        # whether each unsampled event's seeds have bit-equal biases, each
        # distinct regularizer compared once
        distinct, which = np.unique(source[[e.model_id for e in wave if e.sampled_rule is None]],
                                    return_inverse=True)
        biases = weights[:, distinct].view(np.int64)
        shared = iter((biases == biases[:1]).all(axis=(0, 2, 3))[which].tolist())
        groups = {}  # row count -> [(event, seat positions, rows)] of the pooled members
        stacks = []
        for e in wave:
            if e.sampled_rule is None:
                n, rows = e.b - e.a + 1, range(e.a, e.b + 1)
                members = [(e, every, rows)] if next(shared) else [(e, (i,), rows) for i in every]
                if len(members) * n * stream.d * 8 > _STACK_BYTES:  # read in place
                    stacks += _stacks(members, member_bytes(n, False))
                else:
                    groups.setdefault(n, []).extend(members)
                continue
            for i in every:
                rows = subsample(e.b - e.a + 1, e.p, int(sample_seeds[i, e.model_id])) + e.a
                if len(rows) == 0:  # skipped
                    skip[i, e.model_id] = True
                    weights[i, e.model_id] = weights[i, source[e.model_id]]
                else:
                    groups.setdefault(len(rows), []).append((e, (i,), rows))
        stacks += [stack for n, members in groups.items()
                   for stack in _stacks(members, member_bytes(n, True))]
        for members in stacks:
            mids = np.array([e.model_id for e, _, _ in members])
            first = np.array([seats[0] for _, seats, _ in members])
            # each (seed, event) release: its seat and the member it is a release of
            seat = np.array([i for _, seats, _ in members for i in seats])
            fan = np.array([j for j, (_, seats, _) in enumerate(members) for _ in seats])
            released = mids[fan]
            try:
                result = pberm(weights[first, source[mids]], stream, lam, tau[mids],
                               scale[released], noise_seeds[seat, released],
                               [rows for _, _, rows in members], fan)
            except CertificateError as exc:
                e, seats, _ = members[exc.member]
                where = f"event at t={e.t} on [{e.a}, {e.b}], seed {seeds[seats[0]]}"
                raise CertificateError(exc.iterations, exc.grad_norm, exc.member, where) from None
            weights[seat, released], noise_l1[seat, released], noise_l2[seat, released] = result

    return RunResult(weights, noise_l1, noise_l2, skip)


def _waves(events):
    """Events grouped by dependency wave, each wave in schedule order.

    An event's wave is one more than its regularizer's, and 1 without one;
    a regularizer always comes earlier in the schedule.
    """
    waves, depth = [], {}
    for e in events:
        depth[e.model_id] = 1 if e.reg_source is None else depth[e.reg_source] + 1
        if depth[e.model_id] > len(waves):
            waves.append([])
        waves[depth[e.model_id] - 1].append(e)
    return waves


def _stacks(members, member_bytes):
    """Split members, in order, into near-equal stacks of about _SOLVE_BYTES
    (one member takes member_bytes, so a member above the cap is a stack of
    its own): as many as the members' bytes over the cap, rounded up."""
    count = min(len(members), -(-len(members) * member_bytes // _SOLVE_BYTES))
    size, extra = divmod(len(members), count)
    start = 0
    for j in range(count):
        end = start + size + (j < extra)
        yield members[start:end]
        start = end


def _subseeds(seeds, label: str, model_ids) -> np.ndarray:
    """make_rng(seed, label, model_id).integers(0, 2**63 - 1) for every seed
    and model id, derived in one vectorised call (`rng.stream_keys`,
    `rng.first_integers`), as an int64 array indexed [seed position, model
    id]. Each label's 63-bit subseeds seed an independent stream (noise,
    sample) per (seed, model)."""
    ids = np.array(model_ids, dtype=np.int64)
    out = np.zeros((len(seeds), ids.max(initial=-1) + 1), dtype=np.int64)
    keys = stream_keys([seed for seed in seeds for _ in ids], label, np.tile(ids, len(seeds)))
    out[:, ids] = first_integers(keys).reshape(len(seeds), len(ids))
    return out


# Each scheduler name's builder, a function of its config and the stream length T.
_BUILDERS = {
    "multires": _multires, "multires-sample": _multires,
    "continual": _continual, "continual-sample": _continual,
    "sliding": _sliding, "sliding-sample": _sliding,
    "baseline-independent": _baseline_independent, "baseline-basic": _baseline_basic,
}
SCHEDULERS = tuple(_BUILDERS)


def build_schedule(cfg: SchedulerConfig, T: int) -> Schedule:
    """Construct the schedule cfg names for a stream of length T, from cfg
    alone: cfg.L must already be resolved (see SchedulerConfig), and each
    block size the scheduler reads (`REQUIRES`) given."""
    builder = _BUILDERS.get(cfg.name)
    if builder is None:
        raise ScheduleError(f"unknown scheduler {cfg.name!r}")
    for field in REQUIRES[cfg.name.removesuffix("-sample")]:
        if getattr(cfg, field) is None:
            raise ScheduleError(f"scheduler {cfg.name} requires {field}")
    return builder(replace(cfg, eps=Fraction(cfg.eps)), T)


def trace_record(e: EventSpec) -> dict:
    return {
        "t": e.t,
        "kind": e.kind,
        "level": e.level,
        "a": e.a,
        "b": e.b,
        "reg_source": e.reg_source,
        "noise_scale": e.noise_scale,
        "sampled_p": e.p,
        "eps_num": e.eps.numerator,
        "eps_den": e.eps.denominator,
        "model_id": e.model_id,
    }


def trace_header(schedule: Schedule) -> dict:
    """The first line of a trace: the scheduler (its config's name without
    `-sample`), its eps (as eps_num and
    eps_den, like an event's charge), its budgets, each an exact
    [numerator, denominator] pair, and the lambda, Lipschitz constant and
    tolerance share (`mechanisms.TAU_SHARE`) its events are calibrated
    with."""
    cfg = schedule.config
    return {
        "scheduler": cfg.name.removesuffix("-sample"),
        "eps_num": cfg.eps.numerator,
        "eps_den": cfg.eps.denominator,
        "budgets": {sub: [b.numerator, b.denominator] for sub, b in schedule.budgets.items()},
        "lam": cfg.lam,
        "L": cfg.L,
        "tau_share": TAU_SHARE,
    }


# One event's trace line: json.dumps(trace_record(e)), field for field.
_TRACE_LINE = ('{{"t": {}, "kind": "{}", "level": {}, "a": {}, "b": {}, "reg_source": {}, '
               '"noise_scale": {}, "sampled_p": {}, "eps_num": {}, "eps_den": {}, '
               '"model_id": {}}}\n')


def _json_scalar(v) -> str:
    """json.dumps(v) for None, an int or a float, numpy's float64 included
    (whose repr under numpy 2 is not the float's)."""
    if v is None:
        return "null"
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else json.dumps(float(v))
    return int.__repr__(v)


def export_trace(schedule: Schedule, path=None):
    """Write the schedule's trace to path, or to standard output without one:
    its `trace_header`, then one `trace_record` per event, one JSON object a
    line, written from a template with the bytes json.dumps gives.
    `ledger_from_trace` reads it back."""
    with open(path, "w") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(trace_header(schedule)) + "\n")
        for e in schedule.events:
            fh.write(_TRACE_LINE.format(
                e.t, e.kind, _json_scalar(e.level), e.a, e.b, _json_scalar(e.reg_source),
                _json_scalar(e.noise_scale), _json_scalar(e.p),
                e.eps.numerator, e.eps.denominator, e.model_id))


_JSON_INT = r"-?(?:0|[1-9][0-9]*)"
_JSON_FLOAT = _JSON_INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|-?Infinity"
# Each field's JSON grammar as export_trace writes it, captured for the columns
# a ledger is charged from; and whole event lines, `_TRACE_LINE` with each
# placeholder made its field's grammar: json.loads takes a line it matches.
_TRACE_FIELDS = {name: f"({_JSON_INT})" for name in ("t", "a", "b", "eps_num", "eps_den")} | {
    "kind": f"({'|'.join(KIND_SUBSYSTEM)})", "level": f"{_JSON_INT}|null",
    "reg_source": f"{_JSON_INT}|null", "noise_scale": _JSON_FLOAT,
    "sampled_p": f"{_JSON_FLOAT}|null", "model_id": _JSON_INT}
_TRACE_PATTERN = re.compile("^" + "".join(
    re.escape(lit) + ("(?:%s)" % _TRACE_FIELDS[re.findall(r"\w+", lit)[-1]] if field == "" else "")
    for lit, field, _, _ in string.Formatter().parse(_TRACE_LINE)), re.MULTILINE)
_TRACE_CHUNK = 1 << 20  # characters of trace lines ledger_from_trace matches at once


def ledger_from_trace(path) -> tuple[Fraction, Ledger]:
    """The eps and the budgeted ledger of a trace `export_trace` wrote.

    Line 1 must be the header. Its budgets are checked by value: they must
    be the `schedule_budgets` of the scheduler it names at its eps (for
    continual, with or without standalone bases), or a LedgerError naming
    line 1 says they are not. Each later line is an event, charged to its
    kind's subsystem with the kind as mechanism; a zero charge is skipped. A line that does not parse, or an event of a
    subsystem the header has no budget for, raises LedgerError naming its
    line number. A byte that is not UTF-8 is read as a lone surrogate, which
    no field's grammar takes and json.loads refuses once the line is encoded.

    The events are matched by `_TRACE_PATTERN`, the writer's own template, in
    chunks of `_TRACE_CHUNK` characters and charged as columns. If a line does
    not match or the ledger refuses a chunk, `_ledger_by_lines` reads them all
    again.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        try:
            head = json.loads(fh.readline().encode())
            name = head["scheduler"]
            eps = Fraction(head["eps_num"], head["eps_den"])
            budgets = {sub: Fraction(num, den) for sub, (num, den) in head["budgets"].items()}
        except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise LedgerError(f"trace line 1 is not a trace header: {exc!r}") from exc
        if not isinstance(name, str) or name not in _BUDGETS:
            raise LedgerError(f"trace line 1 names no schedule: {name!r}")
        if eps <= 0:
            raise LedgerError(f"trace line 1 has an invalid eps: {eps}")
        rules = [schedule_budgets(name, eps, standalone) for standalone in (False, True)]
        if budgets not in rules:
            shown = ["{" + ", ".join(f"{sub}: {b}" for sub, b in rule.items()) + "}"
                     for rule in (budgets, *rules)]
            raise LedgerError(f"trace line 1 budgets {shown[0]} are not those of a {name} "
                              f"schedule of eps {eps}: {' or '.join(dict.fromkeys(shown[1:]))}")
        try:
            return eps, _ledger_by_template(fh, budgets)
        except (ValueError, ArithmeticError):
            pass
        fh.seek(0)
        fh.readline()
        return eps, _ledger_by_lines(fh, budgets)


def _ledger_by_template(fh, budgets) -> Ledger:
    """The ledger of the event lines left in fh. Raises ValueError or
    ArithmeticError on a line `_TRACE_PATTERN` does not match, a value past
    int64, a zero denominator or an event without a budget."""
    ledger = Ledger(budgets=budgets)
    tail = ""
    for chunk in iter(functools.partial(fh.read, _TRACE_CHUNK), ""):
        text, _, tail = (tail + chunk).rpartition("\n")
        text += "\n"  # an empty line if no line ends in the chunk
        rows = _TRACE_PATTERN.findall(text)
        if len(rows) != text.count("\n"):
            raise ValueError("a line does not match the trace template")
        t, kinds, a, b, num, den = zip(*rows)
        cols = np.array((t, a, b, num, den), dtype=np.int64)
        if not cols[4].all() or not {KIND_SUBSYSTEM[k] for k in set(kinds)} <= budgets.keys():
            raise ValueError("an event has a zero denominator or no budget")
        if not cols[3].all():  # a zero charge is skipped
            keep = cols[3] != 0
            cols, kinds = cols[:, keep], list(itertools.compress(kinds, keep))
        t, a, b, num, den = cols
        ledger.extend(a, b, num, den, [KIND_SUBSYSTEM[kind] for kind in kinds], t, kinds)
    if tail:
        raise ValueError("the last line does not end in a newline")
    return ledger


def _ledger_by_lines(fh, budgets) -> Ledger:
    """Charge each event line left in fh on its own; a LedgerError names the
    first bad line."""
    ledger = Ledger(budgets=budgets)
    for lineno, line in enumerate(fh, start=2):
        try:
            rec = json.loads(line.encode())
            sub = KIND_SUBSYSTEM[rec["kind"]]
            if sub not in budgets:
                raise LedgerError(f"the header has no {sub} budget")
            charge = Fraction(rec["eps_num"], rec["eps_den"])
            if charge != 0:
                ledger.charge((rec["a"], rec["b"]), charge, sub, rec["t"], rec["kind"])
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise LedgerError(f"malformed trace line {lineno}: {exc}") from exc
    return ledger
