"""Release schedules: multi-resolution, continual cumulative, sliding window.

Schedules are generated as pure, RNG-free event lists (so they can be
inspected, diffed and charged to a ledger without touching data), then
executed against a stream by `execute`, which trains and perturbs models.

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
import operator
import os
import pickle
import signal
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .erm import Dataset, DivergenceError, TrainConfig
from .ledger import SUBSYSTEMS, Ledger, LedgerError
from .mechanisms import laplace_scale, pberm, sampling_probability, subsample
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
    """One model training/adoption with its interval, noise and exact charge."""

    t: int
    kind: str
    level: int | None
    a: int
    b: int
    eps: Fraction
    noise_scale: float
    model_id: int
    reg_source: int | None = None  # None: trained toward the zero model
    adopt: bool = False  # released, not trained: a continual base adopts a multires model
    side: str | None = None  # sliding: base | left | right
    sampled_rule: str | None = None  # exp_formula | reciprocal, at this event's level

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


@dataclass(frozen=True)
class Schedule:
    name: str
    events: tuple
    releases: tuple  # (t, model_id) pairs in time order, each once
    eps: Fraction  # the eps the schedule was built for
    budgets: dict  # subsystem -> the most one point may be charged in it
    lam: float  # the lambda the events' noise is calibrated for, and trained with


def _event(lam, L, t, kind, level, a, b, eps, model_id, sampled_rule=None, adopt=False,
           scale=None, reg_source=None, side=None) -> EventSpec:
    """An event on [a, b] charged eps, with the Laplace scale that charge
    buys (`laplace_scale`, unless the caller passes it as scale); an adopted
    model is not trained and has none."""
    if scale is None:
        scale = 0.0 if adopt else laplace_scale(
            L, lam, b - a + 1, eps, level if sampled_rule else None)
    return EventSpec(t, kind, level, a, b, eps, scale, model_id, reg_source, adopt, side,
                     sampled_rule)


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


def multires_schedule(T, B, eps, lam, L, sampled=False, _ids=None) -> Schedule:
    if B < 1:
        raise ScheduleError("B must be >= 1")
    eps = Fraction(eps)
    ids = _ids if _ids is not None else itertools.count()
    rule = "exp_formula" if sampled else None
    events = [
        _event(lam, L, t, "MultiRes", k, a, b, eps / (2 * 2**k), next(ids), rule)
        for t in range(B, T, B) for k, (a, b) in multires_events_at(t, B)
    ]
    releases = tuple((e.t, e.model_id) for e in events)
    return Schedule("multires", tuple(events), releases, eps, {"multires": eps}, lam)


def continual_schedule(
    T, B, b0, eps, lam, L, sampled=False, standalone_base=False, first_base_at_2B=False
) -> Schedule:
    """Continual cumulative updates riding on an embedded multi-res schedule.

    Base steps at t = 2^k*B adopt the multi-res model over the prefix (no
    continual charge); large updates at t - t_g = 2^j*b0 retrain on the whole
    gap against the base model; other multiples of b0 are small updates
    against the latest checkpoint. With standalone_base=True the bases are
    trained directly (multi-res-style fixed noise, charged under continual)
    and no multi-res events are emitted.
    """
    if b0 < 1 or B < b0 or B % b0:
        raise ScheduleError("need 1 <= b0 <= B with B a multiple of b0")
    eps = Fraction(eps)
    event = functools.partial(_event, lam, L)
    ids = itertools.count()
    events = []
    releases = []
    multires_prefix = {}  # base time -> adopted model id
    if not standalone_base:
        mr = multires_schedule(T, B, eps, lam, L, sampled=False, _ids=ids)
        events.extend(mr.events)
        releases.extend(mr.releases)
        for e in mr.events:
            if e.a == 0 and e.t == e.b + 1:
                multires_prefix[e.t] = e.model_id

    t_g = None
    f_g = f_c = None
    min_ratio = 2 if first_base_at_2B else 1
    for t in range(B, T):
        ratio = t // B
        if t % B == 0 and _is_pow2(ratio) and ratio >= min_ratio:
            k = ratio.bit_length() - 1
            if standalone_base:
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
                           "exp_formula" if sampled else None, reg_source=f_g)
                f_c = ev.model_id
            else:
                ev = event(t, "SmallUpdate", None, t - b0, t - 1, eps / 2, next(ids),
                           reg_source=f_c)
            events.append(ev)
            releases.append((t, ev.model_id))
    budgets = {"continual": 2 * eps if standalone_base else eps}
    if not standalone_base:
        budgets["multires"] = eps
    # merge the embedded multires releases into time order; an adopted base
    # is the multires model released at the same step, so it is listed once
    releases = sorted(dict.fromkeys(releases), key=lambda r: r[0])
    return Schedule("continual", tuple(events), tuple(releases), eps, budgets, lam)


def baseline_independent_schedule(T, b0, eps, lam, L) -> Schedule:
    """Each disjoint b0 batch trained and sanitized on its own, eps/2 apiece.

    No regularization lineage: every batch model is biased toward zero, so
    each release depends on exactly one batch of data.
    """
    eps = Fraction(eps)
    ids = itertools.count()
    events = [_event(lam, L, t, "BaselineIndependent", None, t - b0, t - 1, eps / 2, next(ids))
              for t in range(b0, T, b0)]
    return Schedule(
        "baseline-independent", tuple(events),
        tuple((e.t, e.model_id) for e in events), eps, {"baseline": eps}, lam,
    )


def baseline_basic_cumulative_schedule(T, B, b0, eps, lam, L) -> Schedule:
    """Cumulative retrain at t = 2^k*B, small b0 updates against the previous model."""
    if b0 < 1 or B < b0 or B % b0:
        raise ScheduleError("need 1 <= b0 <= B with B a multiple of b0")
    eps = Fraction(eps)
    event = functools.partial(_event, lam, L)
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
    return Schedule(
        "baseline-basic", tuple(events),
        tuple((e.t, e.model_id) for e in events), eps, {"baseline": 2 * eps}, lam,
    )


@dataclass
class _Bucket:
    a: int
    b: int
    blocks: int  # size in units of w0
    side: str
    model_id: int | None = None


def window_shape(w: int, w0: int) -> int:
    """Validate w = (2^k - 1) * w0 with k >= 2 and return k."""
    if w0 < 1 or w % w0:
        raise ScheduleError(f"w={w} must be a multiple of w0={w0}")
    blocks = w // w0 + 1
    if not _is_pow2(blocks) or blocks < 4:
        raise ScheduleError(f"w={w} must equal (2^k - 1)*w0 with k >= 2, got w0={w0}")
    return blocks.bit_length() - 1


def _decompose(a: int, b: int, w0: int) -> list[_Bucket]:
    """Split [a, b] (holding 2^m - 1 blocks) oldest-to-newest into sizes 1,2,4,..."""
    out = []
    pos, size = a, 1
    while pos <= b:
        out.append(_Bucket(pos, pos + size * w0 - 1, size, "left"))
        pos += size * w0
        size *= 2
    return out


def _sliding_steps(T, w, w0):
    """The sliding window's release steps on a stream of length T.

    Yields (t, kind, chain, trained) per step: chain is the window's
    buckets after the step in descending size order (base first, sizes are
    disjoint), and trained the (position in chain, bucket) pairs retrained
    at it, exactly the buckets whose interval changed, each given the next
    model id. The buckets are reused from step to step, so read each step
    before the next.
    """
    k = window_shape(w, w0)
    base_blocks = 2 ** (k - 1)
    cap = base_blocks - 1  # side capacity in w0-blocks
    ids = itertools.count()
    left: list[_Bucket] = []
    base: _Bucket | None = None
    right: list[_Bucket] = []

    def step(t, kind, to_train):
        chain = [base] + sorted(left + right, key=lambda bk: -bk.blocks)
        wanted = {id(bk) for bk in to_train}
        trained = [(idx, bk) for idx, bk in enumerate(chain) if id(bk) in wanted]
        for _, bucket in trained:
            bucket.model_id = next(ids)
        return t, kind, chain, trained

    def init_window(t, kind):
        nonlocal base, left, right
        start = t - w + 1
        if kind == "WindowInit":
            base = _Bucket(start + cap * w0, t, base_blocks, "base")
            left = _decompose(start, start + cap * w0 - 1, w0)
        else:  # refresh: new base from the right region plus the new block
            old_base = base
            base = _Bucket(old_base.b + 1, t, base_blocks, "base")
            left = _decompose(old_base.b - cap * w0 + 1, old_base.b, w0)
        right = []
        return step(t, kind, [base] + left)

    first = w - 1
    if T <= first:
        return
    yield init_window(first, "WindowInit")
    for t in range(first + w0, T, w0):
        if _len_blocks(right) == cap:
            yield init_window(t, "WindowRefresh")
            continue
        # binary increment on the right with the new w0 block
        carry = _Bucket(t - w0 + 1, t, 1, "right")
        while right and right[-1].blocks == carry.blocks:
            prev = right.pop()
            carry = _Bucket(prev.a, carry.b, prev.blocks * 2, "right")
        right.append(carry)
        to_train = [carry]
        # binary decrement on the left: the oldest w0 block leaves the window
        if left:
            oldest = left[0]
            if oldest.blocks == 1:
                left.pop(0)
            else:
                left = _decompose(oldest.a + w0, oldest.b, w0) + left[1:]
                to_train.extend(left[: _decount(oldest.blocks)])
        yield step(t, "WindowAdvance", to_train)


def sliding_schedule(T, w, w0, eps, lam, L, sampled=False) -> Schedule:
    """Sliding-window release with a binary bucket structure on either side
    of the base bucket; retrains exactly the buckets whose interval changed
    (`_sliding_steps`), each regularized on the next larger bucket's
    (possibly just retrained) model, and releases the smallest bucket's.
    """
    k = window_shape(w, w0)
    eps = Fraction(eps)
    event = functools.partial(_event, lam, L)
    # A side bucket of 2^j blocks spans 2^j * w0 points, so its charge, rule
    # and Laplace scale depend on j alone: each level's are worked out once.
    levels = []
    for j in range(k - 1):
        charge, rule = eps / (6 * 2**j), "reciprocal" if sampled and j > 0 else None
        levels.append((charge, rule, laplace_scale(L, lam, 2**j * w0, charge,
                                                   j if rule else None)))
    events, releases = [], []
    for t, kind, chain, trained in _sliding_steps(T, w, w0):
        for idx, bucket in trained:
            if idx == 0:  # the base
                events.append(event(t, kind, k - 1, bucket.a, bucket.b, eps / 3,
                                    bucket.model_id, side="base"))
            else:
                j = bucket.blocks.bit_length() - 1
                charge, rule, scale = levels[j]
                events.append(event(t, kind, j, bucket.a, bucket.b, charge, bucket.model_id,
                                    rule, scale=scale, reg_source=chain[idx - 1].model_id,
                                    side=bucket.side))
        releases.append((t, chain[-1].model_id))
    return Schedule("sliding", tuple(events), tuple(releases), eps, {"sliding": eps}, lam)


def sliding_chain(T, w, w0) -> tuple:
    """The sliding window's dependency chain after each release step of
    `sliding_schedule(T, w, w0, ...)`, as ChainStates, from the same steps
    (`_sliding_steps`)."""
    return tuple(
        ChainState(t, tuple((bk.a, bk.b, bk.side, bk.model_id) for bk in chain),
                   tuple(bk.model_id for _, bk in trained), chain[-1].model_id)
        for t, _, chain, trained in _sliding_steps(T, w, w0))


def _len_blocks(buckets) -> int:
    return sum(bk.blocks for bk in buckets)


def _decount(blocks: int) -> int:
    """Number of buckets produced when a bucket of `blocks` loses one block."""
    return (blocks - 1).bit_length()


def ledger_from_events(events, budgets) -> Ledger:
    """Charge a fresh ledger from a schedule (dry run: no data, no RNG)."""
    charged = [e for e in events if e.eps > 0]
    ledger = Ledger(budgets=dict(budgets))
    ledger.extend([e.a for e in charged], [e.b for e in charged],
                  [e.eps.numerator for e in charged], [e.eps.denominator for e in charged],
                  [e.subsystem for e in charged], [e.t for e in charged],
                  [e.kind if e.side is None else f"{e.kind}/{e.side}" for e in charged])
    return ledger


@dataclass(eq=False)
class RunResult:
    """One seed's run of a schedule (`execute`), as arrays indexed by model id.

    weights[mid] is model mid's released, noisy, weights, or for an event
    skipped on an empty subsample its bias model; the last slot is the zero
    model that an event without a regularizer trains toward. noise_l1,
    noise_l2, noise_scale and noise_seed hold each model's noise norms, its
    Laplace scale and its noise seed, zero norms and scale where it was
    released unperturbed; skip marks the skipped events.
    """

    events: tuple  # the trained (not adopted) events, in schedule order
    weights: np.ndarray  # (M + 1, k, d)
    noise_l1: np.ndarray
    noise_l2: np.ndarray
    noise_scale: np.ndarray
    noise_seed: np.ndarray
    skip: np.ndarray
    schedule_releases: tuple

    @property
    def releases(self) -> list:
        """The schedule's (t, model id) releases, less the skipped models."""
        return [(t, mid) for t, mid in self.schedule_releases if not self.skip[mid]]


# A lockstep SGD call holds an (members, m, d) float64 minibatch and
# (members, k, d) weight stacks. A wave's members are stacked up to about
# this many bytes of both, counted as members * (m + k) * d * 8. Larger
# stacks gain little and raise the peak RSS: at d=20, k=3, m=256 a step
# takes about 23-26 us per member at 4 members, 18-23 at 8 and 20-25 at 16
# (one BLAS thread, 2-vCPU VM). A member above the cap alone is
# compute-bound: numpy's gather, products and exponentials dominate its
# call, and stacking it with others trains no faster, so it is a call of
# its own.
_STACK_BYTES = 160 << 10

# Lanes a wave's stacks are dealt over: the calling process and
# _WORKERS - 1 processes forked for the wave, one lane per CPU the process
# may run on, and one lane where os.fork does not exist.
_WORKERS = ((len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1) if hasattr(os, "fork") else 1)


def execute(
    schedule: Schedule,
    stream: Dataset,
    train_cfg: TrainConfig,
    nonprivate: bool = False,
    seeds=None,
):
    """Run a schedule against a stream: train and perturb its models.

    With seeds=None this runs train_cfg.seed and returns its RunResult;
    given a sequence of seeds it returns one RunResult per seed. The
    schedule is RNG-free, so every seed trains the same events on the same
    slices, and events are trained in dependency waves: an event's wave is
    one more than its `reg_source`'s, and events without one are wave 1, so
    the events of a wave are independent of each other. Each wave's (event,
    seed) members are grouped by minibatch size min(minibatch, n), and each
    group is trained in lockstep by `pberm` with the schedule's lambda
    toward each member's regularizer (the zero model without one), one call
    per stack (`_stacks`). Members read the whole stream: an interval as a
    range, a subsample as its kept row indices. A seed's subsample, SGD and
    noise streams derive from that seed and the model id alone, so its
    result equals a run of that seed by itself, event by event; the
    subseeds of every (event, seed) are derived up front, one vectorised
    call per label (`_subseeds`), and a stack's noise is one draw.

    The run is kept as arrays: per seed, one (M + 1, k, d) weight array
    indexed by model id, whose last slot is the zero model, and noise-norm
    columns beside it. A stack gathers its members' biases from it with one
    fancy index and trains as arrays from there (`pberm`). A stack's result
    depends on its own inputs alone, so the stacks of a wave may train in
    any order and in any process. They are dealt round-robin over
    `_WORKERS` lanes (`_map_lanes`): lane 0 trains in the calling process
    while each other lane trains in a process forked for it, which sees
    every earlier wave's models through the fork and sends back each
    stack's noisy weights, noise_l1 and noise_l2 as three arrays. After
    each wave, each stack's reply is stored with one assignment, bit for
    bit what a serial run stores. Nothing is charged here: the run's
    charges are the schedule's (`ledger_from_events`).

    A sampled event keeps each point with its `event_probability`. One whose
    subsample is empty is skipped for that seed: it is neither trained nor
    released, and later events regularized on it use its bias model, which
    minimises the empty-data objective lam*||w - bias||^2, so that is
    post-processing. Its charge still stands, since the amplified charge
    covers subsample-then-release whatever the subsample.

    nonprivate=True forces all noise scales to zero. A DivergenceError names
    the event and seed of the first diverged member in wave order, whichever
    lane finishes first.
    """
    single = seeds is None
    seeds = (train_cfg.seed,) if single else tuple(seeds)
    trained = [e for e in schedule.events if not e.adopt]
    for e in trained:
        if e.b >= stream.n:
            raise ScheduleError(f"event at t={e.t} needs point {e.b} beyond stream end")
    ids = [e.model_id for e in trained]
    train_seeds = _subseeds(seeds, "train", ids)
    noise_seeds = _subseeds(seeds, "noise", ids)
    sample_seeds = _subseeds(seeds, "sample", [e.model_id for e in trained if e.sampled_rule])
    zero = 1 + max((e.model_id for e in schedule.events), default=-1)  # the zero model's slot
    weights = np.zeros((len(seeds), zero + 1, stream.k, stream.d))
    noise_l1, noise_l2 = np.zeros((2, len(seeds), zero + 1))
    skip = np.zeros((len(seeds), zero + 1), dtype=bool)
    scale = np.zeros(zero + 1)
    source = np.full(zero + 1, zero)  # each model's regularizer
    for e in trained:
        scale[e.model_id] = 0.0 if nonprivate else e.noise_scale
        if e.reg_source is not None:
            source[e.model_id] = e.reg_source

    def train(stack):
        """pberm over one stack: its noisy (members, k, d) weights, noise_l1
        and noise_l2, or a DivergenceError naming its first diverged member."""
        members, seat, mids = stack
        try:
            return pberm(weights[seat, source[mids]], stream, schedule.lam, train_cfg,
                         scale[mids], noise_seeds[seat, mids], train_seeds[seat, mids],
                         [rows for _, _, rows in members])
        except DivergenceError as exc:
            e, i, _ = members[exc.member]
            return DivergenceError(exc.iteration, exc.member,
                                   f"event at t={e.t} on [{e.a}, {e.b}], seed {seeds[i]}")

    for wave in _waves(trained):
        groups = {}  # minibatch size -> [(event, seed position, rows)]
        for e in wave:
            if e.sampled_rule is None:
                event_rows = [range(e.a, e.b + 1)] * len(seeds)
            else:
                p = event_probability(e)
                event_rows = [subsample(e.b - e.a + 1, p, int(sample_seeds[i, e.model_id]))
                              + e.a for i in range(len(seeds))]
            for i, rows in enumerate(event_rows):
                if len(rows) == 0:  # skipped
                    skip[i, e.model_id] = True
                    weights[i, e.model_id] = weights[i, source[e.model_id]]
                else:
                    groups.setdefault(min(train_cfg.minibatch, len(rows)), []).append(
                        (e, i, rows))
        stacks = [(stack, np.array([i for _, i, _ in stack]),
                   np.array([e.model_id for e, _, _ in stack]))
                  for m, members in groups.items()
                  for stack in _stacks(members, (m + stream.k) * stream.d * 8)]
        for (_, seat, mids), result in zip(stacks, _map_lanes(train, stacks)):
            if isinstance(result, DivergenceError):
                raise result
            weights[seat, mids], noise_l1[seat, mids], noise_l2[seat, mids] = result

    events = tuple(trained)
    runs = [RunResult(events, weights[i], noise_l1[i], noise_l2[i], scale, noise_seeds[i],
                      skip[i], schedule.releases) for i in range(len(seeds))]
    return runs[0] if single else runs


def _map_lanes(fn, items) -> list:
    """[fn(x) for x in items], with the items dealt round-robin over
    `_WORKERS` lanes that run concurrently.

    Lane 0 runs in this process. Each other non-empty lane runs in a child
    forked for it, which sends its results back through a pipe, pickled,
    and leaves through os._exit. The parent closes each write end before
    the next fork, so that no later child holds it open and each read ends
    at its child's EOF. An exception raised in a child is raised again here
    with its type and message; a child that exits without sending its
    results raises ChildProcessError naming the lane and its exit status.
    Every child is reaped and every pipe closed before this returns or
    raises: the children still running when this raises first are killed.
    A fork copies the calling thread alone, so a lock another thread holds
    would stay held in the child forever: while the process runs any other
    Python thread, every item runs here. execute starts none.
    """
    workers = _WORKERS if threading.active_count() == 1 else 1
    lanes = [range(n, len(items), workers) for n in range(workers)]
    results = [None] * len(items)
    children = []  # (lane, pid, read end) of each child not yet reaped
    try:
        for n, lane in enumerate(lanes[1:], start=1):
            if not lane:
                continue
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: never returns
                status = 1
                try:
                    os.close(r)
                    try:
                        reply = (True, [fn(items[j]) for j in lane])
                    except Exception as exc:
                        reply = (False, exc)
                    data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                    with open(w, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((n, pid, r))
        for j in lanes[0]:
            results[j] = fn(items[j])
        while children:
            n, pid, r = children.pop(0)
            try:
                with open(r, "rb") as fh:
                    data = fh.read()
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise ChildProcessError(f"lane {n} exited with status {code} without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            for j, result in zip(lanes[n], value):
                results[j] = result
    finally:
        for _, pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


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
    """Split members, in order, into near-equal stacks of about _STACK_BYTES
    (one member takes member_bytes, so a member above the cap is a stack of
    its own). Their count is the members' bytes over the cap, rounded up to
    a multiple of _WORKERS, so that the lanes get equal shares, but never
    more than one stack a member."""
    count = -(-len(members) * member_bytes // _STACK_BYTES)
    count = min(len(members), -(-count // _WORKERS) * _WORKERS)
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
    id]. Each label's 63-bit subseeds seed an independent stream (train,
    noise, sample) per (seed, model)."""
    ids = np.array(model_ids, dtype=np.int64)
    out = np.zeros((len(seeds), ids.max(initial=-1) + 1), dtype=np.int64)
    keys = stream_keys([seed for seed in seeds for _ in ids], label, np.tile(ids, len(seeds)))
    out[:, ids] = first_integers(keys).reshape(len(seeds), len(ids))
    return out


def build_schedule(cfg: SchedulerConfig, T: int) -> Schedule:
    """Construct the schedule cfg names for a stream of length T."""
    sampled = cfg.name.endswith("-sample")
    if cfg.name in ("multires", "multires-sample"):
        return multires_schedule(T, cfg.B, cfg.eps, cfg.lam, cfg.L, sampled)
    if cfg.name in ("continual", "continual-sample"):
        return continual_schedule(
            T, cfg.B, cfg.b0, cfg.eps, cfg.lam, cfg.L, sampled,
            standalone_base=cfg.standalone_base, first_base_at_2B=cfg.first_base_at_2B,
        )
    if cfg.name in ("sliding", "sliding-sample"):
        return sliding_schedule(T, cfg.w, cfg.w0, cfg.eps, cfg.lam, cfg.L, sampled)
    if cfg.name == "baseline-independent":
        return baseline_independent_schedule(T, cfg.b0, cfg.eps, cfg.lam, cfg.L)
    if cfg.name == "baseline-basic":
        return baseline_basic_cumulative_schedule(T, cfg.B, cfg.b0, cfg.eps, cfg.lam, cfg.L)
    raise ScheduleError(f"unknown scheduler {cfg.name!r}")


def event_probability(e: EventSpec) -> float | None:
    """Inclusion probability of a sampled event's points, else None."""
    if e.sampled_rule is None:
        return None
    # an exp_formula event is charged the schedule's eps / (2 * 2^level);
    # reciprocal does not read eps
    return sampling_probability(e.sampled_rule, e.level, float(e.eps * 2 * 2**e.level))


def trace_record(e: EventSpec) -> dict:
    return {
        "t": e.t,
        "kind": e.kind,
        "level": e.level,
        "a": e.a,
        "b": e.b,
        "reg_source": e.reg_source,
        "noise_scale": e.noise_scale,
        "sampled_p": event_probability(e),
        "eps_num": e.eps.numerator,
        "eps_den": e.eps.denominator,
        "model_id": e.model_id,
    }


def trace_header(schedule: Schedule) -> dict:
    """The first line of a trace: the scheduler, its eps (as eps_num and
    eps_den, like an event's charge) and its budgets, each an exact
    [numerator, denominator] pair."""
    return {
        "scheduler": schedule.name,
        "eps_num": schedule.eps.numerator,
        "eps_den": schedule.eps.denominator,
        "budgets": {sub: [b.numerator, b.denominator] for sub, b in schedule.budgets.items()},
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
                _json_scalar(e.noise_scale), _json_scalar(event_probability(e)),
                e.eps.numerator, e.eps.denominator, e.model_id))


# Event lines ledger_from_trace decodes per json.loads call.
_TRACE_LINES = 4096


def ledger_from_trace(path) -> tuple[Fraction, Ledger]:
    """The eps and the budgeted ledger of a trace `export_trace` wrote.

    Line 1 must be the header, which gives the budgets. Each later line is
    an event, charged to its kind's subsystem with the kind as mechanism; a
    zero charge is skipped. A line that does not parse, or an event of a
    subsystem the header has no budget for, raises LedgerError naming its
    line number.

    The events are read in bulk: every `_TRACE_LINES` lines are joined into
    one JSON array, which must hold one object a line, and their fields are
    checked and charged as columns. If anything fails there, the events are
    read again line by line to name the first bad line.
    """
    with open(path) as fh:
        try:
            head = json.loads(fh.readline())
            eps = Fraction(head["eps_num"], head["eps_den"])
            budgets = {sub: Fraction(num, den) for sub, (num, den) in head["budgets"].items()}
        except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise LedgerError(f"trace line 1 is not a trace header: {exc!r}") from exc
        if eps <= 0 or not budgets or any(
                sub not in SUBSYSTEMS or b <= 0 for sub, b in budgets.items()):
            raise LedgerError(f"trace line 1 has an invalid eps or budgets: {head}")
        body = fh.tell()
        ledger = Ledger(budgets=budgets)
        try:
            for lines in iter(lambda: list(itertools.islice(fh, _TRACE_LINES)), []):
                _charge_trace_lines(ledger, lines)
            return eps, ledger
        except (KeyError, ValueError, TypeError, ArithmeticError):
            pass
        ledger = Ledger(budgets=budgets)
        fh.seek(body)
        for lineno, line in enumerate(fh, start=2):
            try:
                rec = json.loads(line)
                sub = KIND_SUBSYSTEM[rec["kind"]]
                if sub not in budgets:
                    raise LedgerError(f"the header has no {sub} budget")
                charge = Fraction(rec["eps_num"], rec["eps_den"])
                if charge != 0:
                    ledger.charge((rec["a"], rec["b"]), charge, sub, rec["t"], rec["kind"])
            except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
                raise LedgerError(f"malformed trace line {lineno}: {exc}") from exc
    return eps, ledger


def _charge_trace_lines(ledger: Ledger, lines: list[str]):
    """Charge the events of some trace lines to the ledger at once, as the
    line-by-line reader would; raise on anything it might not accept.

    The lines are decoded as one JSON array. Each must end in "}", and the
    text must hold one "{" a line and as many values as lines. A JSON
    string holds no raw newline, so every "}" that ends a line closes an
    event, and no event spans two lines or shares one.
    """
    text = ",".join(lines)
    if (text.count("{") != len(lines) or text.count("}\n,") != len(lines) - 1
            or not text.endswith(("}", "}\n"))):
        raise ValueError("the lines do not hold one event each")
    recs = json.loads("[" + text + "]")
    if len(recs) != len(lines):
        raise ValueError("the lines do not hold one event each")
    cols = list(zip(*map(operator.itemgetter("t", "a", "b", "eps_num", "eps_den", "kind"), recs)))
    cols.append([KIND_SUBSYSTEM[kind] for kind in cols[5]])
    if not set(cols[6]) <= ledger.budgets.keys():
        raise ValueError("an event has no budget")
    if 0 in cols[3]:  # a zero charge is skipped, its denominator still checked
        keep = [type(num) is not int or num != 0 for num in cols[3]]
        if not all(type(den) is int and den != 0
                   for den, kept in zip(cols[4], keep) if not kept):
            raise ValueError("a zero charge has a bad denominator")
        cols = [list(itertools.compress(col, keep)) for col in cols]
    t, a, b, num, den, kinds, subs = cols
    ledger.extend(a, b, num, den, subs, t, kinds)
