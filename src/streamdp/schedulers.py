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
import re
import string
import sys
from contextlib import nullcontext
from dataclasses import dataclass
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
    and the gradient norm tau its solve stops at (`mechanisms.solve_tolerance`)."""

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
    L: float  # the Lipschitz constant the events' noise and tolerances are calibrated for


def _event(lam, L, t, kind, level, a, b, eps, model_id, sampled_rule=None, adopt=False,
           scale=None, tau=None, reg_source=None, side=None) -> EventSpec:
    """An event on [a, b] charged eps, with the Laplace scale that charge
    buys and the tolerance of its solve (`laplace_scale`, `solve_tolerance`,
    unless the caller passes them as scale and tau); an adopted model is
    not trained and has neither."""
    if adopt:
        scale = tau = 0.0
    elif scale is None:
        scale = laplace_scale(L, lam, b - a + 1, eps, level if sampled_rule else None)
        tau = solve_tolerance(L, lam, b - a + 1)
    return EventSpec(t, kind, level, a, b, eps, scale, tau, model_id, reg_source, adopt, side,
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
    return Schedule("multires", tuple(events), releases, eps, {"multires": eps}, lam, L)


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
    return Schedule("continual", tuple(events), tuple(releases), eps, budgets, lam, L)


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
        tuple((e.t, e.model_id) for e in events), eps, {"baseline": eps}, lam, L,
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
        tuple((e.t, e.model_id) for e in events), eps, {"baseline": 2 * eps}, lam, L,
    )


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


def sliding_schedule(T, w, w0, eps, lam, L, sampled=False) -> Schedule:
    """Sliding-window release with a binary bucket structure on either side
    of the base bucket, computed per step from the step number
    (`_sliding_steps`): retrains exactly the buckets whose interval is new,
    each regularized on the next larger bucket's (possibly just retrained)
    model, and releases the smallest bucket's.
    """
    k = window_shape(w, w0)
    eps = Fraction(eps)
    event = functools.partial(_event, lam, L)
    # A side bucket of 2^j blocks spans 2^j * w0 points, so its charge, rule,
    # Laplace scale and tolerance depend on j alone: each level's are worked
    # out once.
    levels = []
    for j in range(k - 1):
        charge, rule = eps / (6 * 2**j), "reciprocal" if sampled and j > 0 else None
        levels.append((charge, rule, laplace_scale(L, lam, 2**j * w0, charge, j if rule else None),
                       solve_tolerance(L, lam, 2**j * w0)))
    events, releases = [], []
    for t, kind, chain, trained in _sliding_steps(T, w, w0):
        for idx in trained:
            a, b, side, blocks, mid = chain[idx]
            if idx == 0:  # the base
                events.append(event(t, kind, k - 1, a, b, eps / 3, mid, side="base"))
            else:
                j = blocks.bit_length() - 1
                charge, rule, scale, tau = levels[j]
                events.append(event(t, kind, j, a, b, charge, mid, rule, scale=scale, tau=tau,
                                    reg_source=chain[idx - 1][4], side=side))
        releases.append((t, chain[-1][4]))
    return Schedule("sliding", tuple(events), tuple(releases), eps, {"sliding": eps}, lam, L)


def sliding_chain(T, w, w0) -> tuple:
    """The sliding window's dependency chain after each release step of
    `sliding_schedule(T, w, w0, ...)`, as ChainStates, from the same
    closed-form steps (`_sliding_steps`)."""
    return tuple(
        ChainState(t, tuple((a, b, side, mid) for a, b, side, _, mid in chain),
                   tuple(chain[idx][4] for idx in trained), chain[-1][4])
        for t, _, chain, trained in _sliding_steps(T, w, w0))


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


# Release scoring works in chunks of about this many bytes (`harness`), and
# `execute` gathers copies of an interval's rows for its seeds only up to it.
_STACK_BYTES = 160 << 10

# A solve holds, per member of n rows, its rows where they are gathered, its
# (k, n) scores, and about _SOLVE_ARRAYS arrays the size of its weights: the
# iterate, its gradient, the direction, the trial and their temporaries, and
# the 2 * SOLVE_MEMORY vectors of its curvature pairs. `execute` stacks
# members up to about _SOLVE_BYTES of these: stacking spreads the per-call
# cost of the solver's and the noise draw's numpy operations over many
# small members. Sliding-w255's 5,473 tiny events ran in 260, 224, 194 and
# 204 ms at caps of 1, 2, 4 and 8 MiB, at one peak RSS.
_SOLVE_BYTES = 4 << 20
_SOLVE_ARRAYS = 2 * SOLVE_MEMORY + 8


def execute(
    schedule: Schedule,
    stream: Dataset,
    nonprivate: bool = False,
    *,
    seeds,
) -> list[RunResult]:
    """Run a schedule against a stream: train and perturb its models for
    each of `seeds`, a sequence, returning one RunResult per seed.

    The schedule is RNG-free, so every seed trains the same events on the
    same slices, and events are trained in dependency waves: an event's wave
    is one more than its `reg_source`'s, and events without one are wave 1, so
    the events of a wave are independent of each other. Each wave's (event,
    seed) members are grouped by the number of rows they train on, and each
    group is solved in lockstep by `pberm` with the schedule's lambda toward
    each member's regularizer (the zero model without one), to each event's
    tolerance tau, one call per stack (`_stacks`). The seeds of an unsampled
    event read one range of the stream: where copies of it for every seed
    would take more than _STACK_BYTES, they are stacks of their own, each of
    which reads the range in place. Otherwise, and for a sampled event's
    (event, seed) members, each member reads its own gathered rows, and the
    members of one row count are pooled into stacks of about _SOLVE_BYTES.
    Solving is deterministic, and a seed's subsample and noise streams
    derive from that seed and the model id alone, so its result equals a
    run of that seed by itself, event by event; the subseeds of every
    (event, seed) are derived up front, one vectorised call per label
    (`_subseeds`), and a stack's noise is one draw.

    The run is kept as arrays: per seed, one (M + 1, k, d) weight array
    indexed by model id, whose last slot is the zero model, and noise-norm
    columns beside it. A stack gathers its members' biases from it with one
    fancy index and trains as arrays from there (`pberm`), in this process,
    and its noisy weights, noise_l1 and noise_l2 are stored with one
    assignment each. A stack's result depends on its own inputs alone, and
    its biases come from earlier waves, so the order of a wave's stacks
    does not matter. Nothing is charged here: the run's charges are the
    schedule's (`ledger_from_events`).

    A sampled event keeps each point with its `event_probability`. One whose
    subsample is empty is skipped for that seed: it is neither trained nor
    released, and later events regularized on it use its bias model, which
    minimises the empty-data objective lam*||w - bias||^2, so that is
    post-processing. Its charge still stands, since the amplified charge
    covers subsample-then-release whatever the subsample.

    nonprivate=True forces all noise scales to zero. A member that cannot
    be certified raises CertificateError naming its event and seed: the
    first such member in wave order.
    """
    seeds = tuple(seeds)
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

    def member_bytes(n, gathered):
        """What a solve holds for one member of n rows (see _SOLVE_BYTES)."""
        rows = n * (stream.d + stream.k) if gathered else n * stream.k
        return (rows + _SOLVE_ARRAYS * stream.k * stream.d) * 8

    for wave in _waves(trained):
        groups = {}  # row count -> [(event, seed position, rows)] of the pooled members
        stacks = []
        for e in wave:
            if e.sampled_rule is None:
                n, rows = e.b - e.a + 1, range(e.a, e.b + 1)
                members = [(e, i, rows) for i in range(len(seeds))]
                if len(seeds) * n * stream.d * 8 > _STACK_BYTES:  # read in place
                    stacks += _stacks(members, member_bytes(n, False))
                else:
                    groups.setdefault(n, []).extend(members)
                continue
            p = event_probability(e)
            for i in range(len(seeds)):
                rows = subsample(e.b - e.a + 1, p, int(sample_seeds[i, e.model_id])) + e.a
                if len(rows) == 0:  # skipped
                    skip[i, e.model_id] = True
                    weights[i, e.model_id] = weights[i, source[e.model_id]]
                else:
                    groups.setdefault(len(rows), []).append((e, i, rows))
        stacks += [stack for n, members in groups.items()
                   for stack in _stacks(members, member_bytes(n, True))]
        for members in stacks:
            seat = np.array([i for _, i, _ in members])
            mids = np.array([e.model_id for e, _, _ in members])
            try:
                result = pberm(weights[seat, source[mids]], stream, schedule.lam, tau[mids],
                               scale[mids], noise_seeds[seat, mids],
                               [rows for _, _, rows in members])
            except CertificateError as exc:
                e, i, _ = members[exc.member]
                raise CertificateError(exc.iterations, exc.grad_norm, exc.member,
                                       f"event at t={e.t} on [{e.a}, {e.b}], seed {seeds[i]}"
                                       ) from None
            weights[seat, mids], noise_l1[seat, mids], noise_l2[seat, mids] = result

    events = tuple(trained)
    return [RunResult(events, weights[i], noise_l1[i], noise_l2[i], scale, noise_seeds[i],
                      skip[i], schedule.releases) for i in range(len(seeds))]


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
    eps_den, like an event's charge), its budgets, each an exact
    [numerator, denominator] pair, and the lambda, Lipschitz constant and
    tolerance share (`mechanisms.TAU_SHARE`) its events are calibrated
    with."""
    return {
        "scheduler": schedule.name,
        "eps_num": schedule.eps.numerator,
        "eps_den": schedule.eps.denominator,
        "budgets": {sub: [b.numerator, b.denominator] for sub, b in schedule.budgets.items()},
        "lam": schedule.lam,
        "L": schedule.L,
        "tau_share": TAU_SHARE,
    }


# The budget subsystems a header of each schedule name may hold: a continual
# schedule with standalone bases charges no multires subsystem.
SCHEDULE_BUDGETS = {
    "multires": ({"multires"},),
    "continual": ({"continual", "multires"}, {"continual"}),
    "sliding": ({"sliding"},),
    "baseline-independent": ({"baseline"},),
    "baseline-basic": ({"baseline"},),
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

    Line 1 must be the header, which gives the budgets: it must name a
    schedule of `SCHEDULE_BUDGETS` and hold that schedule's budget
    subsystems, or LedgerError says it does not. Each later line is
    an event, charged to its kind's subsystem with the kind as mechanism; a
    zero charge is skipped. A line that does not parse, or an event of a
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
            allowed = SCHEDULE_BUDGETS.get(head["scheduler"])
            eps = Fraction(head["eps_num"], head["eps_den"])
            budgets = {sub: Fraction(num, den) for sub, (num, den) in head["budgets"].items()}
        except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise LedgerError(f"trace line 1 is not a trace header: {exc!r}") from exc
        if allowed is None:
            raise LedgerError(f"trace line 1 names no schedule: {head['scheduler']!r}")
        if budgets.keys() not in allowed:
            raise LedgerError(f"trace line 1 budgets {sorted(budgets)} are not those of a "
                              f"{head['scheduler']} schedule")
        if eps <= 0 or any(b <= 0 for b in budgets.values()):
            raise LedgerError(f"trace line 1 has an invalid eps or budgets: {head}")
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
