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

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .erm import Dataset, ModelWeights, TrainConfig, RegularizerSpec
from .ledger import Ledger
from .mechanisms import (
    SamplingSpec,
    noise_scale,
    pberm,
    psgd,
    sampling_probability,
    subsample,
)
from .rng import make_rng

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
    reg_source: int | None = None
    train: str = "psgd"  # psgd | pberm | adopt
    side: str | None = None  # sliding: base | left | right
    sampled_rule: tuple[str, int] | None = None

    @property
    def subsystem(self) -> str:
        return KIND_SUBSYSTEM[self.kind]

    @property
    def interval(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class ChainState:
    """Sliding-window dependency chain after one step."""

    t: int
    buckets: tuple  # ((a, b, side, model_id), ...) in descending size order
    trained: tuple  # model ids trained at this step
    released: int


@dataclass(frozen=True)
class Schedule:
    name: str
    events: tuple
    releases: tuple  # (t, model_id) pairs in time order, each once
    budgets: dict
    chain_states: tuple | None = None


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


def _multires_event(t, k, a, b, eps, lam, L, B, sampled, model_id):
    if sampled:
        scale = noise_scale("multires_sampled", L=L, lam=lam, eps=float(eps), B=B, level=k)
        rule = ("exp_formula", k)
    else:
        scale = noise_scale("multires", L=L, lam=lam, eps=float(eps), B=B)
        rule = None
    return EventSpec(
        t=t, kind="MultiRes", level=k, a=a, b=b,
        eps=eps / (2 * 2**k), noise_scale=scale, model_id=model_id,
        sampled_rule=rule, train="psgd",
    )


def multires_schedule(T, B, eps, lam, L, sampled=False, _ids=None) -> Schedule:
    if B < 1:
        raise ScheduleError("B must be >= 1")
    eps = Fraction(eps)
    ids = _ids if _ids is not None else itertools.count()
    events = []
    for t in range(B, T, B):
        for k, (a, b) in multires_events_at(t, B):
            events.append(_multires_event(t, k, a, b, eps, lam, L, B, sampled, next(ids)))
    releases = tuple((e.t, e.model_id) for e in events)
    return Schedule("multires", tuple(events), releases, {"multires": eps})


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

    scale_small = noise_scale("pberm", L=L, lam=lam, eps=float(eps), b0=b0)
    t_g = None
    f_g = f_c = None
    min_ratio = 2 if first_base_at_2B else 1
    for t in range(B, T):
        ratio = t // B
        if t % B == 0 and _is_pow2(ratio) and ratio >= min_ratio:
            k = ratio.bit_length() - 1
            if standalone_base:
                ev = EventSpec(
                    t=t, kind="Base", level=k, a=0, b=t - 1,
                    eps=eps / (2 * 2**k),
                    noise_scale=noise_scale("multires", L=L, lam=lam, eps=float(eps), B=B),
                    model_id=next(ids), train="psgd",
                )
            else:
                ev = EventSpec(
                    t=t, kind="Base", level=k, a=0, b=t - 1,
                    eps=Fraction(0), noise_scale=0.0,
                    model_id=multires_prefix[t], train="adopt",
                )
            events.append(ev)
            releases.append((t, ev.model_id))
            t_g, f_g, f_c = t, ev.model_id, ev.model_id
        elif t_g is not None and (t - t_g) % b0 == 0:
            blocks = (t - t_g) // b0
            if _is_pow2(blocks) and blocks >= 2:
                j = blocks.bit_length() - 1
                if sampled:
                    scale = noise_scale(
                        "pberm_sampled", L=L, lam=lam, eps=float(eps), b0=b0, level=j
                    )
                    rule = ("exp_formula", j)
                else:
                    scale = noise_scale("pberm", L=L, lam=lam, eps=float(eps), b0=b0)
                    rule = None
                ev = EventSpec(
                    t=t, kind="LargeUpdate", level=j, a=t_g, b=t - 1,
                    eps=eps / (2 * 2**j), noise_scale=scale, model_id=next(ids),
                    reg_source=f_g, train="pberm", sampled_rule=rule,
                )
                f_c = ev.model_id
            else:
                ev = EventSpec(
                    t=t, kind="SmallUpdate", level=None, a=t - b0, b=t - 1,
                    eps=eps / 2, noise_scale=scale_small, model_id=next(ids),
                    reg_source=f_c, train="pberm",
                )
            events.append(ev)
            releases.append((t, ev.model_id))
    budgets = {"continual": 2 * eps if standalone_base else eps}
    if not standalone_base:
        budgets["multires"] = eps
    # merge the embedded multires releases into time order; an adopted base
    # is the multires model released at the same step, so it is listed once
    releases = sorted(dict.fromkeys(releases), key=lambda r: r[0])
    return Schedule("continual", tuple(events), tuple(releases), budgets)


def baseline_independent_schedule(T, b0, eps, lam, L) -> Schedule:
    """Each disjoint b0 batch trained and sanitized on its own, eps/2 apiece.

    No regularization lineage: every batch model is biased toward zero, so
    each release depends on exactly one batch of data.
    """
    eps = Fraction(eps)
    scale = noise_scale("pberm", L=L, lam=lam, eps=float(eps), b0=b0)
    events = []
    ids = itertools.count()
    for t in range(b0, T, b0):
        ev = EventSpec(
            t=t, kind="BaselineIndependent", level=None, a=t - b0, b=t - 1,
            eps=eps / 2, noise_scale=scale, model_id=next(ids),
            reg_source=None, train="pberm",
        )
        events.append(ev)
    return Schedule(
        "baseline-independent", tuple(events),
        tuple((e.t, e.model_id) for e in events), {"baseline": eps},
    )


def baseline_basic_cumulative_schedule(T, B, b0, eps, lam, L) -> Schedule:
    """Cumulative retrain at t = 2^k*B, small b0 updates against the previous model."""
    if b0 < 1 or B < b0 or B % b0:
        raise ScheduleError("need 1 <= b0 <= B with B a multiple of b0")
    eps = Fraction(eps)
    scale_base = noise_scale("multires", L=L, lam=lam, eps=float(eps), B=B)
    scale_small = noise_scale("pberm", L=L, lam=lam, eps=float(eps), b0=b0)
    events = []
    prev = None
    t_g = None
    ids = itertools.count()
    for t in range(B, T):
        ratio = t // B
        if t % B == 0 and _is_pow2(ratio):
            k = ratio.bit_length() - 1
            ev = EventSpec(
                t=t, kind="BaselineBasicCumulative", level=k, a=0, b=t - 1,
                eps=eps / (2 * 2**k), noise_scale=scale_base, model_id=next(ids),
                train="psgd",
            )
            t_g = t
        elif t_g is not None and (t - t_g) % b0 == 0:
            ev = EventSpec(
                t=t, kind="BaselineBasicCumulative", level=None, a=t - b0, b=t - 1,
                eps=eps / 2, noise_scale=scale_small, model_id=next(ids),
                reg_source=prev, train="pberm",
            )
        else:
            continue
        events.append(ev)
        prev = ev.model_id
    return Schedule(
        "baseline-basic", tuple(events),
        tuple((e.t, e.model_id) for e in events), {"baseline": 2 * eps},
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


def sliding_schedule(T, w, w0, eps, lam, L, sampled=False) -> Schedule:
    """Sliding-window release with a binary bucket structure on either side
    of the base bucket; retrains exactly the buckets whose interval changed.
    """
    k = window_shape(w, w0)
    eps = Fraction(eps)
    feps = float(eps)
    base_blocks = 2 ** (k - 1)
    cap = base_blocks - 1  # side capacity in w0-blocks
    scale_base = noise_scale("sliding_base", L=L, lam=lam, eps=feps, base_size=base_blocks * w0)
    scale_update = noise_scale("sliding_update", L=L, lam=lam, eps=feps, w0=w0)

    ids = itertools.count()
    events, releases, states = [], [], []
    left: list[_Bucket] = []
    base: _Bucket | None = None
    right: list[_Bucket] = []

    def chain():
        # descending size: base first, then side buckets (sizes are disjoint)
        side = sorted(left + right, key=lambda bk: -bk.blocks)
        return [base] + side

    def update_event(t, kind, bucket, reg_source):
        j = bucket.blocks.bit_length() - 1
        if sampled and j > 0:
            scale = noise_scale(
                "sliding_update_sampled", L=L, lam=lam, eps=feps, w0=w0, level=j
            )
            rule = ("reciprocal", j)
        else:
            scale, rule = scale_update, None
        bucket.model_id = next(ids)
        return EventSpec(
            t=t, kind=kind, level=j, a=bucket.a, b=bucket.b,
            eps=eps / (6 * 2**j), noise_scale=scale, model_id=bucket.model_id,
            reg_source=reg_source, train="pberm", side=bucket.side, sampled_rule=rule,
        )

    def train_cascade(t, kind, to_train):
        """Train the given buckets in descending size order, regularizing each
        on the next larger bucket's (possibly just retrained) model."""
        new = []
        ordered = chain()
        wanted = {id(bk) for bk in to_train}
        for idx, bucket in enumerate(ordered):
            if id(bucket) not in wanted:
                continue
            if bucket is base:
                bucket.model_id = next(ids)
                new.append(EventSpec(
                    t=t, kind=kind, level=k - 1, a=bucket.a, b=bucket.b,
                    eps=eps / 3, noise_scale=scale_base, model_id=bucket.model_id,
                    train="psgd", side="base",
                ))
            else:
                new.append(update_event(t, kind, bucket, ordered[idx - 1].model_id))
        return new

    def snapshot(t, trained):
        ordered = chain()
        released = ordered[-1].model_id
        releases.append((t, released))
        states.append(ChainState(
            t=t,
            buckets=tuple((bk.a, bk.b, bk.side, bk.model_id) for bk in ordered),
            trained=tuple(e.model_id for e in trained),
            released=released,
        ))

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
        new = train_cascade(t, kind, [base] + left)
        events.extend(new)
        snapshot(t, new)

    first = w - 1
    if T <= first:
        return Schedule("sliding", (), (), {"sliding": eps}, ())
    init_window(first, "WindowInit")
    for t in range(first + w0, T, w0):
        if len_blocks(right) == cap:
            init_window(t, "WindowRefresh")
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
        new = train_cascade(t, "WindowAdvance", to_train)
        events.extend(new)
        snapshot(t, new)
    return Schedule("sliding", tuple(events), tuple(releases), {"sliding": eps}, tuple(states))


def len_blocks(buckets) -> int:
    return sum(bk.blocks for bk in buckets)


def _decount(blocks: int) -> int:
    """Number of buckets produced when a bucket of `blocks` loses one block."""
    return (blocks - 1).bit_length()


def ledger_from_events(events, budgets) -> Ledger:
    """Charge a fresh ledger from a schedule (dry run: no data, no RNG)."""
    ledger = Ledger(budgets=dict(budgets))
    for e in events:
        if e.eps > 0:
            mech = e.kind if e.side is None else f"{e.kind}/{e.side}"
            ledger.charge(e.interval, e.eps, e.subsystem, e.t, mech)
    return ledger


@dataclass
class RunResult:
    schedule: Schedule
    models: dict  # model id -> weights; a skipped event maps to its bias model
    perturbed: dict
    releases: list  # (t, model_id)
    ledger: Ledger | None
    skipped: list = field(default_factory=list)  # events skipped on empty subsample

    def released_weights(self):
        return [(t, self.models[mid]) for t, mid in self.releases]


# A lockstep SGD call holds an (members, m, d) float64 minibatch and
# (members, k, d) weight stacks. A wave's members are stacked up to about
# this many bytes of both, counted as members * (m + k) * d * 8; larger
# stacks train no faster and raise the peak RSS. The seeds of one event are
# never split, so an event above the cap is a call of its own.
_STACK_BYTES = 160 << 10


def execute(
    schedule: Schedule,
    stream: Dataset,
    lam: float,
    train_cfg: TrainConfig,
    eps: float | Fraction,
    nonprivate: bool = False,
    seeds=None,
):
    """Run a schedule against a stream: train, perturb, and charge the ledger.

    With seeds=None this runs train_cfg.seed and returns its RunResult;
    given a sequence of seeds it returns one RunResult per seed. The
    schedule is RNG-free, so every seed trains the same events on the same
    slices, and events are trained in dependency waves: an event's wave is
    one more than its `reg_source`'s, and events without one are wave 1, so
    the events of a wave are independent of each other. Each wave's (event,
    seed) members are grouped by train kind and minibatch size
    min(minibatch, n), and each group is trained in lockstep, one
    `psgd`/`pberm` call per stack of at most `_STACK_BYTES` of minibatch and
    weights (never splitting one event's seeds). Members read the whole
    stream: an interval as a range, a subsample as its kept row indices. A seed's
    subsample, SGD and noise streams derive from that seed and the model id
    alone, so its result equals a run of that seed by itself, event by event.
    Models, perturbations, skipped events, charges and releases are recorded
    in schedule order.

    A sampled event whose subsample is empty is skipped for that seed: it is
    neither trained, charged nor released, and later events regularized on
    it use its bias model (the zero model for psgd), which minimises the
    empty-data objective lam*||w - bias||^2, so that is post-processing.

    nonprivate=True forces all noise scales to zero and disables the ledger
    (each result carries ledger=None as the flag).
    """
    single = seeds is None
    seeds = (train_cfg.seed,) if single else tuple(seeds)
    feps = float(eps)
    trained = [e for e in schedule.events if e.train != "adopt"]  # adopt: release only
    for e in trained:
        if e.b >= stream.n:
            raise ScheduleError(f"event at t={e.t} needs point {e.b} beyond stream end")
    zero = ModelWeights(np.zeros((stream.k, stream.d)))
    models = [{} for _ in seeds]  # per seed: model id -> weights
    perturbed = [{} for _ in seeds]  # per seed: model id -> PerturbedModel

    def bias(i, e):
        return zero if e.reg_source is None else models[i][e.reg_source]

    for wave in _waves(trained):
        groups = {}  # (train kind, minibatch size) -> [(event, seed position, rows)]
        for e in wave:
            if e.sampled_rule is None:
                event_rows = [range(e.a, e.b + 1)] * len(seeds)
            else:
                rule, level = e.sampled_rule
                data = stream.slice(e.a, e.b)
                specs = [SamplingSpec(rule, level, _subseed(seed, "sample", e.model_id))
                         for seed in seeds]
                event_rows = [subsample(data, spec, feps)[0] + e.a for spec in specs]
            for i, rows in enumerate(event_rows):
                if len(rows) == 0:
                    models[i][e.model_id] = bias(i, e)  # skipped
                else:
                    key = (e.train, min(train_cfg.minibatch, len(rows)))
                    groups.setdefault(key, []).append((e, i, rows))
        for (kind, m), members in groups.items():
            for stack in _stacks(members, (m + stream.k) * stream.d * 8):
                train_seeds = [_subseed(seeds[i], "train", e.model_id) for e, i, _ in stack]
                noise_seeds = [_subseed(seeds[i], "noise", e.model_id) for e, i, _ in stack]
                scales = [0.0 if nonprivate else e.noise_scale for e, _, _ in stack]
                stack_rows = [r for _, _, r in stack]
                if kind == "psgd":
                    pms = psgd(stream, scales, RegularizerSpec(lam), train_cfg,
                               noise_seeds, train_seeds, stack_rows)
                else:
                    pms = pberm([bias(i, e) for e, i, _ in stack], stream, lam, train_cfg,
                                scales, noise_seeds, train_seeds, stack_rows)
                for (e, i, _), pm, scale in zip(stack, pms, scales):
                    models[i][e.model_id] = pm.weights.with_meta(
                        interval=e.interval, reg_source=e.reg_source, model_id=e.model_id,
                        noise_scale=scale,
                    )
                    perturbed[i][e.model_id] = pm

    runs = []
    for i in range(len(seeds)):
        ledger = None if nonprivate else Ledger(dict(schedule.budgets))
        run = RunResult(schedule, {}, {}, [], ledger)
        for e in trained:
            run.models[e.model_id] = models[i][e.model_id]
            pm = perturbed[i].get(e.model_id)
            if pm is None:
                run.skipped.append(e)
                continue
            run.perturbed[e.model_id] = pm
            if ledger is not None and e.eps > 0:
                mech = e.kind if e.side is None else f"{e.kind}/{e.side}"
                ledger.charge(e.interval, e.eps, e.subsystem, e.t, mech)
        skipped_ids = {e.model_id for e in run.skipped}
        run.releases = [(t, mid) for t, mid in schedule.releases if mid not in skipped_ids]
        runs.append(run)
    return runs[0] if single else runs


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
    """Split members, in order, into stacks of at most _STACK_BYTES (one
    member takes member_bytes); the members of one event share a stack."""
    stack = []
    for _, event_members in itertools.groupby(members, key=lambda mem: mem[0].model_id):
        event_members = list(event_members)
        if stack and (len(stack) + len(event_members)) * member_bytes > _STACK_BYTES:
            yield stack
            stack = []
        stack.extend(event_members)
    if stack:
        yield stack


def _subseed(seed: int, label: str, model_id: int) -> int:
    # stable 63-bit derivation so each (train, noise, sample) stream is independent
    rng = make_rng(seed, label, model_id)
    return int(rng.integers(0, 2**63 - 1))


def build_schedule(name: str, T: int, *, eps, lam, L, B=None, b0=None, w=None, w0=None,
                   standalone_base=False, first_base_at_2B=False) -> Schedule:
    """Construct a schedule by CLI name."""
    if name in ("multires", "multires-sample"):
        return multires_schedule(T, B, eps, lam, L, sampled=name.endswith("sample"))
    if name in ("continual", "continual-sample"):
        return continual_schedule(
            T, B, b0, eps, lam, L, sampled=name.endswith("sample"),
            standalone_base=standalone_base, first_base_at_2B=first_base_at_2B,
        )
    if name in ("sliding", "sliding-sample"):
        return sliding_schedule(T, w, w0, eps, lam, L, sampled=name.endswith("sample"))
    if name == "baseline-independent":
        return baseline_independent_schedule(T, b0, eps, lam, L)
    if name == "baseline-basic":
        return baseline_basic_cumulative_schedule(T, B, b0, eps, lam, L)
    raise ScheduleError(f"unknown scheduler {name!r}")


def export_trace(events, path):
    with open(path, "w") as fh:
        for e in events:
            fh.write(json.dumps(trace_record(e)) + "\n")


def event_probability(e: EventSpec) -> float | None:
    """Resolved inclusion probability for a sampled event, else None."""
    if e.sampled_rule is None:
        return None
    rule, level = e.sampled_rule
    # the charge is always eps_total / (2 * 2^level) for exp_formula events
    total = float(e.eps * 2 * 2**level) if rule == "exp_formula" else 1.0
    return sampling_probability(rule, level, total)


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
