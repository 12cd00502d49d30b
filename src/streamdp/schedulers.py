"""Release schedules: multi-resolution, continual cumulative, sliding window.

A schedule is built from one `SchedulerConfig` by `build_schedule`, which
keeps that config as `Schedule.config`. Schedules are pure and RNG-free (so
they can be inspected, diffed and charged to a ledger without touching
data): their events are columns, one array a field, each event carrying its
charge, Laplace scale, solve tolerance and, if sampled, inclusion
probability; `execute` trains and perturbs their models against a stream.

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
import operator
import re
import string
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import erm
from .erm import SOLVE_MEMORY, CertificateError, Dataset
from .ledger import Ledger, LedgerError, _ints
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
# The names a schedule's kind, side and rule codes index (`Schedule`).
KINDS = tuple(KIND_SUBSYSTEM)
SIDES = (None, "base", "left", "right")
RULES = (None, "exp_formula", "reciprocal")


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
class ChainState:
    """Sliding-window dependency chain after one step (`sliding_chain`), one
    bucket a level (`_sliding_cells`)."""

    t: int
    buckets: tuple  # ((a, b, side, model_id), ...) from level k - 1 down to 0
    trained: tuple  # model ids trained at this step, levels top(n) down to 0
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


@dataclass(frozen=True, eq=False)
class Schedule:
    """The events and releases `build_schedule` builds from config, the
    SchedulerConfig whose eps, lambda and L (resolved) they are calibrated
    for, and trained with.

    The events are columns, one array a field, in schedule order: each
    one's step t, kind, level, interval [a, b], exact charge eps_num /
    eps_den, noise scale, the gradient norm tau its solve stops at
    (`mechanisms.solve_tolerance`), the probability p each point is kept
    with, model id, the model it is trained toward (reg_source, the zero
    model for None), adopt (released, not trained: a continual base adopts
    a multires model), side (sliding: base, left or right) and sampling rule
    at its level. kind, side and rule are int8 codes into KINDS, SIDES and
    RULES, level and reg_source -1 for None, p NaN where the rule is None,
    and the charge in lowest terms, int64, or Python ints past it. The
    releases, in time order, are (release_t[i], release_mid[i]).
    """

    config: SchedulerConfig
    t: np.ndarray
    kind: np.ndarray
    level: np.ndarray
    a: np.ndarray
    b: np.ndarray
    eps_num: np.ndarray
    eps_den: np.ndarray
    noise_scale: np.ndarray
    tau: np.ndarray
    p: np.ndarray
    model_id: np.ndarray
    reg_source: np.ndarray
    adopt: np.ndarray
    side: np.ndarray
    rule: np.ndarray
    release_t: np.ndarray
    release_mid: np.ndarray

    @property
    def budgets(self) -> dict:
        """The config's `schedule_budgets`, a fresh dict on each access."""
        cfg = self.config
        return schedule_budgets(cfg.name.removesuffix("-sample"), cfg.eps, cfg.standalone_base)


# Schedule's event columns, and each one's dtype (None: `ledger._ints`; a
# float column reads None as NaN). A schedule of few events is made from
# `_Row`s, one value a column, converted once (`_from_rows`).
_EVENT_COLUMNS = ("t", "kind", "level", "a", "b", "eps_num", "eps_den", "noise_scale", "tau",
                  "p", "model_id", "reg_source", "adopt", "side", "rule")
_DTYPES = (np.int64, np.int8, np.int64, np.int64, np.int64, None, None, np.float64, np.float64,
           np.float64, np.int64, np.int64, bool, np.int8, np.int8)
_Row = NamedTuple("_Row", [(name, object) for name in _EVENT_COLUMNS])


def _schedule(cfg, columns, release_t, release_mid) -> Schedule:
    """The Schedule of cfg with the `_EVENT_COLUMNS` columns and releases."""
    arrays = [_ints(col, "charges") if dtype is None else np.ascontiguousarray(col, dtype=dtype)
              for col, dtype in zip(columns, _DTYPES)]
    return Schedule(cfg, *arrays, np.asarray(release_t, dtype=np.int64),
                    np.asarray(release_mid, dtype=np.int64))


def _from_rows(cfg, rows, releases) -> Schedule:
    """The Schedule of cfg with the events rows and the (t, model_id) pairs releases."""
    return _schedule(cfg, list(zip(*rows)) or [()] * len(_EVENT_COLUMNS),
                     *np.array(releases, dtype=np.int64).reshape(-1, 2).T)


def _calibration(cfg, n, eps, level, rule) -> tuple:
    """The Laplace scale an event of n points charged eps buys, the tolerance
    of its solve and, sampled under rule at level, the probability each
    point is kept with (`laplace_scale`, `solve_tolerance`,
    `sampling_probability`: an exp_formula level spends the schedule's eps)."""
    return (laplace_scale(cfg.L, cfg.lam, n, eps, level if rule else None),
            solve_tolerance(cfg.L, cfg.lam, n),
            None if rule is None else sampling_probability(rule, level, float(cfg.eps)))


def _event(cfg, t, kind, level, a, b, eps, model_id, rule=None, adopt=False,
           reg_source=None) -> _Row:
    """An event of the schedule cfg on [a, b] charged eps, with its
    `_calibration`; an adopted model is not trained and has none."""
    scale, tau, p = (0.0, 0.0, None) if adopt else _calibration(cfg, b - a + 1, eps, level, rule)
    return _Row(t, KINDS.index(kind), -1 if level is None else level, a, b, eps.numerator,
                eps.denominator, scale, tau, p, model_id, -1 if reg_source is None else reg_source,
                adopt, 0, RULES.index(rule))


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
    return _from_rows(cfg, events, [(e.t, e.model_id) for e in events])


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
    for t in range(B, T, b0):  # B is a multiple of b0, so every event step is one
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
        elif t_g is not None:
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
    return _from_rows(cfg, events, sorted(dict.fromkeys(releases), key=lambda r: r[0]))


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
    return _from_rows(cfg, events, [(e.t, e.model_id) for e in events])


def _baseline_basic(cfg, T) -> Schedule:
    """Cumulative retrain at t = 2^k*B, small b0 updates against the previous model."""
    B, b0, eps = cfg.B, cfg.b0, cfg.eps
    if b0 < 1 or B < b0 or B % b0:
        raise ScheduleError("need 1 <= b0 <= B with B a multiple of b0")
    event = functools.partial(_event, cfg)
    events = []
    prev = None
    ids = itertools.count()
    for t in range(B, T, b0):  # B is a multiple of b0, so every event step is one
        ratio = t // B
        if t % B == 0 and _is_pow2(ratio):
            k = ratio.bit_length() - 1
            ev = event(t, "BaselineBasicCumulative", k, 0, t - 1, eps / (2 * 2**k), next(ids))
        else:  # after the retrain at t = B
            ev = event(t, "BaselineBasicCumulative", None, t - b0, t - 1, eps / 2, next(ids),
                       reg_source=prev)
        events.append(ev)
        prev = ev.model_id
    return _from_rows(cfg, events, [(e.t, e.model_id) for e in events])


def window_shape(w: int, w0: int) -> int:
    """Validate w = (2^k - 1) * w0 with k >= 2 and return k."""
    if w0 < 1 or w % w0:
        raise ScheduleError(f"w={w} must be a multiple of w0={w0}")
    blocks = w // w0 + 1
    if not _is_pow2(blocks) or blocks < 4:
        raise ScheduleError(f"w={w} must equal (2^k - 1)*w0 with k >= 2, got w0={w0}")
    return blocks.bit_length() - 1


def _sliding_cells(T, w, w0):
    """The sliding window's release steps on a stream of length T, in closed
    form.

    Step n fires at t = w - 1 + n*w0 on the window [t - w + 1, t] of 2^k - 1
    blocks of w0 points, k = `window_shape(w, w0)`. With r = n mod 2^(k-1),
    its chain is a base of 2^(k-1) blocks between a left side holding the
    binary decomposition of the 2^(k-1) - 1 - r blocks before it, smallest
    oldest, and a right side holding that of the r after it, largest next to
    the base. A bucket of 2^j blocks is at level j, the base at k - 1, and
    the sides' counts add up to 2^(k-1) - 1, so each level j < k - 1 holds
    one side bucket: a right one where bit j of r is set, else a left one.
    Counted back from t + 1, it starts at a = t + 1 - w0 * (2^j + r mod 2^j)
    on the right, at a = t + 1 - w0 * (2^k - 2^j + r mod 2^j) on the left,
    as the base does, and ends at b = a + 2^j * w0 - 1.

    From step n - 1 to n, t moves on w0 points, so a bucket keeps its
    interval where r mod 2^j grows by one, that is where r mod 2^j != 0
    (bit j of r is then unchanged). Step n's new buckets are thus the levels
    j <= top(n), k - 1 at r = 0 (step 0 and each refresh) and else the
    lowest set bit of r, and level j's became new at n' = n - (r mod 2^j).
    New buckets take the next model ids in step and chain order, the chain
    running from the base down by level, so level j's model id is
    first(n') + top(n') - j, with first(n) = sum over m < n of (top(m) + 1).

    Returns (steps, top, bucket): step n fires at steps[n], its new levels
    are 0 .. top[n], and bucket(n, j) gives level j's (a, b, side code,
    model id) at steps n, for broadcast index arrays.
    """
    k = window_shape(w, w0)
    cycle = 1 << (k - 1)
    steps = np.arange(w - 1, T, w0)
    r = np.arange(len(steps)) % cycle
    top = np.where(r == 0, k - 1, np.frexp(r & -r)[1] - 1).astype(np.int64)
    first = (top + 1).cumsum() - (top + 1)

    def bucket(n, j):
        size = 1 << j
        r = n % cycle
        low = r % size
        right = (r & size) > 0
        a = steps[n] + 1 - w0 * np.where(right, size + low, 2 * cycle - size + low)
        side = np.where(j == k - 1, SIDES.index("base"), SIDES.index("left") + right)
        was = n - low  # the step where it was new
        return a, a + size * w0 - 1, side, first[was] + top[was] - j
    return steps, top, bucket


def _sliding(cfg, T) -> Schedule:
    """Sliding-window release with a binary bucket structure on either side
    of the base bucket, in closed form (`_sliding_cells`): each step
    retrains its new buckets, levels top(n) down to 0, each regularized on
    the next level's model and the base on none, and releases level 0's.

    A bucket at level j spans 2^j * w0 points, so its charge, sampling rule
    and calibration depend on j alone, and each level's are worked out
    once: a side bucket is charged eps / (6 * 2^j) and, sampled, kept under
    the reciprocal rule from level 1 on; the base, at level k - 1, is
    charged eps / 3 and never sampled. The kind is WindowInit at step 0,
    WindowRefresh at top(n) = k - 1 after it and WindowAdvance otherwise.
    Every column is built at once from the new (step, level) cells, taken
    with one np.nonzero.
    """
    w, w0, eps = cfg.w, cfg.w0, cfg.eps
    k = window_shape(w, w0)
    # each level's charge, sampling rule and calibration
    charge = [eps / 3 if j == k - 1 else eps / (6 * 2**j) for j in range(k)]
    rule = [_rule(cfg, "reciprocal") if 0 < j < k - 1 else None for j in range(k)]
    scale, tau, p = zip(*(_calibration(cfg, 2**j * w0, charge[j], j, rule[j]) for j in range(k)))
    steps, top, bucket = _sliding_cells(T, w, w0)
    # the releases and regularizers first: their temporaries then sit beside fewer columns
    released = bucket(np.arange(len(steps)), 0)[3]
    kind = np.where(top == k - 1, KINDS.index("WindowRefresh"), KINDS.index("WindowAdvance"))
    kind[:1] = KINDS.index("WindowInit")
    n, level = np.nonzero(np.arange(k) >= k - 1 - top[:, None])  # by step, then chain position
    level = k - 1 - level
    reg_source = np.where(level < k - 1, bucket(n, level + 1)[3], -1)
    a, b, side, mid = bucket(n, level)
    columns = (steps[n], kind[n], level, a, b,
               _ints([c.numerator for c in charge], "charges")[level],
               _ints([c.denominator for c in charge], "charges")[level], np.array(scale)[level],
               np.array(tau)[level], np.array(p, dtype=np.float64)[level], mid, reg_source,
               np.zeros(len(n), dtype=bool), side, np.array([RULES.index(r) for r in rule])[level])
    return _schedule(cfg, columns, steps, released)


def sliding_chain(T, w, w0) -> tuple:
    """The sliding window's dependency chain after each release step of a
    sliding schedule of w and w0 on a stream of length T, as ChainStates,
    from the same closed form (`_sliding_cells`)."""
    steps, top, bucket = _sliding_cells(T, w, w0)
    cells = bucket(np.arange(len(steps))[:, None], np.arange(window_shape(w, w0) - 1, -1, -1))
    a, b, side, mid = (col.tolist() for col in cells)
    return tuple(ChainState(t, tuple(zip(a[n], b[n], map(SIDES.__getitem__, side[n]), mid[n])),
                            tuple(mid[n][-1 - j:]), mid[n][-1])
                 for n, (t, j) in enumerate(zip(steps.tolist(), top.tolist())))


def ledger_from_events(schedule: Schedule) -> Ledger:
    """A fresh ledger of the schedule's budgets, charged with its events (dry
    run: no data, no RNG) in one `Ledger.extend`: each to its kind's
    subsystem, with its kind, and a sliding event's side, as mechanism."""
    s = schedule
    charged = np.flatnonzero(s.eps_num > 0)
    kind = s.kind[charged]
    labels = np.array([[k if d is None else f"{k}/{d}" for d in SIDES] for k in KINDS],
                      dtype=object)  # by kind and side
    ledger = Ledger(budgets=s.budgets)
    ledger.extend(s.a[charged], s.b[charged], s.eps_num[charged], s.eps_den[charged],
                  np.array([KIND_SUBSYSTEM[k] for k in KINDS], dtype=object)[kind], s.t[charged],
                  labels[kind, s.side[charged]])
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


# `execute` gathers copies of an interval's rows for its members, and
# `harness` copies of a window's rows for the models scored on it, only up to
# about this many bytes; past it they read the rows in place.
_STACK_BYTES = 160 << 10

# A solve holds, per member of n rows (an event solved once for one or
# more seeds), its rows where they are gathered, its scores ((k, n)
# gathered; in place, a chunk's at a time, (k, min(n, erm._CHUNK_ROWS))),
# and about _SOLVE_ARRAYS arrays the size of its weights: the iterate, its
# gradient, the direction, the trial and their temporaries, and the
# 2 * SOLVE_MEMORY vectors of its curvature pairs. `execute` stacks members
# up to about _SOLVE_BYTES of these: stacking spreads the per-call cost of
# the solver's and the noise draw's numpy operations over many small
# members. Sliding-w255's 5,473 tiny events ran in 260, 224, 194 and 204 ms
# at caps of 1, 2, 4 and 8 MiB, at one peak RSS. A set of members that read
# chunks in place for each other goes past the cap up to the bytes of its
# rows, which are in memory already (`_in_place_stacks`): cutting it would
# read its shared chunks once per stack.
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
    same slices. Events are trained in dependency waves (`_waves`), so the
    events of a wave are independent of each other. A wave is solved as
    members, index arrays of an event, its first seat (a place in `seeds`)
    and how many seats from there one solve serves. An unsampled event
    whose seeds' biases are bit-equal (one comparison per wave, as int64,
    so that -0.0 is not 0.0) trains one range toward one bias, so it is one
    member serving every seat: in a private run, the events trained toward
    the zero model; in a nonprivate one, every unsampled event. Any other
    event, and a sampled one, whose seeds draw their own rows, is a member
    per seat. A stack of members is solved in lockstep by `pberm`, one call
    per stack, with its config's lambda toward each member's regularizer
    (the zero model without one), to each event's tolerance tau.

    Where copies of an unsampled event's range for each of its members
    would take more than _STACK_BYTES, its members read the range in place,
    in chunks of `erm._CHUNK_ROWS` rows from its start, and the wave's
    members that read a common chunk, joined transitively, form a set
    (`_chunk_sharing`): the solve reads each shared chunk once for all the
    members of a stack. The sets are stacked in order by `_in_place_stacks`.
    Every other member reads its rows as an index array that the solve
    gathers: the members of one row count, in order of their first, are
    split into near-equal stacks of about _SOLVE_BYTES (`_stacks`), and a
    stack whose members all read ranges passes its rows as one
    (members, n) array, a[members, None] + arange(n). `pberm` fans each
    solved member out to its (seed, event) releases with one index and
    perturbs them in one draw. A member's result does not depend on its
    stack-mates, and a seed's subsample and noise streams derive from that
    seed and the model id alone (`_subseeds`, one vectorised call per
    label), so each seed's result equals a run of that seed by itself,
    event by event.

    The run is kept as arrays with a leading seed axis: one (S, M + 1, k, d)
    weight array indexed by seed position and model id, whose last model
    slot is the zero model, and (S, M + 1) noise-norm and skip columns
    beside it. A stack gathers its members' biases from it with one fancy
    index and stores its noisy weights, noise_l1 and noise_l2 with one
    assignment each; its biases come from earlier waves, so the order of a
    wave's stacks does not matter. Nothing is charged here: the run's
    charges are the schedule's (`ledger_from_events`).

    A sampled event keeps each point with its probability p. One whose
    subsample is empty is skipped for that seed: it is neither trained nor
    released, and later events regularized on it use its bias model, which
    minimises the empty-data objective lam*||w - bias||^2, so that is
    post-processing. Its charge still stands, since the amplified charge
    covers subsample-then-release whatever the subsample.

    nonprivate=True forces all noise scales to zero. A member that cannot
    be certified raises CertificateError naming its event and its first
    seed: the first refused in the first stack that refuses one, where a
    wave's in-place stacks come first, in order of their sets' first events,
    then the pooled ones. An empty `seeds` raises ScheduleError.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ScheduleError("need at least one seed")
    s, S = schedule, len(seeds)
    trained = np.flatnonzero(~s.adopt)  # the positions of the trained events
    late = trained[s.b[trained] >= stream.n]
    if len(late):
        e = late[0]
        raise ScheduleError(f"event at t={s.t[e]} needs point {s.b[e]} beyond stream end")
    ids = s.model_id[trained]
    noise_seeds = _subseeds(seeds, "noise", ids)
    sample_seeds = _subseeds(seeds, "sample", ids[s.rule[trained] > 0])
    zero = int(s.model_id.max(initial=-1)) + 1  # the zero model's slot
    weights = np.zeros((S, zero + 1, stream.k, stream.d))
    noise_l1, noise_l2 = np.zeros((2, S, zero + 1))
    skip = np.zeros((S, zero + 1), dtype=bool)
    scale, tau = np.zeros((2, zero + 1))
    source = np.full(zero + 1, zero)  # each model's regularizer
    scale[ids] = 0.0 if nonprivate else s.noise_scale[trained]
    tau[ids] = s.tau[trained]
    source[ids] = np.where(s.reg_source[trained] < 0, zero, s.reg_source[trained])
    lam = schedule.config.lam

    def member_bytes(n, gathered):
        """What a solve holds for one member of n rows (see _SOLVE_BYTES)."""
        rows = n * (stream.d + stream.k) if gathered else min(n, erm._CHUNK_ROWS) * stream.k
        return (rows + _SOLVE_ARRAYS * stream.k * stream.d) * 8

    for wave in _waves(ids, source[ids], zero):
        events = trained[wave]
        sampled = s.rule[events] > 0
        # an unsampled event whose seeds' biases are bit-equal, each distinct
        # regularizer compared once, is one member serving every seat; any
        # other event is a member per seat
        distinct, which = np.unique(source[s.model_id[events[~sampled]]], return_inverse=True)
        biases = weights[:, distinct].view(np.int64)
        shared = np.zeros(len(events), dtype=bool)
        shared[~sampled] = (biases == biases[:1]).all(axis=(0, 2, 3))[which]
        count, span = np.where(shared, 1, S), s.b[events] - s.a[events] + 1
        member = np.repeat(events, count)  # each member's event, in wave and seat order
        # a member serves `serves` seats from `seat`, and reads n rows
        seat, serves = _ranks(count), np.repeat(np.where(shared, S, 1), count)
        n = np.repeat(span, count)
        in_place = np.repeat(~sampled & (count * span * stream.d * 8 > _STACK_BYTES), count)
        drawn = {}  # a sampled member's subsample, by its place; an empty one is skipped
        for j in np.flatnonzero(np.repeat(sampled, count)).tolist():
            e, i = member[j], seat[j]
            mid = s.model_id[e]
            drawn[j] = subsample(int(n[j]), s.p[e], int(sample_seeds[i, mid])) + s.a[e]
            n[j] = len(drawn[j])
            if n[j] == 0:
                skip[i, mid] = True
                weights[i, mid] = weights[i, source[mid]]
        places = np.flatnonzero(in_place)
        starts, sizes = s.a[member[places]].tolist(), n[places].tolist()
        stacks = [(places[stack], False) for stack in _in_place_stacks(
            _chunk_sharing(starts, sizes), starts, sizes, lambda n: member_bytes(n, False),
            stream.d * 8)]
        pooled = np.flatnonzero(~in_place & (n > 0))
        lengths, first_at = np.unique(n[pooled], return_index=True)
        for size in lengths[np.argsort(first_at)].tolist():  # in order of first member
            group = pooled[n[pooled] == size]
            stacks += [(stack, True) for stack in _stacks(
                group, len(group) * member_bytes(size, True), _SOLVE_BYTES)]
        for stack, gathered in stacks:
            e, first = member[stack], seat[stack]
            if not gathered:
                rows = [range(a, b + 1) for a, b in zip(s.a[e].tolist(), s.b[e].tolist())]
            elif drawn.keys().isdisjoint(stack.tolist()):  # one (members, n) array
                rows = s.a[e][:, None] + np.arange(n[stack[0]])
            else:  # as index arrays, which solve gathers into blocks
                rows = [drawn.get(j, np.arange(a, a + size)) for j, a, size in
                        zip(stack.tolist(), s.a[e].tolist(), n[stack].tolist())]
            mids = s.model_id[e]
            # each (seed, event) release: its seat and the member it is a release of
            fan = np.repeat(np.arange(len(stack)), serves[stack])
            seats = first[fan] + _ranks(serves[stack])
            released = mids[fan]
            try:
                result = pberm(weights[first, source[mids]], stream, lam, tau[mids],
                               scale[released], noise_seeds[seats, released], rows, fan)
            except CertificateError as exc:
                j = e[exc.member]
                where = (f"event at t={s.t[j]} on [{s.a[j]}, {s.b[j]}], "
                         f"seed {seeds[first[exc.member]]}")
                raise CertificateError(exc.iterations, exc.grad_norm, exc.member, where) from None
            weights[seats, released], noise_l1[seats, released], noise_l2[seats, released] = result

    return RunResult(weights, noise_l1, noise_l2, skip)


def _ranks(count) -> np.ndarray:
    """0, 1, ..., count[i] - 1 for each i in turn."""
    return np.arange(count.sum()) - np.repeat(count.cumsum() - count, count)


def _waves(ids, sources, zero) -> list:
    """The positions of events of model ids ids and regularizers sources
    (zero, the zero model's slot, for none) by dependency wave, each wave in
    schedule order.

    An event's wave is one more than its regularizer's, and 1 without one:
    each pass sets every event's from its regularizer's, until none moves.
    """
    depth = np.zeros(zero + 1, dtype=np.int64)  # the zero model's stays 0
    while not np.array_equal(depth[ids], wave := depth[sources] + 1):
        depth[ids] = wave
    order = np.argsort(wave, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(wave[order])) + 1) if len(order) else []


def _chunk_sharing(starts, sizes):
    """The members that read their ranges in place, given by each one's start
    and row count, as their positions, in sets that share a chunk
    (`erm._CHUNK_ROWS` rows counted from a member's own start, one start and
    length), joined transitively: each set in order of start, longest first,
    and the sets in order of their first member."""
    root = list(range(len(starts)))  # union-find over the members' positions

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    first = {}  # chunk -> the first member that reads it
    for i, (start, n) in enumerate(zip(starts, sizes)):
        for off in range(0, n, erm._CHUNK_ROWS):
            j = first.setdefault((start + off, min(erm._CHUNK_ROWS, n - off)), i)
            a, b = sorted((find(i), find(j)))
            root[b] = a
    sets = {}
    for i in range(len(starts)):
        sets.setdefault(find(i), []).append(i)
    return [sorted(m, key=lambda i: (starts[i], -sizes[i])) for m in sets.values()]


def _in_place_stacks(sets, starts, sizes, state, row_bytes):
    """The stacks of a wave's in-place members, given by each one's start and
    row count, from their chunk-sharing sets in order (`_chunk_sharing`),
    where state(n) is what a solve holds for a member that reads n rows and
    row_bytes the bytes of one row.

    A set is added whole to the current stack while the stack stays within
    _SOLVE_BYTES, so small sets share one call; one that does not fit closes
    the current stack. A set over _SOLVE_BYTES on its own is one stack
    while its state is at most the bytes of the distinct rows it reads,
    which are in memory already, and past that is split, in order, into
    near-equal stacks under the larger of those bytes and _SOLVE_BYTES
    (`_stacks`): a set is cut only where its solver state would outgrow
    both."""
    stack, held = [], 0
    for members in sets:
        size = sum(state(sizes[i]) for i in members)
        if stack and held + size > _SOLVE_BYTES:
            yield stack
            stack, held = [], 0
        if held + size <= _SOLVE_BYTES:
            stack += members
            held += size
            continue
        distinct, end = 0, 0  # the rows of the union of the ranges, by start
        for i in members:
            distinct += max(0, starts[i] + sizes[i] - max(starts[i], end))
            end = max(end, starts[i] + sizes[i])
        yield from _stacks(members, size, max(_SOLVE_BYTES, distinct * row_bytes))
    if stack:
        yield stack


def _stacks(members, total_bytes, cap):
    """Split members, in order, into near-equal stacks of about cap bytes,
    the members holding total_bytes in all: as many stacks as total_bytes
    over the cap, rounded up, and at most one per member."""
    count = min(len(members), -(-total_bytes // cap))
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


def trace_header(schedule: Schedule) -> dict:
    """The first line of a trace: the scheduler (its config's name, `-sample`
    included), its eps (as eps_num and eps_den, like an event's charge), its
    budgets, each an exact [numerator, denominator] pair, and the lambda,
    Lipschitz constant and tolerance share (`mechanisms.TAU_SHARE`) its
    events are calibrated with."""
    cfg = schedule.config
    return {
        "scheduler": cfg.name,
        "eps_num": cfg.eps.numerator,
        "eps_den": cfg.eps.denominator,
        "budgets": {sub: [b.numerator, b.denominator] for sub, b in schedule.budgets.items()},
        "lam": cfg.lam,
        "L": cfg.L,
        "tau_share": TAU_SHARE,
    }


# One event's trace line: the bytes json.dumps gives of a dict of its fields
# in this order, level, reg_source and sampled_p null for None and the charge
# in lowest terms.
_TRACE_LINE = ('{{"t": {}, "kind": "{}", "level": {}, "a": {}, "b": {}, "reg_source": {}, '
               '"noise_scale": {}, "sampled_p": {}, "eps_num": {}, "eps_den": {}, '
               '"model_id": {}}}\n')


def export_trace(schedule: Schedule, path=None):
    """Write the schedule's trace to path, or to standard output without one:
    its `trace_header`, then one `_TRACE_LINE` per event, one JSON object a
    line, written from a template with the bytes json.dumps gives.
    `ledger_from_trace` reads it back.

    The fields that repeat across events, kind, level, noise_scale,
    sampled_p and the charge, are formatted into `_TRACE_LINE` once per
    distinct combination of their columns, floats by their bits (0.0 and
    -0.0 are written apart), which leaves a line template of t, a, b,
    reg_source and model_id to fill in per event. All lines are written in
    one call.
    """
    s = schedule
    cols = (s.kind, s.level, s.noise_scale.view(np.int64), s.p.view(np.int64), s.rule, s.eps_num,
            s.eps_den)
    order = np.lexsort(cols)  # the events by combination, each in schedule order
    new = np.arange(len(order)) == 0  # each sorted event that starts a combination
    for col in cols:
        new[1:] |= col[order][1:] != col[order][:-1]
    first, which = order[new], np.empty_like(order)
    which[order] = new.cumsum() - 1  # each event's combination
    templates = [_TRACE_LINE.format(
        "%s", KINDS[kind], json.dumps(None if level < 0 else level), "%s", "%s", "%s",
        json.dumps(scale), json.dumps(p if rule else None), num, den, "%s")
        for kind, level, scale, p, rule, num, den in zip(*(
            getattr(s, f)[first].tolist() for f in ("kind", "level", "noise_scale", "p", "rule",
                                                    "eps_num", "eps_den")))]
    regs = ["null" if r < 0 else r for r in s.reg_source.tolist()]
    lines = map(operator.mod, [templates[i] for i in which.tolist()],
                zip(s.t.tolist(), s.a.tolist(), s.b.tolist(), regs, s.model_id.tolist()))
    with open(path, "w") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(trace_header(schedule)) + "\n")
        fh.write("".join(lines))


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

    Line 1 must be the header. It names a scheduler of `SCHEDULERS`, and its
    budgets are checked by value: they must be the `schedule_budgets` of that
    scheduler (without `-sample`) at its eps (for continual, with or without
    standalone bases), or a LedgerError naming line 1 says they are not. Each
    later line is an event, charged to its kind's subsystem with the kind as
    mechanism; a zero charge is skipped. Any line end reads as a newline, and
    the last line needs none.

    Only the writer's layout is read: `_charge` matches the events with
    `_TRACE_PATTERN`, built from the writer's template, `_TRACE_CHUNK`
    characters at a time, and names the first bad line. A byte that is not
    UTF-8 is read as a lone surrogate, which no field's grammar takes.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        try:
            head = json.loads(fh.readline().encode())
            name = head["scheduler"]
            eps = _ratio(head["eps_num"], head["eps_den"])
            budgets = {sub: _ratio(num, den) for sub, (num, den) in head["budgets"].items()}
        except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise LedgerError(f"trace line 1 is not a trace header: {exc!r}") from exc
        if not isinstance(name, str) or name not in SCHEDULERS:
            raise LedgerError(f"trace line 1 names no schedule: {name!r}")
        if eps <= 0:
            raise LedgerError(f"trace line 1 has an invalid eps: {eps}")
        rules = [schedule_budgets(name.removesuffix("-sample"), eps, standalone)
                 for standalone in (False, True)]
        if budgets not in rules:
            shown = ["{" + ", ".join(f"{sub}: {b}" for sub, b in rule.items()) + "}"
                     for rule in (budgets, *rules)]
            raise LedgerError(f"trace line 1 budgets {shown[0]} are not those of a {name} "
                              f"schedule of eps {eps}: {' or '.join(dict.fromkeys(shown[1:]))}")
        ledger, lineno, tail = Ledger(budgets=budgets), 2, ""
        for chunk in iter(functools.partial(fh.read, _TRACE_CHUNK), ""):
            text, newline, tail = (tail + chunk).rpartition("\n")
            if newline:
                text += newline  # in place: text is the one reference
                lineno = _charge(ledger, text, lineno)
        if tail:
            _charge(ledger, tail + "\n", lineno)
    return eps, ledger


def _ratio(num, den) -> Fraction:
    """Fraction(num, den) of a header's two integers. A bool, which Fraction
    takes as 0 or 1, raises TypeError."""
    if isinstance(num, bool) or isinstance(den, bool):
        raise TypeError(f"{num!r}/{den!r} is not a ratio of integers")
    return Fraction(num, den)


def _integers(columns) -> np.ndarray:
    """Columns of decimal integers as rows of int64, or of Python ints if a
    value does not fit."""
    try:
        return np.array(columns, dtype=np.int64)
    except OverflowError:
        return np.array([list(map(int, col)) for col in columns], dtype=object)


def _charge(ledger, text, lineno) -> int:
    """Charge the event lines of text, each ending in a newline and the first
    being trace line lineno, to ledger, and return the next line's number.
    If a line does not match `_TRACE_PATTERN`, its kind has no budget, its
    denominator is not positive or `Ledger.extend` refuses its charge, the
    lines are charged again one at a time, each to a scratch ledger, and a
    LedgerError names the first that fails and why, quoting it if it does
    not match."""
    rows = _TRACE_PATTERN.findall(text)
    try:
        if len(rows) != text.count("\n"):
            line = text.partition("\n")[0]
            raise LedgerError(f"{line[:120]!r}{'...' if len(line) > 120 else ''} is not an "
                              "event line in the writer's layout")
        t, kinds, a, b, num, den = zip(*rows)
        missing = {KIND_SUBSYSTEM[kind] for kind in set(kinds)} - ledger.budgets.keys()
        if missing:
            raise LedgerError(f"the header has no {min(missing)} budget")
        (t, a, b), (num, den) = _integers((t, a, b)), _integers((num, den))
        if not (den > 0).all():
            raise LedgerError("charge denominators must be positive")
        if not num.all():  # a zero charge is skipped
            keep = num != 0
            t, a, b, num, den = t[keep], a[keep], b[keep], num[keep], den[keep]
            kinds = list(itertools.compress(kinds, keep))
        ledger.extend(a, b, num, den, [KIND_SUBSYSTEM[kind] for kind in kinds], t, kinds)
    except LedgerError as exc:
        lines = text.split("\n")[:-1]
        if len(lines) == 1:
            raise LedgerError(f"malformed trace line {lineno}: {exc}") from exc
        for n, line in enumerate(lines, start=lineno):
            _charge(Ledger(budgets=ledger.budgets), line + "\n", n)
        raise
    return lineno + len(rows)
