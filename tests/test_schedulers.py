import dataclasses
import functools
import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamdp import (
    Dataset,
    Ledger,
    ScheduleError,
    SchedulerConfig,
    SynthConfig,
    build_schedule,
    execute,
    ledger_from_events,
    multires_events_at,
    replay,
    synth_stream,
    window_shape,
)
from streamdp import erm, mechanisms, schedulers
from streamdp.cli import SCHEDULERS
from streamdp.erm import CertificateError, ErmError, lipschitz_public
from streamdp.mechanisms import TAU_SHARE, pberm, sampling_probability, subsample
from streamdp.rng import make_rng
from streamdp.schedulers import KINDS, RULES, SIDES, sliding_chain
from conftest import charges, ledger_until

EPS = Fraction(1)


def schedule_of(name, T, lam=1.0, L=1.0, **sizes):
    """The schedule of the named scheduler at eps EPS on a stream of length T."""
    return build_schedule(SchedulerConfig(name, EPS, lam, L, **sizes), T)


def eps_of(schedule):
    """Each event's charge, a Fraction."""
    return list(map(Fraction, schedule.eps_num.tolist(), schedule.eps_den.tolist()))


def columns(schedule, *names):
    """The named event columns of a schedule as Python values, one tuple an
    event in schedule order: "kind" as its KINDS name, "eps" as the charge
    (`eps_of`), and every other column as it is stored."""
    read = {"kind": lambda s: [KINDS[k] for k in s.kind.tolist()], "eps": eps_of}
    return list(zip(*(read[name](schedule) if name in read else getattr(schedule, name).tolist()
                      for name in names)))


def releases(schedule):
    """The schedule's releases as (t, model id) pairs."""
    return tuple(zip(schedule.release_t.tolist(), schedule.release_mid.tolist()))


# Brute-force oracles: re-derive events directly from the release conditions,
# independently of the incremental generators.


def oracle_multires(T, B):
    out = []
    for t in range(1, T):
        k = 0
        while 2**k * B <= t:
            if t % (2**k * B) == 0:
                out.append((t, k, t - 2**k * B, t - 1, Fraction(1, 2 * 2**k)))
            k += 1
    return out


def oracle_continual(T, B, b0):
    out = []
    t_g = None
    for t in range(1, T):
        if t >= B and t % B == 0 and _pow2(t // B):
            out.append((t, "Base", 0, t - 1, Fraction(0)))
            t_g = t
        elif t_g is not None and (t - t_g) % b0 == 0 and t > t_g:
            blocks = (t - t_g) // b0
            if _pow2(blocks) and blocks > 1:
                j = blocks.bit_length() - 1
                out.append((t, "LargeUpdate", t_g, t - 1, Fraction(1, 2 * 2**j)))
            else:
                out.append((t, "SmallUpdate", t - b0, t - 1, Fraction(1, 2)))
    return out


def _pow2(x):
    return x > 0 and x & (x - 1) == 0


def oracle_sliding_buckets(t, w, w0):
    """Closed-form bucket layout at event step t: left/base/right regions with
    binary block decompositions derived arithmetically, no simulation."""
    k = (w // w0 + 1).bit_length() - 1
    cycle = 2 ** (k - 1)
    cap = cycle - 1
    advances = (t - (w - 1)) // w0
    r = advances % cycle
    s = t - w + 1
    buckets = []
    # left region: binary decomposition of (cap - r) blocks, smallest oldest
    pos = s
    size = 1
    remaining = cap - r
    while remaining:
        if remaining & size:
            buckets.append((pos, pos + size * w0 - 1, "left"))
            pos += size * w0
            remaining &= ~size
        size <<= 1
    buckets.append((pos, pos + cycle * w0 - 1, "base"))
    pos += cycle * w0
    # right region: binary decomposition of r blocks, largest adjacent to base
    for bit in reversed(range(cycle.bit_length())):
        size = 1 << bit
        if r & size:
            buckets.append((pos, pos + size * w0 - 1, "right"))
            pos += size * w0
    assert pos == t + 1
    return buckets


def oracle_sliding_schedule(T, w, w0, sampled):
    """The structure of a sliding schedule's events, its releases and its
    chain states, stepped through `oracle_sliding_buckets`: the chain is the
    base, then the buckets by descending size, a left one before a right one
    of the same size; a bucket whose interval was not in the previous step's
    chain is retrained with the next model id, regularized on the bucket
    before it, and the smallest bucket is released. Each event is the tuple
    `TestSlidingSchedule.test_structure_is_pinned` hashes."""
    cycle = (w // w0 + 1) // 2
    events, releases, states = [], [], []
    prev, next_id = {}, 0
    for n, t in enumerate(range(w - 1, T, w0)):
        kind = "WindowInit" if n == 0 else "WindowAdvance" if n % cycle else "WindowRefresh"
        chain, trained = [], []
        for a, b, side in sorted(oracle_sliding_buckets(t, w, w0),
                                 key=lambda bk: (bk[2] != "base", bk[0] - bk[1], bk[2] != "left")):
            mid = prev.get((a, b))
            if mid is None:
                mid, next_id = next_id, next_id + 1
                blocks = (b - a + 1) // w0
                eps = EPS / 3 if side == "base" else EPS / (6 * blocks)
                rule = "reciprocal" if sampled and side != "base" and blocks > 1 else None
                events.append((t, kind, blocks.bit_length() - 1, a, b, str(eps), mid,
                               chain[-1][3] if chain else None, side, rule))
                trained.append(mid)
            chain.append((a, b, side, mid))
        prev = {(a, b): mid for a, b, _, mid in chain}
        releases.append((t, chain[-1][3]))
        states.append((t, tuple(chain), tuple(trained), chain[-1][3]))
    return events, tuple(releases), states


def structure_digest(events, releases):
    """SHA-256 of the events' structure tuples, then of the releases."""
    h = hashlib.sha256()
    for e in events:
        h.update(repr(e).encode())
    h.update(repr(releases).encode())
    return h.hexdigest()


def event_structures(schedule):
    """Each event's (t, kind, level, a, b, eps as str, model id, reg_source,
    side, sampling rule), None where a code stands for None."""
    return [(t, kind, None if level < 0 else level, a, b, str(eps), mid, None if reg < 0 else reg,
             SIDES[side], RULES[rule])
            for t, kind, level, a, b, eps, mid, reg, side, rule in columns(
                schedule, "t", "kind", "level", "a", "b", "eps", "model_id", "reg_source", "side",
                "rule")]


# SHA-256 of each event's structure (`event_structures`) and of the releases,
# as the step-by-step bucket simulation built them before the chain was
# computed in closed form. noise_scale is left out: it follows from the
# structure and the calibration, which may change on its own.
PINNED_STRUCTURE = pytest.mark.parametrize("sampled,T,w,w0,digest", [
    (False, 8000, 255, 1, "a9d00c049b48d4357defacf86599f42551a3b09688c3310873cfe079d5918283"),
    (False, 1000, 42, 6, "ebd7efff480d582031ace7b078dda12f14efad5cb87b1a09d6e034c93c9949db"),
    (False, 200, 7, 1, "13ce9e175844296b80babcef5d62dc14a7d2804c15c4b25c669b728e6dd8ef2b"),
    (True, 8000, 255, 1, "8f33013f51d6be1bebf929f949a8d2557757ade72f3513ee1a7b92a7bea04dde"),
    (True, 1000, 42, 6, "405c408b5906b37aa537123a6bb9b84fd713792f671cda1d44f3733712d1ef25"),
    (True, 200, 7, 1, "5a04b133d31448dab53865d8a84d12437429ca2c4efe3b19e16e395412bc87b2"),
], ids=["sliding-255", "sliding-42x6", "sliding-7", "sliding-sample-255",
        "sliding-sample-42x6", "sliding-sample-7"])

# SHA-256 of export_trace's bytes and of ledger_from_events' columns
# (`ledger_digest`) for every scheduler, and continual with each flag, at eps
# 2/3, lambda 0.7 and L 0.37, on two (T, block sizes) points. The trace
# digests are those the event-by-event schedule wrote before it was kept as
# columns; the ledger digests were taken from the columns when they still
# matched the digests of the ledger's charge records.
PINNED_SIZES = {200: dict(B=8, b0=2, w=42, w0=6), 3000: dict(B=48, b0=6, w=255, w0=1)}
PINNED_OUTPUTS = pytest.mark.parametrize("name,flag,T,trace,ledger", [
    ("multires", None, 200, "90f8e8e09d3f6024f25258769dfb96598a2dca071bf13e6d5915c35a190b313a",
     "5550098d38ca71e8ecbaae0b7ef03aec6a28e27663f7e4b4263033a219a790c1"),
    ("multires", None, 3000, "89e734d9019ff7db6c95332b6543e6b772abc1b25563409ff0fc882500f7bcf0",
     "84de85f1327c73681b5c72467f454969265c5937a854574d137a7932a92946d5"),
    ("multires-sample", None, 200,
     "c1d4467becfd1aedae988e275253fe978c41d564b7e40d877601e0096b239b2a",
     "5550098d38ca71e8ecbaae0b7ef03aec6a28e27663f7e4b4263033a219a790c1"),
    ("multires-sample", None, 3000,
     "363656d982a7019c0dd5af0e824ce1198d54ac76ffe04b7c3fa44e45e7912f80",
     "84de85f1327c73681b5c72467f454969265c5937a854574d137a7932a92946d5"),
    ("continual", None, 200, "2d459a086f54a824396ac564395dfb481bca80608588d3b5c74178703b31f2ad",
     "bfc69cafe68202504400b2b8275dd2261adf07db051c61f7a3187daa3f2ad727"),
    ("continual", None, 3000, "9f8fd27df346420476250dc1c1d51d40c0d29ae0eac94daf4a94bf6de70d139c",
     "8df533d1717e51b196ca8e12efcf0df96f815eb11ba37ad638213a8b2205b98c"),
    ("continual-sample", None, 200,
     "30816ba8d7b2baac2ce9c84a49aebb266b450b3206c529be33fe4550fdbc0091",
     "bfc69cafe68202504400b2b8275dd2261adf07db051c61f7a3187daa3f2ad727"),
    ("continual-sample", None, 3000,
     "d95401bb0ef35aa175fd10e32cbce6ef79e8a4ea14a68193fe8ab4f5fdd7628f",
     "8df533d1717e51b196ca8e12efcf0df96f815eb11ba37ad638213a8b2205b98c"),
    ("sliding", None, 200, "5dd415f80c8e46cac51231072d6d73c5ec62dc6aa18755f055817f5f7b463880",
     "0f8565104bb1f5f931863cc09396509d46b8fa34191df1c315433d967fbaf3b3"),
    ("sliding", None, 3000, "012b428395caf274a9cd579410beb1d0c635091ba2cc3e6576e3188331fe6f09",
     "fa8748aa6aa8a541a32caaa54f9e76ed66e39ea11fb76cc64b70112047994e59"),
    ("sliding-sample", None, 200,
     "184f41fe16aa39785cc0d274352fe359d3d4ec9931558dd9d4fdbcfdd746e63c",
     "0f8565104bb1f5f931863cc09396509d46b8fa34191df1c315433d967fbaf3b3"),
    ("sliding-sample", None, 3000,
     "baaf7ce8514cc221bf146dcb84eddaedef7f285e8646637359f3808e42769674",
     "fa8748aa6aa8a541a32caaa54f9e76ed66e39ea11fb76cc64b70112047994e59"),
    ("baseline-independent", None, 200,
     "821ac1b991d6b78dec9835db12370ae9b49b8f72367ef13412291313037d95db",
     "63120a4f90b326ae54008fdc6b34872047239f9e527f37bb04c8c8d217946340"),
    ("baseline-independent", None, 3000,
     "23a4f4f6ad598bc8991354a6a6e7e0b075548e9be0c689bfb1f04583f0e64c15",
     "7bf5ec707ba3059fe58bf6438b89077cc99ccf9aea089a9ab644f939327b7437"),
    ("baseline-basic", None, 200,
     "22fa5d24b90c1aa4e6af9102f22c6553915231d9c479efa7ec33f042339f6e98",
     "b9f48a4ef32439b2b43b5a43cf46f0cdc5ec49eedcf25d966a210a02667de15e"),
    ("baseline-basic", None, 3000,
     "cd78430d7829bf319b7050bd38a97a49356ec96deb645381dab76132e0e1a886",
     "00f34a090d00737e2a5f88bc0b1016c5865a261263d58b80bd512164f36f7853"),
    ("continual", "standalone_base", 200,
     "3eae1cc502de9c1e3f83ab315d129829bf6473efd2d9420b1ea49b5c996c8625",
     "cefbe1350787c4373bd10fd129f39f8c3e6f254a8cbfcaaa5a4aed5f8841d9e4"),
    ("continual", "standalone_base", 3000,
     "9dd231ab99be0963db555792216169874d9e6fdeff6a111fad7fba92a82cc9aa",
     "916787451b32b3b3c5fe83e9e5fe5bf7f22045f36c9fc5024c63ed1d3e3f2874"),
    ("continual", "first_base_at_2B", 200,
     "1dc1827828b19bd114ac75af5981abd24e179b50bd37b243db860bc41bca2450",
     "a57a3a49c7aab3b92949b8c694031924cb4ba2e4454b6ca2f41851ba435ddc28"),
    ("continual", "first_base_at_2B", 3000,
     "b79cf7b03f514bcefa8c0688d37ee4a769ada9b471468bb42801932c2e92b16a",
     "47800a69132ce19ac79eea4fb7b1b81a3104da590f5e5a4c41c63645dcb0417c"),
])


def ledger_digest(ledger):
    """SHA-256 of a ledger's columns, common denominator and names."""
    cols = [ledger.column(name).tolist() for name in ("a", "b", "time", "sub", "mech", "num")]
    return hashlib.sha256(repr((cols, ledger.den, ledger.subsystems, ledger.mechanisms))
                          .encode()).hexdigest()


def chain_signature(states):
    return [
        (st.t, tuple((a, b, side) for a, b, side, _ in st.buckets))
        for st in states
    ]


class TestMultiresEventsAt:
    def test_b2_t8_levels(self):
        assert multires_events_at(8, 2) == [(0, (6, 7)), (1, (4, 7)), (2, (0, 7))]

    def test_non_multiple_is_empty(self):
        assert multires_events_at(7, 2) == []
        assert multires_events_at(0, 2) == []

    def test_partial_levels(self):
        assert multires_events_at(6, 2) == [(0, (4, 5))]
        assert multires_events_at(12, 2) == [(0, (10, 11)), (1, (8, 11))]


class TestMultiresSchedule:
    @pytest.mark.parametrize("B", [1, 2, 8])
    @pytest.mark.parametrize("T", [1, 5, 64, 257])
    def test_matches_oracle(self, T, B):
        sched = schedule_of("multires", T, B=B)
        assert columns(sched, "t", "level", "a", "b", "eps") == oracle_multires(T, B)

    def test_intervals_tile_each_level(self):
        sched = schedule_of("multires", 129, B=4)
        for k in np.unique(sched.level):
            at = sched.level == k
            order = np.lexsort((sched.b[at], sched.a[at]))
            a, b = sched.a[at][order], sched.b[at][order]
            assert np.array_equal(a[1:], b[:-1] + 1)  # disjoint, contiguous blocks

    def test_invalid_b(self):
        with pytest.raises(ScheduleError):
            schedule_of("multires", 10, B=0)


class TestContinualSchedule:
    @pytest.mark.parametrize("B,b0", [(8, 2), (8, 1), (4, 2), (16, 2)])
    def test_matches_oracle(self, B, b0):
        T = 200
        sched = schedule_of("continual", T, B=B, b0=b0)
        got = [e for e in columns(sched, "t", "kind", "a", "b", "eps") if e[1] != "MultiRes"]
        assert got == oracle_continual(T, B, b0)

    def test_worked_example(self):
        # B=8, b0=2: after the base at t=8, t=10 small, t=12 large j=1,
        # t=14 small against the large model, t=16 next base
        sched = schedule_of("continual", 17, B=8, b0=2)
        names = ("kind", "a", "b", "reg_source", "model_id", "level", "eps")
        ev = {t: dict(zip(names, e)) for t, *e in columns(sched, "t", *names)
              if e[0] != "MultiRes"}
        assert ev[8]["kind"] == "Base"
        assert (ev[10]["kind"], ev[10]["a"], ev[10]["b"]) == ("SmallUpdate", 8, 9)
        assert ev[10]["reg_source"] == ev[8]["model_id"]
        assert (ev[12]["kind"], ev[12]["a"], ev[12]["b"]) == ("LargeUpdate", 8, 11)
        assert ev[12]["level"] == 1 and ev[12]["eps"] == Fraction(1, 4)
        assert (ev[14]["kind"], ev[14]["a"], ev[14]["b"]) == ("SmallUpdate", 12, 13)
        assert ev[14]["reg_source"] == ev[12]["model_id"]
        assert ev[16]["kind"] == "Base"

    def test_base_adopts_multires_model(self):
        sched = schedule_of("continual", 33, B=8, b0=2)
        bases = sched.kind == KINDS.index("Base")
        prefix = (sched.kind == KINDS.index("MultiRes")) & (sched.a == 0)
        prefixes = dict(zip(sched.t[prefix].tolist(), sched.model_id[prefix].tolist()))
        assert sched.adopt[bases].all() and not sched.eps_num[bases].any()
        assert sched.model_id[bases].tolist() == [prefixes[t] for t in sched.t[bases].tolist()]

    def test_standalone_bases_are_trained_and_charged(self):
        sched = schedule_of("continual", 33, B=8, b0=2, standalone_base=True)
        assert KINDS.index("MultiRes") not in sched.kind
        bases = sched.kind == KINDS.index("Base")
        assert not sched.adopt[bases].any() and (sched.reg_source[bases] == -1).all()
        assert list(itertools.compress(eps_of(sched), bases)) == [
            Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

    def test_invalid_block_sizes(self):
        with pytest.raises(ScheduleError):
            schedule_of("continual", 10, B=4, b0=3)
        with pytest.raises(ScheduleError):
            schedule_of("continual", 10, B=2, b0=4)


class TestSlidingSchedule:
    def test_window_shape_validation(self):
        assert window_shape(7, 1) == 3
        assert window_shape(14, 2) == 3
        assert window_shape(31, 1) == 5
        assert window_shape(3, 1) == 2  # smallest legal window
        with pytest.raises(ScheduleError):
            window_shape(6, 1)
        with pytest.raises(ScheduleError):
            window_shape(1, 1)  # k=1 has no room for side buckets
        with pytest.raises(ScheduleError):
            window_shape(7, 2)  # not a multiple of w0

    @pytest.mark.parametrize("w,w0", [(7, 1), (15, 1), (31, 1), (14, 2)])
    def test_buckets_match_closed_form_oracle(self, w, w0):
        T = 6 * w
        for state in sliding_chain(T, w, w0):
            got = sorted((a, b, side) for a, b, side, _ in state.buckets)
            want = sorted(oracle_sliding_buckets(state.t, w, w0))
            assert got == want, f"t={state.t}"

    def test_trained_buckets_are_exactly_the_changed_ones(self):
        # T = 4w spans at least three refresh cycles of 2^(k-1) * w0 points
        for T, w, w0 in [(100, 15, 1), (4 * 14, 14, 2), (4 * 42, 42, 6)]:
            sched = schedule_of("sliding", T, w=w, w0=w0)
            id_of = {mid: (a, b) for mid, a, b in columns(sched, "model_id", "a", "b")}
            prev = None
            states = sliding_chain(T, w, w0)
            refreshes = sum(st.t > w - 1 and len(st.trained) == len(st.buckets) for st in states)
            assert refreshes >= 3, f"w={w}, w0={w0}"
            for state in states:
                intervals = {(a, b) for a, b, _, _ in state.buckets}
                trained_intervals = {id_of[m] for m in state.trained}
                if prev is not None:
                    assert trained_intervals == intervals - prev, f"w={w}, w0={w0}, t={state.t}"
                prev = intervals

    def test_released_model_is_smallest_bucket(self):
        for state in sliding_chain(60, 7, 1):
            sizes = [(b - a, mid) for a, b, _, mid in state.buckets]
            smallest = min(sizes)[1]
            assert state.released == smallest

    @pytest.mark.parametrize("T,w,w0", [(60, 7, 1), (100, 15, 1), (90, 14, 2), (6, 7, 1)])
    def test_chain_follows_the_schedule(self, T, w, w0):
        # the chain and the schedule are read from the same steps
        sched = schedule_of("sliding", T, w=w, w0=w0)
        states = sliding_chain(T, w, w0)
        assert tuple((st.t, st.released) for st in states) == releases(sched)
        trained = {}
        for t, mid in columns(sched, "t", "model_id"):
            trained.setdefault(t, []).append(mid)
        assert [list(st.trained) for st in states] == [trained[st.t] for st in states]

    def test_charges(self):
        sched = schedule_of("sliding", 60, w=7, w0=1)
        for a, b, side, eps in columns(sched, "a", "b", "side", "eps"):
            blocks = (b - a + 1) // 1
            assert eps == (Fraction(1, 3) if SIDES[side] == "base" else Fraction(1, 6 * blocks))

    def test_regularizer_is_next_larger_bucket(self):
        sched = schedule_of("sliding", 60, w=7, w0=1)
        states = {st.t: st for st in sliding_chain(60, 7, 1)}
        for t, side, mid, reg in columns(sched, "t", "side", "model_id", "reg_source"):
            if SIDES[side] == "base":
                assert reg == -1
                continue
            chain = states[t].buckets
            idx = [m for _, _, _, m in chain].index(mid)
            assert idx > 0
            assert reg == chain[idx - 1][3]

    def test_short_stream_has_no_events(self):
        sched = schedule_of("sliding", 6, w=7, w0=1)
        assert [len(getattr(sched, f.name)) for f in dataclasses.fields(sched)[1:]] == [0] * 17

    @PINNED_STRUCTURE
    def test_structure_is_pinned(self, sampled, T, w, w0, digest):
        sched = schedule_of("sliding-sample" if sampled else "sliding", T, w=w, w0=w0)
        assert structure_digest(event_structures(sched), releases(sched)) == digest

    @PINNED_STRUCTURE
    def test_the_oracle_gives_the_pinned_structure(self, sampled, T, w, w0, digest):
        events, releases, _ = oracle_sliding_schedule(T, w, w0, sampled)
        assert structure_digest(events, releases) == digest

    def assert_matches_the_oracle(self, T, w, w0, sampled):
        events, released, states = oracle_sliding_schedule(T, w, w0, sampled)
        sched = schedule_of("sliding-sample" if sampled else "sliding", T, w=w, w0=w0)
        assert event_structures(sched) == events
        assert releases(sched) == released
        assert [(st.t, st.buckets, st.trained, st.released)
                for st in sliding_chain(T, w, w0)] == states

    # T < w, T = w (one step), Ts that end at a refresh, and Ts that end
    # mid-cycle, for w0 = 1 and w0 > 1, from the smallest window (k = 2) to
    # k = 9
    @pytest.mark.parametrize("T,w,w0", [
        (2, 3, 1), (3, 3, 1), (4, 3, 1), (11, 7, 1), (7, 7, 1), (8, 7, 1), (10, 7, 1),
        (15, 7, 1), (13, 14, 2), (14, 14, 2), (29, 14, 2), (33, 14, 2), (41, 42, 6),
        (42, 42, 6), (101, 42, 6), (226, 42, 6), (200, 31, 1), (143, 93, 3), (17, 6, 2),
        (1123, 511, 1), (30, 14, 2),
    ])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_steps_match_the_oracle(self, sampled, T, w, w0):
        self.assert_matches_the_oracle(T, w, w0, sampled)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 9), st.integers(1, 6), st.booleans())
    def test_any_window_matches_the_oracle(self, data, k, w0, sampled):
        # T from w - 1 (no step) to 5 refresh cycles of 2^(k-1) steps past w
        w = (2**k - 1) * w0
        T = w + data.draw(st.integers(-1, 5 * 2 ** (k - 1) * w0), label="T - w")
        self.assert_matches_the_oracle(T, w, w0, sampled)

    def test_a_long_schedule_holds_its_columns_alone(self):
        # the bounds follow from the column dtypes, fixed before any run:
        # eight int64 columns (t, level, a, b, eps_num, eps_den, model_id,
        # reg_source), three float64 (noise_scale, tau, p), three int8 codes
        # and a bool, 92 bytes an event (a record object an event held 292), and
        # two int64 release columns, 16 bytes a step; 64 KiB covers the array
        # headers. At its peak the build holds besides at most fourteen int64
        # an event (each new cell's step and level, its other columns before
        # their int8 codes, and the temporaries of its bucket and its
        # regularizer's), and fifteen int64 a step (the step times, each
        # step's top new level, first model id and kind, the temporaries of
        # the release column, and the new-cell mask, one byte per chain
        # position: a chain has one bucket a level, k = 8 at w = 255). A
        # short build first leaves out what a first call caches for good.
        T, w = 50_000, 255
        schedule_of("sliding", 2 * w, w=w, w0=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sched = schedule_of("sliding", T, w=w, w0=1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        events, steps = len(sched.t), len(sched.release_t)
        assert steps == T - w + 1 and events > steps
        assert held - before <= 92 * events + 16 * steps + (64 << 10)
        assert peak - before <= (92 + 48 + 64) * events + (16 + 8 * 15) * steps + (64 << 10)

    def test_a_build_holds_no_memory_per_phase(self):
        # a window of 2^20 - 1 points has 2^19 phases, where one int64 a
        # phase would take 4 MiB; w + 10 points give 11 steps of 20 levels,
        # and the schedule and the chain are built from those cells alone,
        # within 1 KiB a cell
        w = 2**20 - 1
        bound = 1024 * 11 * window_shape(w, 1)
        built, peaks = [], []
        for build in (functools.partial(schedule_of, "sliding", w + 10, w=w, w0=1),
                      functools.partial(sliding_chain, w + 10, w, 1)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                built.append(build())
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        sched, chain = built
        assert len(sched.release_t) == len(chain) == 11
        assert max(peaks) <= bound, peaks


class TestBaselines:
    def test_independent_batches_have_no_lineage(self):
        sched = schedule_of("baseline-independent", 20, b0=4)
        assert sched.t.tolist() == [4, 8, 12, 16]
        assert eps_of(sched) == [Fraction(1, 2)] * 4
        assert (sched.reg_source == -1).all()

    @pytest.mark.parametrize("b0", [0, -4])
    def test_independent_refuses_a_block_below_one(self, b0):
        with pytest.raises(ScheduleError, match=f"b0 must be >= 1, got {b0}"):
            schedule_of("baseline-independent", 20, b0=b0)

    def test_basic_cumulative_retrain_times(self):
        # inclusive horizon {8,16,32,64} needs T=65 under arrival indexing
        sched = schedule_of("baseline-basic", 65, B=8, b0=8)
        assert sched.t[sched.a == 0].tolist() == [8, 16, 32, 64]

    def test_basic_cumulative_small_updates_between(self):
        sched = schedule_of("baseline-basic", 33, B=8, b0=2)
        smalls = sched.a != 0
        assert set(itertools.compress(eps_of(sched), smalls)) == {Fraction(1, 2)}
        assert ((sched.b - sched.a + 1)[smalls] == 2).all()


class TestSampledVariants:
    def test_sampled_multires_scales_shrink_with_level(self):
        sched = schedule_of("multires-sample", 65, B=8)
        by_level = dict(columns(sched, "level", "noise_scale"))
        assert (sched.rule == RULES.index("exp_formula")).all()
        levels = sorted(by_level)
        assert all(by_level[a] > by_level[b] for a, b in zip(levels, levels[1:]))

    def test_sampled_charges_match_unsampled(self):
        plain = schedule_of("multires", 129, B=8)
        sampled = schedule_of("multires-sample", 129, B=8)
        assert columns(plain, "t", "eps") == columns(sampled, "t", "eps")

    def test_sliding_sampled_uses_reciprocal(self):
        sched = schedule_of("sliding-sample", 60, w=7, w0=1)
        sides = (sched.side != SIDES.index("base")) & (sched.level > 0)
        assert (sched.rule[sides] == RULES.index("reciprocal")).all()


class TestExecute:
    @pytest.fixture
    def stream(self):
        return synth_stream(SynthConfig(d=4, k=2, n=80, sigma=0.3, seed=2))

    def run(self, sched, stream, nonprivate=False):
        """execute of seed 0 alone: its RunResult, of one seed."""
        return execute(sched, stream, nonprivate, seeds=(0,))

    def test_deterministic(self, stream):
        sched = schedule_of("multires", stream.n, L=0.2, B=8)
        r1 = self.run(sched, stream)
        r2 = self.run(sched, stream)
        np.testing.assert_array_equal(r1.weights, r2.weights)
        np.testing.assert_array_equal(r1.noise_l1, r2.noise_l1)

    def test_distinct_models_get_distinct_noise(self, stream):
        sched = schedule_of("multires", stream.n, L=0.2, B=8)
        r = self.run(sched, stream)
        norms = r.noise_l2[0, sched.model_id].tolist()
        assert len(set(norms)) == len(norms) == len(sched.t)

    @pytest.mark.parametrize("name,sizes", [("continual", dict(B=8, b0=2)),
                                            ("sliding", dict(w=28, w0=4))],
                             ids=["continual", "sliding"])
    def test_ledger_matches_dry_run(self, stream, name, sizes):
        # execute charges nothing; each record's eps_max is the maximum over
        # the dry run's charges up to its step
        sched = schedule_of(name, stream.n, L=0.2, **sizes)
        assert not hasattr(self.run(sched, stream), "ledger")
        dry = ledger_from_events(sched)
        recs = replay(stream, sched, dry)
        assert [r.t for r in recs] == sched.release_t.tolist()
        for r in recs:
            assert r.eps_max == ledger_until(dry, r.t).max_point_loss()[1]
        assert len({r.eps_max for r in recs}) > 1
        assert recs[-1].eps_max == dry.max_point_loss()[1]

    def test_nonprivate_disables_ledger_and_noise(self, stream):
        sched = schedule_of("multires", stream.n, L=0.2, B=8)
        r = self.run(sched, stream, nonprivate=True)
        assert not r.noise_l1.any() and not r.noise_l2.any()

    def test_trains_with_the_schedules_lambda(self, stream):
        sched = schedule_of("multires", stream.n, lam=7.0, L=0.2, B=8)
        run = self.run(sched, stream)
        for lam, same in ((7.0, True), (1.0, False)):
            ref = reference_execute(sched, stream, lam, EPS, False, (0,))[0]
            assert all(np.array_equal(run.weights[0, mid], w)
                       for mid, w in ref.trained.items()) == same

    def test_run_is_kept_as_arrays_indexed_by_model_id(self, stream):
        sched = schedule_of("multires", stream.n, L=0.2, B=8)
        run = self.run(sched, stream)
        M = len(sched.t)
        assert sched.model_id.tolist() == list(range(M))
        # four arrays, each with a leading seed axis
        assert list(vars(run)) == ["weights", "noise_l1", "noise_l2", "skip"]
        assert run.weights.shape == (1, M + 1, stream.k, stream.d)
        assert run.noise_l1.shape == run.noise_l2.shape == run.skip.shape == (1, M + 1)
        assert not run.weights[0, M].any()  # the last slot is the zero model
        assert (run.noise_l1[0, :M] > 0).all() and run.noise_l1[0, M] == 0
        assert (run.noise_l2[0, :M] > 0).all() and run.noise_l2[0, M] == 0
        assert not run.skip.any()

    def test_event_beyond_stream_rejected(self, stream):
        sched = schedule_of("multires", stream.n + 10, L=0.2, B=8)
        with pytest.raises(ScheduleError):
            self.run(sched, stream)

    @pytest.mark.parametrize("name", ["multires", "sliding", "continual-sample"])
    def test_an_empty_seed_tuple_is_refused(self, stream, name):
        cfg = SchedulerConfig(name, EPS, 1.0, 0.2, B=8, b0=2, w=7, w0=1)
        sched = build_schedule(cfg, stream.n)
        with pytest.raises(ScheduleError, match="^need at least one seed$"):
            execute(sched, stream, seeds=())
        with pytest.raises(ScheduleError, match="^need at least one seed$"):
            replay(stream, sched, ledger_from_events(sched), seeds=())

    def test_adopted_base_is_released_not_retrained(self, stream):
        sched = schedule_of("continual", stream.n, L=0.2, B=8, b0=2)
        r = self.run(sched, stream)
        bases = sched.model_id[sched.kind == KINDS.index("Base")].tolist()
        released_ids = set(sched.release_mid.tolist())
        trained_ids = sched.model_id[~sched.adopt].tolist()
        assert bases and sched.adopt[sched.kind == KINDS.index("Base")].all()
        for mid in bases:
            assert mid in released_ids
            assert trained_ids.count(mid) == 1  # the multires event's
            assert not r.skip[0, mid] and r.noise_l2[0, mid] > 0


class TestLockstepExecute:
    """execute over a seed tuple against each seed run alone."""

    SEEDS = (1, 2, 3, 2)

    @pytest.fixture(scope="class")
    def stream(self):
        return synth_stream(SynthConfig(d=4, k=3, n=96, sigma=0.3, seed=6))

    @pytest.mark.parametrize("nonprivate", [False, True])
    @pytest.mark.parametrize("name", [
        "multires", "multires-sample", "continual", "continual-sample",
        "sliding", "sliding-sample", "baseline-independent", "baseline-basic",
    ])
    def test_each_seed_matches_its_own_run(self, stream, name, nonprivate, monkeypatch):
        # B=2 leaves sampled events with empty subsamples (skipped) and with
        # subsamples of several sizes (separate stacks)
        B = 2 if name.endswith("sample") else 16
        sched = build_schedule(SchedulerConfig(name, EPS, 1.0, 0.2, B=B, b0=2 if B == 2 else 4,
                                               w=7, w0=1), stream.n)
        mid_of = {_subseed(seed, "noise", mid): mid
                  for seed in self.SEEDS for mid in sched.model_id[~sched.adopt].tolist()}
        row_sets = []  # the per-member rows of every lockstep pberm call
        members, releases = Counter(), Counter()  # per model id

        def spy(bias, data, lam, tau, scales, noise_seeds, rows, fan, _fn=schedulers.pberm):
            row_sets.append(rows)
            owner = {}  # solve member -> the model ids of the releases it is fanned out to
            for j, subseed in zip(fan.tolist(), noise_seeds.tolist()):
                owner.setdefault(j, set()).add(mid_of[subseed])
                releases[mid_of[subseed]] += 1
            assert sorted(owner) == list(range(len(bias)))
            for mids in owner.values():
                (mid,) = mids  # a member serves one event
                members[mid] += 1
            return _fn(bias, data, lam, tau, scales, noise_seeds, rows, fan)
        monkeypatch.setattr(schedulers, "pberm", spy)
        runs = execute(sched, stream, nonprivate, seeds=self.SEEDS)
        monkeypatch.undo()
        assert len(runs.skip) == len(self.SEEDS)
        for i, seed in enumerate(self.SEEDS):
            alone = execute(sched, stream, nonprivate, seeds=(seed,))
            for field in ("weights", "noise_l1", "noise_l2", "skip"):
                np.testing.assert_array_equal(getattr(runs, field)[i], getattr(alone, field)[0])
        # an unsampled event toward a model that is the same for every seed
        # is one member for every seed; any other event is one member per
        # seed it trains. The zero model is the same for every seed, and so
        # is a model trained toward one on the same rows for every seed,
        # without noise or skipped on every seed
        same = set()  # model ids
        for mid, reg, rule, a, b, p, adopt in columns(sched, "model_id", "reg_source", "rule", "a",
                                                      "b", "p", "adopt"):
            if adopt:
                continue
            kept = len(self.SEEDS) - int(runs.skip[:, mid].sum())
            assert releases[mid] == kept
            toward_same = reg < 0 or reg in same
            assert members[mid] == (1 if not rule and toward_same else kept)
            drawn = {()} if not rule else {
                tuple(subsample(b - a + 1, p, _subseed(seed, "sample", mid)))
                for seed in self.SEEDS}
            if toward_same and len(drawn) == 1 and (nonprivate or kept == 0):
                same.add(mid)
        assert runs.noise_l1.any() != nonprivate
        trained = sched.model_id[~sched.adopt]
        trained = trained[~runs.skip[:, trained].all(axis=0)]
        if name.endswith("sample"):
            assert runs.skip.any()
            assert len({len(r) for rows in row_sets for r in rows}) > 1
        # each call stacks the members of a wave: fewer calls than events
        assert len(row_sets) < len(trained)


def _subseed(seed: int, label: str, model_id: int) -> int:
    """One subseed the scalar way: a generator per (seed, label, model id)."""
    return int(make_rng(seed, label, model_id).integers(0, 2**63 - 1))


def records(run, schedule):
    """A RunResult of a schedule read as reference_execute's records, one
    per seed: trained maps each trained event's model id, in schedule
    order, to its (k, d) weights; noise maps those not skipped to
    (noise_l1, noise_l2); skipped_events lists the skipped events' model ids."""
    trained = schedule.model_id[~schedule.adopt].tolist()
    return [SimpleNamespace(
        trained={mid: w[mid] for mid in trained},
        noise={mid: (l1[mid], l2[mid]) for mid in trained if not skip[mid]},
        skipped_events=[mid for mid in trained if skip[mid]],
    ) for w, l1, l2, skip in zip(run.weights, run.noise_l1, run.noise_l2, run.skip)]


def reference_execute(schedule, stream, lam, eps, nonprivate, seeds):
    """The per-event loop execute replaced: events in schedule order, each
    event's seeds in lockstep, one pberm call per row count, on a per-event
    slice of the stream, with inclusion probabilities from the schedule's
    total eps. Each seed's run is recorded as `records` reads a RunResult."""
    feps = float(eps)
    runs = [SimpleNamespace(trained={}, noise={}, skipped_events=[]) for _ in seeds]
    zero = np.zeros((stream.k, stream.d))
    for mid, a, b, reg, rule, level, scale, tau, adopt in columns(
            schedule, "model_id", "a", "b", "reg_source", "rule", "level", "noise_scale", "tau",
            "adopt"):
        if adopt:
            continue
        data = stream.slice(a, b)
        bias = [zero if reg < 0 else run.trained[reg] for run in runs]
        rows, sizes = None, [data.n] * len(seeds)
        if rule:
            p = sampling_probability(RULES[rule], level, feps)
            rows = [subsample(data.n, p, _subseed(seed, "sample", mid)) for seed in seeds]
            sizes = [len(r) for r in rows]
        groups = {}
        for i, n in enumerate(sizes):
            if n == 0:
                runs[i].skipped_events.append(mid)
                runs[i].trained[mid] = bias[i]
            else:
                groups.setdefault(n, []).append(i)
        scale = 0.0 if nonprivate else scale
        for members in groups.values():
            noise_seeds = [_subseed(seeds[i], "noise", mid) for i in members]
            member_rows = None if rows is None else [rows[i] for i in members]
            w, l1, l2 = pberm(np.stack([bias[i] for i in members]), data, lam,
                              [tau] * len(members), [scale] * len(members), noise_seeds,
                              member_rows)
            for j, i in enumerate(members):
                runs[i].trained[mid] = w[j]
                runs[i].noise[mid] = (l1[j], l2[j])
    return runs


def _depths(schedule):
    """Dependency wave of every trained model id: 1 + its regularizer's."""
    depth = {}
    for mid, reg, adopt in columns(schedule, "model_id", "reg_source", "adopt"):
        if not adopt:
            depth[mid] = 1 if reg < 0 else depth[reg] + 1
    return depth


class TestWaves:
    """execute's dependency waves against the per-event loop, bit for bit.

    `layout` shrinks the caps on a stacked call, so that waves split into
    several calls. At 1 byte every unsampled event's members read their
    rows in place, and every member is still a call of its own: a gathered
    one since it is over the cap, and one read in place since at d = 4 its
    solver state alone is more than the bytes of the rows its set reads.
    """

    SEEDS = (1, 2, 3, 2)

    @pytest.fixture(scope="class")
    def stream(self):
        return synth_stream(SynthConfig(d=4, k=3, n=96, sigma=0.3, seed=6))

    @pytest.fixture(params=[None, 1, 3000], ids=["None", "1", "3000"])
    def layout(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(schedulers, "_STACK_BYTES", request.param)
            monkeypatch.setattr(schedulers, "_SOLVE_BYTES", request.param)

    @pytest.fixture(scope="class")
    def references(self):
        """reference_execute's runs by (scheduler, nonprivate), each computed
        once for every layout: the reference does not read the layout."""
        return {}

    @pytest.mark.parametrize("nonprivate", [False, True])
    @pytest.mark.parametrize("name", [
        "multires", "multires-sample", "continual", "continual-sample",
        "sliding", "sliding-sample", "baseline-independent", "baseline-basic",
    ])
    def test_matches_per_event_loop(self, stream, name, nonprivate, layout, references):
        # B=2 leaves sampled events with empty subsamples (skipped)
        B = 2 if name.endswith("sample") else 16
        sched = build_schedule(SchedulerConfig(name, EPS, 1.0, 0.2, B=B, b0=2 if B == 2 else 4,
                                               w=7, w0=1), stream.n)
        runs = execute(sched, stream, nonprivate, seeds=self.SEEDS)
        if (name, nonprivate) not in references:
            references[name, nonprivate] = reference_execute(sched, stream, 1.0, EPS,
                                                             nonprivate, self.SEEDS)
        refs = references[name, nonprivate]
        for run, ref in zip(records(runs, sched), refs, strict=True):
            assert list(run.trained) == list(ref.trained)
            for mid, w in ref.trained.items():
                np.testing.assert_array_equal(run.trained[mid], w)
            assert run.noise == ref.noise
            assert run.skipped_events == ref.skipped_events
        if name.endswith("sample"):
            assert runs.skip.any()

    def test_sliding_trains_in_few_stacked_calls(self, monkeypatch):
        # a structural guard: a return to one solve per event fails it
        T, d, k = 600, 4, 3
        stream = synth_stream(SynthConfig(d=d, k=k, n=T, sigma=0.3, seed=2))
        sched = schedule_of("sliding", T, L=0.2, w=63, w0=1)
        calls = []

        def counted(*args, _fn=erm.solve, **kw):
            calls.append(len(args[1]))  # the members
            return _fn(*args, **kw)
        monkeypatch.setattr(erm, "solve", counted)
        execute(sched, stream, seeds=(0,))
        trained = np.flatnonzero(~sched.adopt)
        waves = max(_depths(sched).values())
        sizes = set((sched.b - sched.a + 1)[trained].tolist())
        # a stack and the next event exceed the cap, so a group of g bytes
        # needs fewer than 2g/cap + 1 stacks; no group holds more than T events
        member = (max(sizes) * (d + k) + schedulers._SOLVE_ARRAYS * k * d) * 8
        chunks = 2 * T * member // schedulers._SOLVE_BYTES + 1
        assert sum(calls) == len(trained)
        assert len(calls) <= waves * len(sizes) * chunks < len(trained) / 2

    @pytest.mark.parametrize("nonprivate", [False, True])
    def test_in_place_sets_are_cut_only_past_their_rows(self, monkeypatch, nonprivate):
        # a structural guard: cutting every set under the cap, one stack per
        # set, or counting a member read in place by its whole range's scores
        # fails it. continual B=512, b0=128 on 2,048 image-shaped points,
        # 128-row chunks, every member read in place, a cap of 2.5 members
        # of one chunk's scores (a member's state is m, a row's bytes about
        # m / 282). Wave 1's multires events on [0, 1023], [0, 511] and
        # [512, 1023] share chunks: 3m, over the cap but within their 1,024
        # rows, so one call (a). In a private run the updates have a member
        # per seed. Wave 2's set on [512, 767] and [512, 639] holds 4m
        # (private) or 2m, and the set on [1024, 1535], [1024, 1279] and
        # [1024, 1151] 6m or 3m; past the cap and their 256 or 512 rows, a
        # set splits into near-equal stacks under the cap (b). Wave 3's five
        # 128-row updates share no chunk; nonprivate, sets of m pack two to a
        # call (c), and private ones of 2m do not.
        monkeypatch.setattr(erm, "_CHUNK_ROWS", 128)
        k, d = 10, 784
        member = (128 * k + schedulers._SOLVE_ARRAYS * k * d) * 8
        monkeypatch.setattr(schedulers, "_SOLVE_BYTES", 5 * member // 2)
        rng = np.random.default_rng(5)
        y = rng.integers(0, k, size=2048)
        X = 0.1 * rng.standard_normal((2048, d)) + 0.1 * (np.arange(d) % k == y[:, None])
        sched = schedule_of("continual", 2048, L=0.2, B=512, b0=128)
        calls = []

        def counted(*args, _fn=erm.solve, **kw):
            calls.append(list(args[4]))
            return _fn(*args, **kw)
        monkeypatch.setattr(erm, "solve", counted)
        execute(sched, Dataset(X, y, k), nonprivate, seeds=(1, 2))
        r = range
        wave_1 = [[r(0, 1024), r(0, 512), r(512, 1024)], [r(1024, 1536)]]
        if nonprivate:
            wave_2 = [[r(512, 768), r(512, 640)], [r(1024, 1536), r(1024, 1280)],
                      [r(1024, 1152)]]
            wave_3 = [[r(768, 896), r(1280, 1408)], [r(1536, 1664), r(1664, 1792)],
                      [r(1792, 1920)]]
        else:
            wave_2 = [[r(512, 768)] * 2, [r(512, 640)] * 2, [r(1024, 1536)] * 2,
                      [r(1024, 1280)] * 2, [r(1024, 1152)] * 2]
            wave_3 = [[r(a, a + 128)] * 2 for a in (768, 1280, 1536, 1664, 1792)]
        assert calls == wave_1 + wave_2 + wave_3

    def test_continual_at_the_acceptance_shape_makes_one_call_per_wave(self, monkeypatch):
        # a structural guard: a stack per set of in-place members again
        # (29 calls) fails it. d = 20, B = 4096, b0 = 512, four seeds: the
        # updates' 512-row members are read in place and share no chunk
        # across events, and each wave's are packed into one stack
        stream = synth_stream(SynthConfig(d=20, k=3, n=20000, sigma=0.5, seed=0))
        sched = schedule_of("continual", stream.n, L=lipschitz_public(3, 512), B=4096, b0=512)
        calls = []

        def counted(*args, _fn=erm.solve, **kw):
            calls.append(len(args[1]))  # the members
            return _fn(*args, **kw)
        monkeypatch.setattr(erm, "solve", counted)
        execute(sched, stream, seeds=(1, 2, 3, 4))
        assert len(calls) == max(_depths(sched).values()) == 3

    def test_sliding_keeps_its_gathered_stacks(self, monkeypatch):
        # a structural guard: each wave's events grouped by row count, in
        # schedule order, each group split into near-equal stacks under the
        # cap, every member's rows an index array that solve gathers
        T, d, k = 600, 4, 3
        stream = synth_stream(SynthConfig(d=d, k=k, n=T, sigma=0.3, seed=2))
        sched = schedule_of("sliding", T, L=0.2, w=63, w0=1)
        calls = []

        def counted(*args, _fn=erm.solve, **kw):
            calls.append(list(args[4]))
            return _fn(*args, **kw)
        monkeypatch.setattr(erm, "solve", counted)
        execute(sched, stream, seeds=(0,))
        depth = _depths(sched)
        want = []
        for wave in range(1, max(depth.values()) + 1):
            groups = {}
            for mid, a, b, adopt in columns(sched, "model_id", "a", "b", "adopt"):
                if not adopt and depth[mid] == wave:
                    groups.setdefault(b - a + 1, []).append((a, b))
            for n, members in groups.items():
                member = (n * (d + k) + schedulers._SOLVE_ARRAYS * k * d) * 8
                count = min(len(members), -(-len(members) * member // schedulers._SOLVE_BYTES))
                size, extra = divmod(len(members), count)
                cuts = list(itertools.accumulate([size + (j < extra) for j in range(count)],
                                                 initial=0))
                want += [members[a:b] for a, b in zip(cuts, cuts[1:])]
        assert [[(int(r[0]), int(r[-1])) for r in rows] for rows in calls] == want
        assert all(isinstance(r, np.ndarray) and np.array_equal(r, np.arange(r[0], r[-1] + 1))
                   for rows in calls for r in rows)

    def test_compute_bound_members_train_one_per_call(self, stream, monkeypatch):
        # a structural guard: stacking members above the cap again fails it.
        # The multires events train toward zero, one member each for every
        # seed; the updates toward noisy models, one member per seed.
        monkeypatch.setattr(schedulers, "_STACK_BYTES", 1)
        monkeypatch.setattr(schedulers, "_SOLVE_BYTES", 1)
        sched = schedule_of("continual", stream.n, L=0.2, B=16, b0=4)
        calls = []

        def counted(*args, _fn=erm.solve, **kw):
            calls.append(len(args[1]))  # the members
            return _fn(*args, **kw)
        monkeypatch.setattr(erm, "solve", counted)
        execute(sched, stream, seeds=self.SEEDS)
        kinds = np.array(KINDS)[sched.kind]
        multires = int((kinds == "MultiRes").sum())
        updates = int(np.char.endswith(kinds, "Update").sum())
        assert multires and updates
        assert calls == [1] * (multires + updates * len(self.SEEDS))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_first_refusal_in_wave_order_wins(self, monkeypatch):
        # multires B=8 on 32 points: one wave of events on [0, 7], [8, 15],
        # [0, 15] and [16, 23], one call each, each event one member shared
        # by every seed. Rows from 8 on blow up, so every event but the
        # first is refused, the one on [8, 15] first, named by its first seed.
        monkeypatch.setattr(schedulers, "_STACK_BYTES", 1)
        monkeypatch.setattr(schedulers, "_SOLVE_BYTES", 1)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((32, 3)) * np.where(np.arange(32) >= 8, 1e200, 1.0)[:, None]
        stream = Dataset(X, rng.integers(0, 3, size=32), 3)
        sched = schedule_of("multires", stream.n, L=0.2, B=8)
        calls = []

        def counted(*args, _fn=erm.solve, **kw):
            calls.append(len(args[1]))  # the members
            return _fn(*args, **kw)
        monkeypatch.setattr(erm, "solve", counted)
        for seeds in ((1,), (1, 2, 3, 2)):
            calls.clear()
            with pytest.raises(CertificateError, match=r"^no certificate after 0 iterations: "
                               r"gradient norm inf above the tolerance in "
                               r"event at t=16 on \[8, 15\], seed 1$"):
                execute(sched, stream, seeds=seeds)
            assert calls == [1, 1], seeds

    def test_per_event_cost_is_one_generator_and_one_noise_call_per_stack(self, monkeypatch):
        # a structural guard: building a generator per subseed or per Laplace
        # draw, or perturbing model by model, fails it
        from streamdp import harness, mechanisms, rng

        T, seeds = 600, (1, 2)
        stream = synth_stream(SynthConfig(d=4, k=3, n=T, sigma=0.3, seed=2))
        sched = schedule_of("sliding", T, L=0.2, w=63, w0=1)
        counts = {"make_rng": 0, "solve": 0, "output_perturb": 0}

        def counting(name, fn):
            def counted(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)
            return counted
        for module in (erm, mechanisms, schedulers, harness, rng):
            if hasattr(module, "make_rng"):
                monkeypatch.setattr(module, "make_rng", counting("make_rng", module.make_rng))
        monkeypatch.setattr(erm, "solve", counting("solve", erm.solve))
        monkeypatch.setattr(mechanisms, "output_perturb",
                            counting("output_perturb", mechanisms.output_perturb))
        execute(sched, stream, seeds=seeds)
        trained = np.flatnonzero(~sched.adopt)
        assert counts["make_rng"] <= len(trained) * len(seeds)
        assert counts["output_perturb"] <= counts["solve"] < len(trained) / 2


class TestSkippedEvents:
    """A sampled event with an empty subsample, later used as a regularizer."""

    @pytest.mark.parametrize("B,b0", [(2, 1), (2, 2), (4, 1), (4, 2)])
    @pytest.mark.parametrize("n", [64, 80, 96])
    def test_continual_sample_runs(self, B, b0, n):
        stream = synth_stream(SynthConfig(d=3, k=3, n=n, sigma=0.3, seed=n))
        sched = schedule_of("continual-sample", n, L=0.2, B=B, b0=b0)
        run = execute(sched, stream, seeds=(0, 1, 2, 3, 4))
        for i, (mid, reg, rule, adopt) in itertools.product(
                range(5), columns(sched, "model_id", "reg_source", "rule", "adopt")):
            if adopt or not run.skip[i, mid]:
                continue
            # resolved to its bias model: not trained or perturbed
            assert rule and reg >= 0
            np.testing.assert_array_equal(run.weights[i, mid], run.weights[i, reg])
            assert run.noise_l1[i, mid] == run.noise_l2[i, mid] == 0
        assert run.skip.any()

    def test_skipped_psgd_event_resolves_to_zero_model(self):
        stream = synth_stream(SynthConfig(d=3, k=2, n=64, sigma=0.3, seed=1))
        sched = schedule_of("multires-sample", stream.n, L=0.2, B=2)
        run = execute(sched, stream, seeds=(0,))
        assert run.skip.any()
        assert not run.weights[0, sched.model_id[run.skip[0, sched.model_id]]].any()


def reference_noise_scale(kind: str, **params) -> float:
    """The catalogue of Laplace scales, one formula per kind of release, that
    the schedules used before each event derived its scale from its own
    interval size and charge."""
    L = params.get("L")
    lam = params.get("lam")
    eps = params.get("eps")
    for name in ("L", "lam", "eps"):
        v = params.get(name)
        if v is None or v <= 0:
            raise ValueError(f"parameter {name} must be positive, got {v}")

    def need(name):
        v = params.get(name)
        floor = 0 if name == "level" else 1  # level 0 is the unsampled identity
        if v is None or v < floor:
            raise ValueError(f"parameter {name} must be present and >= {floor} for kind {kind!r}")
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
    raise ValueError(f"unknown noise kind {kind!r}")


def reference_scales(schedule, cfg) -> list:
    """Each event's scale by the catalogue, times the 1 + 2 * TAU_SHARE that
    covers the distance of a certified solve from the minimiser: its kind
    from the event's kind, side and sampling, its parameters from the
    schedule's config."""
    return [(1 + 2 * TAU_SHARE) * _catalogue_scale(cfg, *e) for e in columns(
        schedule, "kind", "level", "rule", "side", "adopt")]


def _catalogue_scale(cfg, kind, level, rule, side, adopt) -> float:
    ref = functools.partial(reference_noise_scale, L=cfg.L, lam=cfg.lam, eps=float(cfg.eps))
    if adopt:
        return 0.0
    if kind == "MultiRes" or kind == "Base" or (kind == "BaselineBasicCumulative" and level >= 0):
        return (ref("multires_sampled", B=cfg.B, level=level) if rule
                else ref("multires", B=cfg.B))
    if kind in ("LargeUpdate", "SmallUpdate", "BaselineIndependent", "BaselineBasicCumulative"):
        return (ref("pberm_sampled", b0=cfg.b0, level=level) if rule
                else ref("pberm", b0=cfg.b0))
    if SIDES[side] == "base":
        return ref("sliding_base", base_size=(cfg.w // cfg.w0 + 1) // 2 * cfg.w0)
    return (ref("sliding_update_sampled", w0=cfg.w0, level=level) if rule
            else ref("sliding_update", w0=cfg.w0))


def random_scheduler_config(rng, name):
    b0 = int(rng.choice([1, 2, 3, 4, 5, 8]))
    w0 = int(rng.choice([1, 2, 3]))
    return SchedulerConfig(
        name, Fraction(int(rng.integers(1, 20)), int(rng.choice([1, 3, 7, 10, 100]))),
        float(rng.choice([1.0, rng.uniform(0.01, 10.0)])),
        float(rng.choice([1.0, rng.uniform(0.001, 5.0)])),
        B=b0 * int(rng.choice([1, 2, 3, 4, 8])), b0=b0,
        w=(2 ** int(rng.integers(2, 6)) - 1) * w0, w0=w0,
        standalone_base=bool(rng.integers(2)), first_base_at_2B=bool(rng.integers(2)),
    )


class TestCalibration:
    """Every event's noise scale and inclusion probability against the
    catalogue the schedules used before, over a sweep of configurations."""

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_scales_within_eight_ulps_of_catalogue(self, name):
        # the catalogue rounds four times and its factor twice, and the
        # scale's Delta + tau/lam nine times, so they may differ by a few ulps
        rng = np.random.default_rng(sum(name.encode()))
        events = 0
        for _ in range(40):
            cfg = random_scheduler_config(rng, name)
            sched = build_schedule(cfg, int(rng.integers(10, 400)))
            for i, (scale, rule, level, p), want in zip(
                    itertools.count(), columns(sched, "noise_scale", "rule", "level", "p"),
                    reference_scales(sched, cfg)):
                assert abs(scale - want) <= 8 * math.ulp(want), (cfg, i)
                if rule:
                    assert p == sampling_probability(RULES[rule], level, float(cfg.eps))
            events += len(sched.t)
        assert events > 500

    @pytest.mark.parametrize("cfg,T", [
        (SchedulerConfig("continual", Fraction(1, 10), 1.0, lipschitz_public(3, 512),
                         B=4096, b0=512), 20_000),
        (SchedulerConfig("continual", Fraction(1, 10), 1.0, lipschitz_public(10, 1024),
                         B=8192, b0=1024), 20_000),
        (SchedulerConfig("sliding", Fraction(1), 1.0, lipschitz_public(3, 1), w=255, w0=1),
         3_000),
    ], ids=["continual-d20", "image-d784", "sliding-w255"])
    def test_benchmark_shapes_are_delta_plus_tau_over_lambda(self, cfg, T):
        # Delta = 2L/(lam * n), tau = TAU_SHARE * 2 * lam * Delta, and the
        # scale (Delta + tau/lam) / eps, bit for bit
        sched = build_schedule(cfg, T)
        for (a, b, eps, level, rule, scale, tau_e, adopt), want in zip(
                columns(sched, "a", "b", "eps", "level", "rule", "noise_scale", "tau", "adopt"),
                reference_scales(sched, cfg)):
            if adopt:  # released, not trained: no noise and no solve
                assert (scale, tau_e) == (0.0, 0.0)
                continue
            n, lam = b - a + 1, cfg.lam
            delta = 2.0 * cfg.L / (lam * n)
            tau = TAU_SHARE * 2.0 * lam * delta
            eps = float(eps * 2**level if rule else eps)
            assert (scale, tau_e) == ((delta + tau / lam) / eps, tau)
            assert scale == pytest.approx(want, rel=1e-14)


class TestBuildSchedule:
    @pytest.mark.parametrize("name", ["nope", "baseline-independent-sample",
                                      "baseline-basic-sample"])
    def test_a_name_without_a_builder_is_refused(self, name):
        cfg = SchedulerConfig(name, EPS, 1.0, 1.0, B=4, b0=2, w=7, w0=1)
        with pytest.raises(ScheduleError, match=f"^unknown scheduler '{name}'$"):
            build_schedule(cfg, 20)

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_dispatch(self, name):
        # each name builds its own scheduler's events, sampled where it says so
        cfg = SchedulerConfig(name, EPS, 1.0, 1.0, B=4, b0=2, w=7, w0=1)
        s = build_schedule(cfg, 20)
        assert s.config == cfg
        assert {schedulers.KIND_SUBSYSTEM[kind] for kind, in columns(s, "kind")} == set(s.budgets)
        sampled = s.p[s.rule > 0]
        assert bool(len(sampled)) == name.endswith("-sample") and not np.isnan(sampled).any()


# Each scheduler's budgets as the paper states them, at eps = 2/3: 2 eps for
# continual release (eps for its updates, eps for the embedded multires, or
# 2 eps for updates and standalone bases together), eps for the sliding window.
STATED_BUDGETS = {
    ("multires", False): {"multires": Fraction(2, 3)},
    ("continual", False): {"continual": Fraction(2, 3), "multires": Fraction(2, 3)},
    ("continual", True): {"continual": Fraction(4, 3)},
    ("sliding", False): {"sliding": Fraction(2, 3)},
    ("baseline-independent", False): {"baseline": Fraction(2, 3)},
    ("baseline-basic", False): {"baseline": Fraction(4, 3)},
}


class TestBudgets:
    @pytest.mark.parametrize("name", SCHEDULERS)
    @pytest.mark.parametrize("standalone", [False, True])
    def test_a_schedule_has_its_schedulers_stated_budgets(self, name, standalone):
        base = name.removesuffix("-sample")
        want = STATED_BUDGETS[base, standalone and base == "continual"]
        assert schedulers.schedule_budgets(base, Fraction(2, 3), standalone) == want
        cfg = SchedulerConfig(name, Fraction(2, 3), 1.0, 1.0, B=4, b0=2, w=7, w0=1,
                              standalone_base=standalone)
        sched = build_schedule(cfg, 40)
        # header order too: a trace header lists the budgets in this order
        assert list(sched.budgets.items()) == list(want.items())
        report = ledger_from_events(sched).assert_budget()
        assert report.ok and [e.subsystem for e in report.entries] == sorted(
            want, key=["multires", "continual", "sliding", "baseline"].index)

    @pytest.mark.parametrize("name,missing", [
        (name, missing) for name in SCHEDULERS
        for missing in [(f,) for f in schedulers.REQUIRES[name.removesuffix("-sample")]]
        + [("B", "b0", "w", "w0")]])
    def test_a_missing_block_size_is_named(self, name, missing):
        sizes = {f: v for f, v in {"B": 4, "b0": 2, "w": 7, "w0": 1}.items() if f not in missing}
        field = next(f for f in schedulers.REQUIRES[name.removesuffix("-sample")] if f in missing)
        with pytest.raises(ScheduleError, match=f"^scheduler {name} requires {field}$"):
            build_schedule(SchedulerConfig(name, Fraction(1), 1.0, 1.0, **sizes), 20)


class TestCertificates:
    """Every trained (seed, event) pair of a run is a certified solve of its event."""

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_each_release_is_within_its_tolerance_before_noise(self, name, monkeypatch):
        # B=2 leaves sampled events with subsamples of several sizes
        stream = synth_stream(SynthConfig(d=4, k=3, n=96, sigma=0.3, seed=6))
        B = 2 if name.endswith("sample") else 16
        sched = build_schedule(SchedulerConfig(name, EPS, 0.5, 0.2, B=B, b0=2 if B == 2 else 4,
                                               w=7, w0=1), stream.n)
        seeds = (1, 2, 3)
        trained = [e for e in columns(sched, "model_id", "reg_source", "a", "b", "rule", "p", "tau",
                                      "adopt") if not e[-1]]
        pair_of = {_subseed(seed, "noise", e[0]): (i, e)
                   for i, seed in enumerate(seeds) for e in trained}
        released = []  # (noise seed, weights) of every release, before noise

        def recorded(w, scales, noise_seeds, _fn=mechanisms.output_perturb):
            released.extend(zip(noise_seeds.tolist(), w))
            return _fn(w, scales, noise_seeds)
        monkeypatch.setattr(mechanisms, "output_perturb", recorded)
        run = execute(sched, stream, seeds=seeds)
        # every trained (seed, event) pair is released once, checked against
        # its own seed's bias, rows and tolerance
        pairs = [pair_of[subseed] for subseed, _ in released]
        once = {(i, e[0]) for i, e in pairs}
        assert len(once) == len(pairs) == int((~run.skip[:, [e[0] for e in trained]]).sum())
        assert len(pairs) > 0
        zero = np.zeros((stream.k, stream.d))
        for (i, (mid, reg, a, b, rule, p, tau, _)), (_, w) in zip(pairs, released):
            bias = zero if reg < 0 else run.weights[i, reg]
            rows = np.arange(a, b + 1)
            if rule:
                rows = subsample(len(rows), p, _subseed(seeds[i], "sample", mid)) + a
            data = Dataset(stream.X[rows], stream.y[rows], stream.k)
            _, grad = erm.loss_and_gradient(w, data, 0.5, bias)
            assert np.linalg.norm(grad) <= tau


class TestTraceHeader:
    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_header_reads_back_and_each_scale_is_delta_plus_tau_over_lambda(self, name,
                                                                           tmp_path):
        sched = build_schedule(SchedulerConfig(name, Fraction(2, 3), 0.7, 0.37, B=4, b0=2,
                                               w=7, w0=1), 40)
        path = tmp_path / "trace.jsonl"
        schedulers.export_trace(sched, path)
        head, *events = map(json.loads, path.read_text().splitlines())
        assert head == {
            "scheduler": name, "eps_num": 2, "eps_den": 3,
            "budgets": {sub: [b.numerator, b.denominator] for sub, b in sched.budgets.items()},
            "lam": 0.7, "L": 0.37, "tau_share": TAU_SHARE}
        lam, L = head["lam"], head["L"]
        for rec, (adopt, scale, tau_e) in zip(events, columns(sched, "adopt", "noise_scale", "tau"),
                                              strict=True):
            if adopt:  # a released multires model: no noise of its own
                assert rec["noise_scale"] == 0.0
                continue
            delta = 2.0 * L / (lam * (rec["b"] - rec["a"] + 1))
            tau = head["tau_share"] * 2.0 * lam * delta
            eps = Fraction(rec["eps_num"], rec["eps_den"])
            if rec["sampled_p"] is not None:  # the release spends its amplified eps
                eps *= 2 ** rec["level"]
            assert rec["noise_scale"] == (delta + tau / lam) / float(eps) == scale
            assert tau == tau_e
        eps, ledger = schedulers.ledger_from_trace(path)
        assert eps == Fraction(2, 3) and ledger.budgets == sched.budgets


class TestPinnedOutputs:
    @PINNED_OUTPUTS
    def test_trace_bytes_and_charges_are_pinned(self, name, flag, T, trace, ledger, tmp_path):
        flags = {} if flag is None else {flag: True}
        sched = build_schedule(SchedulerConfig(name, Fraction(2, 3), 0.7, 0.37,
                                               **PINNED_SIZES[T], **flags), T)
        path = tmp_path / "trace.jsonl"
        schedulers.export_trace(sched, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace
        assert ledger_digest(ledger_from_events(sched)) == ledger


# The columns `trace_record` reads, in its order.
TRACE_COLUMNS = ("t", "kind", "level", "a", "b", "reg_source", "noise_scale", "p", "rule",
                 "eps_num", "eps_den", "model_id")


def trace_record(t, kind, level, a, b, reg, scale, p, rule, num, den, mid) -> dict:
    """An event's trace line as a dict, from its `TRACE_COLUMNS` as `columns`
    reads them: the line export_trace writes is json.dumps of it."""
    return {"t": t, "kind": kind, "level": None if level < 0 else level, "a": a, "b": b,
            "reg_source": None if reg < 0 else reg, "noise_scale": scale,
            "sampled_p": p if rule else None, "eps_num": num, "eps_den": den, "model_id": mid}


class TestTraceLines:
    """export_trace's template against json.dumps of each trace_record, and
    ledger_from_trace's pattern built from it."""

    @pytest.mark.parametrize("L", [
        lipschitz_public(3, 1), lipschitz_public(10, 7), np.float64(lipschitz_public(3, 4)),
        0.37, 2.0, 1e-05, 1e300, math.inf, -math.inf, math.nan,
        (0.0, -0.0), (float("nan"), float("nan")),
    ], ids=["public-k3", "public-k10", "public-float64", "flag", "flag-int", "tiny", "huge",
            "inf", "-inf", "nan", "signed-zeros", "two-nans"])
    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_every_line_is_json_dumps_and_reads_back(self, name, L, tmp_path):
        # laplace_scale refuses a non-finite or zero L, so those scales are set
        # by hand in the noise_scale column; a pair alternates over the
        # events: 0.0 and -0.0, which are equal and written apart, and two
        # NaNs, which are not equal
        by_hand = isinstance(L, tuple) or not math.isfinite(L)
        sched = build_schedule(SchedulerConfig(name, Fraction(2, 3), 0.7, 1.0 if by_hand else L,
                                               B=4, b0=2, w=7, w0=1), 40)
        if by_hand:
            scales = L if isinstance(L, tuple) else (L,)
            sched.noise_scale[:] = np.resize(scales, len(sched.noise_scale))
        path = tmp_path / "trace.jsonl"
        schedulers.export_trace(sched, path)
        lines = path.read_text().splitlines()
        assert lines[0] == json.dumps(schedulers.trace_header(sched))
        assert lines[1:] == [json.dumps(trace_record(*e)) for e in columns(sched, *TRACE_COLUMNS)]
        eps, ledger = schedulers.ledger_from_trace(path)
        want = ledger_from_events(sched)
        assert eps == sched.config.eps and ledger.budgets == want.budgets
        assert [c[:5] for c in charges(ledger)] == [c[:5] for c in charges(want)]

    def test_a_long_trace_is_read_in_chunks(self, tmp_path, monkeypatch):
        # 20,000 events, 3.6 MB, in 16 KiB chunks: a whole-file read would hold
        # all of it as text before matching a line
        monkeypatch.setattr(schedulers, "_TRACE_CHUNK", 1 << 14)
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"scheduler": "multires", "eps_num": 1, "eps_den": 1,
                                 "budgets": {"multires": [1, 1]}}) + "\n")
            fh.writelines(schedulers._TRACE_LINE.format(
                8 * i + 8, "MultiRes", 0, 8 * i, 8 * i + 7, "null", 0.125, "null", 1, 2, i)
                for i in range(20_000))
        tracemalloc.start()
        try:
            eps, ledger = schedulers.ledger_from_trace(path)
            witness, mx = ledger.max_point_loss()
            report = ledger.assert_budget()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (witness, mx, report.ok) == (0, Fraction(1, 2), True)
        assert len(ledger.column("a")) == 20_000
        # the ledger's arrays, 48 bytes a charge, and a sweep's, about 2.5 times
        # theirs (np.unique of every a and b + 1), and a few chunks; a whole-file
        # read would hold the 3.6 MB of text and each line's matched fields
        held = ledger._rows.nbytes + ledger._num.nbytes
        assert peak < 4 * held + 4 * schedulers._TRACE_CHUNK
