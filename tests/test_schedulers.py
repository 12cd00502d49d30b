import functools
import hashlib
import itertools
import json
import math
import operator
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from streamdp import (
    Dataset,
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
from streamdp.schedulers import sliding_chain

EPS = Fraction(1)


def schedule_of(name, T, lam=1.0, L=1.0, **sizes):
    """The schedule of the named scheduler at eps EPS on a stream of length T."""
    return build_schedule(SchedulerConfig(name, EPS, lam, L, **sizes), T)


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
        got = [(e.t, e.level, e.a, e.b, e.eps) for e in sched.events]
        assert got == oracle_multires(T, B)

    def test_intervals_tile_each_level(self):
        sched = schedule_of("multires", 129, B=4)
        for k in {e.level for e in sched.events}:
            level = sorted((e.a, e.b) for e in sched.events if e.level == k)
            for (a1, b1), (a2, b2) in zip(level, level[1:]):
                assert a2 == b1 + 1  # disjoint, contiguous blocks

    def test_invalid_b(self):
        with pytest.raises(ScheduleError):
            schedule_of("multires", 10, B=0)


class TestContinualSchedule:
    @pytest.mark.parametrize("B,b0", [(8, 2), (8, 1), (4, 2), (16, 2)])
    def test_matches_oracle(self, B, b0):
        T = 200
        sched = schedule_of("continual", T, B=B, b0=b0)
        got = [
            (e.t, e.kind, e.a, e.b, e.eps)
            for e in sched.events
            if e.kind != "MultiRes"
        ]
        assert got == oracle_continual(T, B, b0)

    def test_worked_example(self):
        # B=8, b0=2: after the base at t=8, t=10 small, t=12 large j=1,
        # t=14 small against the large model, t=16 next base
        sched = schedule_of("continual", 17, B=8, b0=2)
        ev = {e.t: e for e in sched.events if e.kind != "MultiRes"}
        assert ev[8].kind == "Base"
        assert ev[10].kind == "SmallUpdate" and ev[10].interval == (8, 9)
        assert ev[10].reg_source == ev[8].model_id
        assert ev[12].kind == "LargeUpdate" and ev[12].interval == (8, 11)
        assert ev[12].level == 1 and ev[12].eps == Fraction(1, 4)
        assert ev[14].kind == "SmallUpdate" and ev[14].interval == (12, 13)
        assert ev[14].reg_source == ev[12].model_id
        assert ev[16].kind == "Base"

    def test_base_adopts_multires_model(self):
        sched = schedule_of("continual", 33, B=8, b0=2)
        bases = [e for e in sched.events if e.kind == "Base"]
        prefixes = {
            e.t: e.model_id
            for e in sched.events
            if e.kind == "MultiRes" and e.a == 0
        }
        for b in bases:
            assert b.adopt and b.eps == 0
            assert b.model_id == prefixes[b.t]

    def test_standalone_bases_are_trained_and_charged(self):
        sched = schedule_of("continual", 33, B=8, b0=2, standalone_base=True)
        assert not any(e.kind == "MultiRes" for e in sched.events)
        bases = [e for e in sched.events if e.kind == "Base"]
        assert all(not b.adopt and b.reg_source is None for b in bases)
        assert [b.eps for b in bases] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

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
            id_of = {}
            for e in sched.events:
                id_of[e.model_id] = (e.a, e.b)
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
        assert [(st.t, st.released) for st in states] == list(sched.releases)
        trained = {}
        for e in sched.events:
            trained.setdefault(e.t, []).append(e.model_id)
        assert [list(st.trained) for st in states] == [trained[st.t] for st in states]

    def test_charges(self):
        sched = schedule_of("sliding", 60, w=7, w0=1)
        for e in sched.events:
            blocks = (e.b - e.a + 1) // 1
            if e.side == "base":
                assert e.eps == Fraction(1, 3)
            else:
                assert e.eps == Fraction(1, 6 * blocks)

    def test_regularizer_is_next_larger_bucket(self):
        sched = schedule_of("sliding", 60, w=7, w0=1)
        states = {st.t: st for st in sliding_chain(60, 7, 1)}
        for e in sched.events:
            if e.side == "base":
                assert e.reg_source is None
                continue
            chain = states[e.t].buckets
            idx = [mid for _, _, _, mid in chain].index(e.model_id)
            assert idx > 0
            assert e.reg_source == chain[idx - 1][3]

    def test_short_stream_has_no_events(self):
        sched = schedule_of("sliding", 6, w=7, w0=1)
        assert sched.events == () and sched.releases == ()

    # SHA-256 of each event's structure and of the releases, as the
    # step-by-step bucket simulation built them before the chain was computed
    # in closed form. noise_scale is left out: it follows from the structure
    # and the calibration, which may change on its own.
    @pytest.mark.parametrize("sampled,T,w,w0,digest", [
        (False, 8000, 255, 1, "a9d00c049b48d4357defacf86599f42551a3b09688c3310873cfe079d5918283"),
        (False, 1000, 42, 6, "ebd7efff480d582031ace7b078dda12f14efad5cb87b1a09d6e034c93c9949db"),
        (False, 200, 7, 1, "13ce9e175844296b80babcef5d62dc14a7d2804c15c4b25c669b728e6dd8ef2b"),
        (True, 8000, 255, 1, "8f33013f51d6be1bebf929f949a8d2557757ade72f3513ee1a7b92a7bea04dde"),
        (True, 1000, 42, 6, "405c408b5906b37aa537123a6bb9b84fd713792f671cda1d44f3733712d1ef25"),
        (True, 200, 7, 1, "5a04b133d31448dab53865d8a84d12437429ca2c4efe3b19e16e395412bc87b2"),
    ], ids=["sliding-255", "sliding-42x6", "sliding-7", "sliding-sample-255",
            "sliding-sample-42x6", "sliding-sample-7"])
    def test_structure_is_pinned(self, sampled, T, w, w0, digest):
        sched = schedule_of("sliding-sample" if sampled else "sliding", T, w=w, w0=w0)
        h = hashlib.sha256()
        for e in sched.events:
            h.update(repr((e.t, e.kind, e.level, e.a, e.b, str(e.eps), e.model_id, e.reg_source,
                           e.side, e.sampled_rule)).encode())
        h.update(repr(sched.releases).encode())
        assert h.hexdigest() == digest


class TestBaselines:
    def test_independent_batches_have_no_lineage(self):
        sched = schedule_of("baseline-independent", 20, b0=4)
        assert [e.t for e in sched.events] == [4, 8, 12, 16]
        assert all(e.eps == Fraction(1, 2) for e in sched.events)
        assert all(e.reg_source is None for e in sched.events)

    @pytest.mark.parametrize("b0", [0, -4])
    def test_independent_refuses_a_block_below_one(self, b0):
        with pytest.raises(ScheduleError, match=f"b0 must be >= 1, got {b0}"):
            schedule_of("baseline-independent", 20, b0=b0)

    def test_basic_cumulative_retrain_times(self):
        # inclusive horizon {8,16,32,64} needs T=65 under arrival indexing
        sched = schedule_of("baseline-basic", 65, B=8, b0=8)
        retrains = [e.t for e in sched.events if e.a == 0]
        assert retrains == [8, 16, 32, 64]

    def test_basic_cumulative_small_updates_between(self):
        sched = schedule_of("baseline-basic", 33, B=8, b0=2)
        smalls = [e for e in sched.events if e.a != 0]
        assert all(e.eps == Fraction(1, 2) for e in smalls)
        assert all(e.b - e.a + 1 == 2 for e in smalls)


class TestSampledVariants:
    def test_sampled_multires_scales_shrink_with_level(self):
        sched = schedule_of("multires-sample", 65, B=8)
        by_level = {}
        for e in sched.events:
            by_level[e.level] = e.noise_scale
            assert e.sampled_rule == "exp_formula"
        levels = sorted(by_level)
        assert all(by_level[a] > by_level[b] for a, b in zip(levels, levels[1:]))

    def test_sampled_charges_match_unsampled(self):
        plain = schedule_of("multires", 129, B=8)
        sampled = schedule_of("multires-sample", 129, B=8)
        assert [(e.t, e.eps) for e in plain.events] == [
            (e.t, e.eps) for e in sampled.events
        ]

    def test_sliding_sampled_uses_reciprocal(self):
        sched = schedule_of("sliding-sample", 60, w=7, w0=1)
        for e in sched.events:
            if e.side != "base" and e.level and e.level > 0:
                assert e.sampled_rule == "reciprocal"


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
        norms = [r.noise_l2[0, e.model_id] for e in sched.events]
        assert len(set(norms)) == len(norms) == len(sched.events)

    def test_ledger_matches_dry_run(self, stream):
        # execute charges nothing; a run's eps_max comes from the dry run's charges
        sched = schedule_of("continual", stream.n, L=0.2, B=8, b0=2)
        assert not hasattr(self.run(sched, stream), "ledger")
        dry = ledger_from_events(sched)
        recs = replay(stream, sched, dry)
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
        M = len(sched.events)
        assert [e.model_id for e in sched.events] == list(range(M))
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
        bases = [e for e in sched.events if e.kind == "Base"]
        released_ids = {mid for _, mid in sched.releases}
        trained_ids = [e.model_id for e in sched.events if not e.adopt]
        assert bases and all(b.adopt for b in bases)
        for b in bases:
            assert b.model_id in released_ids
            assert trained_ids.count(b.model_id) == 1  # the multires event's
            assert not r.skip[0, b.model_id] and r.noise_l2[0, b.model_id] > 0


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
        mid_of = {_subseed(seed, "noise", e.model_id): e.model_id
                  for seed in self.SEEDS for e in sched.events if not e.adopt}
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
        for e in sched.events:
            if e.adopt:
                continue
            kept = len(self.SEEDS) - int(runs.skip[:, e.model_id].sum())
            assert releases[e.model_id] == kept
            toward_same = e.reg_source is None or e.reg_source in same
            assert members[e.model_id] == (1 if e.sampled_rule is None and toward_same else kept)
            drawn = {()} if e.sampled_rule is None else {
                tuple(subsample(e.b - e.a + 1, e.p,
                                _subseed(seed, "sample", e.model_id))) for seed in self.SEEDS}
            if toward_same and len(drawn) == 1 and (nonprivate or kept == 0):
                same.add(e.model_id)
        assert runs.noise_l1.any() != nonprivate
        trained = [e for e in sched.events
                   if not e.adopt and not runs.skip[:, e.model_id].all()]
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
    (noise_l1, noise_l2); skipped_events lists the skipped events."""
    trained = [e for e in schedule.events if not e.adopt]
    return [SimpleNamespace(
        trained={e.model_id: w[e.model_id] for e in trained},
        noise={e.model_id: (l1[e.model_id], l2[e.model_id]) for e in trained
               if not skip[e.model_id]},
        skipped_events=[e for e in trained if skip[e.model_id]],
    ) for w, l1, l2, skip in zip(run.weights, run.noise_l1, run.noise_l2, run.skip)]


def reference_execute(schedule, stream, lam, eps, nonprivate, seeds):
    """The per-event loop execute replaced: events in schedule order, each
    event's seeds in lockstep, one pberm call per row count, on a per-event
    slice of the stream, with inclusion probabilities from the schedule's
    total eps. Each seed's run is recorded as `records` reads a RunResult."""
    feps = float(eps)
    runs = [SimpleNamespace(trained={}, noise={}, skipped_events=[]) for _ in seeds]
    zero = np.zeros((stream.k, stream.d))
    for e in schedule.events:
        if e.adopt:
            continue
        data = stream.slice(e.a, e.b)
        mid = e.model_id
        bias = [zero if e.reg_source is None else run.trained[e.reg_source] for run in runs]
        rows, sizes = None, [data.n] * len(seeds)
        if e.sampled_rule is not None:
            p = sampling_probability(e.sampled_rule, e.level, feps)
            rows = [subsample(data.n, p, _subseed(seed, "sample", mid)) for seed in seeds]
            sizes = [len(r) for r in rows]
        groups = {}
        for i, n in enumerate(sizes):
            if n == 0:
                runs[i].skipped_events.append(e)
                runs[i].trained[mid] = bias[i]
            else:
                groups.setdefault(n, []).append(i)
        scale = 0.0 if nonprivate else e.noise_scale
        for members in groups.values():
            noise_seeds = [_subseed(seeds[i], "noise", mid) for i in members]
            member_rows = None if rows is None else [rows[i] for i in members]
            w, l1, l2 = pberm(np.stack([bias[i] for i in members]), data, lam,
                              [e.tau] * len(members), [scale] * len(members), noise_seeds,
                              member_rows)
            for j, i in enumerate(members):
                runs[i].trained[mid] = w[j]
                runs[i].noise[mid] = (l1[j], l2[j])
    return runs


def _depths(schedule):
    """Dependency wave of every trained model id: 1 + its regularizer's."""
    depth = {}
    for e in schedule.events:
        if not e.adopt:
            depth[e.model_id] = 1 if e.reg_source is None else depth[e.reg_source] + 1
    return depth


class TestWaves:
    """execute's dependency waves against the per-event loop, bit for bit.

    `layout` shrinks the caps on a stacked call, down to 1 byte, where every
    member is a call of its own and reads its rows in place, so that waves
    split into several calls.
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
        trained = [e for e in sched.events if not e.adopt]
        waves = max(_depths(sched).values())
        sizes = {e.b - e.a + 1 for e in trained}
        # a stack and the next event exceed the cap, so a group of g bytes
        # needs fewer than 2g/cap + 1 stacks; no group holds more than T events
        member = (max(sizes) * (d + k) + schedulers._SOLVE_ARRAYS * k * d) * 8
        chunks = 2 * T * member // schedulers._SOLVE_BYTES + 1
        assert sum(calls) == len(trained)
        assert len(calls) <= waves * len(sizes) * chunks < len(trained) / 2

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
        multires = sum(e.kind == "MultiRes" for e in sched.events)
        updates = sum(e.kind.endswith("Update") for e in sched.events)
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
        trained = [e for e in sched.events if not e.adopt]
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
        for i, e in itertools.product(range(5), sched.events):
            if e.adopt or not run.skip[i, e.model_id]:
                continue
            # resolved to its bias model: not trained or perturbed
            assert e.sampled_rule is not None and e.reg_source is not None
            np.testing.assert_array_equal(run.weights[i, e.model_id],
                                          run.weights[i, e.reg_source])
            assert run.noise_l1[i, e.model_id] == run.noise_l2[i, e.model_id] == 0
        assert run.skip.any()

    def test_skipped_psgd_event_resolves_to_zero_model(self):
        stream = synth_stream(SynthConfig(d=3, k=2, n=64, sigma=0.3, seed=1))
        sched = schedule_of("multires-sample", stream.n, L=0.2, B=2)
        run = execute(sched, stream, seeds=(0,))
        assert run.skip.any()
        for e in sched.events:
            if run.skip[0, e.model_id]:
                assert not run.weights[0, e.model_id].any()


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


def reference_scale(e, cfg) -> float:
    """An event's scale by the catalogue, times the 1 + 2 * TAU_SHARE that
    covers the distance of a certified solve from the minimiser: its kind
    from the event's kind, side and sampling, its parameters from the
    schedule's config."""
    return (1 + 2 * TAU_SHARE) * _catalogue_scale(e, cfg)


def _catalogue_scale(e, cfg) -> float:
    ref = functools.partial(reference_noise_scale, L=cfg.L, lam=cfg.lam, eps=float(cfg.eps))
    if e.adopt:
        return 0.0
    if e.kind == "MultiRes" or e.kind == "Base" or (
            e.kind == "BaselineBasicCumulative" and e.level is not None):
        return (ref("multires_sampled", B=cfg.B, level=e.level) if e.sampled_rule
                else ref("multires", B=cfg.B))
    if e.kind in ("LargeUpdate", "SmallUpdate", "BaselineIndependent", "BaselineBasicCumulative"):
        return (ref("pberm_sampled", b0=cfg.b0, level=e.level) if e.sampled_rule
                else ref("pberm", b0=cfg.b0))
    if e.side == "base":
        return ref("sliding_base", base_size=(cfg.w // cfg.w0 + 1) // 2 * cfg.w0)
    return (ref("sliding_update_sampled", w0=cfg.w0, level=e.level) if e.sampled_rule
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
            for e in sched.events:
                want = reference_scale(e, cfg)
                assert abs(e.noise_scale - want) <= 8 * math.ulp(want), (cfg, e)
                if e.sampled_rule is not None:
                    assert e.p == sampling_probability(e.sampled_rule, e.level, float(cfg.eps))
            events += len(sched.events)
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
        for e in sched.events:
            if e.adopt:  # released, not trained: no noise and no solve
                assert (e.noise_scale, e.tau) == (0.0, 0.0)
                continue
            n, lam = e.b - e.a + 1, cfg.lam
            delta = 2.0 * cfg.L / (lam * n)
            tau = TAU_SHARE * 2.0 * lam * delta
            eps = float(e.eps * 2**e.level if e.sampled_rule else e.eps)
            assert (e.noise_scale, e.tau) == ((delta + tau / lam) / eps, tau)
            assert e.noise_scale == pytest.approx(reference_scale(e, cfg), rel=1e-14)


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
        assert {e.subsystem for e in s.events} == set(s.budgets)
        sampled = [e.p for e in s.events if e.sampled_rule is not None]
        assert bool(sampled) == name.endswith("-sample") and None not in sampled


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
        trained = [e for e in sched.events if not e.adopt]
        pair_of = {_subseed(seed, "noise", e.model_id): (i, e)
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
        once = {(i, e.model_id) for i, e in pairs}
        assert len(once) == len(pairs) == int((~run.skip[:, [e.model_id for e in trained]]).sum())
        assert len(pairs) > 0
        zero = np.zeros((stream.k, stream.d))
        for (i, e), (_, w) in zip(pairs, released):
            bias = zero if e.reg_source is None else run.weights[i, e.reg_source]
            rows = np.arange(e.a, e.b + 1)
            if e.sampled_rule is not None:
                rows = subsample(len(rows), e.p,
                                 _subseed(seeds[i], "sample", e.model_id)) + e.a
            data = Dataset(stream.X[rows], stream.y[rows], stream.k)
            _, grad = erm.loss_and_gradient(w, data, 0.5, bias)
            assert np.linalg.norm(grad) <= e.tau


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
            "scheduler": name.removesuffix("-sample"), "eps_num": 2, "eps_den": 3,
            "budgets": {sub: [b.numerator, b.denominator] for sub, b in sched.budgets.items()},
            "lam": 0.7, "L": 0.37, "tau_share": TAU_SHARE}
        lam, L = head["lam"], head["L"]
        for rec, e in zip(events, sched.events, strict=True):
            if e.adopt:  # a released multires model: no noise of its own
                assert rec["noise_scale"] == 0.0
                continue
            delta = 2.0 * L / (lam * (rec["b"] - rec["a"] + 1))
            tau = head["tau_share"] * 2.0 * lam * delta
            eps = Fraction(rec["eps_num"], rec["eps_den"])
            if rec["sampled_p"] is not None:  # the release spends its amplified eps
                eps *= 2 ** rec["level"]
            assert rec["noise_scale"] == (delta + tau / lam) / float(eps) == e.noise_scale
            assert tau == e.tau
        eps, ledger = schedulers.ledger_from_trace(path)
        assert eps == Fraction(2, 3) and ledger.budgets == sched.budgets


class TestTraceLines:
    """export_trace's template against json.dumps of each trace_record, and
    ledger_from_trace's pattern built from it."""

    @pytest.fixture
    def template_only(self, monkeypatch):
        """Make the line-by-line reader fail, so that a trace passes only if
        the template path reads every line."""
        def refuse(fh, budgets):
            raise AssertionError("the trace was read line by line")
        monkeypatch.setattr(schedulers, "_ledger_by_lines", refuse)

    @pytest.mark.parametrize("L", [
        lipschitz_public(3, 1), lipschitz_public(10, 7), np.float64(lipschitz_public(3, 4)),
        0.37, 2.0, 1e-05, 1e300, math.inf, -math.inf, math.nan,
    ], ids=["public-k3", "public-k10", "public-float64", "flag", "flag-int", "tiny", "huge",
            "inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_every_line_is_json_dumps_and_reads_back(self, name, L, tmp_path, template_only):
        # laplace_scale refuses a non-finite L, so an inf or nan scale is set by hand
        sched = build_schedule(SchedulerConfig(name, Fraction(2, 3), 0.7, L if math.isfinite(L)
                                               else 1.0, B=4, b0=2, w=7, w0=1), 40)
        if not math.isfinite(L):
            for e in sched.events:
                e.noise_scale = L
        path = tmp_path / "trace.jsonl"
        schedulers.export_trace(sched, path)
        lines = path.read_text().splitlines()
        assert lines[0] == json.dumps(schedulers.trace_header(sched))
        assert lines[1:] == [json.dumps(schedulers.trace_record(e)) for e in sched.events]
        eps, ledger = schedulers.ledger_from_trace(path)
        want = ledger_from_events(sched)
        assert eps == sched.config.eps and ledger.budgets == want.budgets
        fields = operator.attrgetter("a", "b", "eps", "subsystem", "time")
        assert list(map(fields, ledger.charges)) == list(map(fields, want.charges))

    @pytest.mark.slow
    def test_a_long_trace_is_read_in_chunks(self, tmp_path, template_only):
        # 200,000 events, 36 MB: a whole-file read would hold all of it as
        # text before matching a line
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"scheduler": "multires", "eps_num": 1, "eps_den": 1,
                                 "budgets": {"multires": [1, 1]}}) + "\n")
            fh.writelines(schedulers._TRACE_LINE.format(
                8 * i + 8, "MultiRes", 0, 8 * i, 8 * i + 7, "null", 0.125, "null", 1, 2, i)
                for i in range(200_000))
        tracemalloc.start()
        try:
            eps, ledger = schedulers.ledger_from_trace(path)
            witness, mx = ledger.max_point_loss()
            report = ledger.assert_budget()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (witness, mx, report.ok) == (0, Fraction(1, 2), True)
        assert len(ledger.column("a")) == 200_000
        # the ledger's arrays, a copy of them as they grow, a sweep's arrays of
        # about their size, and a few chunks
        held = ledger._rows.nbytes + ledger._num.nbytes
        assert peak < 3 * held + 4 * schedulers._TRACE_CHUNK
