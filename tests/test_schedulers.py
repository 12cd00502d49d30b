from fractions import Fraction

import numpy as np
import pytest

from streamdp import (
    Dataset,
    ScheduleError,
    SynthConfig,
    baseline_basic_cumulative_schedule,
    baseline_independent_schedule,
    build_schedule,
    continual_schedule,
    execute,
    ledger_from_events,
    multires_events_at,
    multires_schedule,
    sliding_schedule,
    synth_stream,
    window_shape,
)
from streamdp import erm, mechanisms, schedulers
from streamdp.erm import ModelWeights, RegularizerSpec, TrainConfig
from streamdp.ledger import Ledger
from streamdp.mechanisms import SamplingSpec, pberm, psgd, subsample
from streamdp.schedulers import RunResult, _subseed

EPS = Fraction(1)


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


def chain_signature(schedule):
    return [
        (st.t, tuple((a, b, side) for a, b, side, _ in st.buckets))
        for st in schedule.chain_states
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
        sched = multires_schedule(T, B, EPS, 1.0, 1.0)
        got = [(e.t, e.level, e.a, e.b, e.eps) for e in sched.events]
        assert got == oracle_multires(T, B)

    def test_intervals_tile_each_level(self):
        sched = multires_schedule(129, 4, EPS, 1.0, 1.0)
        for k in {e.level for e in sched.events}:
            level = sorted((e.a, e.b) for e in sched.events if e.level == k)
            for (a1, b1), (a2, b2) in zip(level, level[1:]):
                assert a2 == b1 + 1  # disjoint, contiguous blocks

    def test_invalid_b(self):
        with pytest.raises(ScheduleError):
            multires_schedule(10, 0, EPS, 1.0, 1.0)


class TestContinualSchedule:
    @pytest.mark.parametrize("B,b0", [(8, 2), (8, 1), (4, 2), (16, 2)])
    def test_matches_oracle(self, B, b0):
        T = 200
        sched = continual_schedule(T, B, b0, EPS, 1.0, 1.0)
        got = [
            (e.t, e.kind, e.a, e.b, e.eps)
            for e in sched.events
            if e.kind != "MultiRes"
        ]
        assert got == oracle_continual(T, B, b0)

    def test_worked_example(self):
        # B=8, b0=2: after the base at t=8, t=10 small, t=12 large j=1,
        # t=14 small against the large model, t=16 next base
        sched = continual_schedule(17, 8, 2, EPS, 1.0, 1.0)
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
        sched = continual_schedule(33, 8, 2, EPS, 1.0, 1.0)
        bases = [e for e in sched.events if e.kind == "Base"]
        prefixes = {
            e.t: e.model_id
            for e in sched.events
            if e.kind == "MultiRes" and e.a == 0
        }
        for b in bases:
            assert b.train == "adopt" and b.eps == 0
            assert b.model_id == prefixes[b.t]

    def test_standalone_bases_are_trained_and_charged(self):
        sched = continual_schedule(33, 8, 2, EPS, 1.0, 1.0, standalone_base=True)
        assert not any(e.kind == "MultiRes" for e in sched.events)
        bases = [e for e in sched.events if e.kind == "Base"]
        assert all(b.train == "psgd" for b in bases)
        assert [b.eps for b in bases] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

    def test_invalid_block_sizes(self):
        with pytest.raises(ScheduleError):
            continual_schedule(10, 4, 3, EPS, 1.0, 1.0)
        with pytest.raises(ScheduleError):
            continual_schedule(10, 2, 4, EPS, 1.0, 1.0)


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
        sched = sliding_schedule(T, w, w0, EPS, 1.0, 1.0)
        for state in sched.chain_states:
            got = sorted((a, b, side) for a, b, side, _ in state.buckets)
            want = sorted(oracle_sliding_buckets(state.t, w, w0))
            assert got == want, f"t={state.t}"

    def test_trained_buckets_are_exactly_the_changed_ones(self):
        w, w0 = 15, 1
        sched = sliding_schedule(100, w, w0, EPS, 1.0, 1.0)
        id_of = {}
        for e in sched.events:
            id_of[e.model_id] = (e.a, e.b)
        prev = None
        for state in sched.chain_states:
            intervals = {(a, b) for a, b, _, _ in state.buckets}
            trained_intervals = {id_of[m] for m in state.trained}
            if prev is not None:
                assert trained_intervals == intervals - prev, f"t={state.t}"
            prev = intervals

    def test_released_model_is_smallest_bucket(self):
        sched = sliding_schedule(60, 7, 1, EPS, 1.0, 1.0)
        for state in sched.chain_states:
            sizes = [(b - a, mid) for a, b, _, mid in state.buckets]
            smallest = min(sizes)[1]
            assert state.released == smallest

    def test_charges(self):
        sched = sliding_schedule(60, 7, 1, EPS, 1.0, 1.0)
        for e in sched.events:
            blocks = (e.b - e.a + 1) // 1
            if e.side == "base":
                assert e.eps == Fraction(1, 3)
            else:
                assert e.eps == Fraction(1, 6 * blocks)

    def test_regularizer_is_next_larger_bucket(self):
        sched = sliding_schedule(60, 7, 1, EPS, 1.0, 1.0)
        states = {st.t: st for st in sched.chain_states}
        for e in sched.events:
            if e.side == "base":
                assert e.reg_source is None
                continue
            chain = states[e.t].buckets
            idx = [mid for _, _, _, mid in chain].index(e.model_id)
            assert idx > 0
            assert e.reg_source == chain[idx - 1][3]

    def test_short_stream_has_no_events(self):
        sched = sliding_schedule(6, 7, 1, EPS, 1.0, 1.0)
        assert sched.events == () and sched.releases == ()


class TestBaselines:
    def test_independent_batches_have_no_lineage(self):
        sched = baseline_independent_schedule(20, 4, EPS, 1.0, 1.0)
        assert [e.t for e in sched.events] == [4, 8, 12, 16]
        assert all(e.eps == Fraction(1, 2) for e in sched.events)
        assert all(e.reg_source is None for e in sched.events)

    def test_basic_cumulative_retrain_times(self):
        # inclusive horizon {8,16,32,64} needs T=65 under arrival indexing
        sched = baseline_basic_cumulative_schedule(65, 8, 8, EPS, 1.0, 1.0)
        retrains = [e.t for e in sched.events if e.a == 0]
        assert retrains == [8, 16, 32, 64]

    def test_basic_cumulative_small_updates_between(self):
        sched = baseline_basic_cumulative_schedule(33, 8, 2, EPS, 1.0, 1.0)
        smalls = [e for e in sched.events if e.a != 0]
        assert all(e.eps == Fraction(1, 2) for e in smalls)
        assert all(e.b - e.a + 1 == 2 for e in smalls)


class TestSampledVariants:
    def test_sampled_multires_scales_shrink_with_level(self):
        sched = multires_schedule(65, 8, EPS, 1.0, 1.0, sampled=True)
        by_level = {}
        for e in sched.events:
            by_level[e.level] = e.noise_scale
            assert e.sampled_rule == ("exp_formula", e.level)
        levels = sorted(by_level)
        assert all(by_level[a] > by_level[b] for a, b in zip(levels, levels[1:]))

    def test_sampled_charges_match_unsampled(self):
        plain = multires_schedule(129, 8, EPS, 1.0, 1.0)
        sampled = multires_schedule(129, 8, EPS, 1.0, 1.0, sampled=True)
        assert [(e.t, e.eps) for e in plain.events] == [
            (e.t, e.eps) for e in sampled.events
        ]

    def test_sliding_sampled_uses_reciprocal(self):
        sched = sliding_schedule(60, 7, 1, EPS, 1.0, 1.0, sampled=True)
        for e in sched.events:
            if e.side != "base" and e.level and e.level > 0:
                assert e.sampled_rule == ("reciprocal", e.level)


class TestExecute:
    @pytest.fixture
    def stream(self):
        return synth_stream(SynthConfig(d=4, k=2, n=80, sigma=0.3, seed=2)).data

    def cfg(self):
        return TrainConfig(iterations=15, minibatch=16, seed=0)

    def test_deterministic(self, stream):
        sched = multires_schedule(stream.n, 8, EPS, 1.0, 0.2)
        r1 = execute(sched, stream, 1.0, self.cfg(), EPS)
        r2 = execute(sched, stream, 1.0, self.cfg(), EPS)
        for mid in r1.models:
            np.testing.assert_array_equal(r1.models[mid].w, r2.models[mid].w)

    def test_distinct_models_get_distinct_noise(self, stream):
        sched = multires_schedule(stream.n, 8, EPS, 1.0, 0.2)
        r = execute(sched, stream, 1.0, self.cfg(), EPS)
        norms = [r.perturbed[m].noise_l2 for m in r.perturbed]
        assert len(set(norms)) == len(norms)

    def test_ledger_matches_dry_run(self, stream):
        sched = continual_schedule(stream.n, 8, 2, EPS, 1.0, 0.2)
        r = execute(sched, stream, 1.0, self.cfg(), EPS)
        dry = ledger_from_events(sched.events, sched.budgets)
        assert r.ledger.max_point_loss() == dry.max_point_loss()
        assert len(r.ledger.charges) == len(dry.charges)

    def test_nonprivate_disables_ledger_and_noise(self, stream):
        sched = multires_schedule(stream.n, 8, EPS, 1.0, 0.2)
        r = execute(sched, stream, 1.0, self.cfg(), EPS, nonprivate=True)
        assert r.ledger is None
        assert all(pm.noise_l2 == 0.0 for pm in r.perturbed.values())

    def test_event_beyond_stream_rejected(self, stream):
        sched = multires_schedule(stream.n + 10, 8, EPS, 1.0, 0.2)
        with pytest.raises(ScheduleError):
            execute(sched, stream, 1.0, self.cfg(), EPS)

    def test_adopted_base_is_released_not_retrained(self, stream):
        sched = continual_schedule(stream.n, 8, 2, EPS, 1.0, 0.2)
        r = execute(sched, stream, 1.0, self.cfg(), EPS)
        bases = [e for e in sched.events if e.kind == "Base"]
        released_ids = {mid for _, mid in r.releases}
        for b in bases:
            assert b.model_id in released_ids
            assert b.model_id in r.models  # produced by the multires event


def _charges(ledger):
    return [(c.a, c.b, c.eps, c.subsystem, c.time, c.mechanism) for c in ledger.charges]


class TestLockstepExecute:
    """execute over a seed tuple against each seed run alone."""

    SEEDS = (1, 2, 3, 2)

    @pytest.fixture(scope="class")
    def stream(self):
        return synth_stream(SynthConfig(d=4, k=3, n=96, sigma=0.3, seed=6)).data

    @pytest.mark.parametrize("name", [
        "multires", "multires-sample", "continual", "continual-sample",
        "sliding", "sliding-sample", "baseline-independent", "baseline-basic",
    ])
    def test_each_seed_matches_its_own_run(self, stream, name, monkeypatch):
        # B=2 leaves sampled events with empty subsamples (skipped) and with
        # subsamples smaller than the minibatch (separate kernel calls)
        B = 2 if name.endswith("sample") else 16
        sched = build_schedule(name, stream.n, eps=EPS, lam=1.0, L=0.2,
                               B=B, b0=2 if B == 2 else 4, w=7, w0=1)
        cfg = TrainConfig(iterations=6, minibatch=8)
        row_sets = []  # the per-seed rows of every lockstep psgd/pberm call
        for fn in ("psgd", "pberm"):
            def spy(*args, _fn=getattr(schedulers, fn)):
                row_sets.append(args[-1])
                return _fn(*args)
            monkeypatch.setattr(schedulers, fn, spy)
        runs = execute(sched, stream, 1.0, cfg, EPS, seeds=self.SEEDS)
        monkeypatch.undo()
        assert len(runs) == len(self.SEEDS)
        for seed, run in zip(self.SEEDS, runs):
            alone = execute(sched, stream, 1.0, TrainConfig(iterations=6, minibatch=8, seed=seed),
                            EPS)
            assert run.models.keys() == alone.models.keys()
            for mid, w in alone.models.items():
                np.testing.assert_array_equal(run.models[mid].w, w.w)
                assert run.models[mid].meta == w.meta
            assert run.perturbed.keys() == alone.perturbed.keys()
            for mid, pm in alone.perturbed.items():
                np.testing.assert_array_equal(run.perturbed[mid].weights.w, pm.weights.w)
                assert run.perturbed[mid].spec == pm.spec
                assert run.perturbed[mid].noise_l2 == pm.noise_l2
            assert _charges(run.ledger) == _charges(alone.ledger)
            assert run.skipped == alone.skipped
            assert run.releases == alone.releases
        trained = [e for e in sched.events
                   if e.train != "adopt" and any(e not in run.skipped for run in runs)]
        if name.endswith("sample"):
            assert any(run.skipped for run in runs)
            assert any(len(r) < cfg.minibatch for rows in row_sets for r in rows)
        # each call stacks the members of a wave: fewer calls than events
        assert len(row_sets) < len(trained)


def reference_execute(schedule, stream, lam, cfg, eps, nonprivate, seeds):
    """The per-event loop execute replaced: events in schedule order, each
    event's seeds in lockstep, one psgd/pberm call per minibatch size, on a
    per-event slice of the stream."""
    feps = float(eps)
    runs = [RunResult(schedule, {}, {}, [], None if nonprivate else Ledger(dict(schedule.budgets)))
            for _ in seeds]
    zero = ModelWeights(np.zeros((stream.k, stream.d)))
    for e in schedule.events:
        if e.train == "adopt":
            continue
        data = stream.slice(e.a, e.b)
        mid = e.model_id
        bias = [zero if e.reg_source is None else run.models[e.reg_source] for run in runs]
        rows, sizes = None, [data.n] * len(seeds)
        if e.sampled_rule is not None:
            rule, level = e.sampled_rule
            rows = [subsample(data, SamplingSpec(rule, level, _subseed(seed, "sample", mid)),
                              feps)[0]
                    for seed in seeds]
            sizes = [len(r) for r in rows]
        groups = {}
        for i, n in enumerate(sizes):
            if n == 0:
                runs[i].skipped.append(e)
                runs[i].models[mid] = bias[i]
            else:
                groups.setdefault(min(cfg.minibatch, n), []).append(i)
        scale = 0.0 if nonprivate else e.noise_scale
        mech = e.kind if e.side is None else f"{e.kind}/{e.side}"
        for members in groups.values():
            train_seeds = [_subseed(seeds[i], "train", mid) for i in members]
            noise_seeds = [_subseed(seeds[i], "noise", mid) for i in members]
            member_rows = None if rows is None else [rows[i] for i in members]
            scales = [scale] * len(members)
            if e.train == "psgd":
                pms = psgd(data, scales, RegularizerSpec(lam), cfg,
                           noise_seeds, train_seeds, member_rows)
            else:
                pms = pberm([bias[i] for i in members], data, lam, cfg, scales,
                            noise_seeds, train_seeds, member_rows)
            for i, pm in zip(members, pms):
                run = runs[i]
                run.models[mid] = pm.weights.with_meta(
                    interval=e.interval, reg_source=e.reg_source, model_id=mid,
                    noise_scale=scale,
                )
                run.perturbed[mid] = pm
                if run.ledger is not None and e.eps > 0:
                    run.ledger.charge(e.interval, e.eps, e.subsystem, e.t, mech)
    for run in runs:
        skipped_ids = {e.model_id for e in run.skipped}
        run.releases = [(t, mid) for t, mid in schedule.releases if mid not in skipped_ids]
    return runs


def _depths(schedule):
    """Dependency wave of every trained model id: 1 + its regularizer's."""
    depth = {}
    for e in schedule.events:
        if e.train != "adopt":
            depth[e.model_id] = 1 if e.reg_source is None else depth[e.reg_source] + 1
    return depth


class TestWaves:
    """execute's dependency waves against the per-event loop, bit for bit.

    `stack_bytes` shrinks the cap on a stacked call, down to one event per
    call, so that waves split into several calls.
    """

    SEEDS = (1, 2, 3, 2)

    @pytest.fixture(scope="class")
    def stream(self):
        return synth_stream(SynthConfig(d=4, k=3, n=96, sigma=0.3, seed=6)).data

    @pytest.fixture(params=[None, 1, 3000])
    def stack_bytes(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(schedulers, "_STACK_BYTES", request.param)

    @pytest.mark.parametrize("nonprivate", [False, True])
    @pytest.mark.parametrize("name", [
        "multires", "multires-sample", "continual", "continual-sample",
        "sliding", "sliding-sample", "baseline-independent", "baseline-basic",
    ])
    def test_matches_per_event_loop(self, stream, name, nonprivate, stack_bytes):
        # B=2 leaves sampled events with empty subsamples (skipped)
        B = 2 if name.endswith("sample") else 16
        sched = build_schedule(name, stream.n, eps=EPS, lam=1.0, L=0.2,
                               B=B, b0=2 if B == 2 else 4, w=7, w0=1)
        cfg = TrainConfig(iterations=6, minibatch=8)
        runs = execute(sched, stream, 1.0, cfg, EPS, nonprivate, self.SEEDS)
        refs = reference_execute(sched, stream, 1.0, cfg, EPS, nonprivate, self.SEEDS)
        for run, ref in zip(runs, refs, strict=True):
            assert list(run.models) == list(ref.models)
            for mid, w in ref.models.items():
                np.testing.assert_array_equal(run.models[mid].w, w.w)
                assert run.models[mid].meta == w.meta
            assert list(run.perturbed) == list(ref.perturbed)
            for mid, pm in ref.perturbed.items():
                np.testing.assert_array_equal(run.perturbed[mid].weights.w, pm.weights.w)
                assert run.perturbed[mid].weights.meta == pm.weights.meta
                assert run.perturbed[mid].spec == pm.spec
                assert run.perturbed[mid].noise_l1 == pm.noise_l1
                assert run.perturbed[mid].noise_l2 == pm.noise_l2
            if nonprivate:
                assert run.ledger is None and ref.ledger is None
            else:
                assert _charges(run.ledger) == _charges(ref.ledger)
            assert run.skipped == ref.skipped
            assert run.releases == ref.releases
        if name.endswith("sample"):
            assert any(run.skipped for run in runs)

    def test_sliding_trains_in_few_stacked_calls(self, monkeypatch):
        # a structural guard: a return to one SGD call per event fails it
        T, d, m = 600, 4, 32
        stream = synth_stream(SynthConfig(d=d, k=3, n=T, sigma=0.3, seed=2)).data
        sched = sliding_schedule(T, 63, 1, EPS, 1.0, 0.2)
        calls = []
        for owner in (erm, mechanisms):
            def counted(*args, _fn=owner.sgd_train, **kw):
                calls.append(len(args[3]) if len(args) > 3 else 1)
                return _fn(*args, **kw)
            monkeypatch.setattr(owner, "sgd_train", counted)
        execute(sched, stream, 1.0, TrainConfig(iterations=2, minibatch=m), EPS)
        trained = [e for e in sched.events if e.train != "adopt"]
        waves = max(_depths(sched).values())
        sizes = {min(m, e.b - e.a + 1) for e in trained}
        # a stack and the next event exceed the cap, so a group of g bytes
        # needs fewer than 2g/cap + 1 stacks; no group holds more than T events
        chunks = 2 * T * (m + stream.k) * d * 8 // schedulers._STACK_BYTES + 1
        assert sum(calls) == len(trained)
        assert len(calls) <= waves * len(sizes) * chunks < len(trained) / 2


class TestSkippedEvents:
    """A sampled event with an empty subsample, later used as a regularizer."""

    @pytest.mark.parametrize("B,b0", [(2, 1), (2, 2), (4, 1), (4, 2)])
    @pytest.mark.parametrize("n", [64, 80, 96])
    def test_continual_sample_runs(self, B, b0, n):
        stream = synth_stream(SynthConfig(d=3, k=3, n=n, sigma=0.3, seed=n)).data
        sched = continual_schedule(n, B, b0, EPS, 1.0, 0.2, sampled=True)
        runs = execute(sched, stream, 1.0, TrainConfig(iterations=3, minibatch=8), EPS,
                       seeds=(0, 1, 2, 3, 4))
        for run in runs:
            released = {mid for _, mid in run.releases}
            for e in run.skipped:
                # resolved to its bias model: not trained, charged or released
                assert e.sampled_rule is not None and e.reg_source is not None
                np.testing.assert_array_equal(run.models[e.model_id].w,
                                              run.models[e.reg_source].w)
                assert e.model_id not in run.perturbed and e.model_id not in released
            trained = [e for e in sched.events if e not in run.skipped]
            assert _charges(run.ledger) == _charges(ledger_from_events(trained, sched.budgets))
        assert any(run.skipped for run in runs)

    def test_skipped_psgd_event_resolves_to_zero_model(self):
        stream = synth_stream(SynthConfig(d=3, k=2, n=64, sigma=0.3, seed=1)).data
        sched = multires_schedule(stream.n, 2, EPS, 1.0, 0.2, sampled=True)
        run = execute(sched, stream, 1.0, TrainConfig(iterations=3, minibatch=8, seed=0), EPS)
        assert run.skipped
        for e in run.skipped:
            assert not run.models[e.model_id].w.any()


class TestBuildSchedule:
    def test_unknown_name(self):
        with pytest.raises(ScheduleError):
            build_schedule("nope", 10, eps=EPS, lam=1.0, L=1.0)

    def test_dispatch(self):
        s = build_schedule("sliding", 20, eps=EPS, lam=1.0, L=1.0, w=7, w0=1)
        assert s.name == "sliding"
        s = build_schedule("baseline-basic", 20, eps=EPS, lam=1.0, L=1.0, B=4, b0=2)
        assert s.name == "baseline-basic"
