import json
import math
from fractions import Fraction

import numpy as np
import pytest

from streamdp import (
    HarnessError,
    MetricsRecord,
    SchedulerConfig,
    SynthConfig,
    TrainConfig,
    evaluate_accuracy,
    export_metrics,
    load_csv,
    load_idx,
    replay,
    sgd_train,
    synth_stream,
)
from streamdp.cli import SCHEDULERS
from streamdp.harness import CSV_HEADER, accuracy_quartiles
from streamdp.ledger import Ledger
from streamdp.schedulers import build_schedule, execute, export_trace, ledger_from_events
from conftest import idx_images_bytes, idx_labels_bytes


def run_alone(schedule, stream, seed):
    """execute of one seed alone: its (M + 1, k, d) weights and the
    schedule's (t, model id) releases less its skipped models."""
    run = execute(schedule, stream, seeds=(seed,))
    return run.weights[0], [(t, mid) for t, mid in schedule.releases if not run.skip[0, mid]]


class TestLoadIdx:
    def make_pair(self, tmp_path, n=4, rows=3, cols=2, labels=None):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(n, rows, cols)).astype(np.uint8)
        if labels is None:
            labels = np.arange(n) % 3
        ip = tmp_path / "images.idx"
        lp = tmp_path / "labels.idx"
        ip.write_bytes(idx_images_bytes(images))
        lp.write_bytes(idx_labels_bytes(np.asarray(labels)))
        return ip, lp, images

    def test_fixture_round_trip(self, tmp_path):
        ip, lp, images = self.make_pair(tmp_path)
        data = load_idx(ip, lp)
        assert data.n == 4 and data.d == 6
        np.testing.assert_allclose(
            data.X, images.reshape(4, 6).astype(float) / 255.0
        )

    def test_pixel_255_maps_to_one(self, tmp_path):
        images = np.full((1, 1, 1), 255, dtype=np.uint8)
        ip = tmp_path / "i.idx"
        lp = tmp_path / "l.idx"
        ip.write_bytes(idx_images_bytes(images))
        lp.write_bytes(idx_labels_bytes(np.array([0])))
        data = load_idx(ip, lp)
        assert data.X[0, 0] == 1.0

    def test_wrong_magic_detected(self, tmp_path):
        ip, lp, _ = self.make_pair(tmp_path)
        with pytest.raises(HarnessError, match="bad magic"):
            load_idx(lp, lp)  # labels file passed as images
        with pytest.raises(HarnessError, match="bad magic"):
            load_idx(ip, ip)

    def test_truncated_payload_names_offset(self, tmp_path):
        ip, lp, _ = self.make_pair(tmp_path)
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-3])
        with pytest.raises(HarnessError, match="offset 16"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, _, _ = self.make_pair(tmp_path)
        lp = tmp_path / "short.idx"
        lp.write_bytes(idx_labels_bytes(np.array([0, 1])))
        with pytest.raises(HarnessError, match="count mismatch"):
            load_idx(ip, lp)


class TestLoadCsv:
    def test_single_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,1.0,2\n")
        data = load_csv(p)
        assert data.n == 1 and data.d == 2
        assert data.k == 1 and data.y[0] == 0  # single distinct label remapped

    def test_header_auto_detected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv(p)
        assert data.n == 2 and data.d == 2 and data.k == 2

    def test_distinct_labels_set_k(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = "\n".join(f"{i}.0,{i}" for i in range(17))
        p.write_text(rows + "\n")
        assert load_csv(p).k == 17

    def test_ragged_row_reports_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n1.0,0\n")
        with pytest.raises(HarnessError, match="row 2"):
            load_csv(p)

    def test_non_numeric_cell_reports_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n1.0,x,1\n")
        with pytest.raises(HarnessError, match="row 2"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(HarnessError):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_number(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n{cell},1.0,0\n")
        with pytest.raises(HarnessError, match="non-finite cell in row 4"):
            load_csv(p)


    def test_features_are_c_contiguous(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,3.0,0\n4.0,5.0,6.0,1\n")
        data = load_csv(p)
        assert data.X.flags.c_contiguous
        np.testing.assert_array_equal(data.X, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_header_after_blank_lines_and_blank_rows_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n\nf1,f2,label\n\n1.0,2.0,7\n\n3.0,4.0,-2\n\n")
        data = load_csv(p)
        np.testing.assert_array_equal(data.X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.y, [1, 0])  # sorted distinct labels
        assert data.k == 2

    @pytest.mark.parametrize("text,message", [
        # rows are counted over non-empty rows from 1, the header included
        ("f1,f2,label\n\n1.0,2.0,0\n\n1.0,0\n", "ragged row 3: 2 cells, expected 3"),
        ("\n1.0,2.0,0\n\n\n1.0,0\n", "ragged row 2: 2 cells, expected 3"),
        ("f1,f2,label\n1.0,2.0,0\n\n1.0,x,1\n", "non-numeric cell in row 3, column 2"),
        ("\n1.0,2.0,0\n\n2.0,3.0,\n", "non-numeric cell in row 2, column 3"),
        ("h,h,h\n\n1.0,2.0,0\n\nnan,1.0,0\n", "non-finite cell in row 3"),
        ("1.0,2.0,0\n\n1.0,2.0,0.5\n", "non-integral label in row 2"),
        ("\nf1,f2,label\n\n", "need at least one data row"),
        ("\n\n", "empty file"),
    ])
    def test_errors_name_the_row_with_header_and_blank_lines(self, tmp_path, text, message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(HarnessError, match=message):
            load_csv(p)

    def test_round_trips_17_digit_floats_exactly(self, tmp_path, rng):
        X = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-30, 30, size=(50, 4))
        y = rng.integers(0, 3, size=50)
        p = tmp_path / "d.csv"
        np.savetxt(p, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
        data = load_csv(p)
        np.testing.assert_array_equal(data.X, X)
        np.testing.assert_array_equal(data.y, y)


class TestSynthStream:
    def test_same_seed_identical(self):
        cfg = SynthConfig(d=5, k=3, n=100, sigma=0.2, seed=9)
        a = synth_stream(cfg)
        b = synth_stream(cfg)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_stationary_stream_is_learnable(self):
        cfg = SynthConfig(d=5, k=3, n=2000, sigma=0.1, drift_rate=0.0, seed=4)
        data = synth_stream(cfg)
        w = sgd_train(data.slice(0, 999), np.zeros((1, 3, 5)), TrainConfig(iterations=300),
                      0.01, (0,))
        assert evaluate_accuracy(w, data.slice(1000, 1999))[0] >= 0.95

    def test_full_rotation_flips_the_classes(self):
        n = 2000
        cfg = SynthConfig(d=4, k=2, n=n, sigma=0.1, drift_rate=math.pi / n, seed=5)
        data = synth_stream(cfg)
        w = sgd_train(data.slice(0, 399), np.zeros((1, 2, 4)), TrainConfig(iterations=300),
                      0.01, (0,))
        assert evaluate_accuracy(w, data.slice(n - 400, n - 1))[0] < 0.5

    def test_invalid_configs(self):
        with pytest.raises(HarnessError):
            SynthConfig(d=5, k=1, n=10, sigma=0.1)
        with pytest.raises(HarnessError):
            SynthConfig(d=5, k=2, n=10, sigma=0.0)
        with pytest.raises(HarnessError):
            SynthConfig(d=5, k=2, n=10, sigma=0.1, drift_rate=-1.0)

    @pytest.mark.parametrize("setting,kwargs", [
        ("sigma", {"sigma": math.nan}),
        ("sigma", {"sigma": math.inf}),
        ("drift_rate", {"drift_rate": math.nan}),
        ("drift_rate", {"drift_rate": math.inf}),
        ("n", {"n": -5}),
    ])
    def test_unusable_settings_are_refused_by_name(self, setting, kwargs):
        with pytest.raises(HarnessError, match=rf"^{setting} must be"):
            SynthConfig(**{"d": 5, "k": 2, "n": 10, "sigma": 0.1, **kwargs})


class TestReplay:
    def setup_method(self):
        data = synth_stream(SynthConfig(d=4, k=2, n=300, sigma=0.3, seed=8))
        self.stream = data.slice(0, 199)
        self.test = data.slice(200, 299)
        self.schedule = build_schedule(
            SchedulerConfig("continual", Fraction(1), 1.0, 0.2, B=32, b0=8), self.stream.n)
        self.ledger = ledger_from_events(self.schedule)

    def test_records_cover_all_releases(self):
        recs = replay(self.stream, self.schedule, self.ledger, test=self.test)
        assert recs
        assert all(0.0 <= r.acc_test <= 1.0 for r in recs)
        assert all(r.scheduler == "continual" for r in recs)

    def test_records_and_trace_header_read_the_schedules_config(self, tmp_path):
        # the records name the config's scheduler, sampled or not, and the
        # header its base scheduler; both give the lambda it was built at
        schedule = build_schedule(
            SchedulerConfig("continual-sample", Fraction(1), 7.0, 0.2, B=32, b0=8), self.stream.n)
        recs = replay(self.stream, schedule,
                      ledger_from_events(schedule), seeds=(0, 1))
        assert recs and all((r.scheduler, r.eps, r.lam, r.batch) == ("continual-sample", 1.0, 7, 8)
                            for r in recs)
        export_trace(schedule, tmp_path / "trace.jsonl")
        head = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
        assert (head["scheduler"], head["lam"]) == ("continual", 7)

    def test_eps_max_nondecreasing(self):
        recs = replay(self.stream, self.schedule, self.ledger, test=self.test)
        for a, b in zip(recs, recs[1:]):
            assert b.eps_max >= a.eps_max

    def test_nonprivate_matches_plain_pipeline_bitwise(self):
        r1 = replay(self.stream, self.schedule, self.ledger, test=self.test, nonprivate=True)
        r2 = replay(self.stream, self.schedule, self.ledger, test=self.test, nonprivate=True)
        assert r1 == r2
        assert all(r.noise_l2 == 0.0 and r.eps_max == 0 for r in r1)

    def test_median_is_seed_order_independent(self):
        ra = replay(self.stream, self.schedule, self.ledger, test=self.test, seeds=(1, 2, 3))
        rb = replay(self.stream, self.schedule, self.ledger, test=self.test, seeds=(3, 1, 2))
        assert accuracy_quartiles(ra) == accuracy_quartiles(rb)

    def test_reevaluating_stored_model_reproduces_metrics(self):
        recs = replay(self.stream, self.schedule, self.ledger, test=self.test)
        weights, releases = run_alone(self.schedule, self.stream, 0)
        by_t = {r.t: r for r in recs}
        for t, mid in releases:
            assert by_t[t].acc_test == evaluate_accuracy(weights[[mid]], self.test)[0]


class TestBatchedEvaluation:
    """replay's stacked, chunked evaluation against one evaluate_accuracy call
    per release and data set."""

    SEEDS = (0, 1)

    def setup_method(self):
        data = synth_stream(SynthConfig(d=4, k=3, n=160, sigma=0.6, seed=9))
        self.stream, self.test = data.slice(0, 119), data.slice(120, 159)

    @pytest.fixture(params=[None, 1, 2000])
    def stack_bytes(self, request, monkeypatch):
        from streamdp import harness

        if request.param is not None:
            monkeypatch.setattr(harness, "_STACK_BYTES", request.param)

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_every_record_equals_a_per_release_evaluation(self, name, stack_bytes):
        # batch = b0 = 12: multires and sliding release models before 12 points
        # have arrived (a short recent window) and at the stream head (no old window)
        sched = SchedulerConfig(name, Fraction(1), 1.0, 0.2, B=4 if name.startswith(
            ("multires", "sliding")) else 24, b0=12, w=7, w0=1)
        schedule = build_schedule(sched, self.stream.n)
        recs = replay(self.stream, schedule, ledger_from_events(schedule),
                      test=self.test, seeds=self.SEEDS)
        start_of = {e.model_id: e.a for e in schedule.events}
        short = 0
        for seed in self.SEEDS:
            weights, releases = run_alone(schedule, self.stream, seed)
            seed_recs = [r for r in recs if r.seed == seed]
            assert len(seed_recs) == len(releases)
            for r, (t, mid) in zip(seed_recs, releases):
                model = weights[[mid]]
                a = start_of[mid]
                assert r.acc_recent == evaluate_accuracy(
                    model, self.stream.slice(max(0, t - 11), t))[0]
                assert r.acc_test == evaluate_accuracy(model, self.test)[0]
                if a < 12:
                    assert r.acc_old is None
                else:
                    assert r.acc_old == evaluate_accuracy(
                        model, self.stream.slice(a - 12, a - 1))[0]
                short += t < 11
        assert any(r.acc_old is None for r in recs)
        if name.startswith(("multires", "sliding")):
            assert short


class TestReplayEpsMaxDifferential:
    """Every release's eps_max against a brute-force max of Ledger.point_loss."""

    SEEDS = (0, 1)

    def setup_method(self):
        self.stream = synth_stream(SynthConfig(d=4, k=2, n=96, sigma=0.3, seed=3))

    def sched(self, name):
        # B=2 gives multires-sample empty subsamples, so some events are skipped
        B = 2 if name.startswith("multires") else 16
        return SchedulerConfig(name, Fraction(1), 1.0, 0.2, B=B, b0=4, w=28, w0=4)

    def brute_force(self, ledger, t):
        charges = [c for c in ledger.charges if c.time <= t]
        prefix = Ledger(charges=charges)
        points = {i for c in charges for i in range(c.a, c.b + 1)}
        return max((prefix.point_loss(i) for i in points), default=Fraction(0))

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_matches_brute_force_point_loss(self, name):
        schedule = build_schedule(self.sched(name), self.stream.n)
        # a sampled release's charge stands when its subsample is empty
        charged = ledger_from_events(schedule)
        recs = replay(self.stream, schedule, charged, seeds=self.SEEDS)
        for seed in self.SEEDS:
            _, releases = run_alone(schedule, self.stream, seed)
            if name == "multires-sample":
                assert len(releases) < len(schedule.releases)  # some models skipped
            seed_recs = [r for r in recs if r.seed == seed]
            assert [(r.t, r.seed) for r in seed_recs] == [(t, seed) for t, _ in releases]
            # releases come in time order, each (t, model) once, and every
            # record reports the maximum at its own step
            assert [r.t for r in seed_recs] == sorted(r.t for r in seed_recs)
            assert len(set(releases)) == len(releases)
            for r in seed_recs:
                assert r.eps_max == self.brute_force(charged, r.t)

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_nonprivate_eps_max_is_zero(self, name):
        schedule = build_schedule(self.sched(name), self.stream.n)
        recs = replay(self.stream, schedule, ledger_from_events(schedule),
                      nonprivate=True)
        assert recs and all(r.eps_max == 0 for r in recs)


class TestExportMetrics:
    def rec(self, t=1, seed=0):
        return MetricsRecord(
            t=t, scheduler="continual", kind="SmallUpdate", eps=1.0, lam=1.0,
            batch=8, acc_recent=0.5, acc_test=0.75, acc_old=None, noise_l2=0.1,
            eps_max=Fraction(3, 4), seed=seed,
        )

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        export_metrics([], path, "csv")
        assert path.read_text().strip() == CSV_HEADER

    def test_csv_exact_fractions(self, tmp_path):
        path = tmp_path / "m.csv"
        export_metrics([self.rec()], path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        header = CSV_HEADER.split(",")
        assert cells[header.index("eps_max_num")] == "3"
        assert cells[header.index("eps_max_den")] == "4"
        assert cells[header.index("acc_old")] == ""

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        records = [self.rec(t) for t in (1, 2, 3)]
        export_metrics(records, path, "jsonl")
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert [MetricsRecord(
            t=r["t"], scheduler=r["scheduler"], kind=r["kind"], eps=r["eps"], lam=r["lambda"],
            batch=r["batch"], acc_recent=r["acc_recent"], acc_test=r["acc_test"],
            acc_old=r["acc_old"], noise_l2=r["noise_l2"],
            eps_max=Fraction(r["eps_max_num"], r["eps_max_den"]), seed=r["seed"])
            for r in parsed] == records

    def test_unknown_format(self, tmp_path):
        with pytest.raises(HarnessError):
            export_metrics([], tmp_path / "m.x", "xml")
