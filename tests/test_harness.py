import csv
import io
import json
import math
import os
import threading
from collections import Counter
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
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
    multires_events_at,
    replay,
    sgd_train,
    synth_stream,
)
from streamdp import harness
from streamdp.cli import SCHEDULERS
from streamdp.harness import CSV_HEADER, accuracy_quartiles
from streamdp.schedulers import build_schedule, execute, export_trace, ledger_from_events
from conftest import charges, idx_images_bytes, idx_labels_bytes


def run_alone(schedule, stream, seed):
    """execute of one seed alone: its (M + 1, k, d) weights and the
    schedule's (t, model id) releases less its skipped models."""
    run = execute(schedule, stream, seeds=(seed,))
    return run.weights[0], [(t, mid) for t, mid in zip(schedule.release_t.tolist(),
                                                        schedule.release_mid.tolist())
                            if not run.skip[0, mid]]


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

    def test_every_pixel_value_is_its_float64_quotient(self, tmp_path):
        # bit for bit the float64 pixel over 255.0, for each of the 256 values
        images = np.arange(256).astype(np.uint8).reshape(4, 8, 8)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(idx_images_bytes(images))
        lp.write_bytes(idx_labels_bytes(np.arange(4) % 2))
        X = load_idx(ip, lp).X
        assert X.dtype == np.float64
        np.testing.assert_array_equal(X, images.reshape(4, 64).astype(np.float64) / 255.0)

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


def csv_bytes(rng, n, header=""):
    """`header`, then n rows of four normal features and a label in 0..2, as
    %.17g CSV lines."""
    X = np.column_stack([rng.standard_normal((n, 4)), rng.integers(0, 3, n)])
    return (header + "".join(",".join("%.17g" % v for v in row) + "\n"
                             for row in X.tolist())).encode()


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

    @pytest.mark.parametrize("text,n", [
        ("0.5,1.0,0\n0.25,2.0,1\n1.5,3.0,0\n", 3),
        ("f1,f2,label\n0.5,1.0,0\n0.25,2.0,1\n", 2),
    ])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, text, n):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        data = load_csv(p)
        assert data.n == n
        assert data.X[0, 0] == 0.5

    @pytest.mark.parametrize("header", ["f,g,label\r", '"f\ng",h,label\n'])
    def test_a_header_ending_in_cr_or_quoting_a_newline_is_one_row(self, tmp_path, header):
        p = tmp_path / "d.csv"
        p.write_bytes((header + "1.0,2.0,0\n3.0,4.0,1\n").encode())
        np.testing.assert_array_equal(load_csv(p).X, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("labels,row", [
        (("1e19", "2e19"), 2),  # both would cast to -2^63, one class
        (("0", "9007199254740993"), 3),  # would read as 9007199254740992
        (("-9007199254740992", "0"), 2),
    ])
    def test_labels_past_2_pow_53_are_refused(self, tmp_path, labels, row):
        p = tmp_path / "d.csv"
        p.write_text("f,label\n" + "".join(f"1.0,{v}\n" for v in labels))
        with pytest.raises(HarnessError, match=f"label in row {row} exceeds 2\\^53 - 1"):
            load_csv(p)

    def test_labels_up_to_2_pow_53_less_1_load(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,9007199254740991\n2.0,-9007199254740991\n")
        np.testing.assert_array_equal(load_csv(p).classes, [-(2**53 - 1), 2**53 - 1])

    @pytest.mark.parametrize("text", [
        b"f\xe9,g,label\n1.0,2.0,0\n",  # a Latin-1 header
        b"f,g,label\n" + b"1.0,2.0,0\n" * 2000 + b"1.0,\xe9,0\n",  # past the first read
    ])
    def test_bytes_that_are_not_utf_8_are_a_data_error(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_bytes(text)
        with pytest.raises(HarnessError, match="'utf-8' codec can't decode byte 0xe9"):
            load_csv(p)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("header", ["", "f1,f2,f3,f4,label\n"], ids=["plain", "header"])
    def test_a_named_pipe_loads_every_row(self, tmp_path, rng, header):
        text = csv_bytes(rng, 5000, header)
        assert len(text) > 4 * harness._CSV_BLOCK
        regular, fifo = tmp_path / "d.csv", tmp_path / "pipe.csv"
        regular.write_bytes(text)
        os.mkfifo(fifo)

        def write():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(text)
            except BrokenPipeError:
                pass  # the reader left early; the assertions below say how

        loaded = []
        writer = threading.Thread(target=write, daemon=True)
        reader = threading.Thread(target=lambda: loaded.append(load_csv(fifo)), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=20)
        if reader.is_alive():  # blocked opening the pipe again: give it an end of file
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        writer.join(timeout=20)
        assert loaded, "load_csv of a named pipe did not return"
        assert not writer.is_alive()
        data, expected = loaded[0], load_csv(regular)
        assert data.n == expected.n == 5000
        assert same_bits(data.X, expected.X)
        np.testing.assert_array_equal(data.y, expected.y)


def loadtxt(path, skip=0):
    """What load_csv's np.loadtxt call returns for the file at path."""
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip, comments=None,
                      quotechar='"', encoding="utf-8-sig")


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def parse_plain(path):
    """`harness._parse_plain_csv` of the file at path from its first byte."""
    with open(path, "rb") as fh:
        return harness._parse_plain_csv(fh, 0)


def assert_loads_as_loadtxt(path, skip, monkeypatch):
    """load_csv of path never calls np.loadtxt and gives its bits, `skip`
    lines skipped."""
    expected = loadtxt(path, skip)

    def spy(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", spy)
        data = load_csv(path)
    assert same_bits(data.X, expected[:, :-1])
    np.testing.assert_array_equal(data.classes[data.y], expected[:, -1])


@pytest.mark.skipif(not harness._PLAIN_CSV, reason="needs x87 long double")
class TestPlainCsv:
    """`harness._parse_plain_csv` returns np.loadtxt's exact bits, or None."""

    @pytest.mark.parametrize("fmt", ["%.17g", "%.6f", "%.3g", "%.0f", "%.20f"])
    def test_matches_loadtxt_bit_for_bit(self, tmp_path, rng, fmt):
        X = rng.standard_normal((300, 5)) * 10.0 ** rng.integers(-2, 3, size=(300, 5))
        X[::7, 1] = -0.0
        X[::11, 2] = 0.0
        X[::29, 3] = -1e-5  # exponent notation in %.17g and %.3g
        p = tmp_path / "d.csv"
        np.savetxt(p, X, delimiter=",", fmt=fmt)
        assert same_bits(parse_plain(p), loadtxt(p))

    def test_much_exponent_notation_is_left_to_loadtxt(self, tmp_path, rng):
        p = tmp_path / "d.csv"
        np.savetxt(p, rng.standard_normal((50, 3)), delimiter=",", fmt="%.17e")
        assert parse_plain(p) is None

    def test_rounds_each_cell_as_float_does(self, tmp_path, rng):
        # decimals next to the midpoint between two doubles, where rounding
        # twice goes wrong, and cells past 18 digits or 27 places
        d = np.abs(rng.standard_normal(400)) * 10.0 ** rng.integers(-6, 6, size=400)
        cells = []
        for v in d.tolist():
            mid = (Decimal(v) + Decimal(np.nextafter(v, np.inf))) / 2
            for digits in (17, 18, 19, 21, 30):
                for rounding in (ROUND_FLOOR, ROUND_CEILING):
                    with localcontext() as ctx:
                        ctx.prec, ctx.rounding = digits, rounding
                        cells.append(format(+mid, "f"))
        cells += ["9007199254740993", "-9007199254740995", "0.1", "-.5", "5.", "007.25",
                  "0." + "0" * 30 + "1", "1" * 25, "-" + "9" * 19, "1.5e300", "-2E-310", "3e+2"]
        cells += ["1"] * (-len(cells) % 4)
        p = tmp_path / "d.csv"
        p.write_text("".join(",".join(cells[i:i + 4]) + "\n" for i in range(0, len(cells), 4)))
        mat = parse_plain(p)
        assert same_bits(mat.ravel(), np.array([float(c) for c in cells]))

    @pytest.mark.parametrize("text,skip", [
        ("f1,f2,label\n1.5,2.25,3\n-4.0,5.0,-1\n", 1),
        ("\n\nf1,f2,label\n1.5,2.25,3\n", 3),
        ("﻿f1,f2,label\n1.5,2.25,3\n", 1),
        ("﻿1.5,2.25,3\n-0.0,-0,0", 0),
    ])
    def test_header_byte_order_mark_and_last_newline(self, tmp_path, text, skip, monkeypatch):
        p = tmp_path / "d.csv"
        p.write_text(text, encoding="utf-8")
        assert_loads_as_loadtxt(p, skip, monkeypatch)

    @pytest.mark.parametrize("header,skip", [
        ('"f,1",g,label\n', 1),  # a quoted cell holding a comma
        ('"f\ng",h,label\n', 2),  # a quoted newline
        ("f,g,label\r", 1),  # a lone CR
        ("x" * 100 + ",g,label\n", 1),  # longer than a block
    ], ids=["quoted-comma", "quoted-newline", "lone-cr", "longer-than-a-block"])
    def test_any_header_the_csv_module_reads_takes_the_plain_path(
            self, tmp_path, rng, monkeypatch, header, skip):
        monkeypatch.setattr(harness, "_CSV_BLOCK", 64)
        p = tmp_path / "d.csv"
        p.write_bytes(csv_bytes(rng, 30, header))
        assert_loads_as_loadtxt(p, skip, monkeypatch)

    def test_blocks_split_between_lines(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(harness, "_CSV_BLOCK", 100)
        X = rng.standard_normal((40, 3))
        p = tmp_path / "d.csv"
        np.savetxt(p, X, delimiter=",", fmt="%.17g")
        assert same_bits(parse_plain(p), X)

    @pytest.mark.parametrize("header", [False, True])
    def test_lines_longer_than_a_block_read_the_same(self, tmp_path, rng, monkeypatch, header):
        monkeypatch.setattr(harness, "_CSV_BLOCK", 64)
        p = tmp_path / "d.csv"
        np.savetxt(p, np.column_stack([rng.standard_normal((20, 12)), rng.integers(0, 3, 20)]),
                   delimiter=",", fmt="%.17g", header="x" * 100 if header else "", comments="")
        fast = load_csv(p)
        monkeypatch.setattr(harness, "_PLAIN_CSV", False)
        assert same_bits(fast.X, load_csv(p).X)

    @pytest.mark.parametrize("text", [
        "1.0,2.0\n1.2.3,4\n", "1.0,.-5\n", "1.0,-\n", "1.0,-.\n", "1.0, 2\n", "1.0,2 \n",
        "1.0,+2\n", "1.0,nan\n", "1.0,inf\n", '1.0,"2"\n', "1.0,,2\n", "1.0,2\n\n3.0,4\n",
        "1.0,2\r\n", "1.0,2\n3.0\n", "1.0,2\n3.0\n4.0,5,6\n", "1.0,2\x00\n", "1.0,1e5x\n", "1.0,2-3\n", "",
    ])
    def test_anything_else_is_left_to_loadtxt(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        assert parse_plain(p) is None

    def test_load_csv_reads_the_same_either_way(self, tmp_path, rng, monkeypatch):
        p = tmp_path / "d.csv"
        np.savetxt(p, np.column_stack([rng.standard_normal((50, 3)), rng.integers(0, 3, 50)]),
                   delimiter=",", fmt="%.17g", header="a,b,c,label", comments="")
        fast = load_csv(p)
        monkeypatch.setattr(harness, "_PLAIN_CSV", False)
        slow = load_csv(p)
        assert same_bits(fast.X, slow.X)
        np.testing.assert_array_equal(fast.y, slow.y)


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
        # the records and the header name the config's scheduler, sampled or
        # not, and give the lambda it was built at
        schedule = build_schedule(
            SchedulerConfig("continual-sample", Fraction(1), 7.0, 0.2, B=32, b0=8), self.stream.n)
        recs = replay(self.stream, schedule,
                      ledger_from_events(schedule), seeds=(0, 1))
        assert recs and all((r.scheduler, r.eps, r.lam, r.batch) == ("continual-sample", 1.0, 7, 8)
                            for r in recs)
        export_trace(schedule, tmp_path / "trace.jsonl")
        head = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
        assert (head["scheduler"], head["lam"]) == ("continual-sample", 7)

    def test_a_release_reads_the_kind_of_the_last_event_it_names(self):
        # an adopted base is the multires model on [0, t - 1] released at its
        # step t, listed once: its event comes after the multires event in
        # the schedule, so the release reads Base, and every other multires
        # release reads MultiRes (B = 32: bases at 32, 64 and 128)
        recs = replay(self.stream, self.schedule, self.ledger)
        kinds = Counter((r.t, r.kind) for r in recs)
        for t in range(32, self.stream.n, 32):
            base = t in (32, 64, 128)
            assert kinds[t, "Base"] == base
            assert kinds[t, "MultiRes"] == len(multires_events_at(t, 32)) - base
        assert {kind for _, kind in kinds} == {"Base", "MultiRes", "SmallUpdate", "LargeUpdate"}

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
        short = self.check(build_schedule(sched, self.stream.n), self.stream, self.test, 12)
        if name.startswith(("multires", "sliding")):
            assert short

    def test_an_image_shaped_record_equals_a_per_release_evaluation(self, stack_bytes):
        # d=784, k=10, two seeds: each 128-row window is read in place once
        # for the models scored on it, the seeds' models in one product, and
        # the 600-row test set in runs of 200 rows by groups of models
        data = synth_stream(SynthConfig(d=784, k=10, n=1624, sigma=0.6, seed=9))
        stream, test = data.slice(0, 1023), data.slice(1024, 1623)
        sched = SchedulerConfig("continual", Fraction(1), 1.0, 0.2, B=512, b0=128)
        self.check(build_schedule(sched, stream.n), stream, test, 128)

    def check(self, schedule, stream, test, batch):
        """Assert that replay's records equal one evaluate_accuracy call per
        release and data set; the number of releases before `batch` points."""
        recs = replay(stream, schedule, ledger_from_events(schedule), test=test,
                      seeds=self.SEEDS)
        start_of = dict(zip(schedule.model_id.tolist(), schedule.a.tolist()))
        short = 0
        for seed in self.SEEDS:
            weights, releases = run_alone(schedule, stream, seed)
            seed_recs = [r for r in recs if r.seed == seed]
            assert len(seed_recs) == len(releases)
            for r, (t, mid) in zip(seed_recs, releases):
                model = weights[[mid]]
                a = start_of[mid]
                assert r.acc_recent == evaluate_accuracy(
                    model, stream.slice(max(0, t - batch + 1), t))[0]
                assert r.acc_test == evaluate_accuracy(model, test)[0]
                if a < batch:
                    assert r.acc_old is None
                else:
                    assert r.acc_old == evaluate_accuracy(
                        model, stream.slice(a - batch, a - 1))[0]
                short += t < batch - 1
        assert any(r.acc_old is None for r in recs)
        return short


class TestReplayEpsMaxDifferential:
    """Every release's eps_max against a brute-force max over each point's charges."""

    SEEDS = (0, 1)

    def setup_method(self):
        self.stream = synth_stream(SynthConfig(d=4, k=2, n=96, sigma=0.3, seed=3))

    def sched(self, name):
        # B=2 gives multires-sample empty subsamples, so some events are skipped
        B = 2 if name.startswith("multires") else 16
        return SchedulerConfig(name, Fraction(1), 1.0, 0.2, B=B, b0=4, w=28, w0=4)

    def brute_force(self, ledger, t):
        rows = [(a, b, eps) for a, b, eps, _, time, _ in charges(ledger) if time <= t]
        points = {i for a, b, _ in rows for i in range(a, b + 1)}
        return max((sum((eps for a, b, eps in rows if a <= i <= b), Fraction(0))
                    for i in points), default=Fraction(0))

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_matches_brute_force_point_loss(self, name):
        schedule = build_schedule(self.sched(name), self.stream.n)
        # a sampled release's charge stands when its subsample is empty
        charged = ledger_from_events(schedule)
        recs = replay(self.stream, schedule, charged, seeds=self.SEEDS)
        for seed in self.SEEDS:
            _, releases = run_alone(schedule, self.stream, seed)
            if name == "multires-sample":
                assert len(releases) < len(schedule.release_t)  # some models skipped
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

    def test_csv_bytes_are_the_cell_rule_s(self, tmp_path):
        # every cell as a float's repr, None as empty and anything else as
        # csv.writer writes it, quoting included, over the awkward values
        records = [
            self.rec(),
            MetricsRecord(t=2**40, scheduler='sliding, "w" 7', kind="WindowAdvance",
                          eps=-0.0, lam=math.inf, batch=0, acc_recent=None, acc_test=math.nan,
                          acc_old=-math.inf, noise_l2=0.0, eps_max=Fraction(2**70 + 1, 3 * 2**64),
                          seed=-1),
            MetricsRecord(t=0, scheduler="multires", kind="release", eps=1e-300, lam=0.1,
                          batch=1, acc_recent=None, acc_test=None, acc_old=None,
                          noise_l2=-0.0, eps_max=Fraction(0), seed=2**63),
        ]
        path = tmp_path / "m.csv"
        export_metrics(records, path, "csv")
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            values = (r.t, r.scheduler, r.kind, r.eps, r.lam, r.batch, r.acc_recent, r.acc_test,
                      r.acc_old, r.noise_l2, r.eps_max.numerator, r.eps_max.denominator, r.seed)
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                             for v in values])
        assert path.read_bytes() == want.getvalue().encode()
        assert b'"sliding, ""w"" 7"' in path.read_bytes()

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
