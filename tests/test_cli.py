import json

import pytest

from streamdp.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE_RUN = [
    "run", "--scheduler", "continual", "--epsilon", "1", "--lambda", "1",
    "--B", "16", "--b0", "4", "--synth-n", "64", "--synth-d", "3",
    "--iters", "5", "--minibatch", "8", "--test", "tail:0.25",
]


class TestParsing:
    def test_valid_sliding_config(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "sliding", "--w", "7",
            "--w0", "1", "--epsilon", "1", "--lambda", "1", "--T", "10",
        )
        assert code == EXIT_OK

    def test_window_constraint_error_at_parse_time(self, capsys):
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "sliding", "--w", "6",
            "--w0", "1", "--epsilon", "1", "--lambda", "1", "--T", "10",
        )
        assert code == EXIT_USAGE
        assert "w=6" in err

    def test_missing_required_field_names_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "multires",
            "--epsilon", "1", "--lambda", "1", "--T", "10",
        )
        assert code == EXIT_USAGE and "--B" in err

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("epsilon=0.1\nscheduler=multires\nB=2\nT=8\nlambda=1\n")
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--config", str(cfgfile),
            "--epsilon", "1",
        )
        assert code == EXIT_OK
        first = json.loads(out.splitlines()[0])
        assert first["eps_num"] == 1 and first["eps_den"] == 2  # eps/2, not 1/20

    def test_unknown_config_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("no_such_key=1\n")
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--config", str(cfgfile),
            "--scheduler", "multires", "--B", "2", "--T", "8",
            "--epsilon", "1", "--lambda", "1",
        )
        assert code == EXIT_USAGE and "no_such_key" in err

    def test_env_overrides_config_file(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("epsilon=1\nscheduler=multires\nB=2\nT=8\nlambda=1\n")
        monkeypatch.setenv("STREAMDP_EPSILON", "1/2")
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--config", str(cfgfile)
        )
        assert code == EXIT_OK
        first = json.loads(out.splitlines()[0])
        assert first["eps_num"] == 1 and first["eps_den"] == 4

    def test_bad_epsilon(self, capsys):
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "multires", "--B", "2",
            "--T", "8", "--epsilon", "-1", "--lambda", "1",
        )
        assert code == EXIT_USAGE


class TestInspect:
    def test_multires_inclusive_horizon_example(self, capsys):
        # the spec-style "T=8" inclusive horizon corresponds to --T 9 here
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "multires", "--B", "2",
            "--T", "9", "--epsilon", "1", "--lambda", "1",
        )
        assert code == EXIT_OK
        events = [json.loads(line) for line in out.splitlines()]
        at_8 = [e for e in events if e["t"] == 8]
        assert sorted(e["level"] for e in at_8) == [0, 1, 2]

    def test_deterministic_output(self, capsys):
        args = (
            "inspect-schedule", "--scheduler", "sliding", "--w", "7", "--w0",
            "1", "--epsilon", "1", "--lambda", "1", "--T", "40",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK and out1 == out2

    def test_requires_horizon(self, capsys):
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "multires", "--B", "2",
            "--epsilon", "1", "--lambda", "1",
        )
        assert code == EXIT_USAGE and "--T" in err


class TestRun:
    def test_smoke_run_writes_outputs(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.csv"
        trace = tmp_path / "trace.jsonl"
        ledger = tmp_path / "ledger.jsonl"
        code, out, err = run_cli(
            capsys, *BASE_RUN, "--output", str(out_path), "--trace", str(trace),
            "--ledger", str(ledger),
        )
        assert code == EXIT_OK
        assert out_path.exists() and trace.exists() and ledger.exists()
        assert len(out_path.read_text().splitlines()) > 1

    def test_injected_budget_violation_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, *BASE_RUN, "--output", str(tmp_path / "m.csv"),
            "--inject-charge", "continual:0:0:2/1",
        )
        assert code == EXIT_BUDGET
        assert "VIOLATION" in out

    def test_multi_seed_writes_per_seed_files_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.csv"
        code, out, err = run_cli(
            capsys, *BASE_RUN, "--output", str(out_path), "--seeds", "1,2,3",
        )
        assert code == EXIT_OK
        for seed in (1, 2, 3):
            assert (tmp_path / f"metrics.seed{seed}.csv").exists()
        assert (tmp_path / "metrics.summary.json").exists()

    def test_missing_data_file_exits_3(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "run", "--scheduler", "multires", "--epsilon", "1",
            "--lambda", "1", "--B", "4", "--source",
            f"csv:{tmp_path}/absent.csv", "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_DATA


    def write_csv(self, path, X):
        labels = [0, 1, 2] * (len(X) // 3)
        path.write_text("".join(",".join([*map(repr, row), str(c)]) + "\n"
                                for row, c in zip(X, labels)))

    def test_non_finite_cell_exits_3_naming_the_row(self, capsys, tmp_path):
        X = [[0.1 * i, -0.2 * i] for i in range(30)]
        X[6][1] = float("nan")
        self.write_csv(tmp_path / "d.csv", X)
        code, out, err = run_cli(
            capsys, "run", "--scheduler", "multires", "--epsilon", "1", "--lambda", "1",
            "--B", "4", "--source", f"csv:{tmp_path}/d.csv", "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_DATA and "non-finite cell in row 7" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverging_training_exits_3(self, capsys, tmp_path):
        self.write_csv(tmp_path / "d.csv", [[1e200 * (i % 5 - 2), 1e200] for i in range(30)])
        code, out, err = run_cli(
            capsys, "run", "--scheduler", "multires", "--epsilon", "1", "--lambda", "1",
            "--B", "4", "--iters", "20", "--source", f"csv:{tmp_path}/d.csv",
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_DATA and "training diverged" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_inside_a_wave_exits_3(self, capsys, tmp_path):
        # sliding trains each dependency wave of events as stacked calls
        self.write_csv(tmp_path / "d.csv", [[1e200 * (i % 5 - 2), 1e200] for i in range(30)])
        code, out, err = run_cli(
            capsys, "run", "--scheduler", "sliding", "--w", "7", "--w0", "1",
            "--epsilon", "1", "--lambda", "1", "--iters", "20", "--minibatch", "4",
            "--seeds", "1,2", "--source", f"csv:{tmp_path}/d.csv",
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_DATA and "training diverged" in err and "Traceback" not in err

    def test_sampled_schedule_with_skipped_regularizer_runs(self, capsys, tmp_path):
        # a sliding-sample update skipped on an empty subsample is later the
        # regularizer of another update
        code, out, err = run_cli(
            capsys, "run", "--scheduler", "sliding-sample", "--w", "7", "--w0", "1",
            "--epsilon", "1", "--lambda", "1", "--source", "synth", "--synth-n", "64",
            "--synth-d", "4", "--synth-k", "3", "--iters", "3", "--minibatch", "8",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_OK, err


class TestVerifyLedger:
    def make_trace(self, tmp_path, lines):
        p = tmp_path / "trace.jsonl"
        p.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        return p

    def mr(self, t, k, a, b):
        return {
            "t": t, "kind": "MultiRes", "level": k, "a": a, "b": b,
            "reg_source": None, "noise_scale": 1.0, "sampled_p": None,
            "eps_num": 1, "eps_den": 2 * 2**k, "model_id": t,
        }

    def test_within_budget(self, capsys, tmp_path):
        p = self.make_trace(tmp_path, [self.mr(8, 0, 0, 7)])
        code, out, err = run_cli(capsys, "verify-ledger", str(p), "--epsilon", "1")
        assert code == EXIT_OK
        assert "1/2" in out

    def test_duplicated_charge_exits_2(self, capsys, tmp_path):
        p = self.make_trace(
            tmp_path, [self.mr(8, 0, 0, 7)] * 3
        )
        code, out, err = run_cli(capsys, "verify-ledger", str(p), "--epsilon", "1")
        assert code == EXIT_BUDGET
        assert "3/2" in out

    def test_empty_trace(self, capsys, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        code, out, err = run_cli(capsys, "verify-ledger", str(p), "--epsilon", "1")
        assert code == EXIT_OK
        assert "0" in out

    def test_malformed_line_reports_number(self, capsys, tmp_path):
        p = tmp_path / "trace.jsonl"
        p.write_text(json.dumps(self.mr(8, 0, 0, 7)) + "\nnot json\n")
        code, out, err = run_cli(capsys, "verify-ledger", str(p), "--epsilon", "1")
        assert code == EXIT_DATA
        assert "line 2" in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "verify-ledger", str(tmp_path / "nope.jsonl"),
            "--epsilon", "1",
        )
        assert code == EXIT_DATA
