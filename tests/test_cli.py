import argparse
import contextlib
import json
import os
import re
import threading
from fractions import Fraction

import numpy as np
import pytest

from streamdp.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from streamdp import cli, schedulers
from streamdp.harness import CSV_HEADER
from conftest import idx_images_bytes, idx_labels_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE_RUN = [
    "run", "--scheduler", "continual", "--epsilon", "1", "--lambda", "1",
    "--B", "16", "--b0", "4", "--synth-n", "64", "--synth-d", "3",
    "--iters", "5", "--minibatch", "8", "--test", "tail:0.25",
]


# The SGD settings `run` still accepts, each with a value of its type.
RETIRED = {"gamma": "0.5", "iters": "7", "minibatch": "5", "passes": "2"}


class TestParsing:
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_retired_sgd_settings_are_accepted_and_change_nothing(self, source, capsys,
                                                                  tmp_path, monkeypatch):
        plain = [a for a in BASE_RUN if a not in ("--iters", "5", "--minibatch", "8")]
        assert run_cli(capsys, *plain, "--output", str(tmp_path / "a.csv"))[0] == EXIT_OK
        extra = []
        if source == "flag":
            extra = [f for key, v in RETIRED.items() for f in (cli._flag(key), v)]
        elif source == "config":
            (tmp_path / "cfg").write_text("".join(f"{k}={v}\n" for k, v in RETIRED.items()))
            extra = ["--config", str(tmp_path / "cfg")]
        else:
            for key, v in RETIRED.items():
                monkeypatch.setenv("STREAMDP_" + key.upper(), v)
        code, _, err = run_cli(capsys, *plain, *extra, "--output", str(tmp_path / "b.csv"))
        assert code == EXIT_OK
        assert err.splitlines() == [
            f"note: {cli._flag(key)} no longer affects a run: each release is solved to its "
            "certificate" for key in RETIRED]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_inspect_schedule_builds_no_synthetic_stream(self, capsys, monkeypatch):
        # it reads no data, so a synth setting that could not be drawn is not its concern
        monkeypatch.setenv("STREAMDP_SYNTH_SIGMA", "-1")
        code, out, err = run_cli(capsys, "inspect-schedule", "--scheduler", "multires",
                                 "--B", "2", "--epsilon", "1", "--lambda", "1", "--T", "8")
        assert code == EXIT_OK and "sigma" not in err
        code, _, err = run_cli(capsys, *BASE_RUN, "--output", "m.csv")
        assert code == EXIT_USAGE and "sigma must be finite and positive" in err

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
        # the flag, not the SchedulerConfig field build_schedule would name
        assert code == EXIT_USAGE and err == "error: scheduler multires requires --B\n"

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("epsilon=0.1\nscheduler=multires\nB=2\nT=8\nlambda=1\n")
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--config", str(cfgfile),
            "--epsilon", "1",
        )
        assert code == EXIT_OK
        first = json.loads(out.splitlines()[1])  # the first event, after the header
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
        first = json.loads(out.splitlines()[1])  # the first event, after the header
        assert first["eps_num"] == 1 and first["eps_den"] == 4

    def test_bad_epsilon(self, capsys):
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "multires", "--B", "2",
            "--T", "8", "--epsilon", "-1", "--lambda", "1",
        )
        assert code == EXIT_USAGE

    def test_run_rejects_T_flag(self, capsys, tmp_path):
        # run's length is the stream's; a T it ignored would look like a setting
        code, out, err = run_cli(capsys, *BASE_RUN, "--T", "32",
                                 "--output", str(tmp_path / "m.csv"))
        assert code == EXIT_USAGE and "--T" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("source", ["env", "config"])
    def test_run_rejects_T_from_env_or_config(self, source, capsys, tmp_path, monkeypatch):
        argv = [*BASE_RUN, "--output", str(tmp_path / "m.csv")]
        if source == "env":
            monkeypatch.setenv("STREAMDP_T", "32")
        else:
            (tmp_path / "cfg").write_text("T=32\n")
            argv += ["--config", str(tmp_path / "cfg")]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and "STREAMDP_T" in err and "config key T" in err
        assert not (tmp_path / "m.csv").exists()

    def test_bad_tail_fraction_names_value(self, capsys, tmp_path):
        argv = [*BASE_RUN, "--output", str(tmp_path / "m.csv")]
        argv[argv.index("tail:0.25")] = "tail:abc"
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and "'tail:abc'" in err and "Traceback" not in err

    def test_consecutive_calls_parse_only_their_own_arguments(self, capsys, tmp_path):
        # main reuses one parser: nothing one call parsed may reach the next
        trace = tmp_path / "t.jsonl"
        base = ("--scheduler", "continual", "--B", "4", "--b0", "2", "--epsilon", "1/3",
                "--lambda", "1", "--T", "20")
        code, _, _ = run_cli(capsys, "inspect-schedule", *base, "--standalone-base",
                             "--trace", str(trace))
        assert code == EXIT_OK
        code, _, err = run_cli(capsys, "verify-ledger", str(trace), "--epsilon", "1/2")
        assert code == EXIT_USAGE and "1/2" in err
        code, out, _ = run_cli(capsys, "verify-ledger", str(trace))
        assert code == EXIT_OK and "continual: max 7/24 (budget 2/3) ok" in out
        trace.unlink()
        code, _, err = run_cli(capsys, "inspect-schedule", "--no-such-flag")
        assert code == EXIT_USAGE and "--no-such-flag" in err
        code, out, _ = run_cli(capsys, "inspect-schedule", *base)
        assert code == EXIT_OK  # no standalone base, and the trace on standard output
        assert json.loads(out.splitlines()[0])["budgets"] == {
            "continual": [1, 3], "multires": [1, 3]}
        code, _, err = run_cli(capsys, *BASE_RUN, "--output", str(tmp_path / "m.csv"))
        assert code == EXIT_OK, err
        assert (tmp_path / "m.csv").exists() and not trace.exists()
        code, _, err = run_cli(capsys, "run", "--scheduler", "continual")
        assert code == EXIT_USAGE and "--epsilon" in err


# A value of each setting unlike its default, as a flag, config line or
# environment variable gives it.
SETTING_SAMPLES = {
    "scheduler": "continual-sample", "epsilon": "1/3", "lam": "0.25", "lipschitz": "2.5",
    "B": "8", "b0": "3", "w": "7", "w0": "2", "standalone_base": "true",
    "first_base_at_2b": "true", "T": "9", "gamma": "0.5", "iters": "7", "minibatch": "5",
    "passes": "2", "seeds": "3,1", "source": "csv:data.csv", "test": "tail:0.5",
    "synth_d": "4", "synth_k": "5", "synth_n": "100", "synth_sigma": "0.75",
    "synth_drift": "0.01", "synth_seed": "9", "clip_l1": "true", "nonprivate": "true",
    "output": "o.csv", "format": "jsonl", "trace": "t.jsonl", "ledger_out": "l.jsonl",
}
# The flags each subcommand accepts: a dropped or renamed flag fails here.
SUBCOMMAND_FLAGS = {
    "run": ["--config", "--scheduler", "--epsilon", "--lambda", "--lipschitz", "--B", "--b0",
            "--w", "--w0", "--standalone-base", "--first-base-at-2b", "--gamma", "--iters",
            "--minibatch", "--passes", "--seeds", "--source", "--test", "--synth-d",
            "--synth-k", "--synth-n", "--synth-sigma", "--synth-drift", "--synth-seed",
            "--clip-l1", "--nonprivate", "--output", "--format", "--trace", "--ledger"],
    "inspect-schedule": ["--config", "--scheduler", "--epsilon", "--lambda", "--lipschitz",
                         "--B", "--b0", "--w", "--w0", "--standalone-base",
                         "--first-base-at-2b", "--T", "--trace"],
    "verify-ledger": ["--epsilon"],
}


class TestSettingSources:
    """A flag, a config line and a STREAMDP_* variable set a setting alike."""

    REQUIRED = {"scheduler": "continual", "epsilon": "1", "lam": "1", "B": "4", "b0": "2",
                "T": "8"}

    def parse(self, tmp_path, monkeypatch, key, value, source, config=""):
        """parse_config's settings with `key` set to the string `value` by
        `source`, the other required settings by flags, and `config` the
        config file's text before any line `source` adds."""
        command = cli._KEYS[key].commands[0]
        argv = [command, "--config", str(tmp_path / "cfg")]
        for k, v in self.REQUIRED.items():
            if k != key and command in cli._KEYS[k].commands:
                argv += [cli._flag(k), v]
        if source == "flag":
            argv += [cli._flag(key)] + ([] if cli._KEYS[key].type is bool else [value])
        elif source == "config":
            config += f"{key}={value}\n"
        else:
            monkeypatch.setenv("STREAMDP_" + key.upper(), value)
        (tmp_path / "cfg").write_text(config)
        return cli.parse_config(cli._parser().parse_args(argv))

    def test_every_setting_has_a_sample(self):
        assert SETTING_SAMPLES.keys() == cli._KEYS.keys()

    @pytest.mark.parametrize("key", list(cli._KEYS))
    def test_each_source_sets_the_same_value(self, key, tmp_path, monkeypatch):
        value, kind = SETTING_SAMPLES[key], cli._KEYS[key].type
        got = []
        for source in ("flag", "config", "env"):
            with monkeypatch.context() as m:
                got.append(getattr(self.parse(tmp_path, m, key, value, source), key))
        want = (3, 1) if key == "seeds" else True if kind is bool else kind(value)
        assert got == [want] * 3 and want != cli._KEYS[key].default

    @pytest.mark.parametrize("source", ["config", "env"])
    @pytest.mark.parametrize("spelling,value", [
        ("1", True), ("true", True), ("yes", True), ("on", True), ("TRUE", True), ("On", True),
        ("0", False), ("false", False), ("no", False), ("off", False), ("False", False),
        ("NO", False)])
    def test_a_boolean_reads_in_every_spelling(self, source, spelling, value, tmp_path,
                                               monkeypatch):
        # a variable overrides a config line saying the opposite, so a false shows
        opposite = "" if source == "config" else f"nonprivate={'off' if value else 'on'}\n"
        cfg = self.parse(tmp_path, monkeypatch, "nonprivate", spelling, source, opposite)
        assert cfg.nonprivate is value

    def test_lambda_in_a_config_file_is_lam(self, tmp_path, monkeypatch):
        cfg = self.parse(tmp_path, monkeypatch, "lam", "2.5", "config", "lambda=0.5\n")
        assert cfg.lam == 2.5 and cfg.sched.lam == 2.5  # one key: the later line wins
        (tmp_path / "cfg").write_text("lambda=0.5\n")
        args = cli._parser().parse_args(["inspect-schedule", "--config", str(tmp_path / "cfg"),
                                         "--scheduler", "multires", "--B", "2", "--epsilon", "1"])
        assert cli.parse_config(args).lam == 0.5

    @pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
    def test_each_subcommand_keeps_its_flags(self, command):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = [flag for action in subparsers.choices[command]._actions
                 for flag in action.option_strings if flag not in ("-h", "--help")]
        assert flags == SUBCOMMAND_FLAGS[command]

    @pytest.mark.parametrize("env,config,argv,named", [
        ({"STREAMDP_B": "abc"}, "", ["inspect-schedule", "--scheduler", "multires",
                                     "--epsilon", "1", "--lambda", "1", "--T", "8"],
         ["STREAMDP_B", "invalid int value for B: 'abc'"]),
        ({}, "# a comment\nlambda=x\n", ["inspect-schedule", "--scheduler", "multires",
                                          "--B", "2", "--epsilon", "1", "--T", "8"],
         ["cfg:2", "invalid float value for lam: 'x'"]),
        ({"STREAMDP_FORMAT": "xml"}, "", [*BASE_RUN, "--source", "csv:missing.csv"],
         ["STREAMDP_FORMAT", "invalid format 'xml' (choose from csv, jsonl)"]),
        ({"STREAMDP_SCHEDULER": "nope"}, "", [*BASE_RUN],
         ["STREAMDP_SCHEDULER", "invalid scheduler 'nope' (choose from multires,"]),
    ], ids=["int-from-env", "float-from-config", "format-from-env", "scheduler-from-env"])
    def test_a_bad_value_from_a_file_or_the_environment_is_a_usage_error(
            self, env, config, argv, named, capsys, tmp_path, monkeypatch):
        # checked before any data is read (a missing csv would exit 3) or file written
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        (tmp_path / "cfg").write_text(config)
        code, out, err = run_cli(capsys, *argv, "--config", str(tmp_path / "cfg"),
                                 *(["--output", str(tmp_path / "m.csv")] if argv[0] == "run"
                                   else []))
        assert code == EXIT_USAGE and out == "" and all(text in err for text in named), err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg"]


class TestInspect:
    def test_multires_inclusive_horizon_example(self, capsys):
        # the spec-style "T=8" inclusive horizon corresponds to --T 9 here
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "multires", "--B", "2",
            "--T", "9", "--epsilon", "1", "--lambda", "1",
        )
        assert code == EXIT_OK
        events = [json.loads(line) for line in out.splitlines()[1:]]
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

    def test_prints_the_trace_it_writes(self, capsys, tmp_path):
        args = ("inspect-schedule", "--scheduler", "continual", "--B", "4", "--b0", "2",
                "--epsilon", "1/3", "--lambda", "1", "--T", "20", "--standalone-base")
        code, out, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        code, written, _ = run_cli(capsys, *args, "--trace", str(tmp_path / "t.jsonl"))
        assert code == EXIT_OK and written == ""
        assert out == (tmp_path / "t.jsonl").read_text()
        assert json.loads(out.splitlines()[0]) == {
            "scheduler": "continual", "eps_num": 1, "eps_den": 3,
            "budgets": {"continual": [2, 3]}, "lam": 1.0, "L": 1.0, "tau_share": 0.01}

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

    @pytest.fixture
    def inject(self, monkeypatch):
        """inject(subsystem, a, b, eps) has every ledger `run` builds carry
        one more charge; returns the list of the built ledgers."""
        built = []

        def inject(subsystem, a, b, eps):
            def with_charge(*args, _fn=cli.ledger_from_events):
                ledger = _fn(*args)
                ledger.charge((a, b), Fraction(eps), subsystem, -1, "injected")
                built.append(ledger)
                return ledger
            monkeypatch.setattr(cli, "ledger_from_events", with_charge)
            return built
        return inject

    def test_budget_violation_exits_2(self, capsys, tmp_path, inject):
        inject("continual", 0, 0, 2)
        code, out, err = run_cli(capsys, *BASE_RUN, "--output", str(tmp_path / "m.csv"))
        assert code == EXIT_BUDGET
        assert "VIOLATION" in out

    def test_charge_to_an_unbudgeted_subsystem_exits_2(self, capsys, tmp_path, inject):
        inject("baseline", 0, 0, 5)
        code, out, err = run_cli(
            capsys, "run", "--scheduler", "multires", "--B", "16", "--epsilon", "1",
            "--lambda", "1", "--synth-n", "64", "--synth-d", "3", "--iters", "3",
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_BUDGET
        assert "baseline: max 5 (budget None) VIOLATION" in out

    def test_builds_the_ledger_once_and_writes_that_ledger(self, capsys, tmp_path, inject):
        built = inject("continual", 0, 0, 2)
        ledger_path = tmp_path / "ledger.jsonl"
        code, out, _ = run_cli(capsys, *BASE_RUN, "--output", str(tmp_path / "m.csv"),
                               "--ledger", str(ledger_path))
        assert code == EXIT_BUDGET and "VIOLATION" in out
        assert len(built) == 1
        injected = [line for line in ledger_path.read_text().splitlines()
                    if json.loads(line)["mechanism"] == "injected"]
        assert len(injected) == 1

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
        assert code == EXIT_DATA and "release refused" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_inside_a_wave_exits_3(self, capsys, tmp_path):
        # sliding trains each dependency wave of events as stacked calls; the
        # window bases are wave 1, and only the rows from 15 on blow up
        scale = [1e200 if i >= 15 else 1.0 for i in range(30)]
        self.write_csv(tmp_path / "d.csv", [[s * (i % 5 - 2), s] for i, s in enumerate(scale)])
        code, out, err = run_cli(
            capsys, "run", "--scheduler", "sliding", "--w", "7", "--w0", "1",
            "--epsilon", "1", "--lambda", "1",
            "--seeds", "1,2", "--source", f"csv:{tmp_path}/d.csv",
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_DATA and "release refused" in err and "Traceback" not in err
        # the error names the first refused member of the stack
        assert re.fullmatch(r"error: release refused: no certificate after 0 iterations: "
                            r"gradient norm inf above the tolerance "
                            r"in event at t=18 on \[15, 18\], seed 1\n", err)

    def test_a_solve_that_reaches_the_cap_exits_3(self, capsys, tmp_path, monkeypatch):
        from streamdp import erm

        monkeypatch.setattr(erm, "SOLVE_CAP", 1)
        code, out, err = run_cli(capsys, *BASE_RUN, "--output", str(tmp_path / "m.csv"))
        assert code == EXIT_DATA and "Traceback" not in err
        assert re.search(r"error: release refused: no certificate after 1 iterations: gradient "
                         r"norm \S+ above the tolerance in event at t=\d+ on \[\d+, \d+\], "
                         r"seed 0\n$", err)
        assert not (tmp_path / "m.csv").exists()

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

    def test_sampled_run_eps_max_matches_verified_trace(self, capsys, tmp_path):
        # events skipped on an empty subsample are charged like the others
        out, trace = tmp_path / "m.csv", tmp_path / "t.jsonl"
        code, _, err = run_cli(
            capsys, "run", "--scheduler", "continual-sample", "--B", "4", "--b0", "1",
            "--epsilon", "1", "--lambda", "1", "--synth-n", "96", "--synth-d", "4",
            "--iters", "3", "--minibatch", "8", "--output", str(out), "--trace", str(trace),
        )
        assert code == EXIT_OK, err
        last = dict(zip(CSV_HEADER.split(","), out.read_text().splitlines()[-1].split(",")))
        eps_max = Fraction(int(last["eps_max_num"]), int(last["eps_max_den"]))
        code, verified, _ = run_cli(capsys, "verify-ledger", str(trace), "--epsilon", "1")
        assert code == EXIT_OK
        assert eps_max == Fraction(re.search(r"max point loss: (\S+)", verified).group(1))


def write_blobs_csv(path, labels, seed=0):
    """Rows around unit means at angle v for each label v: linearly separable."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    X = 0.1 * rng.standard_normal((len(labels), 2)) + np.column_stack(
        [np.cos(labels), np.sin(labels)])
    path.write_text("".join(f"{a!r},{b!r},{v}\n" for (a, b), v in zip(X.tolist(), labels)))


def write_idx(root, name, labels, seed=0):
    """2x2 images lighting pixel `label` of each row; the source spec."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    images = rng.integers(0, 40, size=(len(labels), 4))
    images[np.arange(len(labels)), labels] = 255
    (root / f"{name}-images").write_bytes(idx_images_bytes(images.reshape(-1, 2, 2)))
    (root / f"{name}-labels").write_bytes(idx_labels_bytes(labels))
    return f"idx:{root}/{name}-images,{root}/{name}-labels"


class TestTestLabels:
    """A test set's labels are indexed among the stream's classes."""

    RUN = ["run", "--scheduler", "multires", "--B", "16", "--epsilon", "1", "--lambda", "1",
           "--nonprivate", "--iters", "50", "--minibatch", "16"]

    def final_acc_test(self, path):
        return float(path.read_text().splitlines()[-1].split(",")[7])

    @pytest.mark.parametrize("stream_labels,test_labels", [
        ([5, 7, 9], [7, 9]),  # the test set lacks the stream's first class
        ([0, 1, 2], [0, 1]),  # and its last
        ([1, 2, 3], [1, 2, 3]),
    ])
    def test_csv_test_set_is_scored_against_the_stream_classes(
            self, capsys, tmp_path, stream_labels, test_labels):
        write_blobs_csv(tmp_path / "s.csv", stream_labels * 32)
        write_blobs_csv(tmp_path / "t.csv", test_labels * 20, seed=1)
        out = tmp_path / "m.csv"
        code, _, err = run_cli(capsys, *self.RUN, "--source", f"csv:{tmp_path}/s.csv",
                               "--test", f"csv:{tmp_path}/t.csv", "--output", str(out))
        assert code == EXIT_OK, err
        assert self.final_acc_test(out) > 0.9

    def test_csv_test_label_the_stream_lacks_exits_3_naming_its_row(self, capsys, tmp_path):
        write_blobs_csv(tmp_path / "s.csv", [0, 1, 2] * 32)
        write_blobs_csv(tmp_path / "t.csv", [1, 2, 3] * 20, seed=1)
        out = tmp_path / "m.csv"
        code, _, err = run_cli(capsys, *self.RUN, "--source", f"csv:{tmp_path}/s.csv",
                               "--test", f"csv:{tmp_path}/t.csv", "--output", str(out))
        assert code == EXIT_DATA and "label 3 in row 3 is not a class of the stream" in err
        assert not out.exists()

    def test_idx_test_set_without_the_top_class(self, capsys, tmp_path):
        stream = write_idx(tmp_path, "s", [0, 1, 2, 3] * 24)
        test = write_idx(tmp_path, "t", [0, 1, 2] * 20, seed=1)
        out = tmp_path / "m.csv"
        code, _, err = run_cli(capsys, *self.RUN, "--source", stream, "--test", test,
                               "--output", str(out))
        assert code == EXIT_OK, err
        assert self.final_acc_test(out) > 0.9

    def test_idx_test_label_the_stream_lacks_exits_3_naming_its_row(self, capsys, tmp_path):
        stream = write_idx(tmp_path, "s", [0, 1, 2] * 32)
        test = write_idx(tmp_path, "t", [0, 1, 2, 3] * 20, seed=1)
        code, _, err = run_cli(capsys, *self.RUN, "--source", stream, "--test", test,
                               "--output", str(tmp_path / "m.csv"))
        assert code == EXIT_DATA and "label 3 in row 4 is not a class of the stream" in err


class TestNoRelease:
    @pytest.mark.parametrize("seeds", ["1", "1,2"])
    def test_a_run_that_releases_nothing_is_a_usage_error(self, capsys, tmp_path, seeds):
        code, _, err = run_cli(
            capsys, "run", "--scheduler", "sliding", "--w", "255", "--w0", "1",
            "--epsilon", "1", "--lambda", "1", "--synth-n", "100", "--test", "tail:0.25",
            "--seeds", seeds, "--output", str(tmp_path / "m.csv"),
            "--trace", str(tmp_path / "trace.jsonl"), "--ledger", str(tmp_path / "l.jsonl"))
        assert code == EXIT_USAGE and "releases no model on a stream of 75 points" in err
        assert list(tmp_path.iterdir()) == []


class TestOutputDirectories:
    """An output path whose directory does not exist is a usage error naming
    its flag, raised before any data is loaded, trained or written."""

    @pytest.mark.parametrize("seeds", ["1", "1,2"])
    @pytest.mark.parametrize("flag", ["--output", "--trace", "--ledger"])
    def test_run_exits_1_before_loading_data(self, flag, seeds, capsys, tmp_path, monkeypatch):
        from streamdp import cli

        def no_load(*args):
            raise AssertionError("data loaded")
        monkeypatch.setattr(cli, "_load_source", no_load)
        paths = {"--output": "m.csv", "--trace": "t.jsonl", "--ledger": "l.jsonl"}
        argv = [*BASE_RUN, "--seeds", seeds]
        for f, name in paths.items():
            argv += [f, str(tmp_path / "missing" / name if f == flag else tmp_path / name)]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and flag in err and "missing" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_inspect_schedule_exits_1_on_a_missing_trace_directory(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "inspect-schedule", "--scheduler", "multires", "--B", "2", "--T", "9",
            "--epsilon", "1", "--lambda", "1", "--trace", str(tmp_path / "missing" / "x.jsonl"))
        assert code == EXIT_USAGE and "--trace" in err and "missing" in err
        assert out == "" and list(tmp_path.iterdir()) == []


class TestUnusableNumbers:
    """Numbers that would give a noise scale that is not positive and finite,
    or a synthetic stream that cannot be drawn, are usage errors before
    training."""

    RUN = ["run", "--scheduler", "continual", "--epsilon", "1", "--lambda", "1", "--B", "64",
           "--b0", "16", "--synth-n", "300"]

    @pytest.mark.parametrize("flags", [
        ["--lambda", "1e308"],  # the scale underflows to 0
        ["--lambda", "nan"],
        ["--lambda", "inf"],
        ["--lambda", "nan", "--nonprivate"],
        ["--epsilon", "1/1" + "0" * 400],  # no float holds eps's charges but 0.0
        ["--epsilon", "1" + "0" * 400],  # nor these
        ["--lipschitz", "nan"],
        ["--lipschitz", "inf"],
        ["--synth-sigma", "nan"],
        ["--synth-sigma", "inf"],
        ["--synth-drift", "nan"],
        ["--synth-drift", "inf"],
        ["--synth-n", "-5"],
    ], ids=["lambda-underflow", "lambda-nan", "lambda-inf", "lambda-nan-nonprivate",
            "epsilon-tiny", "epsilon-huge", "lipschitz-nan", "lipschitz-inf",
            "synth-sigma-nan", "synth-sigma-inf", "synth-drift-nan", "synth-drift-inf",
            "synth-n-negative"])
    def test_run_exits_1_and_writes_nothing(self, flags, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.RUN, *flags, "--output", str(tmp_path / "m.csv"),
                               "--trace", str(tmp_path / "trace.jsonl"))
        assert code == EXIT_USAGE and err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["run", "--synth-n", "64", "--output", "m.csv"], ["inspect-schedule", "--T", "64"]],
        ids=["run", "inspect-schedule"])
    @pytest.mark.parametrize("b0", ["0", "-4"])
    def test_baseline_independent_exits_1_on_a_block_below_one(self, command, b0, capsys,
                                                               tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *command, "--scheduler", "baseline-independent",
                                 "--b0", b0, "--epsilon", "1", "--lambda", "1")
        assert code == EXIT_USAGE and f"b0 must be >= 1, got {b0}" in err
        assert "Traceback" not in err and out == "" and list(tmp_path.iterdir()) == []

    def test_inspect_schedule_exits_1_on_a_sampling_probability_that_overflows(
            self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "inspect-schedule", "--scheduler", "multires-sample",
                                 "--epsilon", "10000", "--lambda", "1", "--B", "4", "--T", "20",
                                 "--trace", str(tmp_path / "t.jsonl"))
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: eps 10000.0 is too large for the exp_formula sampling rule: "
                       "exp(eps / 2) overflows a float\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_inspect_schedule_exits_1_on_a_lipschitz_constant_that_is_not_positive_and_finite(
            self, value, capsys):
        code, out, err = run_cli(capsys, "inspect-schedule", "--scheduler", "multires",
                                 "--B", "4", "--epsilon", "1", "--lambda", "1", "--T", "20",
                                 "--lipschitz", value)
        assert code == EXIT_USAGE and "parameter L must be positive and finite" in err
        assert out == ""

    @pytest.mark.parametrize("flags", [[], ["--lipschitz", "1"]])
    def test_a_one_class_stream_exits_3_naming_the_class_count(self, flags, capsys, tmp_path):
        write_blobs_csv(tmp_path / "s.csv", [2] * 64)
        code, _, err = run_cli(capsys, "run", "--scheduler", "multires", "--B", "16",
                               "--epsilon", "1", "--lambda", "1", *flags,
                               "--source", f"csv:{tmp_path}/s.csv",
                               "--output", str(tmp_path / "m.csv"))
        assert code == EXIT_DATA and "need at least 2 classes, the stream has 1" in err
        assert not (tmp_path / "m.csv").exists()


class TestVerifyLedger:
    HEADER = {"scheduler": "multires", "eps_num": 1, "eps_den": 1,
              "budgets": {"multires": [1, 1]}}

    def make_trace(self, tmp_path, lines):
        p = tmp_path / "trace.jsonl"
        p.write_text("".join(json.dumps(x) + "\n" for x in [self.HEADER, *lines]))
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
        assert code == EXIT_DATA
        assert "line 1" in err

    def test_header_only_trace_verifies_with_max_0(self, capsys, tmp_path):
        p = self.make_trace(tmp_path, [])
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_OK
        assert out.splitlines() == ["max point loss: 0 at index None",
                                    "multires: max 0 (budget 1) ok"]

    @pytest.mark.parametrize("header,message", [
        ({"scheduler": "nonsense", "eps_num": 1, "eps_den": 1, "budgets": {"multires": [1, 1]}},
         "trace line 1 names no schedule: 'nonsense'"),
        ({"scheduler": ["multires"], "eps_num": 1, "eps_den": 1,
          "budgets": {"multires": [1, 1]}},
         "trace line 1 names no schedule: ['multires']"),
        ({"scheduler": 1, "eps_num": 1, "eps_den": 1, "budgets": {"multires": [1, 1]}},
         "trace line 1 names no schedule: 1"),
        ({"scheduler": "sliding", "eps_num": 1, "eps_den": 1, "budgets": {"multires": [1, 1]}},
         "trace line 1 budgets {multires: 1} are not those of a sliding schedule of eps 1: "
         "{sliding: 1}"),
        ({"scheduler": "continual", "eps_num": 1, "eps_den": 1,
          "budgets": {"multires": [1, 1]}},
         "trace line 1 budgets {multires: 1} are not those of a continual schedule of eps 1: "
         "{continual: 1, multires: 1} or {continual: 2}"),
        ({"scheduler": "multires", "eps_num": 1, "eps_den": 1,
          "budgets": {"multires": [1, 1], "sliding": [1, 1]}},
         "trace line 1 budgets {multires: 1, sliding: 1} are not those of a multires schedule "
         "of eps 1: {multires: 1}"),
        ({"scheduler": "sliding", "eps_num": 1, "eps_den": 1, "budgets": {"sliding": [100, 1]}},
         "trace line 1 budgets {sliding: 100} are not those of a sliding schedule of eps 1: "
         "{sliding: 1}"),
        ({"scheduler": "baseline-basic", "eps_num": 1, "eps_den": 3,
          "budgets": {"baseline": [1, 3]}},
         "trace line 1 budgets {baseline: 1/3} are not those of a baseline-basic schedule of "
         "eps 1/3: {baseline: 2/3}"),
        ({"scheduler": "continual", "eps_num": 1, "eps_den": 2,
          "budgets": {"continual": [1, 1], "multires": [1, 2]}},
         "trace line 1 budgets {continual: 1, multires: 1/2} are not those of a continual "
         "schedule of eps 1/2: {continual: 1/2, multires: 1/2} or {continual: 1}"),
        ({"scheduler": "multires", "eps_num": 0, "eps_den": 1, "budgets": {"multires": [0, 1]}},
         "trace line 1 has an invalid eps: 0"),
    ], ids=["no-such-scheduler", "a-list-scheduler", "an-int-scheduler",
            "other-schedulers-budget", "continual-without-its-own", "an-extra-budget",
            "a-scaled-budget", "another-schedulers-multiple", "continual-mixing-both-rules",
            "a-zero-eps"])
    def test_a_header_that_names_no_schedule_or_its_budgets_exits_3(self, header, message,
                                                                    capsys, tmp_path):
        p = tmp_path / "trace.jsonl"
        p.write_text(json.dumps(header) + "\n")
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("budget", [["1", 1], [1.5, 1], [None, 1], 1, [1, 1, 1]],
                             ids=["a-string", "a-float", "null", "a-bare-number", "a-triple"])
    def test_a_budget_that_is_not_a_ratio_of_integers_exits_3(self, budget, capsys, tmp_path):
        p = tmp_path / "trace.jsonl"
        p.write_text(json.dumps({**self.HEADER, "budgets": {"multires": budget}}) + "\n")
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error: trace line 1 is not a trace header: ")

    @pytest.mark.parametrize("eps,budget", [
        ('"eps_num": true, "eps_den": 1', "[true, true]"),
        ('"eps_num": true, "eps_den": 1', "[1, 1]"),
        ('"eps_num": 1, "eps_den": true', "[1, 1]"),
        ('"eps_num": 1, "eps_den": 1', "[true, 1]"),
        ('"eps_num": 1, "eps_den": 1', "[1, true]"),
    ], ids=["every-integer", "eps-num", "eps-den", "budget-num", "budget-den"])
    def test_a_bool_for_an_integer_exits_3(self, eps, budget, capsys, tmp_path):
        # Fraction takes true as 1, so each of these read as multires at eps 1
        p = tmp_path / "trace.jsonl"
        p.write_text(f'{{"scheduler": "multires", {eps}, "budgets": {{"multires": {budget}}}}}\n')
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error: trace line 1 is not a trace header: TypeError(")

    def test_a_trace_with_inflated_budgets_and_charges_exits_3_naming_line_1(self, capsys,
                                                                               tmp_path):
        # budgets and charges scaled up alike: every point stays within the
        # header's budget, which is not the scheduler's
        p = tmp_path / "sliding.jsonl"
        code, _, err = run_cli(capsys, "inspect-schedule", "--scheduler", "sliding", "--w", "7",
                               "--w0", "1", "--epsilon", "1", "--lambda", "1", "--T", "40",
                               "--trace", str(p))
        assert code == EXIT_OK, err
        head, *events = map(json.loads, p.read_text().splitlines())
        head["budgets"] = {"sliding": [100, 1]}
        p = tmp_path / "tampered.jsonl"
        p.write_text("".join(json.dumps(rec) + "\n" for rec in
                             [head, *({**e, "eps_num": 50 * e["eps_num"]} for e in events)]))
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert err == ("error: trace line 1 budgets {sliding: 100} are not those of a sliding "
                       "schedule of eps 1: {sliding: 1}\n")

    @pytest.mark.parametrize("flags,budgets", [
        ((), {"continual": Fraction(1, 3), "multires": Fraction(1, 3)}),
        (("--standalone-base",), {"continual": Fraction(2, 3)}),
    ], ids=["embedded-multires", "standalone-base"])
    def test_both_continual_headers_verify(self, flags, budgets, capsys, tmp_path):
        p = tmp_path / "trace.jsonl"
        code, _, err = run_cli(capsys, "inspect-schedule", "--scheduler", "continual", "--B", "4",
                               "--b0", "2", "--epsilon", "1/3", "--lambda", "1", "--T", "40",
                               *flags, "--trace", str(p))
        assert code == EXIT_OK, err
        head = json.loads(p.read_text().splitlines()[0])
        assert head["budgets"] == {sub: [b.numerator, b.denominator]
                                   for sub, b in budgets.items()}
        code, out, err = run_cli(capsys, "verify-ledger", str(p), "--epsilon", "1/3")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()[1:]
        assert sorted(line.split(":")[0] for line in lines) == sorted(budgets)
        for line in lines:
            sub = line.split(":")[0]
            assert line.endswith(f"(budget {budgets[sub]}) ok")

    def test_header_less_trace_exits_3_naming_line_1(self, capsys, tmp_path):
        p = tmp_path / "trace.jsonl"
        p.write_text(json.dumps(self.mr(8, 0, 0, 7)) + "\n")
        code, out, err = run_cli(capsys, "verify-ledger", str(p), "--epsilon", "1")
        assert code == EXIT_DATA
        assert "line 1" in err and out == ""

    def test_mismatched_epsilon_exits_1(self, capsys, tmp_path):
        p = self.make_trace(tmp_path, [self.mr(8, 0, 0, 7)])
        code, out, err = run_cli(capsys, "verify-ledger", str(p), "--epsilon", "1/2")
        assert code == EXIT_USAGE
        assert "1/2" in err and "epsilon 1" in err and out == ""

    def test_event_outside_the_header_budgets_is_malformed(self, capsys, tmp_path):
        base = {**self.mr(8, 0, 0, 7), "kind": "Base"}
        p = self.make_trace(tmp_path, [self.mr(8, 0, 0, 7), base])
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA
        assert "line 3" in err and "continual" in err

    def test_malformed_line_reports_number(self, capsys, tmp_path):
        p = self.make_trace(tmp_path, [self.mr(8, 0, 0, 7)])
        p.write_text(p.read_text() + "not json\n")
        code, out, err = run_cli(capsys, "verify-ledger", str(p), "--epsilon", "1")
        assert code == EXIT_DATA
        assert "line 3" in err

    def long_trace(self, tmp_path, bad_lineno, bad_line):
        """A 5,000-event trace whose line bad_lineno (the header is line 1) is bad_line."""
        lines = [json.dumps(self.mr(8 * (i + 1), 0, 8 * i, 8 * i + 7)) for i in range(5000)]
        lines[bad_lineno - 2] = bad_line
        p = tmp_path / "trace.jsonl"
        p.write_text(json.dumps(self.HEADER) + "\n" + "".join(x + "\n" for x in lines))
        return p

    @pytest.mark.parametrize("lineno", [2, 4000, 4100, 5001])
    @pytest.mark.parametrize("bad", [
        "not json",
        "",
        '{"t": 8, "kind": "MultiRes"',
        "{}{}",
        "{}, {}",
        "EVENT, EVENT",
        "[1, 2]",
    ], ids=["text", "blank", "truncated", "two-objects", "two-values", "two-events", "array"])
    def test_a_bad_line_in_a_long_trace_is_named(self, capsys, tmp_path, lineno, bad):
        # two well-formed events on one line decode as one array in bulk too
        p = self.long_trace(tmp_path, lineno, bad.replace("EVENT", json.dumps(self.mr(8, 0, 0, 7))))
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert f"malformed trace line {lineno}:" in err

    @pytest.mark.parametrize("old,new", [('"t": 8', '"t": 08'), ('"a": 0', '"a": +0'),
                                         ('"level": 0', '"level": 0.'), ("null", "None")],
                             ids=["leading-zero", "plus-sign", "bare-point", "python-none"])
    def test_a_value_json_refuses_is_named(self, capsys, tmp_path, old, new):
        # the other lines are in the writer's layout, and its pattern takes no
        # value that json.loads refuses
        p = self.long_trace(tmp_path, 4000, json.dumps(self.mr(8, 0, 0, 7)).replace(old, new, 1))
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert "malformed trace line 4000:" in err

    @pytest.mark.parametrize("lineno,old,new,message", [
        (1, b'"multires",', b'"multi\xe9res",', "trace line 1 is not a trace header"),
        (2, b'"MultiRes"', b'"Multi\xe9Res"', "malformed trace line 2:"),
        (4000, b'"level"', b'"lev\xe9l"', "malformed trace line 4000:"),  # a key not read
    ], ids=["line-1", "line-2", "line-4000"])
    def test_a_byte_that_is_not_utf8_is_named_with_its_line(self, capsys, tmp_path, lineno, old,
                                                              new, message):
        p = self.long_trace(tmp_path, 2, json.dumps(self.mr(8, 0, 0, 7)))  # line 2 as it is
        lines = p.read_bytes().split(b"\n")
        lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
        p.write_bytes(b"\n".join(lines))
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert message in err and "\\udce9" in err

    @pytest.mark.parametrize("fields,message", [
        ({"eps_num": -1}, "charge must be positive, got -1/2"),
        ({"a": 9}, "interval [9, 7] is malformed"),
        ({"eps_den": 0}, "Fraction(1, 0)"),
        ({"kind": "Base"}, "the header has no continual budget"),
        ({"kind": "Unknown"}, "'Unknown'"),
        ({"a": 0.5}, "interval bounds and times must be integers in the int64 range"),
        ({"eps_num": "1"}, "both arguments should be Rational instances"),
        ({"eps_num": 0.0}, "both arguments should be Rational instances"),
        ({"eps_num": 0, "eps_den": 0.5}, "both arguments should be Rational instances"),
        ({"eps_num": 0, "eps_den": 0}, "Fraction(0, 0)"),
        ({"b": 2**63 - 1}, "interval bounds and times must be integers in the int64 range, "
                           "b below 9223372036854775807"),
    ], ids=["negative", "a-after-b", "zero-denominator", "no-budget", "unknown-kind",
            "float-bound", "string-charge", "float-zero-charge", "zero-charge-float-denominator",
            "zero-charge-zero-denominator", "int64-limit"])
    def test_a_bad_event_is_named_with_its_fault(self, capsys, tmp_path, fields, message):
        p = self.make_trace(tmp_path, [self.mr(8, 0, 0, 7), self.mr(16, 0, 8, 15),
                                       {**self.mr(8, 0, 0, 7), **fields}, self.mr(24, 0, 16, 23)])
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert f"malformed trace line 4: {message}" in err

    @pytest.mark.parametrize("end", ["", ', "x": {"y": 1}'], ids=["flat", "nested"])
    def test_an_event_across_two_lines_is_named(self, capsys, tmp_path, end):
        # with a line of two events after it, the lines hold as many values as lines
        event = json.dumps(self.mr(8, 0, 0, 7))
        start, rest = event.split(', "b"')
        p = self.long_trace(tmp_path, 4000, start + end)
        lines = p.read_text().splitlines(keepends=True)
        lines[4000] = '"b"' + rest + "\n"
        lines[4001] = event + ", " + event + "\n"
        p.write_text("".join(lines))
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_DATA and out == ""
        assert "malformed trace line 4000:" in err

    def test_bool_charges_verify_as_the_integers_they_are(self, capsys, tmp_path):
        plain = [self.mr(8, 0, 0, 7), {**self.mr(8, 0, 0, 7), "eps_num": 0}]
        code, out, _ = run_cli(capsys, "verify-ledger", str(self.make_trace(tmp_path, plain)))
        bools = [{**plain[0], "eps_num": True}, {**plain[1], "eps_num": False}]
        assert (code, out) == run_cli(capsys, "verify-ledger",
                                      str(self.make_trace(tmp_path, bools)))[:2]
        assert code == EXIT_OK and out.startswith("max point loss: 1/2 at index 0\n")

    def test_zero_and_huge_charges_verify_exactly(self, capsys, tmp_path):
        # a zero charge is skipped, and a denominator past 64 bits stays exact
        p = self.make_trace(tmp_path, [self.mr(8, 0, 0, 7), {**self.mr(8, 0, 0, 7), "eps_num": 0},
                                       {**self.mr(16, 0, 4, 15), "eps_den": 2**70}])
        code, out, err = run_cli(capsys, "verify-ledger", str(p))
        assert code == EXIT_OK, err
        mx = Fraction(1, 2) + Fraction(1, 2**70)
        assert out.splitlines()[0] == f"max point loss: {mx} at index 4"

    @pytest.mark.parametrize("rewrite,fallbacks", [
        (lambda recs: "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in recs), 1),
        (lambda recs: "".join(json.dumps(rec, separators=(" ,  ", " :  ")) + " \n"
                              for rec in recs), 1),
        # an event's charge of true reads as 1; a header's would be refused
        (lambda recs: "".join(json.dumps({**rec, "eps_num": True} if i and rec["eps_num"] == 1
                                         else rec) + "\n" for i, rec in enumerate(recs)), 1),
        # text mode reads any line end as "\n", for the template as for json.loads
        (lambda recs: "".join(json.dumps(rec) + "\r\n" for rec in recs), 0),
        (lambda recs: "".join(json.dumps(rec) + ("\r" if i == 0 else "\n")
                              for i, rec in enumerate(recs)), 0),
    ], ids=["sorted-keys", "spaces", "true-charges", "crlf", "cr-after-header"])
    def test_a_rewritten_trace_verifies_like_the_written_one(self, rewrite, fallbacks, capsys,
                                                              tmp_path, monkeypatch):
        # another layout is read line by line, to the same ledger and report
        written = tmp_path / "trace.jsonl"
        code, _, err = run_cli(capsys, "inspect-schedule", "--scheduler", "continual-sample",
                               "--B", "16", "--b0", "4", "--epsilon", "1", "--lambda", "1",
                               "--T", "300", "--trace", str(written))
        assert code == EXIT_OK, err
        recs = [json.loads(line) for line in written.read_text().splitlines()]
        assert any(rec.get("eps_num") == 1 for rec in recs[1:])
        rewritten = tmp_path / "rewritten.jsonl"
        rewritten.write_bytes(rewrite(recs).encode())
        by_lines, reference = [], schedulers._ledger_by_lines
        monkeypatch.setattr(schedulers, "_ledger_by_lines",
                            lambda fh, budgets: by_lines.append(fh) or reference(fh, budgets))
        want = run_cli(capsys, "verify-ledger", str(written))
        assert by_lines == [] and want[0] == EXIT_OK
        assert run_cli(capsys, "verify-ledger", str(rewritten)) == want
        assert len(by_lines) == fallbacks
        charges = [schedulers.ledger_from_trace(p)[1].charges for p in (written, rewritten)]
        charged = sum(rec["eps_num"] != 0 for rec in recs[1:])  # zero charges are skipped
        assert charges[0] == charges[1] and len(charges[0]) == charged < len(recs) - 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_piped_trace_verifies_in_one_pass(self, capsys, tmp_path):
        # the header and the events come from one handle, read once: a second
        # open of a pipe would start past the events the first one buffered
        trace, fifo = tmp_path / "trace.jsonl", tmp_path / "fifo"
        code, _, err = run_cli(capsys, "inspect-schedule", "--scheduler", "sliding", "--w", "255",
                               "--w0", "1", "--epsilon", "1", "--lambda", "1", "--T", "8000",
                               "--trace", str(trace))
        assert code == EXIT_OK and trace.stat().st_size > 2 * schedulers._TRACE_CHUNK, err
        want = run_cli(capsys, "verify-ledger", str(trace))
        os.mkfifo(fifo)

        def feed():
            with contextlib.suppress(BrokenPipeError):
                fifo.write_bytes(trace.read_bytes())

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = run_cli(capsys, "verify-ledger", str(fifo))
        finally:
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # frees a writer still waiting
            writer.join()
        assert got == want and want[0] == EXIT_OK

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "verify-ledger", str(tmp_path / "nope.jsonl"),
            "--epsilon", "1",
        )
        assert code == EXIT_DATA


class TestTraceRoundTrip:
    """verify-ledger on run's trace, with no flag to restate, reports what run did."""

    SMALL = ["--epsilon", "1", "--lambda", "1", "--synth-n", "128", "--synth-d", "4",
             "--iters", "3", "--minibatch", "8"]

    @pytest.mark.parametrize("flags", [
        ["--scheduler", "multires", "--B", "16"],
        ["--scheduler", "multires-sample", "--B", "16"],
        ["--scheduler", "continual", "--B", "16", "--b0", "4"],
        ["--scheduler", "continual-sample", "--B", "16", "--b0", "4"],
        ["--scheduler", "sliding", "--w", "7", "--w0", "1"],
        ["--scheduler", "sliding-sample", "--w", "7", "--w0", "1"],
        ["--scheduler", "baseline-independent", "--b0", "4"],
        ["--scheduler", "baseline-basic", "--B", "16", "--b0", "4"],
        # a standalone base doubles the continual budget
        ["--scheduler", "continual", "--B", "64", "--b0", "16", "--standalone-base",
         "--synth-n", "1024", "--iters", "5"],
    ], ids=lambda flags: "-".join(f for f in flags if not f.startswith("-"))[:40])
    def test_verify_reports_the_run(self, flags, capsys, tmp_path):
        out, trace = tmp_path / "m.csv", tmp_path / "t.jsonl"
        code, ran, err = run_cli(capsys, "run", *self.SMALL, *flags,
                                 "--output", str(out), "--trace", str(trace))
        assert code == EXIT_OK, err
        vcode, verified, err = run_cli(capsys, "verify-ledger", str(trace))
        assert vcode == code, err
        first, *budget_lines = verified.splitlines()
        assert budget_lines == ran.splitlines()
        last = dict(zip(CSV_HEADER.split(","), out.read_text().splitlines()[-1].split(",")))
        eps_max = Fraction(int(last["eps_max_num"]), int(last["eps_max_den"]))
        assert eps_max == Fraction(re.match(r"max point loss: (\S+) at", first).group(1))
        if "--standalone-base" in flags:
            assert "continual: max 19/16 (budget 2) ok" in budget_lines
