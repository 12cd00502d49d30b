"""Command-line entry point.

Subcommands: `run` (train over a stream and export metrics, trace and ledger),
`inspect-schedule` (dry-run event trace: no data, no RNG), and `verify-ledger`
(replay a trace's charges and check them against the budgets in its header).

A trace is one header line (the scheduler, its eps and its per-subsystem
budgets) and then one line per event; `run --trace` and `inspect-schedule`
write it, and `verify-ledger` needs nothing else to check it.

Exit codes: 0 success, 1 usage or config error, 2 budget violation,
3 data error (unreadable or non-finite input, or a model whose solve could
not be certified).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .erm import CertificateError, Dataset, ErmError, clip_l1, lipschitz_public
from .harness import (
    EvalConfig,
    HarnessError,
    SynthConfig,
    accuracy_quartiles,
    export_metrics,
    load_csv,
    load_idx,
    replay,
    synth_stream,
)
from .ledger import LedgerError
from .mechanisms import MechanismError
from .schedulers import (
    ScheduleError,
    SchedulerConfig,
    build_schedule,
    export_trace,
    ledger_from_events,
    ledger_from_trace,
    window_shape,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_DATA = 3

ENV_PREFIX = "STREAMDP_"

SCHEDULERS = (
    "multires", "multires-sample", "continual", "continual-sample",
    "sliding", "sliding-sample", "baseline-independent", "baseline-basic",
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Key(NamedTuple):
    """A setting of `run` and `inspect-schedule`: the subcommands whose flag
    sets it, its type (str, int, float or bool), its default (None: unset),
    its flag's help and the values it may take."""

    commands: tuple
    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None


_BOTH = ("run", "inspect-schedule")
_RUN = ("run",)

# Every setting, in flag order. A setting is a flag, a `--config` key and a
# STREAMDP_<KEY> variable; the unset SynthConfig settings take that
# dataclass's defaults.
_KEYS = {
    "scheduler": _Key(_BOTH, str, choices=SCHEDULERS),
    "epsilon": _Key(_BOTH, str, help="privacy budget, exact (e.g. 1 or 1/10)"),
    "lam": _Key(_BOTH, float),
    "lipschitz": _Key(_BOTH, float, help="Lipschitz constant L; default from the public bound"),
    "B": _Key(_BOTH, int),
    "b0": _Key(_BOTH, int),
    "w": _Key(_BOTH, int),
    "w0": _Key(_BOTH, int),
    "standalone_base": _Key(_BOTH, bool, False),
    "first_base_at_2b": _Key(_BOTH, bool, False),
    "T": _Key(("inspect-schedule",), int, help="stream length (schedule horizon)"),
    "gamma": _Key(_RUN, float, help=argparse.SUPPRESS),
    "iters": _Key(_RUN, int, help=argparse.SUPPRESS),
    "minibatch": _Key(_RUN, int, help=argparse.SUPPRESS),
    "passes": _Key(_RUN, int, help=argparse.SUPPRESS),
    "seeds": _Key(_RUN, str, "0", "comma-separated seed list"),
    "source": _Key(_RUN, str, "synth", "synth | csv:PATH | idx:IMAGES,LABELS"),
    "test": _Key(_RUN, str, help="csv:PATH | idx:IMAGES,LABELS | tail:FRACTION"),
    "synth_d": _Key(_RUN, int, 20),
    "synth_k": _Key(_RUN, int, 3),
    "synth_n": _Key(_RUN, int, 4096),
    "synth_sigma": _Key(_RUN, float, 0.5),
    "synth_drift": _Key(_RUN, float),
    "synth_seed": _Key(_RUN, int),
    "clip_l1": _Key(_RUN, bool, False),
    "nonprivate": _Key(_RUN, bool, False),
    "output": _Key(_RUN, str, "metrics.csv", "metrics file path"),
    "format": _Key(_RUN, str, "csv", choices=("csv", "jsonl")),
    "trace": _Key(_BOTH, str, help="event trace JSONL path (inspect-schedule: stdout without one)"),
    "ledger_out": _Key(_RUN, str, help="ledger JSONL path"),
    "inject_charge": _Key(_RUN, str, help=argparse.SUPPRESS),  # test hook: subsystem:a:b:num/den
}
# The SGD settings of earlier versions: still accepted, they no longer affect
# a run, which solves each event to its certificate, and `run` says so.
_RETIRED = ("gamma", "iters", "minibatch", "passes")
# The flags not spelled --<key with dashes>.
_FLAGS = {"lam": "--lambda", "ledger_out": "--ledger"}
# The keys each scheduler, sampled or not, cannot do without.
_REQUIRES = {"multires": ("B",), "continual": ("B", "b0"), "sliding": ("w", "w0"),
             "baseline-independent": ("b0",), "baseline-basic": ("B", "b0")}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _flag(key: str) -> str:
    return _FLAGS.get(key, "--" + key.replace("_", "-"))


def build_parser() -> _Parser:
    p = _Parser(prog="streamdp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, help=text) for name, text in (
        ("run", "train over a stream and export metrics"),
        ("inspect-schedule", "dry-run event trace, no data, no RNG"))}
    for s in subs.values():
        s.add_argument("--config", default=None, help="flat key=value config file")
    for key, spec in _KEYS.items():
        kind = ({"action": "store_true"} if spec.type is bool
                else {"type": spec.type, "choices": spec.choices})
        for name in spec.commands:
            subs[name].add_argument(_flag(key), dest=key, default=None, help=spec.help, **kind)

    ver = sub.add_parser("verify-ledger",
                         help="check a trace's charges against the budgets in its header")
    ver.add_argument("trace_path")
    ver.add_argument("--epsilon", default=None,
                     help="optional: the eps the trace must have been built for")
    return p


def _coerce(key: str, value: str, where: str):
    """The string `value` of `key`, read at `where` (a config file line or an
    environment variable), as the key's type; a UsageError names both."""
    spec = _KEYS[key]
    try:
        out = _BOOLEANS[value.lower()] if spec.type is bool else spec.type(value)
    except (KeyError, ValueError):
        raise UsageError(f"{where}: invalid {spec.type.__name__} value for {key}: "
                         f"{value!r}") from None
    if spec.choices is not None and out not in spec.choices:
        raise UsageError(f"{where}: invalid {key} {value!r} "
                         f"(choose from {', '.join(spec.choices)})")
    return out


def _read_config_file(path) -> dict:
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{i}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key == "lambda":
            key = "lam"
        if key not in _KEYS:
            raise UsageError(f"{path}:{i}: unknown config key {key!r}")
        out[key] = _coerce(key, value.strip(), f"{path}:{i}")
    return out


def _env_overrides() -> dict:
    names = {key: ENV_PREFIX + key.upper() for key in _KEYS}
    return {key: _coerce(key, os.environ[name], name)
            for key, name in names.items() if name in os.environ}


def _parse_epsilon(value) -> Fraction:
    try:
        eps = Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid --epsilon {value!r}: {exc}") from exc
    if eps <= 0:
        raise UsageError("--epsilon must be positive")
    return eps


def _given(**fields) -> dict:
    """`fields` but the unset (None) ones, which take their dataclass's defaults."""
    return {name: v for name, v in fields.items() if v is not None}


def parse_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge defaults, config file, environment and flags (flags win) into one
    namespace of every `_KEYS` setting, with `seeds` a tuple of ints, and
    add `sched`, their SchedulerConfig (L=None: the public bound for the
    stream)."""
    merged = {key: spec.default for key, spec in _KEYS.items()}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    merged.update(_env_overrides())
    merged.update((key, v) for key in _KEYS if (v := getattr(args, key, None)) is not None)
    cfg = argparse.Namespace(**merged)

    for key in ("scheduler", "epsilon", "lam"):
        if merged[key] is None:
            raise UsageError(f"missing required flag {_flag(key)}")
    eps = _parse_epsilon(cfg.epsilon)
    for key in _REQUIRES[cfg.scheduler.removesuffix("-sample")]:
        if merged[key] is None:
            raise UsageError(f"scheduler {cfg.scheduler} requires {_flag(key)}")
    if cfg.scheduler.startswith("sliding"):
        try:
            window_shape(cfg.w, cfg.w0)
        except ScheduleError as exc:
            raise UsageError(str(exc)) from exc

    try:
        cfg.seeds = tuple(int(s) for s in cfg.seeds.split(",") if s.strip())
    except ValueError as exc:
        raise UsageError(f"invalid --seeds: {exc}") from exc
    if not cfg.seeds:
        raise UsageError("need at least one seed")

    cfg.sched = SchedulerConfig(
        name=cfg.scheduler, eps=eps, lam=cfg.lam, L=cfg.lipschitz,
        B=cfg.B, b0=cfg.b0, w=cfg.w, w0=cfg.w0, standalone_base=cfg.standalone_base,
        first_base_at_2B=cfg.first_base_at_2b,
    )
    return cfg


def _load_source(spec: str, cfg: argparse.Namespace, classes=None) -> Dataset:
    """The data `spec` names; given `classes`, a stream's label values, a
    file's labels are indexed among them."""
    if spec == "synth":
        try:
            synth = SynthConfig(**_given(
                d=cfg.synth_d, k=cfg.synth_k, n=cfg.synth_n, sigma=cfg.synth_sigma,
                drift_rate=cfg.synth_drift, seed=cfg.synth_seed))
        except HarnessError as exc:
            raise UsageError(str(exc)) from exc
        return synth_stream(synth)
    if spec.startswith("csv:"):
        return load_csv(spec[4:], classes=classes)
    if spec.startswith("idx:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise UsageError("idx source needs idx:IMAGES,LABELS")
        return load_idx(parts[0], parts[1], classes=classes)
    raise UsageError(f"unknown source spec {spec!r}")


def _split_test(stream: Dataset, cfg: argparse.Namespace):
    if cfg.test is None:
        return stream, None
    if cfg.test.startswith("tail:"):
        try:
            frac = float(cfg.test[5:])
        except ValueError as exc:
            raise UsageError(f"invalid --test {cfg.test!r}: the tail fraction is not a number") \
                from exc
        if not 0.0 < frac < 1.0:
            raise UsageError("tail fraction must be in (0, 1)")
        cut = int(stream.n * (1.0 - frac))
        if cut < 1 or cut >= stream.n:
            raise UsageError("tail split leaves an empty stream or test set")
        return stream.slice(0, cut - 1), stream.slice(cut, stream.n - 1)
    classes = np.arange(stream.k) if stream.classes is None else stream.classes
    return stream, _load_source(cfg.test, cfg, classes)


def _seed_path(output: str, seed: int, multi: bool) -> str:
    if not multi:
        return output
    p = Path(output)
    return str(p.with_name(f"{p.stem}.seed{seed}{p.suffix}"))


def _parse_charge(spec: str):
    """subsystem:a:b:num/den as (subsystem, (a, b), eps)."""
    try:
        sub_name, a, b, frac = spec.split(":")
        return sub_name, (int(a), int(b)), Fraction(frac)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(
            f"invalid --inject-charge {spec!r}: expected subsystem:a:b:num/den") from exc


def _check_output_dirs(**paths):
    """Raise a UsageError naming the flag of the first of `paths`, a {flag:
    path or None} map, whose directory does not exist, before anything is
    computed or written."""
    for flag, path in paths.items():
        if path is not None and not Path(path).parent.is_dir():
            raise UsageError(f"--{flag} {path}: directory {Path(path).parent} does not exist")


def _print_report(report):
    for entry in report.entries:
        status = "ok" if entry.ok else "VIOLATION"
        print(f"{entry.subsystem}: max {entry.max_eps} (budget {entry.budget}) {status}")


def cmd_run(cfg: argparse.Namespace) -> int:
    if cfg.T is not None:
        raise UsageError("run takes its length from the stream: T (--T, config key T or "
                         f"{ENV_PREFIX}T) is for inspect-schedule only")
    # the per-seed and summary files sit beside --output
    _check_output_dirs(output=cfg.output, trace=cfg.trace, ledger=cfg.ledger_out)
    for key in _RETIRED:
        if getattr(cfg, key) is not None:
            print(f"note: {_flag(key)} no longer affects a run: each release is solved to "
                  "its certificate", file=sys.stderr)
    injected = _parse_charge(cfg.inject_charge) if cfg.inject_charge else None
    stream = _load_source(cfg.source, cfg)
    if stream.k < 2:
        raise HarnessError(f"need at least 2 classes, the stream has {stream.k}")
    if cfg.clip_l1:
        stream = clip_l1(stream)
    stream, test = _split_test(stream, cfg)
    sched = cfg.sched
    if sched.L is None:
        sched = replace(sched, L=lipschitz_public(stream.k, max(1, sched.batch)))
    multi = len(cfg.seeds) > 1
    # a repeated seed reruns identically, so it is replayed and exported once
    seeds = tuple(dict.fromkeys(cfg.seeds))
    ev = EvalConfig(test=test, seeds=seeds, nonprivate=cfg.nonprivate)
    schedule = build_schedule(sched, stream.n)
    if not schedule.releases:
        raise UsageError(f"the {sched.name} schedule releases no model on a stream of "
                         f"{stream.n} points")
    ledger = ledger_from_events(schedule.events, schedule.budgets)
    all_records = replay(stream, sched, ev, schedule, ledger)
    for seed in seeds:
        records = [r for r in all_records if r.seed == seed]
        export_metrics(records, _seed_path(cfg.output, seed, multi), cfg.format)

    if cfg.trace:
        export_trace(schedule, cfg.trace)
    # replay has read its eps_max, so the injected charge reaches only the report
    if injected:
        sub_name, interval, eps = injected
        ledger.charge(interval, eps, sub_name, -1, "injected")
    if cfg.ledger_out:
        ledger.export_jsonl(cfg.ledger_out)
    report = ledger.assert_budget()
    _print_report(report)
    if multi and test is not None:
        q25, q50, q75 = accuracy_quartiles(all_records)
        summary = {"median_final_acc_test": q50, "q25": q25, "q75": q75,
                   "seeds": list(cfg.seeds)}
        Path(_summary_path(cfg.output)).write_text(json.dumps(summary) + "\n")
        print(f"median final acc_test: {q50:.4f} (q25 {q25:.4f}, q75 {q75:.4f})")
    if not cfg.nonprivate and not report.ok:
        return EXIT_BUDGET
    return EXIT_OK


def _summary_path(output: str) -> str:
    p = Path(output)
    return str(p.with_name(f"{p.stem}.summary.json"))


def cmd_inspect_schedule(cfg: argparse.Namespace) -> int:
    if cfg.T is None:
        raise UsageError("inspect-schedule requires --T")
    _check_output_dirs(trace=cfg.trace)
    # no stream to bound L from: L=1 unless --lipschitz is given
    sched = cfg.sched if cfg.sched.L is not None else replace(cfg.sched, L=1.0)
    schedule = build_schedule(sched, cfg.T)
    export_trace(schedule, cfg.trace)
    ledger = ledger_from_events(schedule.events, schedule.budgets)
    witness, mx = ledger.max_point_loss()
    print(f"# events: {len(schedule.events)}", file=sys.stderr)
    print(f"# max point loss: {mx} at index {witness}", file=sys.stderr)
    return EXIT_OK


def cmd_verify_ledger(trace_path: str, epsilon: str | None) -> int:
    """Rebuild a trace's ledger and check each subsystem against the budget
    its header records; --epsilon, if given, must be the header's eps."""
    expected = None if epsilon is None else _parse_epsilon(epsilon)
    eps, ledger = ledger_from_trace(trace_path)
    if expected is not None and expected != eps:
        raise UsageError(f"--epsilon {expected} does not match the trace's epsilon {eps}")
    witness, mx = ledger.max_point_loss()
    print(f"max point loss: {mx} at index {witness}")
    report = ledger.assert_budget()
    _print_report(report)
    return EXIT_OK if report.ok else EXIT_BUDGET


@functools.cache
def _parser() -> _Parser:
    """The parser of `main`, built once per process: parsing leaves no state
    in it, and building it costs more than a `verify-ledger` call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "verify-ledger":
            return cmd_verify_ledger(args.trace_path, args.epsilon)
        cfg = parse_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_inspect_schedule(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScheduleError, MechanismError, ErmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"error: release refused: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (HarnessError, LedgerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
