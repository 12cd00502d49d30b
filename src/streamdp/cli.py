"""Command-line entry point.

Subcommands: `run` (train over a stream and export metrics, trace and ledger),
`inspect-schedule` (dry-run event trace: no data, no RNG), and `verify-ledger`
(replay a trace's charges and check them against the budgets in its header).

A trace is one header line (the scheduler, its eps and its per-subsystem
budgets) and then one line per event; `run --trace` and `inspect-schedule`
write it, and `verify-ledger` needs nothing else to check it.

Exit codes: 0 success, 1 usage or config error, 2 budget violation,
3 data error (unreadable or non-finite input, or training that diverged).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .erm import Dataset, DivergenceError, ErmError, TrainConfig, clip_l1, lipschitz_public
from .harness import (
    EvalConfig,
    HarnessError,
    StreamSource,
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


_INT_KEYS = (
    "B", "b0", "w", "w0", "T", "iters", "minibatch", "passes",
    "synth_d", "synth_k", "synth_n", "synth_seed",
)
_FLOAT_KEYS = ("lam", "gamma", "lipschitz", "synth_sigma", "synth_drift")
_BOOL_KEYS = ("clip_l1", "nonprivate", "standalone_base", "first_base_at_2b")


@dataclass(frozen=True)
class RunConfig:
    sched: SchedulerConfig  # L=None: the public bound for the stream
    T: int | None
    gamma: float
    iters: int
    minibatch: int
    passes: int
    seeds: tuple
    source: str
    test: str | None
    synth: SynthConfig | None
    clip_l1: bool
    nonprivate: bool
    output: str
    format: str
    trace: str | None
    ledger_out: str | None
    inject_charge: str | None


def _add_common(sub):
    sub.add_argument("--config", default=None, help="flat key=value config file")
    sub.add_argument("--scheduler", default=None, choices=SCHEDULERS)
    sub.add_argument("--epsilon", default=None, help="privacy budget, exact (e.g. 1 or 1/10)")
    sub.add_argument("--lambda", dest="lam", default=None, type=float)
    sub.add_argument("--lipschitz", default=None, type=float,
                     help="Lipschitz constant L; default from the public bound")
    sub.add_argument("--B", default=None, type=int)
    sub.add_argument("--b0", default=None, type=int)
    sub.add_argument("--w", default=None, type=int)
    sub.add_argument("--w0", default=None, type=int)
    sub.add_argument("--standalone-base", dest="standalone_base",
                     action="store_true", default=None)
    sub.add_argument("--first-base-at-2b", dest="first_base_at_2b",
                     action="store_true", default=None)


def build_parser() -> _Parser:
    p = _Parser(prog="streamdp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train over a stream and export metrics")
    _add_common(run)
    run.add_argument("--gamma", default=None, type=float)
    run.add_argument("--iters", default=None, type=int)
    run.add_argument("--minibatch", default=None, type=int)
    run.add_argument("--passes", default=None, type=int)
    run.add_argument("--seeds", default=None, help="comma-separated seed list")
    run.add_argument("--source", default=None,
                     help="synth | csv:PATH | idx:IMAGES,LABELS")
    run.add_argument("--test", default=None,
                     help="csv:PATH | idx:IMAGES,LABELS | tail:FRACTION")
    run.add_argument("--synth-d", dest="synth_d", default=None, type=int)
    run.add_argument("--synth-k", dest="synth_k", default=None, type=int)
    run.add_argument("--synth-n", dest="synth_n", default=None, type=int)
    run.add_argument("--synth-sigma", dest="synth_sigma", default=None, type=float)
    run.add_argument("--synth-drift", dest="synth_drift", default=None, type=float)
    run.add_argument("--synth-seed", dest="synth_seed", default=None, type=int)
    run.add_argument("--clip-l1", dest="clip_l1", action="store_true", default=None)
    run.add_argument("--nonprivate", action="store_true", default=None)
    run.add_argument("--output", default=None, help="metrics file path")
    run.add_argument("--format", default=None, choices=("csv", "jsonl"))
    run.add_argument("--trace", default=None, help="event trace JSONL path")
    run.add_argument("--ledger", dest="ledger_out", default=None, help="ledger JSONL path")
    run.add_argument("--inject-charge", dest="inject_charge", default=None,
                     help=argparse.SUPPRESS)  # test hook: subsystem:a:b:num/den

    ins = sub.add_parser("inspect-schedule", help="dry-run event trace, no data, no RNG")
    _add_common(ins)
    ins.add_argument("--T", default=None, type=int, help="stream length (schedule horizon)")
    ins.add_argument("--trace", default=None, help="write trace here instead of stdout")

    ver = sub.add_parser("verify-ledger",
                         help="check a trace's charges against the budgets in its header")
    ver.add_argument("trace_path")
    ver.add_argument("--epsilon", default=None,
                     help="optional: the eps the trace must have been built for")
    return p


_DEFAULTS = {
    "scheduler": None, "epsilon": None, "lam": None, "lipschitz": None,
    "B": None, "b0": None, "w": None, "w0": None, "T": None,
    "gamma": 10.0, "iters": 500, "minibatch": 256, "passes": 1,
    "seeds": "0", "source": "synth", "test": None,
    "synth_d": 20, "synth_k": 3, "synth_n": 4096, "synth_sigma": 0.5,
    "synth_drift": 0.0, "synth_seed": 0,
    "clip_l1": False, "nonprivate": False,
    "standalone_base": False, "first_base_at_2b": False,
    "output": "metrics.csv", "format": "csv", "trace": None, "ledger_out": None,
    "inject_charge": None,
}


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _BOOL_KEYS:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"boolean key {key} has non-boolean value {value!r}")
    return value


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
        if key not in _DEFAULTS:
            raise UsageError(f"{path}:{i}: unknown config key {key!r}")
        out[key] = _coerce(key, value.strip())
    return out


def _env_overrides() -> dict:
    out = {}
    for key in _DEFAULTS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            out[key] = _coerce(key, env)
    return out


def _parse_epsilon(value) -> Fraction:
    try:
        eps = Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid --epsilon {value!r}: {exc}") from exc
    if eps <= 0:
        raise UsageError("--epsilon must be positive")
    return eps


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, environment and flags (flags win)."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    merged.update(_env_overrides())
    for key in _DEFAULTS:
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v

    if merged["scheduler"] is None:
        raise UsageError("missing required flag --scheduler")
    if merged["epsilon"] is None:
        raise UsageError("missing required flag --epsilon")
    eps = _parse_epsilon(merged["epsilon"])
    if merged["lam"] is None:
        raise UsageError("missing required flag --lambda")

    name = merged["scheduler"]
    if name.startswith("sliding"):
        for f in ("w", "w0"):
            if merged[f] is None:
                raise UsageError(f"scheduler {name} requires --{f}")
        from .schedulers import window_shape

        try:
            window_shape(merged["w"], merged["w0"])
        except ScheduleError as exc:
            raise UsageError(str(exc)) from exc
    elif name.startswith("multires"):
        if merged["B"] is None:
            raise UsageError(f"scheduler {name} requires --B")
    elif name == "baseline-independent":
        if merged["b0"] is None:
            raise UsageError(f"scheduler {name} requires --b0")
    else:
        for f in ("B", "b0"):
            if merged[f] is None:
                raise UsageError(f"scheduler {name} requires --{f}")

    synth = None
    if merged["source"] == "synth":
        try:
            synth = SynthConfig(
                d=merged["synth_d"], k=merged["synth_k"], n=merged["synth_n"],
                sigma=merged["synth_sigma"], drift_rate=merged["synth_drift"],
                seed=merged["synth_seed"],
            )
        except HarnessError as exc:
            raise UsageError(str(exc)) from exc

    seeds = merged["seeds"]
    if isinstance(seeds, str):
        try:
            seeds = tuple(int(s) for s in seeds.split(",") if s.strip())
        except ValueError as exc:
            raise UsageError(f"invalid --seeds: {exc}") from exc
    if not seeds:
        raise UsageError("need at least one seed")

    sched = SchedulerConfig(
        name=name, eps=eps, lam=float(merged["lam"]), L=merged["lipschitz"],
        B=merged["B"], b0=merged["b0"], w=merged["w"], w0=merged["w0"],
        standalone_base=bool(merged["standalone_base"]),
        first_base_at_2B=bool(merged["first_base_at_2b"]),
    )
    return RunConfig(
        sched=sched, T=merged["T"], gamma=float(merged["gamma"]), iters=int(merged["iters"]),
        minibatch=int(merged["minibatch"]), passes=int(merged["passes"]),
        seeds=tuple(seeds), source=merged["source"], test=merged["test"],
        synth=synth, clip_l1=bool(merged["clip_l1"]),
        nonprivate=bool(merged["nonprivate"]),
        output=merged["output"], format=merged["format"],
        trace=merged["trace"], ledger_out=merged["ledger_out"],
        inject_charge=merged["inject_charge"],
    )


def _load_source(spec: str, cfg: RunConfig, classes=None) -> Dataset:
    """The data `spec` names; given `classes`, a stream's label values, a
    file's labels are indexed among them."""
    if spec == "synth":
        return synth_stream(cfg.synth).data
    if spec.startswith("csv:"):
        return load_csv(spec[4:], classes=classes)
    if spec.startswith("idx:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise UsageError("idx source needs idx:IMAGES,LABELS")
        return load_idx(parts[0], parts[1], classes=classes)
    raise UsageError(f"unknown source spec {spec!r}")


def _split_test(stream: Dataset, cfg: RunConfig):
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


def _print_report(report):
    for entry in report.entries:
        status = "ok" if entry.ok else "VIOLATION"
        print(f"{entry.subsystem}: max {entry.max_eps} (budget {entry.budget}) {status}")


def cmd_run(cfg: RunConfig) -> int:
    if cfg.T is not None:
        raise UsageError("run takes its length from the stream: T (--T, config key T or "
                         f"{ENV_PREFIX}T) is for inspect-schedule only")
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
    train = TrainConfig(
        gamma=cfg.gamma, iterations=cfg.iters, minibatch=cfg.minibatch, passes=cfg.passes
    )
    multi = len(cfg.seeds) > 1
    # a repeated seed reruns identically, so it is replayed and exported once
    seeds = tuple(dict.fromkeys(cfg.seeds))
    ev = EvalConfig(test=test, seeds=seeds, nonprivate=cfg.nonprivate, train=train)
    schedule = build_schedule(sched, stream.n)
    if not schedule.releases:
        raise UsageError(f"the {sched.name} schedule releases no model on a stream of "
                         f"{stream.n} points")
    ledger = ledger_from_events(schedule.events, schedule.budgets)
    all_records = replay(StreamSource(stream), sched, ev, schedule, ledger)
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


def cmd_inspect_schedule(cfg: RunConfig) -> int:
    if cfg.T is None:
        raise UsageError("inspect-schedule requires --T")
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
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (HarnessError, LedgerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
