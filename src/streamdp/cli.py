"""Command-line entry point.

Subcommands: `run` (train over a stream and export metrics, trace and ledger),
`inspect-schedule` (dry-run event trace: no data, no RNG), and `verify-ledger`
(replay a trace's charges and check them against a budget).

Exit codes: 0 success, 1 usage or config error, 2 budget violation,
3 data error (unreadable or non-finite input, or training that diverged).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .erm import Dataset, DivergenceError, ErmError, TrainConfig, clip_l1, lipschitz_public
from .harness import (
    EvalConfig,
    HarnessError,
    SchedulerConfig,
    StreamSource,
    SynthConfig,
    accuracy_quartiles,
    export_metrics,
    load_csv,
    load_idx,
    replay,
    synth_stream,
)
from .ledger import Ledger, LedgerError
from .mechanisms import MechanismError
from .schedulers import (
    KIND_SUBSYSTEM,
    ScheduleError,
    build_schedule,
    export_trace,
    ledger_from_events,
    trace_record,
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
    scheduler: str
    epsilon: Fraction
    lam: float
    lipschitz: float
    B: int | None
    b0: int | None
    w: int | None
    w0: int | None
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
    standalone_base: bool
    first_base_at_2b: bool
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
    sub.add_argument("--T", default=None, type=int, help="stream length (schedule horizon)")
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
    ins.add_argument("--trace", default=None, help="write trace here instead of stdout")

    ver = sub.add_parser("verify-ledger", help="check a trace's charges against a budget")
    ver.add_argument("trace_path")
    ver.add_argument("--epsilon", required=True, help="per-subsystem budget")
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
    try:
        eps = Fraction(str(merged["epsilon"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid --epsilon {merged['epsilon']!r}: {exc}") from exc
    if eps <= 0:
        raise UsageError("--epsilon must be positive")
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

    return RunConfig(
        scheduler=name, epsilon=eps, lam=float(merged["lam"]),
        lipschitz=merged["lipschitz"],
        B=merged["B"], b0=merged["b0"], w=merged["w"], w0=merged["w0"],
        T=merged["T"], gamma=float(merged["gamma"]), iters=int(merged["iters"]),
        minibatch=int(merged["minibatch"]), passes=int(merged["passes"]),
        seeds=tuple(seeds), source=merged["source"], test=merged["test"],
        synth=synth, clip_l1=bool(merged["clip_l1"]),
        nonprivate=bool(merged["nonprivate"]),
        standalone_base=bool(merged["standalone_base"]),
        first_base_at_2b=bool(merged["first_base_at_2b"]),
        output=merged["output"], format=merged["format"],
        trace=merged["trace"], ledger_out=merged["ledger_out"],
        inject_charge=merged["inject_charge"],
    )


def _load_source(spec: str, cfg: RunConfig) -> Dataset:
    if spec == "synth":
        return synth_stream(cfg.synth).data
    if spec.startswith("csv:"):
        return load_csv(spec[4:])
    if spec.startswith("idx:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise UsageError("idx source needs idx:IMAGES,LABELS")
        return load_idx(parts[0], parts[1])
    raise UsageError(f"unknown source spec {spec!r}")


def _split_test(stream: Dataset, cfg: RunConfig):
    if cfg.test is None:
        return stream, None
    if cfg.test.startswith("tail:"):
        frac = float(cfg.test[5:])
        if not 0.0 < frac < 1.0:
            raise UsageError("tail fraction must be in (0, 1)")
        cut = int(stream.n * (1.0 - frac))
        if cut < 1 or cut >= stream.n:
            raise UsageError("tail split leaves an empty stream or test set")
        return stream.slice(0, cut - 1), stream.slice(cut, stream.n - 1)
    return stream, _load_source(cfg.test, cfg)


def _scheduler_config(cfg: RunConfig, k: int | None = None, m: int | None = None):
    L = cfg.lipschitz
    if L is None:
        if k is None:
            raise UsageError("missing required flag --lipschitz")
        L = lipschitz_public(k, m)
    return SchedulerConfig(
        name=cfg.scheduler, eps=cfg.epsilon, lam=cfg.lam, L=L,
        B=cfg.B, b0=cfg.b0, w=cfg.w, w0=cfg.w0,
        standalone_base=cfg.standalone_base, first_base_at_2B=cfg.first_base_at_2b,
    )


def _seed_path(output: str, seed: int, multi: bool) -> str:
    if not multi:
        return output
    p = Path(output)
    return str(p.with_name(f"{p.stem}.seed{seed}{p.suffix}"))


def cmd_run(cfg: RunConfig) -> int:
    stream = _load_source(cfg.source, cfg)
    if cfg.clip_l1:
        stream = clip_l1(stream)
    stream, test = _split_test(stream, cfg)
    sched = _scheduler_config(cfg, stream.k, max(1, SchedulerConfig(
        cfg.scheduler, cfg.epsilon, cfg.lam, 1.0, cfg.B, cfg.b0, cfg.w, cfg.w0).batch))
    train = TrainConfig(
        gamma=cfg.gamma, iterations=cfg.iters, minibatch=cfg.minibatch, passes=cfg.passes
    )
    multi = len(cfg.seeds) > 1
    # a repeated seed reruns identically, so it is replayed and exported once
    seeds = tuple(dict.fromkeys(cfg.seeds))
    ev = EvalConfig(test=test, seeds=seeds, nonprivate=cfg.nonprivate, train=train)
    schedule = build_schedule(
        cfg.scheduler, stream.n, eps=cfg.epsilon, lam=cfg.lam, L=sched.L,
        B=cfg.B, b0=cfg.b0, w=cfg.w, w0=cfg.w0,
        standalone_base=cfg.standalone_base, first_base_at_2B=cfg.first_base_at_2b,
    )
    all_records = replay(StreamSource(stream), sched, ev, schedule)
    for seed in seeds:
        records = [r for r in all_records if r.seed == seed]
        export_metrics(records, _seed_path(cfg.output, seed, multi), cfg.format)

    if cfg.trace:
        export_trace(schedule.events, cfg.trace)
    ledger = ledger_from_events(schedule.events, schedule.budgets)
    if cfg.inject_charge:
        sub_name, a, b, frac = cfg.inject_charge.split(":")
        ledger.charge((int(a), int(b)), Fraction(frac), sub_name, -1, "injected")
    if cfg.ledger_out:
        ledger.export_jsonl(cfg.ledger_out)
    report = ledger.assert_budget()
    for entry in report.entries:
        status = "ok" if entry.ok else "VIOLATION"
        print(f"{entry.subsystem}: max {entry.max_eps} (budget {entry.budget}) {status}")
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
    L = cfg.lipschitz if cfg.lipschitz is not None else 1.0
    schedule = build_schedule(
        cfg.scheduler, cfg.T, eps=cfg.epsilon, lam=cfg.lam, L=L,
        B=cfg.B, b0=cfg.b0, w=cfg.w, w0=cfg.w0,
        standalone_base=cfg.standalone_base, first_base_at_2B=cfg.first_base_at_2b,
    )
    if cfg.trace:
        export_trace(schedule.events, cfg.trace)
    else:
        for e in schedule.events:
            print(json.dumps(trace_record(e)))
    ledger = ledger_from_events(schedule.events, schedule.budgets)
    witness, mx = ledger.max_point_loss()
    print(f"# events: {len(schedule.events)}", file=sys.stderr)
    print(f"# max point loss: {mx} at index {witness}", file=sys.stderr)
    return EXIT_OK


def cmd_verify_ledger(trace_path: str, epsilon: str) -> int:
    try:
        eps = Fraction(epsilon)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid --epsilon {epsilon!r}: {exc}") from exc
    if eps <= 0:
        raise UsageError("--epsilon must be positive")
    budgets = {sub: eps for sub in set(KIND_SUBSYSTEM.values())}
    budgets["baseline"] = 2 * eps
    ledger = Ledger(budgets=budgets)
    try:
        with open(trace_path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    sub = KIND_SUBSYSTEM[rec["kind"]]
                    eps_charge = Fraction(rec["eps_num"], rec["eps_den"])
                    if eps_charge > 0:
                        ledger.charge(
                            (rec["a"], rec["b"]), eps_charge, sub, rec["t"], rec["kind"]
                        )
                except (KeyError, ValueError, TypeError, LedgerError) as exc:
                    raise LedgerError(f"malformed trace line {lineno}: {exc}") from exc
    except OSError as exc:
        raise HarnessError(f"cannot read trace {trace_path}: {exc}") from exc
    witness, mx = ledger.max_point_loss()
    print(f"max point loss: {mx} at index {witness}")
    report = ledger.assert_budget()
    for entry in report.entries:
        status = "ok" if entry.ok else "VIOLATION"
        print(f"{entry.subsystem}: max {entry.max_eps} (budget {entry.budget}) {status}")
    return EXIT_OK if report.ok else EXIT_BUDGET


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
