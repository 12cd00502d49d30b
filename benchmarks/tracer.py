"""Span tracer for the benchmark's traced pass.

The tracer wraps streamdp's public functions where their callers look them
up (module attributes and `Ledger` methods), records one span per call
(name, start, end, parent) in memory, and turns the spans into per-layer
metrics. It changes no file of the package: `install` patches attributes,
`uninstall` puts the originals back.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "harness", "schedulers", "erm", "mechanisms", "ledger", "rng")


def _sgd_iters(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.iterations * cfg.passes


def _eval_rows(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return data.n


def _file_bytes(args, kwargs, result):
    return sum(Path(p).stat().st_size for p in args)


def _records(args, kwargs, result):
    return len(result)


# span name -> (owner, attribute) pairs to wrap, and an optional function of
# the call's arguments and result that gives the span's work count.
TARGETS = {
    "harness.replay": ([("streamdp.cli", "replay")], _records),
    "harness.load": ([("streamdp.cli", "load_csv"), ("streamdp.cli", "load_idx")], _file_bytes),
    "harness.export": ([("streamdp.cli", "export_metrics")], None),
    "schedulers.build": ([("streamdp.cli", "build_schedule"),
                          ("streamdp.harness", "build_schedule")], None),
    "schedulers.execute": ([("streamdp.harness", "execute")], None),
    "schedulers.trace_write": ([("streamdp.cli", "export_trace")], None),
    "schedulers.ledger_build": ([("streamdp.cli", "ledger_from_events")], None),
    "erm.sgd": ([("streamdp.mechanisms", "sgd_train"), ("streamdp.erm", "sgd_train")],
                _sgd_iters),
    "erm.biased": ([("streamdp.mechanisms", "biased_erm_minimize")], None),
    "erm.eval": ([("streamdp.harness", "evaluate_accuracy")], _eval_rows),
    "mechanisms.event": ([("streamdp.schedulers", "psgd"),
                          ("streamdp.schedulers", "pberm")], None),
    "mechanisms.subsample": ([("streamdp.schedulers", "subsample")], None),
    "mechanisms.noise": ([("streamdp.mechanisms", "output_perturb")], None),
    "rng.make": ([(m, "make_rng") for m in (
        "streamdp.erm", "streamdp.mechanisms", "streamdp.schedulers", "streamdp.harness")],
        None),
    "ledger.charge": ([("streamdp.ledger.Ledger", "charge")], None),
    "ledger.sweep": ([("streamdp.ledger.Ledger", "max_point_loss")], None),
    "ledger.assert": ([("streamdp.ledger.Ledger", "assert_budget")], None),
    "ledger.export": ([("streamdp.ledger.Ledger", "export_jsonl")], None),
}


def _resolve(path: str):
    """The module or class named `pkg.module[.Class]`, or None if it is gone."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        try:
            return getattr(importlib.import_module(mod), cls, None)
        except ModuleNotFoundError:
            return None


class Tracer:
    """In-memory span stack. Spans are [name, start, end, parent, child_s, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: set[str] = set()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, None])
        self._stack.append(len(self.spans) - 1)

    def _close(self, work):
        i = self._stack.pop()
        span = self.spans[i]
        span[2] = time.perf_counter()
        span[5] = work
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close(None)

    def _wrapper(self, name, fn, work_of):
        def traced(*args, **kwargs):
            self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(work_of(args, kwargs, result)
                            if work_of and result is not None else None)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that exists; record span names with none found."""
        for name, (targets, work_of) in TARGETS.items():
            found = False
            for owner_path, attr in targets:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                setattr(owner, attr, self._wrapper(name, fn, work_of))
                self._patches.append((owner, attr, fn))
                found = True
            if not found:
                self.missing.add(name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, child_s, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": end - start - child_s,
                                     "work": work}) + "\n")


def tail_percentile(values, min_beyond=10):
    """Highest of a fixed set of percentiles with at least `min_beyond` samples
    above it. Returns (percentile, value, samples beyond); falls back to the
    median when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= min_beyond or pct == 50:
            return pct, xs[rank - 1], n - rank


def layer_metrics(tracer: Tracer) -> dict[str, tuple]:
    """Per-layer metrics from the recorded spans, as {name: (value, unit)}.

    Metrics of spans that could not be installed are left out;
    `tracer.missing` names those spans.
    """
    spans = tracer.spans
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s[2] - s[1] for s in by_name.get(name, ()))

    def self_s(name):
        return sum(s[2] - s[1] - s[4] for s in by_name.get(name, ()))

    def work(name):
        return sum(s[5] or 0 for s in by_name.get(name, ()))

    event_ms = [(s[2] - s[1]) * 1e3 for s in by_name.get("mechanisms.event", ())]
    tail_pct, tail_ms, tail_beyond = tail_percentile(event_ms) if event_ms else (0, 0.0, 0)
    sgd_iters = work("erm.sgd")
    # metric name: (span it is computed from, value, unit)
    m = {
        "cli.run_self_s": ("cli.run", self_s("cli.run"), "s"),
        "cli.verify_self_s": ("cli.verify", self_s("cli.verify"), "s"),
        "harness.replay_calls": ("harness.replay", calls("harness.replay"), "count"),
        "harness.replay_self_s": ("harness.replay", self_s("harness.replay"), "s"),
        "harness.releases": ("harness.replay", work("harness.replay"), "count"),
        "harness.load_s": ("harness.load", busy("harness.load"), "s"),
        "harness.load_bytes": ("harness.load", work("harness.load"), "bytes"),
        "harness.export_s": ("harness.export", busy("harness.export"), "s"),
        "schedulers.build_calls": ("schedulers.build", calls("schedulers.build"), "count"),
        "schedulers.build_s": ("schedulers.build", busy("schedulers.build"), "s"),
        "schedulers.execute_self_s": ("schedulers.execute", self_s("schedulers.execute"), "s"),
        "schedulers.trace_write_s": ("schedulers.trace_write", busy("schedulers.trace_write"),
                                     "s"),
        "schedulers.ledger_build_s": ("schedulers.ledger_build",
                                      busy("schedulers.ledger_build"), "s"),
        "erm.sgd_calls": ("erm.sgd", calls("erm.sgd"), "count"),
        "erm.sgd_iters": ("erm.sgd", sgd_iters, "count"),
        "erm.sgd_s": ("erm.sgd", busy("erm.sgd"), "s"),
        "erm.sgd_us_per_iter": ("erm.sgd", busy("erm.sgd") / sgd_iters * 1e6 if sgd_iters
                                else 0.0, "us"),
        "erm.eval_calls": ("erm.eval", calls("erm.eval"), "count"),
        "erm.eval_rows": ("erm.eval", work("erm.eval"), "count"),
        "erm.eval_s": ("erm.eval", busy("erm.eval"), "s"),
        "mechanisms.events": ("mechanisms.event", len(event_ms), "count"),
        "mechanisms.event_s": ("mechanisms.event", busy("mechanisms.event"), "s"),
        "mechanisms.event_p50_ms": ("mechanisms.event",
                                    statistics.median(event_ms) if event_ms else 0.0, "ms"),
        "mechanisms.event_tail_ms": ("mechanisms.event", tail_ms, "ms"),
        "mechanisms.event_tail_pct": ("mechanisms.event", tail_pct, "%"),
        "mechanisms.event_tail_beyond": ("mechanisms.event", tail_beyond, "count"),
        "mechanisms.noise_calls": ("mechanisms.noise", calls("mechanisms.noise"), "count"),
        "mechanisms.noise_s": ("mechanisms.noise", busy("mechanisms.noise"), "s"),
        "rng.make_calls": ("rng.make", calls("rng.make"), "count"),
        "rng.make_s": ("rng.make", busy("rng.make"), "s"),
        "ledger.charges": ("ledger.charge", calls("ledger.charge"), "count"),
        "ledger.charge_s": ("ledger.charge", busy("ledger.charge"), "s"),
        "ledger.sweep_calls": ("ledger.sweep", calls("ledger.sweep"), "count"),
        "ledger.sweep_s": ("ledger.sweep", busy("ledger.sweep"), "s"),
        "ledger.export_s": ("ledger.export", busy("ledger.export"), "s"),
    }
    out = {name: (value, unit) for name, (span, value, unit) in m.items()
           if span not in tracer.missing}
    for layer, (n, b, s) in _layer_totals(spans).items():
        out[f"{layer}.calls"] = (n, "count")
        out[f"{layer}.busy_s"] = (b, "s")
        out[f"{layer}.self_s"] = (s, "s")
    return out


def _layer_totals(spans):
    """Per layer: span count, busy time (spans not nested in a span of the same
    layer) and self time (duration minus child spans)."""
    totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    for s in spans:
        layer = s[0].partition(".")[0]
        if layer not in totals:
            continue
        t = totals[layer]
        d = s[2] - s[1]
        t[0] += 1
        t[2] += d - s[4]
        parent = s[3]
        while parent >= 0 and not spans[parent][0].startswith(layer + "."):
            parent = spans[parent][3]
        if parent < 0:
            t[1] += d
    return {k: tuple(v) for k, v in totals.items()}
