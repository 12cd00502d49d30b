"""Data ingestion, synthetic drift streams, experiment replay and metrics.

Streams come from IDX image/label files, numeric CSV, or a synthetic
rotating-means generator. `replay` feeds a stream through a release schedule,
evaluates every released model on recent, held-out and older data, and emits
flat metric records that export to CSV or JSONL.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .erm import Dataset, TrainConfig, evaluate_accuracy
from .ledger import RunningMax
from .rng import make_rng
from .schedulers import build_schedule, execute

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class HarnessError(ValueError):
    """Data loading or bound-evaluation errors."""


def _read_idx(path, expect_magic: int, ndims: int):
    buf = Path(path).read_bytes()
    if len(buf) < 4:
        raise HarnessError(f"{path}: truncated header at offset 0, need 4 bytes")
    magic = int.from_bytes(buf[0:4], "big")
    if magic != expect_magic:
        raise HarnessError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{expect_magic:08x}"
        )
    header = 4 + 4 * ndims
    if len(buf) < header:
        raise HarnessError(f"{path}: truncated header, need {header} bytes, found {len(buf)}")
    dims = [int.from_bytes(buf[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndims)]
    count = math.prod(dims)
    if len(buf) < header + count:
        raise HarnessError(
            f"{path}: truncated payload at offset {header}, "
            f"expected {count} bytes, found {len(buf) - header}"
        )
    return dims, np.frombuffer(buf, dtype=np.uint8, count=count, offset=header)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse big-endian IDX image/label files into a flat [0,1]-scaled dataset."""
    (n_img, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    (n_lab,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if n_img != n_lab:
        raise HarnessError(f"count mismatch: {n_img} images vs {n_lab} labels")
    X = pixels.reshape(n_img, rows * cols).astype(np.float64) / 255.0
    y = labels.astype(np.int64)
    k = int(y.max()) + 1 if n_lab else 0
    return Dataset(X, y, k)


def load_csv(path) -> Dataset:
    """Numeric CSV, last column an integral label; header auto-detected."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        raw = [r for r in reader if r]
    if not raw:
        raise HarnessError(f"{path}: empty file")
    start = 0
    try:
        float(raw[0][0])
    except ValueError:
        start = 1  # non-numeric first cell marks a header row
    width = None
    for i, row in enumerate(raw[start:], start=start + 1):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise HarnessError(f"{path}: ragged row {i}: {len(row)} cells, expected {width}")
        try:
            rows.append([float(c) for c in row])
        except ValueError as exc:
            raise HarnessError(f"{path}: non-numeric cell in row {i}: {exc}") from exc
    if not rows or width < 2:
        raise HarnessError(f"{path}: need at least one data row with features and a label")
    mat = np.asarray(rows)
    raw_labels = mat[:, -1]
    if not np.all(raw_labels == np.round(raw_labels)):
        bad = int(np.argmax(raw_labels != np.round(raw_labels)))
        raise HarnessError(f"{path}: non-integral label in row {bad + start + 1}")
    uniq = np.unique(raw_labels.astype(np.int64))
    remap = {v: i for i, v in enumerate(uniq.tolist())}
    y = np.array([remap[int(v)] for v in raw_labels], dtype=np.int64)
    return Dataset(mat[:, :-1], y, len(uniq))


@dataclass(frozen=True)
class SynthConfig:
    """Gaussian blobs around class means on the unit circle, slowly rotating."""

    d: int
    k: int
    n: int
    sigma: float
    drift_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise HarnessError("need at least 2 classes")
        if self.sigma <= 0:
            raise HarnessError("sigma must be positive")
        if self.drift_rate < 0:
            raise HarnessError("drift_rate must be nonnegative")
        if self.d < 2:
            raise HarnessError("need d >= 2 for rotating class means")


@dataclass(frozen=True)
class StreamSource:
    """A materialized stream, optionally reshuffled for randomized ordering."""

    data: Dataset

    def shuffled(self, seed: int) -> "StreamSource":
        rng = make_rng(seed, "shuffle")
        perm = rng.permutation(self.data.n)
        return StreamSource(Dataset(self.data.X[perm], self.data.y[perm], self.data.k))


def synth_stream(cfg: SynthConfig) -> StreamSource:
    """Example t: uniform class c, features = mean_c(t) + sigma * gaussian,
    where mean_c(t) sits on the unit circle in coordinates (0, 1) at angle
    2*pi*c/k + drift_rate*t. Deterministic per seed.
    """
    rng = make_rng(cfg.seed, "synth")
    classes = rng.integers(0, cfg.k, size=cfg.n)
    t = np.arange(cfg.n)
    angles = 2.0 * np.pi * classes / cfg.k + cfg.drift_rate * t
    X = cfg.sigma * rng.standard_normal((cfg.n, cfg.d))
    X[:, 0] += np.cos(angles)
    X[:, 1] += np.sin(angles)
    return StreamSource(Dataset(X, classes, cfg.k))


@dataclass(frozen=True)
class SchedulerConfig:
    name: str
    eps: Fraction
    lam: float
    L: float
    B: int | None = None
    b0: int | None = None
    w: int | None = None
    w0: int | None = None
    standalone_base: bool = False
    first_base_at_2B: bool = False

    @property
    def batch(self) -> int:
        """Smallest release granularity, used for recent/old evaluation windows."""
        for v in (self.b0, self.w0, self.B):
            if v is not None:
                return v
        return 1


@dataclass(frozen=True)
class EvalConfig:
    test: Dataset | None = None
    seeds: tuple = (0,)
    nonprivate: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass(frozen=True)
class MetricsRecord:
    t: int
    scheduler: str
    kind: str
    eps: float
    lam: float
    batch: int
    acc_recent: float | None
    acc_test: float | None
    acc_old: float | None
    noise_l2: float
    eps_max: Fraction
    bound: float | None
    seed: int


def replay(source: StreamSource, sched: SchedulerConfig, ev: EvalConfig) -> list[MetricsRecord]:
    """Run the schedule over the stream once per seed and score every release.

    acc_recent uses the trailing `batch` points at the release step, acc_test
    the fixed held-out set, acc_old the batch preceding the model's training
    interval (None at the stream head). eps_max is the exact maximum
    per-point loss over all charges up to the release step, kept by
    `ledger.RunningMax` as integer numerators over one common denominator.
    Records follow the schedule's release order, which for continual lists
    the embedded multi-resolution releases first, so a release listed after
    one at a later step reports the maximum at that later step. In
    non-private mode the ledger is disabled and eps_max stays 0.
    """
    stream = source.data
    records = []
    schedule = build_schedule(
        sched.name, stream.n, eps=sched.eps, lam=sched.lam, L=sched.L,
        B=sched.B, b0=sched.b0, w=sched.w, w0=sched.w0,
        standalone_base=sched.standalone_base, first_base_at_2B=sched.first_base_at_2B,
    )
    kind_of = {(e.t, e.model_id): e.kind for e in schedule.events}
    batch = sched.batch
    for seed in ev.seeds:
        cfg = replace(ev.train, seed=seed)
        result = execute(schedule, stream, sched.lam, cfg, sched.eps, nonprivate=ev.nonprivate)
        running = RunningMax(result.ledger.charges if result.ledger else ())
        for t, mid in result.releases:
            model = result.models[mid]
            pm = result.perturbed.get(mid)
            a, b = model.meta.interval if model.meta.interval else (0, t)
            recent = stream.slice(max(0, t - batch + 1), t) if t >= 0 else None
            old = stream.slice(a - batch, a - 1) if a - batch >= 0 else None
            records.append(MetricsRecord(
                t=t,
                scheduler=sched.name,
                kind=kind_of.get((t, mid), "release"),
                eps=float(sched.eps),
                lam=sched.lam,
                batch=batch,
                acc_recent=evaluate_accuracy(model, recent) if recent else None,
                acc_test=evaluate_accuracy(model, ev.test) if ev.test is not None else None,
                acc_old=evaluate_accuracy(model, old) if old else None,
                noise_l2=pm.noise_l2 if pm is not None else 0.0,
                eps_max=running.at(t),
                bound=None,
                seed=seed,
            ))
    return records


def final_accuracy_by_seed(records, field_name="acc_test") -> dict[int, float]:
    """Accuracy of the last release in each seed's run."""
    out = {}
    for r in records:
        v = getattr(r, field_name)
        if v is not None:
            out[r.seed] = v  # records are in (seed, t) order; last write wins
    return out


def median_final_accuracy(records, field_name="acc_test") -> float:
    vals = list(final_accuracy_by_seed(records, field_name).values())
    if not vals:
        raise HarnessError("no evaluated releases to aggregate")
    return float(np.median(vals))


def accuracy_quartiles(records, field_name="acc_test"):
    vals = list(final_accuracy_by_seed(records, field_name).values())
    if not vals:
        raise HarnessError("no evaluated releases to aggregate")
    q25, q50, q75 = np.percentile(vals, [25, 50, 75])
    return float(q25), float(q50), float(q75)


@dataclass(frozen=True)
class TheoryParams:
    """Symbols consumed by the excess-risk bound formulas; leave unused ones None."""

    L: float | None = None
    lam: float | None = None
    eps: float | None = None
    d: int | None = None
    B: int | None = None
    b0: int | None = None
    w0: int | None = None
    level: int | None = None
    eta: float | None = None
    M: float | None = None
    G: float | None = None
    beta_smooth: float | None = None
    R: float | None = None
    R_g: float | None = None


BOUND_KINDS = ("multires", "continual", "old_data", "sliding")


def utility_bound(kind: str, p: TheoryParams) -> float:
    """High-probability excess empirical risk bound for one release family.

    multires: ((L + beta*R^2) + G^2) * ln(2^k B) / (lam 2^k B) + 4 d G^2 / (eps lam B)
    continual: sqrt(2 eta R_g / (2^j b0)) + (1.5 M eta + 1)/(2^j b0)
               + (ln d + eta) * 4 d L^2 / (lam b0 eps)
    old_data: L * g * (sqrt(2 ((ln d + eta) * 2 d L^2 / (lam eps) + 1)) + 1)
              with g = 1/sqrt(lam b0), the model gap implied by the lam setting
    sliding: sqrt(2 eta R_g / w0) + (1.5 M eta + 1)/w0
             + (ln d + eta) * 12 d L^2 / (lam w0 eps)
    """

    def need(name):
        v = getattr(p, name)
        if v is None:
            raise HarnessError(f"bound {kind!r} requires parameter {name}")
        return v

    if kind == "multires":
        L, beta, R, G = need("L"), need("beta_smooth"), need("R"), need("G")
        lam, eps, d, B, k = need("lam"), need("eps"), need("d"), need("B"), need("level")
        n = 2**k * B
        return ((L + beta * R**2) + G**2) * math.log(n) / (lam * n) + 4 * d * G**2 / (
            eps * lam * B
        )
    if kind == "continual":
        eta, R_g, M = need("eta"), need("R_g"), need("M")
        lam, eps, d, b0, j = need("lam"), need("eps"), need("d"), need("b0"), need("level")
        L = need("L")
        n = 2**j * b0
        return (
            math.sqrt(2 * eta * R_g / n)
            + (1.5 * M * eta + 1) / n
            + (math.log(d) + eta) * 4 * d * L**2 / (lam * b0 * eps)
        )
    if kind == "old_data":
        L, lam, eps, d = need("L"), need("lam"), need("eps"), need("d")
        b0, eta = need("b0"), need("eta")
        gap = 1.0 / math.sqrt(lam * b0)
        inner = (math.log(d) + eta) * 2 * d * L**2 / (lam * eps) + 1
        return L * gap * (math.sqrt(2 * inner) + 1)
    if kind == "sliding":
        eta, R_g, M = need("eta"), need("R_g"), need("M")
        lam, eps, d, w0 = need("lam"), need("eps"), need("d"), need("w0")
        L = need("L")
        return (
            math.sqrt(2 * eta * R_g / w0)
            + (1.5 * M * eta + 1) / w0
            + (math.log(d) + eta) * 12 * d * L**2 / (lam * w0 * eps)
        )
    raise HarnessError(f"unknown bound kind {kind!r}, expected one of {BOUND_KINDS}")


CSV_HEADER = (
    "t,scheduler,kind,eps,lambda,batch,acc_recent,acc_test,acc_old,"
    "noise_l2,eps_max_num,eps_max_den,bound,seed"
)


def _record_row(r: MetricsRecord):
    def opt(v):
        return "" if v is None else repr(v)

    return [
        r.t, r.scheduler, r.kind, repr(r.eps), repr(r.lam), r.batch,
        opt(r.acc_recent), opt(r.acc_test), opt(r.acc_old), repr(r.noise_l2),
        r.eps_max.numerator, r.eps_max.denominator, opt(r.bound), r.seed,
    ]


def export_metrics(records, path, format: str = "csv"):
    """Write records as CSV (fixed column order) or JSONL (round-trippable)."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            for r in records:
                writer.writerow(_record_row(r))
    elif format == "jsonl":
        with open(path, "w") as fh:
            for r in records:
                rec = {
                    "t": r.t, "scheduler": r.scheduler, "kind": r.kind,
                    "eps": r.eps, "lambda": r.lam, "batch": r.batch,
                    "acc_recent": r.acc_recent, "acc_test": r.acc_test,
                    "acc_old": r.acc_old, "noise_l2": r.noise_l2,
                    "eps_max_num": r.eps_max.numerator,
                    "eps_max_den": r.eps_max.denominator,
                    "bound": r.bound, "seed": r.seed,
                }
                fh.write(json.dumps(rec) + "\n")
    else:
        raise HarnessError(f"unknown metrics format {format!r}")


def import_metrics_jsonl(path) -> list[MetricsRecord]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            records.append(MetricsRecord(
                t=rec["t"], scheduler=rec["scheduler"], kind=rec["kind"],
                eps=rec["eps"], lam=rec["lambda"], batch=rec["batch"],
                acc_recent=rec["acc_recent"], acc_test=rec["acc_test"],
                acc_old=rec["acc_old"], noise_l2=rec["noise_l2"],
                eps_max=Fraction(rec["eps_max_num"], rec["eps_max_den"]),
                bound=rec["bound"], seed=rec["seed"],
            ))
    return records
