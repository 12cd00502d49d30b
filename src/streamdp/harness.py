"""Data ingestion, synthetic drift streams, experiment replay and metrics.

Streams come from IDX image/label files, numeric CSV, or a synthetic
rotating-means generator. `replay` feeds a stream through a release schedule,
evaluates every released model on recent, held-out and older data (as
stacks of models, in tiles and chunks), and emits flat metric records, whose
scheduler, eps, lambda and batch are the schedule's config's, that export
to CSV or JSONL.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .erm import Dataset, evaluate_accuracy
from .ledger import Ledger, RunningMax
from .rng import make_rng
from .schedulers import _STACK_BYTES, Schedule, execute

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class HarnessError(ValueError):
    """Data loading and aggregation errors."""


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


def load_idx(images_path, labels_path, classes=None) -> Dataset:
    """Parse big-endian IDX image/label files into a flat [0,1]-scaled dataset.

    A label is its own class index, k the largest label plus one; given
    `classes`, the label values of another dataset (a test set's stream),
    labels are indexed among those instead (`_class_indices`).
    """
    (n_img, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    (n_lab,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if n_img != n_lab:
        raise HarnessError(f"count mismatch: {n_img} images vs {n_lab} labels")
    X = pixels.reshape(n_img, rows * cols).astype(np.float64) / 255.0
    y = labels.astype(np.int64)
    if classes is None:
        return Dataset(X, y, int(y.max()) + 1 if n_lab else 0)
    return Dataset(X, _class_indices(labels_path, y, classes, 1), len(classes), classes)


def load_csv(path, classes=None) -> Dataset:
    """Numeric CSV, last column an integral label; header auto-detected.

    A non-numeric first cell in the first non-empty row marks a header.
    Blank lines are skipped, and errors name the row counting non-empty
    rows from 1, the header included. Labels are indexed among the file's
    own distinct values, in increasing order, or given `classes`, the label
    values of another dataset (a test set's stream), among those
    (`_class_indices`).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next((r for r in reader if r), None)
        header_lines = reader.line_num
    if first is None:
        raise HarnessError(f"{path}: empty file")
    try:
        float(first[0])
        start, skip = 0, 0
    except ValueError:
        start, skip = 1, header_lines  # the header row and the blank lines before it
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header with no data rows
            mat = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip,
                             comments=None, quotechar='"')
    except ValueError as exc:
        raise _csv_parse_error(path, str(exc), start) from exc
    if mat.shape[0] == 0 or mat.shape[1] < 2:
        raise HarnessError(f"{path}: need at least one data row with features and a label")
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise HarnessError(f"{path}: non-finite cell in row {bad + start + 1}")
    raw_labels = mat[:, -1]
    if not np.all(raw_labels == np.round(raw_labels)):
        bad = int(np.argmax(raw_labels != np.round(raw_labels)))
        raise HarnessError(f"{path}: non-integral label in row {bad + start + 1}")
    raw_labels = raw_labels.astype(np.int64)
    if classes is None:
        classes, y = np.unique(raw_labels, return_inverse=True)
    else:
        y = _class_indices(path, raw_labels, classes, start + 1)
    return Dataset(mat[:, :-1], y, len(classes), classes)


def _class_indices(path, labels: np.ndarray, classes: np.ndarray, first_row: int) -> np.ndarray:
    """The index of each label among `classes`, the increasing label values
    of a stream; a label the stream lacks raises HarnessError naming its row,
    counting the first label's row as first_row."""
    y = np.searchsorted(classes, labels)
    known = y < len(classes)
    known[known] = classes[y[known]] == labels[known]
    if not known.all():
        bad = int(np.argmin(known))
        raise HarnessError(f"{path}: label {labels[bad]} in row {bad + first_row} "
                           "is not a class of the stream")
    return y


def _csv_parse_error(path, msg: str, start: int) -> HarnessError:
    """The loader's error for numpy's parse error `msg`, with the row renumbered.

    numpy counts data rows after the skipped header, leaving out blank
    lines: a ragged row from 1, a bad cell from 0.
    """
    ragged = re.search(r"changed from (\d+) to (\d+) at row (\d+)", msg)
    if ragged:
        width, cells, row = map(int, ragged.groups())
        return HarnessError(
            f"{path}: ragged row {row + start}: {cells} cells, expected {width}")
    cell = re.search(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)", msg)
    if cell:
        value, row, col = cell.group(1), int(cell.group(2)), int(cell.group(3))
        return HarnessError(
            f"{path}: non-numeric cell in row {row + start + 1}, column {col}: {value}")
    return HarnessError(f"{path}: {msg}")


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
        if self.n < 0:
            raise HarnessError(f"n must be >= 0, got {self.n}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise HarnessError(f"sigma must be finite and positive, got {self.sigma}")
        if not (math.isfinite(self.drift_rate) and self.drift_rate >= 0):
            raise HarnessError(f"drift_rate must be finite and nonnegative, got {self.drift_rate}")
        if self.d < 2:
            raise HarnessError("need d >= 2 for rotating class means")


def synth_stream(cfg: SynthConfig) -> Dataset:
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
    return Dataset(X, classes, cfg.k)


@dataclass(slots=True)
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
    seed: int


def replay(
    stream: Dataset, schedule: Schedule, ledger: Ledger, *,
    test: Dataset | None = None, seeds=(0,), nonprivate: bool = False,
) -> list[MetricsRecord]:
    """Run the schedule over the stream for each of `seeds` and score every
    release, on the `test` set too if one is given.

    `ledger` holds the schedule's charges (`ledger_from_events`); with
    nonprivate=True it is not read. `execute` trains all seeds and the
    independent events of each dependency wave in lockstep; the records
    come seed by seed, each seed's releases in time order, and carry the
    scheduler name, eps, lambda and batch of `schedule.config`.
    acc_recent uses the trailing `batch` points at the release step,
    acc_test the fixed held-out set, acc_old the batch preceding the
    model's training interval (None at the stream head).
    Every (seed, release) pair whose model was not skipped is picked at
    once from the run's skip column, and the released models are gathered
    from its (S, M + 1, k, d) weight array into one (R, k, d) array with one
    fancy index, as noise_l2 is from its noise-norm column.
    `evaluate_accuracy` scores that array against the test set, in tiles of
    rows × models, and the models against their recent and old windows: a
    window whose copies for each of its models would exceed `_STACK_BYTES`
    is read in place once for all of them, and the other windows are
    gathered in chunks of about `_STACK_BYTES`. Each value equals the
    model's own evaluation. eps_max is
    the exact maximum per-point loss over the ledger's charges up to the
    release step, the same for every seed, kept by `ledger.RunningMax` as
    integer numerators over one common denominator and read before
    returning, so charges added to the ledger afterwards do not reach it. In
    non-private mode nothing is charged and eps_max stays 0.
    """
    kind_of = {(e.t, e.model_id): e.kind for e in schedule.events}
    # an adopted continual base is its multires model, trained on [0, t - 1]
    start_of = {e.model_id: e.a for e in schedule.events}
    cfg = schedule.config
    batch = cfg.batch
    run = execute(schedule, stream, nonprivate=nonprivate, seeds=seeds)
    running = RunningMax(Ledger() if nonprivate else ledger)
    eps_max = {t: running.at(t) for t, _ in schedule.releases}
    steps, mids = np.array(schedule.releases, dtype=np.int64).reshape(-1, 2).T
    # every seed's releases but its skipped models, seed-major, each seed's in time order
    seat, which = np.nonzero(~run.skip[:, mids])
    steps, mids = steps[which], mids[which]
    models = run.weights[seat, mids]
    noise_l2 = run.noise_l2[seat, mids].tolist()
    starts = np.array([start_of[mid] for mid in mids.tolist()], dtype=np.int64)
    recent = np.maximum(0, steps - batch + 1)
    # the recent windows, then the old ones, scored in one call
    acc_window = _window_accuracy(
        models, np.tile(np.arange(len(models)), 2), stream,
        np.concatenate([recent, starts - batch]),
        np.concatenate([steps - recent + 1, np.where(starts >= batch, batch, 0)]))
    acc_recent, acc_old = acc_window[:len(models)], acc_window[len(models):]
    acc_test = [None] * len(models) if test is None else evaluate_accuracy(models, test).tolist()
    eps = float(cfg.eps)
    return [MetricsRecord(
        t=t,
        scheduler=cfg.name,
        kind=kind_of.get((t, mid), "release"),
        eps=eps,
        lam=cfg.lam,
        batch=batch,
        acc_recent=acc_recent[r],
        acc_test=acc_test[r],
        acc_old=acc_old[r],
        noise_l2=noise_l2[r],
        eps_max=eps_max[t],
        seed=seeds[i],
    ) for r, (i, t, mid) in enumerate(zip(seat.tolist(), steps.tolist(), mids.tolist()))]


def _window_accuracy(models: np.ndarray, which, stream: Dataset, starts, lengths) -> list:
    """Accuracy of models[which[r]] on the lengths[r] stream rows from
    starts[r], or None where lengths[r] is 0.

    Where copies of a window for each of the models scored on it would
    exceed _STACK_BYTES, as `execute` reads a range in place, the window is
    read in place, once for all those models. The other windows of one
    length are scored in chunks of about _STACK_BYTES of weights, gathered
    rows and scores; a chunk of one window reads its slice in place.
    """
    out = [None] * len(which)
    for n in sorted(set(lengths[lengths > 0].tolist())):  # np.unique would import numpy.ma
        members = np.flatnonzero(lengths == n)
        members = members[np.argsort(starts[members], kind="stable")]
        bounds = np.flatnonzero(np.diff(starts[members], prepend=-1, append=-1))
        shared = np.diff(bounds) * n * stream.d * 8 > _STACK_BYTES
        for a, b in zip(bounds[:-1][shared].tolist(), bounds[1:][shared].tolist()):
            start = int(starts[members[a]])
            _score(out, members[a:b], models[which[members[a:b]]],
                   stream.slice(start, start + n - 1), False)
        rest = np.sort(members[~np.repeat(shared, np.diff(bounds))])
        model_bytes = (n * (stream.d + stream.k) + stream.k * stream.d) * 8
        per_chunk = max(1, _STACK_BYTES // model_bytes)
        for chunk in (rest[i : i + per_chunk] for i in range(0, len(rest), per_chunk)):
            if len(chunk) == 1:
                start = int(starts[chunk[0]])
                data = stream.slice(start, start + n - 1)
            else:
                rows = (starts[chunk, None] + np.arange(n)).ravel()
                data = Dataset(stream.X[rows], stream.y[rows], stream.k)
            _score(out, chunk, models[which[chunk]], data, True)
    return out


def _score(out: list, at, models, data: Dataset, per_model: bool):
    """Set out[at[r]] to the accuracy of models[r] (`evaluate_accuracy`)."""
    for r, acc in zip(at.tolist(), evaluate_accuracy(models, data, per_model).tolist()):
        out[r] = acc


def accuracy_quartiles(records):
    """The quartiles of the seeds' final acc_test: each seed's acc_test at
    its last release scored on a test set."""
    final = {}
    for r in records:
        if r.acc_test is not None:
            final[r.seed] = r.acc_test  # records are in (seed, t) order; last write wins
    if not final:
        raise HarnessError("no evaluated releases to aggregate")
    q25, q50, q75 = np.percentile(list(final.values()), [25, 50, 75])
    return float(q25), float(q50), float(q75)


CSV_HEADER = (
    "t,scheduler,kind,eps,lambda,batch,acc_recent,acc_test,acc_old,"
    "noise_l2,eps_max_num,eps_max_den,seed"
)
_COLUMNS = CSV_HEADER.split(",")


def _record_row(r: MetricsRecord) -> dict:
    """A record's value in each CSV_HEADER column, in that order: eps_max
    as its exact numerator and denominator."""
    return dict(zip(_COLUMNS, (
        r.t, r.scheduler, r.kind, r.eps, r.lam, r.batch, r.acc_recent, r.acc_test, r.acc_old,
        r.noise_l2, r.eps_max.numerator, r.eps_max.denominator, r.seed)))


def export_metrics(records, path, format: str = "csv"):
    """Write records as CSV (fixed column order; a float as its repr, None
    as an empty cell) or JSONL (round-trippable), one `_record_row` each."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            writer.writerows(["" if v is None else repr(v) if isinstance(v, float) else v
                              for v in _record_row(r).values()] for r in records)
    elif format == "jsonl":
        with open(path, "w") as fh:
            fh.writelines(json.dumps(_record_row(r)) + "\n" for r in records)
    else:
        raise HarnessError(f"unknown metrics format {format!r}")
