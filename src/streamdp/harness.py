"""Data ingestion, synthetic drift streams, experiment replay and metrics.

Streams come from IDX image/label files, numeric CSV, or a synthetic
rotating-means generator. `replay` feeds a stream through a release schedule,
evaluates every released model on recent, held-out and older data (as
stacks of models, in tiles and chunks), and emits flat metric records, whose
scheduler, eps, lambda and batch are the schedule's config's, that export
to CSV or JSONL.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .erm import Dataset, evaluate_accuracy
from .ledger import Ledger
from .rng import make_rng
from .schedulers import _STACK_BYTES, KINDS, Schedule, execute

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
    X = np.divide(pixels.reshape(n_img, rows * cols), 255.0, dtype=np.float64)
    y = labels.astype(np.int64)
    if classes is None:
        return Dataset(X, y, int(y.max()) + 1 if n_lab else 0)
    return Dataset(X, _class_indices(labels_path, y, classes, 1), len(classes), classes)


def load_csv(path, classes=None) -> Dataset:
    """Numeric CSV, last column an integral label; header auto-detected.

    A non-numeric first cell in the first non-empty row marks a header; a
    UTF-8 byte-order mark is not part of it. Blank lines are skipped, and
    errors name the row counting non-empty rows from 1, the header
    included. A label must not exceed 2^53 - 1 in magnitude, as past it
    distinct integers read as one float. Labels are indexed among the
    file's own distinct values, in increasing order, or given `classes`,
    the label values of another dataset (a test set's stream), among those
    (`_class_indices`). The path is opened once: a pipe is read into
    memory once, a regular file in blocks. Any header the csv module reads
    takes the fast path (`_parse_plain_csv` from the byte after it).
    """
    with open(path, "rb") as fh:
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        start = 3 if fh.read(3) == codecs.BOM_UTF8 else 0
        fh.seek(start)
        lines = []  # what the csv module reads, each line with its own ending
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        try:
            first = next((r for r in csv.reader(lines.append(s) or s for s in text) if r), None)
        except UnicodeDecodeError as exc:  # past the first read, np.loadtxt's ValueError below
            raise HarnessError(f"{path}: {exc}") from exc
        text.detach()
        if first is None:
            raise HarnessError(f"{path}: empty file")
        try:
            float(first[0])
            header, lines = 0, []  # no header: the data start after the byte-order mark
        except ValueError:
            header = 1  # the header row, after the blank lines before it
        mat = _parse_plain_csv(fh, start + sum(len(s.encode()) for s in lines))
        if mat is None:  # not plain, or no x87 long double: np.loadtxt parses and reports
            fh.seek(0)
            try:
                with warnings.catch_warnings(), io.TextIOWrapper(fh, encoding="utf-8-sig") as text:
                    warnings.simplefilter("ignore", UserWarning)  # a header with no data rows
                    mat = np.loadtxt(text, delimiter=",", ndmin=2, skiprows=len(lines),
                                     comments=None, quotechar='"')
            except ValueError as exc:
                raise _csv_parse_error(path, str(exc), header) from exc
    if mat.shape[0] == 0 or mat.shape[1] < 2:
        raise HarnessError(f"{path}: need at least one data row with features and a label")
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise HarnessError(f"{path}: non-finite cell in row {bad + header + 1}")
    raw_labels = mat[:, -1]
    if not np.all(raw_labels == np.round(raw_labels)):
        bad = int(np.argmax(raw_labels != np.round(raw_labels)))
        raise HarnessError(f"{path}: non-integral label in row {bad + header + 1}")
    # 2^53 + 1 reads as 2^53, and 1e19 and 2e19 cast to one int64
    outside = np.abs(raw_labels) >= 2.0 ** 53
    if outside.any():
        bad = int(np.argmax(outside))
        raise HarnessError(f"{path}: label in row {bad + header + 1} exceeds 2^53 - 1 "
                           "in magnitude")
    raw_labels = raw_labels.astype(np.int64)
    if classes is None:
        classes, y = np.unique(raw_labels, return_inverse=True)
    else:
        y = _class_indices(path, raw_labels, classes, header + 1)
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


def _csv_parse_error(path, msg: str, header: int) -> HarnessError:
    """The loader's error for numpy's parse error `msg`, with the row renumbered.

    numpy counts data rows after the skipped header, leaving out blank
    lines: a ragged row from 1, a bad cell from 0.
    """
    ragged = re.search(r"changed from (\d+) to (\d+) at row (\d+)", msg)
    if ragged:
        width, cells, row = map(int, ragged.groups())
        return HarnessError(
            f"{path}: ragged row {row + header}: {cells} cells, expected {width}")
    cell = re.search(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)", msg)
    if cell:
        value, row, col = cell.group(1), int(cell.group(2)), int(cell.group(3))
        return HarnessError(
            f"{path}: non-numeric cell in row {row + header + 1}, column {col}: {value}")
    return HarnessError(f"{path}: {msg}")


# bytes parsed at a time: a block's copies stay under glibc's 128 KiB mmap
# threshold, which 1 MiB blocks raised, adding 12 MB to continual-d20's peak RSS
_CSV_BLOCK = 1 << 16
_POW10 = np.cumprod(np.r_[1, np.full(28, 10)].astype(np.longdouble))  # exact to 10^27
_NUMBER = re.compile(rb"-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_INT64 = np.iinfo(np.int64)


def _plain_csv_exact() -> bool:
    """Whether `_parse_block`'s arithmetic holds on this platform: long
    double is x87's, its 64-bit significand first in 16 little-endian
    bytes, and numpy's int64 text parse saturates on overflow."""
    if (np.finfo(np.longdouble).nmant != 63 or np.dtype(np.longdouble).itemsize != 16
            or sys.byteorder != "little"):
        return False
    big = np.fromstring(b"99999999999999999999,-99999999999999999999", dtype=np.int64, sep=",")
    return bool(np.isin(big, [_INT64.min, _INT64.max]).all())


_PLAIN_CSV = _plain_csv_exact()


def _parse_plain_csv(fh, start: int) -> np.ndarray | None:
    """`np.loadtxt`'s matrix for the binary handle fh's lines from byte
    `start`, in about half its time; None unless each line holds the first
    one's number of plain decimal cells (`_parse_block`). A first pass
    counts the lines, so that one matrix of the right size is filled and
    no more than a block's copies are alive."""
    if not _PLAIN_CSV:
        return None
    fh.seek(start)
    first = fh.readline()
    ncol, rows, last = first.count(b",") + 1, first.count(b"\n"), first[-1:]
    while block := fh.read(_CSV_BLOCK):
        rows, last = rows + block.count(b"\n"), block[-1:]
    rows += last not in (b"", b"\n")  # a last line with no newline
    if not rows:
        return None
    out = np.empty((rows, ncol))
    done, pending = 0, b""
    fh.seek(start)
    while True:
        more = fh.read(_CSV_BLOCK)
        pending += more
        if not more and pending and not pending.endswith(b"\n"):
            pending += b"\n"  # the last line's
        cut = pending.rfind(b"\n") + 1
        if cut:
            part = _parse_block(pending[:cut], ncol)
            if part is None or done + len(part) > rows:
                return None
            out[done:done + len(part)] = part
            done += len(part)
            pending = pending[cut:]
        if not more:
            return out if done == rows else None


def _parse_block(block: bytes, ncol: int) -> np.ndarray | None:
    """The (rows, ncol) float64 matrix of whole lines, each ending in a
    newline; None unless every cell is `-?digits*.?digits*` with a digit,
    or that in exponent notation.

    A cell reads as m / 10^f: m the integer of its digits, parsed by numpy
    in C, and f its digits after the dot. For m below 2^63 and f up to 27
    both are exact in x87 long double, so the quotient is rounded once, to
    64 bits, and rounding that to a double gives `float`'s correctly
    rounded value unless it lies on a midpoint between two doubles. Such
    cells, longer ones and cells in exponent notation (rare in a %.17g
    file) are parsed by `float`.
    """
    exps = []
    for char in b"eE":
        at = block.find(char)
        while at >= 0:
            exps.append(at)
            at = block.find(char, at + 1)
    if len(exps) * 512 > len(block):
        return None  # much exponent notation: np.loadtxt is faster
    text = block
    if exps:  # zeroed here, parsed by float below
        zeroed = bytearray(block)
        for at in exps:
            lo = max(block.rfind(b",", 0, at), block.rfind(b"\n", 0, at)) + 1
            hi = min(i for i in (block.find(b",", at), block.find(b"\n", at)) if i >= 0)
            zeroed[lo:hi] = b"0" * (hi - lo)
        text = bytes(zeroed)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1 warns and stops at text it cannot parse
            m = np.fromstring(text.replace(b".", b"").replace(b"\n", b","), dtype=np.int64,
                              sep=",")
    except (ValueError, DeprecationWarning):
        return None
    # every newline, comma and dot; a blank, NUL or plus there is one more
    # separator than numpy's cells
    chars = np.frombuffer(text, np.uint8)
    at = np.flatnonzero((chars < 48) & (chars != 45))
    kind = chars[at]
    dot = np.flatnonzero(kind == 46)
    n = at.size - dot.size  # one separator per cell
    newline = np.flatnonzero(kind == 10)
    if (m.size != n or newline.size * ncol != n
            or (kind[dot + 1] == 46).any() or (chars[at[dot] + 1] == 45).any()
            or not np.array_equal(newline + 1 - np.searchsorted(dot, newline),
                                  np.arange(ncol, n + 1, ncol))):
        return None  # that, a ragged line, two dots in a cell or a minus after a dot
    dotted = dot - np.arange(dot.size)  # the cell of each dot

    def span(cells):
        """The first byte of each cell and the separator after it."""
        sep = at[cells + np.searchsorted(dotted, cells, side="right")]
        prev = at[np.maximum(cells - 1, 0) + np.searchsorted(dotted, cells - 1, side="right")]
        return np.where(cells > 0, prev + 1, 0), sep

    places = np.zeros(n, np.uint8)
    places[dotted] = np.minimum(at[dot + 1] - at[dot] - 1, 28)
    x = m.astype(np.longdouble) / _POW10[places]
    out = x.astype(np.float64)
    zero = np.flatnonzero(m == 0)
    lo, hi = span(zero)
    minus = chars[lo] == 45
    if (minus & ((hi - lo == 1) | (hi - lo == 2) & (chars[lo + 1] == 46))).any():
        return None  # "-" or "-.", which numpy reads as 0
    out[zero[minus]] = -0.0
    redo = ((m == _INT64.max) | (m == _INT64.min) | (places > 27)
            | (x.view(np.uint64)[::2] & np.uint64(0x7FF) == np.uint64(0x400)))
    redo = np.flatnonzero(redo)
    if exps:
        before = np.searchsorted(at, exps)
        redo = np.union1d(redo, before - np.searchsorted(at[dot], exps))
    for i, lo, hi in zip(redo.tolist(), *(side.tolist() for side in span(redo))):
        cell = block[lo:hi]
        if not _NUMBER.fullmatch(cell):
            return None
        out[i] = float(cell)
    return out.reshape(-1, ncol)


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
    model's own evaluation. eps_max, the same for every seed, is the exact
    maximum per-point loss over the charges up to the release step, from
    one `Ledger.running_max` query; non-private, nothing is charged and it
    is 0.
    """
    s, cfg = schedule, schedule.config
    batch = cfg.batch
    run = execute(schedule, stream, nonprivate=nonprivate, seeds=seeds)
    # a release reads the kind of its model's last event at its step (an
    # adopted continual base's, not its multires model's), "release" without
    # one, and starts where its model's last event does
    stride = int(s.t.max(initial=0)) + 1
    event = _last(s.model_id * stride + s.t, s.release_mid * stride + s.release_t)
    kinds = np.array([*KINDS, "release"], dtype=object)[np.where(event < 0, -1, s.kind[event])]
    starts = s.a[_last(s.model_id, s.release_mid)]
    steps, mids = s.release_t, s.release_mid
    # every seed's releases but its skipped models, seed-major, each seed's in time order
    seat, which = np.nonzero(~run.skip[:, mids])
    steps, mids, kinds, starts = steps[which], mids[which], kinds[which].tolist(), starts[which]
    eps_max = (Ledger() if nonprivate else ledger).running_max(steps)
    models = run.weights[seat, mids]
    noise_l2 = run.noise_l2[seat, mids].tolist()
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
        kind=kinds[r],
        eps=eps,
        lam=cfg.lam,
        batch=batch,
        acc_recent=acc_recent[r],
        acc_test=acc_test[r],
        acc_old=acc_old[r],
        noise_l2=noise_l2[r],
        eps_max=eps_max[r],
        seed=seeds[i],
    ) for r, (i, t) in enumerate(zip(seat.tolist(), steps.tolist()))]


def _last(keys, queries) -> np.ndarray:
    """The place of the last entry of keys equal to each query, -1 for none."""
    order = np.argsort(keys, kind="stable")
    at = order[np.maximum(np.searchsorted(keys, queries, side="right", sorter=order) - 1, 0)]
    return np.where(keys[at] == queries, at, -1)


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


def _record_row(r: MetricsRecord) -> tuple:
    """A record's values in CSV_HEADER's column order: eps_max as its exact
    numerator and denominator."""
    return (r.t, r.scheduler, r.kind, r.eps, r.lam, r.batch, r.acc_recent, r.acc_test, r.acc_old,
            r.noise_l2, r.eps_max.numerator, r.eps_max.denominator, r.seed)


def export_metrics(records, path, format: str = "csv"):
    """Write records, one `_record_row` each, as CSV or JSONL.

    CSV has the fixed column order, and `csv.writer` writes each row's
    tuple as it is: a float as its repr, None as an empty cell, and a cell
    quoted where it needs to be. JSONL (round-trippable) is one object a
    line, the row's values keyed by their columns."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            writer.writerows(map(_record_row, records))
    elif format == "jsonl":
        with open(path, "w") as fh:
            fh.writelines(json.dumps(dict(zip(_COLUMNS, _record_row(r)))) + "\n" for r in records)
    else:
        raise HarnessError(f"unknown metrics format {format!r}")
