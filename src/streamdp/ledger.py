"""Exact per-datapoint privacy accounting.

Every release charges an inclusive interval of stream indices with an exact
rational epsilon. A `Ledger` stores its charges as parallel integer columns,
each holding exactly the charges so far (`Ledger.extend` concatenates new
ones): the interval bounds a and b, the time, a subsystem code, a mechanism
code, and each charge's numerator over one common denominator, the LCM of
the charges' denominators. Subsystem and mechanism names are interned, each
code indexing the names charged so far in first-charge order. The
numerators, and the sums a sweep forms of them, are int64 while a checked
bound keeps them in range and Python ints otherwise, in the same code. The
columns are the only form of the charges: `Ledger.column` reads one. The
ledger holds no schedule policy: its budgets are its caller's
(`schedulers.schedule_budgets`), one per subsystem.

Points between two consecutive distinct boundaries (the values of a and
b + 1) always share their total, so every maximum works on these segments,
in O(charges) memory rather than O(stream). A ledger forms the segments of
all its charges once. `Ledger.max_point_loss` (and `assert_budget`, one call
per subsystem) sweeps them once: each charge adds its numerator at its first
segment and takes it off past its last, and a cumulative sum gives every
segment's total. `Ledger.running_max` expands each charge over its segments,
takes each segment's prefix sums in time order and reads, at each queried
time, the largest total so far. A bound b must stay below 2**63 - 1, so that
b + 1 is an int64 too. A Fraction is formed only for a result, so the
geometric-series budget assertions are exact rather than float-tolerant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)


class LedgerError(ValueError):
    pass


def _ints(values, what: str) -> np.ndarray:
    """values, a sequence of integers, as int64, or as Python ints if one
    does not fit."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise LedgerError(f"{what} must be integers")
    if arr.dtype.kind == "i" or arr.size == 0:
        return arr.astype(np.int64, copy=False)
    items = arr.tolist()
    if not all(isinstance(v, int) for v in items):
        raise LedgerError(f"{what} must be integers")
    return np.array(items, dtype=object)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for nonnegative x and y, exact: in int64 when the product of the
    largest values fits, else in Python ints."""
    if (x.dtype != object and y.dtype != object
            and int(x.max(initial=0)) * int(y.max(initial=0)) <= _INT64_MAX):
        return x * y
    return x.astype(object) * y.astype(object)


def _summable(nums: np.ndarray) -> np.ndarray:
    """nonnegative nums, as Python ints if a sum of them could leave int64."""
    if nums.dtype != object and int(nums.max(initial=0)) * len(nums) > _INT64_MAX:
        return nums.astype(object)
    return nums


def _sweep(lo, hi, nums, size: int) -> np.ndarray:
    """Per-segment totals of charges over `size` segments, charge i adding
    nums[i] to segments lo[i] .. hi[i] - 1: the cumulative sum of each
    charge's +nums[i] at lo[i] and -nums[i] at hi[i]."""
    nums = _summable(nums)
    deltas = np.zeros(size + 1, dtype=nums.dtype)
    np.add.at(deltas, lo, nums)
    np.add.at(deltas, hi, -nums)
    return deltas[:-1].cumsum()


@dataclass(frozen=True)
class BudgetEntry:
    subsystem: str
    budget: Fraction
    max_eps: Fraction
    witness: int | None
    ok: bool


@dataclass(frozen=True)
class BudgetReport:
    entries: tuple[BudgetEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


# A Ledger's integer columns, the rows of one (5, charges) int64 array:
# interval bounds, time, subsystem code and mechanism code. Each charge's
# numerator over the common denominator is a column of its own ("num"),
# which holds Python ints past a checked bound.
_COLUMNS = ("a", "b", "time", "sub", "mech")


class Ledger:
    """Append-only charge log with per-subsystem rational budgets.

    The charges live in `_COLUMNS` and "num" (read with `column`), arrays
    of one entry a charge, which `extend` replaces by longer ones; `den` is
    the common denominator of "num", and `subsystems` and `mechanisms` name
    the "sub" and "mech" codes.
    """

    def __init__(self, budgets: dict | None = None):
        self.budgets = {} if budgets is None else budgets
        self.den = 1
        self.subsystems: list[str] = []
        self.mechanisms: list[str] = []
        self._rows = np.zeros((len(_COLUMNS), 0), dtype=np.int64)
        self._num = np.zeros(0, dtype=np.int64)
        self._segs = None  # _segmented's arrays, until the next extend

    def column(self, name: str) -> np.ndarray:
        """The charges' values of "num" or one of `_COLUMNS`."""
        if name == "num":
            return self._num
        return self._rows[_COLUMNS.index(name)]

    def charge(self, interval, eps: Fraction, subsystem: str, time: int, mechanism: str):
        a, b = interval
        eps = Fraction(eps)
        self.extend([a], [b], [eps.numerator], [eps.denominator], [subsystem], [time],
                    [mechanism])

    def extend(self, a, b, eps_num, eps_den, subsystems, times, mechanisms):
        """Append charges given as parallel sequences or arrays, charge i being
        eps_num[i] / eps_den[i] on [a[i], b[i]]; raises LedgerError, appending
        nothing, if one is malformed or not positive."""
        names = {s: i for i, s in enumerate(self.subsystems)}
        index = {m: i for i, m in enumerate(self.mechanisms)}
        rows = np.asarray((a, b, times, [names.setdefault(s, len(names)) for s in subsystems],
                           [index.setdefault(m, len(index)) for m in mechanisms]))
        # b + 1, a segment boundary, must stay in the int64 range as well
        if rows.ndim != 2 or rows.size and (rows.dtype.kind != "i" or rows[1].max() == _INT64_MAX):
            raise LedgerError("interval bounds and times must be integers in the int64 range, "
                              f"b below {_INT64_MAX}")
        num, den = (_ints(v, "charges") for v in (eps_num, eps_den))
        bad = (rows[0] > rows[1]).nonzero()[0]
        if bad.size:
            raise LedgerError(f"interval [{rows[0, bad[0]]}, {rows[1, bad[0]]}] is malformed")
        if not (den > 0).all():
            raise LedgerError("charge denominators must be positive")
        bad = (num <= 0).nonzero()[0]
        if bad.size:
            eps = Fraction(int(num[bad[0]]), int(den[bad[0]]))
            raise LedgerError(f"charge must be positive, got {eps}")

        common = math.lcm(self.den, *set(den.tolist()))
        num = _product(num, common // den if common <= _INT64_MAX
                       else np.full(len(den), common, dtype=object) // den.astype(object))
        old = self._num
        if common != self.den:
            old = _product(old, np.array([common // self.den]))
        self._rows = np.concatenate((self._rows, rows.astype(np.int64, copy=False)), axis=1)
        self._num = np.concatenate((old, num))
        self.subsystems, self.mechanisms = list(names), list(index)
        self.den = common
        self._segs = None

    def _segmented(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct boundaries (values of a and b + 1) and each charge's segments
        lo .. hi - 1 between them, formed once: a selection's are unions of these."""
        if self._segs is None:
            a, b = self.column("a"), self.column("b")
            bounds, segs = np.unique(np.concatenate((a, b + 1)), return_inverse=True)
            self._segs = bounds, segs[: len(a)], segs[len(a) :]
        return self._segs

    def max_point_loss(self, subsystems=None) -> tuple[int | None, Fraction]:
        """Maximum cumulative charge over all touched indices, by one sweep.

        Returns (witness index, exact total), the witness being the first
        index where the maximum is reached; (None, 0) for no charges.
        """
        if subsystems is None:
            subsystems = self.subsystems
        elif isinstance(subsystems, str):
            subsystems = (subsystems,)
        picked = np.array([s in subsystems for s in self.subsystems], dtype=bool)[self.column("sub")]
        num = self.column("num")[picked]
        if not len(num):
            return None, Fraction(0)
        bounds, lo, hi = self._segmented()
        totals = _sweep(lo[picked], hi[picked], num, len(bounds))
        seg = int(totals.argmax())
        return int(bounds[seg]), Fraction(int(totals[seg]), self.den)

    def running_max(self, times) -> list[Fraction]:
        """The exact maximum per-point loss over the charges with time <= t,
        for each t in times, in the order given; the times may repeat and
        come in any order, and before the first charge the maximum is 0.
        Charges are positive, so a segment's total only grows, and the maximum
        after a charge is the larger of the maximum before it and the totals
        it leaves on its own segments."""
        _, lo, hi = self._segmented()
        # the charges in time order
        order = self.column("time").argsort(kind="stable")
        charge_time, lo, hi = self.column("time")[order], lo[order], hi[order]
        # each charge expanded over its segments lo .. hi - 1, charge by charge;
        # `first` is each charge's first entry
        counts = hi - lo
        first = counts.cumsum() - counts
        entry_seg = np.arange(counts.sum()) + np.repeat(lo - first, counts)
        entry_num = _summable(np.repeat(self.column("num")[order], counts))
        # the entries grouped by segment, each segment's in time order
        by_seg = entry_seg.argsort(kind="stable")
        seg_sorted, num_sorted = entry_seg[by_seg], entry_num[by_seg]
        # each segment's prefix sums: the running sum of all entries, less
        # its value before the segment's first entry
        running = num_sorted.cumsum()
        seg_start = np.flatnonzero(np.diff(seg_sorted, prepend=-1))
        seg_size = np.diff(seg_start, append=len(seg_sorted))
        before = np.repeat(running[seg_start] - num_sorted[seg_start], seg_size)
        totals = np.empty_like(running)
        totals[by_seg] = running - before
        # the largest total each charge leaves, then the maximum up to each charge
        charge_best = np.maximum.reduceat(totals, first)
        best_after = np.maximum.accumulate(charge_best)
        # at t, the maximum after the last charge with time <= t, 0 before any
        charged = charge_time.searchsorted(times, side="right")
        best_at = np.concatenate((np.zeros(1, dtype=best_after.dtype), best_after))[charged]
        eps = {num: Fraction(num, self.den) for num in set(best_at.tolist())}
        return [eps[num] for num in best_at.tolist()]

    def assert_budget(self) -> BudgetReport:
        """Per-subsystem pass/fail with the witness point of maximal loss, for
        the subsystems charged, in first-charge order, then the other budgeted
        ones. A subsystem with charges but no budget is a violation: nothing
        bounds what it may charge. No entry combines subsystems: within their
        budgets, a point's total (`max_point_loss()`) is within their sum."""
        entries = []
        for sub in dict.fromkeys([*self.subsystems, *self.budgets]):
            budget = self.budgets.get(sub)
            witness, mx = self.max_point_loss(sub)
            entries.append(BudgetEntry(sub, budget, mx, witness, budget is not None and mx <= budget))
        return BudgetReport(tuple(entries))

    def export_jsonl(self, path):
        """Write one JSON object a charge, its eps in lowest terms, all lines in
        one call."""
        num = self.column("num")
        den = np.full(len(num), self.den, dtype=num.dtype if self.den <= _INT64_MAX else object)
        gcd = np.gcd(num, den)
        names = [json.dumps(s) for s in self.subsystems]
        mechs = [json.dumps(m) for m in self.mechanisms]
        rows = zip(*(self.column(name).tolist() for name in ("time", "a", "b", "sub", "mech")),
                   (num // gcd).tolist(), (den // gcd).tolist())
        with open(path, "w") as fh:
            fh.write("".join(
                f'{{"t": {t}, "a": {a}, "b": {b}, "eps_num": {n}, "eps_den": {d}, '
                f'"subsystem": {names[s]}, "mechanism": {mechs[m]}}}\n'
                for t, a, b, s, m, n, d in rows
            ))

