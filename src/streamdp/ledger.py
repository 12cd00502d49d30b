"""Exact per-datapoint privacy accounting.

Every release charges an inclusive interval of stream indices with an exact
rational epsilon. A `Ledger` stores its charges as parallel integer columns:
the interval bounds a and b, the time, a subsystem code, a mechanism code,
and each charge's numerator over one common denominator, the LCM of the
charges' denominators. Subsystem and mechanism names are interned, each
code indexing the names charged so far in first-charge order. The
numerators, and the sums a sweep forms of them, are int64 while a checked
bound keeps them in range and Python ints otherwise, in the same code. A
`Charge` is a plain record of one row: `Ledger.charges` builds them on
demand and `Ledger(charges=...)` takes them, checked like any charge. The
ledger holds no schedule policy: its budgets are its caller's
(`schedulers.schedule_budgets`), one per subsystem.

Points between two consecutive distinct boundaries (the values of a and
b + 1) always share their total, so every maximum works on these segments,
in O(charges) memory rather than O(stream). A ledger forms the segments of
all its charges once. `Ledger.max_point_loss` (and `assert_budget`, one call
per subsystem) sweeps them once: each charge adds its numerator at its first
segment and takes it off past its last, and a cumulative sum gives every
segment's total. `RunningMax` adds the charges in time order to a list of
the same segments' totals, one slice at a time, to keep the largest total
after each step. A bound b must stay below 2**63 - 1, so that b + 1 is an
int64 too. A Fraction is formed only for a result, so the geometric-series
budget assertions are exact rather than float-tolerant.
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


@dataclass(frozen=True)
class Charge:
    a: int
    b: int
    eps: Fraction
    subsystem: str
    time: int
    mechanism: str


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


def _sweep(lo, hi, nums, size: int) -> np.ndarray:
    """Per-segment totals of charges over `size` segments, charge i adding
    nums[i] to segments lo[i] .. hi[i] - 1: the cumulative sum of each
    charge's +nums[i] at lo[i] and -nums[i] at hi[i]."""
    if nums.dtype != object and int(nums.max(initial=0)) * len(nums) > _INT64_MAX:
        nums = nums.astype(object)  # a sum of the numerators could leave int64
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


# A Ledger's integer columns, the rows of one (5, capacity) int64 array:
# interval bounds, time, subsystem code and mechanism code. Each charge's
# numerator over the common denominator is a column of its own ("num"),
# which holds Python ints past a checked bound.
_COLUMNS = ("a", "b", "time", "sub", "mech")


class Ledger:
    """Append-only charge log with per-subsystem rational budgets.

    The charges live in `_COLUMNS` and "num" (read with `column`), arrays
    with room to grow by doubling; `den` is the common denominator of
    "num", and `subsystems` and `mechanisms` name the "sub" and "mech" codes.
    """

    def __init__(self, budgets: dict | None = None, charges=()):
        self.budgets = {} if budgets is None else budgets
        self.den = 1
        self.subsystems: list[str] = []
        self.mechanisms: list[str] = []
        self._n = 0
        self._rows = np.zeros((len(_COLUMNS), 0), dtype=np.int64)
        self._num = np.zeros(0, dtype=np.int64)
        self._segs = None  # _segmented's arrays, until the next extend
        charges = list(charges)
        if charges:
            self.extend([c.a for c in charges], [c.b for c in charges],
                        [c.eps.numerator for c in charges], [c.eps.denominator for c in charges],
                        [c.subsystem for c in charges], [c.time for c in charges],
                        [c.mechanism for c in charges])

    def column(self, name: str) -> np.ndarray:
        """The live charges' values of "num" or one of `_COLUMNS`."""
        if name == "num":
            return self._num[: self._n]
        return self._rows[_COLUMNS.index(name), : self._n]

    @property
    def charges(self) -> list[Charge]:
        """The charges as records, in charge order, built on each access."""
        rows = zip(*self._rows[:, : self._n].tolist(), self.column("num").tolist())
        return [Charge(a, b, Fraction(num, self.den), self.subsystems[sub], time,
                       self.mechanisms[mech])
                for a, b, time, sub, mech, num in rows]

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
        n, m = self._n, len(num)
        old = self.column("num")
        if n and common != self.den:
            old = _product(old, np.array([common // self.den]))
        wide = object if object in (old.dtype, num.dtype) else np.int64
        if n + m > len(self._num) or self._num.dtype != wide:
            # room for as many charges again, so that single charges append in
            # amortised constant time
            self._rows = np.concatenate((self._rows[:, :n], rows, np.zeros((len(_COLUMNS), n),
                                                                           dtype=np.int64)), axis=1)
            self._num = np.concatenate((old, num, np.zeros(n, dtype=wide)))
        else:
            self._rows[:, n : n + m] = rows
            if n and common != self.den:
                self._num[:n] = old
            self._num[n : n + m] = num
        self.subsystems, self.mechanisms = list(names), list(index)
        self.den, self._n = common, n + m
        self._segs = None

    def _segmented(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct boundaries (values of a and b + 1) and each charge's segments
        lo .. hi - 1 between them, formed once: a selection's are unions of these."""
        if self._segs is None:
            a, b = self.column("a"), self.column("b")
            bounds, segs = np.unique(np.concatenate((a, b + 1)), return_inverse=True)
            self._segs = bounds, segs[: len(a)], segs[len(a) :]
        return self._segs

    def _picked(self, subsystems) -> np.ndarray:
        """Which charges a max_point_loss or point_loss argument selects:
        None for all subsystems, a name or a sequence of names."""
        if subsystems is None:
            subsystems = self.subsystems
        elif isinstance(subsystems, str):
            subsystems = (subsystems,)
        return np.array([s in subsystems for s in self.subsystems], dtype=bool)[self.column("sub")]

    def point_loss(self, index: int, subsystems=None) -> Fraction:
        hit = self._picked(subsystems) & (self.column("a") <= index) & (index <= self.column("b"))
        return Fraction(sum(self.column("num")[hit].tolist()), self.den)

    def max_point_loss(self, subsystems=None) -> tuple[int | None, Fraction]:
        """Maximum cumulative charge over all touched indices, by one sweep.

        Returns (witness index, exact total), the witness being the first
        index where the maximum is reached; (None, 0) for no charges.
        """
        picked = self._picked(subsystems)
        num = self.column("num")[picked]
        if not len(num):
            return None, Fraction(0)
        bounds, lo, hi = self._segmented()
        totals = _sweep(lo[picked], hi[picked], num, len(bounds))
        seg = int(totals.argmax())
        return int(bounds[seg]), Fraction(int(totals[seg]), self.den)

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
        """Write one JSON object a charge, its eps in lowest terms."""
        num = self.column("num")
        den = np.full(len(num), self.den, dtype=num.dtype if self.den <= _INT64_MAX else object)
        gcd = np.gcd(num, den)
        names = [json.dumps(s) for s in self.subsystems]
        mechs = [json.dumps(m) for m in self.mechanisms]
        rows = zip(*(self.column(name).tolist() for name in ("time", "a", "b", "sub", "mech")),
                   (num // gcd).tolist(), (den // gcd).tolist())
        with open(path, "w") as fh:
            fh.writelines(
                f'{{"t": {t}, "a": {a}, "b": {b}, "eps_num": {n}, "eps_den": {d}, '
                f'"subsystem": {names[s]}, "mechanism": {mechs[m]}}}\n'
                for t, a, b, s, m, n, d in rows
            )


class RunningMax:
    """Exact maximum per-point loss over a ledger's charges with time <= t.

    Charges are positive, so per-point totals only grow and the maximum is
    monotone in t. Each charge, taken in time order, adds its numerator to
    its slice of the ledger's segment totals (see `Ledger._segmented`), Python ints,
    and folds that slice's maximum into the best so far; the total work is
    the sum of the charges' segment counts. Charges added to the ledger
    afterwards do not reach it. `at` is meant for non-decreasing t: a
    smaller t than one already seen returns the maximum at the largest t seen.
    """

    def __init__(self, ledger: Ledger):
        order = ledger.column("time").argsort(kind="stable")
        bounds, lo, hi = ledger._segmented()
        cols = (ledger.column("time"), lo, hi, ledger.column("num"))
        self._charges = list(zip(*(col[order].tolist() for col in cols)))
        self._totals = [0] * len(bounds)
        self._den = ledger.den
        self._pos = 0
        self._best, self._eps = 0, Fraction(0)

    def at(self, t: int) -> Fraction:
        charges, totals, pos, best = self._charges, self._totals, self._pos, self._best
        while pos < len(charges) and charges[pos][0] <= t:
            _, lo, hi, num = charges[pos]
            totals[lo:hi] = seg = [total + num for total in totals[lo:hi]]
            best = max(best, max(seg))
            pos += 1
        if best != self._best:
            self._eps = Fraction(best, self._den)
        self._pos, self._best = pos, best
        return self._eps
