"""Exact per-datapoint privacy accounting.

Every release charges an inclusive interval of stream indices with an exact
rational epsilon, stored as a Fraction. Per-point totals and maxima are
summed as integer numerators over the charges' common denominator, and a
Fraction is formed only for the result, so the geometric-series budget
assertions are exact rather than float-tolerant. `Ledger.max_point_loss`
sweeps all charges at once; `RunningMax` keeps the maximum up to each release
step as charges arrive in time order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

SUBSYSTEMS = ("multires", "continual", "sliding", "baseline")


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

    def __post_init__(self):
        if self.a > self.b:
            raise LedgerError(f"interval [{self.a}, {self.b}] is malformed")
        if self.eps <= 0:
            raise LedgerError(f"charge must be positive, got {self.eps}")
        if self.subsystem not in SUBSYSTEMS:
            raise LedgerError(f"unknown subsystem {self.subsystem!r}")


def _over_common_denominator(charges) -> tuple[int, list[int]]:
    """The LCM of the charges' denominators and each charge's numerator over it."""
    den = math.lcm(*{c.eps.denominator for c in charges})
    return den, [c.eps.numerator * (den // c.eps.denominator) for c in charges]


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


@dataclass
class Ledger:
    """Append-only charge log with per-subsystem rational budgets."""

    budgets: dict[str, Fraction] = field(default_factory=dict)
    charges: list[Charge] = field(default_factory=list)

    def charge(self, interval, eps: Fraction, subsystem: str, time: int, mechanism: str):
        a, b = interval
        self.charges.append(Charge(a, b, Fraction(eps), subsystem, time, mechanism))

    def point_loss(self, index: int, subsystems=None) -> Fraction:
        total = Fraction(0)
        for c in self._selected(subsystems):
            if c.a <= index <= c.b:
                total += c.eps
        return total

    def _selected(self, subsystems):
        if subsystems is None:
            return self.charges
        if isinstance(subsystems, str):
            subsystems = (subsystems,)
        return [c for c in self.charges if c.subsystem in subsystems]

    def max_point_loss(self, subsystems=None) -> tuple[int | None, Fraction]:
        """Maximum cumulative charge over all touched indices, by interval sweep.

        Returns (witness index, exact total), the witness being the first
        index where the maximum is reached; (None, 0) for no charges.
        """
        charges = self._selected(subsystems)
        if not charges:
            return None, Fraction(0)
        den, nums = _over_common_denominator(charges)
        deltas: dict[int, int] = {}
        for c, num in zip(charges, nums):
            deltas[c.a] = deltas.get(c.a, 0) + num
            deltas[c.b + 1] = deltas.get(c.b + 1, 0) - num
        best_idx, best = None, 0
        running = 0
        for x in sorted(deltas):
            running += deltas[x]
            if running > best:
                best, best_idx = running, x
        return best_idx, Fraction(best, den)

    def assert_budget(self) -> BudgetReport:
        """Per-subsystem pass/fail with the witness point of maximal loss.

        A subsystem with charges but no budget is a violation: nothing
        bounds what it may charge.
        """
        entries = []
        present = {c.subsystem for c in self.charges}
        for sub in SUBSYSTEMS:
            if sub not in present and sub not in self.budgets:
                continue
            budget = self.budgets.get(sub)
            witness, mx = self.max_point_loss(sub)
            ok = budget is not None and mx <= budget
            entries.append(BudgetEntry(sub, budget, mx, witness, ok))
        if "continual" in present and "multires" in present:
            budget = self.budgets.get("continual")
            witness, mx = self.max_point_loss(("continual", "multires"))
            if budget is not None:
                entries.append(
                    BudgetEntry("continual+multires", 2 * budget, mx, witness, mx <= 2 * budget)
                )
        return BudgetReport(tuple(entries))

    def export_jsonl(self, path):
        with open(path, "w") as fh:
            for c in self.charges:
                fh.write(
                    json.dumps(
                        {
                            "t": c.time,
                            "a": c.a,
                            "b": c.b,
                            "eps_num": c.eps.numerator,
                            "eps_den": c.eps.denominator,
                            "subsystem": c.subsystem,
                            "mechanism": c.mechanism,
                        }
                    )
                    + "\n"
                )


class RunningMax:
    """Exact maximum per-point loss over the charges with time <= t.

    Charges are positive, so per-point totals only grow and the maximum is
    monotone in t. Each charge, taken in time order, adds its numerator over
    the common denominator to its slice of a per-point array of Python ints
    and folds that slice's maximum into the best so far; the total work is
    the sum of the charged lengths. `at` is meant for non-decreasing t: a
    smaller t than one already seen returns the maximum at the largest t seen.
    """

    def __init__(self, charges):
        self._charges = sorted(charges, key=lambda c: c.time)
        self._den, self._nums = _over_common_denominator(self._charges)
        size = max((c.b for c in self._charges), default=-1) + 1
        self._points = np.zeros(size, dtype=object)
        self._pos = 0
        self._best = 0

    def at(self, t: int) -> Fraction:
        while self._pos < len(self._charges) and self._charges[self._pos].time <= t:
            c = self._charges[self._pos]
            seg = self._points[c.a : c.b + 1]
            seg += self._nums[self._pos]
            self._best = max(self._best, seg.max())
            self._pos += 1
        return Fraction(self._best, self._den)
