import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamdp import Ledger, LedgerError
from conftest import charges, ledger_until


def brute_force_max(ledger):
    """Reference: scan every index a charge of ledger touches directly;
    (first index at the max, max)."""
    rows = charges(ledger)
    points = sorted({p for a, b, *_ in rows for p in range(a, b + 1)})
    best_idx, best = None, Fraction(0)
    for p in points:
        loss = sum((eps for a, b, eps, *_ in rows if a <= p <= b), Fraction(0))
        if loss > best:
            best_idx, best = p, loss
    return best_idx, best


# Mixed denominators as the schedulers produce them: eps/10-style budgets,
# thirds from the sliding base, eps/(6*2^j) from sliding updates.
mixed_eps = st.builds(
    Fraction,
    st.integers(1, 7),
    st.sampled_from([10, 3, 2, 16] + [6 * 2**j for j in range(8)]),
)
timed_charges = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40), mixed_eps, st.integers(0, 12)),
    min_size=0,
    max_size=14,
)


def ledger_of(raw):
    led = Ledger()
    for a, b, eps, t in raw:
        led.charge((min(a, b), max(a, b)), eps, "sliding", t, "m")
    return led


class TestCharge:
    """A ledger checks each charge it takes."""

    def test_malformed_interval(self):
        with pytest.raises(LedgerError, match=r"^interval \[5, 4\] is malformed$"):
            Ledger().charge((5, 4), Fraction(1, 2), "multires", 0, "x")

    def test_nonpositive_eps(self):
        with pytest.raises(LedgerError, match="^charge must be positive, got 0$"):
            Ledger().charge((0, 1), Fraction(0), "multires", 0, "x")

    def test_unknown_subsystem_is_a_violation_with_budget_none(self):
        led = Ledger(budgets={"multires": Fraction(1)})
        led.charge((0, 1), Fraction(1), "other", 0, "x")
        assert led.subsystems == ["other"]
        report = led.assert_budget()
        assert not report.ok
        assert [(e.subsystem, e.budget, e.max_eps, e.ok) for e in report.entries] == [
            ("other", None, Fraction(1), False), ("multires", Fraction(1), Fraction(0), True)]


class TestMaxPointLoss:
    def test_empty_ledger(self):
        assert Ledger().max_point_loss() == (None, Fraction(0))

    def test_witness_is_earliest(self):
        led = Ledger()
        led.charge((0, 9), Fraction(1, 2), "multires", 10, "m")
        witness, mx = led.max_point_loss()
        assert witness == 0 and mx == Fraction(1, 2)

    def test_geometric_series(self):
        # charges eps/2, eps/4, ... on nested prefixes never reach eps
        led = Ledger()
        for k in range(7):
            led.charge((0, 2**k - 1), Fraction(1, 2 * 2**k), "multires", 2**k, "m")
        _, mx = led.max_point_loss()
        assert mx == Fraction(127, 128)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(1, 8)),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_sweep_matches_brute_force(self, raw):
        led = Ledger()
        for a, b, num in raw:
            lo, hi = min(a, b), max(a, b)
            led.charge((lo, hi), Fraction(num, 16), "multires", hi + 1, "m")
        assert led.max_point_loss() == brute_force_max(led)

    @given(timed_charges)
    @settings(max_examples=120, deadline=None)
    def test_mixed_denominators_match_brute_force_with_witness(self, raw):
        led = ledger_of(raw)
        assert led.max_point_loss() == brute_force_max(led)


class TestRunningMax:
    """Each time's maximum on its own, against the sweep over the charges up to it."""

    @staticmethod
    def prefix_max(led, t):
        return ledger_until(led, t).max_point_loss()[1]

    def test_empty_ledger(self):
        assert Ledger().running_max([5, -1, 5]) == [0, 0, 0]
        assert Ledger().running_max([]) == []

    def test_times_in_any_order_repeated_and_outside_the_charges(self):
        led = Ledger()
        led.charge((0, 7), Fraction(1, 2), "sliding", 3, "m")
        led.charge((4, 9), Fraction(1, 3), "sliding", 6, "m")
        half, most = Fraction(1, 2), Fraction(5, 6)
        assert led.running_max([9, 0, 6, 3, 6, -5, 5]) == [most, 0, most, half, most, 0, half]
        # a query is pure: a later one sees charges added since
        led.charge((9, 9), Fraction(1), "sliding", 7, "m")
        assert led.running_max([6, 7]) == [most, Fraction(4, 3)]

    @given(timed_charges, st.lists(st.integers(-3, 16), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_each_time_matches_the_sweep_of_its_prefix(self, raw, times):
        led = ledger_of(raw)
        assert led.running_max(times) == [self.prefix_max(led, t) for t in times]


class TestBudgetReport:
    def test_within_budget(self):
        led = Ledger(budgets={"multires": Fraction(1)})
        led.charge((0, 7), Fraction(1, 2), "multires", 8, "m")
        report = led.assert_budget()
        assert report.ok
        entry = report.entries[0]
        assert entry.subsystem == "multires" and entry.max_eps == Fraction(1, 2)

    def test_violation_flagged_with_witness(self):
        led = Ledger(budgets={"multires": Fraction(1)})
        led.charge((3, 5), Fraction(3, 4), "multires", 6, "m")
        led.charge((4, 6), Fraction(3, 4), "multires", 7, "m")
        report = led.assert_budget()
        assert not report.ok
        entry = report.entries[0]
        assert entry.witness == 4 and entry.max_eps == Fraction(3, 2)

    def test_charges_without_a_budget_are_a_violation(self):
        led = Ledger(budgets={"multires": Fraction(1)})
        led.charge((0, 7), Fraction(1, 2), "multires", 8, "m")
        led.charge((0, 0), Fraction(5), "baseline", -1, "injected")
        report = led.assert_budget()
        assert not report.ok
        entry = next(e for e in report.entries if e.subsystem == "baseline")
        assert entry.budget is None and entry.max_eps == Fraction(5) and not entry.ok

    def test_continual_and_multires_together_within_2eps(self):
        # the report has one entry per subsystem, none combining them; the
        # two together are bounded by the sum of their budgets
        led = Ledger(budgets={"multires": Fraction(1), "continual": Fraction(1)})
        led.charge((0, 3), Fraction(1, 2), "multires", 4, "m")
        led.charge((0, 3), Fraction(1, 2), "continual", 4, "c")
        report = led.assert_budget()
        assert [e.subsystem for e in report.entries] == ["multires", "continual"]
        assert led.max_point_loss(("continual", "multires")) == (0, Fraction(1))
        assert led.max_point_loss(("continual", "multires"))[1] <= 2 * Fraction(1)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        led = Ledger()
        led.charge((0, 7), Fraction(1, 2), "multires", 8, "m")
        led.charge((8, 15), Fraction(1, 4), "continual", 16, "c")
        path = tmp_path / "ledger.jsonl"
        led.export_jsonl(path)
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["a"], r["b"], Fraction(r["eps_num"], r["eps_den"]), r["subsystem"], r["t"],
                 r["mechanism"]) for r in back] == charges(led)


class TestExactness:
    """Sums past 64 bits stay exact: int64 only under a checked bound."""

    # 1/2^70 and 1/3^45 have a common denominator above 2^141
    huge_eps = st.sampled_from([Fraction(1, 2**70), Fraction(5, 3**45), Fraction(1, 2),
                                Fraction(3, 2**70 * 3**45)])

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), huge_eps,
                              st.integers(0, 8)), min_size=1, max_size=12),
           st.lists(st.integers(-1, 10), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_huge_denominators_match_brute_force(self, raw, queries):
        led = ledger_of(raw)
        assert led.max_point_loss() == brute_force_max(led)
        assert led.running_max(queries) == [
            brute_force_max(ledger_until(led, t))[1] for t in queries]

    def test_mixed_huge_denominators(self):
        led = Ledger()
        led.charge((0, 9), Fraction(1, 2**70), "sliding", 0, "m")
        led.charge((5, 14), Fraction(1, 3**45), "sliding", 1, "m")
        assert led.den == 2**70 * 3**45
        assert led.max_point_loss() == (5, Fraction(1, 2**70) + Fraction(1, 3**45))
        assert led.max_point_loss() == brute_force_max(led)
        assert led.running_max([1, 0]) == [Fraction(1, 2**70) + Fraction(1, 3**45),
                                           Fraction(1, 2**70)]

    def test_int64_numerators_whose_sum_overflows(self):
        led = Ledger()
        for t in range(4):
            led.charge((t, 10), Fraction(2**62), "sliding", t, "m")
        assert led.column("num").dtype == np.int64
        assert led.max_point_loss() == (3, Fraction(2**64))
        assert led.running_max([3, 2, 1]) == [Fraction(2**64), Fraction(3 * 2**62),
                                              Fraction(2**63)]

    def test_rescaling_past_64_bits_keeps_earlier_charges(self):
        led = Ledger()
        led.charge((0, 3), Fraction(2**62, 3), "sliding", 0, "m")
        led.charge((0, 3), Fraction(1, 2**40), "sliding", 1, "m")
        assert charges(led)[0][2] == Fraction(2**62, 3)
        assert led.max_point_loss()[1] == Fraction(2**62, 3) + Fraction(1, 2**40)


    def test_the_largest_end_leaves_room_for_its_boundary(self):
        # b + 1 bounds a segment, so b = 2**63 - 1 would wrap around in int64
        led = Ledger(budgets={"sliding": Fraction(1)})
        led.charge((0, 2**63 - 2), Fraction(100), "sliding", 0, "m")
        assert led.max_point_loss() == (0, Fraction(100))
        assert led.running_max([0]) == [Fraction(100)]
        assert not led.assert_budget().ok
        with pytest.raises(LedgerError, match="b below 9223372036854775807"):
            led.charge((0, 2**63 - 1), Fraction(100), "sliding", 0, "m")
        assert len(led.column("a")) == 1


class TestColumns:
    def test_charges_round_trip_through_the_columns(self):
        led = Ledger()
        led.extend([0, 3], [7, 3], [2, 1], [4, 3], ["multires", "sliding"], [8, -1],
                   ["m", "injected"])
        assert (led.den, led.column("num").tolist()) == (12, [6, 4])  # 2/4 and 1/3
        assert charges(led) == [(0, 7, Fraction(1, 2), "multires", 8, "m"),
                                (3, 3, Fraction(1, 3), "sliding", -1, "injected")]

    def test_a_bad_charge_appends_nothing(self):
        led = Ledger()
        led.charge((0, 1), Fraction(1, 2), "multires", 0, "m")
        for interval, eps, sub in [((2, 1), Fraction(1), "multires"),
                                   ((0, 1), Fraction(-1, 3), "multires"),
                                   ((2, 1), Fraction(1), "other"),
                                   ((0.5, 1), Fraction(1), "multires"),
                                   ((0, 2**63), Fraction(1), "multires")]:
            with pytest.raises(LedgerError):
                led.charge(interval, eps, sub, 0, "m")
        assert charges(led) == [(0, 1, Fraction(1, 2), "multires", 0, "m")]
        assert led.subsystems == ["multires"]  # a refused charge interns no name

    def test_an_empty_extend_keeps_the_columns_integers(self):
        # as verify-ledger's extend of a chunk whose charges are all zero
        led = Ledger()
        led.extend([], [], [], [], [], [], [])
        led.charge((0, 7), Fraction(1, 2), "multires", 8, "m")
        assert all(led.column(name).dtype == np.int64 for name in ("a", "b", "time", "num"))
        assert led.max_point_loss() == (0, Fraction(1, 2))

    def test_export_writes_each_charge_in_lowest_terms(self, tmp_path):
        led = Ledger()
        led.charge((0, 7), Fraction(1, 2), "multires", 8, "m")
        led.charge((8, 15), Fraction(1, 3**45), "continual", -1, 'q"x')
        path = tmp_path / "ledger.jsonl"
        led.export_jsonl(path)
        assert path.read_text() == "".join(json.dumps({
            "t": time, "a": a, "b": b, "eps_num": eps.numerator, "eps_den": eps.denominator,
            "subsystem": sub, "mechanism": mech,
        }) + "\n" for a, b, eps, sub, time, mech in charges(led))
