import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from streamdp import Charge, Ledger, LedgerError
from streamdp.ledger import RunningMax


def brute_force_max(charges):
    """Reference: scan every touched index directly; (first index at the max, max)."""
    points = sorted({p for c in charges for p in range(c.a, c.b + 1)})
    best_idx, best = None, Fraction(0)
    for p in points:
        loss = sum((c.eps for c in charges if c.a <= p <= c.b), Fraction(0))
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
    def test_malformed_interval(self):
        with pytest.raises(LedgerError):
            Charge(5, 4, Fraction(1, 2), "multires", 0, "x")

    def test_nonpositive_eps(self):
        with pytest.raises(LedgerError):
            Charge(0, 1, Fraction(0), "multires", 0, "x")

    def test_unknown_subsystem(self):
        with pytest.raises(LedgerError):
            Charge(0, 1, Fraction(1), "other", 0, "x")


class TestPointLoss:
    def test_overlapping_intervals_sum(self):
        led = Ledger()
        led.charge((0, 7), Fraction(1, 2), "multires", 8, "m")
        led.charge((4, 7), Fraction(1, 4), "multires", 8, "m")
        assert led.point_loss(5) == Fraction(3, 4)
        assert led.point_loss(2) == Fraction(1, 2)
        assert led.point_loss(9) == 0

    def test_subsystem_filter(self):
        led = Ledger()
        led.charge((0, 3), Fraction(1, 2), "multires", 4, "m")
        led.charge((0, 3), Fraction(1, 3), "continual", 4, "c")
        assert led.point_loss(0, "multires") == Fraction(1, 2)
        assert led.point_loss(0, ("multires", "continual")) == Fraction(5, 6)


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
        assert led.max_point_loss() == brute_force_max(led.charges)

    @given(timed_charges)
    @settings(max_examples=120, deadline=None)
    def test_mixed_denominators_match_brute_force_with_witness(self, raw):
        led = ledger_of(raw)
        assert led.max_point_loss() == brute_force_max(led.charges)


class TestRunningMax:
    def test_no_charges(self):
        assert RunningMax(()).at(5) == 0

    @given(timed_charges, st.lists(st.integers(-1, 14), min_size=1, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_matches_sweep_over_each_time_prefix(self, raw, queries):
        led = ledger_of(raw)
        running = RunningMax(led.charges)
        seen = -1
        for t in queries:
            # a step earlier than one already seen keeps the later maximum
            seen = max(seen, t)
            prefix = Ledger(charges=[c for c in led.charges if c.time <= seen])
            assert running.at(t) == prefix.max_point_loss()[1]


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

    def test_combined_continual_multires_entry(self):
        led = Ledger(budgets={"multires": Fraction(1), "continual": Fraction(1)})
        led.charge((0, 3), Fraction(1, 2), "multires", 4, "m")
        led.charge((0, 3), Fraction(1, 2), "continual", 4, "c")
        report = led.assert_budget()
        combined = [e for e in report.entries if e.subsystem == "continual+multires"]
        assert len(combined) == 1
        assert combined[0].budget == Fraction(2) and combined[0].max_eps == Fraction(1)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        led = Ledger()
        led.charge((0, 7), Fraction(1, 2), "multires", 8, "m")
        led.charge((8, 15), Fraction(1, 4), "continual", 16, "c")
        path = tmp_path / "ledger.jsonl"
        led.export_jsonl(path)
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert [Charge(r["a"], r["b"], Fraction(r["eps_num"], r["eps_den"]), r["subsystem"],
                       r["t"], r["mechanism"]) for r in back] == led.charges
