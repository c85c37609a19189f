"""Cumulated burden, efficiency index, and ICER dominance chain."""

import numpy as np
import pytest

from arbo.econ import (
    IcerRow, IcerTable, StrategyReport, cumulated_infectious, efficiency_index,
    icer_analysis,
)
from arbo.model import I_H
from arbo.ode import TimeGrid, Trajectory


def _report(name, averted, cost):
    return StrategyReport(name=name, cumulated_ih=0.0, efficiency_percent=0.0,
                          total_cost=cost, infections_averted=averted)


def test_cumulated_infectious_trapezoid():
    """[TRIVIAL] Linear I_h integrates to the exact trapezoid value."""
    grid = TimeGrid(0.0, 2.0, 4)
    values = np.zeros((5, 10))
    values[:, I_H] = np.linspace(0.0, 4.0, 5)
    assert cumulated_infectious(Trajectory(grid, values)) == pytest.approx(4.0)


def test_efficiency_index():
    """[TRIVIAL] Percent reduction vs baseline; zero baseline rejected."""
    assert efficiency_index(25.0, 100.0) == pytest.approx(75.0)
    assert efficiency_index(100.0, 100.0) == pytest.approx(0.0)
    with pytest.raises(ZeroDivisionError):
        efficiency_index(1.0, 0.0)


def test_icer_requires_two_strategies():
    """[TRIVIAL] A single strategy cannot be ranked."""
    with pytest.raises(ValueError):
        icer_analysis([_report("A", 10.0, 100.0)])


def test_icer_rejects_nonpositive_effect():
    """[TRIVIAL] Strategies must avert some infections."""
    with pytest.raises(ValueError):
        icer_analysis([_report("A", 0.0, 1.0), _report("B", 5.0, 2.0)])


def test_icer_simple_kept_chain():
    """[DERIVED] Two efficient strategies both survive with the
    incremental ratio on the second."""
    table = icer_analysis([_report("A", 100.0, 1000.0),
                           _report("B", 200.0, 1500.0)])
    assert table.kept == ["A", "B"]
    rows = {r.strategy: r for r in table.rows}
    assert rows["A"].icer == pytest.approx(10.0)
    assert rows["B"].icer == pytest.approx(5.0)
    assert not table.eliminations


def test_icer_negative_increment_eliminates_first():
    """[DERIVED] Cheaper-and-better second strategy dominates the first."""
    table = icer_analysis([_report("A", 100.0, 1000.0),
                           _report("B", 200.0, 900.0)])
    assert table.kept == ["B"]
    assert table.eliminations[0][1] == "A"


def test_icer_expensive_increment_eliminates_second():
    """[DERIVED] An incremental ratio above the first strategy's own
    ratio removes the second."""
    table = icer_analysis([_report("A", 100.0, 1000.0),
                           _report("B", 101.0, 5000.0),
                           _report("C", 300.0, 1200.0)])
    assert "B" not in table.kept
    assert table.eliminations[0][1] == "B"


def test_icer_equivalent_strategies_grouped():
    """[TRIVIAL] Identical cost and effect are reported as equivalent."""
    table = icer_analysis([_report("A", 100.0, 1000.0),
                           _report("A2", 100.0, 1000.0),
                           _report("B", 200.0, 1500.0)])
    assert ["A", "A2"] in table.equivalent
    assert "A" in table.kept and "A2" not in table.kept


def test_icer_same_effect_higher_cost_dominated():
    """[TRIVIAL] Equal effect at higher cost is strongly dominated."""
    table = icer_analysis([_report("A", 100.0, 2000.0),
                           _report("B", 100.0, 1000.0),
                           _report("C", 300.0, 2500.0)])
    assert "A" not in table.kept
    reason = [why for _, name, why in table.eliminations if name == "A"]
    assert reason and "same effect" in reason[0]


def test_icer_documented_cost_table(table5):
    """[PAPER] The bundled cost table reproduces the documented chain."""
    rows = table5.config["icer"]["strategies"]
    reports = [_report(r["name"], r["averted"], r["cost"]) for r in rows]
    table = icer_analysis(reports)
    assert [name for _, name, _ in table.eliminations] == ["Z4", "Z2", "Z3"]
    assert table.kept == ["Z1"]
    assert table.equivalent == [["Z1", "Z"]]


def test_icer_whole_table_pinned(table5):
    """[DERIVED] Every field of the table, for cases that reach each
    branch: the bundled cost table (negative increment, increment above
    the first ratio, equivalent pair, kept) and a same-effect pair."""
    rows = table5.config["icer"]["strategies"]
    chain = icer_analysis([_report(r["name"], r["averted"], r["cost"])
                           for r in rows])
    assert chain == IcerTable(
        rows=[
            IcerRow("Z4", 87538.0, 762180000.0, 8706.847312024493, "dominated"),
            IcerRow("Z2", 88848.0, 1645200000.0, 17005192.307692308,
                    "dominated"),
            IcerRow("Z3", 88796.0, 760930000.0, 8569.417541330691, "dominated"),
            IcerRow("Z", 88886.0, 760810000.0, None, "equivalent"),
            IcerRow("Z1", 88886.0, 760810000.0, 8559.390680197106, "kept"),
        ],
        eliminations=[
            (1, "Z4", "negative incremental ICER -993.641 vs Z3"),
            (2, "Z2", "incremental ICER 1.70052e+07 exceeds Z3's ratio 8569.42"),
            (3, "Z3", "negative incremental ICER -1333.33 vs Z1"),
        ],
        kept=["Z1"],
        equivalent=[["Z1", "Z"]],
        comparisons=[
            (1, "Z4", "Z3", 8706.847312024493, -993.6406995230525),
            (2, "Z3", "Z2", 8569.417541330691, 17005192.307692308),
            (3, "Z3", "Z1", 8569.417541330691, -1333.3333333333333),
        ])
    same_effect = icer_analysis([_report("A", 100.0, 1000.0),
                                 _report("B", 100.0, 1500.0)])
    assert same_effect == IcerTable(
        rows=[IcerRow("B", 100.0, 1500.0, None, "dominated"),
              IcerRow("A", 100.0, 1000.0, 10.0, "kept")],
        eliminations=[(1, "B", "same effect at higher cost")],
        kept=["A"],
        equivalent=[],
        comparisons=[(1, "A", "B", 10.0, None)])


def test_icer_compares_past_a_pair_that_eliminates_nothing():
    """[DERIVED] A pair that eliminates nothing passes on to the next
    pair, whose first strategy's own ratio is its incremental ratio
    against its predecessor: after B goes (same effect), A against C
    eliminates nothing, C and D are grouped as equivalent, and E's
    increment over C (987.99) exceeds C's ratio 2."""
    table = icer_analysis([_report("A", 100.0, 1000.0),
                           _report("B", 100.0, 1500.0),
                           _report("C", 200.0, 1200.0),
                           _report("D", 200.0, 1200.0),
                           _report("E", 300.0, 99999.0)])
    assert table == IcerTable(
        rows=[IcerRow("B", 100.0, 1500.0, None, "dominated"),
              IcerRow("D", 200.0, 1200.0, None, "equivalent"),
              IcerRow("E", 300.0, 99999.0, 987.99, "dominated"),
              IcerRow("A", 100.0, 1000.0, 10.0, "kept"),
              IcerRow("C", 200.0, 1200.0, 2.0, "kept")],
        eliminations=[(1, "B", "same effect at higher cost"),
                      (3, "E", "incremental ICER 987.99 exceeds C's ratio 2")],
        kept=["A", "C"],
        equivalent=[["C", "D"]],
        comparisons=[(1, "A", "B", 10.0, None),
                     (2, "A", "C", 10.0, 2.0),
                     (3, "C", "E", 2.0, 987.99)])


def test_icer_steps_back_after_eliminating_a_later_first():
    """[DERIVED] When the first strategy of a later pair goes, the next
    round compares its predecessor with the second: B passes against A,
    C then eliminates B (negative increment), and A meets C."""
    table = icer_analysis([_report("A", 100.0, 1000.0),
                           _report("B", 200.0, 1500.0),
                           _report("C", 300.0, 1400.0)])
    assert table.comparisons == [(1, "A", "B", 10.0, 5.0),
                                 (2, "B", "C", 5.0, -1.0),
                                 (3, "A", "C", 10.0, 2.0)]
    assert [name for _, name, _ in table.eliminations] == ["B"]
    assert table.kept == ["A", "C"]
