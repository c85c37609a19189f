"""Cost-effectiveness post-processing: cumulated infectious burden,
efficiency index, and incremental cost-effectiveness ratio (ICER)
ranking with strong-dominance elimination."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import I_H
from .ode import Trajectory

_EQUIVALENT_RTOL = 1e-12  # equal effect and cost: equivalent strategies


class StrategyReport(NamedTuple):
    """Outcome summary for one control strategy."""

    name: str
    cumulated_ih: float        # person-days of infectiousness
    efficiency_percent: float  # vs the no-control baseline
    total_cost: float
    infections_averted: float


class IcerRow(NamedTuple):
    strategy: str
    averted: float
    cost: float
    icer: float | None       # vs the previous kept strategy (None: baseline row pending)
    status: str              # kept | dominated | equivalent


class IcerTable(NamedTuple):
    rows: list
    eliminations: list       # (round, eliminated strategy, reason)
    kept: list               # surviving strategy names, ascending averted
    equivalent: list         # groups of mutually equivalent strategies
    comparisons: list        # (round, first, second, icer_first, icer_pair)


def cumulated_infectious(traj: Trajectory) -> float:
    """Trapezoidal integral of the infectious-human compartment."""
    return float(np.trapezoid(traj.values[:, I_H], dx=traj.grid.dt))


def efficiency_index(controlled: float, baseline: float) -> float:
    """(1 - controlled/baseline) * 100; baseline must be positive."""
    if baseline <= 0.0:
        raise ZeroDivisionError(
            f"baseline cumulated infectious must be > 0, got {baseline!r}")
    return (1.0 - controlled / baseline) * 100.0


def _pair_icer(d_cost: float, d_averted: float) -> float | None:
    if d_averted == 0.0:
        return None
    return d_cost / d_averted


def icer_analysis(reports: list[StrategyReport]) -> IcerTable:
    """Strong-dominance elimination over incremental ICERs.

    Strategies are ordered by ascending infections averted (i.e.
    descending total infections).  Each round compares one pair of
    neighbours among the remaining strategies, starting with the two
    least effective.  The first strategy's own ratio is the ICER its kept
    row reports: cost per infection averted for the least effective, else
    the incremental ratio against its remaining predecessor.  Equal effect
    eliminates the dearer one; a negative incremental ICER (the more
    effective second is also cheaper) eliminates the first, and the next
    round steps back one pair; an incremental ICER above the first
    strategy's own ratio eliminates the second, and the first meets its
    new neighbour.  A pair that eliminates nothing passes on to the next
    pair.  Ties in both cost and effect are reported as equivalent, never
    divided.
    """
    if len(reports) < 2:
        raise ValueError("need at least 2 strategies")
    if any(r.infections_averted <= 0 for r in reports):
        raise ValueError("all strategies must avert a positive number of infections")

    order = sorted(reports, key=lambda r: r.infections_averted)
    rows: list[IcerRow] = []
    eliminations = []
    equivalent_groups = []
    comparisons = []
    remaining = list(order)
    round_no = 0

    def close(a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=_EQUIVALENT_RTOL, abs_tol=0.0)

    def own_ratio(i: int) -> float | None:
        rep = remaining[i]
        if i == 0:
            return rep.total_cost / rep.infections_averted
        prev = remaining[i - 1]
        return _pair_icer(rep.total_cost - prev.total_cost,
                          rep.infections_averted - prev.infections_averted)

    i = 0
    while i + 1 < len(remaining):
        first, second = remaining[i], remaining[i + 1]
        if (close(first.infections_averted, second.infections_averted)
                and close(first.total_cost, second.total_cost)):
            equivalent_groups.append([first.name, second.name])
            rows.append(IcerRow(second.name, second.infections_averted,
                                second.total_cost, None, "equivalent"))
            remaining.pop(i + 1)
            continue
        round_no += 1
        icer_first = own_ratio(i)
        d_averted = second.infections_averted - first.infections_averted
        d_cost = second.total_cost - first.total_cost
        icer_pair = _pair_icer(d_cost, d_averted)
        comparisons.append((round_no, first.name, second.name,
                            icer_first, icer_pair))
        if icer_pair is None:
            # Same effect, different cost: the dearer one is dominated.
            loser = first if first.total_cost > second.total_cost else second
            icer, reason = None, "same effect at higher cost"
        elif icer_pair < 0.0:
            loser, icer = first, icer_first
            reason = (f"negative incremental ICER {icer_pair:.6g} "
                      f"vs {second.name}")
        elif icer_pair > icer_first:
            loser, icer = second, icer_pair
            reason = (f"incremental ICER {icer_pair:.6g} exceeds "
                      f"{first.name}'s ratio {icer_first:.6g}")
        else:
            i += 1
            continue
        eliminations.append((round_no, loser.name, reason))
        rows.append(IcerRow(loser.name, loser.infections_averted,
                            loser.total_cost, icer, "dominated"))
        remaining.remove(loser)
        if loser is first:
            i = max(i - 1, 0)

    rows.extend(IcerRow(rep.name, rep.infections_averted, rep.total_cost,
                        own_ratio(i), "kept")
                for i, rep in enumerate(remaining))
    return IcerTable(rows=rows, eliminations=eliminations,
                     kept=[r.name for r in remaining],
                     equivalent=equivalent_groups,
                     comparisons=comparisons)
