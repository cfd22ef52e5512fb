"""Order statistics shared by the benchmark runner and the compare command."""

from __future__ import annotations

import statistics

# A tail percentile is only reported where at least this many ops lie
# beyond it, so that one slow op cannot set it alone.
TAIL_BEYOND = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def tail(values: list[float]) -> dict:
    """The highest order statistic that still has TAIL_BEYOND ops beyond it.

    With ``n`` ops sorted ascending that is rank ``n - TAIL_BEYOND``
    (1-based). Runs of ``TAIL_BEYOND`` ops or fewer have no such rank; they
    report the minimum, which keeps the chosen rank continuous in ``n``,
    and say so with ``rule_met``.
    """
    if not values:
        raise ValueError("no ops to take a tail of")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return {
        "value": ordered[rank - 1],
        "rank": rank,
        "ops": n,
        "beyond": n - rank,
        "percentile": 100.0 * rank / n,
        "rule_met": n - rank >= TAIL_BEYOND,
    }
