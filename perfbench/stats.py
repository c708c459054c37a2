"""Order statistics used by the runner, the tracer and the self-tests."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    order statistics (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median,
    the quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted
