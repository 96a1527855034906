"""Small statistics helpers used by experiment reports."""

import math


def percentile(values, pct):
    """The ``pct``-th percentile (0-100) by linear interpolation.

    Matches numpy's default ("linear") method so reports are comparable.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError("pct must be in [0, 100], got %r" % (pct,))
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] + (ordered[high] - ordered[low]) * frac
    # Clamp 1-ulp interpolation overshoot so the result always lies
    # within [ordered[low], ordered[high]].
    return min(max(value, ordered[low]), ordered[high])


def mean(values):
    """Arithmetic mean; raises on an empty sequence."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def cdf_points(values, num_points=100):
    """(value, cumulative_fraction) pairs suitable for plotting a CDF."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    if n <= num_points:
        return [(v, (i + 1) / n) for i, v in enumerate(ordered)]
    points = []
    for i in range(num_points):
        idx = min(n - 1, int(round((i + 1) / num_points * n)) - 1)
        points.append((ordered[idx], (idx + 1) / n))
    return points

