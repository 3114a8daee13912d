"""Nearest-rank quantiles that refuse to report an unsupported tail.

A q-quantile of n samples is the sample at rank ceil(q * n) in sorted
order. It is reported only when at least ``MIN_BEYOND`` samples lie
beyond that rank: a p99 needs 1000 samples and a p90 needs 100, so a
"p99" of 96 samples (which is just the maximum) is refused instead of
printed.
"""

MIN_BEYOND = 10

# q is taken in millionths so that ceil(q * n) is exact integer math:
# 0.99 * 2400 is 2375.9999999999995 in floating point.
_SCALE = 1_000_000


class QuantileRefused(ValueError):
    """The sample count cannot support the requested quantile."""


def rank(q, n):
    """1-based nearest rank of the q-quantile among n samples."""
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q} is outside (0, 1]")
    qm = round(q * _SCALE)
    return max(1, -(-qm * n // _SCALE))


def quantile(values, q):
    """Nearest-rank q-quantile of ``values``.

    Raises QuantileRefused when fewer than ``MIN_BEYOND`` samples lie
    beyond the quantile's rank.
    """
    n = len(values)
    if n == 0:
        raise QuantileRefused(f"p{q * 100:g}: no samples")
    r = rank(q, n)
    if n - r < MIN_BEYOND:
        raise QuantileRefused(
            f"p{q * 100:g} of n={n}: {n - r} samples beyond rank {r}, "
            f"needs {MIN_BEYOND}")
    return sorted(values)[r - 1]


def describe(name, values, q, unit, scale=1.0):
    """``(value, text)`` where text prints the quantile with its n."""
    v = quantile(values, q) * scale
    return v, f"{name} = {v:.6g} {unit} (p{q * 100:g}, n={len(values)})"
