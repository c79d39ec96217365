"""Least-squares line fits for growth classification."""
from __future__ import annotations

# Used by the Betti-trace classifier only (Coxeter-iterate growth is decided
# exactly): a log-log fit whose largest residual stays below the first reads
# as polynomial growth, a semilog slope above the second as exponential growth.
LOGLOG_RESIDUAL_THRESHOLD = 0.15
EXPONENTIAL_SLOPE_THRESHOLD = 0.05


def fit_line(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Fit y = slope*x + intercept; returns (slope, intercept, max abs residual)."""
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values coincide")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return slope, intercept, residual
