"""Long-memory estimation via rescaled-range (R/S) analysis.

The Hurst exponent H measures how slowly the autocorrelation of a series
decays; H in (0.5, 1) indicates persistence, the statistical footing for
prolonging recurring submission behaviour into the future.

Estimation steps:
  1) For window sizes n in a geometric ladder (8, 16, ... up to length/2),
     split the series into non-overlapping windows of size n: the rows of
     one (length // n, n) array over the leading length // n * n samples.
  2) Per window: mean-adjusted cumulative sum Z, range R = max(Z) - min(Z),
     standard deviation S; the window statistic is R/S.  Windows with zero
     range or zero deviation are dropped.  Each statistic is one numpy call
     along the rows, with the same arithmetic as on each window alone, so
     the result is bitwise that of a window-by-window loop.
  3) Average R/S over the windows of each size.
  4) H is the least-squares slope of log(R/S) against log(n).

A fractional Gaussian noise generator (circulant embedding) is included so
the estimator can be exercised against series of known H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .workload import TimeSeries

MIN_SERIES_LEN = 32
_MIN_WINDOW = 8


@dataclass(frozen=True)
class HurstResult:
    h: float
    rs_points: tuple[tuple[float, float], ...]  # (log n, log mean R/S)
    fit_residual: float


def _as_values(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.as_array()
    return np.asarray(series, dtype=float).ravel()


def hurst_exponent(series) -> HurstResult:
    """Estimate the Hurst exponent of a TimeSeries or 1-D array.

    Raises ValueError for series holding NaN or infinite values, shorter
    than 32 samples, or with zero variance (R/S is undefined on a constant
    series).
    """
    x = _as_values(series)
    if not np.isfinite(x).all():
        raise ValueError("series holds NaN or infinite values")
    n = x.size
    if n < MIN_SERIES_LEN:
        raise ValueError(f"series too short for R/S analysis ({n} < {MIN_SERIES_LEN})")
    if not np.any(x != x[0]):
        raise ValueError("zero variance")

    points: list[tuple[float, float]] = []
    w = _MIN_WINDOW
    while w <= n // 2:
        blocks = x[: n // w * w].reshape(-1, w)
        z = np.cumsum(blocks - blocks.mean(axis=1, keepdims=True), axis=1)
        r = z.max(axis=1) - z.min(axis=1)
        s = blocks.std(axis=1)
        keep = (r > 0) & (s > 0)
        if keep.any():
            points.append((float(np.log(w)), float(np.log(np.mean(r[keep] / s[keep])))))
        w *= 2

    if len(points) < 2:
        raise ValueError("zero variance")
    log_n = np.array([p[0] for p in points])
    log_rs = np.array([p[1] for p in points])
    (slope, intercept), res, *_ = np.polyfit(log_n, log_rs, 1, full=True)
    residual = float(np.sqrt(res[0] / len(points))) if res.size else 0.0
    return HurstResult(h=float(slope), rs_points=tuple(points), fit_residual=residual)


def fractional_gaussian_noise(
    n: int, hurst: float, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Sample unit-variance fractional Gaussian noise by circulant embedding.

    The autocovariance gamma(k) = 0.5(|k+1|^2H - 2|k|^2H + |k-1|^2H) is
    embedded in a 2n circulant whose eigenvalues come from one FFT; a complex
    normal vector shaped by those eigenvalues transforms back to an exact
    stationary sample (Davies-Harte construction).
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if hurst == 0.5:
        return rng.standard_normal(n)

    k = np.arange(n, dtype=float)
    gamma = 0.5 * (
        np.abs(k - 1) ** (2 * hurst)
        - 2 * np.abs(k) ** (2 * hurst)
        + np.abs(k + 1) ** (2 * hurst)
    )
    row = np.concatenate([gamma, [0.0], gamma[:0:-1]])
    lam = np.fft.fft(row).real
    if np.any(lam < -1e-8):
        raise ValueError(f"circulant embedding failed for H={hurst}")
    lam = np.clip(lam, 0.0, None)

    m = 2 * n
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w = np.fft.fft(z * np.sqrt(lam / (2 * m)))
    return w[:n].real * np.sqrt(2.0)
