import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predictsched import TimeSeries, fractional_gaussian_noise, hurst_exponent
from predictsched.hurst import MIN_SERIES_LEN, _MIN_WINDOW


def reference_hurst(x):
    """R/S analysis one window at a time, as a loop over contiguous blocks:
    (rs_points, h, fit_residual), or None when fewer than two window sizes
    keep a window."""
    n = x.size
    points = []
    w = _MIN_WINDOW
    while w <= n // 2:
        ratios = []
        for b in range(n // w):
            seg = x[b * w : (b + 1) * w]
            z = np.cumsum(seg - seg.mean())
            r = float(z.max() - z.min())
            s = float(seg.std())
            if r > 0 and s > 0:
                ratios.append(r / s)
        if ratios:
            points.append((float(np.log(w)), float(np.log(np.mean(ratios)))))
        w *= 2
    if len(points) < 2:
        return None
    log_n = np.array([p[0] for p in points])
    log_rs = np.array([p[1] for p in points])
    (slope, _), res, *_ = np.polyfit(log_n, log_rs, 1, full=True)
    residual = float(np.sqrt(res[0] / len(points))) if res.size else 0.0
    return tuple(points), float(slope), residual


@st.composite
def rs_series(draw):
    """White noise, fGn, small integers (many zero-range windows) or noise
    scaled by 1e6, at lengths on both sides of numpy's 8192-element
    reduction buffer and off multiples of 8."""
    n = draw(st.one_of(
        st.integers(MIN_SERIES_LEN, 20_000),
        st.sampled_from([32, 33, 39, 8191, 8192, 8193, 16_385, 19_999]),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["white", "fgn", "integers", "scaled"]))
    if kind == "white":
        x = rng.standard_normal(n)
    elif kind == "fgn":
        # the generator's circulant embedding fails near H = 0.9 on short series
        x = fractional_gaussian_noise(n, draw(st.floats(0.05, 0.8)), rng=rng)
    elif kind == "integers":
        # mostly zeros: whole windows are constant and must be dropped
        x = (rng.random(n) < 0.02).astype(float) * rng.integers(1, 4, n)
        x[0], x[-1] = 0.0, 1.0  # never constant overall
    else:
        x = rng.standard_normal(n) * 1e6 + 3e6
    return x


class TestFgnGenerator:
    def test_unit_variance_and_lag1_correlation(self):
        h = 0.72
        x = fractional_gaussian_noise(65536, h, rng=7)
        assert x.var() == pytest.approx(1.0, abs=0.05)
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        theory = 2 ** (2 * h - 1) - 1
        assert lag1 == pytest.approx(theory, abs=0.03)

    def test_deterministic_for_seed(self):
        a = fractional_gaussian_noise(512, 0.6, rng=3)
        b = fractional_gaussian_noise(512, 0.6, rng=3)
        assert np.array_equal(a, b)

    def test_invalid_hurst_rejected(self):
        with pytest.raises(ValueError):
            fractional_gaussian_noise(128, 1.2)


class TestHurstEstimator:
    def test_white_noise_near_half(self):
        x = np.random.default_rng(11).standard_normal(4096)
        assert hurst_exponent(x).h == pytest.approx(0.5, abs=0.10)

    def test_fgn_recovers_known_h(self):
        x = fractional_gaussian_noise(4096, 0.72, rng=5)
        assert hurst_exponent(x).h == pytest.approx(0.72, abs=0.10)

    def test_scale_invariance(self):
        x = fractional_gaussian_noise(2048, 0.65, rng=9)
        base = hurst_exponent(x).h
        for factor in (0.01, 3.0, 1e6):
            assert hurst_exponent(x * factor).h == pytest.approx(base, abs=1e-12)

    def test_shuffle_destroys_memory(self):
        x = fractional_gaussian_noise(4096, 0.85, rng=13)
        assert hurst_exponent(x).h > 0.7
        shuffled = np.random.default_rng(14).permutation(x)
        assert hurst_exponent(shuffled).h == pytest.approx(0.5, abs=0.10)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            hurst_exponent(np.ones(128))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            hurst_exponent(np.arange(16))

    def test_rs_points_exposed_for_fit_table(self):
        x = fractional_gaussian_noise(1024, 0.6, rng=2)
        result = hurst_exponent(x)
        # ladder 8, 16, ..., 512
        assert [round(np.exp(p[0])) for p in result.rs_points] == [
            8, 16, 32, 64, 128, 256, 512,
        ]
        assert result.fit_residual >= 0

    def test_non_finite_rejected(self):
        x = np.random.default_rng(3).standard_normal(256)
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y[40] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                hurst_exponent(y)

    def test_non_finite_time_series_rejected(self):
        values = np.random.default_rng(4).standard_normal(64)
        values[10] = np.nan
        series = TimeSeries(start_time=0.0, bin_width=60.0, values=tuple(values))
        with pytest.raises(ValueError, match="NaN or infinite"):
            hurst_exponent(series)


class TestRowsEqualBlockLoop:
    @settings(max_examples=100, deadline=None)
    @given(rs_series())
    def test_bitwise_equal_to_reference(self, x):
        expected = reference_hurst(x)
        if expected is None:
            with pytest.raises(ValueError, match="zero variance"):
                hurst_exponent(x)
            return
        points, h, residual = expected
        result = hurst_exponent(x)
        assert result.rs_points == points
        assert result.h == h
        assert result.fit_residual == residual
