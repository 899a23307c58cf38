"""Each reference tail is a ``scipy.special`` call, and each must equal the
``scipy.stats`` distribution method it replaces to the last bit. The
package does not import ``scipy.stats``; these tests keep it as the
reference."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from multiendpoint import obrien_test
from multiendpoint.results import clamp_p, normal_sf, two_sided_p
from multiendpoint.simgen import binomial_band, binomial_ci
from support import dataset, multirank_checked, random_integer_cohort

Z = np.concatenate(
    [np.linspace(-40.0, 40.0, 1601), [0.0, -0.0, 1e-300, 1e-8, 8.3, 38.5, np.inf, -np.inf, np.nan]]
)
X = np.abs(Z)


def bits(values) -> list[str]:
    return [float.hex(float(v)) for v in np.ravel(values)]


def test_normal_tail_and_cdf():
    assert bits(normal_sf(Z)) == bits(sps.norm.sf(Z))
    assert bits(special.ndtr(Z)) == bits(sps.norm.cdf(Z))
    for z in Z[~np.isnan(Z)]:
        want = two_sided_p(z, sps.norm.sf)
        assert float.hex(two_sided_p(z)) == float.hex(want)


@pytest.mark.parametrize("df", [0.5, 1, 1.5, 2, 3, 7.3, 10, 29.9, 100, 1655, 1e5, 1e8, math.nan])
def test_student_tail(df):
    """rank_sum's tail, ``stdtr(df, -x)``, also at the NaN Welch df of a
    zero variance."""
    assert bits(special.stdtr(df, -X)) == bits(sps.t.sf(X, df))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chi_square_tail(k):
    """multirank's tail, ``chdtrc(k, max(x, 0))``: 1 at and below 0."""
    x = np.concatenate([np.linspace(0.0, 200.0, 2001), [1e-12, 1e3, -0.0, -1e-17, -5.0]])
    assert bits(special.chdtrc(k, np.maximum(x, 0.0))) == bits(sps.chi2.sf(x, k))


def test_asymptotic_rank_tests_keep_their_p_bits():
    rng = np.random.default_rng(41)
    for _ in range(12):
        subs, specs = random_integer_cohort(rng, int(rng.integers(5, 30)))
        ds = dataset(subs, specs)
        for variance in ("naive", "adjusted"):
            r = obrien_test(ds, variance=variance)
            df = r.metadata["df"]
            want = two_sided_p(r.z, lambda x: sps.t.sf(x, df))
            assert float.hex(r.p_two_sided) == float.hex(want)
        r = multirank_checked(ds)
        df = r.metadata["df"]
        want = 1.0 if df == 0 else clamp_p(float(sps.chi2.sf(r.statistic, df)))
        assert float.hex(r.p_two_sided) == float.hex(want)


TRIALS = [*range(1, 61), 199, 200, 2000]


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
def test_clopper_pearson_matches_beta_quantiles(level):
    a = (1.0 - level) / 2.0
    for n in TRIALS:
        s = np.arange(n + 1)
        low = np.where(s == 0, 0.0, sps.beta.ppf(a, np.maximum(s, 1), n - s + 1))
        high = np.where(s == n, 1.0, sps.beta.ppf(1 - a, s + 1, np.maximum(n - s, 1)))
        got = np.array([binomial_ci(int(k), n, level) for k in s])
        assert bits(got[:, 0]) == bits(low), n
        assert bits(got[:, 1]) == bits(high), n


RATES = [0.0, 0.001, 0.01, 0.025, 0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0]


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
def test_binomial_band_matches_binomial_quantiles(level):
    a = (1.0 - level) / 2.0
    for n in range(1, 301):
        for p in RATES:
            want = (float(sps.binom.ppf(a, n, p)) / n, float(sps.binom.ppf(1.0 - a, n, p)) / n)
            assert bits(binomial_band(p, n, level)) == bits(want), (n, p)
