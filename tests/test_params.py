"""Window capacity and timeout estimation from degree/span distributions."""

import math

import pytest
from hypothesis import given, settings, strategies as hs

from swakit.distributions import (
    ErlangBranch,
    ErlangDist,
    HyperErlangDist,
    PhaseTypeDist,
    PointMassDist,
)
from swakit.errors import ConfigError, NoSolutionError
from swakit.params import WindowParams, estimate_capacity, estimate_timeout
from swakit.trace import default_degree_dist, default_span_dist

DEGREE_DIST = ErlangDist(8.7963, 100)
SPAN_DIST = HyperErlangDist(
    [ErlangBranch(0.0247, 0.0404, 1), ErlangBranch(0.9753, 0.3666, 4)]
)


def scan_capacity(dist, alpha, hi=200):
    """Independent oracle: first n in 1..hi with CDF(n) >= alpha."""
    for n in range(1, hi + 1):
        if dist.cdf(n) >= alpha:
            return n
    raise AssertionError("oracle found no solution")


def scan_timeout(dist, beta, hi=600):
    for t in range(1, hi + 1):
        if dist.cdf(t) >= 1 - beta:
            return t
    raise AssertionError("oracle found no solution")


def test_reference_capacity_and_timeout():
    assert estimate_capacity(DEGREE_DIST, 0.90) == 13
    assert estimate_timeout(SPAN_DIST, 0.05) == 22


def test_point_mass_capacity():
    assert estimate_capacity(PointMassDist(5.0), 0.99) == 5


def test_capacity_agrees_with_scan_oracle():
    for alpha in (0.5, 0.8, 0.90, 0.98, 0.999):
        assert estimate_capacity(DEGREE_DIST, alpha) == scan_capacity(DEGREE_DIST, alpha)


def test_timeout_agrees_with_scan_oracle():
    for beta in (0.30, 0.10, 0.05, 0.02):
        assert estimate_timeout(SPAN_DIST, beta) == scan_timeout(SPAN_DIST, beta)


def test_exponential_timeout_unit_case():
    # F(1) = 1 - 1/e ~= 0.6321, so beta just above 1/e picks t = 1
    assert estimate_timeout(ErlangDist(1.0, 1), 0.368) == 1


def test_capacity_monotone_in_alpha():
    vals = [estimate_capacity(DEGREE_DIST, a) for a in (0.5, 0.7, 0.9, 0.98)]
    assert vals == sorted(vals)


def test_timeout_monotone_in_coverage():
    vals = [estimate_timeout(SPAN_DIST, b) for b in (0.30, 0.10, 0.05, 0.01)]
    assert vals == sorted(vals)


def test_returned_value_is_smallest_covering():
    for alpha in (0.6, 0.9, 0.99):
        n = estimate_capacity(DEGREE_DIST, alpha)
        assert DEGREE_DIST.cdf(n) >= alpha
        assert n == 1 or DEGREE_DIST.cdf(n - 1) < alpha
    for beta in (0.2, 0.05):
        t = estimate_timeout(SPAN_DIST, beta)
        assert SPAN_DIST.cdf(t) >= 1 - beta
        assert t == 1 or SPAN_DIST.cdf(t - 1) < 1 - beta


class CountingCdf:
    """A law whose CDF evaluations are counted."""

    def __init__(self, dist):
        self.dist = dist
        self.calls = 0

    def cdf(self, x):
        self.calls += 1
        return self.dist.cdf(x)


def test_default_searches_take_fixed_cdf_calls():
    # estimate-params' defaults; each search bisects 1..upper after the call at upper:
    # 10,000 and 86,400
    degree, span = CountingCdf(default_degree_dist()), CountingCdf(default_span_dist())
    assert (estimate_capacity(degree, 0.90), estimate_timeout(span, 0.05)) == (13, 22)
    assert (degree.calls, span.calls) == (14, 17)


def test_no_solution_raises():
    # a CDF never decreases, so a search whose limit misses the level gives up
    # without scanning; the last span law's 95% point lies near 300,000 s
    hopeless = [
        (estimate_capacity, DEGREE_DIST, 0.999999, {"max_degree": 5}),
        (estimate_timeout, SPAN_DIST, 0.05, {"max_timeout_s": 3}),
        (estimate_timeout, ErlangDist(1e-5, 1), 0.05, {}),
    ]
    for estimate, dist, level, limit in hopeless:
        law = CountingCdf(dist)
        with pytest.raises(NoSolutionError):
            estimate(law, level, **limit)
        assert law.calls <= 2


def scan_covering(dist, level, upper):
    """Independent oracle: the first x in 1..upper with CDF(x) >= level, None if none is."""
    return next((x for x in range(1, upper + 1) if dist.cdf(x) >= level), None)


MEANS = hs.floats(0.05, 150.0)
LAWS = hs.one_of(
    hs.builds(lambda k, mean: ErlangDist(k / mean, k), hs.integers(1, 40), MEANS),
    hs.builds(lambda w, k1, m1, k2, m2: HyperErlangDist(
        [ErlangBranch(w, k1 / m1, k1), ErlangBranch(1.0 - w, k2 / m2, k2)]),
        hs.floats(0.01, 0.99), hs.integers(1, 12), MEANS, hs.integers(1, 12), MEANS),
    hs.builds(PointMassDist, hs.floats(0.0, 150.0)),
    # two phases, the first feeding the second: alpha = (p, 1 - p), T = [[-a, b], [0, -c]]
    hs.builds(lambda p, a, share, c: PhaseTypeDist([p, 1.0 - p], [[-a, share * a], [0.0, -c]]),
              hs.floats(0.0, 1.0), hs.floats(0.05, 5.0), hs.floats(0.0, 1.0),
              hs.floats(0.05, 5.0)),  # means up to 40: each CDF call is one expm
)


@settings(max_examples=500)
@given(LAWS, hs.floats(0.001, 0.999), hs.integers(1, 120),
       hs.sampled_from([estimate_capacity, estimate_timeout]))
def test_search_matches_linear_scan(law, level, upper, estimate):
    # capacity covers the level itself, timeout 1 - beta
    want = scan_covering(law, level if estimate is estimate_capacity else 1.0 - level, upper)
    counted = CountingCdf(law)
    if want is None:
        with pytest.raises(NoSolutionError):
            estimate(counted, level, upper)
        assert counted.calls == 1
    else:
        assert estimate(counted, level, upper) == want
        assert counted.calls <= 1 + math.ceil(math.log2(upper))


def test_ph_timeout_in_a_logarithmic_number_of_cdf_calls():
    # mean 10^4 s: the 95% point lies near 30,000 s, one expm per CDF call
    law = CountingCdf(PhaseTypeDist([1.0, 0.0], [[-2e-4, 1e-4], [0.0, -1e-4]]))
    assert estimate_timeout(law, 0.05) == 29_958
    assert law.calls <= 1 + math.ceil(math.log2(86_400))


def test_threshold_bounds_validated():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            estimate_capacity(DEGREE_DIST, bad)
        with pytest.raises(ConfigError):
            estimate_timeout(SPAN_DIST, bad)


def test_window_params_validation():
    p = WindowParams(13, 22)
    assert (p.capacity, p.timeout_s) == (13, 22)
    with pytest.raises(ConfigError):
        WindowParams(0, 22)
    with pytest.raises(ConfigError):
        WindowParams(13, 0)
