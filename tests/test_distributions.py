"""Distribution objects, generator validation/repair, EM fitting, serialization.

Expected values are either closed forms computed in-test by an independent
route (finite-sum CDFs, Monte Carlo, Kolmogorov distance) or frozen reference
numbers checked once against their sources and pinned here.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy.special import gammaln, logsumexp

from swakit import distributions

from swakit.distributions import (
    MAX_PHASES,
    ErlangBranch,
    ErlangDist,
    HyperErlangDist,
    PhaseTypeDist,
    PointMassDist,
    dist_from_dict,
    dist_to_dict,
    fit_hyper_erlang_em,
    ph_from_mean_scv,
    read_json,
    validate_generator,
    write_json,
)
from swakit.distributions import _cumsum2, _em_fixed_phases, _logsumexp0
from swakit.errors import DistributionError, GeneratorValidationError

# The default degree law and span mixture used throughout the project.
DEGREE_DIST = ErlangDist(8.7963, 100)
SPAN_BRANCHES = [ErlangBranch(0.0247, 0.0404, 1), ErlangBranch(0.9753, 0.3666, 4)]

# Two-phase arrival fit with a negative off-diagonal at (0,1): needs repair.
RAW_ARRIVAL = ([1.0, 0.0], [[-0.1452, -0.0329], [0.0, -0.1191]])
# Two-phase fit of the dense combined stream: already a valid generator.
DENSE_ARRIVAL = ([1.0, 0.0], [[-1.1215, 0.0001], [0.0, -0.0021]])
# Four-phase service fit with a negative off-diagonal at (2,3): needs repair.
RAW_SERVICE = (
    [1.0, 0.0, 0.0, 0.0],
    [
        [-378.3987, 378.3987, 0.0, 0.0],
        [0.0, -378.3987, 378.3987, 0.0],
        [0.0, 0.0, -12669.0969, -0.0000346],
        [0.0, 0.0, 0.0, -0.05120],
    ],
)


def erlang_cdf_finite_sum(x, rate, k):
    """Independent oracle: 1 - e^{-lx} sum_{j<k} (lx)^j / j!  (safe for k <= 30)."""
    if x <= 0:
        return 0.0
    acc = 0.0
    for j in range(k):
        acc += (rate * x) ** j / math.factorial(j)
    return 1.0 - math.exp(-rate * x) * acc


# ---------------------------------------------------------------------------
# Erlang
# ---------------------------------------------------------------------------


def test_erlang_cdf_matches_finite_sum_oracle():
    for rate in (0.5, 2.0, 8.7963):
        for k in (1, 3, 10, 30):
            d = ErlangDist(rate, k)
            for x in (0.1, 0.5, 1.0, 3.0, 10.0, 40.0):
                assert d.cdf(x) == pytest.approx(
                    erlang_cdf_finite_sum(x, rate, k), abs=1e-10
                )


def test_degree_cdf_checkpoints():
    # Reference checkpoints for the default degree law, tolerance 1e-3.
    assert DEGREE_DIST.cdf(12) == pytest.approx(0.7186, abs=1e-3)
    assert DEGREE_DIST.cdf(13) == pytest.approx(0.9200, abs=1e-3)
    assert DEGREE_DIST.cdf(14) == pytest.approx(0.9857, abs=1e-3)


def test_erlang_basic_identities():
    d = ErlangDist(2.0, 4)
    assert d.mean() == pytest.approx(2.0)
    assert d.var() == pytest.approx(1.0)
    assert d.scv() == pytest.approx(0.25)
    assert d.moment(1) == pytest.approx(d.mean())
    assert d.moment(2) == pytest.approx(d.var() + d.mean() ** 2)
    assert d.cdf(0.0) == 0.0


def test_erlang_cdf_monotone_bounded():
    xs = np.linspace(0.0, 40.0, 1000)
    vals = np.array([DEGREE_DIST.cdf(x) for x in xs])
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert DEGREE_DIST.cdf(200.0) == pytest.approx(1.0, abs=1e-9)


def test_erlang_rejects_negative_argument():
    with pytest.raises(DistributionError):
        ErlangDist(1.0, 2).cdf(-0.5)
    with pytest.raises(DistributionError):
        ErlangDist(1.0, 2).pdf(-0.5)


def test_erlang_validates_parameters():
    with pytest.raises(DistributionError):
        ErlangDist(0.0, 3)
    with pytest.raises(DistributionError):
        ErlangDist(1.0, 0)


def test_pdf_is_cdf_derivative():
    for d in (ErlangDist(2.0, 3), HyperErlangDist(SPAN_BRANCHES)):
        for x in (0.5, 2.0, 8.0, 15.0):
            h = 1e-5 * x
            num = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
            assert num == pytest.approx(d.pdf(x), rel=1e-4)


# ---------------------------------------------------------------------------
# Hyper-Erlang
# ---------------------------------------------------------------------------


def test_span_mixture_mean_and_timeout_threshold():
    d = HyperErlangDist(SPAN_BRANCHES)
    assert d.mean() == pytest.approx(11.252957, abs=1e-5)
    assert d.mean() == pytest.approx(11.2513, rel=0.01)  # reference value, 1%
    assert d.cdf(22.0) >= 0.95
    assert d.cdf(21.0) < 0.95


def test_single_branch_mixture_equals_erlang():
    mix = HyperErlangDist([ErlangBranch(1.0, 2.0, 3)])
    plain = ErlangDist(2.0, 3)
    for x in (0.0, 0.3, 1.0, 2.5, 9.0):
        assert mix.cdf(x) == pytest.approx(plain.cdf(x), abs=1e-12)
        if x > 0:
            assert mix.pdf(x) == pytest.approx(plain.pdf(x), abs=1e-12)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(DistributionError):
        HyperErlangDist([ErlangBranch(0.5, 1.0, 1), ErlangBranch(0.4, 2.0, 2)])


def test_mixture_mean_is_weighted_branch_mean():
    d = HyperErlangDist(SPAN_BRANCHES)
    expect = 0.0247 * (1 / 0.0404) + 0.9753 * (4 / 0.3666)
    assert d.mean() == pytest.approx(expect, rel=1e-12)


def test_mixture_sampling_mean():
    d = HyperErlangDist(SPAN_BRANCHES)
    rng = np.random.default_rng(42)
    xs = d.sample(1_000_000, rng)
    assert xs.mean() == pytest.approx(d.mean(), rel=0.01)


# ---------------------------------------------------------------------------
# Phase-type
# ---------------------------------------------------------------------------


def test_one_phase_ph_is_exponential():
    ph = PhaseTypeDist([1.0], [[-1.5]])
    for x in (0.1, 1.0, 3.0):
        assert ph.cdf(x) == pytest.approx(1 - math.exp(-1.5 * x), abs=1e-12)
        assert ph.pdf(x) == pytest.approx(1.5 * math.exp(-1.5 * x), abs=1e-12)
    assert ph.mean() == pytest.approx(1 / 1.5)
    assert ph.scv() == pytest.approx(1.0)


def test_erlang_as_phase_type_agrees():
    for d in (ErlangDist(2.0, 3), ErlangDist(0.3666, 4)):
        ph = d.as_phase_type()
        assert ph.is_valid_generator()
        for x in (1.0, 5.0, 20.0):
            assert ph.cdf(x) == pytest.approx(d.cdf(x), abs=1e-10)


def test_mixture_as_phase_type_agrees():
    d = HyperErlangDist(SPAN_BRANCHES)
    ph = d.as_phase_type()
    assert ph.order == 5
    for x in (1.0, 5.0, 20.0, 45.0):
        assert ph.cdf(x) == pytest.approx(d.cdf(x), abs=1e-10)
    assert ph.mean() == pytest.approx(d.mean(), rel=1e-10)


def test_ph_of_an_array_matches_each_point():
    # one stacked expm for all the points gives what one call per point gives, in any shape
    ph = HyperErlangDist([ErlangBranch(0.3, 2.0, 3), ErlangBranch(0.7, 0.5, 5)]).as_phase_type()
    assert ph.order == 8
    x = np.linspace(0.0, 40.0, 81)
    for f in (ph.cdf, ph.pdf):
        stacked, single = f(x), np.array([f(v) for v in x.tolist()])
        assert np.abs(stacked - single).max() <= 4e-16
        assert f(x.reshape(9, 9)).tolist() == stacked.reshape(9, 9).tolist()
        assert isinstance(f(2.5), float) and f(x[:0]).shape == (0,)


def test_ph_mean_matches_monte_carlo():
    ph = PhaseTypeDist(*DENSE_ARRIVAL)
    assert ph.is_valid_generator()
    rng = np.random.default_rng(7)
    xs = ph.sample(1_000_000, rng)
    assert xs.mean() == pytest.approx(ph.mean(), rel=0.01)


def test_ph_scv_of_erlang_structure():
    assert ErlangDist(3.0, 5).as_phase_type().scv() == pytest.approx(0.2, rel=1e-10)


def test_scaled_to_mean_preserves_shape():
    ph = PhaseTypeDist(*DENSE_ARRIVAL)
    scaled = ph.scaled_to_mean(9.778)
    assert scaled.mean() == pytest.approx(9.778, rel=1e-12)
    assert scaled.scv() == pytest.approx(ph.scv(), rel=1e-10)


def test_ph_from_mean_scv_matches_targets():
    for mean, scv in ((1.0, 4.0), (0.4, 3.0), (2.0, 1.0), (5.0, 0.3)):
        ph = ph_from_mean_scv(mean, scv)
        assert ph.is_valid_generator()
        assert ph.mean() == pytest.approx(mean, rel=1e-9)
        assert ph.scv() == pytest.approx(scv, rel=1e-6)


# ---------------------------------------------------------------------------
# generator validation and repair
# ---------------------------------------------------------------------------


def test_strict_validation_names_offending_entries():
    with pytest.raises(GeneratorValidationError) as err:
        validate_generator(PhaseTypeDist(*RAW_ARRIVAL), policy="strict")
    assert "(0, 1)" in str(err.value) or "(0,1)" in str(err.value)

    with pytest.raises(GeneratorValidationError) as err:
        validate_generator(PhaseTypeDist(*RAW_SERVICE), policy="strict")
    assert "(2, 3)" in str(err.value) or "(2,3)" in str(err.value)


def test_repair_clamps_and_reports():
    fixed, repairs = validate_generator(PhaseTypeDist(*RAW_ARRIVAL), policy="repair")
    assert fixed.is_valid_generator()
    assert any("(0,1)" in r or "(0, 1)" in r for r in repairs)
    assert fixed.T[0, 1] == 0.0
    # frozen mean of the repaired two-phase arrival law
    assert fixed.mean() == pytest.approx(6.887052341597796, rel=1e-9)

    fixed, repairs = validate_generator(PhaseTypeDist(*RAW_SERVICE), policy="repair")
    assert fixed.is_valid_generator()
    assert any("(2,3)" in r or "(2, 3)" in r for r in repairs)
    # frozen mean of the repaired four-phase service law
    assert fixed.mean() == pytest.approx(0.005364362644790566, rel=1e-9)
    # independent route: after the clamp, phases 0..2 chain to absorption
    expect = 1 / 378.3987 + 1 / 378.3987 + 1 / 12669.0969
    assert fixed.mean() == pytest.approx(expect, rel=1e-9)


def test_valid_generator_passes_unchanged():
    ph = PhaseTypeDist(*DENSE_ARRIVAL)
    out, repairs = validate_generator(ph, policy="strict")
    assert repairs == []
    assert np.array_equal(out.T, ph.T)
    out, repairs = validate_generator(ph, policy="repair")
    assert repairs == []

    erl = ErlangDist(2.0, 3).as_phase_type()
    out, repairs = validate_generator(erl, policy="strict")
    assert repairs == []
    assert np.array_equal(out.T, erl.T)


def test_validate_rejects_unknown_policy():
    with pytest.raises(DistributionError):
        validate_generator(PhaseTypeDist(*DENSE_ARRIVAL), policy="ignore")


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_branch_fit():
    truth = HyperErlangDist([ErlangBranch(0.35, 0.8, 2), ErlangBranch(0.65, 0.25, 5)])
    rng = np.random.default_rng(4)
    xs = truth.sample(20_000, rng)
    result = fit_hyper_erlang_em(xs, branches=2, max_phases=8)
    return truth, xs, result


def test_em_single_branch_recovers_mean():
    rng = np.random.default_rng(1)
    xs = DEGREE_DIST.sample(50_000, rng)
    result = fit_hyper_erlang_em(xs, branches=1, max_phases=100)
    assert result.dist.mean() == pytest.approx(11.37, rel=0.01)
    assert result.converged


def test_em_two_branch_ks_distance(two_branch_fit):
    truth, xs, result = two_branch_fit
    grid = np.linspace(0.01, np.quantile(xs, 0.999), 400)
    ks = max(abs(result.dist.cdf(x) - truth.cdf(x)) for x in grid)
    assert ks <= 0.02


def test_em_log_likelihood_nondecreasing(two_branch_fit):
    _, _, result = two_branch_fit
    ll = np.array(result.ll_trace)
    assert ll.size >= 1
    assert np.all(np.diff(ll) >= -1e-9)
    assert result.log_likelihood == pytest.approx(ll[-1])


def test_em_constant_sample_degenerates():
    result = fit_hyper_erlang_em(np.full(50, 3.25), branches=1, max_phases=10)
    assert result.degenerate
    assert result.dist.mean() == pytest.approx(3.25, rel=1e-9)
    # most peaked fit available: relative spread shrinks with the phase count
    assert result.dist.scv() == pytest.approx(1 / 10)


def test_em_input_validation():
    with pytest.raises(DistributionError):
        fit_hyper_erlang_em(np.array([1.0, 2.0, 3.0]), branches=2)  # too few
    with pytest.raises(DistributionError):
        fit_hyper_erlang_em(np.array([1.0, -2.0] * 20), branches=1)  # negative
    with pytest.raises(DistributionError):
        fit_hyper_erlang_em(np.ones(30), branches=0)


def test_em_refuses_max_phases_over_the_bound_before_any_em(monkeypatch):
    # a one-branch fit scans every phase count: an unbounded request would run for hours
    def no_work(*args, **kwargs):
        raise AssertionError("EM work on a refused request")

    with monkeypatch.context() as m:
        for name in ("_erlang_logpdf", "_em_fixed_phases", "_kmeans_log"):
            m.setattr(distributions, name, no_work)
        xs = np.random.default_rng(2).gamma(3.0, 1.0, 5000)
        with pytest.raises(DistributionError, match=rf"outside 1\.\.{MAX_PHASES} \(MAX_PHASES\)"):
            fit_hyper_erlang_em(xs, branches=1, max_phases=MAX_PHASES + 1)
    # more branches climb +-1 from the k-means start within a fixed budget: no bound needed
    fit = fit_hyper_erlang_em(xs[:200], branches=2, max_phases=MAX_PHASES + 1, max_iter=50)
    assert fit.em_runs >= 1


def _lse_columns(branches, rng):
    """Columns of ``branches`` log-terms: plain, tied maxima, -inf, all -inf, huge, +inf."""
    a = rng.normal(0.0, 20.0, (branches, 1200))
    a[:, 200:400] = np.round(a[:, 200:400] / 8.0)  # small integers: many tied maxima
    a[:, 400:500] = a[:1, 400:500]  # every entry tied (m = branches)
    a[:, 500:600][rng.random((branches, 100)) < 0.4] = -np.inf
    a[:, 600:650] = -np.inf
    a[:, 650:800] *= 1e306 / 20.0
    a[:, 800:900] = rng.choice([-745.0, -700.0, 0.0, 700.0, 709.0], (branches, 100))
    a[:, 900:950][rng.random((branches, 50)) < 0.3] = np.inf
    return a


@pytest.mark.parametrize("branches", range(1, 13))
def test_logsumexp_agrees_with_scipy(branches):
    a = _lse_columns(branches, np.random.default_rng(branches))
    # scipy on the (samples, branches) layout the EM used before it went branch-major
    want = logsumexp(np.ascontiguousarray(a.T), axis=1)
    got = _lse(a)
    assert got.tobytes() == _textbook_logsumexp0(a).tobytes()
    assert np.isneginf(got[600:650]).all()
    if branches < 8:  # numpy sums fewer than 8 terms in sequence, like the axis-0 sum
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_two_row_logsumexp_is_bitwise_the_textbook_at_corners():
    # every ordered pair of corner values: ties, signed zeros, infinities, NaN, overflow in
    # lo - hi and a subnormal; the two-row path must give the general form's bits either way up
    corners = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 709.0, -745.0, 1e308, -1e308, 5e-324]
    a = np.array(list(itertools.product(corners, repeat=2))).T
    got = _lse(a)
    assert got.tobytes() == _textbook_logsumexp0(a).tobytes()
    assert got.tobytes() == _lse(a[::-1]).tobytes()


@pytest.mark.parametrize("branches", [1, 2, 3, 8])
def test_logsumexp_nan_columns_are_bitwise_the_textbook(branches):
    # NaN among plain, -inf and +inf terms: a NaN column falls back like any other
    rng = np.random.default_rng(branches)
    a = rng.normal(0.0, 20.0, (branches, 400))
    a[rng.random(a.shape) < 0.3] = np.nan
    a[:, 200:300][rng.random((branches, 100)) < 0.3] = -np.inf
    a[:, 300:400][rng.random((branches, 100)) < 0.3] = np.inf
    assert _lse(a).tobytes() == _textbook_logsumexp0(a).tobytes()


def _lse(a):
    """``_logsumexp0``'s columns, checked against the sum it returns and, on two rows, against
    the same call writing into the EM's buffers."""
    got, total = _logsumexp0(a)
    with np.errstate(invalid="ignore"):  # inf + -inf in a corner case
        assert np.float64(total).tobytes() == got.sum().tobytes()
    if a.shape[0] == 2:
        buffered, _ = _logsumexp0(a, np.empty(a.shape[1]), np.empty(a.shape[1]))
        assert buffered.tobytes() == got.tobytes()
    return got


def _textbook_logsumexp0(a):
    """The log-sum-exp as first written: -inf through exp at each column's maxima."""
    top = a.max(axis=0)
    is_top = a == top
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(is_top, -np.inf, a) - top).sum(axis=0)
        m = is_top.sum(axis=0)
        out = np.log1p(s / m) + np.log(m) + top
        bad = ~np.isfinite(out)
        out[bad] = np.log(np.exp(a[:, bad]).sum(axis=0))
    return out


def _textbook_em(x, ks, weights, rates, tol, max_iter):
    """The EM loop as first written, a fresh temporary per operation: the bitwise oracle."""
    n = x.shape[0]
    k = np.asarray(ks)[:, None]
    w = np.array(weights, float)
    r = np.array(rates, float)
    log_x = np.log(x)
    trace = []
    prev = -np.inf
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        rate = r[:, None]
        logd = np.log(w)[:, None] + (k * np.log(rate) + (k - 1) * log_x - rate * x - gammaln(k))
        norm = _textbook_logsumexp0(logd)
        ll = float(norm.sum())
        trace.append(ll)
        resp = np.exp(logd - norm)
        tot = np.maximum(np.cumsum(resp, axis=1)[:, -1], 1e-300)
        w = tot / n
        r = k[:, 0] * tot / np.maximum((resp * x).sum(axis=1), 1e-300)
        if prev > -np.inf and abs(ll - prev) <= tol * max(abs(prev), 1.0):
            converged = True
            break
        prev = ll
    return w, r, trace, it, converged


def _oracle_samples(kind):
    rng = np.random.default_rng(23)
    if kind == "ties":  # five distinct values, each about 120 times
        return rng.integers(1, 6, 600).astype(float)
    if kind == "wide":  # 1e-3 to 1e6
        return 10.0 ** rng.uniform(-3.0, 6.0, 500)
    return np.where(rng.random(500) < 0.3, rng.gamma(2.0, 0.5, 500), rng.gamma(9.0, 1.5, 500))


def _fit_bits(fit):
    branches = fit.dist.branches if isinstance(fit.dist, HyperErlangDist) else [fit.dist]
    return (np.array(fit.ll_trace).tobytes(),
            np.array([getattr(b, "weight", 1.0) for b in branches]).tobytes(),
            np.array([b.rate for b in branches]).tobytes(),
            [b.phases for b in branches],
            fit.iterations, fit.converged, fit.em_runs, fit.em_iterations)


@pytest.mark.parametrize("kind", ["ties", "wide", "mixture"])
@pytest.mark.parametrize("branches", [1, 2, 3, 4])
@pytest.mark.parametrize("max_iter", [1, 2000])
def test_em_fit_is_bitwise_the_textbook_fit(monkeypatch, kind, branches, max_iter):
    xs = _oracle_samples(kind)
    got = fit_hyper_erlang_em(xs, branches=branches, max_iter=max_iter)
    monkeypatch.setattr(distributions, "_em_fixed_phases", _textbook_em)
    want = fit_hyper_erlang_em(xs, branches=branches, max_iter=max_iter)
    assert _fit_bits(got) == _fit_bits(want)


@settings(max_examples=60)
@given(hs.integers(1, 2000), hs.integers(0, 2**32 - 1),
       hs.lists(hs.tuples(hs.integers(0, 3999), hs.floats(0.0, 1e300)), max_size=20))
def test_complex_running_sums_are_each_rows_cumsum(n, seed, picks):
    # log-uniform over 5e-324..1e300 (subnormals among them), a tenth zeros, plus drawn values
    rng = np.random.default_rng(seed)
    rows = 10.0 ** rng.uniform(-323.3, 300.0, (2, n)) * (rng.random((2, n)) < 0.9)
    for at, value in picks:
        rows.flat[at % rows.size] = value
    z = _cumsum2(rows, np.empty(n, complex))
    assert z.real.tobytes() == np.cumsum(rows[0]).tobytes()
    assert z.imag.tobytes() == np.cumsum(rows[1]).tobytes()


def _em_with_path_counts(monkeypatch, *args):
    """``_em_fixed_phases(*args)``, and how often the two-row log-sum-exp wrote ``log(2)`` on a
    tie (``np.copyto`` with ``where``) and fell back (``np.isfinite``)."""
    counts = {"tie": 0, "fallback": 0}
    copyto, isfinite = np.copyto, np.isfinite

    def counted_copyto(*a, **kw):
        counts["tie"] += "where" in kw
        return copyto(*a, **kw)

    def counted_isfinite(*a, **kw):
        counts["fallback"] += 1
        return isfinite(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(np, "copyto", counted_copyto)
        m.setattr(np, "isfinite", counted_isfinite)
        got = _em_fixed_phases(*args)
    return got, counts


@pytest.mark.parametrize("max_iter", [1, 2000])
@pytest.mark.parametrize("case", ["identical", "zero-weight", "overflow"])
def test_two_branch_em_is_bitwise_the_textbook_on_its_corner_paths(monkeypatch, case, max_iter):
    # identical branches tie in every column; a zero weight makes a row -inf; 1e307 * x
    # overflows past 17.97, so with the zero weight those columns are -inf in both rows
    xs = _oracle_samples("mixture")
    w0, r0 = {"identical": ((0.5, 0.5), (0.4, 0.4)), "zero-weight": ((0.0, 1.0), (0.5, 0.3)),
              "overflow": ((0.0, 1.0), (0.5, 1e307))}[case]
    ks = (3, 3) if case == "identical" else (2, 5)
    with np.errstate(all="ignore"):
        want = _textbook_em(xs, ks, w0, r0, 1e-7, max_iter)
        got, counts = _em_with_path_counts(monkeypatch, xs, ks, w0, r0, 1e-7, max_iter)
    assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()
    assert (got[0].tobytes(), got[1].tobytes(), got[3:]) == (want[0].tobytes(), want[1].tobytes(),
                                                             want[3:])
    assert (counts["tie"] > 0) == (case == "identical")
    assert (counts["fallback"] > 0) == (case == "overflow")


def _em_step_by_hand(xs, ks, weights, rates):
    """One EM step, sample by sample, with correctly rounded sums: (weights, rates, ll)."""
    resp, lls = [], []
    for x in xs:
        logs = [math.log(w) + k * math.log(r) + (k - 1) * math.log(x) - r * x - math.lgamma(k)
                for w, r, k in zip(weights, rates, ks)]
        top = max(logs)
        norm = top + math.log(math.fsum(math.exp(v - top) for v in logs))
        lls.append(norm)
        resp.append([math.exp(v - norm) for v in logs])
    tot = [math.fsum(row[j] for row in resp) for j in range(len(ks))]
    new_rates = [ks[j] * tot[j] / math.fsum(row[j] * x for row, x in zip(resp, xs))
                 for j in range(len(ks))]
    return [t / len(xs) for t in tot], new_rates, math.fsum(lls)


@pytest.mark.parametrize("ks, weights, rates", [
    ((2, 5), (0.4, 0.6), (1.1, 0.3)),
    ((1, 3, 7), (0.2, 0.5, 0.3), (2.0, 0.9, 0.35)),
])
def test_em_step_matches_brute_force(ks, weights, rates):
    rng = np.random.default_rng(11)
    xs = np.where(rng.random(300) < 0.5, rng.gamma(2.0, 0.5, 300), rng.gamma(6.0, 2.0, 300))
    w, r, trace, iters, _ = _em_fixed_phases(xs, ks, weights, rates, tol=1e-7, max_iter=1)
    want_w, want_r, want_ll = _em_step_by_hand(xs.tolist(), ks, weights, rates)
    assert iters == 1 and len(trace) == 1
    np.testing.assert_allclose(w, want_w, rtol=1e-12, atol=0)
    np.testing.assert_allclose(r, want_r, rtol=1e-12, atol=0)
    assert trace[0] == pytest.approx(want_ll, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_all_types(tmp_path):
    dists = [
        ErlangDist(8.7963, 100),
        HyperErlangDist(SPAN_BRANCHES),
        PhaseTypeDist(*DENSE_ARRIVAL),
        PointMassDist(5.0),
    ]
    for d in dists:
        doc = dist_to_dict(d)
        back = dist_from_dict(doc)
        assert type(back) is type(d)
        if not isinstance(d, PointMassDist):
            for x in (0.5, 3.0, 12.0):
                assert back.cdf(x) == pytest.approx(d.cdf(x), abs=1e-12)
        path = tmp_path / f"{doc['type']}.json"
        write_json(path, doc)
        again = dist_from_dict(read_json(path, "distribution"))
        assert dist_to_dict(again) == doc


def test_json_field_names():
    doc = dist_to_dict(ErlangDist(2.0, 3))
    assert doc == {"type": "erlang", "lambda": 2.0, "k": 3}
    doc = dist_to_dict(HyperErlangDist([ErlangBranch(1.0, 2.0, 3)]))
    assert doc["type"] == "hyper_erlang"
    assert doc["branches"] == [{"alpha": 1.0, "lambda": 2.0, "k": 3}]
    doc = dist_to_dict(PhaseTypeDist([1.0], [[-2.0]]))
    assert doc == {"type": "ph", "alpha": [1.0], "T": [[-2.0]]}


def test_json_rejects_unknown_type():
    with pytest.raises(DistributionError):
        dist_from_dict({"type": "zipf", "s": 1.1})


def test_point_mass_behavior():
    d = PointMassDist(4.0)
    assert d.cdf(3.999) == 0.0
    assert d.cdf(4.0) == 1.0
    assert d.mean() == 4.0
    assert d.var() == 0.0
    rng = np.random.default_rng(0)
    assert np.all(d.sample(5, rng) == 4.0)
