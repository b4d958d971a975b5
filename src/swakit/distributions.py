"""Workload distributions: Erlang, hyper-Erlang mixtures, and phase-type laws.

These three families model the workload quantities the rest of the package
consumes: service composition degrees, instance response-time spans, and
inter-arrival processes.  Erlang and hyper-Erlang evaluation is done through
the regularized lower incomplete gamma function, which stays stable at large
phase counts where the textbook finite sum overflows.  Phase-type laws are
kept in (alpha, T) form with the exit-rate vector derived as ``-T @ 1``.

Generator matrices read from external sources are not trusted: they pass
through :func:`validate_generator`, which either rejects structural
violations (strict) or clamps them and reports every change (repair).
Repairs are logged, never silent.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import block_diag, expm
from scipy.special import gammainc, gammaln

from .errors import ConfigError, DistributionError, GeneratorValidationError, NumericalError

log = logging.getLogger(__name__)

MAX_PHASES = 10_000  # a one-branch fit scans every count: ~0.25 s at 10,000 on 5,000 samples

__all__ = [
    "ErlangDist",
    "ErlangBranch",
    "HyperErlangDist",
    "PhaseTypeDist",
    "PointMassDist",
    "FitResult",
    "validate_generator",
    "check_fit",
    "fit_hyper_erlang_em",
    "ph_from_mean_scv",
    "dist_to_dict",
    "dist_from_dict",
    "read_json",
    "write_json",
    "json_value",
]


def _check_x(x):
    """Coerce ``x`` to a float array, rejecting negative values."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise DistributionError("distribution argument must be >= 0")
    return arr


def _as_given(arr, x):
    """Return ``arr`` as a scalar if ``x`` was scalar."""
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(arr)
    return arr


@dataclass(frozen=True)
class ErlangDist:
    """Erlang law with rate ``rate`` and integer phase count ``phases``.

    The CDF is evaluated as the regularized lower incomplete gamma function
    P(phases, rate*x) rather than the literal finite exponential sum; the two
    agree wherever the sum is computable, and the gamma form does not
    overflow at phase counts in the hundreds.
    """

    rate: float
    phases: int

    def __post_init__(self):
        if not (self.rate > 0 and np.isfinite(self.rate)):
            raise DistributionError(f"rate must be positive, got {self.rate}")
        if int(self.phases) != self.phases or self.phases < 1:
            raise DistributionError(f"phases must be a positive integer, got {self.phases}")
        object.__setattr__(self, "phases", int(self.phases))

    def pdf(self, x):
        xa = _check_x(x)
        k, lam = self.phases, self.rate
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = k * math.log(lam) + (k - 1) * np.log(xa) - lam * xa - gammaln(k)
            out = np.where(xa > 0, np.exp(logp), lam if k == 1 else 0.0)
        return _as_given(out, x)

    def cdf(self, x):
        xa = _check_x(x)
        return _as_given(gammainc(self.phases, self.rate * xa), x)

    def mean(self):
        return self.phases / self.rate

    def var(self):
        return self.phases / self.rate**2

    def moment(self, order: int) -> float:
        """Raw moment E[X**order]: prod_{i=0}^{order-1} (phases + i) / rate**order."""
        k, lam = self.phases, self.rate
        out = 1.0
        for i in range(order):
            out *= (k + i) / lam
        return out

    def scv(self):
        return 1.0 / self.phases

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.gamma(shape=self.phases, scale=1.0 / self.rate, size=n)

    def as_phase_type(self) -> "PhaseTypeDist":
        """Express the law as a chain of ``phases`` identical exponential stages."""
        k, lam = self.phases, self.rate
        T = np.diag(np.full(k, -lam)) + np.diag(np.full(k - 1, lam), 1)
        alpha = np.zeros(k)
        alpha[0] = 1.0
        return PhaseTypeDist(alpha, T)


@dataclass(frozen=True)
class ErlangBranch:
    """One weighted Erlang component of a hyper-Erlang mixture."""

    weight: float
    rate: float
    phases: int


class HyperErlangDist:
    """Finite mixture of Erlang laws with weights summing to one."""

    def __init__(self, branches: Sequence[ErlangBranch]):
        if not branches:
            raise DistributionError("hyper-Erlang needs at least one branch")
        self.branches = tuple(
            b if isinstance(b, ErlangBranch) else ErlangBranch(*b) for b in branches
        )
        w = np.array([b.weight for b in self.branches])
        if np.any(w < 0):
            raise DistributionError("branch weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise DistributionError(f"branch weights must sum to 1, got {w.sum()!r}")
        # constructing the components also validates rates/phase counts
        self._components = tuple(ErlangDist(b.rate, b.phases) for b in self.branches)
        self._weights = w

    def __repr__(self):
        parts = ", ".join(
            f"({b.weight:g}, rate={b.rate:g}, k={b.phases})" for b in self.branches
        )
        return f"HyperErlangDist([{parts}])"

    def pdf(self, x):
        xa = _check_x(x)
        out = sum(w * c.pdf(xa) for w, c in zip(self._weights, self._components))
        return _as_given(out, x)

    def cdf(self, x):
        xa = _check_x(x)
        out = sum(w * c.cdf(xa) for w, c in zip(self._weights, self._components))
        return _as_given(out, x)

    def mean(self):
        return float(sum(w * c.mean() for w, c in zip(self._weights, self._components)))

    def moment(self, order: int) -> float:
        return float(
            sum(w * c.moment(order) for w, c in zip(self._weights, self._components))
        )

    def var(self):
        return self.moment(2) - self.mean() ** 2

    def scv(self):
        return self.var() / self.mean() ** 2

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.branches), size=n, p=self._weights)
        out = np.empty(n)
        for j, comp in enumerate(self._components):
            mask = idx == j
            cnt = int(mask.sum())
            if cnt:
                out[mask] = comp.sample(cnt, rng)
        return out

    def as_phase_type(self) -> "PhaseTypeDist":
        """Block-diagonal phase-type form, one Erlang chain per branch."""
        chains = [c.as_phase_type() for c in self._components]
        return PhaseTypeDist(np.concatenate([w * ph.alpha for w, ph in zip(self._weights, chains)]),
                             block_diag(*(ph.T for ph in chains)))


class PhaseTypeDist:
    """Phase-type law given by an initial vector and sub-generator matrix.

    The exit-rate vector is always derived as ``-T @ 1``.  Construction only
    checks shapes and finiteness; structural validity (sign pattern, row
    sums) is the business of :func:`validate_generator`, so that generators
    transcribed from external sources can be loaded first and repaired
    afterwards.
    """

    def __init__(self, alpha, T):
        self.alpha = np.asarray(alpha, dtype=float).ravel()
        self.T = np.asarray(T, dtype=float)
        if self.T.ndim != 2 or self.T.shape[0] != self.T.shape[1]:
            raise DistributionError(f"T must be square, got shape {self.T.shape}")
        if self.alpha.shape[0] != self.T.shape[0]:
            raise DistributionError(
                f"alpha length {self.alpha.shape[0]} does not match T order {self.T.shape[0]}"
            )
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.T))):
            raise DistributionError("alpha and T must be finite")

    @property
    def order(self) -> int:
        return self.T.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        return -self.T @ np.ones(self.order)

    def __repr__(self):
        return f"PhaseTypeDist(order={self.order})"

    def generator_violations(self) -> list:
        """List structural problems with (alpha, T), empty when valid."""
        probs = []
        m = self.order
        for i in range(m):
            if self.T[i, i] >= 0:
                probs.append(f"diagonal ({i},{i}) = {self.T[i, i]:g} must be negative")
            for j in range(m):
                if i != j and self.T[i, j] < 0:
                    probs.append(
                        f"off-diagonal ({i},{j}) = {self.T[i, j]:g} must be non-negative"
                    )
        rows = self.T.sum(axis=1)
        for i in range(m):
            if rows[i] > 1e-9:
                probs.append(f"row {i} sums to {rows[i]:g} > 0 (negative exit rate)")
        if np.any(self.alpha < -1e-12):
            probs.append("alpha has negative entries")
        if self.alpha.sum() > 1 + 1e-9:
            probs.append(f"alpha sums to {self.alpha.sum():g} > 1")
        return probs

    def is_valid_generator(self) -> bool:
        return not self.generator_violations()

    def _require_valid(self, what):
        probs = self.generator_violations()
        if probs:
            raise GeneratorValidationError(
                [f"cannot {what} on invalid generator"] + probs
            )

    def _expm_form(self, x, what, right):
        """``alpha @ expm(T * v) @ right`` at each point ``v`` of ``x``, from one stacked ``expm``
        (scipy takes each matrix alone); the products run per point, as for one point."""
        self._require_valid(f"evaluate the {what}")
        xa = _check_x(x)
        stack = expm(self.T * np.ravel(xa)[:, None, None])
        return _as_given(np.array([self.alpha @ e @ right for e in stack]).reshape(xa.shape), x)

    def cdf(self, x):
        return 1.0 - self._expm_form(x, "cdf", np.ones(self.order))

    def pdf(self, x):
        return self._expm_form(x, "pdf", self.exit_rates)

    def moment(self, order: int) -> float:
        """Raw moment (-1)**order * order! * alpha @ T**-order @ 1.

        A singular T is surfaced as a numerical error rather than masked.
        """
        vec = np.ones(self.order)
        try:
            for _ in range(order):
                vec = np.linalg.solve(self.T, vec)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"T is singular, cannot compute moments: {exc}") from exc
        return float((-1) ** order * math.factorial(order) * (self.alpha @ vec))

    def mean(self):
        # point mass at zero carried by 1 - sum(alpha) contributes nothing
        return self.moment(1)

    def var(self):
        return self.moment(2) - self.mean() ** 2

    def scv(self):
        return self.var() / self.mean() ** 2

    def scaled_to_mean(self, target_mean: float) -> "PhaseTypeDist":
        """Return a copy with T scaled so that the mean equals ``target_mean``."""
        if target_mean <= 0:
            raise DistributionError("target mean must be positive")
        return PhaseTypeDist(self.alpha, self.T * (self.mean() / target_mean))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` absorption times by simulating the phase process in bulk."""
        self._require_valid("sample")
        m = self.order
        # jump-chain: row s -> phases 0..m-1 then absorption in column m
        diag = -np.diag(self.T)
        jump = np.zeros((m, m + 1))
        for s in range(m):
            if diag[s] <= 0:
                raise DistributionError(f"phase {s} has zero exit rate, cannot sample")
            jump[s, :m] = self.T[s] / diag[s]
            jump[s, s] = 0.0
            jump[s, m] = self.exit_rates[s] / diag[s]
        cum = np.cumsum(jump, axis=1)
        cum[:, -1] = 1.0

        a_sum = self.alpha.sum()
        probs = np.append(np.clip(self.alpha, 0, None), max(0.0, 1.0 - a_sum))
        probs = probs / probs.sum()
        state = rng.choice(m + 1, size=n, p=probs)
        times = np.zeros(n)
        alive = state < m
        while np.any(alive):
            idx = np.nonzero(alive)[0]
            s = state[idx]
            times[idx] += rng.exponential(1.0, idx.size) / diag[s]
            u = rng.random(idx.size)
            nxt = (u[:, None] >= cum[s]).sum(axis=1)
            state[idx] = nxt
            alive[idx] = nxt < m
        return times


@dataclass(frozen=True)
class PointMassDist:
    """Degenerate law concentrated at a single value (useful in tests/configs)."""

    value: float

    def __post_init__(self):
        if not (self.value >= 0 and np.isfinite(self.value)):
            raise DistributionError(f"point mass must sit at a finite x >= 0, got {self.value}")

    def pdf(self, x):  # density does not exist; kept for interface symmetry
        xa = _check_x(x)
        return _as_given(np.where(xa == self.value, np.inf, 0.0), x)

    def cdf(self, x):
        xa = _check_x(x)
        return _as_given((xa >= self.value).astype(float), x)

    def mean(self):
        return self.value

    def var(self):
        return 0.0

    def moment(self, order):
        return self.value**order

    def scv(self):
        return 0.0

    def sample(self, n, rng):
        return np.full(n, float(self.value))


def validate_generator(dist: PhaseTypeDist, policy: str = "strict"):
    """Check or repair the structural constraints of a phase-type generator.

    Args:
        dist: candidate distribution, possibly transcribed with errors.
        policy: ``"strict"`` raises on any violation; ``"repair"`` clamps
            negative off-diagonals to zero, rebalances diagonals so no row
            produces a negative exit rate, renormalizes alpha, and reports
            each change.

    Returns:
        Tuple ``(dist, repairs)`` where ``repairs`` is a list of
        human-readable descriptions (empty when nothing was wrong).
    """
    if policy not in ("strict", "repair"):
        raise DistributionError(f"unknown validation policy {policy!r}")
    violations = dist.generator_violations()
    if not violations:
        return dist, []
    if policy == "strict":
        raise GeneratorValidationError(violations)

    T = dist.T.copy()
    alpha = dist.alpha.copy()
    repairs = []
    m = T.shape[0]
    for i in range(m):
        for j in range(m):
            if i != j and T[i, j] < 0:
                repairs.append(f"off-diagonal ({i},{j}) = {T[i, j]:g} clamped to 0")
                T[i, j] = 0.0
    for i in range(m):
        off = T[i].sum() - T[i, i]
        if T[i, i] >= 0:
            new = -off if off > 0 else -1.0
            repairs.append(f"diagonal ({i},{i}) = {T[i, i]:g} reset to {new:g}")
            T[i, i] = new
        elif T[i].sum() > 1e-12:
            repairs.append(
                f"diagonal ({i},{i}) = {T[i, i]:g} rebalanced to {-off:g} "
                "so the exit rate is non-negative"
            )
            T[i, i] = -off
    if np.any(alpha < 0):
        repairs.append("negative alpha entries clamped to 0")
        alpha = np.clip(alpha, 0, None)
    s = alpha.sum()
    if s > 1 + 1e-9:
        repairs.append(f"alpha renormalized from sum {s:g} to 1")
        alpha = alpha / s
    for msg in repairs:
        log.warning("generator repair: %s", msg)
    repaired = PhaseTypeDist(alpha, T)
    leftover = repaired.generator_violations()
    if leftover:  # pragma: no cover - repair should always converge
        raise GeneratorValidationError(leftover)
    return repaired, repairs


def ph_from_mean_scv(mean: float, scv: float) -> PhaseTypeDist:
    """Two-moment phase-type fit: hyperexponential above SCV 1, Erlang mixture below.

    For scv <= 1 this uses the classic mixture of Erlang(k) and Erlang(k+1)
    with a common rate, which matches mean and SCV exactly whenever
    1/(k+1) <= scv.  For scv > 1 it uses the balanced-means two-phase
    hyperexponential.
    """
    if mean <= 0:
        raise DistributionError("mean must be positive")
    if scv <= 0:
        raise DistributionError("scv must be positive (use a point mass for zero variance)")
    if abs(scv - 1.0) < 1e-12:
        return PhaseTypeDist([1.0], [[-1.0 / mean]])
    if scv > 1.0:
        p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
        l1 = 2.0 * p / mean
        l2 = 2.0 * (1.0 - p) / mean
        return PhaseTypeDist([p, 1.0 - p], [[-l1, 0.0], [0.0, -l2]])
    k = int(math.floor(1.0 / scv))
    # guard against floating point putting us just outside [1/(k+1), 1/k]
    if 1.0 / k < scv:
        k -= 1
    kk = k + 1  # order of the larger branch; the weight formula is stated in it
    p = (kk * scv - math.sqrt(kk * (1.0 + scv) - kk * kk * scv)) / (1.0 + scv)
    lam = (kk - p) / mean
    mix = []
    if p > 1e-14:
        mix.append(ErlangBranch(p, lam, k))
    if 1.0 - p > 1e-14:
        mix.append(ErlangBranch(1.0 - p, lam, k + 1))
    if len(mix) == 1:
        mix = [ErlangBranch(1.0, lam, mix[0].phases)]
    return HyperErlangDist(mix).as_phase_type()


# ---------------------------------------------------------------------------
# hyper-Erlang fitting
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """Outcome of an EM fit: the distribution plus convergence diagnostics."""

    dist: object
    log_likelihood: float
    ll_trace: list
    iterations: int
    converged: bool
    degenerate: bool = False
    em_runs: int = 0  # EM runs over all candidate phase-count vectors
    em_iterations: int = 0  # EM iterations summed over those runs


def _erlang_logpdf(x, log_x, rate, k):
    return k * np.log(rate) + (k - 1) * log_x - rate * x - gammaln(k)


def _logsumexp0(a, out=None, tmp=None):
    """``log(sum(exp(a), axis=0))`` in ``scipy.special.logsumexp``'s order, and the sum of it as
    a float: the ``m`` maxima of a column stay out of the shifted sum ``s``, giving
    ``log1p(s / m) + log(m) + max``, or ``log(sum(exp(a)))`` where that is not finite (an all
    ``-inf`` column gives ``-inf``).  Two rows take a shorter form with the same bits (see
    :func:`_em_fixed_phases`) and write into ``out`` and ``tmp`` where given."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if a.shape[0] == 2:
            hi = np.maximum(a[0], a[1], out=out)
            d = np.subtract(np.minimum(a[0], a[1], out=tmp), hi, out=tmp)  # <= 0, or NaN
            tie = d == 0 if np.fmax.reduce(d, initial=-np.inf) == 0 else None
            out = np.log1p(np.exp(d, out=d), out=d)
            if tie is not None:
                np.copyto(out, np.log(2.0), where=tie)
            out = np.add(out, hi, out=hi)
        else:
            top = a.max(axis=0)
            is_top = a == top
            # The maxima are dropped by multiplying exp(a - top) by ~is_top, not by sending
            # -inf through exp or assigning through the mask: numpy takes a slow path for
            # both.  On a (2, 13,997) block (numpy 2.4.6, 2-vCPU Xeon) exp took 249 us with
            # -inf in the array and 39 us without, np.where 130 us, e[is_top] = 0 177 us, the
            # product 42 us.  Only columns whose result is not finite can differ between the
            # two forms, and those are recomputed below.
            s = (np.exp(a - top) * ~is_top).sum(axis=0)
            m = is_top.sum(axis=0)
            out = np.log1p(s / m) + np.log(np.arange(1, a.shape[0] + 1))[m - 1] + top
        total = float(out.sum())
        if not math.isfinite(total):  # then some column is not finite
            bad = ~np.isfinite(out)
            out[bad] = np.log(np.exp(a[:, bad]).sum(axis=0))
            total = float(out.sum())
    return out, total


def _cumsum2(rows, z):
    """``np.cumsum`` of both rows in one pass, as the parts of the complex128 ``z``."""
    np.copyto(z.real, rows[0])
    np.copyto(z.imag, rows[1])
    return np.add.accumulate(z, out=z)


def _em_fixed_phases(x, ks, weights, rates, tol, max_iter):
    """EM updates for a hyper-Erlang with a fixed phase-count vector; array row j is branch j.

    Every float is that of the plain step (``_erlang_logpdf``, the general log-sum-exp,
    ``np.cumsum``), though two branches fuse operations:
    - their log-sum-exp is ``log1p(exp(lo - hi)) + hi``, with ``hi``/``lo`` a column's max/min,
      and ``log(2) + hi`` on a tie (written only when a column ties): the general form less its
      zero terms (``exp(0) * 0`` in ``s``, ``s`` 0.0 on a tie, and ``log(1)``);
    - both rows' running sums come from one pass over them interleaved as complex128: a complex
      add is the two float adds;
    - the ``log(sum(exp))`` fallback runs only when the log-likelihood (the columns' sum) is not
      finite, and recomputes only the columns that are not finite."""
    n = x.shape[0]
    k = np.asarray(ks)[:, None]
    w = np.array(weights, float)
    r = np.array(rates, float)
    shape_term = (k - 1) * np.log(x)
    log_gamma_k = gammaln(k)
    # Each step writes into these buffers instead of allocating a fresh temporary per
    # operation; the operations and their grouping are _erlang_logpdf's, so every float
    # matches it.
    logd, tmp = np.empty(shape_term.shape), np.empty(shape_term.shape)
    bufs = (np.empty(n), np.empty(n)) if len(k) == 2 else ()  # for the two-row log-sum-exp
    z = np.empty(n, complex) if bufs else None
    trace = []
    prev = -np.inf
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        np.add(k * np.log(r[:, None]), shape_term, out=logd)
        logd -= np.multiply(r[:, None], x, out=tmp)
        logd -= log_gamma_k
        logd += np.log(w)[:, None]
        norm, ll = _logsumexp0(logd, *bufs)
        trace.append(ll)
        resp = np.exp(np.subtract(logd, norm, out=logd), out=logd)
        # tot is summed in sequence (cumsum), sum(resp * x) pairwise (sum): both feed the bits
        tot = _cumsum2(resp, z)[-1:].view(float) if bufs else np.cumsum(resp, 1, out=tmp)[:, -1]
        tot = np.maximum(tot, 1e-300)
        w = tot / n
        r = k[:, 0] * tot / np.maximum(np.multiply(resp, x, out=tmp).sum(axis=1), 1e-300)
        if prev > -np.inf and abs(ll - prev) <= tol * max(abs(prev), 1.0):
            converged = True
            break
        prev = ll
    return w, r, trace, it, converged


def _kmeans_log(x, n_clusters, iters=60):
    """Deterministic 1-d k-means on log values, centers seeded at quantiles."""
    lx = np.log(x)
    qs = np.linspace(0, 1, n_clusters + 2)[1:-1]
    centers = np.quantile(lx, qs)
    centers = np.unique(centers)
    while centers.size < n_clusters:  # identical quantiles: nudge apart
        centers = np.append(centers, centers[-1] + 1e-6 * (centers.size + 1))
    labels = np.zeros(lx.shape[0], dtype=int)
    for _ in range(iters):
        d = np.abs(lx[:, None] - centers[None, :])
        new_labels = d.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(n_clusters):
            sel = lx[labels == c]
            if sel.size:
                centers[c] = sel.mean()
    return labels


def check_fit(branches: int, max_phases: int, max_iter: int, tol: float = 1e-7) -> None:
    """Raise DistributionError unless a fit with these settings can run; needs no sample."""
    if branches < 1:
        raise DistributionError("branches must be >= 1")
    if max_phases < 1 or (branches == 1 and max_phases > MAX_PHASES):  # the scan over every k
        raise DistributionError(f"max_phases {max_phases} is outside 1..{MAX_PHASES} (MAX_PHASES)")
    if max_iter < 1:
        raise DistributionError("max_iter must be >= 1")
    if not tol >= 0:  # NaN too: no step would stop the EM
        raise DistributionError(f"tol must be >= 0, got {tol}")


def fit_hyper_erlang_em(
    samples,
    branches: int = 2,
    max_phases: int = 10,
    tol: float = 1e-7,
    max_iter: int = 2000,
) -> FitResult:
    """Fit a hyper-Erlang law to positive samples by expectation-maximization.

    Branch rates and weights are optimized by EM at a fixed phase-count
    vector; the integer phase counts themselves are chosen by an exhaustive
    scan when ``branches == 1`` and otherwise by +-1 hill climbing from a
    k-means-on-log-values initialization.  The log-likelihood of the
    returned fit is nondecreasing across the reported EM iterations.  The EM
    makes no BLAS call, so the fit does not depend on the BLAS thread count.

    An all-identical sample cannot be fit meaningfully; it yields the most
    peaked Erlang available (``max_phases`` stages at the sample mean) with
    ``degenerate=True``.
    """
    check_fit(branches, max_phases, max_iter, tol)
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 10 * branches:
        raise DistributionError(
            f"need at least {10 * branches} samples for {branches} branches, got {x.size}"
        )
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise DistributionError("samples must be positive and finite")

    mean = float(x.mean())
    u = x / mean  # moments of u neither overflow nor underflow at the ends of the float64 range
    if np.ptp(x) == 0 or u.std() < 1e-12:
        dist = ErlangDist(max_phases / mean, max_phases)
        ll = float(np.sum(_erlang_logpdf(x, np.log(x), dist.rate, dist.phases)))
        log.warning("degenerate sample (zero spread): returning near-point-mass fit")
        return FitResult(dist, ll, [ll], 0, True, degenerate=True)

    if branches == 1:
        best = None
        log_x = np.log(x)
        for k in range(1, max_phases + 1):
            rate = k / mean  # closed-form MLE of the rate at fixed k
            ll = float(np.sum(_erlang_logpdf(x, log_x, rate, k)))
            if best is None or ll > best[0]:
                best = (ll, k, rate)
        ll, k, rate = best
        return FitResult(ErlangDist(rate, k), ll, [ll], 1, True)

    labels = _kmeans_log(x, branches)
    ks, weights, rates = [], [], []
    for c in range(branches):
        pick = labels == c
        sel, su = (x[pick], u[pick]) if pick.any() else (x, u)
        m, v = su.mean(), su.var()
        k0 = 1 if v <= 0 else int(np.clip(round(m * m / v), 1, max_phases))
        ks.append(k0)
        weights.append(max(sel.size, 1) / x.size)
        rates.append(k0 / sel.mean())
    weights = list(np.array(weights) / np.sum(weights))

    runs = []

    def run(ks_vec, w0, r0):
        runs.append(_em_fixed_phases(x, ks_vec, w0, r0, tol, max_iter))
        return runs[-1]

    w, r, trace, iters, conv = run(ks, weights, rates)
    best = (trace[-1], tuple(ks), w, r, trace, iters, conv)
    budget = 60  # candidate structure evaluations
    improved = True
    while improved and budget > 0:
        improved = False
        for j in range(branches):
            for delta in (1, -1):
                cand = list(best[1])
                cand[j] += delta
                if not (1 <= cand[j] <= max_phases):
                    continue
                budget -= 1
                # rescale the mutated branch rate so its mean is preserved
                r_init = np.array(best[3], float)
                r_init[j] = r_init[j] * cand[j] / best[1][j]
                w2, r2, tr2, it2, cv2 = run(cand, best[2], r_init)
                if tr2[-1] > best[0] + 1e-9:
                    best = (tr2[-1], tuple(cand), w2, r2, tr2, it2, cv2)
                    improved = True

    ll, ks_fin, w, r, trace, iters, conv = best
    order = np.argsort([k / rate for k, rate in zip(ks_fin, r)])  # by branch mean
    branches_out = [ErlangBranch(float(w[i]), float(r[i]), int(ks_fin[i])) for i in order]
    total = float(np.cumsum([b.weight for b in branches_out])[-1])  # left to right on any Python
    branches_out = [ErlangBranch(b.weight / total, b.rate, b.phases) for b in branches_out]
    return FitResult(HyperErlangDist(branches_out), ll, trace, iters, conv,
                     em_runs=len(runs), em_iterations=sum(res[3] for res in runs))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def dist_to_dict(dist) -> dict:
    """Serialize a distribution to its JSON document form."""
    if isinstance(dist, ErlangDist):
        return {"type": "erlang", "lambda": dist.rate, "k": dist.phases}
    if isinstance(dist, HyperErlangDist):
        return {
            "type": "hyper_erlang",
            "branches": [
                {"alpha": b.weight, "lambda": b.rate, "k": b.phases} for b in dist.branches
            ],
        }
    if isinstance(dist, PhaseTypeDist):
        return {"type": "ph", "alpha": dist.alpha.tolist(), "T": dist.T.tolist()}
    if isinstance(dist, PointMassDist):
        return {"type": "point", "value": dist.value}
    raise DistributionError(f"cannot serialize {type(dist).__name__}")


def read_json(path, what: str):
    """The JSON value in the file at ``path``; a file that is not UTF-8 JSON is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError too
            raise ConfigError(f"{what} {path} is not UTF-8 JSON: {exc}") from None


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_KINDS = {int: "a 64-bit integer", float: "a finite number", str: "a string", list: "a list",
          dict: "an object", (int,): "a list of 64-bit integers",
          (float,): "a list of finite numbers",
          ((float,),): "a list of equal-length lists of finite numbers"}


def _conforms(value, kind) -> bool:
    """Whether a JSON value is a ``kind``; a tuple kind is a list of its one member's kind."""
    if isinstance(kind, tuple):
        return (isinstance(value, list) and all(_conforms(v, kind[0]) for v in value)
                and (not isinstance(kind[0], tuple) or len({len(v) for v in value}) <= 1))
    if isinstance(value, bool):  # a JSON true is no integer
        return False
    if kind is int:
        return isinstance(value, int) and -2**63 <= value < 2**63
    if kind is float:  # a huge integer is compared with the largest double, never converted
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def json_value(doc, key: str, kind, what: str, default=None):
    """``doc[key]``, or ``default`` when absent, if it is a ``kind``; else a ConfigError.

    ``kind`` is int (a JSON integer in int64: no bool, no fraction), float (a
    finite number, returned as a float), str, list, dict, ``(kind,)`` (a list
    of ``kind``) or ``((kind,),)`` (equal-length lists).  ``what`` names the
    document.  A field without a default is required.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r:.80}")
    value = doc.get(key, default)
    if value is None:
        raise ConfigError(f"{what} field {key!r} is missing or null")
    if not _conforms(value, kind):
        raise ConfigError(f"{what} field {key!r} must be {_KINDS[kind]}, got {value!r:.80}")
    return float(value) if kind is float else value


def dist_from_dict(doc: dict, what: str = "distribution"):
    """Inverse of :func:`dist_to_dict`; raises ConfigError naming a malformed field."""
    kind = json_value(doc, "type", str, what)
    if kind == "erlang":
        return ErlangDist(json_value(doc, "lambda", float, what), json_value(doc, "k", int, what))
    if kind == "hyper_erlang":
        return HyperErlangDist([
            ErlangBranch(*(json_value(b, key, t, f"{what} branch {i}")
                           for key, t in (("alpha", float), ("lambda", float), ("k", int))))
            for i, b in enumerate(json_value(doc, "branches", list, what))
        ])
    if kind == "ph":
        return PhaseTypeDist(json_value(doc, "alpha", (float,), what),
                             json_value(doc, "T", ((float,),), what))
    if kind == "point":
        return PointMassDist(json_value(doc, "value", float, what))
    raise DistributionError(f"unknown distribution type {kind!r}")
