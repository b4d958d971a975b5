"""Window-parameter estimation from workload distributions.

Capacity and timeout are both chosen by the same smallest-covering rule:
the smallest integer at which the relevant CDF reaches the requested
coverage.  Capacity covers the composition-degree law at level ``alpha``;
timeout covers the response-time-span law at level ``1 - beta``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import ConfigError, NoSolutionError

__all__ = ["WindowParams", "estimate_capacity", "estimate_timeout"]


@dataclass(frozen=True)
class WindowParams:
    """Aggregation-window sizing: tuple capacity and timeout in seconds."""

    capacity: int
    timeout_s: int

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        if self.timeout_s < 1:
            raise ConfigError(f"timeout_s must be >= 1, got {self.timeout_s}")


def _check_level(name, value):
    if not (0.0 < value < 1.0):
        raise ConfigError(f"{name} must lie strictly between 0 and 1, got {value}")


def _smallest_covering(cdf, level: float, upper: int, what: str) -> int:
    """Smallest integer x in 1..upper with cdf(x) >= level, in about log2(upper) CDF calls.

    A CDF never decreases, so when cdf(upper) misses the level no smaller
    integer can reach it: the search gives up after that one call.  Otherwise
    it bisects, which gives the linear scan's answer for a CDF that is monotone
    in floating point.  For one that is not, it returns some x with cdf(x) not
    below the level and x == 1 or cdf(x - 1) < level, not always the smallest.
    """
    if cdf(upper) < level:
        raise NoSolutionError(f"no {what} reaches coverage {level}")
    return 1 + bisect_left(range(1, upper), level, key=cdf)


def estimate_capacity(degree_dist, alpha: float, max_degree: int = 10_000) -> int:
    """Smallest integer n with P(degree <= n) >= alpha.

    Raises NoSolutionError if no n up to ``max_degree`` reaches the level.
    """
    _check_level("alpha", alpha)
    return _smallest_covering(degree_dist.cdf, alpha, max_degree, f"capacity up to {max_degree}")


def estimate_timeout(span_dist, beta: float, max_timeout_s: int = 86_400) -> int:
    """Smallest integer t (seconds) with P(span <= t) >= 1 - beta.

    ``beta`` is the tolerated fraction of instances allowed to outlive the
    window.  Raises NoSolutionError when the bound is not reached within
    ``max_timeout_s``.
    """
    _check_level("beta", beta)
    return _smallest_covering(
        span_dist.cdf, 1.0 - beta, max_timeout_s, f"timeout up to {max_timeout_s}s"
    )
