"""Performance prediction: one exact finite-buffer chain, approximations, DES.

The exact solver is one continuous-time Markov chain for a single server
that serves fixed batches of K tuples; plain service is K = 1.  Its states
come in levels: K idle levels of m arrival phases, then N - K + 1 busy
levels of m x n (arrival phase, service phase) pairs.  The generator is
level-structured (a quasi-birth-death process when K = 1), and each of its
blocks is a Kronecker product of a 0/1 level pattern with the phase-type
blocks of the arrival and service laws: phase moves T_a ⊗ I + I ⊗ T_s,
arrival completions t_a alpha_a ⊗ I, service completions I ⊗ t_s alpha_s
(Neuts, *Matrix-Geometric Solutions in Stochastic Models*, 1981; Latouche
and Ramaswami, *Introduction to Matrix Analytic Methods in Stochastic
Modeling*, 1999).  pi Q = 0 is solved directly and the indicators are read
off the stationary vector.  Loss and busy-at-arrival probabilities are
arrival-weighted: a state's weight is its stationary probability times the
arrival-completion intensity of its arrival phase, which is what an
arriving tuple actually samples (PASTA only covers the Poisson special
case).

The discrete-event simulator is the independent oracle for all of them:
same model document, pre-drawn random streams, batch-means confidence
intervals.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import bmat, coo_matrix, diags, identity, kron, vstack
from scipy.sparse.linalg import spsolve
from scipy.special import stdtrit

from .distributions import (
    PhaseTypeDist,
    PointMassDist,
    dist_from_dict,
    dist_to_dict,
    json_value,
    ph_from_mean_scv,
    read_json,
)
from .errors import (
    ConfigError,
    DistributionError,
    InstabilityError,
    NumericalError,
    StateSpaceError,
)

__all__ = [
    "MeanScv",
    "QueueModel",
    "PerfIndicators",
    "buffer_capacity",
    "min_servers",
    "storage_estimate",
    "solve_ph_ph_1_n",
    "solve_batch_ph_ph_1_n",
    "solve_ggc_approx",
    "solve_infinite_servers",
    "predict",
    "des_simulate",
    "model_to_dict",
    "model_from_dict",
    "load_model",
]

MAX_STATES = 100_000
MAX_DES_BYTES = 1 << 32  # memory a simulation may plan, at these bytes per arrival and batch;
_ARRIVAL_BYTES, _BATCH_BYTES = 52, 64  # a batch traced ~40 (two slice rows, _fold, _ci_half)
MAX_OFFERED = 1e6  # Erlangs: Erlang-C's recursion takes about this many steps before B falls


# ---------------------------------------------------------------------------
# sizing helpers
# ---------------------------------------------------------------------------


def buffer_capacity(pages: int, page_size: int, tuple_size: int) -> int:
    """Tuples that fit in a page-backed buffer: pages * floor(page_size / tuple_size)."""
    if pages < 1 or page_size < 1 or tuple_size < 1:
        raise ConfigError("pages, page_size and tuple_size must all be >= 1")
    return pages * (page_size // tuple_size)


def min_servers(arrival_rate: float, service_rate: float) -> int:
    """Smallest server count c with arrival_rate / (c * service_rate) < 1."""
    if arrival_rate <= 0 or service_rate <= 0:
        raise ConfigError("rates must be positive")
    return int(math.floor(arrival_rate / service_rate)) + 1


def storage_estimate(servers: int, capacity: int, tuple_size: int) -> int:
    """Bytes needed to hold ``servers`` windows of ``capacity`` tuples each."""
    if servers < 1 or capacity < 1 or tuple_size < 1:
        raise ConfigError("servers, capacity and tuple_size must all be >= 1")
    return servers * capacity * tuple_size


# ---------------------------------------------------------------------------
# model document
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanScv:
    """Service law known only through mean and squared coefficient of variation: the exact
    chains solve :func:`~swakit.distributions.ph_from_mean_scv`'s law (refusing SCV 0), while
    :func:`des_simulate` draws a gamma law with the same two moments; they agree at SCV 1/k."""

    mean: float
    scv: float

    def __post_init__(self):
        if self.mean <= 0:
            raise ConfigError("mean must be positive")
        if self.scv < 0:
            raise ConfigError("scv must be non-negative")


@dataclass
class QueueModel:
    """One queueing station: arrival law, service law, servers, buffer, batch.

    ``buffer`` bounds the number of tuples in the system (waiting plus in
    service); ``None`` means unbounded.  ``batch = (a, b)`` means service
    starts once ``a`` tuples wait and takes up to ``b`` at once; batching
    requires a single server, and the exact solver additionally requires
    a == b.
    """

    arrival: object
    service: object
    servers: object = 1  # positive int or "ample"
    buffer: Optional[int] = None
    batch: Tuple[int, int] = (1, 1)

    def __post_init__(self):
        a, b = self.batch
        if a < 1 or b < a:
            raise ConfigError(f"batch bounds must satisfy 1 <= a <= b, got {self.batch}")
        if self.servers != "ample":
            if not isinstance(self.servers, int) or self.servers < 1:
                raise ConfigError(f"servers must be a positive integer or 'ample', got {self.servers!r}")
        if (a, b) != (1, 1) and self.servers != 1:
            raise ConfigError("batch service requires exactly one server")
        if self.buffer is not None:
            if self.buffer < 1:
                raise ConfigError("buffer must be >= 1 or unbounded")
            if a > self.buffer:
                raise ConfigError(
                    f"batch threshold {a} exceeds buffer {self.buffer}: service could never start"
                )


def model_to_dict(model: QueueModel) -> dict:
    svc = (
        {"mean": model.service.mean, "scv": model.service.scv}
        if isinstance(model.service, MeanScv)
        else dist_to_dict(model.service)
    )
    return {
        "arrival": dist_to_dict(model.arrival),
        "service": svc,
        "servers": model.servers,
        "buffer": "unbounded" if model.buffer is None else model.buffer,
        "batch": list(model.batch),
    }


def model_from_dict(doc: dict) -> QueueModel:
    """Inverse of :func:`model_to_dict`; raises ConfigError naming a malformed field."""
    what = "queue model"
    arrival = dist_from_dict(json_value(doc, "arrival", dict, what), f"{what} arrival")
    sdoc = json_value(doc, "service", dict, what)
    if "type" in sdoc:
        service = dist_from_dict(sdoc, f"{what} service")
    else:
        service = MeanScv(json_value(sdoc, "mean", float, f"{what} service"),
                          json_value(sdoc, "scv", float, f"{what} service", 1.0))
    servers = doc.get("servers")
    servers = servers if servers == "ample" else json_value(doc, "servers", int, what, 1)
    buffer = doc.get("buffer", "unbounded")
    buffer = None if buffer == "unbounded" else json_value(doc, "buffer", int, what)
    batch = json_value(doc, "batch", (int,), what, [1, 1])
    if len(batch) != 2:
        raise ConfigError(f"{what} field 'batch' must be [a, b], got {batch!r:.80}")
    return QueueModel(arrival, service, servers, buffer, tuple(batch))


def load_model(path) -> QueueModel:
    return model_from_dict(read_json(path, "queue model"))


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------


@dataclass
class PerfIndicators:
    """The six station indicators, optional CI half-widths, DES counts and solver diagnostics."""

    L: float
    Lq: float
    W: float
    Wq: float
    Pbusy: float
    Ploss: float
    ci: Optional[dict] = None
    des: Optional[dict] = None  # not part of to_dict
    solver: Optional[dict] = None  # not part of to_dict

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in ("L", "Lq", "W", "Wq", "Pbusy", "Ploss")}
        if self.ci is not None:
            out["ci95"] = dict(self.ci)
        return out


def _service_mean_scv(service) -> Tuple[float, float]:
    if isinstance(service, MeanScv):
        return service.mean, service.scv
    return service.mean(), service.scv()


def _as_ph(dist, what: str) -> PhaseTypeDist:
    if isinstance(dist, PhaseTypeDist):
        if not dist.is_valid_generator():
            raise DistributionError(
                f"{what} generator is structurally invalid; run validate_generator first"
            )
        return dist
    if isinstance(dist, MeanScv):
        if dist.scv == 0:
            raise ConfigError(f"{what}: zero-variance law is not phase-type; use a small scv")
        return ph_from_mean_scv(dist.mean, dist.scv)
    if isinstance(dist, PointMassDist):
        raise ConfigError(f"{what}: point mass is not phase-type; the exact solver cannot use it")
    if hasattr(dist, "as_phase_type"):
        return dist.as_phase_type()
    raise ConfigError(f"{what}: cannot interpret {type(dist).__name__} as phase-type")


def _arrival_ph(model: QueueModel) -> PhaseTypeDist:
    ph = _as_ph(model.arrival, "arrival")
    if abs(ph.alpha.sum() - 1.0) > 1e-9:
        raise ConfigError("arrival process must have alpha summing to 1 (no mass at zero)")
    return ph


def _check_states(size: int) -> None:
    """Refuse a chain too large for the direct solve, before it is assembled."""
    if size > MAX_STATES:
        raise StateSpaceError(
            f"state space has {size} states, direct solve capped at {MAX_STATES}"
        )


def _solve_stationary(Q):
    """Solve pi Q = 0, sum(pi) = 1 for a sparse generator Q: (pi, checked residual)."""
    size = Q.shape[0]
    # the last balance equation is redundant; sum(pi) = 1 takes its place
    A = vstack([Q.transpose()[:-1], np.ones((1, size))], format="csr")
    b = np.zeros(size)
    b[-1] = 1.0
    try:
        pi = spsolve(A, b)
    except Exception as exc:  # SuperLU raises various types
        raise NumericalError(f"stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)):
        raise NumericalError("stationary solve produced non-finite probabilities")
    pi = np.maximum(pi, 0.0)
    s = pi.sum()
    if s <= 0:
        raise NumericalError("stationary solve produced a zero vector")
    pi = pi / s
    resid = np.abs(pi @ Q).max()
    if resid > 1e-8:
        raise NumericalError(f"stationary residual {resid:g} too large")
    return pi, float(resid)


# ---------------------------------------------------------------------------
# exact finite-buffer chain
# ---------------------------------------------------------------------------


def _levels(src, dst, shape):
    """Level pattern: a 0/1 matrix with a one at (src[k], dst[k]) for each k."""
    return coo_matrix((np.ones(len(src)), (src, dst)), shape=shape)


def _solve_chain(model: QueueModel, K: int) -> PerfIndicators:
    """Exact single-server chain that serves fixed batches of K tuples.

    The K idle levels q = 0..K-1 (q tuples wait, the server is idle) hold m
    arrival phases each; the N - K + 1 busy levels q = 0..N-K (q tuples wait
    while a batch is in service) hold m x n arrival and service phases.
    """
    ap = _arrival_ph(model)
    sp = _as_ph(model.service, "service")
    N = model.buffer
    m, n = ap.order, sp.order
    B = N - K + 1
    size = K * m + B * m * n
    _check_states(size)
    t0 = time.perf_counter()

    Ta = ap.T - np.diag(np.diag(ap.T))  # phase moves
    Ts = sp.T - np.diag(np.diag(sp.T))
    arrive = np.outer(ap.exit_rates, ap.alpha)  # t_a alpha_a: an arrival completes
    served = sp.exit_rates[:, None]  # t_s: a batch completes, the server idles
    restart = served @ sp.alpha[None, :]  # t_s alpha_s: the next batch starts at once
    Im, In = identity(m), identity(n)
    idle, busy = np.arange(K), np.arange(B)
    idle_idle = kron(identity(K), Ta) + kron(_levels(idle[:-1], idle[1:], (K, K)), arrive)
    idle_busy = kron(_levels([K - 1], [0], (K, B)), kron(arrive, sp.alpha[None, :]))
    busy_idle = kron(_levels(busy[:K], busy[:K], (B, K)), kron(Im, served))
    busy_busy = (
        kron(identity(B), kron(Ta, In) + kron(Im, Ts))
        # at the last level the arrival is lost and the arrival process renews
        + kron(_levels(busy, np.minimum(busy + 1, B - 1), (B, B)), kron(arrive, In))
        + kron(_levels(busy[K:], busy[K:] - K, (B, B)), kron(Im, restart))
    )
    Q = bmat([[idle_idle, idle_busy], [busy_idle, busy_busy]], format="csr")
    # the diagonal is minus the row sums, which include the lost-arrival self-block
    Q = Q - diags(np.asarray(Q.sum(axis=1)).ravel())
    t1 = time.perf_counter()
    pi, resid = _solve_stationary(Q)
    solver = {"states": size, "nnz": Q.nnz, "residual": resid, "assemble_s": t1 - t0,
              "solve_s": time.perf_counter() - t1}

    waitn = np.concatenate([np.repeat(idle, m), np.repeat(busy, m * n)]).astype(float)
    sysn = waitn + np.repeat([0.0, K], [K * m, B * m * n])
    aphase = np.concatenate([np.tile(np.arange(m), K), np.tile(np.repeat(np.arange(m), n), B)])
    L = float(sysn @ pi)
    Lq = float(waitn @ pi)
    w = ap.exit_rates[aphase] * pi
    wt = w.sum()
    Ploss = float(w[sysn == N].sum() / wt)
    Pbusy = float(w[K * m :].sum() / wt)
    lam_acc = (1.0 / ap.mean()) * (1.0 - Ploss)
    Wq = Lq / lam_acc
    return PerfIndicators(L, Lq, Wq + sp.mean(), Wq, Pbusy, Ploss, solver=solver)


def solve_ph_ph_1_n(model: QueueModel) -> PerfIndicators:
    """Exact PH/PH/1/N: levels 0..N, arrival phase, service phase.

    The buffer bounds the number in system; an arrival that completes while
    the system holds N tuples is lost and the arrival process renews.
    """
    if model.servers != 1 or model.batch != (1, 1):
        raise ConfigError("solve_ph_ph_1_n handles exactly one server and no batching")
    if model.buffer is None:
        raise ConfigError("solve_ph_ph_1_n needs a finite buffer")
    return _solve_chain(model, 1)


def solve_batch_ph_ph_1_n(model: QueueModel) -> PerfIndicators:
    """Exact single-server chain with fixed batch size K = a = b.

    Service starts the moment K tuples wait and always takes exactly K;
    the buffer still bounds the total number in system (waiting plus the
    K in service), which makes K = 1 coincide with :func:`solve_ph_ph_1_n`.
    """
    a, b = model.batch
    if model.servers != 1:
        raise ConfigError("batch solver handles exactly one server")
    if a != b:
        raise ConfigError("exact batch solver requires a == b (use des_simulate for a < b)")
    if model.buffer is None:
        raise ConfigError("batch solver needs a finite buffer")
    return _solve_chain(model, a)


# ---------------------------------------------------------------------------
# many-server approximation
# ---------------------------------------------------------------------------


def _erlang_c(servers: int, offered: float) -> float:
    """Wait probability in M/M/c, via the numerically stable B-recursion; it stops once B is 0
    (every later step keeps 0): about offered + 38 sqrt(offered) steps, whatever the servers."""
    if offered > MAX_OFFERED:
        raise ConfigError(f"offered load {offered:g} on {servers} servers is over {MAX_OFFERED:g}")
    B = 1.0
    for k in range(1, servers + 1):
        B = offered * B / (k + offered * B)
        if B == 0.0:
            break
    rho = offered / servers
    return B / (1.0 - rho * (1.0 - B))


def solve_ggc_approx(
    arrival_rate: float,
    ca2: float,
    service_mean: float,
    cs2: float,
    servers: int,
) -> PerfIndicators:
    """G/G/c delay approximation: M/M/c wait scaled by (ca2 + cs2) / 2.

    Exact for Poisson arrivals with exponential service.  Raises an
    instability error (with the smallest workable server count) when the
    offered load meets or exceeds capacity.
    """
    if arrival_rate <= 0 or service_mean <= 0:
        raise ConfigError("arrival_rate and service_mean must be positive")
    if ca2 < 0 or cs2 < 0:
        raise ConfigError("squared coefficients of variation must be >= 0")
    if servers < 1:
        raise ConfigError("servers must be >= 1")
    offered = arrival_rate * service_mean
    rho = offered / servers
    if rho >= 1.0:
        need = min_servers(arrival_rate, 1.0 / service_mean)
        raise InstabilityError(
            f"offered load {offered:.4f} needs more than {servers} servers "
            f"(rho = {rho:.4f}); at least {need} required",
            suggested_servers=need,
        )
    pwait = _erlang_c(servers, offered)
    wq_mmc = pwait * service_mean / (servers * (1.0 - rho))
    Wq = wq_mmc * (ca2 + cs2) / 2.0
    W = Wq + service_mean
    return PerfIndicators(
        L=arrival_rate * W,
        Lq=arrival_rate * Wq,
        W=W,
        Wq=Wq,
        Pbusy=pwait,
        Ploss=0.0,
    )


def solve_infinite_servers(arrival_rate: float, service_mean: float) -> PerfIndicators:
    """Ample servers: no waiting, L = arrival_rate * service_mean."""
    if arrival_rate <= 0 or service_mean <= 0:
        raise ConfigError("arrival_rate and service_mean must be positive")
    return PerfIndicators(
        L=arrival_rate * service_mean,
        Lq=0.0,
        W=service_mean,
        Wq=0.0,
        Pbusy=0.0,
        Ploss=0.0,
    )


def predict(model: QueueModel) -> PerfIndicators:
    """Dispatch a model to the matching solver.

    Finite-buffer single-server models go to the exact chains; unbounded
    single-server and multi-server models go to the delay approximation;
    ``ample`` means infinite servers.
    """
    lam = 1.0 / model.arrival.mean()
    smean, sscv = _service_mean_scv(model.service)
    if model.servers == "ample":
        return solve_infinite_servers(lam, smean)
    if model.servers == 1:
        if model.buffer is not None:
            if model.batch == (1, 1):
                return solve_ph_ph_1_n(model)
            return solve_batch_ph_ph_1_n(model)
        if model.batch != (1, 1):
            raise ConfigError("unbounded batch model has no analytic solver; use des_simulate")
        return solve_ggc_approx(lam, model.arrival.scv(), smean, sscv, 1)
    if model.buffer is not None:
        raise ConfigError(
            "finite-buffer multi-server models have no analytic solver here; use des_simulate"
        )
    return solve_ggc_approx(lam, model.arrival.scv(), smean, sscv, model.servers)


# ---------------------------------------------------------------------------
# discrete-event simulation oracle
# ---------------------------------------------------------------------------


def _draw_times(dist, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw positive durations from a distribution object or a MeanScv spec."""
    if isinstance(dist, MeanScv):
        if dist.scv == 0:
            return np.full(count, dist.mean)
        shape = 1.0 / dist.scv
        return rng.gamma(shape=shape, scale=dist.mean / shape, size=count)
    return np.asarray(dist.sample(count, rng), dtype=float)


_BLOCK = 8192  # arrivals per merge-and-fold block, and per float conversion in the loop


def _floats(values: np.ndarray):
    """Iterate ``values`` as Python floats, converted one ``_BLOCK`` at a time."""
    return chain.from_iterable(values[i:i + _BLOCK].tolist() for i in range(0, values.size, _BLOCK))


def _occupancy(at, kept, dep, t0, t1, slices, start=None):
    """Mean and 95% half-width over [t0, t1] of the number in system and, given the sorted
    service ``start`` times, of the number waiting.  The steps run between the events: the
    arrivals ``at`` merged with the sorted departures ``dep``, one block of arrivals at a
    time.  Each holds the sorted ``kept`` arrivals up to its start less the departures (or
    the starts) up to it, and :func:`_fold` adds it to ``slices`` equal time slices."""
    if t1 <= t0:
        t1 = t0 + 1e-9
    area = np.zeros((1 if start is None else 2, slices))
    j, prev = 0, 0.0  # departures merged so far, the last merged event's time
    for i in range(0, at.size, _BLOCK):
        j1 = np.searchsorted(dep, at[i + _BLOCK - 1], "right") if i + _BLOCK < at.size else dep.size
        t = np.sort(np.concatenate((at[i:i + _BLOCK], dep[j:j1])))
        u = np.concatenate(([prev], t[:-1]))
        came = np.searchsorted(kept, u, "right")
        counts = [came - np.searchsorted(dep, u, "right")]
        if start is not None:
            counts.append(came - np.searchsorted(start, u, "right"))
        _fold(area, t0, t1, u, t, *counts)
        j, prev = j1, t[-1]
    return [(float(a.sum() / (t1 - t0)), _ci_half(a / ((t1 - t0) / slices))) for a in area]


def _fold(area: np.ndarray, t0: float, t1: float, u: np.ndarray, v: np.ndarray, *counts):
    """Add the steps (u, v), one array of counts per row of ``area``, to its equal slices of
    [t0, t1]: clipped to the window, split at slice edges as a per-step loop would
    (``n*(edge-u)``, ``n*dt`` for the middle slices, ``n*(v-edge)``) and added with
    ``np.add.at`` in step order."""
    dt, top = (t1 - t0) / area.shape[1], area.shape[1] - 1
    u, v = np.maximum(u, t0), np.minimum(v, t1)
    keep = v > u
    u, v = u[keep], v[keep]
    s0 = np.minimum(((u - t0) / dt).astype(np.int64), top)
    s1 = np.minimum(((v - t0) / dt).astype(np.int64), top)
    k = s1 - s0 + 1  # slices each step touches
    end = np.cumsum(k)
    first = end - k
    where = np.arange(k.sum()) - np.repeat(first - s0, k)
    head = np.where(k == 1, v - u, t0 + (s0 + 1) * dt - u)
    tail = v - (t0 + s1 * dt)
    for row, n in zip(area, counts):  # a zero count adds +-0.0: no change
        n = n[keep]
        piece = np.repeat(n * dt, k)
        piece[end - 1] = n * tail
        piece[first] = n * head
        np.add.at(row, where, piece)


def _ci_half(samples: np.ndarray) -> float:
    k = len(samples)
    if k < 2 or np.allclose(samples, samples[0]):
        return 0.0
    return float(stdtrit(k - 1, 0.975) * samples.std(ddof=1) / math.sqrt(k))  # Student t


def _batched_mean_ci(values: np.ndarray, n_batches: int) -> Tuple[float, float]:
    if values.size == 0:
        return 0.0, 0.0
    mean = float(values.mean())
    if values.size < n_batches * 2:
        return mean, 0.0
    # np.array_split's batches: the first r take q + 1 values, the rest q; each row's mean
    # sums pairwise as the batch's own mean does, so the bits are the same
    q, r = divmod(values.size, n_batches)
    cut = r * (q + 1)
    bm = np.concatenate([values[:cut].reshape(r, q + 1).mean(axis=1),
                         values[cut:].reshape(n_batches - r, q).mean(axis=1)])
    return mean, _ci_half(bm)


def des_simulate(
    model: QueueModel,
    arrivals: int,
    seed: int,
    warmup_frac: float = 0.05,
    n_batches: int = 25,
    timer=None,
) -> PerfIndicators:
    """Event-driven simulation of a queue model; the oracle the solvers answer to.

    Generates ``arrivals`` arrivals, drops the first ``warmup_frac`` of them
    from every statistic, and reports batch-means 95% confidence half-widths
    in ``ci`` and the run's counts in ``des``.  All randomness comes from
    ``seed``; identical calls return identical results.  ``timer(name, items)``,
    a context-manager factory, times the ``draw`` and ``simulate`` stages.

    L and Lq come from one occupancy area per batch slice, folded after the
    event loop by :func:`_occupancy`.  A step between events of positive
    length sees the state after every event at or before its start, and the
    steps of zero length between tied events add nothing, so every slice
    sums the same floats in the same order as a per-event loop would
    (bit-identical results).

    Every finite server count runs one event loop: each of c servers takes up
    to b waiting tuples as soon as a wait (plain service is a = b = 1), and a
    departure goes first on a tie.  Service is FIFO, a lost tuple never waits
    and batches need a single server, so a start takes the next k accepted
    arrivals: the waiting line is a count, and the loop keeps only the heap,
    the per-arrival busy and lost flags and each start's time and k.  After
    the loop each tuple's start and departure (start + service) give W, Wq
    (less the arrival) and the occupancy.
    """
    if arrivals < 100:
        raise ConfigError("need at least 100 arrivals for meaningful statistics")
    if (need := arrivals * _ARRIVAL_BYTES + n_batches * _BATCH_BYTES) > MAX_DES_BYTES:
        named = (f"batches {n_batches}" if n_batches * _BATCH_BYTES > arrivals * _ARRIVAL_BYTES
                 else f"arrivals {arrivals}")
        raise ConfigError(f"{named} need ~{need} bytes, over {MAX_DES_BYTES}")
    if not (0.0 <= warmup_frac < 0.5):
        raise ConfigError("warmup_frac must lie in [0, 0.5)")
    if n_batches < 20:
        raise ConfigError("need at least 20 batches for the confidence intervals")
    timer = timer or (lambda name, items=0: nullcontext())
    with timer("draw", arrivals):
        rng = np.random.default_rng(seed)
        gaps = _draw_times(model.arrival, arrivals, rng)
        if np.any(gaps < 0):
            raise ConfigError("arrival law produced negative gaps")
        at = np.cumsum(gaps, out=gaps)  # the times replace the gaps
        svc = _draw_times(model.service, arrivals, rng)
    with timer("simulate"):
        return _simulate(model, at, svc, int(arrivals * warmup_frac), n_batches)


def _simulate(model: QueueModel, at: np.ndarray, svc: np.ndarray, w0: int,
              n_batches: int) -> PerfIndicators:
    arrivals = at.size
    t_warm = at[w0] if w0 > 0 else 0.0
    des = {"arrivals": arrivals, "warmup_cut_time": float(t_warm)}

    if model.servers == "ample":  # every tuple's residence is its service time
        (L, Lc), = _occupancy(at, at, np.sort(at + svc), t_warm, at[-1], n_batches)
        Wm, Wc = _batched_mean_ci(svc[w0:], n_batches)
        return PerfIndicators(L=L, Lq=0.0, W=Wm, Wq=0.0, Pbusy=0.0, Ploss=0.0,
                              ci={"L": Lc, "Lq": 0.0, "W": Wc, "Wq": 0.0},
                              des=dict(des, events=2 * arrivals, lost=0))

    (a, b), c, N = model.batch, model.servers, model.buffer or math.inf
    arrival = chain(_floats(at), (math.inf,)).__next__  # the arrival at infinity drains
    service = _floats(svc).__next__  # one draw per batch, in start order
    heap: list = []  # departure times of the batches in service
    starts, sizes = array("d"), array("q")  # per batch: start time, tuples taken
    busy, lost = bytearray(), bytearray()  # per arrival: every server busy, turned away
    n_sys = n_wait = k = 0
    t = arrival()
    while True:
        if heap and heap[0] <= t:  # a departure goes before an arrival at the same instant
            now = heappop(heap)
            n_sys -= k  # k > 1 only on one server, where the last batch started leaves
        elif t == math.inf:
            break
        else:
            now = t
            busy.append(len(heap) >= c)
            full = n_sys >= N
            lost.append(full)
            if not full:
                n_sys += 1
                n_wait += 1
            t = arrival()
        if n_wait >= a and len(heap) < c:
            k = min(b, n_wait)
            n_wait -= k
            starts.append(now)
            sizes.append(k)
            heappush(heap, now + service())

    busy = float(np.frombuffer(busy, bool)[w0:].mean())  # freed before the per-tuple arrays
    # start i takes the next sizes[i] accepted arrivals; those still waiting have no sample
    batches = len(starts)
    starts, sizes = np.frombuffer(starts), np.frombuffer(sizes, np.int64)
    start = np.repeat(starts, sizes)
    dep = start + np.repeat(svc[:batches], sizes)
    del starts, sizes
    lost = np.frombuffer(lost, bool)
    first = w0 - int(lost[:w0].sum())  # accepted tuples before the warm-up cut
    kept = at[~lost]
    Wm, Wc = _batched_mean_ci(dep[first:] - kept[first:start.size], n_batches)
    Wqm, Wqc = _batched_mean_ci(start[first:] - kept[first:start.size], n_batches)
    dep.sort()  # several servers finish out of start order
    (L, Lc), (Lq, Lqc) = _occupancy(at, kept, dep, t_warm, at[-1], n_batches, start)
    return PerfIndicators(
        L=L,
        Lq=Lq,
        W=Wm,
        Wq=Wqm,
        Pbusy=busy,
        Ploss=float(lost[w0:].mean()),
        ci={"L": Lc, "Lq": Lqc, "W": Wc, "Wq": Wqc},
        des=dict(des, events=arrivals + batches, lost=int(lost.sum())),
    )
