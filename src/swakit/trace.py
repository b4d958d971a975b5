"""Synthetic invocation traces: catalog, generation, CSV format, replay.

A trace is the merged stream plus truth and partition columns, all indexed
by ``seq``: a tuple's position when the partitions are merged by timestamp,
then partition, then input order (done once, on generation or read).  Each
composite service has a head invocation plus subordinate invocations; all
tuples of one live instance share a ground-truth label that exists only for
scoring.  The stream's tuples carry no label and no partition, so operators,
which read it through :func:`replay`, can never key on ground truth.

Timestamps are integer milliseconds.  Span distributions are sampled in
seconds (matching how response times are usually modeled) and converted;
arrival distributions are sampled directly in milliseconds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from operator import itemgetter
from sys import intern
from typing import List

import numpy as np

from .distributions import (
    ErlangBranch,
    HyperErlangDist,
    ErlangDist,
    PhaseTypeDist,
    validate_generator,
)
from .errors import ConfigError, TraceParseError

__all__ = [
    "StreamTuple",
    "ServiceDef",
    "ServiceCatalog",
    "TraceConfig",
    "Trace",
    "TruthInstance",
    "build_catalog",
    "generate_trace",
    "write_trace",
    "read_trace",
    "replay",
    "truth_index",
    "default_degree_dist",
    "default_span_dist",
    "default_arrival_dist",
]

TRACE_HEADER = [
    "timestamp_ms",
    "user_id",
    "service_id",
    "head_id",
    "instance_ts_s",
    "response_ms",
    "truth_instance",
    "partition",
]


@dataclass(frozen=True, slots=True)
class StreamTuple:
    """The operator-facing view of a tuple: no truth label, no partition.

    ``seq`` is the tuple's position in the global timestamp-merged order and
    is the only way evaluation code can join emissions back to ground truth.
    """

    seq: int
    timestamp: int
    user_id: str
    service_id: str
    head_id: str
    instance_timestamp: int
    response_time: int


@dataclass(frozen=True)
class ServiceDef:
    """A composite service: head plus subordinate sub-services.

    ``degree`` counts the head itself.  ``sub_ids[0]`` is the head;
    ``partitions[j]`` is the partition that receives sub-invocation j.
    """

    service_id: str
    degree: int
    sub_ids: tuple
    partitions: tuple

    @property
    def head_id(self) -> str:
        return self.sub_ids[0]


@dataclass(frozen=True)
class ServiceCatalog:
    services: tuple
    n_partitions: int


@dataclass
class TraceConfig:
    """Knobs for synthesizing one trace from a catalog.

    ``arrival_dist`` yields inter-arrival gaps of primary invocations in
    milliseconds; ``span_dist`` yields instance response-time spans in
    seconds.  ``repeat_factor`` is the average number of instances per
    distinct service actually used (>= 1).
    """

    instance_count: int
    arrival_dist: object
    span_dist: object
    user_pool: int = 5000
    repeat_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.instance_count < 1:
            raise ConfigError("instance_count must be >= 1")
        if self.user_pool < 1:
            raise ConfigError("user_pool must be >= 1")
        if self.repeat_factor < 1.0:
            raise ConfigError("repeat_factor must be >= 1")


@dataclass
class Trace:
    """The merged stream and its truth and partition columns, indexed by ``seq``."""

    stream: List[StreamTuple]
    truth: List[str]
    partition: List[int]

    @property
    def n_tuples(self) -> int:
        return len(self.stream)


@dataclass(frozen=True)
class TruthInstance:
    """Ground-truth facts about one instance, derived from its tuples."""

    label: str
    degree: int
    primary_arrival: int  # ms, earliest tuple timestamp
    last_arrival: int  # ms

    @property
    def span_ms(self) -> int:
        return self.last_arrival - self.primary_arrival


# ---------------------------------------------------------------------------
# default workload shape (degree / span / arrival) for the CLI and tests
# ---------------------------------------------------------------------------


def default_degree_dist() -> ErlangDist:
    """Composition-degree model: tight Erlang around 11, ~92% at or below 13."""
    return ErlangDist(8.7963, 100)


def default_span_dist() -> HyperErlangDist:
    """Instance span model in seconds: short bulk plus a long-tail branch."""
    return HyperErlangDist(
        [ErlangBranch(0.0247, 0.0404, 1), ErlangBranch(0.9753, 0.3666, 4)]
    )


def default_arrival_dist() -> PhaseTypeDist:
    """Primary inter-arrival model in milliseconds, mean 9.7780 ms.

    The transcribed two-phase generator needs one off-diagonal repair; the
    repaired chain is then rescaled back to the documented 9.7780 ms mean so
    downstream density figures (per-second instance rate, server sizing)
    stay consistent.
    """
    raw = PhaseTypeDist([1.0, 0.0], [[-0.1452, -0.0329], [0.0, -0.1191]])
    repaired, _ = validate_generator(raw, policy="repair")
    return repaired.scaled_to_mean(9.7780)


# ---------------------------------------------------------------------------
# catalog + generation
# ---------------------------------------------------------------------------


def build_catalog(
    count: int,
    degree_dist,
    seed: int,
    n_partitions: int = 2,
    shared_atomics: bool = False,
) -> ServiceCatalog:
    """Synthesize ``count`` composite services with sampled degrees.

    Degrees are the rounded draws from ``degree_dist``, clamped to >= 1.
    Sub-services are assigned to partitions round-robin across the whole
    catalog.  With ``shared_atomics`` the subordinate ids are drawn from a
    pool roughly half the size of the subordinate population, so the same
    atomic service appears under several heads (the ambiguous-referrer
    case); otherwise every subordinate id is unique to its head.
    """
    if count < 1:
        raise ConfigError("catalog count must be >= 1")
    if n_partitions < 1:
        raise ConfigError("n_partitions must be >= 1")
    rng = np.random.default_rng(seed)
    degrees = np.maximum(1, np.rint(degree_dist.sample(count, rng))).astype(int)
    total_subs = int((degrees - 1).sum())
    pool = max(1, total_subs // 2)
    rr = 0
    services = []
    for i in range(count):
        d = int(degrees[i])
        head = f"svc{i}"
        subs = [head]
        for j in range(1, d):
            if shared_atomics:
                subs.append(f"atom{int(rng.integers(pool))}")
            else:
                subs.append(f"{head}.{j}")
        parts = []
        for _ in range(d):
            parts.append(rr % n_partitions)
            rr += 1
        services.append(ServiceDef(head, d, tuple(subs), tuple(parts)))
    return ServiceCatalog(tuple(services), n_partitions)


def generate_trace(catalog: ServiceCatalog, cfg: TraceConfig) -> Trace:
    """Sample a full trace: arrivals, spans, users, subordinate placement.

    Primary invocations arrive at the cumulative sum of inter-arrival draws;
    each instance's subordinates are placed uniformly inside
    [arrival, arrival + span] and routed to their catalog partitions.  The
    seed fully determines the output.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.instance_count
    n_unique = int(min(len(catalog.services), max(1, round(n / cfg.repeat_factor))))
    chosen = rng.choice(len(catalog.services), size=n_unique, replace=False)
    # deterministic multiplicities: cycle through the chosen services, then
    # shuffle so repeats are spread across the trace
    assignment = np.array([chosen[i % n_unique] for i in range(n)])
    rng.shuffle(assignment)

    gaps = np.asarray(cfg.arrival_dist.sample(n, rng), dtype=float)
    arrivals = np.cumsum(gaps)
    spans_ms = np.asarray(cfg.span_dist.sample(n, rng), dtype=float) * 1000.0
    users = rng.integers(0, cfg.user_pool, size=n)

    rows = []
    for i in range(n):
        svc = catalog.services[assignment[i]]
        arr = arrivals[i]
        span = spans_ms[i]
        head_ts = int(np.floor(arr))
        end_ts = int(np.floor(arr + span))
        inst_ts = head_ts // 1000
        user = f"u{users[i]}"
        label = f"inst{i}"
        offsets = rng.uniform(0.0, span, size=svc.degree - 1) if svc.degree > 1 else ()
        times = [head_ts] + [int(np.floor(arr + off)) for off in offsets]
        for j in range(svc.degree):
            ts = times[j]
            rows.append((ts, user, svc.sub_ids[j], svc.head_id, inst_ts,
                         max(0, end_ts - ts), label, svc.partitions[j]))
    rows.sort(key=itemgetter(0, 7))  # stable: generation order breaks ties
    return _merge(rows)


def _merge(rows) -> Trace:
    """Build a trace from rows in ``TRACE_HEADER`` layout, in generation or file order.

    The merged order is a stable sort on (timestamp, partition), so ties keep
    input order, and a tuple's position in it is its ``seq``.  Rows that come
    in merged order (``write_trace`` writes them so) are numbered as they
    come, without holding the rows; any other order is sorted once at the end.
    """
    stream, truth, partition = [], [], []
    merged = True
    for seq, (ts, user, service, head, inst_ts, resp, label, part) in enumerate(rows):
        if seq and (ts, part) < (stream[-1].timestamp, partition[-1]):
            merged = False
        stream.append(StreamTuple(seq, ts, user, service, head, inst_ts, resp))
        truth.append(label)
        partition.append(part)
    if not merged:
        order = sorted(range(len(stream)), key=lambda i: (stream[i].timestamp, partition[i]))
        stream = [replace(stream[i], seq=seq) for seq, i in enumerate(order)]
        truth = [truth[i] for i in order]
        partition = [partition[i] for i in order]
    return Trace(stream, truth, partition)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def write_trace(trace: Trace, path) -> None:
    """Write the trace as a single CSV in ``seq`` order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for t, label, part in zip(trace.stream, trace.truth, trace.partition):
            w.writerow(
                [
                    t.timestamp,
                    t.user_id,
                    t.service_id,
                    t.head_id,
                    t.instance_timestamp,
                    t.response_time,
                    label,
                    part,
                ]
            )


def read_csv_rows(path, header, parse, error=ConfigError):
    """Yield ``parse(*fields)`` for each data row of a CSV file headed by ``header``.

    A bad header, a row of the wrong width or a field ``parse`` rejects with
    a ValueError raises ``error`` naming the file and the 1-based row
    (header excluded).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        got = next(r, None)
        if got != header:
            raise error(f"{path}: bad header {got!r}, expected {header!r}")
        width = len(header)
        for row_no, fields in enumerate(r, 1):
            if len(fields) != width:
                raise error(f"{path}: row {row_no}: {len(fields)} fields, expected {width}")
            try:
                yield parse(*fields)
            except ValueError as exc:
                raise error(f"{path}: row {row_no}: {exc}") from None


def read_trace(path) -> Trace:
    """Parse a trace CSV, validating every row; errors name the file and the row.

    Truth labels are interned, so an instance's tuples share one label
    object, as in a generated trace; the memory this saves pays for the seq
    numbers and the truth and partition columns.
    """
    last_ts: dict = {}  # partition -> its latest timestamp so far

    def typed(ts, user, service, head, inst_ts, resp, label, part):
        ts, part = int(ts), int(part)
        if part < 0:
            raise ValueError(f"negative partition {part}")
        prev = last_ts.get(part, ts)
        if ts < prev:
            raise ValueError(f"timestamp {ts} precedes {prev} in partition {part}")
        last_ts[part] = ts
        return ts, user, service, head, int(inst_ts), int(resp), intern(label), part

    return _merge(read_csv_rows(path, TRACE_HEADER, typed, TraceParseError))


# ---------------------------------------------------------------------------
# replay + ground truth
# ---------------------------------------------------------------------------


def truth_index(trace: Trace) -> dict:
    """Map truth label -> TruthInstance with degree and arrival bounds.

    The stream is timestamp-sorted, so a label's first and last tuples are
    its primary and last arrivals.  Labels are ordered as a partition-by-
    partition scan meets them (fit-dist takes its samples in this order).
    """
    first: dict = {}
    last: dict = {}
    count: dict = {}
    met: dict = {}  # label -> (lowest partition, first seq in it)
    for seq, (t, lbl, part) in enumerate(zip(trace.stream, trace.truth, trace.partition)):
        if lbl in count:
            count[lbl] += 1
            if part < met[lbl][0]:
                met[lbl] = (part, seq)
        else:
            count[lbl] = 1
            first[lbl] = t.timestamp
            met[lbl] = (part, seq)
        last[lbl] = t.timestamp
    return {
        lbl: TruthInstance(lbl, count[lbl], first[lbl], last[lbl])
        for lbl in sorted(count, key=met.__getitem__)
    }


def replay(trace: Trace) -> List[StreamTuple]:
    """The operator-facing stream: every tuple once, in global ``seq`` order.

    Returns ``trace.stream`` itself, not a copy; operator clocks are driven
    by its timestamps.  Raises ConfigError when the stream is not numbered
    0..n-1 or goes back in time (a hand-built trace can be either).
    """
    stream = trace.stream
    for i, t in enumerate(stream):
        if t.seq != i:
            raise ConfigError(f"stream position {i} holds seq {t.seq}")
        if i and t.timestamp < stream[i - 1].timestamp:
            raise ConfigError(f"stream goes back in time at seq {i}")
    return stream
