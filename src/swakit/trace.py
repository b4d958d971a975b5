"""Synthetic invocation traces: catalog, generation, CSV format, replay.

A trace is a set of per-partition, timestamp-sorted invocation tuples.
Each composite service has a head invocation plus subordinate invocations;
all tuples of one live instance share a ground-truth label that exists only
for scoring.  The stream handed to operators (:func:`replay`) is one list
in global timestamp-merged order; it strips the truth label and partition
column and exposes a stable global sequence number instead, so operators
can never key on ground truth.

Timestamps are integer milliseconds.  Span distributions are sampled in
seconds (matching how response times are usually modeled) and converted;
arrival distributions are sampled directly in milliseconds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, List

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
    "InvocationTuple",
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
    "truth_by_seq",
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
class InvocationTuple:
    """One sub-service invocation as recorded in a trace file."""

    timestamp: int
    user_id: str
    service_id: str
    head_id: str
    instance_timestamp: int
    response_time: int
    truth_instance: str


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
    """Per-partition, timestamp-sorted invocation tuples."""

    partitions: List[List[InvocationTuple]]

    @property
    def n_tuples(self) -> int:
        return sum(len(p) for p in self.partitions)

    def all_tuples(self) -> Iterable[InvocationTuple]:
        for part in self.partitions:
            yield from part


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

    parts: List[List[InvocationTuple]] = [[] for _ in range(catalog.n_partitions)]
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
            parts[svc.partitions[j]].append(
                InvocationTuple(
                    timestamp=ts,
                    user_id=user,
                    service_id=svc.sub_ids[j],
                    head_id=svc.head_id,
                    instance_timestamp=inst_ts,
                    response_time=max(0, end_ts - ts),
                    truth_instance=label,
                )
            )
    for p in parts:
        p.sort(key=lambda t: t.timestamp)  # stable: generation order breaks ties
    return Trace(parts)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def _global_order(trace: Trace):
    """Merged (partition, index) order: timestamp, then partition, then input order."""
    entries = []
    for p, part in enumerate(trace.partitions):
        for i, t in enumerate(part):
            entries.append((t.timestamp, p, i))
    entries.sort()
    return entries


def write_trace(trace: Trace, path) -> None:
    """Write the trace as a single CSV in global merged order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for _, p, i in _global_order(trace):
            t = trace.partitions[p][i]
            w.writerow(
                [
                    t.timestamp,
                    t.user_id,
                    t.service_id,
                    t.head_id,
                    t.instance_timestamp,
                    t.response_time,
                    t.truth_instance,
                    p,
                ]
            )


def read_trace(path) -> Trace:
    """Parse a trace CSV, validating structure; errors name the bad row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r)
        except StopIteration:
            raise TraceParseError("file is empty, expected a header row") from None
        if header != TRACE_HEADER:
            raise TraceParseError(
                f"bad header {header!r}, expected {TRACE_HEADER!r}"
            )
        parts: List[List[InvocationTuple]] = []
        for row_no, row in enumerate(r, start=1):
            if len(row) != len(TRACE_HEADER):
                raise TraceParseError(
                    f"expected {len(TRACE_HEADER)} columns, got {len(row)}", row=row_no
                )
            try:
                ts = int(row[0])
                inst_ts = int(row[4])
                resp = int(row[5])
                part = int(row[7])
            except ValueError as exc:
                raise TraceParseError(f"non-integer field: {exc}", row=row_no) from None
            if part < 0:
                raise TraceParseError(f"negative partition {part}", row=row_no)
            while len(parts) <= part:
                parts.append([])
            if parts[part] and ts < parts[part][-1].timestamp:
                raise TraceParseError(
                    f"timestamp {ts} precedes {parts[part][-1].timestamp} "
                    f"in partition {part}",
                    row=row_no,
                )
            parts[part].append(
                InvocationTuple(ts, row[1], row[2], row[3], inst_ts, resp, row[6])
            )
    return Trace(parts)


# ---------------------------------------------------------------------------
# replay + operator-facing stream view
# ---------------------------------------------------------------------------


def truth_by_seq(trace: Trace) -> dict:
    """Map global sequence number -> ground-truth instance label."""
    return {
        seq: trace.partitions[p][i].truth_instance
        for seq, (_, p, i) in enumerate(_global_order(trace))
    }


def truth_index(trace: Trace) -> dict:
    """Map truth label -> TruthInstance with degree and arrival bounds."""
    first: dict = {}
    last: dict = {}
    count: dict = {}
    for t in trace.all_tuples():
        lbl = t.truth_instance
        count[lbl] = count.get(lbl, 0) + 1
        if lbl not in first or t.timestamp < first[lbl]:
            first[lbl] = t.timestamp
        if lbl not in last or t.timestamp > last[lbl]:
            last[lbl] = t.timestamp
    return {
        lbl: TruthInstance(lbl, count[lbl], first[lbl], last[lbl]) for lbl in count
    }


def replay(trace: Trace) -> List[StreamTuple]:
    """The operator-facing stream: every tuple once, in global ``seq`` order.

    ``seq`` numbers the timestamp merge of the partitions (ties go to the
    lower partition, then to input order), and operator clocks are driven by
    tuple timestamps.  Each partition must be timestamp-sorted.
    """
    for p, part in enumerate(trace.partitions):
        for i in range(1, len(part)):
            if part[i].timestamp < part[i - 1].timestamp:
                raise ConfigError(
                    f"partition {p} is not timestamp-sorted at position {i}"
                )
    stream = []
    for seq, (_, p, i) in enumerate(_global_order(trace)):
        t = trace.partitions[p][i]
        stream.append(
            StreamTuple(
                seq,
                t.timestamp,
                t.user_id,
                t.service_id,
                t.head_id,
                t.instance_timestamp,
                t.response_time,
            )
        )
    return stream
