"""Stream operators: key extraction and window aggregation.

Both operators read the trace's own merged stream, which
:func:`~swakit.trace.replay` checks and hands over without a copy.  Two
aggregation operators are provided.  ``aggregate_sliding`` is the
classic count-based batch: every ``window`` tuples are grouped by key and
emitted together.  ``aggregate_swa`` keeps one small fixed-capacity window
per key: a window opens when the first tuple of its key arrives, closes
when it reaches ``capacity`` tuples (reason ``full``) or when its age
exceeds ``timeout_s`` (reason ``timeout``), and is emitted immediately on
close.  Timeouts are detected by sweeps that run on every arrival and every
100 ms of event time, so a window's close timestamp never depends on how
long the stream stays silent afterwards.

Operators never see ground-truth labels; they work on
:class:`~swakit.trace.StreamTuple` and key only on head id, instance
timestamp, and user id.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence

from .errors import ConfigError
from .params import WindowParams
from .trace import StreamTuple, Trace, read_csv_rows, replay

__all__ = [
    "Strategy",
    "extract_key",
    "OperatorStats",
    "EmittedInstance",
    "EmissionRecord",
    "aggregate_swa",
    "aggregate_sliding",
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
    "write_emissions",
    "read_emissions",
    "EMITTED_HEADER",
]

SWEEP_MS = 100

EMITTED_HEADER = ["key", "k", "close_reason", "closed_at_ms", "avg_response_ms", "span_ms"]
MEMBERS_HEADER = ["emission", "seq"]


class Strategy(Enum):
    """Association strategy: which tuple fields form the window key."""

    HEAD = "head"
    HEAD_TS = "head_ts"
    HEAD_IP = "head_ip"
    HEAD_TS_IP = "head_ts_ip"

    @property
    def key_arity(self) -> int:
        return {"head": 1, "head_ts": 2, "head_ip": 2, "head_ts_ip": 3}[self.value]

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        try:
            return cls(name)
        except ValueError:
            raise ConfigError(
                f"unknown strategy {name!r}, expected one of "
                f"{[s.value for s in cls]}"
            ) from None


def extract_key(t: StreamTuple, strategy: Strategy) -> tuple:
    """Build the association key for a tuple under the given strategy."""
    if strategy is Strategy.HEAD:
        return (t.head_id,)
    if strategy is Strategy.HEAD_TS:
        return (t.head_id, t.instance_timestamp)
    if strategy is Strategy.HEAD_IP:
        return (t.head_id, t.user_id)
    if strategy is Strategy.HEAD_TS_IP:
        return (t.head_id, t.instance_timestamp, t.user_id)
    raise ConfigError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# operator statistics
# ---------------------------------------------------------------------------


@dataclass
class OperatorStats:
    """Per-operator accounting: occupancy at every arrival, residence per emission.

    Occupancy is resident tuples for the sliding buffer and open windows for
    the keyed aggregate; ``slot_bytes`` is the storage one unit of occupancy
    reserves (``tuple_size``, or ``capacity * tuple_size`` for the keyed
    aggregate).  Occupancy is kept as a running sum and maximum over
    ``tuples_in`` arrivals; ``residence_ms`` collects one sample per emission.
    """

    name: str
    slot_bytes: int = 0
    tuples_in: int = 0
    tuples_out: int = 0
    occupancy_sum: int = 0
    occupancy_max: int = 0
    residence_ms: list = field(default_factory=list)

    def arrive(self, occupancy: int) -> None:
        self.tuples_in += 1
        self.occupancy_sum += occupancy
        if occupancy > self.occupancy_max:
            self.occupancy_max = occupancy

    @property
    def occupancy_avg(self):
        return self.occupancy_sum / self.tuples_in if self.tuples_in else 0.0

    @property
    def storage_avg(self):
        return (self.occupancy_sum * self.slot_bytes) / self.tuples_in if self.tuples_in else 0.0

    @property
    def storage_max(self):
        return self.occupancy_max * self.slot_bytes

    @property
    def residence_avg_ms(self):
        xs = self.residence_ms
        return sum(xs) / len(xs) if xs else 0.0

    def check_conservation(self):
        if self.tuples_in != self.tuples_out:
            raise AssertionError(
                f"{self.name}: conservation violated: in={self.tuples_in} "
                f"out={self.tuples_out}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tuples_in": self.tuples_in,
            "tuples_out": self.tuples_out,
            "occupancy_avg": self.occupancy_avg,
            "occupancy_max": self.occupancy_max,
            "storage_avg_bytes": self.storage_avg,
            "storage_max_bytes": self.storage_max,
            "residence_avg_ms": self.residence_avg_ms,
        }


# ---------------------------------------------------------------------------
# emissions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmittedInstance:
    """One closed window/group: the operator's guess at a service instance."""

    key: tuple
    count: int
    close_reason: str  # full | timeout | batch
    opened_at: int
    closed_at: int
    first_ts: int
    last_ts: int
    response_avg: float
    response_min: int
    response_max: int
    member_seqs: Optional[tuple] = None

    @property
    def span_ms(self) -> int:
        return self.last_ts - self.first_ts


@dataclass(frozen=True)
class EmissionRecord:
    """One emission read back from disk: the ``emitted.csv`` columns only.

    ``key`` is the key's display string, as written; ``member_seqs`` comes
    from the member sidecar when one is read.
    """

    key: str
    count: int
    close_reason: str
    closed_at: int
    response_avg: float
    span_ms: int
    member_seqs: Optional[tuple] = None


def _key_str(key) -> str:
    if isinstance(key, tuple):
        return "|".join(str(p) for p in key)
    return str(key)


def write_emissions(emissions, path, members_path=None) -> None:
    """Write the emitted-instance CSV (plus optional member-seq sidecar)."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EMITTED_HEADER)
        for e in emissions:
            w.writerow(
                [
                    _key_str(e.key),
                    e.count,
                    e.close_reason,
                    e.closed_at,
                    f"{e.response_avg:.6f}",
                    e.span_ms,
                ]
            )
    if members_path is not None:
        with open(members_path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(MEMBERS_HEADER)
            for i, e in enumerate(emissions):
                for s in e.member_seqs or ():
                    w.writerow([i, s])


def read_emissions(path, members_path=None) -> list:
    """Read :class:`EmissionRecord` rows back; member seqs only if a sidecar is given."""
    rows = list(read_csv_rows(
        path,
        EMITTED_HEADER,
        lambda key, k, reason, closed_at, avg_resp, span: dict(
            key=key,
            count=int(k),
            close_reason=reason,
            closed_at=int(closed_at),
            response_avg=float(avg_resp),
            span_ms=int(span),
        ),
    ))
    members = {}
    if members_path is not None:
        for em, seq in read_csv_rows(members_path, MEMBERS_HEADER,
                                     lambda em, seq: (int(em), int(seq))):
            members.setdefault(em, []).append(seq)
    return [
        EmissionRecord(**row, member_seqs=tuple(members.get(i, ())) if members_path else None)
        for i, row in enumerate(rows)
    ]


# ---------------------------------------------------------------------------
# keyed small-window aggregation
# ---------------------------------------------------------------------------


class _Window:
    __slots__ = ("key", "opened_at", "deadline", "seqs", "first_ts", "last_ts",
                 "resp_sum", "resp_min", "resp_max", "closed")

    def __init__(self, key, opened_at, timeout_ms):
        self.key = key
        self.opened_at = opened_at
        self.deadline = opened_at + timeout_ms
        self.seqs = []
        self.first_ts = None
        self.last_ts = None
        self.resp_sum = 0
        self.resp_min = None
        self.resp_max = None
        self.closed = False

    def add(self, t: StreamTuple):
        self.seqs.append(t.seq)
        if self.first_ts is None or t.timestamp < self.first_ts:
            self.first_ts = t.timestamp
        if self.last_ts is None or t.timestamp > self.last_ts:
            self.last_ts = t.timestamp
        self.resp_sum += t.response_time
        if self.resp_min is None or t.response_time < self.resp_min:
            self.resp_min = t.response_time
        if self.resp_max is None or t.response_time > self.resp_max:
            self.resp_max = t.response_time


def aggregate_swa(
    tuples: Sequence[StreamTuple],
    params: WindowParams,
    strategy: Strategy,
    tuple_size: int = 135,
    keep_members: bool = True,
):
    """Keyed fixed-capacity windows with timeout, one open window per key.

    The event clock is driven by tuple timestamps.  Expiry is strict: a
    window whose age exceeds ``timeout_s`` closes at the first sweep after
    its deadline, where sweeps happen at every arrival and every 100 ms
    boundary of event time.  A tuple arriving exactly at the deadline is
    still admitted.  End of stream flushes every open window with reason
    ``timeout``.
    """
    timeout_ms = params.timeout_s * 1000
    stats = OperatorStats("aggregate_swa", slot_bytes=params.capacity * tuple_size)
    open_windows: dict = {}
    expiry = []  # heap of (deadline, seq#, window)
    counter = 0
    emissions: List[EmittedInstance] = []

    def emit(win: _Window, reason: str, closed_at: int):
        win.closed = True
        emissions.append(
            EmittedInstance(
                key=win.key,
                count=len(win.seqs),
                close_reason=reason,
                opened_at=win.opened_at,
                closed_at=closed_at,
                first_ts=win.first_ts,
                last_ts=win.last_ts,
                response_avg=win.resp_sum / len(win.seqs),
                response_min=win.resp_min,
                response_max=win.resp_max,
                member_seqs=tuple(win.seqs) if keep_members else None,
            )
        )
        stats.tuples_out += len(win.seqs)
        stats.residence_ms.append(float(closed_at - win.opened_at))

    def sweep(now: int):
        # close every window whose deadline passed strictly before `now`;
        # the recorded close time is the earliest sweep that saw it expired
        while expiry and expiry[0][0] < now:
            _, _, win = heapq.heappop(expiry)
            if win.closed:
                continue
            boundary = (win.deadline // SWEEP_MS + 1) * SWEEP_MS
            emit(win, "timeout", min(boundary, now))
            del open_windows[win.key]

    last_ts = None
    for t in tuples:
        sweep(t.timestamp)
        stats.arrive(len(open_windows))
        key = extract_key(t, strategy)
        win = open_windows.get(key)
        if win is None:
            win = _Window(key, t.timestamp, timeout_ms)
            open_windows[key] = win
            heapq.heappush(expiry, (win.deadline, counter, win))
            counter += 1
        win.add(t)
        if len(win.seqs) >= params.capacity:
            emit(win, "full", t.timestamp)
            del open_windows[key]
        last_ts = t.timestamp

    if last_ts is not None:
        sweep(last_ts)  # catch 100 ms boundaries between the final arrivals
        for _, _, win in sorted(expiry):
            if not win.closed:
                emit(win, "timeout", last_ts)
        open_windows.clear()
    stats.check_conservation()
    return emissions, stats


# ---------------------------------------------------------------------------
# count-based sliding batches
# ---------------------------------------------------------------------------


def _check_window(window: int, step: int) -> None:
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    if step < 1 or step > window:
        raise ConfigError(f"need 1 <= step <= window, got step {step}, window {window}")


def aggregate_sliding(
    tuples: Sequence[StreamTuple],
    window: int,
    step: int,
    strategy: Strategy,
    tuple_size: int = 135,
    keep_members: bool = True,
):
    """Group every ``window``-tuple batch by key, advancing ``step`` tuples.

    With ``step == window`` this is plain tumbling batches (each tuple
    appears in exactly one batch); smaller steps re-deliver tuples into
    overlapping batches.  A final partial batch is emitted at end of
    stream.  Batch processing is modeled as a single service event: every
    group in a batch closes at the batch's last arrival.
    """
    _check_window(window, step)
    stats = OperatorStats("aggregate_sliding", slot_bytes=tuple_size)
    buf: List[StreamTuple] = []
    emissions: List[EmittedInstance] = []
    emitted_seqs = set()

    def close_batch(batch):
        closed_at = max(t.timestamp for t in batch)
        groups: dict = {}
        for t in batch:
            groups.setdefault(extract_key(t, strategy), []).append(t)
        for key, members in groups.items():
            resp = [m.response_time for m in members]
            ts = [m.timestamp for m in members]
            emissions.append(
                EmittedInstance(
                    key=key,
                    count=len(members),
                    close_reason="batch",
                    opened_at=min(ts),
                    closed_at=closed_at,
                    first_ts=min(ts),
                    last_ts=max(ts),
                    response_avg=sum(resp) / len(resp),
                    response_min=min(resp),
                    response_max=max(resp),
                    member_seqs=tuple(m.seq for m in members) if keep_members else None,
                )
            )
            stats.residence_ms.append(closed_at - sum(ts) / len(ts))
            for m in members:
                emitted_seqs.add(m.seq)

    for t in tuples:
        stats.arrive(len(buf))
        buf.append(t)
        if len(buf) == window:
            close_batch(buf)
            buf = buf[step:]
    if buf:
        close_batch(buf)
    # a tuple can land in several overlapping batches; conservation is
    # accounted on distinct tuples
    stats.tuples_out = len(emitted_seqs)
    stats.check_conservation()
    return emissions, stats


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineConfig:
    """Declarative pipeline: tuple size, aggregate choice, strategy; checked when built."""

    tuple_size: int = 135
    kind: str = "swa"
    capacity: int = 13
    timeout_s: int = 22
    window: int = 32000
    step: int = 32000
    strategy: Strategy = Strategy.HEAD_TS_IP

    def __post_init__(self):
        if self.tuple_size < 1:
            raise ConfigError(f"tuple_size must be >= 1, got {self.tuple_size}")
        if self.kind not in ("swa", "sliding"):
            raise ConfigError(f"aggregate kind must be 'swa' or 'sliding', got {self.kind!r}")
        WindowParams(self.capacity, self.timeout_s)
        _check_window(self.window, self.step)
        if isinstance(self.strategy, str):
            self.strategy = Strategy.parse(self.strategy)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        try:
            adoc = doc["aggregate"]
            return cls(
                tuple_size=int(doc.get("queue", {}).get("tuple_size", 135)),
                kind=adoc.get("kind", "swa"),
                capacity=int(adoc.get("capacity", 13)),
                timeout_s=int(adoc.get("timeout_s", 22)),
                window=int(adoc.get("window", 32000)),
                step=int(adoc.get("step", adoc.get("window", 32000))),
                strategy=Strategy.parse(doc.get("strategy", "head_ts_ip")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad pipeline config: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "queue": {"tuple_size": self.tuple_size},
            "aggregate": {
                "kind": self.kind,
                "capacity": self.capacity,
                "timeout_s": self.timeout_s,
                "window": self.window,
                "step": self.step,
            },
            "strategy": self.strategy.value,
        }

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"pipeline config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


@dataclass
class PipelineResult:
    emissions: list
    aggregate_stats: OperatorStats


def run_pipeline(trace: Trace, cfg: PipelineConfig, keep_members: bool = True) -> PipelineResult:
    """Replay a trace through the configured aggregate."""
    stream = replay(trace)
    if cfg.kind == "swa":
        emissions, astats = aggregate_swa(
            stream,
            WindowParams(cfg.capacity, cfg.timeout_s),
            cfg.strategy,
            tuple_size=cfg.tuple_size,
            keep_members=keep_members,
        )
    else:
        emissions, astats = aggregate_sliding(
            stream,
            cfg.window,
            cfg.step,
            cfg.strategy,
            tuple_size=cfg.tuple_size,
            keep_members=keep_members,
        )
    return PipelineResult(emissions, astats)
