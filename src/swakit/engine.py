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

Operators never see ground-truth labels; they read the columns of a
:class:`~swakit.trace.Stream` and key only on head id, instance timestamp,
and user id, factorized once per strategy into integer key ids.
"""

from __future__ import annotations

import csv
import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError
from .params import WindowParams
from .trace import Stream, Trace, read_csv_rows, replay

__all__ = [
    "Strategy",
    "key_ids",
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
_SLIDING_RUN = 1 << 20  # member slots per sliding group-by

EMITTED_HEADER = ["key", "k", "close_reason", "closed_at_ms", "avg_response_ms", "span_ms"]
MEMBERS_HEADER = ["emission", "seq"]


class Strategy(Enum):
    """Association strategy: which tuple fields form the window key."""

    HEAD = "head"
    HEAD_TS = "head_ts"
    HEAD_IP = "head_ip"
    HEAD_TS_IP = "head_ts_ip"

    @property
    def fields(self) -> tuple:
        """The stream columns that form the key, head first."""
        return {"head": ("head",), "head_ts": ("head", "instance_ts"),
                "head_ip": ("head", "user"),
                "head_ts_ip": ("head", "instance_ts", "user")}[self.value]

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        try:
            return cls(name)
        except ValueError:
            raise ConfigError(
                f"unknown strategy {name!r}, expected one of "
                f"{[s.value for s in cls]}"
            ) from None


def key_ids(stream: Stream, strategy: Strategy):
    """(key id per seq, key tuple per id) under ``strategy``; computed once per stream.

    Ids run from 0; a key tuple holds the head id, then the instance
    timestamp and/or the user id, as the strategy asks.
    """
    if strategy not in stream.keys:
        cols = [getattr(stream, f) for f in strategy.fields]
        ids = np.zeros(len(stream), np.int64)
        for col in cols:  # the first row of each key comes with the last step
            _, codes = np.unique(col, return_inverse=True)
            _, first, ids = np.unique(ids * (codes.max(initial=0) + 1) + codes,
                                      return_index=True, return_inverse=True)
        parts = [col[first].tolist() if f == "instance_ts"
                 else [stream.names[c] for c in col[first].tolist()]
                 for f, col in zip(strategy.fields, cols)]
        stream.keys[strategy] = (ids, list(zip(*parts)))
    return stream.keys[strategy]


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
    return "|".join(map(str, key)) if isinstance(key, tuple) else str(key)


def write_emissions(emissions, path, members_path=None) -> None:
    """Write the emitted-instance CSV (plus optional member-seq sidecar)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EMITTED_HEADER)
        w.writerows((_key_str(e.key), e.count, e.close_reason, e.closed_at,
                     f"{e.response_avg:.6f}", e.span_ms) for e in emissions)
    if members_path is not None:
        with open(members_path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(MEMBERS_HEADER)
            w.writerows((i, s) for i, e in enumerate(emissions) for s in e.member_seqs or ())


def read_emissions(path, members_path=None) -> list:
    """Read :class:`EmissionRecord` rows back; member seqs only if a sidecar is given."""
    rows = list(read_csv_rows(path, EMITTED_HEADER, lambda key, k, reason, closed_at, avg, span: (
        key, int(k), reason, int(closed_at), float(avg), int(span))))
    members = {}
    if members_path is not None:
        for em, seq in read_csv_rows(members_path, MEMBERS_HEADER,
                                     lambda em, seq: (int(em), int(seq))):
            members.setdefault(em, []).append(seq)
    return [EmissionRecord(*row, member_seqs=tuple(members.get(i, ())) if members_path else None)
            for i, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# keyed small-window aggregation
# ---------------------------------------------------------------------------


def _emit(stream, seqs, group, keys, closes, keep_members):
    """Emissions in close order, and their members' mean timestamps, from group-bys.

    Window ``group[i]`` holds seq ``seqs[i]`` (members keep this order) and
    has key ``keys[group[i]]``; it opens at its first member's time.
    ``closes`` lists (window, reason, closed_at) per emission.
    """
    if not closes:
        return [], []
    order = np.argsort(group, kind="stable")
    seqs = seqs[order]
    count = np.bincount(group, minlength=len(keys))
    start = np.cumsum(count) - count
    ts, resp = stream.timestamp[seqs], stream.response[seqs]
    cols = [np.minimum.reduceat(ts, start), np.maximum.reduceat(ts, start),
            np.add.reduceat(ts, start), np.add.reduceat(resp, start),
            np.minimum.reduceat(resp, start), np.maximum.reduceat(resp, start)]
    first, last, ts_sum, resp_sum, resp_min, resp_max = (c.tolist() for c in cols)
    count, start, members = count.tolist(), start.tolist(), seqs.tolist()
    emissions = [EmittedInstance(
        keys[w], count[w], reason, first[w], closed_at, first[w], last[w],
        resp_sum[w] / count[w], resp_min[w], resp_max[w],
        tuple(members[start[w]:start[w] + count[w]]) if keep_members else None)
        for w, reason, closed_at in closes]
    return emissions, [ts_sum[w] / count[w] for w, _, _ in closes]


def aggregate_swa(
    stream: Stream,
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
    ids, key_of = key_ids(stream, strategy)
    timeout_ms, capacity = params.timeout_s * 1000, params.capacity
    windows = []  # window id per seq
    size, key = [], []  # per window id, in open order
    open_by_key: dict = {}
    expiry = []  # heap of (deadline, window id)
    closes = []  # (window, reason, closed_at) per emission
    occ_sum = occ_max = 0

    def close(w, reason, now):
        del open_by_key[key[w]]
        closes.append((w, reason, now))

    now = None
    for now, k in zip(stream.timestamp.tolist(), ids.tolist()):
        # close every window whose deadline passed strictly before `now`;
        # the recorded close time is the earliest sweep that saw it expired
        while expiry and expiry[0][0] < now:
            deadline, w = heapq.heappop(expiry)
            if open_by_key.get(key[w]) == w:
                close(w, "timeout", min((deadline // SWEEP_MS + 1) * SWEEP_MS, now))
        occ = len(open_by_key)
        occ_sum += occ
        if occ > occ_max:
            occ_max = occ
        w = open_by_key.get(k)
        if w is None:
            w = open_by_key[k] = len(key)
            size.append(0)
            key.append(k)
            heapq.heappush(expiry, (now + timeout_ms, w))
        windows.append(w)
        size[w] += 1
        if size[w] >= capacity:
            close(w, "full", now)
    for _, w in sorted(expiry):  # end of stream: flush in deadline order
        if open_by_key.get(key[w]) == w:
            close(w, "timeout", now)

    stats = OperatorStats("aggregate_swa", slot_bytes=capacity * tuple_size, tuples_in=len(ids),
                          occupancy_sum=occ_sum, occupancy_max=occ_max)
    emissions, _ = _emit(stream, np.arange(len(ids)), np.array(windows, np.int64),
                         [key_of[k] for k in key], closes, keep_members)
    stats.residence_ms = [float(e.closed_at - e.opened_at) for e in emissions]
    stats.tuples_out = sum(e.count for e in emissions)
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
    stream: Stream,
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
    group in a batch closes at the batch's last arrival.  Groups are emitted
    batch by batch, in the order their first members arrived.
    """
    _check_window(window, step)
    ids, key_of = key_ids(stream, strategy)
    n = len(ids)
    # the buffer holds i tuples at arrival i until it first fills, then
    # drops to window - step at every close
    occ = np.arange(n)
    occ[window:] = window - step + (occ[window:] - window) % step
    stats = OperatorStats("aggregate_sliding", slot_bytes=tuple_size, tuples_in=n,
                          occupancy_sum=int(occ.sum()), occupancy_max=int(occ.max(initial=0)))
    full = (n - window) // step + 1 if n >= window else 0
    starts = list(range(0, full * step, step)) + ([full * step] if full * step < n else [])
    emissions = []
    seen = np.zeros(n, bool)
    per_run = max(1, _SLIDING_RUN // window)  # batches grouped together, bounding memory
    for r in range(0, len(starts), per_run):
        lo = np.array(starts[r:r + per_run])
        size = np.minimum(lo + window, n) - lo
        offset = np.cumsum(size) - size  # of each batch in the run
        seqs = np.arange(size.sum()) + np.repeat(lo - offset, size)
        batch = np.repeat(np.arange(len(lo)), size)
        seen[seqs] = True
        # one group per (batch, key), numbered in the order of first arrival
        _, first, group = np.unique(batch * len(key_of) + ids[seqs], return_index=True,
                                    return_inverse=True)
        order = np.argsort(first)
        group, first = np.argsort(order)[group], first[order]
        closed_at = np.maximum.reduceat(stream.timestamp[seqs], offset)[batch[first]]
        ems, mean_ts = _emit(stream, seqs, group, [key_of[k] for k in ids[seqs[first]].tolist()],
                             [(g, "batch", t) for g, t in enumerate(closed_at.tolist())],
                             keep_members)
        emissions += ems
        stats.residence_ms += [e.closed_at - t for e, t in zip(ems, mean_ts)]
    # a tuple can land in several overlapping batches; conservation is
    # accounted on distinct tuples
    stats.tuples_out = int(seen.sum())
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
        return PipelineResult(*aggregate_swa(
            stream, WindowParams(cfg.capacity, cfg.timeout_s), cfg.strategy,
            tuple_size=cfg.tuple_size, keep_members=keep_members))
    return PipelineResult(*aggregate_sliding(
        stream, cfg.window, cfg.step, cfg.strategy, tuple_size=cfg.tuple_size,
        keep_members=keep_members))
