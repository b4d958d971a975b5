"""Stream operators: key extraction and window aggregation.

Both operators read the trace's own merged stream, which
:func:`~swakit.trace.replay` checks and hands over without a copy.  Two
aggregation operators are provided.  ``aggregate_sliding`` is the
classic count-based batch: every ``window`` tuples are grouped by key and
emitted together.  ``aggregate_swa`` keeps one small fixed-capacity window
per key: a window opens when the first tuple of its key arrives, closes
when it reaches ``capacity`` tuples (reason ``full``) or when its age
exceeds ``timeout_s`` (reason ``timeout``), and is emitted immediately on
close.  A timeout is seen by the first sweep past the deadline, and sweeps
happen at every arrival and every 100 ms of event time, so a window's close
timestamp never depends on how long the stream stays silent afterwards.
The operator cuts each key's tuples into windows by capacity and deadline,
then orders the closes by the arrival that triggers them.

Operators never see ground-truth labels; they read the columns of a
:class:`~swakit.trace.Stream` and key only on head id, instance timestamp,
and user id, factorized once per strategy into integer key ids by
:func:`~swakit.trace.sorted_runs`, one packed ``np.sort``, which also groups the tumbling
batches by key.  A key's display string is spelled only when ``emitted.csv``
is written, with a column file beside each emission CSV, which
:func:`read_emissions` loads instead of parsing the CSV.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import json_value
from .errors import ConfigError
from .params import WindowParams
from .trace import (Stream, Strings, Trace, _codes, _spell, csv_blocks, load_columns,
                    on_two_threads, replay, save_columns, sorted_runs, write_csv)

__all__ = [
    "Strategy",
    "key_ids",
    "key_names",
    "OperatorStats",
    "Emissions",
    "REASONS",
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
_INT64_MAX = (1 << 63) - 1
_SLIDING_RUN = 1 << 16  # member slots per sliding group-by, two of which may run at once

EMITTED_HEADER = ["key", "k", "close_reason", "closed_at_ms", "avg_response_ms", "span_ms"]
MEMBERS_HEADER = ["emission", "seq"]
EMITTED_DTYPE = np.dtype(list(zip(EMITTED_HEADER, ["O", "i8", "O", "i8", "f8", "i8"])))
MEMBERS_DTYPE = np.dtype([(h, "i8") for h in MEMBERS_HEADER])
REASONS = ("full", "timeout", "batch")  # what an emission's reason code indexes
FULL, TIMEOUT, BATCH = range(len(REASONS))
# column files: what a read of the CSV gives, keys as byte offsets into UTF-8 text
_EMITTED_LAYOUT = [("<i8", True), ("|i1", True), ("<i8", True), ("<f8", True), ("<i8", True),
                   ("<i8", False), ("|u1", False)]
_MEMBERS_LAYOUT = [("<i8", True)] * 2


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
    """(key id per seq, each key's first seq) under ``strategy``; computed once per stream.

    Ids run in the order of the key columns' codes.  ``stream.keys`` caches
    both and the seqs in id order, by arrival in a key.
    """
    if strategy not in stream.keys:
        cols = [getattr(stream, f) for f in strategy.fields]
        for f, col in zip(strategy.fields, cols):
            if col is None:
                raise ConfigError(f"strategy {strategy.value} keys on {f}_id, a column not read")
        order, start = sorted_runs(cols)  # stable: each key's seqs in arrival order
        ids = np.empty(len(order), np.int64)
        ids[order] = np.repeat(np.arange(len(start)), np.diff(start, append=len(order)))
        stream.keys[strategy] = (ids, order[start], order)
    return stream.keys[strategy][:2]


def key_names(stream: Stream, strategy: Strategy) -> Strings:
    """Each key id's display string, as ``emitted.csv`` holds it: the head id, then the
    instance timestamp and/or the user id, as ``strategy`` asks, joined by ``|``: one table."""
    first = key_ids(stream, strategy)[1]
    parts = [getattr(stream, f)[first] if f == "instance_ts"
             else (stream.tables[f], getattr(stream, f)[first]) for f in strategy.fields]
    return _spell([*itertools.chain.from_iterable((p, b"|") for p in parts)][:-1])


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
    ``tuples_in`` arrivals; ``residence_ms`` holds one float64 per emission, averaged by
    a left-to-right sum on every Python (3.12's built-in ``sum`` compensates).
    """

    name: str
    slot_bytes: int = 0
    tuples_in: int = 0
    tuples_out: int = 0
    occupancy_sum: int = 0
    occupancy_max: int = 0
    residence_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))

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
        return float(np.cumsum(xs)[-1] / len(xs)) if len(xs) else 0.0

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


@dataclass(eq=False)
class Emissions:
    """Closed windows as columns, one row per emission in close order.

    These are the ``emitted.csv`` columns: ``key`` holds ids into ``keys``,
    the keys' display strings (``Strings``), which ``spell`` gives when first
    asked for (only writing asks), and ``reason`` holds codes into ``REASONS``.
    Members are CSR: emission ``i`` holds the ``count[i]`` seqs of ``seqs``
    after those of the emissions before it, in arrival order; ``seqs`` is
    None when the emissions were read without their member sidecar.
    """

    spell: Callable[[], Sequence[str]]
    key: np.ndarray
    count: np.ndarray
    reason: np.ndarray
    closed_at: np.ndarray
    response_avg: np.ndarray
    span_ms: np.ndarray
    seqs: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.count)

    @cached_property
    def keys(self) -> Strings:
        return Strings.of(self.spell())

    @cached_property
    def owner(self) -> np.ndarray:
        """The emission of each member in ``seqs``, built once."""
        return np.repeat(np.arange(len(self)), self.count)


def write_emissions(emissions: Emissions, path, members_path=None) -> list:
    """Write the emitted-instance CSV (plus the member sidecar, if the members were kept), each
    with a column file of what :func:`read_emissions` parses from it, one file on a helper
    thread (:func:`~swakit.trace.on_two_threads`); returns their paths."""
    e = emissions

    def emitted():
        keys = _spell([(e.keys, e.key)])  # each row's key
        reason = np.arange(len(REASONS), dtype=np.int8)[e.reason]  # as the CSV names them
        avg, read = _written(e.response_avg)  # as written, and as a read of the CSV gives them
        sha = write_csv(path, EMITTED_HEADER, [(e.keys, e.key), e.count, (REASONS, reason),
                                               e.closed_at, avg, e.span_ms])
        return save_columns(path, sha, [e.count, reason, e.closed_at, read, e.span_ms,
                                        keys.offsets, keys.raw], _EMITTED_LAYOUT)

    def members():
        cols = [e.owner, e.seqs]
        return save_columns(members_path, write_csv(members_path, MEMBERS_HEADER, cols), cols,
                            _MEMBERS_LAYOUT)
    return on_two_threads(lambda write: write(), [emitted] + [members] * (members_path is not None))


def _written(x: np.ndarray):
    """``"%.6f" % v`` for each v of ``x`` as a :class:`Strings` table and a code per value, and
    each text's ``float``: the digits of ``np.rint(x * 1e6)`` (half to even, as ``%`` rounds)
    with a ``.`` before the last six, but ``%`` near a tie or past 2^51, where the product may
    round to the other side, and where the sign bit is set (``-0.000000`` keeps its sign)."""
    y = x * 1e6
    slow = np.signbit(x) | ~((np.abs(y - np.floor(y) - 0.5) > np.abs(np.spacing(y)))
                             & (np.abs(y) < 2.0**51))
    fast, texts = np.rint(y[~slow]).astype(np.int64), ["%.6f" % v for v in x[slow].tolist()]
    table = _spell([fast // 10**6, fast % 10**6 + 10**6],
                   [(Strings.of(texts), np.arange(len(texts)))])
    table.raw[table.offsets[1:len(fast) + 1] - 7] = ord(".")  # over the 1 before the six digits
    codes = np.where(slow, np.cumsum(slow) - 1 + len(fast), np.cumsum(~slow) - 1)
    read = np.rint(y) / 1e6  # both exact: the quotient rounds once, as parsing the text does
    read[slow] = list(map(float, texts))
    return (table, codes), read


def _emitted_columns(path):
    """``emitted.csv``'s columns from its column file, the keys as a function spelling one per
    row; None unless the file checks out (:func:`~swakit.trace.load_columns`), its text is
    UTF-8 that its offsets span and its reasons are codes."""
    try:
        *cols, offsets, raw = load_columns(path, _EMITTED_LAYOUT)  # a TypeError if None
        keys = Strings.checked(raw, offsets)
    except (TypeError, ValueError):
        return None
    if len(keys) != len(cols[0]) or not ((cols[1] >= 0) & (cols[1] < len(REASONS))).all():
        return None
    return (lambda: keys), *cols


def read_emissions(path, members_path=None) -> Emissions:
    """Read ``emitted.csv`` back into columns; members only if a sidecar is given.

    Each file's column file gives its columns when it checks out; otherwise
    the file goes through :func:`~swakit.trace.csv_blocks`.  Errors name the
    file and the 1-based row: a malformed row (found in the block that holds
    it), an unknown close reason, a member row whose emission index is not a
    row of ``emitted.csv``, and an emission whose ``k`` differs from the
    number of member rows listing it.  Members keep their file order within an emission,
    and keys are not coded: ``keys`` holds one string per row.
    """
    if (cols := _emitted_columns(path)) is None:
        blocks = [np.empty(0, EMITTED_DTYPE), *csv_blocks(path, EMITTED_DTYPE)]
        key, count, reason, closed_at, avg, span = [
            np.concatenate([block[h] for block in blocks]) for h in EMITTED_HEADER]
        codes = defaultdict(itertools.count(len(REASONS)).__next__, zip(REASONS, itertools.count()))
        reason = _codes(codes, reason.tolist())
        if len(codes) > len(REASONS):
            i = int(np.argmax(reason >= len(REASONS)))
            raise ConfigError(f"{path}: row {i + 1}: unknown close reason "
                              f"{list(codes)[reason[i]]!r}")
        cols = key.tolist, count, reason.astype(np.int8), closed_at, avg, span
    spell, count, *rest = cols
    seqs = None
    if members_path is not None:
        if (members := load_columns(members_path, _MEMBERS_LAYOUT)) is None:
            blocks = [np.empty(0, MEMBERS_DTYPE), *csv_blocks(members_path, MEMBERS_DTYPE)]
            members = [np.concatenate([block[h] for block in blocks]) for h in MEMBERS_HEADER]
        em, seq = members
        outside = (em < 0) | (em >= len(count))
        if outside.any():
            i = int(np.argmax(outside))
            raise ConfigError(f"{members_path}: row {i + 1}: emission {em[i]} is not a row "
                              f"of {path}, which has {len(count)}")
        listed = np.bincount(em, minlength=len(count))
        if (listed != count).any():
            i = int(np.argmax(listed != count))
            raise ConfigError(f"{path}: row {i + 1}: k is {count[i]}, but {members_path} "
                              f"lists {listed[i]} members")
        seqs = seq[np.argsort(em, kind="stable")]
    return Emissions(spell, np.arange(len(count)), count, *rest, seqs)


def _mean(x, start, count):
    """Each run's mean of the int64 ``x`` (runs at ``start``, ``count`` long) as numpy divides
    the run's int64 sum, but where that sum wraps: there Python divides the exact sum, got in
    32-bit halves (which do not wrap in runs under 2^31).  The halves are only summed when the
    extremes of ``x`` and ``count`` let a sum wrap: they would cost a fifth of a tumbling run."""
    mean = np.add.reduceat(x, start) / count
    if max(-int(x.min(initial=0)), int(x.max(initial=0))) * int(count.max(initial=0)) < 1 << 63:
        return mean  # no run's sum can wrap
    hi, lo = np.add.reduceat(x >> 32, start), np.add.reduceat(x & 0xFFFFFFFF, start)
    hi += lo >> 32  # the sum is hi * 2^32 + lo % 2^32: it wraps unless hi fits 32 bits
    for i in np.flatnonzero((hi < -(1 << 31)) | (hi >= 1 << 31)).tolist():  # a run, not a tuple
        mean[i] = (int(hi[i]) << 32 | int(lo[i]) & 0xFFFFFFFF) / int(count[i])
    return mean


def _emit(stream, strategy, seqs, count, rank, key, reason, closed_at):
    """Emissions from runs of members, their members' timestamps in emission order, and where
    each emission's members start among them.

    ``seqs`` holds the runs back to back, run i's ``count[i]`` members in
    arrival order; emission j is run ``rank[j]``.  ``key`` (``strategy``'s
    key ids), ``reason`` and ``closed_at`` are given per emission.
    """
    run_start, count = (np.cumsum(count) - count)[rank], count[rank]
    start = np.cumsum(count) - count
    seqs = seqs[np.arange(len(seqs)) + np.repeat(run_start - start, count)]  # runs in rank order
    ts = stream.timestamp[seqs]
    ems = Emissions(partial(key_names, stream, strategy), key, count, reason, closed_at,
                    _mean(stream.response[seqs], start, count),
                    ts[start + count - 1] - ts[start], seqs)
    return ems, ts, start


# ---------------------------------------------------------------------------
# keyed small-window aggregation
# ---------------------------------------------------------------------------


def aggregate_swa(
    stream: Stream,
    params: WindowParams,
    strategy: Strategy,
    tuple_size: int = 135,
):
    """Keyed fixed-capacity windows with timeout, one open window per key.

    The event clock is driven by tuple timestamps.  A window is cut from its
    key's own tuples: the one that opens it takes the key's next tuples
    until it holds ``capacity`` (closing ``full`` at the arrival that fills
    it) or a tuple of any key arrives after its deadline, ``timeout_s`` after
    it opened; a tuple arriving exactly at the deadline is still admitted.
    A timed-out window closes at the first sweep past its deadline, where
    sweeps happen at every arrival and every 100 ms boundary of event time;
    end of stream closes the rest at the last arrival, also as ``timeout``.
    Windows are emitted in the order of the arrivals that close them; at one
    arrival the timeouts go first, oldest first, then the window it fills.
    """
    key_ids(stream, strategy)
    ids, _, order = stream.keys[strategy]  # order: each key's tuples together, by arrival
    ts, n, capacity = stream.timestamp, len(ids), params.capacity
    timeout_ms = min(params.timeout_s * 1000, _INT64_MAX)  # exact for streams spanning < 2^63 ms
    # deadlines saturate: nothing arrives after the int64 maximum
    deadline = np.minimum(ts, _INT64_MAX - timeout_ms) + timeout_ms
    # next window start: capacity on, the key run's end, or its first tuple past the deadline
    end = np.cumsum(np.bincount(run := ids[order]))[run]  # where each position's key run ends
    nxt = np.minimum(np.arange(n) + min(capacity, n), end)
    later = ts[order[end - 1]] > deadline[order]  # the key has a tuple past the deadline
    due = run[later] * (n + 1) + ts.searchsorted(deadline[order[later]], "right")
    nxt[later] = np.minimum(nxt[later], np.searchsorted(run * (n + 1) + order, due))
    starts, i = [], 0
    while i < n:  # one step per window
        starts.append(i)
        i = nxt.item(i)
    starts = np.array(starts, np.int64)
    count = np.diff(starts, append=n)
    first, full = order[starts], count == capacity  # each window's opener, and how it closed
    trigger = np.where(full, order[starts + count - 1], ts.searchsorted(deadline[first], "right"))
    edge = deadline[first] // SWEEP_MS  # the first boundary past it is (edge + 1) * SWEEP_MS
    del deadline, run, end, nxt  # per-tuple columns the group-by below does not need
    now = ts[np.minimum(trigger, n - 1)]
    # a timeout closes at that boundary if its sweep comes before the arrival's
    at_edge = ~full & (trigger < n) & (edge < now // SWEEP_MS)
    closed_at = np.where(at_edge, (edge + 1) * SWEEP_MS, now)
    reason = np.where(full, FULL, TIMEOUT).astype(np.int8)

    rank = np.lexsort((first, full, trigger))  # windows in close order
    emissions, member_ts, at = _emit(stream, strategy, order, count, rank, ids[first[rank]],
                                     reason[rank], closed_at[rank])
    # open windows at each arrival: a window counts from the arrival after its first,
    # through the one that fills it or up to the one whose sweep times it out
    steps = np.bincount(first + 1, minlength=n + 1) - np.bincount(trigger + full, minlength=n + 1)
    occ = np.cumsum(steps[:n])
    stats = OperatorStats("aggregate_swa", slot_bytes=capacity * tuple_size, tuples_in=n,
                          tuples_out=int(emissions.count.sum()), occupancy_sum=int(occ.sum()),
                          occupancy_max=int(occ.max(initial=0)),
                          residence_ms=(emissions.closed_at - member_ts[at]).astype(float))
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
    ids = key_ids(stream, strategy)[0]
    n = len(ids)
    # the buffer holds i tuples at arrival i until it first fills, then window - step plus j % step
    # at arrival window + j: summed in closed form, and never more than window - 1
    m, (q, r) = min(n, window), divmod(n - min(n, window), step)
    stats = OperatorStats("aggregate_sliding", slot_bytes=tuple_size, tuples_in=n,
                          occupancy_sum=(m * (m - 1) + q * step * (step - 1) + r * (r - 1)) // 2
                          + (n - m) * (window - step), occupancy_max=max(m - 1, 0))
    full = (n - window) // step + 1 if n >= window else 0
    starts = list(range(0, full * step, step)) + ([full * step] if full * step < n else [])
    runs, residence = [], []
    seen = np.zeros(n, bool)
    per_run = max(1, _SLIDING_RUN // window)  # batches grouped together, bounding memory
    for r in range(0, max(len(starts), 1), per_run):  # an empty stream makes one empty run
        lo = np.array(starts[r:r + per_run], np.int64)
        size = np.minimum(lo + window, n) - lo
        offset = np.cumsum(size) - size  # of each batch in the run
        seqs = np.arange(size.sum()) + np.repeat(lo - offset, size)
        batch = np.repeat(np.arange(len(lo)), size)
        seen[seqs] = True
        # one group per (batch, key): a run of one stable sort, emitted in order of first arrival
        by_key, start = sorted_runs([batch, ids[seqs]])
        rank = np.argsort(by_key[start])
        first = by_key[start[rank]]
        closed_at = np.maximum.reduceat(stream.timestamp[seqs], offset)[batch[first]]
        ems, member_ts, at = _emit(stream, strategy, seqs[by_key], np.diff(start, append=len(seqs)),
                                   rank, ids[seqs[first]], np.full(len(first), BATCH, np.int8),
                                   closed_at)
        runs.append(ems)
        residence.append(closed_at - (mean := _mean(member_ts, at, ems.count)))
        # where either is 2^53 or more in magnitude, so not exact as a float: the exact quotient
        for i in np.flatnonzero(np.maximum(abs(closed_at.astype(float)), abs(mean)) >= 2**53):
            c = int(ems.count[i])
            residence[-1][i] = (int(closed_at[i]) * c - sum(member_ts[at[i]:][:c].tolist())) / c
    # a tuple can land in several overlapping batches; conservation is
    # accounted on distinct tuples
    stats.tuples_out, stats.residence_ms = int(seen.sum()), np.concatenate(residence)
    stats.check_conservation()
    cols = [[getattr(ems, f.name) for ems in runs] for f in fields(Emissions)[1:]]
    return Emissions(runs[0].spell, *map(np.concatenate, cols)), stats


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
        """Inverse of :meth:`to_dict`; raises ConfigError naming a malformed field."""
        what = "pipeline config"
        queue = json_value(doc, "queue", dict, what, {})
        adoc, agg = json_value(doc, "aggregate", dict, what), f"{what} aggregate"
        window = json_value(adoc, "window", int, agg, 32000)
        return cls(tuple_size=json_value(queue, "tuple_size", int, f"{what} queue", 135),
                   kind=json_value(adoc, "kind", str, agg, "swa"),
                   capacity=json_value(adoc, "capacity", int, agg, 13),
                   timeout_s=json_value(adoc, "timeout_s", int, agg, 22),
                   window=window, step=json_value(adoc, "step", int, agg, window),
                   strategy=Strategy.parse(json_value(doc, "strategy", str, what, "head_ts_ip")))

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


@dataclass
class PipelineResult:
    emissions: Emissions
    aggregate_stats: OperatorStats


def run_pipeline(trace: Trace, cfg: PipelineConfig) -> PipelineResult:
    """Replay a trace through the configured aggregate."""
    stream = replay(trace)
    if cfg.kind == "swa":
        return PipelineResult(*aggregate_swa(
            stream, WindowParams(cfg.capacity, cfg.timeout_s), cfg.strategy,
            tuple_size=cfg.tuple_size))
    return PipelineResult(*aggregate_sliding(
        stream, cfg.window, cfg.step, cfg.strategy, tuple_size=cfg.tuple_size))
