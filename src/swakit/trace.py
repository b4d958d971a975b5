"""Synthetic invocation traces: catalog, generation, CSV format, replay.

A trace is stored as columns indexed by ``seq``, a tuple's position when the
partitions are merged by timestamp, then partition, then input order (one
stable sort, on generation or read); strings are integer codes into a
table.  The operator-facing columns form the :class:`Stream`; truth labels
and partitions sit beside it on the :class:`Trace`, so operators, which read
the stream through :func:`replay`, can never key on ground truth.  All
tuples of one live instance share a label that exists only for scoring.

The :class:`ServiceCatalog` is columns too: a degree per composite service
(a head invocation plus subordinates) and the sub-ids as CSR into one name
table; partitions are round-robin over the whole catalog.
:func:`generate_trace` builds the trace columns from arrays, with no loop.
Its name tables, like the catalog's, are :class:`Strings`: UTF-8 bytes and
offsets, spelled by the CSV writer's block formatter (:func:`_spelled`) with
no format per string, and written to the CSV and the column file as they are.

Timestamps are integer milliseconds.  Span distributions are sampled in
seconds (matching how response times are usually modeled) and converted;
arrival distributions are sampled directly in milliseconds.

:func:`save_columns` leaves beside a CSV the arrays a read of it gives
(``<csv>.columns``), and :func:`load_columns` returns those a caller asks
for when the file vouches for the CSV's exact bytes and for theirs.  :func:`write_columns`
saves a trace's columns, coded, and :func:`read_trace` loads them, parsing
the CSV if they do not check out; the emission files use the same format.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
import threading
import warnings
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, islice
from pathlib import Path
from typing import Optional

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
    "Stream",
    "ServiceCatalog",
    "TraceConfig",
    "Trace",
    "TruthTable",
    "build_catalog",
    "generate_trace",
    "write_trace",
    "write_columns",
    "save_columns",
    "load_columns",
    "read_trace",
    "replay",
    "sorted_runs",
    "on_two_threads",
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

STRINGS = ("user_id", "service_id", "head_id", "truth_instance")  # coded into string tables
TRACE_DTYPE = np.dtype([(h, object if h in STRINGS else np.int64) for h in TRACE_HEADER])
READ_CHUNK = 1 << 14  # rows parsed together by csv_blocks
COLUMNS_TAG = b"swakit.columns.2"  # 16 bytes, so every record after it starts 8-byte aligned
# the column file's arrays: the int columns in header order, then offsets, codes and UTF-8 bytes
# per string column
_LAYOUT = [("<i8", True)] * 4 + [("<i8", False)] * 4 + [("<i4", True)] * 4 + [("|u1", False)] * 4
_HELPER = threading.Lock()  # held while a helper thread runs: a nested call gets none
_WARNINGS = threading.Lock()  # held while csv_blocks sets its warnings filter
MAX_TRACE_BYTES = 1 << 32  # memory a catalog or a trace may plan to take
_PACKED_BITS = 63  # a packed sort key stays below 2^63
_QUOTE = ',"\r\n'  # csv.writer quotes a field holding one of these
_NEEDS_QUOTES = re.compile(f"[{_QUOTE}]").search
_NOT_UTF8 = re.compile("[\udc80-\udcff]").search  # a byte surrogateescape decoding kept
_NPY_HEADER = re.compile(rb"\A(\x93NUMPY\x01\x00..\{'descr': '([<|][a-z]\d)', 'fortran_order': "
                         rb"False, 'shape': \((\d+),\), \} *\n)", re.S)  # np.save's, 1-d, v1.0


@dataclass(frozen=True, eq=False)
class Strings(Sequence):
    """A read-only sequence of strings held as a table: ``raw``, their UTF-8 bytes back to back,
    and ``offsets``, the int64 offsets around each.  A string is decoded when it is indexed, a
    slice is a list, and it equals a list (or a :class:`Strings`) of the same strings."""

    raw: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i):
        at = range(len(self))[i]  # an int, or a range for a slice; IndexError past either end
        if isinstance(at, range):
            return list(map(self.__getitem__, at))
        return self.raw[self.offsets[at]:self.offsets[at + 1]].tobytes().decode()

    def __iter__(self):  # one decode of the whole table, split at the offsets in characters
        raw, offsets = self.raw, self.offsets
        text = raw.tobytes().decode()
        if len(text) != len(raw):  # a character before an offset may take several bytes
            offsets = np.cumsum(np.append(0, (raw & 0xC0) != 0x80))[offsets]
        return map(text.__getitem__, map(slice, offsets[:-1].tolist(), offsets[1:].tolist()))

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, Strings) else other)

    @classmethod
    def of(cls, strs) -> "Strings":
        """The sequence of strings ``strs`` as :class:`Strings` (itself, if it is one)."""
        if isinstance(strs, Strings):
            return strs
        joined = "".join(strs)
        sizes = map(len, strs if joined.isascii() else map(str.encode, strs))  # bytes per string
        offsets = np.cumsum(np.fromiter(chain([0], sizes), np.int64, len(strs) + 1))
        return cls(np.frombuffer(joined.encode(), "u1"), offsets)

    @classmethod
    def checked(cls, raw, offsets):
        """``(raw, offsets)`` as :class:`Strings`; ValueError unless ``raw`` is UTF-8 text and the
        offsets go from 0 up to ``len(raw)``, never down or into a character (0b10xxxxxx)."""
        raw.tobytes().decode()  # a UnicodeDecodeError is a ValueError
        if (not offsets.size or offsets[0] != 0 or offsets[-1] != len(raw)
                or (np.diff(offsets) < 0).any()
                or ((np.append(raw, 0)[offsets] & 0xC0) == 0x80).any()):
            raise ValueError("not a table of UTF-8 strings")
        return cls(raw, offsets)


@dataclass(eq=False)
class Stream:
    """The operator-facing columns, indexed by ``seq``: no truth label, no partition.

    ``timestamp``, ``instance_ts`` and ``response`` are int64; ``user``, ``service`` and
    ``head`` are codes into the :class:`Strings` ``tables[column]`` (a generated trace's service
    and head share one).  A column :func:`read_trace` was not asked to code is None, with no
    table.  The columns are read-only once built: ``keys`` caches the engine's key ids per
    strategy on first use.
    """

    timestamp: np.ndarray
    instance_ts: np.ndarray
    response: np.ndarray
    user: Optional[np.ndarray]
    service: Optional[np.ndarray]
    head: Optional[np.ndarray]
    tables: dict
    keys: dict = field(init=False, default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.timestamp)


@dataclass(frozen=True)
class ServiceCatalog:
    """Composite services as columns: a head plus subordinates each.

    ``degree[i]`` counts service i's invocations, its head included; its
    sub-ids are ``sub_ids[start[i]:start[i] + degree[i]]``, head first, as
    codes into ``names``.  Sub-invocation ``g`` of the whole catalog goes to
    partition ``g % n_partitions`` (round-robin over the catalog).
    """

    degree: np.ndarray
    start: np.ndarray
    sub_ids: np.ndarray
    names: Strings
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
        if (need := self.instance_count * 1900) > MAX_TRACE_BYTES:  # at the default degree
            raise ConfigError(f"instance_count {self.instance_count} needs ~{need} bytes, "
                              f"over {MAX_TRACE_BYTES}")
        if not 1 <= self.user_pool <= 2**63:  # users are drawn as int64 below the pool
            raise ConfigError(f"user_pool must lie in [1, 2^63], got {self.user_pool}")
        if not self.repeat_factor >= 1.0:  # NaN too
            raise ConfigError(f"repeat_factor must be >= 1, got {self.repeat_factor}")


@dataclass(frozen=True)
class TruthTable:
    """Ground truth as arrays: ``code[seq]`` is a tuple's label code, the rest is per code.

    ``degree`` counts a label's tuples, ``primary``/``last`` are its first
    and last timestamps, and ``tie`` is its position when the labels are
    ordered by first timestamp, then as strings.
    """

    labels: Strings
    code: np.ndarray
    degree: np.ndarray
    primary: np.ndarray
    last: np.ndarray
    tie: np.ndarray


@dataclass(eq=False)
class Trace:
    """The merged stream plus its truth-label codes and partition column, indexed by ``seq``.

    The columns are read-only once built: ``truth_table`` is cached on first use.
    ``truth`` is None, and ``labels`` empty, if :func:`read_trace` did not code them.
    """

    stream: Stream
    truth: Optional[np.ndarray]  # label code per seq, into ``labels``
    labels: Strings
    partition: np.ndarray

    @property
    def n_tuples(self) -> int:
        return len(self.stream)

    @classmethod
    def from_rows(cls, rows) -> "Trace":
        """Build a trace from rows in ``TRACE_HEADER`` layout, in any order."""
        return _build([np.array(list(map(tuple, rows)), TRACE_DTYPE)])

    @cached_property
    def truth_table(self) -> TruthTable:
        """Per-label degree, arrival bounds and tie position; built once per trace."""
        code, ts = self.truth, self.stream.timestamp
        n = len(self.labels)
        primary = np.full(n, np.iinfo(np.int64).max)
        last = np.full(n, np.iinfo(np.int64).min)
        np.minimum.at(primary, code, ts)
        np.maximum.at(last, code, ts)
        order, tie = np.argsort(primary, kind="stable"), np.empty(n, np.int64)
        same = primary[order][1:] == primary[order][:-1]
        at = np.flatnonzero(np.append(same, False) | np.append(False, same))  # primary shared
        tied = _spell([(self.labels, order[at])])  # only those labels decode
        order[at] = order[[i for *_, i in sorted(zip(primary[order[at]], tied, at.tolist()))]]
        tie[order] = np.arange(n)
        return TruthTable(self.labels, code, np.bincount(code, minlength=n), primary, last, tie)


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


def build_catalog(count: int, degree_dist, seed: int, n_partitions: int = 2,
                  shared_atomics: bool = False) -> ServiceCatalog:
    """Synthesize ``count`` composite services with sampled degrees.

    Degrees are the rounded draws from ``degree_dist``, clamped to >= 1.
    Service i's head is ``svc{i}``.  With ``shared_atomics`` the subordinate
    ids are drawn from a pool (``atom{k}``) roughly half the size of the
    subordinate population, so the same atomic service appears under several
    heads (the ambiguous-referrer case); otherwise subordinate j of service i
    is ``svc{i}.{j}``, unique to its head.
    """
    if count < 1:
        raise ConfigError("catalog count must be >= 1")
    if (need := count * 1600) > MAX_TRACE_BYTES:  # at the default degree
        raise ConfigError(f"catalog count {count} needs ~{need} bytes, over {MAX_TRACE_BYTES}")
    if n_partitions < 1:
        raise ConfigError("n_partitions must be >= 1")
    rng = np.random.default_rng(seed)
    degree = np.maximum(1, np.rint(degree_dist.sample(count, rng))).astype(np.int64)
    start = np.cumsum(degree) - degree
    sub_ids = np.repeat(np.arange(count), degree)  # a head's code is its service's index
    pos = np.arange(len(sub_ids)) - start[sub_ids]  # 0 for a head
    sub, n_subs = pos > 0, len(sub_ids) - count
    if shared_atomics:
        pool = max(1, n_subs // 2)
        subs, codes = [b"atom", np.arange(pool)], rng.integers(pool, size=n_subs)
    else:  # subordinate j of service i
        subs, codes = [b"svc", sub_ids[sub], b".", pos[sub]], np.arange(n_subs)
    sub_ids[sub] = count + codes
    names = _spell([b"svc", np.arange(count)], subs)
    return ServiceCatalog(degree, start, sub_ids, names, n_partitions)


def first_seen_codes(codes: np.ndarray, size: int):
    """Where each distinct code of ``codes`` (ints in [0, ``size``)) first appears, in order of
    appearance, and each row's code's number in that order, by a scatter."""
    rows, first = np.arange(len(codes), dtype=np.int32), np.full(size, len(codes), np.int32)
    np.minimum.at(first, codes, rows)
    at = first[codes]  # the row where each row's code first appears
    return np.flatnonzero(at == rows), np.cumsum(at == rows, dtype=np.int32)[at] - 1


def generate_trace(catalog: ServiceCatalog, cfg: TraceConfig) -> Trace:
    """Sample a full trace: arrivals, spans, users, subordinate placement.

    Primary invocations arrive at the cumulative sum of inter-arrival draws;
    each instance's subordinates are placed uniformly inside
    [arrival, arrival + span] and routed to their catalog partitions.  The
    seed fully determines the output.  Instance i's rows lie side by side,
    head first; users (``u{id}``) and sub-ids (the catalog's names) are coded
    into two tables by first appearance, the service and head columns sharing
    the second; instance i's label is ``inst{i}``, code i.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.instance_count
    n_unique = int(min(len(catalog.degree), max(1, round(n / cfg.repeat_factor))))
    chosen = rng.choice(len(catalog.degree), size=n_unique, replace=False)
    # deterministic multiplicities: cycle through the chosen services, then
    # shuffle so repeats are spread across the trace
    assignment = chosen[np.arange(n) % n_unique]
    rng.shuffle(assignment)

    arrivals = np.cumsum(np.asarray(cfg.arrival_dist.sample(n, rng), dtype=float))
    spans_ms = np.asarray(cfg.span_dist.sample(n, rng), dtype=float) * 1000.0
    end = np.floor(arrivals + spans_ms)  # no tuple of an instance comes later
    if not (end < 2.0**63).all():  # NaN fails too
        raise ConfigError("an instance ends at or past 2^63 ms, beyond int64 timestamps")
    users = rng.integers(0, cfg.user_pool, size=n)
    first_user, user = first_seen_codes(np.unique(users, return_inverse=True)[1], n)

    deg = catalog.degree[assignment]
    inst = np.repeat(np.arange(n, dtype=np.int32), deg)  # each row's instance
    head_row = np.cumsum(deg) - deg
    row = np.arange(len(inst))
    g = row + (catalog.start[assignment] - head_row)[inst]  # sub-invocation in the catalog
    # one uniform offset in [0, span) per subordinate, in the stream order of
    # per-instance ``rng.uniform(0.0, span, degree - 1)`` calls
    when = arrivals[inst]
    when[row != head_row[inst]] += rng.random(len(inst) - n) * np.repeat(spans_ms, deg - 1)
    ts = np.floor(when).astype(np.int64)
    first_sub, service = first_seen_codes(sub_ids := catalog.sub_ids[g], len(catalog.names))
    cols = [ts, user[inst], service, service[head_row][inst],
            (np.floor(arrivals).astype(np.int64) // 1000)[inst], np.maximum(0, end.astype(np.int64)[inst] - ts),
            inst, g % catalog.n_partitions]
    subs = _spell([(catalog.names, sub_ids[first_sub])])
    return _merged(cols, {"user_id": _spell([b"u", users[first_user]]), "service_id": subs,
                          "head_id": subs, "truth_instance": _spell([b"inst", np.arange(n)])})


def _codes(table: defaultdict, strs: list) -> np.ndarray:
    """Codes of the strings ``strs`` in ``table``, which numbers a string it lacks with the next
    code when it is looked up (``defaultdict(count().__next__)``): no lookup runs bytecode."""
    return np.fromiter(map(table.__getitem__, strs), np.int32, len(strs))


def _build(blocks, strings=STRINGS) -> Trace:
    """Merge ``TRACE_DTYPE`` row blocks into a trace by :func:`_merged`; string columns not in
    ``strings`` are None.  Strings are coded block by block, so a block's strings can go once
    it is read."""
    tables = {h: defaultdict(count().__next__) for h in STRINGS if h in strings}
    cols = {h: [] for h in TRACE_HEADER if h in strings or h not in STRINGS}
    for block in chain(blocks, [np.empty(0, TRACE_DTYPE)]):  # every column read gets an array
        for name, acc in cols.items():  # copies: the block can go
            acc.append(_codes(tables[name], block[name].tolist()) if name in tables
                       else block[name].copy())
    return _merged([np.concatenate(cols[h]) if h in cols else None for h in TRACE_HEADER],
                   {h: Strings.of(list(table)) for h, table in tables.items()})


def _out_of_order(ts, part) -> bool:
    """Whether (timestamp, partition) goes down somewhere: rows not in merged order."""
    return bool(((ts[1:] < ts[:-1]) | (ts[1:] == ts[:-1]) & (part[1:] < part[:-1])).any())


def _order_fault(ts, part, latest):
    """(index, why) of the first of a run of trace rows (int64 columns ``ts``, ``part``) with a
    negative partition, or else a timestamp before its partition's latest one; None if none is.
    ``latest`` maps each partition to its latest timestamp before the run, and takes the run's;
    None stands for rows known to be in merged order with none before: each partition goes on."""
    prev, n = ts, len(ts)  # each row's partition's latest timestamp before it, or its own
    if latest is not None and (_out_of_order(ts, part)
                               or not 0 <= part.min(initial=0) <= part.max(initial=0) < n):
        order, start = sorted_runs([part])  # the rows grouped by partition, each group in order
        keys, t, prev = part[order[start]].tolist(), ts[order], np.empty_like(ts)
        prev[order[1:]] = t[:-1]
        prev[order[start]] = [latest.get(k, v) for k, v in zip(keys, t[start].tolist())]
        latest.update(zip(keys, np.maximum.reduceat(t, start).tolist()))
    elif latest is not None:  # in merged order only a partition's first row can go back in time
        first, last, prev = np.full(n, n), np.full(n, -1), ts.copy()
        np.minimum.at(first, part, np.arange(n))
        np.maximum.at(last, part, np.arange(n))
        first, last = first[first < n], last[last >= 0]
        prev[first] = [latest.get(k, v) for k, v in zip(part[first].tolist(), ts[first].tolist())]
        latest.update(zip(part[last].tolist(), ts[last].tolist()))
    for i in np.flatnonzero((part < 0) | (ts < prev))[:1].tolist():  # the first, if any
        why = f"timestamp {ts[i]} precedes {prev[i]} in" if part[i] >= 0 else "negative"
        return i, f"{why} partition {part[i]}"


def sorted_runs(cols):
    """A stable sort of the rows by the int columns ``cols`` (the first most significant), and
    where each run of equal rows starts in it: one plain ``np.sort`` of each row's key packed
    with its row number, ``key << b | row`` for b the bit width of the row count, where the
    columns' spans (as Python ints) and b fit 63 bits, and ``np.lexsort`` where they do not."""
    n = len(cols[0])
    lo = [int(col.min()) if n else 0 for col in cols]
    spans = [int(col.max()) - low + 1 if n else 1 for col, low in zip(cols, lo)]
    bits = max(n - 1, 0).bit_length()
    if math.prod(spans) << bits <= 1 << _PACKED_BITS:
        key = np.zeros(n, np.int64)
        for col, low, span in zip(cols, lo, spans):
            key = key * span + (col - low)  # below the product of the spans so far
        packed = np.sort(key << bits | np.arange(n))
        order, new = packed & ((1 << bits) - 1), np.diff(packed >> bits, prepend=-1) != 0
    else:
        order = np.lexsort(cols[::-1])
        new = np.ones(n, bool)
        new[1:] = np.any([col[order][1:] != col[order][:-1] for col in cols], axis=0)
    return order, np.flatnonzero(new)


def _merged(cols, tables, merged=False) -> Trace:
    """Columns in ``TRACE_HEADER`` order, string ones (or None) coded into the :class:`Strings`
    ``tables[header]``, as a trace merged by one stable sort on (timestamp, partition), unless
    ``merged`` says the rows are in that order; unchecked (a read runs :func:`_order_fault`)."""
    if not merged and _out_of_order(cols[0], cols[7]):
        order = sorted_runs([cols[0], cols[7]])[0]
        cols = [None if col is None else col[order] for col in cols]
    ts, user, service, head, inst_ts, resp, label, part = cols
    stream = Stream(ts, inst_ts, resp, user, service, head,
                    {h[:-3]: tables[h] for h in STRINGS[:3] if h in tables})
    return Trace(stream, label, tables.get("truth_instance", Strings.of([])), part)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def quoted(table) -> Strings:
    """The strings of ``table`` as ``csv.writer`` writes them in a row of several fields (in
    quotes, inner quotes doubled, when one holds a comma, a quote or a line end)."""
    table = Strings.of(table)
    if not any(map(table.raw.tobytes().__contains__, _QUOTE.encode())):  # no byte needs quotes
        return table
    return Strings.of(['"%s"' % s.replace('"', '""') if _NEEDS_QUOTES(s) else s for s in table])


def _digits(v, out, keep) -> None:
    """The int column ``v`` as decimal text into ``out``, a ``(width, len(v))`` uint8 block,
    right-aligned, with ``keep`` marking each value's bytes: one ``m // 10`` per digit on the
    magnitudes as uint64, and a ``-`` before the digits of a negative."""
    m, neg = np.abs(v, dtype=np.int64).view(np.uint64), v < 0  # |-2^63| wraps to 2^63: exact
    m = m.astype(np.min_scalar_type(m.max(initial=0)))  # the narrowest type divides fastest
    for k in range(len(out) - 1, -1, -1):
        keep[k] = m > 0
        q = m // 10
        out[k] = m - q * 10
        m = q
    keep[-1] = True  # 0 is one digit
    out += 48  # ord("0")
    at = (len(out) - 1 - np.count_nonzero(keep, axis=0))[neg], np.flatnonzero(neg)  # before them
    out[at], keep[at] = 45, True  # ord("-")


def _gather(table: Strings, codes, out, keep) -> None:
    """The strings of ``table`` at ``codes`` into ``out``, a ``(width, len(codes))`` uint8 block,
    left-aligned, with ``keep`` marking each string's bytes."""
    start, j = table.offsets[codes], np.arange(len(out))[:, None]
    keep[:] = j < table.offsets[codes + 1] - start
    np.take(table.raw, start + j, out=out, mode="clip")


def _spelled(parts):
    """The rows of ``parts`` spelled side by side, READ_CHUNK at a time (fewer if wide, keeping a
    block near ``READ_CHUNK << 7`` bytes; one empty block for none): per block, its bytes and
    the ``(width, rows)`` mask that kept them.  A part (constant bytes, an int column for
    :func:`_digits` or a :class:`Strings` table and codes for :func:`_gather`) fills its rows."""
    widths, n = [], 0  # the bytes the widest value of each part takes; the rows
    for p in parts:
        if isinstance(p, bytes):
            widths.append(len(p))
        elif isinstance(p, tuple):  # (table, codes)
            widths.append(int(np.diff(p[0].offsets)[p[1]].max(initial=0)))
            n = len(p[1])
        else:
            low, n = int(p.min(initial=0)), len(p)
            widths.append(len(str(max(-low, int(p.max(initial=0))))) + (low < 0))
    step = max(1, min(READ_CHUNK, (READ_CHUNK << 7) // max(1, sum(widths))))
    for lo in range(0, max(n, 1), step):
        rows, at, end = min(step, n - lo), slice(lo, lo + step), 0
        block, keep = np.empty((sum(widths), rows), np.uint8), np.ones((sum(widths), rows), bool)
        for part, width in zip(parts, widths):
            out, kept, end = block[end:end + width], keep[end:end + width], end + width
            if isinstance(part, bytes):
                out[:] = np.frombuffer(part, np.uint8)[:, None]
            elif isinstance(part, tuple):
                _gather(part[0], part[1][at], out, kept)
            else:
                _digits(part[at], out, kept)
        yield block.T[keep.T], keep


def _spell(*groups) -> Strings:
    """The strings that each group of :func:`_spelled` parts spells, one per row, group after
    group."""
    raws, sizes = zip(*((raw, np.count_nonzero(keep, axis=0))
                        for parts in groups for raw, keep in _spelled(parts)))
    return Strings(np.concatenate(raws), np.concatenate([[0], *sizes]).cumsum())


def write_csv(path, header, columns) -> bytes:
    """Write ``header``, then the rows of ``columns`` as ``csv.writer`` would; returns the
    SHA-256 digest of the bytes written.  A column is an int array, or a pair of a :class:`Strings`
    table and codes into it, written :func:`quoted`; :func:`_spelled` spells the rows, a comma
    between columns and CR LF after them, block by block."""
    sha = hashlib.sha256(head := (",".join(header) + "\r\n").encode())  # csv's line end
    parts = [((quoted(col[0]), col[1]) if isinstance(col, tuple) else col, b",") for col in columns]
    with open(path, "wb") as fh:
        fh.write(head)
        for data, _ in _spelled([*chain.from_iterable(parts)][:-1] + [b"\r\n"]):
            fh.write(data)
            sha.update(data)
    return sha.digest()


def write_trace(trace: Trace, path) -> bytes:
    """Write the trace as a single CSV in ``seq`` order; returns the SHA-256 digest of its bytes."""
    s = trace.stream
    strings = [(s.tables[f], getattr(s, f)) for f in ("user", "service", "head")]
    return write_csv(path, TRACE_HEADER, [s.timestamp, *strings, s.instance_ts, s.response,
                                          (trace.labels, trace.truth), trace.partition])


def save_columns(path, csv_sha: bytes, arrays, layout) -> str:
    """Write ``<path>.columns`` for the CSV ``path`` (whose digest :func:`write_csv` returned as
    ``csv_sha``) and return its path: the tag, the digests of the CSV and of each record after
    them (its ``.npy`` header and data), then one ``np.save`` record per array, cast to its
    ``layout`` dtype; wider items go first, so that every record stays aligned."""
    records = []
    for array, (dtype, _) in zip(arrays, layout, strict=True):
        np.save(record := io.BytesIO(), np.asarray(array).astype(dtype, casting="safe", copy=False))
        records.append(record.getbuffer())
    digests = csv_sha + b"".join(hashlib.sha256(record).digest() for record in records)
    with open(out := f"{path}.columns", "wb") as fh:
        for array in (COLUMNS_TAG, digests):
            np.save(fh, np.frombuffer(array, np.uint8), allow_pickle=False)
        fh.writelines(records)
    return out


def load_columns(path, layout, wanted=None):
    """The arrays :func:`save_columns` wrote for the CSV ``path``, read-only views into one read,
    None for each record not ``wanted`` (indices; all by default): that is neither hashed nor
    checked.  None unless the tag, the CSV's digest and each wanted record's match, and the
    ``(dtype, per_row)`` pairs of ``layout`` give each wanted array's dtype and length.  The CSV
    is opened only after the column file is read, and hashed beside the records."""
    wanted = range(len(layout)) if wanted is None else wanted
    try:
        buf = Path(f"{path}.columns").read_bytes()
        (tag, *_), (sha, *_), *records = _records(buf)
        kept = [(i, a, begin, end) for i, (a, begin, end) in enumerate(records) if i in wanted]
        if (tag.tobytes() != COLUMNS_TAG or not len(layout) == len(records) == sha.size / 32 - 1
                or len({len(a) for i, a, *_ in kept if layout[i][1]}) > 1
                or any(a.dtype.str != layout[i][0] for i, a, *_ in kept)
                or on_two_threads(_sha256, [path, *(memoryview(buf)[b:e] for *_, b, e in kept)])
                != [sha[32 * i:][:32].tobytes() for i in [0, *(i + 1 for i, *_ in kept)]]):
            return None
    except (OSError, ValueError):
        return None
    return [a if i in wanted else None for i, (a, *_) in enumerate(records)]


def write_columns(trace: Trace, path, csv_sha: bytes) -> str:
    """:func:`save_columns` for the CSV :func:`write_trace` wrote from ``trace`` (digest
    ``csv_sha``): its int columns, then per string column the offsets, codes and UTF-8 bytes of
    a table of its own, numbered by first appearance as :func:`_build` codes the CSV."""
    s, coded = trace.stream, []  # (offsets, codes, UTF-8 bytes) per string column, STRINGS order
    for col, table in zip((s.user, s.service, s.head, trace.truth),
                          (s.tables["user"], s.tables["service"], s.tables["head"], trace.labels)):
        first, code = first_seen_codes(col, len(table))
        held = _spell([(table, col[first])])  # the strings the column holds
        coded.append((held.offsets, code, held.raw))
    return save_columns(path, csv_sha, chain([s.timestamp, s.instance_ts, s.response,
                                              trace.partition], *zip(*coded)), _LAYOUT)


def csv_blocks(path, dtype, skip=(), error=ConfigError, latest=None):
    """The data rows of a CSV file headed by ``dtype``'s field names, READ_CHUNK lines at a time.

    ``np.loadtxt`` parses each block into records of the fields not in
    ``skip`` (never the last); strings are objects.  A block it may misread
    or refuses (a quote in a file with string fields, a blank line, a comma
    count that is off, a byte that is not UTF-8, a fault) goes alone through
    the csv module and :func:`parse_rows` from its first line, so a quoted
    line end may carry its last row past the block; rows are numbered from
    the block's offset.  A bad header or row raises ``error`` naming the
    file and the row.  Numpy releases that still read a non-integer integer
    field through a float only warn; that warning is a refusal here, so
    ``1.5`` or ``2**63`` is not truncated.  Given ``latest`` (a dict), a
    trace's partition order is checked by :func:`_order_fault` on each block's
    columns before the next block is read, with each partition's latest
    timestamp carried from block to block (see :func:`parse_rows`).
    """
    parsed = np.dtype([(f, dtype[f]) for f in dtype.names if f not in skip])
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        if (header := next(csv.reader(fh), None)) != list(dtype.names):
            raise error(f"{path}: bad header {header!r}, expected {list(dtype.names)!r}")
        done = 0  # rows read so far
        while lines := list(islice(fh, READ_CHUNK)):
            text = "".join(lines)
            try:
                if (dtype.hasobject and '"' in text or not text.isascii() and _NOT_UTF8(text)
                        or text.count(",") != (len(dtype) - 1) * len(lines)):
                    raise ValueError
                with _WARNINGS, warnings.catch_warnings():  # process-wide: one thread at a time
                    warnings.simplefilter("error", DeprecationWarning)
                    rows = np.loadtxt(lines, parsed, delimiter=",", comments=None, ndmin=1,
                                      usecols=list(map(dtype.names.index, parsed.names)))
                if len(rows) != len(lines):  # np.loadtxt skips blank lines
                    raise ValueError
            except (ValueError, DeprecationWarning):  # csv rows until one takes the last line
                reader = csv.reader(chain(lines, fh))
                records = (next(reader) for _ in iter(lambda: reader.line_num < len(lines), False))
                rows = np.array([*parse_rows(path, records, dtype, done + 1, error, latest)], dtype)
                rows = rows[list(parsed.names)]
            ends = rows[parsed.names[0]], rows[parsed.names[-1]]  # timestamp, partition
            if latest is not None and (fault := _order_fault(*ends, latest)):
                raise error(f"{path}: row {done + fault[0] + 1}: {fault[1]}")
            done += len(rows)
            yield rows


def parse_rows(path, records, dtype, first, error, latest=None):
    """Each field list of ``records`` (csv module rows, the first numbered ``first``) as a
    tuple of ``dtype``'s fields, ints by :func:`to_int64`.  The first row the csv module
    refuses, of the wrong width, not UTF-8 text or with a field that does not parse (in that
    order) raises ``error`` naming the file and the row, unless, given ``latest``, an order
    fault (:func:`_order_fault` of the first and last fields, parsed first) comes before it."""
    parse = [{"O": str, "f": float}.get(dtype[f].kind, to_int64) for f in dtype.names]
    row_no, ends = first - 1, []  # each row's timestamp and partition, given ``latest``
    try:
        for row_no, fields in enumerate(records, first):
            if len(fields) != len(parse):
                raise ValueError(f"{len(fields)} fields, expected {len(parse)}")
            if _NOT_UTF8("".join(fields)):
                raise ValueError("not UTF-8 text")
            if latest is not None:
                ends.append((to_int64(fields[0]), to_int64(fields[-1])))
            yield tuple(p(f) for p, f in zip(parse, fields))
    except (csv.Error, ValueError) as exc:  # a csv.Error comes reading the row after row_no
        if latest is not None and (fault := _order_fault(
                *np.array(ends, np.int64).reshape(-1, 2).T, latest)):
            raise error(f"{path}: row {first + fault[0]}: {fault[1]}") from None
        raise error(f"{path}: row {row_no + isinstance(exc, csv.Error)}: {exc}") from None


def to_int64(text) -> int:
    """``int(text)``; ValueError unless it fits 64 bits."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError("integer beyond 64 bits")
    return value


def _records(buf):
    """Each ``np.save`` record of ``buf``: a read-only 1-d view into it, where it starts, its end."""
    end = 0
    while (begin := end) < len(buf):
        [(header, dtype, n)] = _NPY_HEADER.findall(buf[begin:begin + 256])  # else a ValueError
        array = np.frombuffer(buf, dtype.decode(), int(n), begin + len(header))
        yield array, begin, (end := begin + len(header) + array.nbytes)


def _sha256(source) -> bytes:
    """The SHA-256 digest of the buffer ``source``, or of the file at the path ``source``, read
    1 MiB at a time into one buffer."""
    if isinstance(source, memoryview):
        return hashlib.sha256(source).digest()
    sha, chunk = hashlib.sha256(), bytearray(1 << 20)
    with open(source, "rb") as fh:
        while n := fh.readinto(chunk):
            sha.update(memoryview(chunk)[:n])
    return sha.digest()


def on_two_threads(fn, items) -> list:
    """``[fn(x) for x in items]``, each item taken in turn by this thread or one helper thread
    (numpy and hashlib release the GIL on large buffers): the results in item order, or the
    failure of the lowest index once both are done; no item starts after a failure is seen."""
    items, failed, lock = list(items), {}, threading.Lock()
    results, todo = [None] * len(items), iter(range(len(items)))

    def work():
        while True:
            with lock:  # the next item, unless one has failed
                if failed or (i := next(todo, None)) is None:
                    return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                failed[i] = exc

    if not _HELPER.acquire(blocking=False):  # the one helper is busy: a nested call runs alone
        return [fn(x) for x in items]
    try:
        (helper := threading.Thread(target=work)).start()
        try:
            work()
        finally:
            helper.join()
    finally:
        _HELPER.release()
    if failed:
        raise failed[min(failed)]
    return results


def read_trace(path, strings=STRINGS) -> Trace:
    """Parse a trace CSV into columns, checking every row; errors name the file and the row.

    The column file beside it gives the columns, no string decoded, if
    :func:`load_columns` and :meth:`Strings.checked` take its records, its
    rows are in merged order and pass :func:`_order_fault`, and each code lies
    in its table; else :func:`csv_blocks` reads the rows once, checking them.

    Only the string columns in ``strings`` are parsed and coded, each into a
    :class:`Strings` table of its own (``Stream.tables``, ``Trace.labels``)
    that a column-file read never decodes; the others are None, with no table,
    but every row still has its width, quotes and UTF-8 checked and its int
    fields parsed.
    ``run-pipeline`` codes its strategy's key columns, ``compare`` those and
    ``truth_instance``, ``evaluate`` and ``fit-dist`` only the latter.
    """
    read = [i for i, h in enumerate(STRINGS) if h in strings]
    arrays = load_columns(path, _LAYOUT, {*range(4), *(j + 4 * k for j in read for k in (1, 2, 3))})
    try:
        ints, offsets, codes, raws = (arrays[i:i + 4] for i in range(0, 16, 4))
        tables = {STRINGS[j]: Strings.checked(raws[j], offsets[j]) for j in read}
        if not (_out_of_order(ints[0], ints[3]) or _order_fault(ints[0], ints[3], None)) and all(
                (codes[j].view(np.uint32) < len(tables[STRINGS[j]])).all() for j in read):
            return _merged([*ints[:1], *codes[:3], *ints[1:3], codes[3], ints[3]], tables, True)
    except (TypeError, ValueError):  # no arrays (None), or ones that do not check out
        pass
    return _build(csv_blocks(path, TRACE_DTYPE, set(STRINGS) - set(strings), TraceParseError, {}),
                  strings)


# ---------------------------------------------------------------------------
# replay + ground truth
# ---------------------------------------------------------------------------


def replay(trace: Trace) -> Stream:
    """The operator-facing stream: ``trace.stream`` itself, not a copy.

    Operator clocks are driven by its timestamps.  Raises ConfigError when
    the trace's columns differ in length or the stream goes back in time (a
    hand-built trace can do either); columns not read (None) are skipped.
    """
    s = trace.stream
    if any(col is not None and len(col) != len(s) for col in (
            s.instance_ts, s.response, s.user, s.service, s.head, trace.truth, trace.partition)):
        raise ConfigError("trace columns differ in length")
    back = np.flatnonzero(s.timestamp[1:] < s.timestamp[:-1])  # compared, not differenced: no wrap
    if back.size:
        raise ConfigError(f"stream goes back in time at seq {back[0] + 1}")
    return s
