"""Stream operators: key extraction, the merged stream, both aggregates."""

import csv
import json
from collections import namedtuple
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from swakit import engine
from swakit import trace as trace_module

from swakit.distributions import PointMassDist, read_json
from swakit.engine import (
    EMITTED_HEADER,
    MEMBERS_HEADER,
    PipelineConfig,
    Strategy,
    aggregate_sliding,
    aggregate_swa,
    key_ids,
    key_names,
    read_emissions,
    run_pipeline,
    write_emissions,
)
from swakit.errors import ConfigError
from swakit.metrics import evaluate
from swakit.params import WindowParams
from swakit.trace import (
    Trace,
    TraceConfig,
    build_catalog,
    generate_trace,
    parse_rows,
    read_trace,
    replay,
)

from conftest import emission_rows, write_partition_by_partition, write_trace_rows


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def feed(*specs):
    """A stream from (ts, head, user[, response]) specs in time order; seq = position."""
    return Trace.from_rows([(ts, user, "s", head, ts // 1000, resp, "i", 0)
                            for ts, head, user, resp in ((*s, 4)[:4] for s in specs)]).stream


def key(stream, strategy, seq):
    return key_names(stream, strategy)[key_ids(stream, strategy)[0][seq]]


def shown(key):
    """A reference key tuple as the operators show it: its parts joined by ``|``."""
    return "|".join(map(str, key))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def test_key_arity_and_parse():
    assert Strategy.HEAD.fields == ("head",)
    assert Strategy.HEAD_TS.fields == ("head", "instance_ts")
    assert Strategy.HEAD_IP.fields == ("head", "user")
    assert Strategy.HEAD_TS_IP.fields == ("head", "instance_ts", "user")
    assert Strategy.parse("head_ts_ip") is Strategy.HEAD_TS_IP
    with pytest.raises(ConfigError):
        Strategy.parse("head_and_shoulders")


def test_extract_key_contents():
    s = feed((61889000, "A", "192.168.10.28"))
    assert key(s, Strategy.HEAD, 0) == "A"
    assert key(s, Strategy.HEAD_TS, 0) == "A|61889"
    assert key(s, Strategy.HEAD_IP, 0) == "A|192.168.10.28"
    assert key(s, Strategy.HEAD_TS_IP, 0) == "A|61889|192.168.10.28"


def test_head_strategy_ignores_user():
    ids, _ = key_ids(feed((1000, "A", "u1"), (2000, "A", "u2")), Strategy.HEAD)
    assert ids[0] == ids[1]


def test_timestamp_strategy_splits_seconds():
    ids, _ = key_ids(feed((1000, "A", "u1"), (2000, "A", "u1")), Strategy.HEAD_TS)
    assert ids[0] != ids[1]


def test_key_ids_dense_and_consistent(small_trace):
    s = replay(small_trace)
    for strategy in Strategy:
        ids, first = key_ids(s, strategy)
        keys = key_names(s, strategy)
        assert len(keys) == len(first) and (ids[first] == np.arange(len(first))).all()
        assert sorted(set(ids.tolist())) == list(range(len(keys)))
        cols = {"head": s.head, "user": s.user, "instance_ts": s.instance_ts}
        rows = list(zip(*(cols[f].tolist() for f in strategy.fields)))
        # equal ids exactly when the key columns are equal
        assert len(set(rows)) == len(keys)
        assert len(set(zip(rows, ids.tolist()))) == len(keys)


# instance seconds at both int64 ends make the key wider than one packed int64
KEY_ARRIVALS = hs.lists(hs.tuples(hs.sampled_from(["h2", "h1", "u1"]),
                                  hs.sampled_from([0, 1, 2, 0, 1, 2, INT64_MIN, INT64_MAX]),
                                  hs.sampled_from(["u1", "u0", "h1"])), max_size=30)


@given(KEY_ARRIVALS, hs.sampled_from(list(Strategy)))
@example([], Strategy.HEAD_TS_IP)
@example([("h1", INT64_MAX, "u1"), ("h1", INT64_MIN, "u1"), ("h1", 0, "u0"),
          ("h1", INT64_MAX, "u1")], Strategy.HEAD_TS_IP)
def test_key_ids_match_reference(arrivals, strategy):
    """Drawn (head, instance second, user) arrivals against a dict of key tuples."""
    s = Trace.from_rows([(seq, user, "s", head, sec, 4, "i", 0)
                         for seq, (head, sec, user) in enumerate(arrivals)]).stream
    ids, firsts = key_ids(s, strategy)
    keys = key_names(s, strategy)
    pick = {"head": 0, "instance_ts": 1, "user": 2}
    code_of = {f: {name: code for code, name in enumerate(s.tables[f])} for f in ("head", "user")}

    def key_of(arrival):  # the key as a tuple of codes
        codes = (code_of["head"][arrival[0]], arrival[1], code_of["user"][arrival[2]])
        return tuple(codes[pick[f]] for f in strategy.fields)

    first = {}  # key -> its first arrival
    for seq, arrival in enumerate(arrivals):
        first.setdefault(key_of(arrival), seq)
    ranked = sorted(first)  # ids run in the lexicographic order of the codes
    assert ids.tolist() == [ranked.index(key_of(a)) for a in arrivals]
    assert firsts.tolist() == [first[k] for k in ranked]
    assert keys == [shown(arrivals[first[k]][pick[f]] for f in strategy.fields) for k in ranked]
    # the cached order is a stable sort of the ids
    assert s.keys[strategy][2].tolist() == sorted(range(len(ids)), key=ids.tolist().__getitem__)


INT_COLUMN = hs.sampled_from([0, 1, 2, 5, -3, INT64_MIN, INT64_MAX, INT64_MAX - 1])


@given(hs.integers(1, 3).flatmap(lambda k: hs.lists(hs.tuples(*[INT_COLUMN] * k), max_size=20)),
       hs.sampled_from([63, 4]))
@example([], 63)
@example([(INT64_MAX, 0), (INT64_MIN, 1), (INT64_MAX, 0)], 63)  # spans 2^64: a lexsort
def test_sorted_runs_match_a_stable_sort(rows, bits):
    """Packed (or, past ``bits``, lexsorted) runs against Python's stable sort of the rows."""
    cols = [np.array(col, np.int64) for col in zip(*rows)] or [np.zeros(0, np.int64)]
    with mock.patch.object(trace_module, "_PACKED_BITS", bits):
        order, start = trace_module.sorted_runs(cols)
    want = sorted(range(len(rows)), key=rows.__getitem__)
    assert order.tolist() == want
    assert start.tolist() == [i for i, r in enumerate(want)
                              if i == 0 or rows[want[i - 1]] != rows[r]]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_key_ids_names_a_key_column_not_read(tmp_path, strategy):
    path = write_trace_rows(tmp_path / "t.csv", [[1000, "u", "s", "h", 1, 4, "i", 0]])
    with pytest.raises(ConfigError, match="keys on head_id, a column not read"):
        run_pipeline(read_trace(path, ("truth_instance",)), PipelineConfig(strategy=strategy))
    stream = read_trace(path, ("head_id",)).stream
    if "user" in strategy.fields:
        with pytest.raises(ConfigError, match="keys on user_id"):
            key_ids(stream, strategy)
    else:
        assert key_names(stream, strategy) == [shown(("h", 1)[:len(strategy.fields)])]


# ---------------------------------------------------------------------------
# union of the partition streams (replay)
# ---------------------------------------------------------------------------


def inv(ts, head="h", part=0):
    return (ts, "u", "s", head, ts // 1000, 4, "i", part)


def test_union_two_element_merge(tmp_path):
    # each partition is sorted, but the file lists partition 1 first
    path = write_trace_rows(tmp_path / "t.csv", [inv(2, "b", 1), inv(1), inv(3)])
    merged = replay(read_trace(path))
    assert merged.timestamp.tolist() == [1, 2, 3]
    assert [merged.tables["head"][c] for c in merged.head.tolist()] == ["h", "b", "h"]


def test_union_timestamp_tie_keeps_partition_order(tmp_path):
    # seq is assigned by (timestamp, partition, input order), so the lower
    # partition wins the tie even when the file lists it last
    path = write_trace_rows(tmp_path / "t.csv", [inv(5, "y", 1), inv(5, "x", 0)])
    merged = replay(read_trace(path))
    assert [merged.tables["head"][c] for c in merged.head.tolist()] == ["x", "y"]


def test_union_conservation(small_trace, tmp_path):
    # every partition tuple reaches the merged stream exactly once
    path = tmp_path / "t.csv"
    rows = write_partition_by_partition(small_trace, path)

    s = replay(read_trace(path))

    def names(f):
        return [s.tables[f][c] for c in getattr(s, f).tolist()]

    merged = zip(s.timestamp.tolist(), names("user"), names("service"), names("head"),
                 s.instance_ts.tolist(), s.response.tolist())
    assert sorted(merged) == sorted(
        (int(r[0]), r[1], r[2], r[3], int(r[4]), int(r[5])) for r in rows)


# ---------------------------------------------------------------------------
# small-window-array aggregate
# ---------------------------------------------------------------------------


def test_swa_zero_span_full_close():
    tuples = feed((100, "A", "u"), (100, "A", "u"), (100, "A", "u"))
    ems, stats = aggregate_swa(tuples, WindowParams(3, 22), Strategy.HEAD)
    assert len(ems) == 1
    e = emission_rows(ems)[0]
    assert (e.count, e.close_reason, e.closed_at) == (3, "full", 100)
    assert stats.residence_ms.tolist() == [0.0]  # opened at 100 too
    assert stats.tuples_in == 3


def test_swa_timeout_fires_on_clock_boundary():
    # lone window opened at 0 with a 22 s deadline; a distant later arrival
    # advances event time, and the sweep closes it at the first 100 ms
    # boundary past the deadline
    tuples = feed((0, "A", "u"), (300_000, "B", "u"))
    ems, _ = aggregate_swa(tuples, WindowParams(3, 22), Strategy.HEAD)
    by_key = {e.key: e for e in emission_rows(ems)}
    assert by_key["A"].close_reason == "timeout"
    assert by_key["A"].closed_at == 22_100
    assert by_key["A"].count == 1


def test_swa_admits_tuple_exactly_at_deadline():
    tuples = feed((0, "A", "u"), (22_000, "A", "u"), (300_000, "B", "u"))
    ems, _ = aggregate_swa(tuples, WindowParams(3, 22), Strategy.HEAD)
    a = [e for e in emission_rows(ems) if e.key == "A"][0]
    assert a.count == 2
    assert a.close_reason == "timeout"


def test_swa_splits_oversized_instance():
    tuples = feed(*[(i * 10, "A", "u") for i in range(15)])
    ems, stats = aggregate_swa(tuples, WindowParams(13, 22), Strategy.HEAD)
    ems = emission_rows(ems)
    assert [e.count for e in ems] == [13, 2]
    assert [e.close_reason for e in ems] == ["full", "timeout"]
    assert sum(e.count for e in ems) == stats.tuples_in == 15


def test_swa_end_of_stream_flush_reason_and_time():
    tuples = feed((0, "A", "u"), (50, "A", "u"))
    ems, _ = aggregate_swa(tuples, WindowParams(13, 22), Strategy.HEAD)
    assert len(ems) == 1
    ems = emission_rows(ems)
    assert ems[0].close_reason == "timeout"
    assert ems[0].closed_at == 50
    assert ems[0].count == 2


def test_swa_aggregates_recomputable():
    tuples = feed((0, "A", "u", 10), (40, "A", "u", 2), (90, "A", "u", 6))
    ems, _ = aggregate_swa(tuples, WindowParams(3, 22), Strategy.HEAD)
    e = emission_rows(ems)[0]
    assert e.response_avg == pytest.approx(6.0)
    assert e.span_ms == 90
    assert e.member_seqs == (0, 1, 2)


def test_swa_key_purity(swa_small_run, small_trace):
    s = replay(small_trace)
    for e in emission_rows(swa_small_run.emissions):
        for seq in e.member_seqs:
            assert f"{s.tables['head'][s.head[seq]]}|{s.instance_ts[seq]}|{s.tables['user'][s.user[seq]]}" == e.key


def test_swa_conservation_after_flush(swa_small_run, small_trace):
    stats = swa_small_run.aggregate_stats
    total_emitted = sum(e.count for e in emission_rows(swa_small_run.emissions))
    assert stats.tuples_in == small_trace.n_tuples
    assert total_emitted == stats.tuples_in
    stats.check_conservation()


def test_swa_resident_windows_bounded_by_open_instances():
    # fixed degree 6 with capacity 3: every window fills and closes while its
    # instance is still arriving, so open windows never outnumber open instances
    cat = build_catalog(300, PointMassDist(6.0), seed=13)
    from swakit.trace import default_arrival_dist, default_span_dist

    cfg = TraceConfig(instance_count=300, arrival_dist=default_arrival_dist(),
                      span_dist=default_span_dist(), user_pool=900, seed=14)
    trace = generate_trace(cat, cfg)
    _, stats = aggregate_swa(replay(trace), WindowParams(3, 1000), Strategy.HEAD_TS_IP)

    t = trace.truth_table
    intervals = sorted(zip(t.primary.tolist(), t.last.tolist()))
    # oracle: most instances simultaneously inside [primary, last]
    events = []
    for lo, hi in intervals:
        events.append((lo, 1))
        events.append((hi + 1, -1))
    events.sort()
    peak = cur = 0
    for _, d in events:
        cur += d
        peak = max(peak, cur)
    assert stats.occupancy_max <= peak


# ---------------------------------------------------------------------------
# aggregate_swa against a reference written from its contract
# ---------------------------------------------------------------------------

# a tuple as the reference operators see it, straight from the drawn specs
Row = namedtuple("Row", "seq timestamp head_id instance_timestamp user_id response_time")

REF_KEYS = {
    Strategy.HEAD: lambda t: (t.head_id,),
    Strategy.HEAD_TS: lambda t: (t.head_id, t.instance_timestamp),
    Strategy.HEAD_IP: lambda t: (t.head_id, t.user_id),
    Strategy.HEAD_TS_IP: lambda t: (t.head_id, t.instance_timestamp, t.user_id),
}


def left_to_right(xs):
    """The sum of the floats ``xs``, added one at a time from the left: the built-in ``sum`` of
    floats compensates from Python 3.12 on."""
    total = 0.0
    for x in xs:
        total += x
    return total


def int64_mean(values):
    """The mean as numpy takes it from the int64 sum, or where that sum wraps, the exact sum's
    correctly rounded quotient."""
    total = sum(values)
    return (float(total) if INT64_MIN <= total <= INT64_MAX else total) / len(values)


def drawn(arrivals, base=0):
    """(reference rows, stream) for drawn (gap, head, user[, response]) arrivals.

    Time starts at ``base``; timestamps past the int64 maximum stay at it.
    """
    rows, ts = [], base
    for seq, (gap, head, user, *resp) in enumerate(arrivals):
        ts = min(ts + gap, INT64_MAX)
        rows.append(Row(seq, ts, head, ts // 1000, user, resp[0] if resp else 4))
    stream = feed(*((r.timestamp, r.head_id, r.user_id, r.response_time) for r in rows))
    return rows, stream


def reference_swa(stream, capacity, timeout_s, strategy):
    """One list per key; event time stepped through every 100 ms boundary.

    A window whose age exceeds the timeout closes at the first sweep past
    its deadline; sweeps run at every boundary and every arrival.  Windows
    open in deadline order, so the dict's insertion order is the close order.
    Returns the emissions, the open windows at each arrival (after its sweep,
    before it joins) and each emission's residence (close time minus its
    first member's timestamp).
    """
    timeout_ms = timeout_s * 1000
    windows = {}  # key -> (opened_at, [seqs])
    out, occupancy, residence = [], [], []

    def emit(key, opened_at, seqs, reason, now):
        out.append((key, tuple(seqs), reason, now))
        residence.append(float(now - opened_at))
        del windows[key]

    def sweep(now):
        for key, (opened_at, seqs) in list(windows.items()):
            if opened_at + timeout_ms < now:
                emit(key, opened_at, seqs, "timeout", now)

    clock = None
    for t in stream:
        if clock is not None:
            boundary = (clock // 100 + 1) * 100
            while boundary < t.timestamp:
                sweep(boundary)
                boundary += 100
        sweep(t.timestamp)
        occupancy.append(len(windows))
        clock = t.timestamp
        key = REF_KEYS[strategy](t)
        opened_at, seqs = windows.setdefault(key, (t.timestamp, []))
        seqs.append(t.seq)
        if len(seqs) == capacity:
            emit(key, opened_at, seqs, "full", t.timestamp)
    for key, (opened_at, seqs) in list(windows.items()):
        emit(key, opened_at, seqs, "timeout", clock)
    return out, occupancy, residence


# gaps hit ties (0), boundaries (99-101) and the 1 s / 2 s deadlines exactly
GAPS = hs.one_of(hs.sampled_from([0, 0, 1, 99, 100, 101, 1000, 2000]),
                 hs.integers(0, 2500))
# responses at both int64 ends and past 2^53, where int64 sums wrap or a float is inexact
RESPONSES = hs.one_of(hs.integers(0, 50), hs.sampled_from([INT64_MIN, 2**53 + 1, 2**62 + 5,
                                                             INT64_MAX]))
ARRIVALS = hs.lists(hs.tuples(GAPS, hs.sampled_from("ABC"), hs.sampled_from("uv"), RESPONSES),
                    max_size=40)


# time bases at both int64 extremes; near the top, deadlines pass the maximum
BASES = hs.sampled_from([0, INT64_MIN, INT64_MAX - 3_000, INT64_MAX - 100_000])


@given(ARRIVALS, hs.integers(1, 4), hs.integers(1, 2), hs.sampled_from(list(Strategy)), BASES)
@example([], 3, 1, Strategy.HEAD, 0)  # the empty stream
@example([(0, "A", "u"), (0, "A", "v"), (1500, "B", "u"), (99, "A", "u")], 1, 1,
         Strategy.HEAD_IP, INT64_MAX - 3_000)  # capacity one
@example([(1995, "A", "u"), (2000, "B", "u")], 2, 1, Strategy.HEAD,
         INT64_MAX - 3_000)  # a timeout past the last 100 ms boundary below the maximum
def test_swa_matches_reference(arrivals, capacity, timeout_s, strategy, base):
    rows, stream = drawn(arrivals, base)
    ems, stats = aggregate_swa(stream, WindowParams(capacity, timeout_s), strategy)
    ems = emission_rows(ems)
    got = [(e.key, e.member_seqs, e.close_reason, e.closed_at) for e in ems]
    expect, occupancy, residence = reference_swa(rows, capacity, timeout_s, strategy)
    assert got == [(shown(k), *rest) for k, *rest in expect]
    assert [e.response_avg for e in ems] == [
        int64_mean([rows[s].response_time for s in seqs]) for _, seqs, *_ in expect]
    assert [e.count for e in ems] == [len(e.member_seqs) for e in ems]
    assert stats.tuples_in == len(rows)
    assert (stats.occupancy_sum, stats.occupancy_max) == (sum(occupancy), max(occupancy, default=0))
    assert stats.residence_ms.tolist() == residence


# ---------------------------------------------------------------------------
# sliding (tumbling batch) aggregate
# ---------------------------------------------------------------------------


def test_sliding_batch_boundary_splits():
    # ten tuples, batch of five: first batch groups {3,1,1}, second {3,2};
    # the instance straddling the boundary loses all three of its tuples
    tuples = feed(
        (0, "V", "u"), (1, "V", "u"), (2, "V", "u"), (3, "X", "u"), (4, "Y", "u"),
        (5, "X", "u"), (6, "X", "u"), (7, "W", "u"), (8, "W", "u"), (9, "W", "u"),
    )
    ems, stats = aggregate_sliding(tuples, window=5, step=5, strategy=Strategy.HEAD)
    ems = emission_rows(ems)
    sizes = [sorted((e.count for e in ems if e.closed_at == c), reverse=True)
             for c in sorted({e.closed_at for e in ems})]
    assert sizes == [[3, 1, 1], [3, 2]]
    assert sum(e.count for e in ems) == 10
    # X has degree 3 but its best group holds only 2 members
    best_x = max(e.count for e in ems if e.key == "X")
    assert best_x == 2
    assert [tuples.tables["head"][c] for c in tuples.head.tolist()].count("X") == 3


def test_sliding_occupancy_and_storage_totals():
    # tumbling batches of four: the buffer holds i % 4 tuples at arrival i
    tuples = feed(*[(i, "A", "u") for i in range(10)])
    _, stats = aggregate_sliding(tuples, window=4, step=4, strategy=Strategy.HEAD,
                                 tuple_size=135)
    occ = [i % 4 for i in range(10)]
    assert stats.occupancy_avg == sum(occ) / len(occ)
    assert stats.occupancy_max == 3
    assert stats.storage_avg == sum(o * 135 for o in occ) / len(occ)
    assert stats.storage_max == 3 * 135


@given(hs.integers(0, 300), hs.integers(1, 60), hs.integers(1, 60))
@example(5, 20, 7)  # fewer tuples than the window
@example(100, 8, 8)  # tumbling
def test_sliding_occupancy_in_closed_form(n, window, step):
    window, step = max(window, step), min(window, step)
    _, stats = aggregate_sliding(feed(*[(i, "A", "u") for i in range(n)]), window, step,
                                 Strategy.HEAD)
    occ = np.arange(n)  # i tuples at arrival i, then window - step plus j % step at window + j
    occ[window:] = window - step + (occ[window:] - window) % step
    assert (stats.occupancy_sum, stats.occupancy_max) == (int(occ.sum()), int(occ.max(initial=0)))


def test_sliding_window_of_one():
    tuples = feed((0, "A", "u"), (1, "A", "u"), (2, "B", "u"))
    ems, _ = aggregate_sliding(tuples, window=1, step=1, strategy=Strategy.HEAD)
    assert [e.count for e in emission_rows(ems)] == [1, 1, 1]


def test_sliding_whole_stream_window_equals_truth_groups():
    tuples = feed((0, "A", "u"), (1, "B", "u"), (2, "A", "u"), (3, "B", "u"),
                  (4, "C", "u"))
    ems, _ = aggregate_sliding(tuples, window=100, step=100, strategy=Strategy.HEAD)
    assert sorted((e.key, e.count) for e in emission_rows(ems)) == [("A", 2), ("B", 2), ("C", 1)]


def test_sliding_group_count_bounded_by_window():
    tuples = feed(*[(i, f"k{i}", "u") for i in range(12)])
    ems, _ = aggregate_sliding(tuples, window=4, step=4, strategy=Strategy.HEAD)
    ems = emission_rows(ems)
    for c in {e.closed_at for e in ems}:
        assert sum(1 for e in ems if e.closed_at == c) <= 4


def reference_sliding(rows, window, step, strategy, tuple_size):
    """A buffer of tuples; each full buffer (and the last, partial one) is one batch.

    Returns the emissions as (key, members, closed_at, response_avg) and the
    operator statistics as ``OperatorStats.to_dict`` writes them.
    """
    buf, out, occupancy, residence, emitted = [], [], [], [], set()

    def close(batch):
        closed_at = max(t.timestamp for t in batch)
        groups = {}
        for t in batch:
            groups.setdefault(REF_KEYS[strategy](t), []).append(t)
        for k, members in groups.items():
            out.append((k, tuple(t.seq for t in members), closed_at,
                        int64_mean([t.response_time for t in members])))
            ts = [t.timestamp for t in members]
            if max(abs(closed_at), abs(int64_mean(ts))) < 2**53:  # both exact as floats
                residence.append(closed_at - int64_mean(ts))
            else:
                residence.append(float(closed_at - Fraction(sum(ts), len(ts))))
            emitted.update(t.seq for t in members)

    for t in rows:
        occupancy.append(len(buf))
        buf.append(t)
        if len(buf) == window:
            close(buf)
            buf = buf[step:]
    if buf:
        close(buf)
    n = len(rows)
    stats = {
        "name": "aggregate_sliding",
        "tuples_in": n,
        "tuples_out": len(emitted),
        "occupancy_avg": sum(occupancy) / n if n else 0.0,
        "occupancy_max": max(occupancy, default=0),
        "storage_avg_bytes": sum(occupancy) * tuple_size / n if n else 0.0,
        "storage_max_bytes": max(occupancy, default=0) * tuple_size,
        "residence_avg_ms": left_to_right(residence) / len(residence) if residence else 0.0,
    }
    return out, stats


SLIDING_ARRIVALS = hs.lists(hs.tuples(hs.sampled_from([0, 0, 1, 7, 1000]), hs.sampled_from("ABC"),
                                      hs.sampled_from("uv"), RESPONSES), max_size=30)


@given(SLIDING_ARRIVALS, hs.integers(1, 12), hs.integers(1, 12), hs.sampled_from(list(Strategy)),
       hs.sampled_from([1, 5, 1 << 20]), hs.sampled_from([63, 3]), BASES)
@example([(1, "A", "u", 3)] * 10, 1, 1, Strategy.HEAD, 1 << 20, 63, 0)  # window of one
# a window longer than the stream
@example([(1, "A", "u", 3), (0, "B", "v", 5)] * 5, 40, 40, Strategy.HEAD, 1 << 20, 63, 0)
@example([(7, "A", "u", 3), (0, "B", "v", 5), (1, "A", "v", 8)] * 4, 5, 2, Strategy.HEAD_IP, 5, 63,
         0)
# (batch, key) groups of 3 batches x 3 keys over 12 rows need 8 bits: past 3, a lexsort groups them
@example([(7, "A", "u", 3), (0, "B", "v", 5), (1, "C", "v", 8)] * 4, 4, 4, Strategy.HEAD, 1 << 20,
         3, 0)
# int64 sums of the member timestamps and of the responses that wrap
@example([(0, "A", "u", 2**62 + 5), (5, "A", "u", 2**62 + 5)], 2, 2, Strategy.HEAD, 1 << 20, 63,
         INT64_MAX - 11)
# two tuples at 2^63 - 11 and 2^63 - 6: residence 2.5, which float64 subtraction takes as 0
@example([(0, "A", "u"), (5, "A", "u")], 2, 2, Strategy.HEAD, 1 << 20, 63, INT64_MAX - 10)
# residences [1e16, 1.0, 1.0]: a compensated sum would give (1e16 + 2) / 3, not 1e16 / 3
@example([(0, "A", "u"), (2 * 10**16, "A", "u"), (1, "B", "u"), (2, "B", "u"), (1, "C", "u"),
          (2, "C", "u")], 2, 2, Strategy.HEAD, 1 << 20, 63, -2 * 10**16)
def test_sliding_matches_reference(arrivals, window, step, strategy, run, bits, base):
    window, step = max(window, step), min(window, step)
    rows, stream = drawn(arrivals, base)
    # ``run`` bounds the member slots grouped at once; small values split the batches up.  With
    # ``bits`` at 3, a sort key wider than 3 bits falls back to a lexsort, as one past 63 would
    with mock.patch.object(engine, "_SLIDING_RUN", run), \
            mock.patch.object(trace_module, "_PACKED_BITS", bits):
        ems, stats = aggregate_sliding(stream, window, step, strategy, tuple_size=135)
    got = [(e.key, e.member_seqs, e.closed_at, e.response_avg) for e in emission_rows(ems)]
    expect, expect_stats = reference_sliding(rows, window, step, strategy, 135)
    assert got == [(shown(k), *rest) for k, *rest in expect]
    assert stats.to_dict() == expect_stats


# ---------------------------------------------------------------------------
# pipeline config and runner
# ---------------------------------------------------------------------------


def test_pipeline_config_from_json(tmp_path):
    doc = {
        "queue": {"pages": 10, "page_size": 1024, "tuple_size": 135},
        "aggregate": {"kind": "swa", "capacity": 13, "timeout_s": 22,
                      "window": 32000, "step": 32000},
        "strategy": "head_ts_ip",
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    cfg = PipelineConfig.from_dict(read_json(p, "pipeline config"))
    assert cfg.kind == "swa"
    assert (cfg.capacity, cfg.timeout_s) == (13, 22)
    assert cfg.tuple_size == 135
    assert cfg.strategy is Strategy.HEAD_TS_IP
    assert cfg.to_dict()["aggregate"]["kind"] == "swa"


def test_pipeline_config_rejects_bad_kind():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"aggregate": {"kind": "hopping"}})


def test_pipeline_config_rejects_bad_tuple_size():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"queue": {"tuple_size": 0}, "aggregate": {}})
    with pytest.raises(ConfigError):
        PipelineConfig(tuple_size=-1)


@pytest.mark.parametrize("fields", [
    {"capacity": 0}, {"timeout_s": 0}, {"window": 0, "step": 0}, {"window": 10, "step": 11},
    {"window": 10, "step": 0},
])
def test_pipeline_config_rejects_bad_window(fields):
    with pytest.raises(ConfigError):
        PipelineConfig(**fields)
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"aggregate": {"kind": "sliding", **fields}})


def test_run_pipeline_deterministic(small_trace):
    cfg = PipelineConfig(kind="swa", capacity=13, timeout_s=22,
                         strategy=Strategy.HEAD_TS_IP)
    r1 = run_pipeline(small_trace, cfg)
    r2 = run_pipeline(small_trace, cfg)
    assert [(e.key, e.count, e.closed_at) for e in emission_rows(r1.emissions)] == \
           [(e.key, e.count, e.closed_at) for e in emission_rows(r2.emissions)]


def test_run_pipeline_stats_structure(swa_small_run):
    a = swa_small_run.aggregate_stats.to_dict()
    for key in ("tuples_in", "tuples_out", "occupancy_avg", "occupancy_max",
                "storage_avg_bytes", "storage_max_bytes", "residence_avg_ms"):
        assert key in a
    assert a["residence_avg_ms"] >= 0
    # reserved-slot storage accounting: windows x capacity x tuple size
    assert a["storage_max_bytes"] == a["occupancy_max"] * 13 * 135


def test_emissions_csv_round_trip(swa_small_run, tmp_path):
    p = tmp_path / "e.csv"
    mp = tmp_path / "e_members.csv"
    write_emissions(swa_small_run.emissions, p, mp)
    header = p.read_text().splitlines()[0]
    assert header == ",".join(EMITTED_HEADER)
    back = read_emissions(p, mp)
    assert len(back) == len(swa_small_run.emissions)
    for got, want in zip(emission_rows(back), emission_rows(swa_small_run.emissions)):
        # the key survives as its display string
        assert got.key == want.key
        assert got.count == want.count
        assert got.close_reason == want.close_reason
        assert got.closed_at == want.closed_at
        assert got.span_ms == want.span_ms
        assert got.member_seqs == tuple(want.member_seqs)
        assert got.response_avg == pytest.approx(want.response_avg, abs=1e-6)
    # fields that were never written are not invented on the way back
    assert not hasattr(back, "opened_at") and not hasattr(back, "response_min")
    # writing what we read back reproduces the files byte for byte
    p2 = tmp_path / "e2.csv"
    mp2 = tmp_path / "e2_members.csv"
    write_emissions(back, p2, mp2)
    assert p2.read_bytes() == p.read_bytes()
    assert mp2.read_bytes() == mp.read_bytes()


def test_read_emissions_without_members_has_none(swa_small_run, tmp_path):
    p = tmp_path / "e.csv"
    write_emissions(swa_small_run.emissions, p, None)
    back = read_emissions(p, None)
    assert all(e.member_seqs is None for e in emission_rows(back))


# ---------------------------------------------------------------------------
# emission files against the in-memory columns
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def emission_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("emissions")


def labelled_trace(rows):
    """The drawn rows as a trace whose tuples carry one of three truth labels, by seq."""
    return Trace.from_rows([(r.timestamp, r.user_id, "s", r.head_id, r.instance_timestamp,
                             r.response_time, f"i{r.seq % 3}", 0) for r in rows])


@settings(max_examples=100)  # each example writes and reads two files twice
@given(SLIDING_ARRIVALS, hs.integers(1, 4), hs.integers(1, 12), hs.integers(1, 12),
       hs.sampled_from(list(Strategy)), hs.booleans())
def test_emission_files_round_trip(emission_dir, arrivals, capacity, window, step, strategy,
                                   sliding):
    rows, _ = drawn(arrivals)
    trace = labelled_trace(rows)
    if sliding:
        ems, _ = aggregate_sliding(replay(trace), max(window, step), min(window, step), strategy)
    else:
        ems, _ = aggregate_swa(replay(trace), WindowParams(capacity, 1), strategy)
    p, mp = emission_dir / "e.csv", emission_dir / "e_members.csv"
    write_emissions(ems, p, mp)
    back = read_emissions(p, mp)
    # the written columns and the CSR members (count and seqs) come back as they were
    assert [ems.keys[k] for k in ems.key.tolist()] == [back.keys[k] for k in back.key.tolist()]
    for col in ("count", "reason", "closed_at", "span_ms", "seqs"):
        assert getattr(back, col).tolist() == getattr(ems, col).tolist()
    assert back.response_avg.tolist() == [float(f"{a:.6f}") for a in ems.response_avg.tolist()]
    # writing them again gives the same bytes, and they score the same
    p2, mp2 = emission_dir / "e2.csv", emission_dir / "e2_members.csv"
    write_emissions(back, p2, mp2)
    assert (p2.read_bytes(), mp2.read_bytes()) == (p.read_bytes(), mp.read_bytes())
    assert evaluate(back, trace).to_dict() == evaluate(ems, trace).to_dict()


@given(hs.lists(hs.one_of(
    hs.floats(-1e12, 1e12),
    hs.integers(-10**9, 10**9).map(lambda k: k / 128),  # ties at the seventh decimal
    hs.integers(-10**12, 10**12).map(lambda k: (k + 0.5) / 1e6),  # ties, as near as floats get
    hs.sampled_from([0.0, -0.0, 2.5e-7, -2.5e-7, 5e-7, 1.5e-6, 2.0**51 / 1e6, 2.0**60, 1e300]))))
def test_response_columns_hold_what_the_csv_gives(values):
    (table, codes), got = engine._written(np.array(values, float))
    texts = ["%.6f" % v for v in values]
    assert [table[c] for c in codes.tolist()] == texts
    want = np.array(list(map(float, texts)), float)
    assert got.tobytes() == want.tobytes()  # bit for bit, the sign of zero included


def test_member_rows_keep_file_order_within_an_emission(swa_small_run, tmp_path):
    # the sidecar lists the emissions last to first; each keeps its members' order
    p, mp = tmp_path / "e.csv", tmp_path / "e_members.csv"
    write_emissions(swa_small_run.emissions, p, mp)
    header, *lines = mp.read_text().splitlines()
    lines.sort(key=lambda line: -int(line.split(",")[0]))  # stable
    mp.write_text("\n".join([header, *lines]) + "\n")
    back = read_emissions(p, mp)
    assert back.seqs.tolist() == swa_small_run.emissions.seqs.tolist()


# a damaged data line (file, 1-based line, new fields from old) and the row it is
BAD_EMISSION_ROW = {
    "count": ("emitted.csv", 6, lambda f: [f[0], "x", *f[2:]], "row 5"),
    "width": ("emitted.csv", 6, lambda f: f[:5], "row 5"),
    "blank": ("emitted.csv", 6, lambda f: [], "row 5"),
    "too-large": ("emitted.csv", 6, lambda f: [f[0], str(2**63), *f[2:]], "row 5"),
    "seq": ("emitted_members.csv", 6, lambda f: [f[0], "1.5"], "row 5"),
    # rows that parse but break the files' contract; only read_emissions sees these
    "reason": ("emitted.csv", 6, lambda f: [*f[:2], "late", *f[3:]], "row 5"),
    "index": ("emitted_members.csv", 6, lambda f: ["-1", f[1]], "row 5"),
}
ROW_DTYPE = {"emitted.csv": np.dtype(list(zip(EMITTED_HEADER, ["O", "i8", "O", "i8", "f8", "i8"]))),
             "emitted_members.csv": np.dtype([(h, "i8") for h in MEMBERS_HEADER])}


@pytest.mark.parametrize("case", sorted(BAD_EMISSION_ROW))
def test_emission_reader_names_first_bad_row(swa_small_run, tmp_path, case):
    name, line, damage, where = BAD_EMISSION_ROW[case]
    p, mp = tmp_path / "emitted.csv", tmp_path / "emitted_members.csv"
    write_emissions(swa_small_run.emissions, p, mp)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[line - 1] = ",".join(damage(lines[line - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    errors = []
    for chunk in (trace_module.READ_CHUNK, 2):  # whole blocks, then blocks of two rows
        with mock.patch.object(trace_module, "READ_CHUNK", chunk):
            with pytest.raises(ConfigError, match=f"{name}: {where}:") as err:
                read_emissions(p, mp)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    if case not in ("reason", "index"):  # the row reader on its own says the same
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh, \
                pytest.raises(ConfigError) as err:
            records = csv.reader(fh)
            next(records)  # the header
            list(parse_rows(path, records, ROW_DTYPE[name], 1, ConfigError))
        assert str(err.value) == errors[0]
