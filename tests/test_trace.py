"""Catalog construction, trace synthesis, CSV round trips, replay."""

import csv
import hashlib
import io
import json
import re
import shutil
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from swakit import cli
from swakit import trace as trace_module
from swakit.distributions import PointMassDist
from swakit.engine import EMITTED_HEADER, MEMBERS_HEADER, REASONS, Emissions, read_emissions, \
    write_emissions
from swakit.errors import ConfigError, TraceParseError
from swakit.trace import (
    STRINGS,
    TRACE_HEADER,
    Trace,
    TraceConfig,
    build_catalog,
    default_arrival_dist,
    default_degree_dist,
    default_span_dist,
    generate_trace,
    on_two_threads,
    read_trace,
    replay,
    write_columns,
    write_trace,
)

from conftest import make_trace, revouch, write_partition_by_partition, write_trace_rows


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def names_of(cat, codes):
    return [cat.names[c] for c in codes.tolist()]


def test_catalog_degree_statistics():
    cat = build_catalog(10_000, default_degree_dist(), seed=1)
    degrees = cat.degree
    assert degrees.mean() == pytest.approx(11.37, rel=0.02)
    assert np.mean(degrees <= 15) >= 0.99
    assert degrees.min() >= 1
    # CSR: service i's sub-ids are the next degree[i] entries, head first
    assert cat.start.tolist() == [0, *np.cumsum(degrees)[:-1].tolist()]
    assert len(cat.sub_ids) == degrees.sum()
    assert names_of(cat, cat.sub_ids[cat.start]) == [f"svc{i}" for i in range(10_000)]


def test_catalog_point_mass_degree():
    cat = build_catalog(1, PointMassDist(3.0), seed=9)
    assert len(cat.degree) == 1
    assert cat.degree[0] == 3
    assert names_of(cat, cat.sub_ids) == ["svc0", "svc0.1", "svc0.2"]


def test_catalog_round_robin_partitions():
    # every service is used once; each sub-invocation's partition is its
    # position in the whole catalog mod 2
    cat = build_catalog(5, PointMassDist(4.0), seed=0, n_partitions=2)
    trace = generate_trace(cat, TraceConfig(instance_count=5, arrival_dist=PointMassDist(10.0),
                                            span_dist=PointMassDist(1.0), user_pool=5, seed=1))
    s = trace.stream
    part = dict(zip((s.tables["service"][c] for c in s.service.tolist()), trace.partition.tolist()))
    flat = [part[name] for name in names_of(cat, cat.sub_ids)]
    assert flat == [i % 2 for i in range(len(flat))]


def test_catalog_shared_atomics_reuses_subservices():
    private = build_catalog(50, PointMassDist(6.0), seed=3)
    shared = build_catalog(50, PointMassDist(6.0), seed=3, shared_atomics=True)
    ids = lambda cat: names_of(cat, cat.sub_ids)
    assert len(set(ids(private))) == len(ids(private))  # all distinct
    assert len(set(ids(shared))) < len(ids(shared))  # pool reused
    # heads keep identifying the service; ambiguity comes from the atomics
    heads = names_of(shared, shared.sub_ids[shared.start])
    assert len(set(heads)) == len(heads)


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared-atomics"])
def test_catalog_names_are_the_percent_names(shared):
    """The catalog's table holds the names one ``%`` per name spells: the heads, then
    ``svc{i}.{j}`` per subordinate in catalog order, or ``atom{k}`` over the shared pool."""
    cat = build_catalog(300, default_degree_dist(), seed=5, shared_atomics=shared)
    service = np.repeat(np.arange(len(cat.degree)), cat.degree)
    pos = np.arange(len(cat.sub_ids)) - cat.start[service]
    sub = pos > 0
    subs = (["atom%d" % k for k in range(max(1, int(sub.sum()) // 2))] if shared
            else list(map("svc%d.%d".__mod__, zip(service[sub].tolist(), pos[sub].tolist()))))
    want = [*map("svc%d".__mod__, range(len(cat.degree))), *subs]
    assert isinstance(cat.names, trace_module.Strings) and list(cat.names) == want
    assert cat.names[-1] == want[-1] and cat.names[-len(want)] == want[0]
    # it compares and slices as the list of its strings does
    assert cat.names == want and want == cat.names and cat.names != want[:-1]
    assert cat.names == trace_module.Strings(cat.names.raw, cat.names.offsets)
    assert cat.names != tuple(want)
    assert cat.names[1:7:2] == want[1:7:2] and cat.names[-2:] == want[-2:]
    with pytest.raises(IndexError):
        cat.names[len(want)]


@pytest.mark.parametrize("strings", [[], [""], ["plain", "", "ab"], ["naïve → ü", "", "ü", "x€y"]])
def test_strings_iterate_as_they_index(strings):
    # one decode of the whole table, split at the offsets counted in characters
    table = trace_module.Strings.of(strings)
    assert list(table) == [table[i] for i in range(len(table))] == strings


def test_catalog_rejects_zero_count():
    with pytest.raises(ConfigError):
        build_catalog(0, PointMassDist(3.0), seed=0)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_zero_span_instance():
    cat = build_catalog(1, PointMassDist(3.0), seed=4)
    cfg = TraceConfig(
        instance_count=1,
        arrival_dist=PointMassDist(10.0),
        span_dist=PointMassDist(0.0),
        user_pool=5,
        seed=11,
    )
    trace = generate_trace(cat, cfg)
    s = trace.stream
    assert len(s) == 3
    assert len(set(s.timestamp.tolist())) == 1
    assert len(set(trace.truth.tolist())) == 1
    assert s.instance_ts[0] == s.timestamp[0] // 1000
    assert (s.response == 0).all()


@pytest.mark.parametrize("arrival_ms, span_s", [(10.0, 1e17), (1e19, 1.0)])
def test_times_beyond_int64_refused(arrival_ms, span_s):
    # an end of 1e20 ms or an arrival of 1e19 ms has no int64 timestamp
    cfg = TraceConfig(instance_count=2, arrival_dist=PointMassDist(arrival_ms),
                      span_dist=PointMassDist(span_s), user_pool=5, seed=1)
    with pytest.raises(ConfigError, match="2\\^63"):
        generate_trace(build_catalog(1, PointMassDist(3.0), seed=4), cfg)


def test_conservation_label_counts_match_degrees(small_trace):
    t = small_trace.truth_table
    truth = dict(zip(t.labels, t.degree.tolist()))
    counts = {}
    for code in small_trace.truth.tolist():
        label = small_trace.labels[code]
        counts[label] = counts.get(label, 0) + 1
    assert set(counts) == set(truth)
    for label, degree in truth.items():
        assert counts[label] == degree
    assert small_trace.n_tuples == sum(truth.values())


def test_tuple_field_invariants(small_trace):
    last = {}
    s = small_trace.stream
    for ts, inst_ts, resp, part in zip(s.timestamp.tolist(), s.instance_ts.tolist(),
                                       s.response.tolist(), small_trace.partition.tolist()):
        assert inst_ts <= ts // 1000
        assert resp >= 0
        assert ts >= last.get(part, -1)
        last[part] = ts
    assert sorted(last) == [0, 1]


def test_repeat_factor_reuses_services(small_trace):
    heads = dict(zip(small_trace.truth.tolist(), small_trace.stream.head.tolist()))
    # 300 instances over round(300/1.5)=200 services: heads must repeat
    assert len(set(heads.values())) == 200
    assert len(heads) == 300


def test_determinism_same_seed_identical(tmp_path):
    a = make_trace(40, 60, seed=21)
    b = make_trace(40, 60, seed=21)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(a, pa)
    write_trace(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = make_trace(40, 60, seed=22)
    pc = tmp_path / "c.csv"
    write_trace(c, pc)
    assert pa.read_bytes() != pc.read_bytes()


def test_union_density_matches_target(full_scale_trace):
    # gaps measured over the trace core: cut at the last primary arrival so
    # the shutdown tail (final instances draining) does not skew the mean
    last_primary = int(full_scale_trace.truth_table.primary.max())
    ts = sorted(t for t in full_scale_trace.stream.timestamp.tolist() if t <= last_primary)
    mean_gap = (ts[-1] - ts[0]) / (len(ts) - 1)
    assert mean_gap == pytest.approx(0.9457, rel=0.15)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_round_trip_byte_identical(small_trace, tmp_path):
    p1 = tmp_path / "t1.csv"
    write_trace(small_trace, p1)
    back = read_trace(p1)
    p2 = tmp_path / "t2.csv"
    write_trace(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.n_tuples == small_trace.n_tuples
    assert back.partition.tolist() == small_trace.partition.tolist()


def test_malformed_row_names_row_number(tmp_path):
    p = tmp_path / "bad.csv"
    header = "timestamp_ms,user_id,service_id,head_id,instance_ts_s,response_ms,truth_instance,partition"
    p.write_text(header + "\n1,u,s,h,0,5,i,0\n2,u,s,h\n")
    with pytest.raises(TraceParseError, match="row 2"):
        read_trace(p)
    p.write_text(header + "\nx,u,s,h,0,5,i,0\n")
    with pytest.raises(TraceParseError, match="row 1"):
        read_trace(p)


def test_unsorted_partition_names_row_number(tmp_path):
    p = tmp_path / "unsorted.csv"
    header = "timestamp_ms,user_id,service_id,head_id,instance_ts_s,response_ms,truth_instance,partition"
    # partition 0 goes back in time at row 3; partition 1 interleaving is fine
    p.write_text(header + "\n5,u,s,h,0,5,i,0\n3,u,s,h,0,5,i,1\n4,u,s,h,0,5,i,0\n")
    with pytest.raises(TraceParseError, match="row 3"):
        read_trace(p)


def row(ts=1, part=0, inst="0", resp="5", user="u"):
    return [str(ts), user, "s", "h", inst, resp, "i", str(part)]


# rows 1-6 of a file; each case breaks some of them
FIRST_BAD_ROW = {
    # row 3 goes back in partition 0, row 5 has a negative partition
    "order-then-negative": ([row(5), row(1, 1), row(4), row(6), row(7, -1), row(8)], "row 3: timestamp 4 precedes 5"),
    # the swapped arrangement
    "negative-then-order": ([row(5), row(1, 1), row(6, -1), row(6), row(4), row(8)], "row 3: negative partition -1"),
    # a non-integer field before both names its own row
    "int-first": ([row(5), row(6, inst="x"), row(4), row(6), row(7, -1), row(8)], "row 2: invalid literal"),
    # within one row, the width is checked first, then the timestamp and partition
    "width": ([row(5), row(6), row(4)[:7], row(1), row(7, -1), row(8)], "row 3: 7 fields"),
    # one field too many: a block read that skips columns must still count them
    "width-long": ([row(5), row(6), row(7) + ["8"], row(8)], "row 3: 9 fields"),
    # a 15-field row and a blank line balance the block's comma count: np.loadtxt keeps the
    # wide row's first 8 fields and skips the blank line, so only the row count refuses it
    "balanced-width": ([row(5), row(6) + row(7)[1:], [], row(8)], "row 2: 15 fields, expected 8"),
    "order-before-response": ([row(5), row(6), row(4, inst="x"), row(8)], "row 3: timestamp 4"),
    # an order fault before a parse fault in a later block (at READ_CHUNK 2) names the earlier row
    "order-before-later-fraction": ([row(5), row(4), row(6), row(7), row(8, resp="1.5"), row(9)],
                                    "row 2: timestamp 4 precedes 5"),
    "ts-before-negative": ([row(5), ["x"] + row(6, -1)[1:], row(8)], "row 2: invalid literal"),
    "too-large": ([row(5), row(2**63), row(8)], "row 2: integer beyond 64 bits"),
    # non-integers and values past 64 bits in a column no order check reads
    "fraction-response": ([row(5), row(6), row(7, resp="1.5"), row(8)], "row 3: invalid literal"),
    "too-large-response": ([row(5), row(6, resp=str(2**63)), row(8)], "row 2: integer beyond 64 bits"),
    "fraction-partition-first": ([row(5, part="1.5"), row(6)], "row 1: invalid literal"),
    "blank-line": ([row(5), row(6), row(7), [], row(1)], "row 4: 0 fields"),
    # a 0xe9 byte in a user id: csv_blocks cannot decode the block, the row reader names the row
    "not-utf8": ([row(5), row(6), row(7, user="u\udce9"), row(8)], "row 3: not UTF-8 text"),
    # a quoted field past the csv module's size limit (131,072 characters)
    "field-too-large": ([row(5), row(6), row(7, user="u," + "x" * 200_000), row(8)],
                        "row 3: field larger than field limit"),
}


@pytest.mark.parametrize("chunk", [trace_module.READ_CHUNK, 2])
@pytest.mark.parametrize("case", sorted(FIRST_BAD_ROW))
def test_reader_reports_first_bad_row(tmp_path, case, chunk):
    rows, message = FIRST_BAD_ROW[case]
    path = write_trace_rows(tmp_path / "bad.csv", rows)
    # small blocks carry the order check and the row numbers across block ends
    with mock.patch.object(trace_module, "READ_CHUNK", chunk):
        for strings in (STRINGS, ("truth_instance",), ()):  # what is coded changes no refusal
            with pytest.raises(TraceParseError, match=f"bad.csv: {message}"):
                read_trace(path, strings)


@contextmanager
def counting_opens():
    """Count the trace module's ``open`` calls: yields a function giving those of one path."""
    with mock.patch.object(trace_module, "open", wraps=open, create=True) as opener:
        yield lambda path: [Path(c.args[0]) for c in opener.call_args_list].count(Path(path))


@pytest.mark.parametrize("chunk", [trace_module.READ_CHUNK, 2])
@pytest.mark.parametrize("case", sorted(FIRST_BAD_ROW))
def test_faulty_trace_is_opened_once(tmp_path, case, chunk):
    rows, message = FIRST_BAD_ROW[case]
    path = write_trace_rows(tmp_path / "bad.csv", rows)
    with mock.patch.object(trace_module, "READ_CHUNK", chunk):
        for strings in (STRINGS, ("truth_instance",), ()):
            with counting_opens() as opened, pytest.raises(TraceParseError, match=message):
                read_trace(path, strings)
            assert opened(path) == 1


def first_bad_row(path):
    """The error a row-by-row read of the trace ``path`` names, or None: the csv module reads the
    rows one by one, and each is checked for its width, its text, its partition's order and then
    its other int fields, in that order."""
    last_ts = {}  # partition -> its latest timestamp so far
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == TRACE_HEADER
        for row_no, fields in enumerate(reader, 1):
            try:
                if len(fields) != len(TRACE_HEADER):
                    raise ValueError(f"{len(fields)} fields, expected {len(TRACE_HEADER)}")
                if any("\udc80" <= c <= "\udcff" for c in "".join(fields)):
                    raise ValueError("not UTF-8 text")
                ts, part = trace_module.to_int64(fields[0]), trace_module.to_int64(fields[7])
                if part < 0:
                    raise ValueError(f"negative partition {part}")
                if ts < last_ts.get(part, ts):
                    raise ValueError(f"timestamp {ts} precedes {last_ts[part]} in partition {part}")
                last_ts[part] = ts
                for i in (4, 5):  # instance_ts_s, response_ms
                    trace_module.to_int64(fields[i])
            except ValueError as exc:
                return f"{path}: row {row_no}: {exc}"
    return None


# a field of a drawn row: mostly valid, sometimes not an int, past 64 bits, negative or quoted
TIMESTAMPS = hs.sampled_from(["0", "1", "2", "3", "5", "5", "9", "x", "1.5", str(2**63)])
PARTITIONS = hs.sampled_from(["0", "0", "1", "1", "2", "-1", "x"])
INTS = hs.sampled_from(["0", "7", "7", "7", "7", "1.5", "y"])
NAMES = hs.sampled_from(["u", "v", "w", "a,b", 'q"r'])
BAD_ROWS = hs.lists(hs.one_of(
    hs.tuples(TIMESTAMPS, NAMES, NAMES, NAMES, INTS, INTS, NAMES, PARTITIONS).map(list),
    hs.just([]),  # a blank line
    hs.tuples(TIMESTAMPS, NAMES, PARTITIONS).map(list),  # too few fields
    hs.tuples(*[hs.just("1")] * 9).map(list),  # one too many
), max_size=12)


@settings(max_examples=200, deadline=None)
@given(BAD_ROWS, hs.sampled_from([trace_module.READ_CHUNK, 1, 2, 3]))
@example([["5", "u", "s", "h", "0", "5", "i", "0"], ["4", "u", "s", "h", "x", "5", "i", "0"]], 1)
def test_reader_names_the_row_a_row_by_row_read_names(tmp_path_factory, rows, chunk):
    # one pass, block by block, names the row and the fault that a row-by-row read names
    path = write_trace_rows(tmp_path_factory.mktemp("rows") / "t.csv", rows)
    want = first_bad_row(path)
    with mock.patch.object(trace_module, "READ_CHUNK", chunk):
        for strings in (STRINGS, ("truth_instance",), ()):
            if want is None:
                assert read_trace(path, strings).n_tuples == len(rows)
            else:
                with pytest.raises(TraceParseError) as got:
                    read_trace(path, strings)
                assert str(got.value) == want


@pytest.mark.parametrize("quoted", [False, True], ids=["blocks", "csv-module"])
def test_projected_read_matches_full_read(small_trace, tmp_path, quoted):
    path = tmp_path / "t.csv"
    rows = write_partition_by_partition(small_trace, path)
    if quoted:  # a comma in one user id sends its block through the csv module
        rows[3][1] += ",x"
        write_trace_rows(path, rows)
    full = read_trace(path)
    f = full.stream
    columns = {"user_id": "user", "service_id": "service", "head_id": "head"}
    for k in range(len(STRINGS) + 1):
        for strings in combinations(STRINGS, k):
            with mock.patch.object(trace_module, "parse_rows",
                                   wraps=trace_module.parse_rows) as row_reader, \
                    counting_opens() as opened:
                back = read_trace(path, strings)
            # a valid file, quoted or not, is opened once
            assert row_reader.called == quoted and opened(path) == 1
            s = back.stream
            for col in ("timestamp", "instance_ts", "response"):
                assert getattr(s, col).tolist() == getattr(f, col).tolist()
            assert back.partition.tolist() == full.partition.tolist()
            for name, col in columns.items():
                if name in strings:  # the same strings; the table holds only the column's
                    got = [s.tables[col][c] for c in getattr(s, col).tolist()]
                    assert got == [f.tables[col][c] for c in getattr(f, col).tolist()]
                    assert sorted(s.tables[col]) == sorted(set(got))
                else:
                    assert getattr(s, col) is None and col not in s.tables
            if "truth_instance" in strings:
                assert back.truth.tolist() == full.truth.tolist() and back.labels == full.labels
            else:
                assert back.truth is None and back.labels == []
            assert replay(back) is s


@pytest.mark.parametrize("chunk", [trace_module.READ_CHUNK, 2])
def test_quoted_fields_read_back(small_trace, tmp_path, chunk):
    # a comma in a user id makes the rows from the sixth on quoted; plain
    # splitting refuses the block that holds the first quote (with small
    # blocks, one in mid-file) and each later one, and the csv module reads them
    path = tmp_path / "t.csv"
    rows = write_partition_by_partition(small_trace, path)
    rows = rows[:5] + [[*r[:1], r[1] + ",x", *r[2:]] for r in rows[5:]]
    write_trace_rows(path, rows)
    with mock.patch.object(trace_module, "READ_CHUNK", chunk):
        back = read_trace(path)
    assert back.n_tuples == small_trace.n_tuples
    again = tmp_path / "again.csv"
    write_trace(back, again)
    with open(again, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == TRACE_HEADER
    assert sorted(got[1:]) == sorted(rows)


# data rows 6 and 10 hold a quoted line end and span two lines each; at READ_CHUNK 2 and 3
# row 6 starts on a block's last line and ends in the next block, with plain blocks around
LINE_END_ROWS = [(i, "a\r\nb" if i == 6 else f"u{i}", "s", "h", i // 3, 5 * i,
                  "c\nd" if i == 10 else f"i{i % 3}", i % 2) for i in range(1, 15)]


@pytest.mark.parametrize("chunk", [trace_module.READ_CHUNK, 2, 3])
@pytest.mark.parametrize("strings", [STRINGS, ("truth_instance",), ()],
                         ids=["all", "truth", "none"])
def test_quoted_line_ends_across_block_edges(tmp_path, chunk, strings):
    want = Trace.from_rows(LINE_END_ROWS)
    path = tmp_path / "t.csv"
    write_trace(want, path)
    with mock.patch.object(trace_module, "READ_CHUNK", chunk):
        back = read_trace(path, strings)
    s, w = back.stream, want.stream
    for col in ("timestamp", "instance_ts", "response"):
        assert getattr(s, col).tolist() == getattr(w, col).tolist()
    assert back.partition.tolist() == want.partition.tolist()
    for name, col in {"user_id": "user", "service_id": "service", "head_id": "head"}.items():
        got = getattr(s, col)
        assert (got is None) == (name not in strings)
        if got is not None:
            want_col = getattr(w, col).tolist()
            assert [s.tables[col][c] for c in got.tolist()] == [w.tables[col][c] for c in want_col]
    if "truth_instance" in strings:
        assert [back.labels[c] for c in back.truth.tolist()] == [r[6] for r in LINE_END_ROWS]
        if strings == STRINGS:  # writing what was read gives back the same bytes
            again = tmp_path / "again.csv"
            write_trace(back, again)
            assert again.read_bytes() == path.read_bytes()
    else:
        assert back.truth is None


@pytest.mark.parametrize("spell", ["quoted header", "quoted field", "carriage return in a field"])
def test_csv_spellings_read_back(tmp_path, spell):
    # text that plain comma splitting would misread goes through the csv module
    header = ",".join(TRACE_HEADER)
    text = {
        "quoted header": '"timestamp_ms"' + header[len("timestamp_ms"):] + "\n1,u,s,h,0,5,i,0\n",
        "quoted field": header + '\n1,"u",s,h,0,5,i,0\n',
        "carriage return in a field": header + '\n1,"u\r",s,h,0,5,i,0\n',
    }[spell]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    back = read_trace(path)
    user = "u\r" if spell.startswith("carriage") else "u"
    assert back.stream.tables["user"][back.stream.user[0]] == user
    assert back.stream.timestamp.tolist() == [1] and back.labels == ["i"]


def test_large_partition_number_reads_back(tmp_path):
    # partition numbers are labels, not sizes: reading one costs no memory
    path = write_trace_rows(tmp_path / "t.csv", [
        (1, "u", "s", "h", 0, 5, "i", 4_000_000_000),
        (2, "u", "s", "h", 0, 5, "j", 0),
        (2, "u", "s", "h", 0, 5, "i", 4_000_000_000),
    ])
    back = read_trace(path)
    assert back.partition.tolist() == [4_000_000_000, 0, 4_000_000_000]
    again = tmp_path / "again.csv"
    write_trace(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_wrong_header_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n")
    with pytest.raises(TraceParseError):
        read_trace(p)


def test_header_only_file_is_empty_trace(tmp_path):
    p = tmp_path / "empty.csv"
    header = "timestamp_ms,user_id,service_id,head_id,instance_ts_s,response_ms,truth_instance,partition"
    p.write_text(header + "\n")
    t = read_trace(p)
    assert t.n_tuples == 0


# ---------------------------------------------------------------------------
# the column file beside a gen-trace CSV
# ---------------------------------------------------------------------------

SUBSETS = [strings for k in range(len(STRINGS) + 1) for strings in combinations(STRINGS, k)]


def gen_trace(out, *argv, seed="1"):
    """A toy trace written by gen-trace into ``out``, with its column file."""
    assert cli.main(["gen-trace", "--seed", seed, "--instances", "300", "--services", "200",
                     *argv, "--out", str(out)]) == 0
    return out / "trace.csv"


def assert_same_trace(got, want):
    """Every array equal in dtype and values (or both None), the tables and ``labels`` equal."""
    arrays = [(t.stream.timestamp, t.stream.instance_ts, t.stream.response, t.stream.user,
               t.stream.service, t.stream.head, t.truth, t.partition) for t in (got, want)]
    for g, w in zip(*arrays):
        assert (g is None and w is None) or (g.dtype == w.dtype and np.array_equal(g, w))
    assert got.stream.tables == want.stream.tables and got.labels == want.labels


def csv_read(path, strings):
    """What ``read_trace`` gives from the CSV alone: the trace, or the error it raises."""
    columns = Path(f"{path}.columns")
    moved = columns.with_name("aside")
    if columns.exists():
        columns.rename(moved)
    try:
        return read_trace(path, strings)
    except TraceParseError as exc:
        return exc
    finally:
        if moved.exists():
            moved.rename(columns)


@pytest.mark.parametrize("argv", [[], ["--shared-atomics"], ["--partitions", "3"]],
                         ids=["default", "shared-atomics", "three-partitions"])
def test_column_file_reads_as_the_csv(tmp_path, argv):
    path = gen_trace(tmp_path, *argv)
    with mock.patch.object(trace_module, "csv_blocks") as parse:
        loaded = {strings: read_trace(path, strings) for strings in SUBSETS}
    assert not parse.called  # every read took the column file
    assert not loaded[STRINGS].stream.timestamp.flags.writeable  # a view into the one read
    Path(f"{path}.columns").unlink()  # deleting it is safe: the CSV gives the same trace
    for strings, got in loaded.items():
        assert_same_trace(got, read_trace(path, strings))


def test_gen_trace_writes_the_same_column_file(tmp_path):
    a, b = gen_trace(tmp_path / "a"), gen_trace(tmp_path / "b")
    assert Path(f"{a}.columns").read_bytes() == Path(f"{b}.columns").read_bytes()
    manifest = json.loads((tmp_path / "a" / "gen_trace_manifest.json").read_text())
    assert manifest["outputs"] == {"trace": str(a), "columns": f"{a}.columns"}


def test_coding_does_not_depend_on_read_chunk(tmp_path):
    path = gen_trace(tmp_path, "--instances", "60", "--services", "40")
    Path(f"{path}.columns").unlink()
    for strings in SUBSETS:
        whole = read_trace(path, strings)
        with mock.patch.object(trace_module, "READ_CHUNK", 2):
            assert_same_trace(read_trace(path, strings), whole)


def edit_csv(value):
    """Overwrite the first digit of data row 5's response with ``value``: same length."""
    def edit(path):
        lines = path.read_bytes().split(b"\r\n")
        fields = lines[5].split(b",")
        fields[5] = value + fields[5][1:]
        lines[5] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
    return edit


def edit_columns(change):
    def edit(path):
        columns = Path(f"{path}.columns")
        columns.write_bytes(change(columns.read_bytes()))
    return edit


def other_seed(path):
    shutil.copyfile(f"{gen_trace(path.parent / 'other', seed='2')}.columns", f"{path}.columns")


def unreadable(path):
    Path(f"{path}.columns").unlink()
    Path(f"{path}.columns").mkdir()


def respelled_shape(path):
    """Spell the timestamps' shape ``(n, )`` (one space of padding less), as ``np.load`` still
    reads it, take 1 from the first timestamp, so that the record differs from the CSV, and
    restore the record's digest: only a refused header gives the CSV's trace."""
    columns, spans = Path(f"{path}.columns"), record_spans(path)
    data, (start, end), digests = bytearray(columns.read_bytes()), spans[2], spans[1][1] - 32 * 17
    data[start:end] = re.sub(rb"'shape': \((\d+),\), \} ", rb"'shape': (\1, ), }", data[start:end])
    first = end - 8 * len(np.load(io.BytesIO(data[start:end])))  # where the data start
    data[first:first + 8] = (int.from_bytes(data[first:first + 8], "little", signed=True) - 1
                             ).to_bytes(8, "little", signed=True)
    data[digests + 32:digests + 64] = hashlib.sha256(data[start:end]).digest()
    columns.write_bytes(bytes(data))


# revouch's arrays here: int columns, offsets, codes, then tables, four each
REFUSED = {
    "csv-edit-valid": edit_csv(b"9"),
    # the last data row's partition, now 9: the CSV's digest, hashed beside the records, refuses
    "csv-edit-last-row": lambda path: path.write_bytes(path.read_bytes()[:-3] + b"9\r\n"),
    "csv-edit-malformed": edit_csv(b"x"),
    "truncated": edit_columns(lambda data: data[:len(data) // 2]),
    "flipped-payload-byte": edit_columns(lambda data: data[:-5] + bytes([data[-5] ^ 1]) + data[-4:]),
    "other-seed": other_seed,
    "unreadable": unreadable,
    "code-past-table": revouch(lambda a: a[8].__setitem__(0, len(a[4]) - 1)),
    "empty-offsets": revouch(lambda a: a.__setitem__(4, a[4][:0])),
    "column-too-short": revouch(lambda a: a.__setitem__(1, a[1][:-1])),
    "wrong-dtype": revouch(lambda a: a.__setitem__(2, a[2].astype(np.int32))),
    "negative-partition": revouch(lambda a: a[3].__setitem__(0, -1)),
    "respelled-header": respelled_shape,
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_column_file_that_does_not_check_out_is_ignored(tmp_path, case):
    path = gen_trace(tmp_path)
    REFUSED[case](path)
    for strings in (STRINGS, ("truth_instance",), ()):
        want = csv_read(path, strings)
        if isinstance(want, TraceParseError):
            with pytest.raises(TraceParseError) as got:
                read_trace(path, strings)
            assert str(got.value) == str(want)
        else:
            assert_same_trace(read_trace(path, strings), want)


def record_spans(path):
    """(start, end) of each ``.npy`` record of ``path``'s column file, the tag and the digests
    first, found by ``np.load`` reading the records one after the other."""
    spans, size = [], Path(f"{path}.columns").stat().st_size
    with open(f"{path}.columns", "rb") as fh:
        while (start := fh.tell()) < size:
            np.load(fh)
            spans.append((start, fh.tell()))
    return spans


def counting_sha256(seen):
    """A stand-in for ``hashlib.sha256`` that appends to ``seen`` the size of each buffer."""
    real = hashlib.sha256

    class Sha:
        def __init__(self, data=b""):
            self.sha = real()
            self.update(data)

        def update(self, data):
            seen.append(memoryview(data).nbytes)
            self.sha.update(data)

        def digest(self):
            return self.sha.digest()
    return Sha


def test_column_file_read_hashes_the_csv_and_the_records_it_returns(tmp_path):
    # every CLI projection (and every other one): the CSV, the four int columns, and the
    # offsets, codes and bytes of each string column read, nothing else
    path = gen_trace(tmp_path)
    sizes = [end - start for start, end in record_spans(path)[2:]]
    for strings in SUBSETS:
        seen = []
        with mock.patch.object(hashlib, "sha256", counting_sha256(seen)), \
                mock.patch.object(trace_module, "csv_blocks") as parse:
            back = read_trace(path, strings)
        assert not parse.called
        read = [0, 1, 2, 3, *(4 * k + STRINGS.index(h) for h in strings for k in (1, 2, 3))]
        assert sum(seen) == path.stat().st_size + sum(sizes[i] for i in read)
        assert sorted(back.stream.tables) == sorted(h[:-3] for h in strings if h[-3:] == "_id")


def flip_last_byte(path, record):
    """Flip a bit of the last byte of payload record ``record`` (0 is the first int column),
    leaving the digests as they were."""
    columns = Path(f"{path}.columns")
    data, (_, end) = bytearray(columns.read_bytes()), record_spans(path)[2 + record]
    data[end - 1] ^= 1
    columns.write_bytes(bytes(data))


def test_flipped_byte_counts_only_in_a_record_the_read_asks_for(tmp_path):
    path = gen_trace(tmp_path)
    keys = ("head_id", "user_id")  # run-pipeline's head_ts_ip projection
    want = csv_read(path, keys)
    flip_last_byte(path, 13)  # the service table's bytes: not asked for
    with mock.patch.object(trace_module, "csv_blocks") as parse:
        assert_same_trace(read_trace(path, keys), want)
    assert not parse.called
    flip_last_byte(path, 10)  # the head codes: asked for, so the CSV is parsed
    with mock.patch.object(trace_module, "csv_blocks", wraps=trace_module.csv_blocks) as parse:
        assert_same_trace(read_trace(path, keys), want)
    assert parse.called


def test_version_1_column_file_is_ignored(tmp_path):
    # the older layout: one digest of all the records after the CSV's, under its own tag
    path = gen_trace(tmp_path)
    columns = Path(f"{path}.columns")
    payload, head = columns.read_bytes()[record_spans(path)[2][0]:], io.BytesIO()
    np.save(head, np.frombuffer(b"swakit.columns.1", np.uint8))
    digests = hashlib.sha256(path.read_bytes()).digest() + hashlib.sha256(payload).digest()
    np.save(head, np.frombuffer(digests, np.uint8))
    columns.write_bytes(head.getvalue() + payload)
    with mock.patch.object(trace_module, "csv_blocks", wraps=trace_module.csv_blocks) as parse:
        got = read_trace(path)
    assert parse.called
    assert_same_trace(got, csv_read(path, STRINGS))


@pytest.mark.parametrize("change", [lambda a: a[12].__setitem__(0, 0xFF),
                                    lambda a: a[4].__setitem__(1, 1)],
                         ids=["table-not-utf8", "offset-inside-a-character"])
def test_string_table_that_is_not_utf8_sends_the_read_to_the_csv(tmp_path, change):
    # the user table holds "ü" (two bytes), then "a": its offsets are 0, 2, 3
    trace, path = Trace.from_rows([(0, "ü", "s", "h", 0, 1, "i", 0),
                                   (1, "a", "s", "h", 0, 1, "i", 0)]), tmp_path / "t.csv"
    write_columns(trace, path, write_trace(trace, path))
    for edit, refused in ((lambda path: None, False), (revouch(change), True)):
        edit(path)
        with mock.patch.object(trace_module, "csv_blocks", wraps=trace_module.csv_blocks) as parse:
            back = read_trace(path, ("user_id",))
        assert parse.called == refused
        assert [back.stream.tables["user"][c] for c in back.stream.user.tolist()] == ["ü", "a"]


# ---------------------------------------------------------------------------
# the writers against the csv module
# ---------------------------------------------------------------------------

# text the csv module quotes, an empty string and non-ASCII text
ODD = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", "naïve → ü", 'all,"\r\n', "plain"]


def csv_module_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue().encode("utf-8")


def test_trace_writer_matches_csv_module(tmp_path):
    # increasing timestamps: seq order is row order
    rows = [(i, ODD[i % 8], ODD[(i + 1) % 8], ODD[(i + 2) % 8], i // 3, 5 * i, ODD[(i + 3) % 8],
             i % 3) for i in range(16)]
    path, trace = tmp_path / "t.csv", Trace.from_rows(rows)
    sha = write_trace(trace, path)
    assert path.read_bytes() == csv_module_bytes(TRACE_HEADER, rows)
    for chunk in (trace_module.READ_CHUNK, 2):  # one block, then blocks of two lines
        with mock.patch.object(trace_module, "READ_CHUNK", chunk):
            back = read_trace(path)
        s, names = back.stream, back.stream.tables
        got = zip(s.timestamp.tolist(), (names["user"][c] for c in s.user.tolist()),
                  (names["service"][c] for c in s.service.tolist()),
                  (names["head"][c] for c in s.head.tolist()),
                  s.instance_ts.tolist(), s.response.tolist(),
                  (back.labels[c] for c in back.truth.tolist()), back.partition.tolist())
        assert list(got) == rows
    write_columns(trace, path, sha)  # quoted and non-ASCII strings load as they parse
    for strings in SUBSETS:
        with mock.patch.object(trace_module, "csv_blocks") as parse:
            got = read_trace(path, strings)
        assert not parse.called
        assert_same_trace(got, csv_read(path, strings))


@pytest.mark.parametrize("rows", [[], [(i, "", "", "", 0, 1, "", 0) for i in range(3)]],
                         ids=["no-rows", "empty-strings"])
def test_column_file_of_empty_tables(tmp_path, rows):
    """String columns whose strings take no bytes, or that hold no string, write and load."""
    path, trace = tmp_path / "t.csv", Trace.from_rows(rows)
    write_columns(trace, path, write_trace(trace, path))
    assert path.read_bytes() == csv_module_bytes(TRACE_HEADER, rows)
    with mock.patch.object(trace_module, "csv_blocks") as parse:
        got = read_trace(path)
    assert not parse.called
    assert_same_trace(got, csv_read(path, STRINGS))


def test_emission_writer_matches_csv_module(tmp_path):
    count = [1, 2, 1, 3, 1, 1, 2, 1]
    key, reason = [7, 0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 0, 1, 2, 0, 1]
    closed_at, span = [10 * i for i in range(8)], [i * i for i in range(8)]
    avg = [0.5, 2.25, -1.0, 1e6, 0.0, 3.125, 1 / 3, 7.0]
    seqs = list(range(sum(count)))[::-1]
    path, members = tmp_path / "e.csv", tmp_path / "e_members.csv"
    write_emissions(Emissions(lambda: ODD, np.array(key), np.array(count), np.array(reason),
                              np.array(closed_at), np.array(avg), np.array(span),
                              np.array(seqs)), path, members)
    rows = [(ODD[k], c, REASONS[r], t, f"{a:.6f}", sp)
            for k, c, r, t, a, sp in zip(key, count, reason, closed_at, avg, span)]
    owners = [i for i, c in enumerate(count) for _ in range(c)]
    assert path.read_bytes() == csv_module_bytes(EMITTED_HEADER, rows)
    assert members.read_bytes() == csv_module_bytes(MEMBERS_HEADER, list(zip(owners, seqs)))
    for chunk in (trace_module.READ_CHUNK, 2):  # one block, then blocks of two lines
        with mock.patch.object(trace_module, "READ_CHUNK", chunk):
            back = read_emissions(path, members)
        assert [back.keys[k] for k in back.key.tolist()] == [ODD[k] for k in key]
        assert [REASONS[r] for r in back.reason.tolist()] == [REASONS[r] for r in reason]
        assert back.count.tolist() == count and back.closed_at.tolist() == closed_at
        assert back.span_ms.tolist() == span and back.seqs.tolist() == seqs
        assert back.response_avg.tolist() == pytest.approx(avg, abs=1e-6)


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
# both int64 ends, 0, and where the digit count changes: +-10^k and +-(10^k - 1)
EDGES = [INT64_MIN, INT64_MAX, 0,
         *(sign * (10 ** k - d) for k in range(1, 19) for d in (0, 1) for sign in (1, -1))]
INT64 = hs.one_of(hs.sampled_from(EDGES), hs.integers(INT64_MIN, INT64_MAX))


@given(hs.lists(hs.tuples(INT64.filter(lambda v: v >= 0), INT64.filter(lambda v: v >= 0),
                          hs.integers(0, len(ODD) - 1)), max_size=40),
       hs.sampled_from([trace_module.READ_CHUNK, 1, 3]))
def test_spelled_tables_match_percent_formatting(rows, chunk):
    """Two groups of rows spelled from constants, int columns of mixed widths and codes into
    ``ODD``, one to three rows per block, against one ``%`` per string."""
    a, b, c = (np.array(col, np.int64) for col in zip(*rows)) if rows else [np.zeros(0, int)] * 3
    with mock.patch.object(trace_module, "READ_CHUNK", chunk):
        got = trace_module._spell([b"svc", a, b".", b],
                                  [(trace_module.Strings.of(ODD), c), b"|", a])
    assert list(got) == [*("svc%d.%d" % (x, y) for x, y, _ in rows),
                         *("%s|%d" % (ODD[k], x) for x, _, k in rows)]


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@given(hs.lists(hs.booleans(), min_size=2, max_size=4).flatmap(lambda kinds: hs.tuples(
           hs.just(kinds),
           hs.lists(hs.tuples(*[hs.integers(0, len(ODD) - 1) if s else INT64 for s in kinds]),
                    max_size=8))),
       hs.sampled_from([trace_module.READ_CHUNK, 1, 2, 3]))
@example(([False, True], [(v, i % len(ODD)) for i, v in enumerate(EDGES)]), 3)
@example(([True, False], []), trace_module.READ_CHUNK)
def test_block_writer_matches_csv_module(writer_dir, drawn, chunk):
    """Int columns and codes into ``ODD`` against ``csv.writer``'s bytes and their SHA-256; at
    one, two or three rows per block, block edges fall inside the drawn rows."""
    kinds, rows = drawn
    values = [np.array([row[i] for row in rows], np.int64) for i in range(len(kinds))]
    columns = [(trace_module.Strings.of(ODD), v) if s else v for s, v in zip(kinds, values)]
    header = [f"c{i}" for i in range(len(kinds))]
    path = writer_dir / "block.csv"
    with mock.patch.object(trace_module, "READ_CHUNK", chunk):
        sha = trace_module.write_csv(path, header, columns)
    want = csv_module_bytes(header, [[ODD[v] if s else v for s, v in zip(kinds, row)]
                                     for row in rows])
    assert path.read_bytes() == want
    assert sha == hashlib.sha256(want).digest()


def test_block_writer_writes_a_header_alone(writer_dir):
    path = writer_dir / "header.csv"
    assert trace_module.write_csv(path, ["a", "b"], []) == hashlib.sha256(b"a,b\r\n").digest()
    assert path.read_bytes() == b"a,b\r\n"


def test_block_writer_bounds_its_blocks_by_row_width(writer_dir):
    """A wide string cuts the rows per block to keep each block near ``READ_CHUNK << 7`` bytes:
    at READ_CHUNK 256 that is one 20,000-byte row, where 256 rows would take about 50 MB."""
    table, rows = ["w" * 20_000, "x"], [(0, i) for i in range(300)]
    columns = [(trace_module.Strings.of(table), np.zeros(300, np.int64)), np.arange(300)]
    path = writer_dir / "wide.csv"
    with mock.patch.object(trace_module, "READ_CHUNK", 256):
        tracemalloc.start()
        try:
            trace_module.write_csv(path, ["s", "i"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.read_bytes() == csv_module_bytes(["s", "i"], [(table[c], i) for c, i in rows])
    assert peak < 1 << 20


def wrapped(v):
    """``v`` wrapped into int64, as its two's complement low 64 bits read."""
    return (v + (1 << 63)) % (1 << 64) - (1 << 63)


# offsets from a base near either int64 end; 2^63 lands a row at the other end
OFFSET = hs.one_of(hs.integers(0, 40), hs.just(1 << 63))


@given(hs.sampled_from([INT64_MIN, -20, INT64_MAX - 40]), hs.sampled_from([INT64_MIN, 0, INT64_MAX - 3]),
       hs.lists(hs.tuples(OFFSET, OFFSET), max_size=30), hs.sampled_from([63, 0]))
def test_merge_order_is_np_lexsort(ts0, part0, offsets, bits):
    """``_merged`` orders rows as a stable ``np.lexsort`` on (timestamp, partition): packed, or
    by the fallback when the spans (here, a row at the other int64 end) or ``bits`` allow no
    packing."""
    ts = np.array([wrapped(ts0 + a) for a, _ in offsets], np.int64)
    part = np.array([wrapped(part0 + b) for _, b in offsets], np.int64)
    cols = [ts, None, None, None, None, None, np.arange(len(ts)), part]
    with mock.patch.object(trace_module, "_PACKED_BITS", bits):
        merged = trace_module._merged(cols, {})
    order = np.lexsort((part, ts))
    assert merged.truth.tolist() == order.tolist()  # the label column numbers the input rows
    assert merged.stream.timestamp.tolist() == ts[order].tolist()
    assert merged.partition.tolist() == part[order].tolist()


# ---------------------------------------------------------------------------
# replay and stream views
# ---------------------------------------------------------------------------


def test_replay_preserves_count_and_order(small_trace):
    stream = replay(small_trace)
    assert stream is small_trace.stream
    assert len(stream) == small_trace.n_tuples
    assert (np.diff(stream.timestamp) >= 0).all()


def test_replay_rejects_unsorted():
    rows = [(5, "u", "s", "h", 0, 1, "i", 0), (6, "u", "s", "h", 0, 1, "i", 0)]
    # a hand-edited stream that goes back in time
    bad = Trace.from_rows(rows)
    bad.stream.timestamp[:] = [5, 2]
    with pytest.raises(ConfigError, match="seq 1"):
        replay(bad)
    # a column that lost a row
    short = Trace.from_rows(rows)
    short.partition = short.partition[:1]
    with pytest.raises(ConfigError):
        replay(short)


def test_replay_takes_a_stream_spanning_the_int64_range():
    # the gap between the two timestamps is 2**64 - 1 ms, beyond int64
    rows = [(-2**63, "u", "s", "h", 0, 1, "i", 0), (2**63 - 1, "u", "s", "h", 0, 1, "i", 0)]
    trace = Trace.from_rows(rows)
    assert replay(trace) is trace.stream


def test_stream_view_hides_ground_truth(small_trace):
    s = replay(small_trace)
    assert not hasattr(s, "truth") and not hasattr(s, "labels")
    assert not hasattr(s, "partition")
    assert hasattr(s, "timestamp")


def test_global_seq_order_is_merge_order(small_trace, tmp_path):
    path = tmp_path / "t.csv"
    rows = write_partition_by_partition(small_trace, path)
    # independent re-derivation of the global order: (timestamp, partition,
    # index within the partition)
    expect = []
    for pi in sorted({int(r[7]) for r in rows}):
        for idx, r in enumerate(r for r in rows if int(r[7]) == pi):
            expect.append((int(r[0]), pi, idx, r[6]))
    expect.sort(key=lambda r: (r[0], r[1], r[2]))
    # the trace has timestamp ties across partitions, so the tie rule is tested
    assert any(a[0] == b[0] and a[1] != b[1] for a, b in zip(expect, expect[1:]))
    back = read_trace(path)
    labels = [back.labels[c] for c in back.truth.tolist()]
    assert labels == [row[3] for row in expect]
    assert back.partition.tolist() == [row[1] for row in expect]
    assert labels == [small_trace.labels[c] for c in small_trace.truth.tolist()]


def test_truth_table_spans(small_trace):
    t = small_trace.truth_table
    arrivals = {}
    for ts, code in zip(small_trace.stream.timestamp.tolist(), small_trace.truth.tolist()):
        label = small_trace.labels[code]
        lo, hi = arrivals.get(label, (ts, ts))
        arrivals[label] = (min(lo, ts), max(hi, ts))
    assert set(arrivals) == set(t.labels)
    for label, primary, last in zip(t.labels, t.primary.tolist(), t.last.tolist()):
        lo, hi = arrivals[label]
        assert primary == lo
        assert last == hi


def test_default_distributions_are_consistent():
    assert default_degree_dist().mean() == pytest.approx(11.3684, abs=1e-3)
    assert default_span_dist().mean() == pytest.approx(11.2530, abs=1e-3)
    arrival = default_arrival_dist()
    assert arrival.is_valid_generator()
    assert arrival.mean() == pytest.approx(9.778, rel=1e-6)


# ---------------------------------------------------------------------------
# the helper thread
# ---------------------------------------------------------------------------


def test_two_threads_keep_item_order():
    # item 0 waits until item 1 has started, so each thread runs at least one item
    started, ran = threading.Event(), {}

    def double(x):
        if x == 0:
            assert started.wait(10)
        elif x == 1:
            started.set()
        ran[x] = threading.get_ident()
        return 2 * x
    assert on_two_threads(double, range(9)) == [2 * x for x in range(9)]
    assert ran[0] != ran[1] and set(ran) == set(range(9))


def test_two_threads_raise_the_failure_of_the_lowest_index():
    # item 1 fails at once, item 0 only after that, on the other thread
    failed = threading.Event()

    def fail(x):
        if x == 1:
            failed.set()
            raise KeyError("item 1")
        assert failed.wait(10)
        raise ValueError("item 0")
    with pytest.raises(ValueError, match="item 0"):
        on_two_threads(fail, [0, 1])


def test_two_threads_start_no_item_after_a_failure():
    started, failed = [], threading.Event()

    def fail(x):
        started.append(x)
        if x == 1:
            failed.set()
            raise ValueError("item 1")
        if x == 0:  # the failure is seen by the time item 0 ends
            assert failed.wait(10)
            time.sleep(0.2)
    with pytest.raises(ValueError, match="item 1"):
        on_two_threads(fail, range(8))
    assert sorted(started) == [0, 1]


@pytest.mark.parametrize("fail", [False, True])
def test_two_threads_leave_no_thread_running(fail):
    before = threading.active_count()

    def work(x):
        if fail and x == 2:
            raise ValueError("item 2")
        # a call made inside another gets no second helper: at most one runs beside the caller
        inner = on_two_threads(lambda y: threading.active_count(), range(3))
        assert max(inner) <= before + 1
        return x
    if fail:
        with pytest.raises(ValueError):
            on_two_threads(work, range(4))
    else:
        assert on_two_threads(work, range(4)) == list(range(4))
    assert threading.active_count() == before


def test_two_threads_under_callers_on_more_threads_than_cores():
    # four callers at once, the interpreter switching threads every microsecond: one gets the
    # helper, the others run alone, and every item runs once, its result in its place
    calls, lock, got = [], threading.Lock(), {}

    def square(x):
        with lock:
            calls.append(x)
        return x * x

    def caller(k):
        got[k] = on_two_threads(square, range(k * 1000, (k + 1) * 1000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert sorted(calls) == list(range(4000))
    assert got == {k: [x * x for x in range(k * 1000, (k + 1) * 1000)] for k in range(4)}
