"""Shared fixtures: synthetic traces at several scales, reused across files.

Session scope keeps the expensive full-scale generation and pipeline runs to
one execution each.
"""

import csv
import hashlib
import io
import threading
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from swakit import trace as trace_module
from swakit.engine import REASONS, PipelineConfig, Strategy, run_pipeline
from swakit.trace import (
    TRACE_HEADER,
    TraceConfig,
    build_catalog,
    default_arrival_dist,
    default_degree_dist,
    default_span_dist,
    generate_trace,
    write_trace,
)

# property tests draw the same examples on every run and store none
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None,
                          max_examples=300)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running: every helper thread is joined before its call
    returns."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


Emission = namedtuple("Emission", "key count close_reason closed_at response_avg span_ms member_seqs")


def emission_rows(ems):
    """One ``Emission`` per row of an ``Emissions`` column set, in emission order.

    ``key`` is the display string, ``close_reason`` the reason's name and
    ``member_seqs`` a tuple (None when the members were not kept).
    """
    members = ([tuple(m.tolist()) for m in np.split(ems.seqs, np.cumsum(ems.count)[:-1])]
               if ems.seqs is not None else [None] * len(ems))
    return [Emission(ems.keys[k], *row, m) for k, *row, m in zip(
        ems.key.tolist(), ems.count.tolist(), [REASONS[r] for r in ems.reason.tolist()],
        ems.closed_at.tolist(), ems.response_avg.tolist(), ems.span_ms.tolist(), members)]


def write_trace_rows(path, rows):
    """Write a trace CSV by hand: ``rows`` in ``TRACE_HEADER`` layout, file order.

    A lone surrogate U+DC80..U+DCFF in a field is written as the byte 0x80..0xFF it stands
    for, so a row can hold text that is not UTF-8.
    """
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        csv.writer(fh).writerows([TRACE_HEADER, *rows])
    return path


def write_partition_by_partition(trace, path):
    """Write ``trace`` with its partitions listed one after the other, highest first.

    Each partition stays sorted, but the interleaving is not the merged
    order.  Returns the data rows as written (all fields strings).
    """
    write_trace(trace, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    rows.sort(key=lambda r: -int(r[7]))  # stable: each partition keeps its order
    write_trace_rows(path, rows)
    return rows


def revouch(change):
    """Apply ``change`` to the list of a column file's payload arrays and restore the digests
    (the CSV's, then one per record): a file that vouches for its CSV but holds arrays that do
    not check out."""
    def edit(path):
        columns = Path(f"{path}.columns")
        (tag, *_), (digests, *_), *records = trace_module._records(columns.read_bytes())
        arrays = [array.copy() for array, *_ in records]
        change(arrays)
        payload, head, sha = [], io.BytesIO(), digests.tobytes()[:32]
        for array in arrays:
            np.save(record := io.BytesIO(), array)
            payload.append(record.getvalue())
            sha += hashlib.sha256(payload[-1]).digest()
        for array in (tag, np.frombuffer(sha, np.uint8)):
            np.save(head, array)
        columns.write_bytes(head.getvalue() + b"".join(payload))
    return edit


def make_trace(services, instances, *, seed, repeat=1.0, user_pool=5000,
               shared_atomics=False, partitions=2):
    """Build a catalog + trace from one master seed, like the CLI does."""
    cat_seed, trace_seed = np.random.SeedSequence(seed).spawn(2)
    catalog = build_catalog(
        services,
        default_degree_dist(),
        seed=cat_seed,
        n_partitions=partitions,
        shared_atomics=shared_atomics,
    )
    cfg = TraceConfig(
        instance_count=instances,
        arrival_dist=default_arrival_dist(),
        span_dist=default_span_dist(),
        user_pool=user_pool,
        repeat_factor=repeat,
        seed=trace_seed,
    )
    return generate_trace(catalog, cfg)


@pytest.fixture(scope="session")
def full_scale_trace():
    """The reference workload: 13997 instances over 10000 distinct services."""
    return make_trace(10000, 13997, seed=0, repeat=1.3997)


@pytest.fixture(scope="session")
def small_trace():
    return make_trace(200, 300, seed=3, repeat=1.5)


@pytest.fixture(scope="session")
def collision_trace():
    """Shared sub-service pool + repeated services + few users: ambiguous keys."""
    return make_trace(400, 3000, seed=2, repeat=2.0, user_pool=120,
                      shared_atomics=True)


@pytest.fixture(scope="session")
def clean_trace():
    """Every instance uses a distinct service: association keys never collide."""
    return make_trace(2500, 2500, seed=5, repeat=1.0, user_pool=5000)


@pytest.fixture(scope="session")
def swa_full_run(full_scale_trace):
    cfg = PipelineConfig(kind="swa", capacity=13, timeout_s=22,
                         strategy=Strategy.HEAD_TS_IP)
    return run_pipeline(full_scale_trace, cfg)


@pytest.fixture(scope="session")
def swa_small_run(small_trace):
    cfg = PipelineConfig(kind="swa", capacity=13, timeout_s=22,
                         strategy=Strategy.HEAD_TS_IP)
    return run_pipeline(small_trace, cfg)
