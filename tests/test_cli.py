"""End-to-end command-line behavior: artifacts, stdout, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from swakit import cli, engine
from swakit.distributions import MAX_PHASES
from swakit.engine import (
    REASONS,
    Emissions,
    PipelineConfig,
    Strategy,
    key_ids,
    read_emissions,
    run_pipeline,
    write_emissions,
)
from swakit.errors import ConfigError
from swakit.metrics import evaluate
from swakit.trace import Trace, first_seen_codes, read_trace, write_trace

from conftest import revouch, write_partition_by_partition


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture(scope="module")
def tiny_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    code = cli.main([
        "gen-trace", "--out", str(out), "--seed", "9",
        "--instances", "80", "--services", "60", "--user-pool", "200",
        "--repeat-factor", "1.3",
    ])
    assert code == 0
    return out / "trace.csv"


@pytest.fixture(scope="module")
def fit_values(tmp_path_factory):
    """20,000 seeded samples from two gamma laws, one per line, for a two-branch fit."""
    rng = np.random.default_rng(1)
    near = rng.random(20_000) < 0.7
    xs = np.where(near, rng.gamma(2.0, 1.0, 20_000), rng.gamma(6.0, 5.0, 20_000))
    path = tmp_path_factory.mktemp("values") / "values.txt"
    path.write_text("".join(f"{v!r}\n" for v in xs.tolist()))
    return path


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("swakit ")


def test_estimate_params_defaults(capsys, tmp_path):
    code, out, _ = run(capsys, "estimate-params", "--out", str(tmp_path))
    assert code == 0
    assert out.strip() == '{"capacity": 13, "timeout_s": 22}'
    on_disk = json.loads((tmp_path / "params.json").read_text())
    assert on_disk == {"capacity": 13, "timeout_s": 22}
    manifest = json.loads((tmp_path / "estimate_params_manifest.json").read_text())
    assert manifest["command"] == "estimate-params"
    assert manifest["config"]["alpha"] == 0.90
    assert manifest["outputs"]["params"].endswith("params.json")


def test_gen_trace_artifacts(tiny_trace):
    trace = read_trace(tiny_trace)
    assert len(trace.truth_table.labels) == 80
    manifest = json.loads(
        (tiny_trace.parent / "gen_trace_manifest.json").read_text())
    for key in ("tool", "tool_version", "command", "config", "seed", "outputs",
                "wall_time_s"):
        assert key in manifest
    assert manifest["seed"] == 9
    assert manifest["config"]["instances"] == 80


def test_gen_trace_accepts_dist_override(capsys, tmp_path):
    dist_file = tmp_path / "deg.json"
    dist_file.write_text(json.dumps({"type": "point", "value": 3}))
    code, _, _ = run(
        capsys, "gen-trace", "--out", str(tmp_path), "--seed", "1",
        "--instances", "20", "--services", "20", "--degree-dist", str(dist_file),
    )
    assert code == 0
    trace = read_trace(tmp_path / "trace.csv")
    assert (trace.truth_table.degree == 3).all()


def test_pipeline_then_evaluate_round_trip(capsys, tiny_trace, tmp_path):
    code, out, _ = run(
        capsys, "run-pipeline", "--trace", str(tiny_trace), "--out", str(tmp_path))
    assert code == 0
    assert "emissions" in out
    assert (tmp_path / "emitted.csv").exists()
    assert (tmp_path / "emitted_members.csv").exists()
    stats = json.loads((tmp_path / "operator_stats.json").read_text())
    assert set(stats) == {"aggregate", "config"}
    outputs = json.loads((tmp_path / "run_pipeline_manifest.json").read_text())["outputs"]
    assert outputs["emitted_columns"] == f"{tmp_path / 'emitted.csv'}.columns"
    assert outputs["members_columns"] == f"{tmp_path / 'emitted_members.csv'}.columns"
    assert stats["aggregate"]["tuples_in"] == stats["aggregate"]["tuples_out"]
    assert stats["config"]["aggregate"]["kind"] == "swa"

    code, out, _ = run(
        capsys, "evaluate", "--emitted", str(tmp_path / "emitted.csv"),
        "--trace", str(tiny_trace), "--out", str(tmp_path),
        "--gamma", "1,0.75",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc["completeness"]) == {"gamma_1", "gamma_0.75"}
    assert doc["instances"] == 80
    assert 0.0 <= doc["completeness"]["gamma_1"]["ratio"] <= 1.0
    assert doc == json.loads((tmp_path / "evaluation.json").read_text())


def test_pipeline_no_members_blocks_evaluate(capsys, tiny_trace, tmp_path):
    code, _, _ = run(
        capsys, "run-pipeline", "--trace", str(tiny_trace), "--out", str(tmp_path),
        "--no-members")
    assert code == 0
    assert not (tmp_path / "emitted_members.csv").exists()
    code, _, err = run(
        capsys, "evaluate", "--emitted", str(tmp_path / "emitted.csv"),
        "--trace", str(tiny_trace), "--out", str(tmp_path))
    assert code == 2
    assert "sidecar" in err


@pytest.mark.parametrize("name,line,value,expect", [
    ("emitted.csv", 3, "x", "row 2"),  # the count column
    pytest.param("emitted.csv", 3, "\udce9", "row 2", id="emitted.csv-not-utf8"),  # byte 0xe9
    ("emitted_members.csv", 5, "y", "row 4"),  # a member seq
    ("emitted.csv", 3, "2.5", "row 2"),  # a count that is not an integer
    ("emitted_members.csv", 5, "2.5", "row 4"),  # and a member seq
    ("emitted_members.csv", 1, "sequence", "header"),
    ("emitted_members.csv", 5, "99999,0", "row 4"),  # an emission index past the last row
    ("emitted_members.csv", 5, "-1,0", "row 4"),  # and one before the first
    ("emitted.csv", 3, "99", "row 2"),  # a count its member rows do not add up to
])
def test_corrupt_emissions_exit_two(capsys, tiny_trace, tmp_path, name, line, value, expect):
    # the error names the file and the 1-based data row (header excluded)
    code, _, _ = run(
        capsys, "run-pipeline", "--trace", str(tiny_trace), "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / name
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[1] = value
    # a value with a comma in it replaces the whole line
    lines[line - 1] = value if "," in value else ",".join(fields)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    code, _, err = run(
        capsys, "evaluate", "--emitted", str(tmp_path / "emitted.csv"),
        "--trace", str(tiny_trace), "--out", str(tmp_path))
    assert code == 2
    assert name in err and expect in err


def test_evaluate_names_the_emissions_before_the_trace(capsys, tiny_trace, tmp_path):
    # both are read at once, from their CSVs: a bad trace row alone is reported, and with a bad
    # emitted.csv row as well, the emissions' row is
    assert run(capsys, "run-pipeline", "--trace", str(tiny_trace), "--out", str(tmp_path))[0] == 0
    emitted, trace = tmp_path / "emitted.csv", tmp_path / "trace.csv"
    for path, source, field in ((trace, tiny_trace, 0), (emitted, emitted, 1)):  # int fields
        lines = source.read_text().splitlines()
        fields = lines[3].split(",")
        fields[field] = "x" + fields[field]  # in data row 3
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        Path(f"{path}.columns").unlink(missing_ok=True)
        code, _, err = run(capsys, "evaluate", "--emitted", str(emitted), "--trace", str(trace),
                           "--out", str(tmp_path))
        assert code == 2
        assert f"{path}: row 3: invalid literal" in err


@pytest.mark.parametrize("command", ["run-pipeline", "evaluate", "compare", "fit-dist"])
def test_non_utf8_trace_exits_two(capsys, tiny_trace, tmp_path, command):
    # one 0xe9 byte in the user id of data row 7
    lines = tiny_trace.read_bytes().split(b"\r\n")
    fields = lines[7].split(b",")
    fields[1] += b"\xe9"
    lines[7] = b",".join(fields)
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"\r\n".join(lines))
    code, _, _ = run(capsys, "run-pipeline", "--trace", str(tiny_trace), "--out", str(tmp_path))
    assert code == 0
    extra = ["--emitted", str(tmp_path / "emitted.csv")] if command == "evaluate" else []
    code, _, err = run(capsys, command, "--trace", str(trace), *extra, "--out", str(tmp_path))
    assert code == 2
    assert f"{trace}: row 7: not UTF-8 text" in err


@pytest.mark.parametrize("strategy", ["head", "head_ts", "head_ip", "head_ts_ip"])
def test_projected_reads_keep_artifacts(capsys, tmp_path, monkeypatch, strategy):
    # each command codes only the trace columns it reads, each into a table of its own, so a
    # column's codes are those of a full read; the emissions and the scores must not differ
    trace = tmp_path / "trace.csv"
    assert run(capsys, "gen-trace", "--seed", "4", "--instances", "300", "--services", "150",
               "--partitions", "3", "--shared-atomics", "--user-pool", "60",
               "--repeat-factor", "1.5", "--out", str(tmp_path))[0] == 0
    # listed partition by partition, so that the CSV is parsed
    write_partition_by_partition(read_trace(trace), trace)
    key = Strategy(strategy)
    full_ids = key_ids(read_trace(trace).stream, key)[0]
    assert (key_ids(read_trace(trace, cli._key_strings(key)).stream, key)[0] == full_ids).all()
    sliding = tmp_path / "sliding.json"
    sliding.write_text(json.dumps({"aggregate": {"kind": "sliding", "window": 200}}))

    def artifacts(out):
        for kind, config in (("swa", []), ("sliding", ["--config", str(sliding)])):
            for argv in (["run-pipeline", *config, "--strategy", strategy],
                         ["evaluate", "--emitted", str(out / kind / "emitted.csv")]):
                assert run(capsys, *argv, "--trace", str(trace), "--out", str(out / kind))[0] == 0
        assert run(capsys, "compare", "--trace", str(trace), "--strategy", strategy,
                   "--sliding", "100,400", "--out", str(out))[0] == 0
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and not p.name.endswith("_manifest.json")}

    projected = artifacts(tmp_path / "projected")
    assert len(projected) == 2 * 6 + 1  # both emission CSVs with their column files
    full_read = cli.read_trace
    monkeypatch.setattr(cli, "read_trace", lambda path, strings: full_read(path))
    assert artifacts(tmp_path / "full") == projected


@pytest.mark.parametrize("field", ["degree", "span_s", "gap_ms"])
def test_trace_samples_in_partition_scan_order(tiny_trace, field):
    # the EM's sums depend on sample order: instances come as a partition-by-partition scan
    # of the seqs meets them, with the degree and the span of all their tuples
    trace = read_trace(tiny_trace)
    ts = trace.stream.timestamp.tolist()
    order, lo, hi, count = [], {}, {}, {}
    for i in sorted(range(trace.n_tuples), key=lambda i: (int(trace.partition[i]), i)):
        label = trace.labels[trace.truth[i]]
        if label not in lo:
            order.append(label)
        lo[label], hi[label] = min(lo.get(label, ts[i]), ts[i]), max(hi.get(label, ts[i]), ts[i])
        count[label] = count.get(label, 0) + 1
    spans = [(hi[label] - lo[label]) / 1000.0 for label in order]
    gaps = np.diff(sorted(float(lo[label]) for label in order)).tolist()
    want = {"degree": [float(count[label]) for label in order],
            "span_s": [s for s in spans if s > 0], "gap_ms": [g for g in gaps if g > 0]}[field]
    args = argparse.Namespace(values=None, trace=str(tiny_trace), field=field)
    assert cli._samples_from_args(args).tolist() == want


def _scan_samples_by_argsort(path, field):
    """Span or degree samples in the order a stable argsort of the partitions, then a
    first-seen pass, meets the instances."""
    trace = read_trace(path)
    t = trace.truth_table
    scan = t.code[np.argsort(trace.partition, kind="stable")]
    met = scan[first_seen_codes(scan, len(t.labels))[0]]
    vals = t.degree[met].astype(float) if field == "degree" else (t.last - t.primary)[met] / 1000.0
    return vals[vals > 0]


@pytest.mark.parametrize("parts", [None, (1 << 62, (1 << 62) - 3, (1 << 62) + 5),
                                   (1 << 62, (1 << 62) + 5, 0, 7)],
                         ids=["seed3", "near-2^62", "2^62-and-0"])
@pytest.mark.parametrize("field", ["degree", "span_s"])
def test_trace_samples_match_the_argsort_scan(capsys, tmp_path, parts, field):
    # the scan order comes from each label's lowest partition and its first row there, sorted by
    # sorted_runs (packed keys, or lexsort where the partitions span more than 63 bits)
    path = tmp_path / "trace.csv"
    if parts is None:
        assert run(capsys, "gen-trace", "--seed", "3", "--shared-atomics", "--partitions", "3",
                   "--instances", "400", "--services", "200", "--out", str(tmp_path))[0] == 0
    else:
        rng = np.random.default_rng(len(parts))
        rows = [(int(ts), "u", "s", "h", 0, 5, f"inst{rng.integers(60)}",
                 parts[rng.integers(len(parts))]) for ts in rng.integers(0, 10**6, 500)]
        write_trace(Trace.from_rows(rows), path)
    args = argparse.Namespace(values=None, trace=str(path), field=field)
    got, want = cli._samples_from_args(args), _scan_samples_by_argsort(path, field)
    assert got.tobytes() == want.tobytes() and got.size > 10


@pytest.mark.parametrize("kind", ["log-uniform", "mixture"])
def test_fit_dist_at_the_float64_ends_fits_like_the_unscaled_sample(capsys, tmp_path, kind):
    # the start's phase counts and the degenerate test read moments of x / mean, so samples
    # near 1e250 do not overflow m * m and samples near 1e-250 are not called degenerate
    rng = np.random.default_rng(7)
    ys = (10.0 ** rng.uniform(-50.0, 50.0, 200) if kind == "log-uniform" else
          np.where(rng.random(200) < 0.4, rng.gamma(4.0, 0.01, 200), rng.gamma(6.0, 10.0, 200)))

    def fit(c):
        out = tmp_path / repr(c)
        out.mkdir()
        np.savetxt(values := out / "values.txt", ys * c)
        assert run(capsys, "fit-dist", "--values", str(values), "--out", str(out))[0] == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert not report["degenerate"]
        return report["distribution"]["branches"]

    want = fit(1.0)
    for c in (1e-250, 1e250):
        got = fit(c)
        assert [b["k"] for b in got] == [b["k"] for b in want]
        for key, scale in (("alpha", 1.0), ("lambda", c)):
            np.testing.assert_allclose([b[key] * scale for b in got], [b[key] for b in want],
                                       rtol=1e-3)


def test_fit_dist_from_values(capsys, tmp_path):
    rng = np.random.default_rng(3)
    samples = rng.gamma(shape=4.0, scale=0.5, size=400)
    vals = tmp_path / "vals.txt"
    vals.write_text("\n".join(f"{v:.6f}" for v in samples))
    code, out, _ = run(
        capsys, "fit-dist", "--out", str(tmp_path), "--values", str(vals),
        "--branches", "1", "--max-phases", "8", "--emit-curves")
    assert code == 0
    assert "log-likelihood" in out
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["samples"] == 400
    assert report["converged"] in (True, False)
    dist_doc = json.loads((tmp_path / "dist.json").read_text())
    assert dist_doc["type"] in ("erlang", "hyper_erlang")
    curves = (tmp_path / "curves.csv").read_text().splitlines()
    assert curves[0] == "x,pdf,cdf"
    assert len(curves) == 257
    last = [float(v) for v in curves[-1].split(",")]
    assert last[2] > 0.95  # cdf approaches 1 at the grid's right edge


def test_predict_finite_buffer(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
        "service": {"type": "erlang", "lambda": 2.0, "k": 1},
        "servers": 1, "buffer": 10,
    }))
    code, out, _ = run(capsys, "predict", "--model", str(model), "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    rho = 0.5
    L = sum(n * rho ** n * (1 - rho) / (1 - rho ** 11) for n in range(11))
    assert doc["L"] == pytest.approx(L, rel=1e-9)
    assert json.loads((tmp_path / "predict.json").read_text()) == doc


def test_simulate_queue_smoke(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
        "service": {"type": "erlang", "lambda": 2.0, "k": 1},
    }))
    code, out, _ = run(
        capsys, "simulate-queue", "--model", str(model), "--out", str(tmp_path),
        "--arrivals", "20000", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"L", "Lq", "W", "Wq"}
    full = json.loads((tmp_path / "simulate.json").read_text())
    assert "ci95" in full
    assert abs(full["L"] - 1.0) < 0.25


def test_compare_structure(capsys, tiny_trace, tmp_path):
    code, out, _ = run(
        capsys, "compare", "--trace", str(tiny_trace), "--out", str(tmp_path),
        "--sliding", "40,120", "--gamma", "1,0.85")
    assert code == 0
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert [r["label"] for r in doc["runs"]] == ["swa_13_22", "sliding_40", "sliding_120"]
    for row in doc["runs"]:
        assert set(row["completeness"]) == {"gamma_1", "gamma_0.85"}
        assert row["occupancy_max"] >= row["occupancy_avg"]
    assert "swa_13_22" in out


def test_compare_rows_are_those_of_one_run_after_another(capsys, tiny_trace, tmp_path):
    # the runs share the trace on two threads; each row is what a run of its own gives
    code, _, _ = run(capsys, "compare", "--trace", str(tiny_trace), "--out", str(tmp_path),
                     "--sliding", "40,120,400", "--gamma", "1,0.75")
    assert code == 0
    trace, rows = read_trace(tiny_trace), []
    tumbling = [(f"sliding_{w}", PipelineConfig(kind="sliding", window=w, step=w))
                for w in (40, 120, 400)]
    for label, cfg in [("swa_13_22", PipelineConfig()), *tumbling]:
        result = run_pipeline(trace, cfg)
        rep, stats = evaluate(result.emissions, trace, (1.0, 0.75)), result.aggregate_stats
        rows.append({"label": label, "config": cfg.to_dict()["aggregate"],
                     "completeness": {"gamma_1": rep.completeness[1.0],
                                      "gamma_0.75": rep.completeness[0.75]},
                     "capture_rate": rep.capture_rate, "recall": rep.recall,
                     "correct_rate": rep.correct_rate, "emissions": rep.emissions,
                     "occupancy_avg": stats.occupancy_avg, "occupancy_max": stats.occupancy_max,
                     "storage_avg_mb": stats.storage_avg / 2**20,
                     "storage_max_mb": stats.storage_max / 2**20,
                     "residence_avg_s": stats.residence_avg_ms / 1000.0})
    assert json.loads((tmp_path / "compare.json").read_text()) == {"strategy": "head_ts_ip",
                                                                   "runs": rows}


@pytest.mark.parametrize("gamma,summary", [("0.5", "complete(0.5)="), ("", "swa_13_22: capture=")],
                         ids=["no-gamma-1", "none"])
def test_compare_summary_shows_the_first_gamma_listed(capsys, tiny_trace, tmp_path, gamma,
                                                       summary):
    code, out, err = run(capsys, "compare", "--trace", str(tiny_trace), "--out", str(tmp_path),
                         "--sliding", "40", "--gamma", gamma)
    assert code == 0 and err == ""
    assert summary in out and ("complete(" in out) == bool(gamma)
    doc = json.loads((tmp_path / "compare.json").read_text())
    want = {f"gamma_{gamma}"} if gamma else set()
    assert [set(row["completeness"]) for row in doc["runs"]] == [want, want]
    assert json.loads((tmp_path / "compare_manifest.json").read_text())["command"] == "compare"


# digests of a seed-7 toy run over three partitions: any byte drift in the
# trace, the emissions or the scores shows here
PINNED = {
    "trace.csv": "f70ee4acdd241923ffd42f86bead5a3b6ade6317f5e5681efa66cf3a01ebcab8",
    "emitted.csv": "e20076b7a8752541eee10d112af489ef853ed4953c4dcf6bae2a45f6a5ba06da",
    "emitted_members.csv": "2383fc94fde64f660301f3c874c58e09a3f9973af75ba676a4b30abaae59ec55",
    "operator_stats.json": "0d3a86989aaf101a09660241ad30b8a855814f2a6ac52187f94ea836879f4f1b",
    "evaluation.json": "49f0a2d03016f4a69986de26b072e26c496fdb610d1e7e43500e56b914a7484b",
    "compare.json": "b72338b2594ea7d9ae0bf8a3ad59602e5f814526233f57e02efbab8fe02abe0c",
}


def test_seeded_artifacts_are_pinned(capsys, tmp_path):
    out = str(tmp_path)
    trace = str(tmp_path / "trace.csv")
    for argv in (
        ["gen-trace", *PINNED_ARGV],
        ["run-pipeline", "--trace", trace],
        ["evaluate", "--trace", trace, "--emitted", str(tmp_path / "emitted.csv")],
        ["compare", "--trace", trace, "--sliding", "100,400"],
    ):
        assert run(capsys, *argv, "--out", out)[0] == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED}
    assert got == PINNED


# ---------------------------------------------------------------------------
# the column files beside the emission CSVs
# ---------------------------------------------------------------------------

PINNED_ARGV = ["--seed", "7", "--instances", "300", "--services", "200", "--partitions", "3",
               "--user-pool", "400", "--repeat-factor", "1.5"]
COMPARE_RUNS = {"swa_13_22": PipelineConfig(),
                **{f"sliding_{w}": PipelineConfig(kind="sliding", window=w, step=w)
                   for w in (100, 400)}}


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """Directories of emission files: the PINNED run-pipeline's, a --no-members run's, and one
    per configuration of the PINNED compare, written by ``write_emissions``."""
    out = tmp_path_factory.mktemp("pinned")
    trace = out / "trace.csv"
    assert cli.main(["gen-trace", *PINNED_ARGV, "--out", str(out)]) == 0
    runs = {"run_pipeline": out / "run_pipeline", "no_members": out / "no_members"}
    for label, extra in (("run_pipeline", []), ("no_members", ["--no-members"])):
        argv = ["run-pipeline", "--trace", str(trace), *extra, "--out", str(runs[label])]
        assert cli.main(argv) == 0
    loaded = read_trace(trace)
    for label, cfg in COMPARE_RUNS.items():
        runs[label] = out / label
        runs[label].mkdir()
        write_emissions(run_pipeline(loaded, cfg).emissions, runs[label] / "emitted.csv",
                        runs[label] / "emitted_members.csv")
    return runs


def emission_paths(run):
    """``emitted.csv`` of ``run`` and its member sidecar, or None if the run kept no members."""
    members = run / "emitted_members.csv"
    return run / "emitted.csv", members if members.exists() else None


def csv_emissions(emitted, members):
    """What ``read_emissions`` gives from the CSVs alone: the emissions, or the error raised."""
    columns = [Path(f"{path}.columns") for path in (emitted, members) if path is not None]
    moved = [path for path in columns if path.exists()]
    for path in moved:
        path.rename(f"{path}.aside")
    try:
        return read_emissions(emitted, members)
    except (ConfigError, OSError) as exc:
        return exc
    finally:
        for path in moved:
            Path(f"{path}.aside").rename(path)


def assert_same_emissions(got, want):
    """Every column equal in dtype and values (or both None), and the keys spelled alike."""
    for f in fields(Emissions)[1:]:
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert (g is None and w is None) or (g.dtype == w.dtype and np.array_equal(g, w)), f.name
    assert got.keys == want.keys


@pytest.mark.parametrize("label", ["run_pipeline", "no_members", *COMPARE_RUNS])
def test_emission_column_files_read_as_the_csv(pinned_runs, label):
    emitted, members = emission_paths(pinned_runs[label])
    assert Path(f"{emitted}.columns").exists()
    assert members is None or Path(f"{members}.columns").exists()
    for sidecar in dict.fromkeys([members, None]):  # with the sidecar, if any, then without
        with mock.patch.object(engine, "csv_blocks") as parse:
            loaded = read_emissions(emitted, sidecar)
        assert not parse.called  # every read took the column files
        assert_same_emissions(loaded, csv_emissions(emitted, sidecar))


def edit_field(row, field, value):
    """Overwrite field ``field`` of data row ``row`` of a CSV with ``value``."""
    def edit(path):
        lines = path.read_bytes().split(b"\r\n")
        fields = lines[row].split(b",")
        fields[field] = value
        lines[row] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
    return edit


def edit_column_file(change):
    def edit(path):
        columns = Path(f"{path}.columns")
        columns.write_bytes(change(columns.read_bytes()))
    return edit


def foreign(path):
    """The column file of another run's file of the same name."""
    other = path.parent.parent / "sliding_100" / path.name
    Path(f"{path}.columns").write_bytes(Path(f"{other}.columns").read_bytes())


EMISSION_REFUSED = {
    "csv-edit-valid": {"emitted.csv": edit_field(3, 3, b"1"),
                       "emitted_members.csv": edit_field(3, 1, b"0")},
    "csv-edit-malformed": {"emitted.csv": edit_field(3, 3, b"x"),
                           "emitted_members.csv": edit_field(3, 1, b"x")},
    "csv-edit-count": {"emitted.csv": edit_field(3, 1, b"99"),
                       "emitted_members.csv": edit_field(3, 0, b"99999")},
    "truncated": edit_column_file(lambda data: data[:len(data) // 2]),
    "flipped-payload-byte": edit_column_file(
        lambda data: data[:-5] + bytes([data[-5] ^ 1]) + data[-4:]),
    "foreign": foreign,
    # files that vouch for their CSV but hold arrays that do not check out: a reason past
    # REASONS, text that is not UTF-8, offsets short of the text, a short or retyped column
    "reason-past-codes": {"emitted.csv": revouch(lambda a: a[1].__setitem__(0, len(REASONS)))},
    "text-not-utf8": {"emitted.csv": revouch(lambda a: a[6].__setitem__(0, 0xff))},
    "offsets-short": {"emitted.csv": revouch(lambda a: a[5].__setitem__(-1, a[5][-1] - 1))},
    "column-too-short": revouch(lambda a: a.__setitem__(0, a[0][:-1])),
    "wrong-dtype": revouch(lambda a: a.__setitem__(1, a[1].astype(np.int32))),
}


@pytest.mark.parametrize("name", ["emitted.csv", "emitted_members.csv"])
@pytest.mark.parametrize("case", sorted(EMISSION_REFUSED))
def test_emission_column_file_that_does_not_check_out_is_ignored(pinned_runs, tmp_path, case,
                                                                  name):
    for label in ("sliding_100", "run_pipeline", "no_members"):  # the first lends its files
        run = tmp_path / label
        run.mkdir()
        for path in pinned_runs[label].iterdir():
            (run / path.name).write_bytes(path.read_bytes())
        if label == "sliding_100":
            continue
        damage = EMISSION_REFUSED[case]
        damage = damage.get(name) if isinstance(damage, dict) else damage
        if damage is not None and (run / name).exists():
            damage(run / name)
        emitted, members = emission_paths(run)
        want = csv_emissions(emitted, members)
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as got:
                read_emissions(emitted, members)
            assert str(got.value) == str(want)
        else:
            assert_same_emissions(read_emissions(emitted, members), want)


# gen-trace at toy size under catalog and span shapes the default run does not take
PINNED_GEN = {
    "shared_atomics": (["--seed", "1", "--shared-atomics"],
                       "264e77588b1a233bdec0498f158d0ce548d7a559c3a6be41ebf65ea165503d6b"),
    "three_partitions": (["--seed", "1", "--partitions", "3"],
                         "300cec323cbd69bf037c3968f049b191802a2a75baf6592853e36921604d2784"),
    "degree_one": (["--seed", "1", "--degree-dist", "deg1.json"],
                   "9f81dc3d9457f272ebff4c2e37a86bfb692953754f6281e1382c223667be7a2e"),
    "zero_span": (["--seed", "1", "--span-dist", "span0.json"],
                  "124518a5d659dc0c501c3fd8f9740212e9eca3a0d350323e5d6ad02f871f2ba3"),
}


@pytest.mark.parametrize("case", sorted(PINNED_GEN))
def test_generated_trace_is_pinned(capsys, tmp_path, case):
    (tmp_path / "deg1.json").write_text('{"type": "point", "value": 1.0}')
    (tmp_path / "span0.json").write_text('{"type": "point", "value": 0.0}')
    argv, digest = PINNED_GEN[case]
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run(capsys, "gen-trace", *argv, "--instances", "300", "--services", "200",
               "--out", str(tmp_path))[0] == 0
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == digest


def test_fit_does_not_depend_on_blas_threads(fit_values, tmp_path):
    # OpenBLAS splits a long dot product across its threads, so an M-step
    # that called BLAS would round differently under another thread count
    code = "import sys; from swakit.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    procs = {threads: subprocess.Popen(
        [sys.executable, "-c", code, "fit-dist", "--values", str(fit_values), "--branches", "2",
         "--out", str(tmp_path / threads)],
        env=dict(env, OPENBLAS_NUM_THREADS=threads), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True) for threads in ("1", "2")}
    try:
        for proc in procs.values():
            err = proc.communicate(timeout=300)[1]
            assert proc.returncode == 0, err
    finally:
        for proc in procs.values():
            proc.kill()
    got = [{name: (tmp_path / threads / name).read_bytes()
            for name in ("dist.json", "fit_report.json")} for threads in procs]
    assert got[0] == got[1]


# digests of the two-branch fit of ``fit_values``: any bit the EM moves shows here
PINNED_FIT = {
    "dist.json": "f5156501dc95a311ad3d8075407a71a8a1d9467cbebb4b77f97bf64e9d225088",
    "fit_report.json": "d8a4f1cb5b8ecd52c30b007ba17db2a94e0eee20da8531dc14bf94fc9d1bdd83",
}


def test_fit_artifacts_are_pinned(capsys, fit_values, tmp_path):
    assert run(capsys, "fit-dist", "--values", str(fit_values), "--branches", "2",
               "--out", str(tmp_path))[0] == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_FIT}
    assert got == PINNED_FIT


SIM_MODELS = {
    "single": ({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
                "service": {"type": "erlang", "lambda": 2.5, "k": 2}}, 3),
    "three_servers": ({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
                       "service": {"mean": 2.4, "scv": 0.5}, "servers": 3}, 4),
    "finite": ({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
                "service": {"type": "erlang", "lambda": 1.1, "k": 1}, "buffer": 8}, 5),
    "batch": ({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
               "service": {"type": "erlang", "lambda": 0.5, "k": 1}, "batch": [3, 6]}, 6),
    "ample": ({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
               "service": {"type": "erlang", "lambda": 0.4, "k": 2}, "servers": "ample"}, 7),
    "three_servers_finite": ({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
                              "service": {"mean": 2.4, "scv": 0.5}, "servers": 3,
                              "buffer": 7}, 8),
    "batch_finite": ({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
                      "service": {"type": "erlang", "lambda": 0.5, "k": 1}, "batch": [1, 4],
                      "buffer": 10}, 9),
}

# digests of simulate.json for one seeded 20,000-arrival run per simulator path
PINNED_SIM = {
    "single": "46b99f77d6c2ab1d39db88359289e7f21ae157c279888ae523fdd069e13dab5e",
    "three_servers": "a260f003489f996406ee0f7f78125792da1e422042997f761bb3f23a07d9c439",
    "finite": "d479a6e83d93d35557f91ecbd77cf1fbdc6540f2b0885fa3802b872a519d28ef",
    "batch": "418c922b32b1c071b3a7e0ae9cf29d36d4d6fe12eb98693f21d227329176557e",
    "ample": "cda07f6f5e6dec9dac74f57e6fc37793676dab1dcbbf64f72ece2b4393a80d59",
    "three_servers_finite": "14cef8ca60855b94135f83d56b24a55533838d1d41474edb5372fc30bd2ec2da",
    "batch_finite": "91b4785a59c30a33831c327f6418d034f20d74e8723a36876ca398b3bb28edb1",
}


def test_simulation_artifacts_are_pinned(capsys, tmp_path):
    got = {}
    for name, (doc, seed) in SIM_MODELS.items():
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / name
        assert run(capsys, "simulate-queue", "--model", str(model), "--arrivals", "20000",
                   "--seed", str(seed), "--out", str(out))[0] == 0
        got[name] = hashlib.sha256((out / "simulate.json").read_bytes()).hexdigest()
    assert got == PINNED_SIM


@pytest.mark.parametrize("scv", [0.2, 0.3, 4.0])
def test_predict_agrees_with_simulate_queue_on_mean_scv_service(capsys, tmp_path, scv):
    # M/G/1/10 with a mean/SCV service: the exact chain and the simulator solve one law, so
    # they agree within C5's tolerance, max(3%, CI95), at C5's 1M arrivals
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
                                 "service": {"mean": 0.8, "scv": scv}, "buffer": 10}))
    assert run(capsys, "predict", "--model", str(model), "--out", str(tmp_path / "p"))[0] == 0
    assert run(capsys, "simulate-queue", "--model", str(model), "--arrivals", "1000000",
               "--out", str(tmp_path / "s"))[0] == 0
    exact = json.loads((tmp_path / "p" / "predict.json").read_text())
    sim = json.loads((tmp_path / "s" / "simulate.json").read_text())
    for k in ("L", "Ploss"):
        assert abs(sim[k] - exact[k]) <= max(0.03 * exact[k], sim["ci95"].get(k, 0.0)), k


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert cli.main(["--no-such-flag"]) == 1
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()
    assert cli.main(["run-pipeline"]) == 1  # missing required --trace
    capsys.readouterr()
    assert cli.main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: out of memory"),
    (MemoryError("Unable to allocate 8.00 GiB"), "error: Unable to allocate 8.00 GiB"),
], ids=["bare", "numpy-message"])
def test_memory_error_exits_two_with_one_line(capsys, tmp_path, monkeypatch, exc, line):
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "generate_trace", no_memory)
    out = tmp_path / "out"
    code, _, err = run(capsys, "gen-trace", "--instances", "20", "--services", "20",
                       "--out", str(out))
    assert (code, err) == (2, line + "\n")
    assert not out.exists()


def test_missing_model_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "predict", "--model", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path))
    assert code == 2
    assert "error" in err


def test_trace_past_int64_exits_two(capsys, tmp_path):
    span = tmp_path / "span.json"
    span.write_text(json.dumps({"type": "erlang", "lambda": 1e-17, "k": 1}))
    code, _, err = run(capsys, "gen-trace", "--instances", "20", "--services", "20",
                       "--span-dist", str(span), "--out", str(tmp_path))
    assert code == 2
    assert "2^63" in err
    assert not (tmp_path / "trace.csv").exists()


def test_fit_dist_without_inputs_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "fit-dist", "--out", str(tmp_path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("branches", ["1", "2"])
def test_fit_dist_without_iterations_exits_two(capsys, tmp_path, branches):
    vals = tmp_path / "vals.txt"
    samples = np.random.default_rng(2).gamma(3.0, 1.0, 200).tolist()
    vals.write_text("".join(f"{v!r}\n" for v in samples))
    code, _, err = run(capsys, "fit-dist", "--values", str(vals), "--branches", branches,
                       "--max-iter", "0", "--out", str(tmp_path))
    assert code == 2
    assert "max_iter" in err
    assert not (tmp_path / "dist.json").exists()


@pytest.mark.parametrize("argv,named", [
    (["--branches", "0"], "branches must be >= 1"),
    (["--max-phases", "0"], "max_phases 0 is outside"),
    (["--branches", "1", "--max-phases", str(MAX_PHASES + 1)], "(MAX_PHASES)"),
    (["--max-iter", "0"], "max_iter must be >= 1"),
    # a tolerance no step can meet: the EM would run every iteration of every run
    (["--tol", "nan"], "tol must be >= 0, got nan"),
    (["--tol", "-1"], "tol must be >= 0, got -1.0"),
], ids=["branches", "max-phases-0", "max-phases-past-cap", "max-iter", "tol-nan", "tol-negative"])
def test_refused_fit_never_reads_the_trace(capsys, tmp_path, monkeypatch, argv, named):
    def no_read(*args):
        raise AssertionError("the trace was read for a fit that cannot run")

    monkeypatch.setattr(cli, "read_trace", no_read)
    out = tmp_path / "out"
    code, _, err = run(capsys, "fit-dist", "--trace", str(tmp_path / "trace.csv"), *argv,
                       "--out", str(out))
    assert code == 2
    assert named in err
    assert not out.exists()


def test_too_few_arrivals_exits_two(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
        "service": {"type": "erlang", "lambda": 2.0, "k": 1},
    }))
    code, _, _ = run(capsys, "simulate-queue", "--model", str(model),
                     "--out", str(tmp_path), "--arrivals", "50")
    assert code == 2


@pytest.mark.parametrize("argv,named", [
    (["simulate-queue", "--model", "MODEL", "--arrivals", str(10**15)],
     (f"arrivals {10**15} need", " bytes, over ")),
    (["gen-trace", "--instances", str(10**15)], (f"instance_count {10**15} need", " bytes, over ")),
    (["gen-trace", "--services", str(10**15)], (f"catalog count {10**15} need", " bytes, over ")),
    (["simulate-queue", "--model", "MODEL", "--batches", str(10**15)],
     (f"batches {10**15} need", " bytes, over ")),
    (["gen-trace", "--repeat-factor", "nan"], ("repeat_factor must be >= 1, got nan",)),
    (["gen-trace", "--user-pool", str(10**30)],
     (f"user_pool must lie in [1, 2^63], got {10**30}",)),
    (["fit-dist", "--values", "VALUES", "--branches", "1", "--max-phases", str(MAX_PHASES + 1)],
     (f"max_phases {MAX_PHASES + 1} is outside 1..{MAX_PHASES} (MAX_PHASES)",)),
    (["compare", "--trace", "TRACE", "--sliding", ",".join(["8000"] * (cli.MAX_SLIDING + 1))],
     (f"--sliding lists more than {cli.MAX_SLIDING} entries (MAX_SLIDING)",)),
    (["compare", "--trace", "TRACE", "--sliding", "1," * 10**5],
     (f"--sliding lists more than {cli.MAX_SLIDING} entries (MAX_SLIDING)",)),
], ids=["arrivals", "instances", "services", "batches", "repeat-factor-nan", "user-pool",
        "max-phases", "sliding-entries", "sliding-huge"])
def test_oversized_request_exits_two_before_allocating(capsys, tmp_path, monkeypatch, argv,
                                                        named):
    # refused from the size arguments alone: nothing near the memory cap is taken, and no
    # value that cannot be drawn (a NaN repeat factor, a user pool past int64) reaches a draw;
    # a fit past MAX_PHASES is refused before its scan over every phase count, and a compare
    # past MAX_SLIDING configurations before the trace is read or the list is split
    monkeypatch.setattr(cli, "read_trace", lambda *a: pytest.fail("the trace was read"))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
        "service": {"type": "erlang", "lambda": 2.0, "k": 1},
    }))
    values = tmp_path / "values.txt"
    samples = np.random.default_rng(2).gamma(3.0, 1.0, 5000).tolist()  # a full scan: ~0.25 s
    values.write_text("".join(f"{v!r}\n" for v in samples))
    argv = [*({"MODEL": str(model), "VALUES": str(values), "TRACE": str(tmp_path / "trace.csv")}
              .get(a, a) for a in argv),
            "--out", str(tmp_path / "out")]
    times = []
    for _ in range(3):  # the fastest of three: the command's cost, not the host's
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv)
        times.append(time.perf_counter() - t0)
        assert code == 2
        assert all(part in err for part in named), err
        assert not (tmp_path / "out").exists()  # refused before the output directory is made
    assert min(times) < 0.01
    tracemalloc.start()
    assert run(capsys, *argv)[0] == 2
    assert tracemalloc.get_traced_memory()[1] < 1 << 20  # the peak
    tracemalloc.stop()


def test_compare_takes_up_to_max_sliding_entries(capsys, tmp_path, tiny_trace, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SLIDING", 2)
    ok, no = tmp_path / "ok", tmp_path / "no"
    assert run(capsys, "compare", "--trace", str(tiny_trace), "--sliding", "50,60",
               "--out", str(ok))[0] == 0
    assert len(json.loads((ok / "compare.json").read_text())["runs"]) == 3  # swa and both
    code, _, err = run(capsys, "compare", "--trace", str(tiny_trace), "--sliding", "50,60,70",
                       "--out", str(no))
    assert code == 2 and "--sliding lists more than 2 entries" in err and not no.exists()


def test_state_space_blowup_exits_three(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "arrival": {"type": "erlang", "lambda": 1.0, "k": 10},
        "service": {"type": "erlang", "lambda": 2.0, "k": 10},
        "servers": 1, "buffer": 2000,
    }))
    code, _, err = run(capsys, "predict", "--model", str(model), "--out", str(tmp_path))
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    ["run-pipeline", "--config", "CONFIG"],
    ["compare", "--sliding", "0"],
    ["compare", "--capacity", "0"],
    ["compare", "--strategy", "nope"],
], ids=["sliding-window-0", "compare-sliding-0", "compare-capacity-0", "compare-strategy"])
def test_bad_window_request_exits_two_before_reading(capsys, tmp_path, monkeypatch, argv):
    def no_read(path):
        raise AssertionError("the trace was read for a request that cannot run")

    monkeypatch.setattr(cli, "read_trace", no_read)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"aggregate": {"kind": "sliding", "window": 0}}))
    out = tmp_path / "out"
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    code, _, err = run(capsys, *argv, "--trace", str(tmp_path / "trace.csv"),
                       "--out", str(out))
    assert code == 2
    assert "error" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--gamma", "2"],
    ["compare", "--gamma", "1,0"],
    ["evaluate", "--gamma", "0", "--emitted", "EMITTED"],
], ids=["compare-gamma-2", "compare-gamma-0", "evaluate-gamma-0"])
def test_bad_gamma_exits_two_before_reading(capsys, tmp_path, monkeypatch, argv):
    def no_read(*args):
        raise AssertionError("an input was read for a request that cannot run")

    monkeypatch.setattr(cli, "read_trace", no_read)
    monkeypatch.setattr(cli, "read_emissions", no_read)
    monkeypatch.setattr(cli, "run_pipeline", no_read)
    out = tmp_path / "out"
    argv = [str(tmp_path / "emitted.csv") if a == "EMITTED" else a for a in argv]
    code, _, err = run(capsys, *argv, "--trace", str(tmp_path / "trace.csv"),
                       "--out", str(out))
    assert code == 2
    assert "gamma must lie in (0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["predict", "--model", "MISSING"], "missing"),
    (["simulate-queue", "--model", "MISSING"], "missing"),
    (["fit-dist", "--trace", "MISSING"], "missing"),
    (["estimate-params", "--alpha", "2"], "alpha"),
    (["estimate-params", "--span-dist", "BAD"], "field 'k'"),
    (["run-pipeline", "--trace", "MISSING"], "missing"),
    (["run-pipeline", "--trace", "TRACE", "--config", "BAD"], "field 'capacity'"),
    (["evaluate", "--trace", "TRACE", "--emitted", "MISSING"], "sidecar"),
    (["compare", "--trace", "MISSING"], "missing"),
    # the exact chain needs a phase-type law; the simulator alone draws a zero-variance service
    (["predict", "--model", "ZERO_SCV"], "zero-variance law is not phase-type"),
], ids=["predict", "simulate-queue", "fit-dist", "estimate-params", "span-dist", "run-pipeline",
        "config", "evaluate", "compare", "predict-zero-scv"])
def test_refused_request_leaves_no_out_dir(capsys, tiny_trace, tmp_path, argv, named):
    # --out is made just before the first artifact is written, after every input is checked
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "erlang", "lambda": 1.0, "k": 1.5, "aggregate": {"capacity": 1.5}}')
    zero_scv = tmp_path / "zero_scv.json"
    zero_scv.write_text('{"arrival": {"type": "erlang", "lambda": 1.0, "k": 1}, '
                        '"service": {"mean": 0.8, "scv": 0}, "buffer": 10}')
    files = {"BAD": bad, "ZERO_SCV": zero_scv, "TRACE": tiny_trace, "MISSING": tmp_path / "missing"}
    out = tmp_path / "out"
    code, _, err = run(capsys, *(str(files.get(a, a)) for a in argv), "--out", str(out))
    assert code == 2
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", [[1, 0], [0, 1], [0.5, 0.5]])
def test_invalid_ph_span_law_exits_two(capsys, tmp_path, alpha):
    # a positive diagonal: the cdf refuses the generator, never inventing a timeout
    span = tmp_path / "span.json"
    span.write_text(json.dumps({"type": "ph", "alpha": alpha, "T": [[1, 2], [0.5, -1.5]]}))
    out = tmp_path / "out"
    code, _, err = run(capsys, "estimate-params", "--span-dist", str(span), "--out", str(out))
    assert code == 2
    assert "diagonal (0,0) = 1 must be negative" in err
    assert not out.exists()


def test_erlang_c_is_bounded_by_the_offered_load(capsys, tmp_path):
    model = tmp_path / "model.json"
    out = tmp_path / "out"

    def predict(mean, servers):
        model.write_text(json.dumps({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
                                     "service": {"mean": mean}, "servers": servers}))
        return run(capsys, "predict", "--model", str(model), "--out", str(out))

    t0 = time.perf_counter()
    assert predict(0.5, 10**11)[0] == 0  # the recursion stops once B underflows
    assert time.perf_counter() - t0 < 1.0
    code, _, err = predict(2e6, 3 * 10**6)
    assert code == 2
    assert "offered load 2e+06 on 3000000 servers is over 1e+06" in err


@pytest.mark.parametrize("content", [b'{"type": "erlang", "lambda"', b'{"type": "\xe9rlang"}'],
                         ids=["truncated", "not-utf8"])
@pytest.mark.parametrize("argv", [
    ["gen-trace", "--instances", "20", "--services", "20", "--degree-dist"],
    ["estimate-params", "--span-dist"],
    ["gen-trace", "--instances", "20", "--services", "20", "--arrival-dist"],
    ["predict", "--model"],
    ["run-pipeline", "--trace", "nope.csv", "--config"],
], ids=["degree-dist", "span-dist", "arrival-dist", "model", "config"])
def test_unreadable_document_exits_two(capsys, tmp_path, argv, content):
    doc = tmp_path / "doc.json"
    doc.write_bytes(content)
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, str(doc), "--out", str(out))
    assert code == 2
    assert f"{doc} is not UTF-8 JSON" in err
    assert not out.exists()


def test_manifests_carry_stages(capsys, tiny_trace, tmp_path):
    n = read_trace(tiny_trace).n_tuples
    pipe, ev, cmp_out, fit, est, pred, sim = (
        tmp_path / d for d in ("pipe", "eval", "cmp", "fit", "est", "pred", "sim"))
    assert run(capsys, "run-pipeline", "--trace", str(tiny_trace), "--out", str(pipe))[0] == 0
    assert run(capsys, "evaluate", "--emitted", str(pipe / "emitted.csv"),
               "--trace", str(tiny_trace), "--out", str(ev))[0] == 0
    # a repeated configuration is still one run, one row and one operators entry
    assert run(capsys, "compare", "--trace", str(tiny_trace), "--sliding", "50,50",
               "--out", str(cmp_out))[0] == 0
    assert run(capsys, "fit-dist", "--trace", str(tiny_trace), "--out", str(fit))[0] == 0
    assert run(capsys, "estimate-params", "--out", str(est))[0] == 0
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"arrival": {"type": "erlang", "lambda": 1.0, "k": 2},
                                 "service": {"type": "erlang", "lambda": 2.0, "k": 3},
                                 "buffer": 10}))
    assert run(capsys, "predict", "--model", str(model), "--out", str(pred))[0] == 0
    assert run(capsys, "simulate-queue", "--model", str(model), "--arrivals", "2000",
               "--out", str(sim))[0] == 0
    report = json.loads((fit / "fit_report.json").read_text())
    events = json.loads((sim / "simulate_queue_manifest.json").read_text())["des"]["events"]
    samples = report["samples"]
    # compare aggregates and scores the trace once per configuration (swa + 2 sliding)
    expect = {
        pipe / "run_pipeline_manifest.json": {"read": n, "aggregate": n, "write": n},
        ev / "evaluate_manifest.json": {"read": n, "score": n, "write": n},
        cmp_out / "compare_manifest.json": {"read": n, "aggregate": 3 * n, "score": 3 * n,
                                            "write": n},
        fit / "fit_dist_manifest.json": {"read": samples, "fit": samples, "write": samples},
        est / "estimate_params_manifest.json": {"estimate": 0},
        tiny_trace.parent / "gen_trace_manifest.json": {"generate": 80, "write": n,
                                                         "columns": n},
        pred / "predict_manifest.json": {"load": 0, "solve": 0, "write": 0},
        sim / "simulate_queue_manifest.json": {"draw": 2000, "simulate": events, "write": 0},
    }
    for path, items in expect.items():
        stages = json.loads(path.read_text())["stages"]
        assert {name: s["items"] for name, s in stages.items()} == items
        for s in stages.values():
            assert set(s) == {"wall_s", "items", "items_per_s"}
            assert s["wall_s"] >= 0 and s["items_per_s"] >= 0
    for path in expect:  # the minor page faults taken in the command, beside its stages
        faults = json.loads(path.read_text())["minor_faults"]
        assert isinstance(faults, int) and faults >= 0
    # the reported iterations are those of the best run, one of the runs counted
    em = json.loads((fit / "fit_dist_manifest.json").read_text())["em"]
    assert set(em) == {"runs", "iterations"}
    assert em["runs"] >= 1 and em["iterations"] >= report["iterations"] >= 1
    # the exact chain: 2 idle arrival phases, then 10 busy levels of 2 x 3 phases
    solver = json.loads((pred / "predict_manifest.json").read_text())["solver"]
    assert set(solver) == {"states", "nnz", "residual", "assemble_s", "solve_s"}
    assert solver["states"] == 2 + 10 * 2 * 3 and solver["nnz"] > solver["states"]
    assert 0 <= solver["residual"] <= 1e-8 and min(solver["assemble_s"], solver["solve_s"]) >= 0
    # close reasons add up to the emissions, and the high-water marks are the operators'
    op = json.loads((pipe / "run_pipeline_manifest.json").read_text())["operator"]
    emitted = (pipe / "emitted.csv").read_text().splitlines()[1:]
    assert op["close_reasons"] == {r: sum(line.split(",")[2] == r for line in emitted)
                                   for r in ("full", "timeout", "batch")}
    assert sum(op["close_reasons"].values()) == op["emissions"] == len(emitted)
    stats = json.loads((pipe / "operator_stats.json").read_text())["aggregate"]
    assert op["occupancy_max"] == stats["occupancy_max"]
    ops = json.loads((cmp_out / "compare_manifest.json").read_text())["operators"]
    rows = json.loads((cmp_out / "compare.json").read_text())["runs"]
    assert [op["label"] for op in ops] == [r["label"] for r in rows]
    for op, r in zip(ops, rows):
        assert sum(op["close_reasons"].values()) == op["emissions"] == r["emissions"]
        assert op["occupancy_max"] == r["occupancy_max"]
        kind = r["label"].split("_")[0]
        assert op["close_reasons"]["batch"] == (op["emissions"] if kind == "sliding" else 0)


def test_simulate_manifest_reports_des_counts(capsys, tmp_path):
    doc, seed = SIM_MODELS["finite"]
    model = tmp_path / "finite.json"
    model.write_text(json.dumps(doc))
    assert run(capsys, "simulate-queue", "--model", str(model), "--arrivals", "20000",
               "--seed", str(seed), "--out", str(tmp_path))[0] == 0
    manifest = json.loads((tmp_path / "simulate_queue_manifest.json").read_text())
    des = manifest["des"]
    assert set(des) == {"arrivals", "events", "lost", "warmup_cut_time"}
    assert des["arrivals"] == 20000 and des["lost"] > 0 and des["warmup_cut_time"] > 0
    # one event per arrival, lost or not, and one per completed tuple
    assert des["events"] == des["arrivals"] + (des["arrivals"] - des["lost"])
    stages = manifest["stages"]
    assert {name: s["items"] for name, s in stages.items()} == {
        "draw": 20000, "simulate": des["events"], "write": 0}
    assert all(s["wall_s"] >= 0 for s in stages.values())
