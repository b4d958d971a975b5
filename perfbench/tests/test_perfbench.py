"""Toy-scale runs of every workload, plus the benchmark's own bookkeeping.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import outputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, exact_states, model_documents  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_root, *args):
    proc = subprocess.run([sys.executable, str(tmp_root / "perfbench" / "run.py"), *args],
                          cwd=tmp_root, capture_output=True, text=True, timeout=170)
    return proc


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run_reports_every_metric_and_no_failure(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", trace, "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    reads, replays = {"reassemble": (3, 5), "size": (1, 0)}[workload]
    assert (layer["trace.read_calls"], layer["trace.replay_calls"]) == (reads, replays)
    assert layer["trace.generate_s"] > 0 and layer["trace.tuples"] > 0
    if workload == "size":
        docs = model_documents("toy")
        assert layer["queueing.states"] == sum(exact_states(docs[k])
                                               for k in ("exact_single", "exact_batch"))
        assert layer["params.cdf_calls"] > 0 and layer["queueing.refuse_s"] > 0
    else:
        assert layer["metrics.evaluate_calls"] == replays and layer["engine.emissions"] > 0


def test_toy_seed_one_passes_the_seed_independent_checks():
    proc = bench(ROOT, "--workload", "reassemble", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc.stdout)["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "--workload", "size", "--seed", "0", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_comparison_is_exact_for_ints_and_tight_for_floats():
    ref = {"a": 1, "b": [0.5, 2.0], "c": {"d": "x"}}
    assert outputs.same(ref, {"a": 1, "b": [0.5, 2.0 * (1 + 1e-12)], "c": {"d": "x"}}) == []
    assert outputs.same(ref, {"a": 1, "b": [0.5, 2.0 * (1 + 1e-8)], "c": {"d": "x"}})
    assert outputs.same(ref, {"a": 1.0, "b": [0.5, 2.0], "c": {"d": "x"}})
    assert outputs.same(ref, {"a": 1, "b": [0.5], "c": {"d": "x"}})


def span(name, start, end, parent=None, op="evaluate"):
    return {"name": name, "op": op, "pass": 1, "parent": parent, "counts": {},
            "start": start, "end": end, "cpu_start": start, "cpu_end": end}


def test_self_time_subtracts_nested_spans():
    spans = [span("cli.evaluate", 0.0, 10.0), span("metrics.evaluate", 1.0, 9.0, parent=0),
             span("trace.truth_index", 2.0, 4.0, parent=1),
             span("metrics.match_instances", 5.0, 6.0, parent=1)]
    layer = tracing.layer_metrics(spans, {})
    assert layer["metrics.evaluate_s"] == pytest.approx(5.0)
    assert layer["cli.evaluate_s"] == pytest.approx(2.0)
    assert layer["trace.truth_index_calls"] == 1


def test_renamed_function_is_absent_not_a_failure(monkeypatch):
    import swakit.cli  # noqa: F401  (loads every swakit module)
    import swakit.engine

    monkeypatch.setitem(tracing.FUNCTIONS, "engine", ("union", "no_such_function"))
    rec = tracing.Recorder(pass_id=1)
    undo, absent = tracing.instrument(rec)
    try:
        assert absent == ["engine.no_such_function"]
        assert swakit.engine.union is not swakit.engine.union.__wrapped__
    finally:
        tracing.restore(undo)
    assert not hasattr(swakit.engine.union, "__wrapped__")
