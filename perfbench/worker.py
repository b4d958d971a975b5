"""Runs one part of a benchmark run in a fresh process: the set-up or the passes.

Usage: python3 perfbench/worker.py PLAN.json

The plan names the part, the workload, scale, seed, run length and whether to
trace.  Every CLI command is issued in-process through ``swakit.cli.main``,
from this single caller, with garbage collection and output checks outside the
timed region.  The result goes to the plan's ``result`` path as JSON.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import outputs
import tracing
from workloads import SCALES, SETUP_REPEATS, model_documents, pass_ops, setup_op, write_models


def run_op(op, cli_main, ctx, rec=None):
    """Issue one command and check what it wrote; returns the operation's record."""
    out = Path(op.out)
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    captured = io.StringIO()
    rc, crash = None, None
    span = nullcontext()
    counting = []
    if rec is not None:
        rec.op = op.label
        span = rec.span("cli." + op.command.replace("-", "_"))
        if op.label.startswith("estimate_"):
            counting = tracing.count_cdf(rec)
    with redirect_stdout(captured), redirect_stderr(captured):
        t0, c0 = perf_counter(), process_time()
        try:
            with span:
                rc = cli_main(op.argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            crash = traceback.format_exc()
        wall, cpu = perf_counter() - t0, process_time() - c0
    tracing.restore(counting)
    record = {"label": op.label, "command": op.command, "expect": op.expect, "rc": rc,
              "wall_s": wall, "cpu_s": cpu, "problems": [], "counters": {}}
    if crash is not None:
        record["problems"].append(f"{op.label}: raised {crash.strip().splitlines()[-1]}")
    elif rc != op.expect:
        record["problems"].append(f"{op.label}: exit code {rc}, expected {op.expect}")
    else:
        record["problems"] += outputs.check(op.label, out, ctx)
        if ctx["record"]:
            record["artifacts"] = outputs.digests(op.label, out)
        elif ctx["reference"] is not None:
            record["problems"] += outputs.against_reference(op.label, out, ctx["reference"])
        record["counters"] = outputs.counters(op.label, out, ctx)
    if record["problems"]:
        record["output"] = (crash or captured.getvalue())[-2000:]
    return record


def run_setup(plan, cli_main, ctx):
    """gen-trace (plus the model documents for ``size``), several times over."""
    work = Path(plan["work"])
    op = setup_op(plan["workload"], work, plan["scale"], plan["seed"])
    rec = tracing.Recorder(pass_id=0)
    reps, traced, absent, first_sha = [], None, [], None
    for i in range(SETUP_REPEATS + int(plan["trace"])):
        traced_rep = i == SETUP_REPEATS
        undo = []
        if traced_rep:
            undo, absent = tracing.instrument(rec)
        try:
            record = run_op(op, cli_main, ctx, rec if traced_rep else None)
            models_s = 0.0
            if plan["workload"] == "size":
                t0 = perf_counter()
                write_models(work, plan["scale"])
                models_s = perf_counter() - t0
        finally:
            tracing.restore(undo)
        record["setup_s"] = record["wall_s"] + models_s
        if not record["problems"]:
            sha = outputs.digests("gen_trace", Path(op.out))["gen_trace/trace.csv"]
            first_sha = first_sha or sha
            if sha != first_sha:
                record["problems"].append("gen_trace: the same seed wrote a different trace")
        reps.append(record)
        if traced_rep:
            traced = {"spans": rec.spans,
                      "layers": tracing.layer_metrics(rec.spans, {})}
    return {"reps": reps, "traced": traced, "absent": absent,
            "tuples": outputs.trace_tuples(Path(op.out))}


def run_passes(plan, cli_main, ctx):
    """Passes back to back for the run length; traced and untraced alternate.

    A new round starts only while at least half a round's time is left, so a
    run measures about its length whatever the pass takes.
    """
    ops = pass_ops(plan["workload"], Path(plan["work"]), plan["scale"], plan["seed"])
    passes, absent = [], []
    deadline = perf_counter() + plan["seconds"]
    while True:
        round_start = perf_counter()
        for traced in ((False, True) if plan["trace"] else (False,)):
            rec, undo = None, []
            if traced:
                rec = tracing.Recorder(pass_id=len(passes))
                undo, absent = tracing.instrument(rec)
            try:
                records = [run_op(op, cli_main, ctx, rec) for op in ops]
            finally:
                tracing.restore(undo)
            entry = {"traced": traced, "wall_s": sum(r["wall_s"] for r in records),
                     "ops": records}
            if traced:
                counters = dict.fromkeys(outputs.COUNTERS, 0)
                for r in records:
                    for k, v in r["counters"].items():
                        counters[k] = max(counters[k], v) if k in outputs.PEAKS else counters[k] + v
                entry["spans"] = rec.spans
                entry["layers"] = tracing.layer_metrics(rec.spans, counters)
            passes.append(entry)
        now = perf_counter()
        if now + 0.5 * (now - round_start) >= deadline:
            break
    return {"passes": passes, "absent": absent,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        openblas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": " ".join(openblas.split()), "cpu": cpu,
            "nproc": os.cpu_count(),
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, str(Path(plan["root"]) / "src"))
    from swakit.cli import main as cli_main

    reference = None
    if plan["reference"] and not plan["record"]:
        with open(plan["reference"], encoding="utf-8") as fh:
            reference = json.load(fh)
    work = Path(plan["work"])
    ctx = {"instances": SCALES[plan["scale"]]["instances"], "models": model_documents(plan["scale"]),
           "reference": reference, "record": plan["record"],
           "tuples": outputs.trace_tuples(work / "input") if plan["part"] == "passes" else None}
    result = (run_setup if plan["part"] == "setup" else run_passes)(plan, cli_main, ctx)
    result["environment"] = environment()
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
