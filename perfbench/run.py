"""swakit benchmark: three CLI workloads, end-to-end metrics, and a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {reassemble,size} --seed N \\
        --seconds S --trace {0,1} [--scale {full,toy}] [--record-reference]

Each run sets up in one fresh process (``gen-trace`` for the seed, three
times, reporting the median as ``setup_s``) and measures in another: passes of
the workload's CLI commands, back to back, until ``--seconds`` is used.  With
``--trace 0`` the last line of standard output carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` traced and untraced passes alternate and
it carries the per-layer metrics.  Every command's exit code and outputs are
checked; for seed 0 its artifacts are also compared with ``reference/``.
The whole result, spans included, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SCALES, SETUP_REPEATS, TRACE_OPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(part: str, args, work: Path, deadline: float) -> dict:
    reference = HERE / "reference" / f"{args.scale}-seed{args.seed}.json"
    plan = {"part": part, "root": str(ROOT), "work": str(work), "workload": args.workload,
            "scale": args.scale, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "record": args.record_reference,
            "reference": str(reference) if reference.exists() else None,
            "result": str(work / f"{part}-result.json")}
    plan_path = work / f"{part}-plan.json"
    plan_path.write_text(json.dumps(plan))
    log_path = work / f"{part}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                  cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{part} worker did not finish in time") from None
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise BenchError(f"{part} worker exited with {proc.returncode}:\n{tail}")
    with open(plan["result"], encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, setup: dict, passes: dict, tuples: int) -> dict:
    plain = [p for p in passes["passes"] if not p["traced"]]
    trace_ops, configs = TRACE_OPS[args.workload]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setup["reps"][:SETUP_REPEATS]),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "tuples_per_s": statistics.median(
            tuples * configs / sum(r["wall_s"] for r in p["ops"] if r["label"] in trace_ops)
            for p in plain),
        "peak_rss_mb": passes["peak_rss_kb"] / 1024.0,
    }


def per_layer(setup: dict, passes: dict, tuples: int) -> dict:
    traced = [p for p in passes["passes"] if p["traced"]]
    plain = [p for p in passes["passes"] if not p["traced"]]
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    for k, v in setup["traced"]["layers"].items():
        layers[k] = layers.get(k, 0) + v
    layers["trace.tuples"] = tuples
    layers["cli.self_s"] = sum(v for k, v in layers.items() if k.startswith("cli."))
    layers["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    return layers


def record_reference(args, setup: dict, passes: dict) -> None:
    path = HERE / "reference" / f"{args.scale}-seed{args.seed}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    for record in [setup["reps"][0], *passes["passes"][0]["ops"]]:
        doc.update(record.get("artifacts", {}))
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def measure(args, work: Path) -> tuple:
    deadline = time.monotonic() + TIME_LIMIT_S
    setup = run_worker("setup", args, work, deadline)
    if setup["reps"][0]["problems"]:
        raise BenchError("set-up failed: " + "; ".join(setup["reps"][0]["problems"]))
    passes = run_worker("passes", args, work, deadline)
    return setup, passes, setup["reps"] + [r for p in passes["passes"] for r in p["ops"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=tuple(SCALES), default="full")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's artifacts as the reference for its scale and seed")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "swakit" / "cli.py").is_file():
        print(f"error: no swakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup, passes, records = measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    for r in records:
        for problem in r["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    tuples = setup["tuples"]
    values = per_layer(setup, passes, tuples) if args.trace else end_to_end(
        args, setup, passes, tuples)
    values["ok_frac"] = (len(records) - failed) / len(records)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    if args.record_reference:
        record_reference(args, setup, passes)

    info = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace, "commit": git_commit(),
            "environment": passes["environment"],
            "absent": sorted(set(setup["absent"] + passes["absent"])),
            "passes": len(passes["passes"])}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    suffix = "" if args.scale == "full" else f"-{args.scale}"
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps({**info, "metrics": metrics, "setup": setup, "run": passes}))
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
