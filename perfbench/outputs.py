"""Checks on what each CLI command wrote, and counters read from the same files.

Everything here reads the artifacts on disk; nothing imports the program, so
the checks share no code with what they check.  ``check`` returns a list of
problems (empty when the output is right).  ``counters`` returns the layer
counters an artifact carries.  ``digests`` reduces the artifacts to what the
seed-0 reference stores: CSV files by hash, JSON documents whole.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from scipy import stats

from workloads import exact_states

# Files each operation writes that must match the reference.  Manifests and
# operator_stats.json are left out on purpose: manifests hold wall times, and
# operator_stats.json is allowed to change shape.
ARTIFACTS = {
    "gen_trace": ("trace.csv",),
    "run_pipeline": ("emitted.csv", "emitted_members.csv"),
    "evaluate": ("evaluation.json",),
    "compare": ("compare.json",),
    "fit_dist": ("dist.json", "fit_report.json"),
    "estimate_fitted": ("params.json",),
    "estimate_builtin": ("params.json",),
    "predict_single": ("predict.json",),
    "predict_batch": ("predict.json",),
    "simulate_single": ("simulate.json",),
    "simulate_batch": ("simulate.json",),
    "simulate_ample": ("simulate.json",),
}

BUILTIN_PARAMS = {"capacity": 13, "timeout_s": 22}
SPAN_LEVEL = 0.95  # estimate-params' default --beta of 0.05
LITTLE_EXACT_TOL = 1e-6
LITTLE_DES_TOL = 0.05


def _json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def trace_tuples(out: Path) -> int:
    with open(out / "trace.csv", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _nondecreasing_as_gamma_falls(completeness: dict) -> bool:
    ordered = sorted(completeness.items(), key=lambda kv: -float(kv[0].split("_", 1)[1]))
    ratios = [v["ratio"] if isinstance(v, dict) else v for _, v in ordered]
    return all(a <= b for a, b in zip(ratios, ratios[1:]))


def _finite(doc: dict, keys) -> bool:
    return all(isinstance(doc.get(k), (int, float)) and math.isfinite(doc[k]) for k in keys)


def _arrival_rate(model: dict) -> float:
    a = model["arrival"]
    return a["lambda"] / a["k"]


def _hyper_erlang_cdf(doc: dict, t: float) -> float:
    return sum(b["alpha"] * stats.gamma.cdf(t, b["k"], scale=1.0 / b["lambda"])
               for b in doc["branches"])


def check(label: str, out: Path, ctx: dict) -> list:
    """Problems with the artifacts ``label`` wrote into ``out``."""
    try:
        return _CHECKS.get(label, lambda out, ctx: [])(out, ctx)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"{label}: unreadable output: {type(exc).__name__}: {exc}"]


def _check_gen_trace(out, ctx):
    n = trace_tuples(out)
    return [] if n > 0 else ["gen_trace: trace.csv holds no tuples"]


def _check_run_pipeline(out, ctx):
    problems = []
    agg = _json(out / "operator_stats.json")["aggregate"]
    if agg["tuples_in"] != ctx["tuples"]:
        problems.append(f"run_pipeline: {agg['tuples_in']} tuples in, trace has {ctx['tuples']}")
    rows = _csv_rows(out / "emitted.csv")
    emitted = sum(int(r["k"]) for r in rows)
    if emitted != ctx["tuples"]:
        problems.append(f"run_pipeline: emissions hold {emitted} tuples of {ctx['tuples']}")
    if any(int(r["k"]) > 13 for r in rows):
        problems.append("run_pipeline: a window holds more than its capacity of 13")
    if {r["close_reason"] for r in rows} - {"full", "timeout"}:
        problems.append("run_pipeline: swa closed a window for a reason other than full/timeout")
    if not (out / "emitted_members.csv").exists():
        problems.append("run_pipeline: no member sidecar")
    return problems


def _check_evaluate(out, ctx):
    problems = []
    doc = _json(out / "evaluation.json")
    cap = doc["capture_rate"]
    if not cap["captured_tuples"] == cap["total_tuples"] == ctx["tuples"]:
        problems.append(f"evaluate: captured {cap['captured_tuples']} of {cap['total_tuples']}, "
                        f"trace has {ctx['tuples']}")
    if doc["instances"] != ctx["instances"]:
        problems.append(f"evaluate: {doc['instances']} instances, trace has {ctx['instances']}")
    if not _nondecreasing_as_gamma_falls(doc["completeness"]):
        problems.append("evaluate: completeness decreases as gamma falls")
    return problems


def _check_compare(out, ctx):
    problems = []
    runs = _json(out / "compare.json")["runs"]
    labels = [r["label"] for r in runs]
    if labels != ["swa_13_22", "sliding_8000", "sliding_16000", "sliding_32000"]:
        problems.append(f"compare: unexpected runs {labels}")
    for r in runs:
        if not _nondecreasing_as_gamma_falls(r["completeness"]):
            problems.append(f"compare: {r['label']} completeness decreases as gamma falls")
        if r["capture_rate"] != 1.0:
            problems.append(f"compare: {r['label']} captured {r['capture_rate']} of the tuples")
    return problems


def _check_fit_dist(out, ctx):
    problems = []
    rep = _json(out / "fit_report.json")
    dist = rep["distribution"]
    if not 0 < rep["samples"] <= ctx["instances"]:
        problems.append(f"fit_dist: {rep['samples']} samples from {ctx['instances']} instances")
    if rep["iterations"] < 1 or not math.isfinite(rep["log_likelihood"]):
        problems.append("fit_dist: no EM iteration or a non-finite log-likelihood")
    if dist["type"] != "hyper_erlang" or len(dist["branches"]) != 2:
        problems.append("fit_dist: expected a two-branch hyper-Erlang law")
    elif abs(sum(b["alpha"] for b in dist["branches"]) - 1.0) > 1e-9:
        problems.append("fit_dist: branch weights do not sum to 1")
    if _json(out / "dist.json") != dist:
        problems.append("fit_dist: dist.json differs from the report's distribution")
    return problems


def _check_estimate_builtin(out, ctx):
    doc = _json(out / "params.json")
    return [] if doc == BUILTIN_PARAMS else [f"estimate_builtin: {doc} != {BUILTIN_PARAMS}"]


def _check_estimate_fitted(out, ctx):
    doc = _json(out / "params.json")
    law = _json(out.parent / "fit_dist" / "dist.json")
    t = doc["timeout_s"]
    problems = []
    if doc["capacity"] != BUILTIN_PARAMS["capacity"]:
        problems.append(f"estimate_fitted: capacity {doc['capacity']} for the built-in degree law")
    # the smallest whole second at which the fitted span law reaches 95%
    if not (isinstance(t, int) and t >= 1 and _hyper_erlang_cdf(law, t) >= SPAN_LEVEL - 1e-9
            and (t == 1 or _hyper_erlang_cdf(law, t - 1) < SPAN_LEVEL + 1e-9)):
        problems.append(f"estimate_fitted: timeout {t} s is not the fitted law's 95% point")
    return problems


def _check_predict(name):
    def check_exact(out, ctx):
        doc = _json(out / "predict.json")
        if not _finite(doc, ("L", "W", "Ploss")) or not 0.0 <= doc["Ploss"] <= 1.0:
            return [f"predict {name}: non-finite or out-of-range indicators"]
        lam = _arrival_rate(ctx["models"][name]) * (1.0 - doc["Ploss"])
        if abs(doc["L"] - lam * doc["W"]) > LITTLE_EXACT_TOL * max(abs(doc["L"]), 1.0):
            return [f"predict {name}: L={doc['L']} != lambda_acc*W={lam * doc['W']}"]
        return []
    return check_exact


def _check_simulate(name):
    def check_des(out, ctx):
        doc = _json(out / "simulate.json")
        if not _finite(doc, ("L", "Lq", "W", "Wq", "Pbusy", "Ploss")):
            return [f"simulate {name}: non-finite indicators"]
        model = ctx["models"][name]
        lam = _arrival_rate(model) * (1.0 - doc["Ploss"])
        ci = doc.get("ci95", {})
        slack = 2.0 * (ci.get("L", 0.0) + lam * ci.get("W", 0.0))
        if abs(doc["L"] - lam * doc["W"]) > LITTLE_DES_TOL * doc["L"] + slack:
            return [f"simulate {name}: L={doc['L']} far from lambda_acc*W={lam * doc['W']}"]
        if model["servers"] == "ample":
            s = model["service"]
            offered = _arrival_rate(model) * s["k"] / s["lambda"]
            if abs(doc["L"] - offered) > LITTLE_DES_TOL * offered + slack:
                return [f"simulate {name}: L={doc['L']} far from the offered load {offered}"]
        return []
    return check_des


def _check_absent(name):
    def check_refused(out, ctx):
        return [f"{name}: refused request still wrote {name}"] if (out / name).exists() else []
    return check_refused


_CHECKS = {
    "gen_trace": _check_gen_trace,
    "run_pipeline": _check_run_pipeline,
    "evaluate": _check_evaluate,
    "compare": _check_compare,
    "fit_dist": _check_fit_dist,
    "estimate_builtin": _check_estimate_builtin,
    "estimate_fitted": _check_estimate_fitted,
    "predict_single": _check_predict("exact_single"),
    "predict_batch": _check_predict("exact_batch"),
    "simulate_single": _check_simulate("des_single"),
    "simulate_batch": _check_simulate("des_batch"),
    "simulate_ample": _check_simulate("des_ample"),
    "refuse_states": _check_absent("predict.json"),
    "refuse_timeout": _check_absent("params.json"),
}


COUNTERS = ("engine.emissions", "engine.close_full", "engine.close_timeout",
            "engine.close_batch", "engine.open_windows_max", "distributions.em_iterations",
            "queueing.states")
# counters that are high-water marks: a pass reports their largest value, not the sum
PEAKS = ("engine.open_windows_max",)


def counters(label: str, out: Path, ctx: dict) -> dict:
    """Layer counters carried by the artifacts of one operation (keys from COUNTERS)."""
    try:
        if label == "run_pipeline":
            rows = _csv_rows(out / "emitted.csv")
            reasons = [r["close_reason"] for r in rows]
            agg = _json(out / "operator_stats.json")["aggregate"]
            return {"engine.emissions": len(rows),
                    "engine.close_full": reasons.count("full"),
                    "engine.close_timeout": reasons.count("timeout"),
                    "engine.close_batch": reasons.count("batch"),
                    "engine.open_windows_max": agg["occupancy_max"]}
        if label == "compare":
            runs = _json(out / "compare.json")["runs"]
            # every emission of a tumbling batch closes with reason "batch"
            return {"engine.emissions": sum(r["emissions"] for r in runs),
                    "engine.close_batch": sum(r["emissions"] for r in runs
                                              if r["config"]["kind"] == "sliding"),
                    "engine.open_windows_max": max(r["occupancy_max"] for r in runs
                                                   if r["config"]["kind"] == "swa")}
        if label == "fit_dist":
            return {"distributions.em_iterations": _json(out / "fit_report.json")["iterations"]}
        if label in ("predict_single", "predict_batch"):
            return {"queueing.states": exact_states(ctx["models"][label.replace("predict_", "exact_")])}
    except (OSError, ValueError, KeyError, TypeError):
        pass  # check() has already reported the unreadable artifact
    return {}


def _sha(path: Path) -> dict:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return {"sha256": h.hexdigest(), "bytes": path.stat().st_size}


def digests(label: str, out: Path) -> dict:
    """The reference entries for one operation's artifacts, keyed ``label/file``."""
    return {f"{label}/{name}": (_json(out / name) if name.endswith(".json") else _sha(out / name))
            for name in ARTIFACTS.get(label, ())}


def same(ref, got, where="") -> list:
    """Differences between two JSON values: ints exact, floats within 1e-9 relative."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in same(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: {len(got)} items != {len(ref)}"]
        return [d for i, (a, b) in enumerate(zip(ref, got)) for d in same(a, b, f"{where}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float):
        ok = ref == got or abs(ref - got) <= 1e-9 * max(abs(ref), abs(got))
        return [] if ok else [f"{where}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{where}: {got!r} != {ref!r}"]
    return []


def against_reference(label: str, out: Path, reference: dict) -> list:
    problems = []
    for key, got in digests(label, out).items():
        if key not in reference:
            problems.append(f"{key}: missing from the reference")
        else:
            problems += [f"{key} differs from the reference: {d}" for d in same(reference[key], got)]
    return problems

