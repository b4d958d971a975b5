"""Command-line front end.

Every subcommand reads plain files, writes its artifacts into ``--out``,
and drops a ``<command>_manifest.json`` beside them recording the exact
configuration, seed, artifact paths, tool version, wall time and the minor
page faults the command took.  All randomness flows from ``--seed``: two runs
with the same inputs and seed produce byte-identical artifacts (the manifest
differs only in times and page faults).

Exit codes: 0 success, 1 usage error, 2 configuration/input error or a
request that ran out of memory (``MemoryError``), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import (
    check_fit,
    dist_from_dict,
    dist_to_dict,
    fit_hyper_erlang_em,
    read_json,
    write_json,
)
from .engine import (
    REASONS,
    PipelineConfig,
    Strategy,
    key_ids,
    read_emissions,
    run_pipeline,
    write_emissions,
)
from .errors import (
    ConfigError,
    NumericalError,
    StateSpaceError,
    SwakitError,
)
from .metrics import check_gamma, evaluate
from .params import estimate_capacity, estimate_timeout
from .queueing import des_simulate, load_model, predict
from .trace import (
    TraceConfig,
    build_catalog,
    default_arrival_dist,
    default_degree_dist,
    default_span_dist,
    generate_trace,
    on_two_threads,
    read_trace,
    sorted_runs,
    write_columns,
    write_trace,
)

MAX_SLIDING = 64  # ``compare --sliding`` entries, each one full aggregate and score of the trace

class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage problems, per our exit-code map."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextmanager
def stage(stages: dict, name: str, items: int = 0):
    """Time the block as stage ``name`` of a command; wall time and items add up."""
    rec = stages.setdefault(name, {"wall_s": 0.0, "items": 0})
    rec["items"] += items
    t0 = time.perf_counter()
    yield
    rec["wall_s"] += time.perf_counter() - t0


def _timed(fn):
    """``fn()`` and the seconds it took."""
    t0 = time.perf_counter()
    return fn(), time.perf_counter() - t0


def _manifest(args, outputs: dict, t0: float, stages: dict, extra_config=None, **extra) -> None:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    doc = {
        "tool": "swakit",
        "tool_version": __version__,
        "command": args.command,
        "config": {**cfg, **(extra_config or {})},
        "seed": getattr(args, "seed", None),
        "outputs": {k: str(v) for k, v in outputs.items()},
        "wall_time_s": round(time.monotonic() - t0, 6),
        "stages": {
            name: {"wall_s": round(r["wall_s"], 6), "items": r["items"],
                   "items_per_s": round(r["items"] / r["wall_s"], 3) if r["wall_s"] else 0.0}
            for name, r in stages.items()
        },
        **extra,
    }
    write_json(Path(args.out) / f"{args.command.replace('-', '_')}_manifest.json", doc)


def _csv_list(text: str, kind=int, what="integer"):
    try:
        return [kind(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}: {exc}") from None


def _gammas(text: str):
    return [check_gamma(g) for g in _csv_list(text, float, "numeric")]


def _load_dist_opt(path, fallback):
    return dist_from_dict(read_json(path, "distribution")) if path else fallback()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _operator(result) -> dict:
    """A run's emissions per close reason and its open-window (or buffer) high-water mark."""
    counts = np.bincount(result.emissions.reason, minlength=len(REASONS)).tolist()
    return {"emissions": len(result.emissions), "close_reasons": dict(zip(REASONS, counts)),
            "occupancy_max": result.aggregate_stats.occupancy_max}


def _key_strings(strategy: Strategy) -> tuple:
    """The trace's string columns ``strategy`` keys on (stream column ``x`` comes from ``x_id``)."""
    return tuple(f + "_id" for f in strategy.fields if f != "instance_ts")


def _members_path(emitted: Path) -> Path:
    return emitted.with_name(emitted.stem + "_members" + emitted.suffix)


# ---------------------------------------------------------------------------
# subcommands: each checks its inputs, writes its artifacts and returns their
# paths plus any extra manifest blocks; ``main`` writes the manifest
# ---------------------------------------------------------------------------


def cmd_gen_trace(args, stages):
    degree = _load_dist_opt(args.degree_dist, default_degree_dist)
    span = _load_dist_opt(args.span_dist, default_span_dist)
    arrival = _load_dist_opt(args.arrival_dist, default_arrival_dist)
    cat_seed, trace_seed = np.random.SeedSequence(args.seed).spawn(2)
    with stage(stages, "generate", args.instances):
        cfg = TraceConfig(instance_count=args.instances, arrival_dist=arrival, span_dist=span,
                          user_pool=args.user_pool, repeat_factor=args.repeat_factor,
                          seed=trace_seed)  # checked before the catalog is drawn
        catalog = build_catalog(args.services, degree, seed=cat_seed,
                                n_partitions=args.partitions, shared_atomics=args.shared_atomics)
        trace = generate_trace(catalog, cfg)
    trace_path = _out_dir(args) / "trace.csv"
    with stage(stages, "write", trace.n_tuples):
        sha = write_trace(trace, trace_path)
    with stage(stages, "columns", trace.n_tuples):
        columns_path = write_columns(trace, trace_path, sha)
    print(f"wrote {trace.n_tuples} tuples ({args.instances} instances) to {trace_path}")
    return {"trace": trace_path, "columns": columns_path}, {}


def _samples_from_args(args) -> np.ndarray:
    if args.values and args.trace:
        raise ConfigError("give either --values or --trace, not both")
    if args.values:
        try:
            return np.loadtxt(args.values, dtype=float, ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read samples from {args.values}: {exc}") from None
    if not args.trace:
        raise ConfigError("fit-dist needs --values or --trace")
    trace = read_trace(args.trace, ("truth_instance",))
    t, part = trace.truth_table, trace.partition
    # instances in the order a partition-by-partition scan meets them (the EM sums depend on
    # it): by their lowest partition, then their first row in it; labels without rows go last
    low, first = np.full(len(t.labels), np.iinfo(np.int64).max), np.full(len(t.labels), len(part))
    np.minimum.at(low, t.code, part)
    rows = np.flatnonzero(part == low[t.code])
    np.minimum.at(first, t.code[rows], rows)
    met = sorted_runs([low, first])[0][:np.count_nonzero(t.degree)]
    if args.field == "degree":
        return t.degree[met].astype(float)
    if args.field == "span_s":
        vals = (t.last - t.primary)[met] / 1000.0
        return vals[vals > 0]
    if args.field == "gap_ms":
        gaps = np.diff(np.sort(t.primary.astype(float)))
        return gaps[gaps > 0]
    raise ConfigError(f"unknown field {args.field!r}")


def cmd_fit_dist(args, stages):
    check_fit(args.branches, args.max_phases, args.max_iter, args.tol)  # before any sample is read
    with stage(stages, "read"):
        samples = _samples_from_args(args)
    n = stages["read"]["items"] = int(samples.size)
    with stage(stages, "fit", n):
        result = fit_hyper_erlang_em(samples, branches=args.branches, max_phases=args.max_phases,
                                     tol=args.tol, max_iter=args.max_iter)
    with stage(stages, "write", n):
        report = {
            "samples": n,
            "log_likelihood": result.log_likelihood,
            "iterations": result.iterations,
            "converged": result.converged,
            "degenerate": result.degenerate,
            "distribution": dist_to_dict(result.dist),
        }
        out = _out_dir(args)
        dist_path, report_path = out / "dist.json", out / "fit_report.json"
        write_json(dist_path, report["distribution"])
        write_json(report_path, report)
        outputs = {"dist": dist_path, "report": report_path}
        if args.emit_curves:
            hi = float(np.quantile(samples, 0.999)) * 1.2
            xs = np.linspace(0.0, hi, 256)
            curves_path = out / "curves.csv"
            with open(curves_path, "w", encoding="utf-8", newline="") as fh:
                fh.write("x,pdf,cdf\n")
                fh.writelines(f"{x:.8g},{float(result.dist.pdf(x)):.8g},"
                              f"{float(result.dist.cdf(x)):.8g}\n" for x in xs)
            outputs["curves"] = curves_path
    print(
        f"fit {type(result.dist).__name__} to {samples.size} samples, "
        f"log-likelihood {result.log_likelihood:.4f}"
        + (" (degenerate)" if result.degenerate else "")
    )
    return outputs, {"em": {"runs": result.em_runs, "iterations": result.em_iterations}}


def cmd_estimate_params(args, stages):
    degree = _load_dist_opt(args.degree_dist, default_degree_dist)
    span = _load_dist_opt(args.span_dist, default_span_dist)
    with stage(stages, "estimate"):
        doc = {"capacity": estimate_capacity(degree, args.alpha),
               "timeout_s": estimate_timeout(span, args.beta)}
    params_path = _out_dir(args) / "params.json"
    write_json(params_path, doc)
    print(json.dumps(doc, sort_keys=True))
    return {"params": params_path}, {}


def cmd_run_pipeline(args, stages):
    cfg = (PipelineConfig.from_dict(read_json(args.config, "pipeline config")) if args.config
           else PipelineConfig())
    if args.strategy:
        cfg.strategy = Strategy.parse(args.strategy)
    with stage(stages, "read"):
        trace = read_trace(args.trace, _key_strings(cfg.strategy))
    stages["read"]["items"] = trace.n_tuples
    with stage(stages, "aggregate", trace.n_tuples):
        result = run_pipeline(trace, cfg)
    out = _out_dir(args)
    emitted_path = out / "emitted.csv"
    members_path = None if args.no_members else _members_path(emitted_path)
    stats_path = out / "operator_stats.json"
    with stage(stages, "write", trace.n_tuples):
        columns = write_emissions(result.emissions, emitted_path, members_path)
        write_json(stats_path,
                   {"aggregate": result.aggregate_stats.to_dict(), "config": cfg.to_dict()})
    outputs = {"emitted": emitted_path, "stats": stats_path,
               **dict(zip(("emitted_columns", "members_columns"), columns))}
    if members_path:
        outputs["members"] = members_path
    print(f"{len(result.emissions)} emissions from {result.aggregate_stats.tuples_in} tuples")
    return outputs, {"extra_config": {"pipeline": cfg.to_dict()}, "operator": _operator(result)}


def cmd_evaluate(args, stages):
    gammas = _gammas(args.gamma)  # checked before anything is read
    emitted = Path(args.emitted)
    members = Path(args.members) if args.members else _members_path(emitted)
    if not members.exists():
        raise ConfigError(
            f"member sidecar {members} not found; rerun run-pipeline without --no-members"
        )
    with stage(stages, "read"):  # both at once; an error in the emissions is raised first
        emissions, trace = on_two_threads(lambda read: read(), [
            partial(read_emissions, emitted, members),
            partial(read_trace, args.trace, ("truth_instance",))])
    stages["read"]["items"] = trace.n_tuples
    with stage(stages, "score", trace.n_tuples):
        report = evaluate(emissions, trace, gammas)
    with stage(stages, "write", trace.n_tuples):
        report_path = _out_dir(args) / "evaluation.json"
        write_json(report_path, report.to_dict())
    print(json.dumps(report.to_dict(), sort_keys=True))
    return {"report": report_path}, {}


def cmd_predict(args, stages):
    with stage(stages, "load"):
        model = load_model(args.model)
    with stage(stages, "solve"):
        perf = predict(model)
    doc = perf.to_dict()
    with stage(stages, "write"):
        pred_path = _out_dir(args) / "predict.json"
        write_json(pred_path, doc)
    print(json.dumps(doc, sort_keys=True))
    return {"indicators": pred_path}, {"solver": perf.solver}


def cmd_simulate_queue(args, stages):
    model = load_model(args.model)
    perf = des_simulate(
        model,
        arrivals=args.arrivals,
        seed=args.seed,
        warmup_frac=args.warmup,
        n_batches=args.batches,
        timer=partial(stage, stages),
    )
    stages["simulate"]["items"] = perf.des["events"]
    doc = perf.to_dict()
    with stage(stages, "write"):
        sim_path = _out_dir(args) / "simulate.json"
        write_json(sim_path, doc)
    print(json.dumps({k: doc[k] for k in ("L", "Lq", "W", "Wq")}, sort_keys=True))
    return {"indicators": sim_path}, {"des": perf.des}


def cmd_compare(args, stages):
    # every request is checked before the trace is read
    gammas = _gammas(args.gamma)
    strategy = Strategy.parse(args.strategy)
    if args.sliding.count(",") >= MAX_SLIDING:  # counted before the list is split
        raise ConfigError(f"--sliding lists more than {MAX_SLIDING} entries (MAX_SLIDING)")
    runs = [(f"swa_{args.capacity}_{args.timeout}",
             PipelineConfig(tuple_size=args.tuple_size, kind="swa", capacity=args.capacity,
                            timeout_s=args.timeout, strategy=strategy))]
    runs += [(f"sliding_{w}", PipelineConfig(tuple_size=args.tuple_size, kind="sliding",
                                              window=w, step=w, strategy=strategy))
             for w in _csv_list(args.sliding)]
    with stage(stages, "read"):
        trace = read_trace(args.trace, (*_key_strings(strategy), "truth_instance"))
    stages["read"]["items"] = trace.n_tuples
    # the caches the runs share, built at once before they start: the aggregates' key ids and
    # the scores' truth table, each timed with its stage
    warm = on_two_threads(_timed, [partial(key_ids, trace.stream, strategy),
                                   lambda: trace.truth_table])

    def one_run(run):  # its compare.json row and operator block, aggregate and score times
        label, cfg = run
        result, aggregate_s = _timed(partial(run_pipeline, trace, cfg))
        rep, score_s = _timed(partial(evaluate, result.emissions, trace, gammas))
        stats = result.aggregate_stats
        return {"label": label, "config": cfg.to_dict()["aggregate"],
                "completeness": {f"gamma_{g:g}": rep.completeness[g] for g in gammas},
                **{k: getattr(rep, k) for k in ("capture_rate", "recall", "correct_rate",
                                                "emissions")},
                "occupancy_avg": stats.occupancy_avg, "occupancy_max": stats.occupancy_max,
                "storage_avg_mb": stats.storage_avg / 2**20,
                "storage_max_mb": stats.storage_max / 2**20,
                "residence_avg_s": stats.residence_avg_ms / 1000.0,
                }, {"label": label, **_operator(result)}, (aggregate_s, score_s)

    rows, operators, times = zip(*on_two_threads(one_run, runs))  # two runs at a time
    for name, (_, warm_s), walls in zip(("aggregate", "score"), warm, zip(*times)):
        stages[name] = {"wall_s": warm_s + sum(walls), "items": trace.n_tuples * len(runs)}
    doc = {"strategy": strategy.value, "runs": list(rows)}
    with stage(stages, "write", trace.n_tuples):
        cmp_path = _out_dir(args) / "compare.json"
        write_json(cmp_path, doc)
    for r in rows:  # the completeness at the first gamma listed, if any
        complete = [f"complete({k[6:]})={v:.4f} " for k, v in r["completeness"].items()][:1]
        print(
            f"{r['label']:>16}: {''.join(complete)}"
            f"capture={r['capture_rate']:.4f} occ_avg={r['occupancy_avg']:.1f} "
            f"storage_avg={r['storage_avg_mb']:.3f}MB"
        )
    return {"report": cmp_path}, {"operators": list(operators)}


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


@cache  # built once per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="swakit", description=__doc__)
    p.add_argument("--version", action="version", version=f"swakit {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=fn)
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        return sp

    sp = add("gen-trace", cmd_gen_trace, "synthesize an invocation trace")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--instances", type=int, default=13997)
    sp.add_argument("--services", type=int, default=10000)
    sp.add_argument("--repeat-factor", type=float, default=1.3997)
    sp.add_argument("--user-pool", type=int, default=5000)
    sp.add_argument("--partitions", type=int, default=2)
    sp.add_argument("--shared-atomics", action="store_true",
                    help="draw subordinate ids from a shared pool (ambiguous referrers)")
    sp.add_argument("--degree-dist", help="JSON distribution for composition degree")
    sp.add_argument("--span-dist", help="JSON distribution for instance span (seconds)")
    sp.add_argument("--arrival-dist", help="JSON distribution for arrival gaps (ms)")

    sp = add("fit-dist", cmd_fit_dist, "fit a hyper-Erlang law to samples")
    sp.add_argument("--values", help="file with one sample per line")
    sp.add_argument("--trace", help="trace CSV to draw samples from")
    sp.add_argument("--field", choices=("degree", "span_s", "gap_ms"), default="span_s")
    sp.add_argument("--branches", type=int, default=2)
    sp.add_argument("--max-phases", type=int, default=10)
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--max-iter", type=int, default=2000)
    sp.add_argument("--emit-curves", action="store_true",
                    help="also write an (x, pdf, cdf) grid")

    sp = add("estimate-params", cmd_estimate_params, "derive window capacity and timeout")
    sp.add_argument("--alpha", type=float, default=0.90,
                    help="degree coverage level for capacity")
    sp.add_argument("--beta", type=float, default=0.05,
                    help="tolerated fraction of instances outliving the timeout")
    sp.add_argument("--degree-dist", help="JSON degree distribution (default: built-in)")
    sp.add_argument("--span-dist", help="JSON span distribution in seconds (default: built-in)")

    sp = add("run-pipeline", cmd_run_pipeline,
             "replay a trace's merged stream through the window aggregate")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--config", help="pipeline config JSON")
    sp.add_argument("--strategy", help="override the config's association strategy")
    sp.add_argument("--no-members", action="store_true",
                    help="skip the member sidecar (disables later evaluation)")

    sp = add("evaluate", cmd_evaluate, "score emissions against trace ground truth")
    sp.add_argument("--emitted", required=True)
    sp.add_argument("--trace", required=True)
    sp.add_argument("--members", help="member sidecar (default: <emitted>_members.csv)")
    sp.add_argument("--gamma", default="1,0.85,0.75")

    sp = add("predict", cmd_predict, "analytic indicators for a queue model")
    sp.add_argument("--model", required=True)

    sp = add("simulate-queue", cmd_simulate_queue, "simulate a queue model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--arrivals", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--warmup", type=float, default=0.05)
    sp.add_argument("--batches", type=int, default=25)

    sp = add("compare", cmd_compare, "window mechanism shoot-out on one trace")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--capacity", type=int, default=13)
    sp.add_argument("--timeout", type=int, default=22)
    sp.add_argument("--sliding", default="8000,16000,32000",
                    help="comma list of tumbling batch sizes")
    sp.add_argument("--strategy", default="head_ts_ip")
    sp.add_argument("--gamma", default="1,0.85,0.75")
    sp.add_argument("--tuple-size", type=int, default=135)

    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.monotonic()
    stages: dict = {}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        outputs, extra = args.func(args, stages)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        _manifest(args, outputs, t0, stages, minor_faults=faults, **extra)
        return 0
    except (NumericalError, StateSpaceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (SwakitError, OSError, MemoryError) as exc:  # config, as is a request too big to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
