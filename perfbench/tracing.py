"""Spans around the program's public functions, for the traced passes only.

Each listed function is looked up by name in its home module and, while a
traced pass runs, replaced by a wrapper in every ``swakit.*`` namespace that
binds it (``run_pipeline`` is bound in ``swakit.engine`` and ``swakit.cli``,
``truth_index`` in three modules).  A name the program no longer has is
reported as absent; its metrics read 0.  While estimate-params runs (and only
then, so that the refused search is not slowed), the distributions' ``cdf``
methods get a counting wrapper that charges each call to the innermost span.

Spans stay in memory as plain dicts (name, op, pass, parent, start, end, CPU
start and end, counts) and go out with the worker's result.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter, process_time

FUNCTIONS = {
    "trace": ("generate_trace", "write_trace", "read_trace", "replay", "truth_by_seq",
              "truth_index"),
    "engine": ("union", "aggregate_swa", "aggregate_sliding", "write_emissions",
               "read_emissions"),
    "metrics": ("evaluate", "match_instances"),
    "distributions": ("fit_hyper_erlang_em",),
    "params": ("estimate_capacity", "estimate_timeout"),
    "queueing": ("load_model", "predict", "solve_ph_ph_1_n", "solve_batch_ph_ph_1_n",
                 "des_simulate"),
}

COMMANDS = ("gen-trace", "run-pipeline", "evaluate", "compare", "fit-dist", "estimate-params",
            "predict", "simulate-queue")


class Recorder:
    """Nested spans of one single-threaded run."""

    def __init__(self, pass_id: int):
        self.spans: list = []
        self._open: list = []
        self.op = None
        self.pass_id = pass_id
        self.in_cdf = False

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op, "pass": self.pass_id,
               "parent": self._open[-1] if self._open else None, "counts": {},
               "start": perf_counter(), "cpu_start": process_time()}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            rec["cpu_end"] = process_time()
            self._open.pop()

    def count(self, what: str) -> None:
        if self._open:
            counts = self.spans[self._open[-1]]["counts"]
            counts[what] = counts.get(what, 0) + 1


def _spanned(fn, name, rec):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counted(fn, rec):
    # a law built from other laws (hyper-Erlang from Erlang branches) counts once
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.in_cdf:
            return fn(*args, **kwargs)
        rec.count("cdf")
        rec.in_cdf = True
        try:
            return fn(*args, **kwargs)
        finally:
            rec.in_cdf = False
    return wrapper


def instrument(rec: Recorder):
    """Install the wrappers; returns (undo list, absent function names)."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "swakit" or n.startswith("swakit."))]
    undo, absent = [], []
    for mod_name, names in FUNCTIONS.items():
        home = sys.modules.get(f"swakit.{mod_name}")
        for attr in names:
            orig = getattr(home, attr, None)
            if not callable(orig):
                absent.append(f"{mod_name}.{attr}")
                continue
            wrapped = _spanned(orig, f"{mod_name}.{attr}", rec)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
    return undo, absent


def count_cdf(rec: Recorder) -> list:
    """Count calls of every distribution class's ``cdf``; returns the undo list."""
    undo = []
    dists = sys.modules.get("swakit.distributions")
    for cls in list(vars(dists).values()) if dists else ():
        if not (isinstance(cls, type) and cls.__module__ == dists.__name__):
            continue
        cdf = cls.__dict__.get("cdf")
        if inspect.isfunction(cdf):
            undo.append((cls, "cdf", cdf))
            setattr(cls, "cdf", _counted(cdf, rec))
    return undo


def restore(undo) -> None:
    for obj, attr, orig in reversed(undo):
        setattr(obj, attr, orig)


def _self_times(spans) -> list:
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    return [d - c for d, c in zip(dur, child)]


def layer_metrics(spans, counters: dict) -> dict:
    """Per-layer figures of one traced pass (or the traced set-up)."""
    self_t = _self_times(spans)
    module = [s["name"].split(".", 1)[0] for s in spans]

    def pick(name=None, op=None, mod=None, outermost=False):
        for i, s in enumerate(spans):
            if name is not None and s["name"] != name:
                continue
            if op is not None and not op(s["op"] or ""):
                continue
            if mod is not None and (module[i] != mod or (
                    outermost and s["parent"] is not None and module[s["parent"]] == mod)):
                continue
            yield i, s

    def wall(**kw):
        return sum(s["end"] - s["start"] for _, s in pick(**kw))

    def calls(**kw):
        return sum(1 for _ in pick(**kw))

    def only(label):
        return lambda op: op == label

    def not_refusal(op):
        return not op.startswith("refuse_")

    out = {
        "trace.generate_s": wall(name="trace.generate_trace"),
        "trace.write_s": wall(name="trace.write_trace"),
        "trace.read_s": wall(name="trace.read_trace"),
        "trace.read_calls": calls(name="trace.read_trace"),
        "trace.replay_s": wall(name="trace.replay"),
        "trace.replay_calls": calls(name="trace.replay"),
        "trace.truth_by_seq_s": wall(name="trace.truth_by_seq"),
        "trace.truth_index_s": wall(name="trace.truth_index"),
        "trace.truth_index_calls": calls(name="trace.truth_index"),
        "engine.union_s": wall(name="engine.union"),
        "engine.aggregate_swa_s": wall(name="engine.aggregate_swa"),
        "engine.aggregate_sliding_s": wall(name="engine.aggregate_sliding"),
        "engine.write_emissions_s": wall(name="engine.write_emissions"),
        "engine.read_emissions_s": wall(name="engine.read_emissions"),
        "metrics.evaluate_s": sum(self_t[i] for i, _ in pick(name="metrics.evaluate")),
        "metrics.match_instances_s": wall(name="metrics.match_instances"),
        "metrics.evaluate_calls": calls(name="metrics.evaluate"),
        "distributions.fit_em_s": wall(name="distributions.fit_hyper_erlang_em"),
        "distributions.fit_cpu_s": sum(s["cpu_end"] - s["cpu_start"] for _, s in
                                       pick(name="distributions.fit_hyper_erlang_em")),
        "params.estimate_s": wall(mod="params", outermost=True, op=not_refusal),
        "params.cdf_calls": sum(s["counts"].get("cdf", 0) for s in spans),
        "params.refuse_s": wall(mod="params", outermost=True, op=only("refuse_timeout")),
        "queueing.solve_single_s": wall(name="queueing.solve_ph_ph_1_n", op=not_refusal),
        "queueing.solve_batch_s": wall(name="queueing.solve_batch_ph_ph_1_n", op=not_refusal),
        "queueing.des_single_s": wall(name="queueing.des_simulate", op=only("simulate_single")),
        "queueing.des_batch_s": wall(name="queueing.des_simulate", op=only("simulate_batch")),
        "queueing.des_ample_s": wall(name="queueing.des_simulate", op=only("simulate_ample")),
        "queueing.refuse_s": wall(mod="queueing", outermost=True, op=only("refuse_states")),
    }
    for command in COMMANDS:
        name = "cli." + command.replace("-", "_")
        out[name + "_s"] = sum(self_t[i] for i, _ in pick(name=name))
    out.update(counters)
    return out
