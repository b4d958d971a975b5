"""The benchmark's workloads: the CLI commands each one runs, and their inputs.

A workload is a set-up (``gen-trace`` for the seed, plus the queue model
documents) followed by passes.  One pass is the list of CLI commands a user of
that workload issues back to back; every command is one operation with an
expected exit code.  Only the seed and the scale change the inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Trace and simulator sizes.  ``full`` is the ROADMAP's full-scale trace
# (seed 0: 13,997 instances, 158,707 tuples); ``toy`` runs every workload and
# every check in seconds and is what the benchmark's own tests use.
SCALES = {
    "full": {"instances": 13997, "services": 10000, "des_arrivals": 100_000,
             "single_buffer": 2000, "batch_buffer": 1000},
    "toy": {"instances": 300, "services": 250, "des_arrivals": 2_000,
            "single_buffer": 100, "batch_buffer": 60},
}

SETUP_REPEATS = 3
GAMMAS = "1,0.85,0.75"
SLIDING = "8000,16000,32000"
BATCH_K = 20


def _erlang(mean, k):
    return {"type": "erlang", "lambda": k / mean, "k": k}


def model_documents(scale: str) -> dict:
    """Queue models for ``size``; exact-chain state counts follow from (m, n, N, K)."""
    s = SCALES[scale]
    return {
        # PH/PH/1/N, m=4, n=8: m + N*m*n states (64,004 at full scale)
        "exact_single": {"arrival": _erlang(1.0, 4), "service": _erlang(0.9, 8),
                         "servers": 1, "buffer": s["single_buffer"]},
        # fixed batch K=20, m=4, n=8: K*m + (N-K+1)*m*n states (31,472 at full scale)
        "exact_batch": {"arrival": _erlang(1.0, 4), "service": _erlang(15.0, 8),
                        "servers": 1, "buffer": s["batch_buffer"], "batch": [BATCH_K, BATCH_K]},
        "des_single": {"arrival": _erlang(1.0, 1), "service": _erlang(0.8, 2),
                       "servers": 1, "buffer": 70},
        "des_batch": {"arrival": _erlang(0.9457, 1), "service": _erlang(0.6121, 1),
                      "servers": 1, "buffer": 60, "batch": [BATCH_K, BATCH_K]},
        "des_ample": {"arrival": _erlang(1.0, 1), "service": _erlang(5.0, 2),
                      "servers": "ample"},
        # m=4, n=10, N=5000: 200,004 states, over the solver's state cap
        "refuse_states": {"arrival": _erlang(1.0, 4), "service": _erlang(0.9, 10),
                          "servers": 1, "buffer": 5000},
    }


# A span law whose 95% point (about 300,000 s) lies beyond the 86,400 s
# search limit of estimate-params.
HOPELESS_SPAN = _erlang(100_000.0, 1)

# ``size`` always fits the full-scale reference trace (seed 0), and its --seed
# drives the simulator only.  The EM fitter's work depends strongly on the
# sample: fit-dist took 6 to 11 s on the traces of seeds 0-8 on a 2-vCPU Xeon,
# with seed 0 among the slowest, so a seed-dependent fit would bury every
# other change to ``size`` in input variation.
SIZE_TRACE_SEED = 0


def exact_states(doc: dict) -> int:
    """State count of an exact chain, from the phase counts, buffer and batch size."""
    m, n = doc["arrival"]["k"], doc["service"]["k"]
    N = doc["buffer"]
    K = doc.get("batch", [1, 1])[0]
    if K == 1:
        return m + N * m * n
    return K * m + (N - K + 1) * m * n


@dataclass(frozen=True)
class Op:
    """One CLI command: ``label`` names it, ``out`` is its output directory."""

    label: str
    args: tuple
    out: str
    expect: int = 0

    @property
    def argv(self) -> list:
        return [*self.args, "--out", self.out]

    @property
    def command(self) -> str:
        return self.args[0]


def setup_op(workload: str, work: Path, scale: str, seed: int) -> Op:
    s = SCALES[scale]
    trace_seed = SIZE_TRACE_SEED if workload == "size" else seed
    return Op("gen_trace", ("gen-trace", "--seed", str(trace_seed),
                            "--instances", str(s["instances"]), "--services", str(s["services"])),
              str(work / "input"))


def write_models(work: Path, scale: str) -> None:
    models = work / "input" / "models"
    models.mkdir(parents=True, exist_ok=True)
    docs = dict(model_documents(scale), hopeless_span=HOPELESS_SPAN)
    for name, doc in docs.items():
        (models / f"{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def pass_ops(workload: str, work: Path, scale: str, seed: int) -> list:
    """The operations of one pass; each writes into ``work/pass/<label>``."""
    trace = str(work / "input" / "trace.csv")
    models = work / "input" / "models"
    out = work / "pass"

    def op(label, *args, expect=0):
        return Op(label, args, str(out / label), expect)

    if workload == "reassemble":
        # the README's main flow, then the sweep of swa against tumbling windows
        return [
            op("run_pipeline", "run-pipeline", "--trace", trace, "--strategy", "head_ts_ip"),
            op("evaluate", "evaluate", "--emitted", str(out / "run_pipeline" / "emitted.csv"),
               "--trace", trace, "--gamma", GAMMAS),
            op("compare", "compare", "--trace", trace, "--capacity", "13", "--timeout", "22",
               "--sliding", SLIDING, "--strategy", "head_ts_ip", "--gamma", GAMMAS),
        ]
    if workload == "size":
        arrivals = str(SCALES[scale]["des_arrivals"])
        return [
            op("fit_dist", "fit-dist", "--trace", trace, "--field", "span_s", "--branches", "2"),
            op("estimate_fitted", "estimate-params",
               "--span-dist", str(out / "fit_dist" / "dist.json")),
            op("estimate_builtin", "estimate-params"),
            op("predict_single", "predict", "--model", str(models / "exact_single.json")),
            op("predict_batch", "predict", "--model", str(models / "exact_batch.json")),
            *(op(f"simulate_{path}", "simulate-queue", "--model", str(models / f"des_{path}.json"),
                 "--arrivals", arrivals, "--seed", str(seed))
              for path in ("single", "batch", "ample")),
            op("refuse_states", "predict", "--model", str(models / "refuse_states.json"),
               expect=3),
            op("refuse_timeout", "estimate-params",
               "--span-dist", str(models / "hopeless_span.json"), expect=2),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Operations that turn the trace into the workload's answer, and how many
# configurations they score together: the base of ``tuples_per_s``.  For
# ``reassemble`` that is swa in the main flow, then swa and each tumbling size
# in compare.
TRACE_OPS = {
    "reassemble": (("run_pipeline", "evaluate", "compare"), 2 + len(SLIDING.split(","))),
    "size": (("fit_dist", "estimate_fitted"), 1),
}

WORKLOADS = tuple(TRACE_OPS)
