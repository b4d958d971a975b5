"""Scoring emitted windows against ground truth.

Every emitted window is first attributed to the truth instance owning the
majority of its member tuples (ties go to the instance whose primary
invocation arrived earliest, then lexicographically for full determinism).
On top of that mapping:

* completeness at level gamma - fraction of truth instances whose best
  attributed window holds at least gamma * degree tuples (the window size
  counts foreign members too: it is what the downstream consumer receives);
* capture rate - fraction of all trace tuples that reached some emission
  (the invocation-count reading of "partially integrated");
* recall - fraction of truth instances with at least one attributed
  emission (the instance-count reading of the same idea);
* correct rate - fraction of emissions whose members all belong to the
  instance the emission was attributed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .engine import Emissions
from .errors import ConfigError
from .trace import Trace, TruthTable, sorted_runs

__all__ = [
    "check_gamma",
    "match_instances",
    "completeness",
    "capture_rate",
    "recall_and_correct_rate",
    "EvaluationReport",
    "evaluate",
]


def check_gamma(gamma: float) -> float:
    """``gamma`` itself if it lies in (0, 1]; ConfigError otherwise."""
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    return gamma


def match_instances(emissions: Emissions, truth: TruthTable) -> np.ndarray:
    """Attribute each emission to a truth label code by member majority (-1: no members).

    Ties break to the earliest primary arrival, then to the lexicographically
    smallest label (``truth.tie``).  An emission whose members share one label
    maps to it; only the members of mixed emissions are counted and ranked.
    """
    n_labels, owner, code = len(truth.labels), emissions.owner, truth.code[emissions.seqs]
    some, mapping = emissions.count > 0, np.full(len(emissions), -1)
    mapping[some] = code[np.cumsum(emissions.count[some]) - emissions.count[some]]  # first members'
    mixed = np.bincount(owner[code != mapping[owner]], minlength=len(mapping))[owner] > 0  # members
    pairs, votes = np.unique(owner[mixed] * n_labels + code[mixed], return_counts=True)
    owner, label = np.divmod(pairs, n_labels)
    order = sorted_runs([owner, -votes, truth.tie[label]])[0]  # each emission's best first
    best = order[np.diff(owner[order], prepend=-1) != 0]
    mapping[owner[best]] = label[best]
    return mapping


def completeness(emissions: Emissions, mapping, truth: TruthTable, gamma: float):
    """(integrated, total, ratio) of instances whose best window reaches gamma."""
    check_gamma(gamma)
    best = np.zeros(len(truth.labels), np.int64)
    hit = mapping >= 0
    np.maximum.at(best, mapping[hit], emissions.count[hit])
    total = len(truth.labels)
    integrated = int(np.count_nonzero(best / truth.degree >= gamma))
    return integrated, total, (integrated / total if total else 0.0)


def capture_rate(emissions: Emissions, total_tuples: int):
    """(captured, total, ratio): distinct trace tuples present in any emission."""
    seen = np.zeros(total_tuples, bool)
    seen[emissions.seqs] = True
    captured = int(np.count_nonzero(seen))
    return captured, total_tuples, (captured / total_tuples if total_tuples else 0.0)


def recall_and_correct_rate(emissions: Emissions, mapping, truth: TruthTable):
    """((hit, total, recall), (pure, emitted, correct_rate)), counted by boolean scatters."""
    total, emitted, owner = len(truth.labels), len(mapping), emissions.owner
    hit, impure = np.zeros(total, bool), np.zeros(emitted, bool)
    hit[mapping[mapping >= 0]] = True
    impure[owner[truth.code[emissions.seqs] != mapping[owner]]] = True
    hit, pure = int(np.count_nonzero(hit)), int(np.count_nonzero((mapping >= 0) & ~impure))
    recall = hit / total if total else 0.0
    correct = pure / emitted if emitted else 1.0
    return (hit, total, recall), (pure, emitted, correct)


@dataclass
class EvaluationReport:
    """All scores for one pipeline run, JSON-serializable."""

    completeness: Dict[float, float]
    completeness_counts: Dict[float, tuple]
    capture_rate: float
    captured_tuples: int
    total_tuples: int
    recall: float
    recall_counts: tuple
    correct_rate: float
    correct_counts: tuple
    emissions: int
    instances: int

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "emissions": self.emissions,
            "completeness": {
                f"gamma_{g:g}": {
                    "integrated": self.completeness_counts[g][0],
                    "total": self.completeness_counts[g][1],
                    "ratio": self.completeness[g],
                }
                for g in sorted(self.completeness, reverse=True)
            },
            # the "partially integrated" idea has two readings; both reported
            "capture_rate": {
                "captured_tuples": self.captured_tuples,
                "total_tuples": self.total_tuples,
                "ratio": self.capture_rate,
            },
            "recall": {
                "hit": self.recall_counts[0],
                "total": self.recall_counts[1],
                "ratio": self.recall,
            },
            "correct_rate": {
                "pure": self.correct_counts[0],
                "emitted": self.correct_counts[1],
                "ratio": self.correct_rate,
            },
        }


def evaluate(
    emissions: Emissions,
    trace: Trace,
    gammas: Sequence[float] = (1.0, 0.85, 0.75),
) -> EvaluationReport:
    """Score one run's emissions against the trace's truth table (built once per trace)."""
    if emissions.seqs is None:
        raise ConfigError("emission lacks member tuples; rerun the pipeline in evaluation mode")
    outside = emissions.seqs[(emissions.seqs < 0) | (emissions.seqs >= trace.n_tuples)]
    if outside.size:
        raise ConfigError(f"emission member seq {outside[0]} is not in the trace")
    truth = trace.truth_table
    mapping = match_instances(emissions, truth)
    comp = {g: completeness(emissions, mapping, truth, g) for g in gammas}
    cap, tot, cap_ratio = capture_rate(emissions, trace.n_tuples)
    (hit, ti, rec), (pure, emitted, corr) = recall_and_correct_rate(emissions, mapping, truth)
    return EvaluationReport(
        completeness={g: c[2] for g, c in comp.items()},
        completeness_counts={g: c[:2] for g, c in comp.items()},
        capture_rate=cap_ratio,
        captured_tuples=cap,
        total_tuples=tot,
        recall=rec,
        recall_counts=(hit, ti),
        correct_rate=corr,
        correct_counts=(pure, emitted),
        emissions=emitted,
        instances=ti,
    )
