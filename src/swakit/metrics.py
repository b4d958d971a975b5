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

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .errors import ConfigError
from .trace import Trace, truth_index

__all__ = [
    "match_instances",
    "completeness",
    "capture_rate",
    "recall_and_correct_rate",
    "EvaluationReport",
    "evaluate",
]


def _require_members(emissions):
    for e in emissions:
        if e.member_seqs is None:
            raise ConfigError(
                "emission lacks member tuples; rerun the pipeline in evaluation mode"
            )


def match_instances(emissions, truth_of_seq, truth) -> List[Optional[str]]:
    """Attribute each emission to a truth instance by member majority.

    ``truth_of_seq[seq]`` is a member's label (``Trace.truth``).  Returns one
    label per emission (None only for empty emissions, which should not
    occur).  Ties break to the earliest primary arrival, then to the
    lexicographically smallest label.
    """
    _require_members(emissions)
    out: List[Optional[str]] = []
    for e in emissions:
        counts = Counter(truth_of_seq[s] for s in e.member_seqs)
        if not counts:
            out.append(None)
            continue
        best = min(
            counts.items(),
            key=lambda kv: (-kv[1], truth[kv[0]].primary_arrival, kv[0]),
        )
        out.append(best[0])
    return out


def completeness(emissions, mapping, truth, gamma: float):
    """(integrated, total, ratio) of instances whose best window reaches gamma."""
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    best: Dict[str, int] = {}
    for e, lbl in zip(emissions, mapping):
        if lbl is not None and e.count > best.get(lbl, 0):
            best[lbl] = e.count
    total = len(truth)
    integrated = sum(
        1 for lbl, t in truth.items() if best.get(lbl, 0) / t.degree >= gamma
    )
    return integrated, total, (integrated / total if total else 0.0)


def capture_rate(emissions, total_tuples: int):
    """(captured, total, ratio): distinct trace tuples present in any emission."""
    _require_members(emissions)
    seen = set()
    for e in emissions:
        seen.update(e.member_seqs)
    return len(seen), total_tuples, (len(seen) / total_tuples if total_tuples else 0.0)


def recall_and_correct_rate(emissions, mapping, truth_of_seq, truth):
    """((hit, total, recall), (pure, emitted, correct_rate))."""
    _require_members(emissions)
    hit = set()
    pure = 0
    for e, lbl in zip(emissions, mapping):
        if lbl is None:
            continue
        hit.add(lbl)
        if all(truth_of_seq[s] == lbl for s in e.member_seqs):
            pure += 1
    total = len(truth)
    emitted = len(emissions)
    recall = len(hit) / total if total else 0.0
    correct = pure / emitted if emitted else 1.0
    return (len(hit), total, recall), (pure, emitted, correct)


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
        doc = {
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
        return doc


def evaluate(
    emissions,
    trace: Trace,
    gammas: Sequence[float] = (1.0, 0.85, 0.75),
) -> EvaluationReport:
    """Score one run's emissions against the trace's ground truth."""
    truth = truth_index(trace)
    mapping = match_instances(emissions, trace.truth, truth)
    comp: Dict[float, float] = {}
    counts: Dict[float, tuple] = {}
    for g in gammas:
        integ, total, ratio = completeness(emissions, mapping, truth, g)
        comp[g] = ratio
        counts[g] = (integ, total)
    cap, tot, cap_ratio = capture_rate(emissions, trace.n_tuples)
    (hit, ti, rec), (pure, emitted, corr) = recall_and_correct_rate(
        emissions, mapping, trace.truth, truth
    )
    return EvaluationReport(
        completeness=comp,
        completeness_counts=counts,
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
