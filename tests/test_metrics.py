"""Scoring: attribution, completeness, capture rate, recall, correct rate."""

import random

import pytest

from swakit.engine import EmittedInstance, PipelineConfig, Strategy, run_pipeline
from swakit.errors import ConfigError
from swakit.metrics import (
    capture_rate,
    completeness,
    evaluate,
    match_instances,
    recall_and_correct_rate,
)
from swakit.trace import TruthInstance, truth_index


def em(seqs, key=("k",), reason="full"):
    seqs = tuple(seqs)
    return EmittedInstance(
        key=key,
        count=len(seqs),
        close_reason=reason,
        opened_at=0,
        closed_at=0,
        first_ts=0,
        last_ts=0,
        response_avg=1.0,
        response_min=1,
        response_max=1,
        member_seqs=seqs,
    )


def truth_of(*entries):
    """entries: (label, degree, primary_arrival)."""
    return {
        lbl: TruthInstance(label=lbl, degree=d, primary_arrival=pa, last_arrival=pa + 1)
        for lbl, d, pa in entries
    }


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------


def test_match_majority_wins():
    tos = {0: "A", 1: "A", 2: "B"}
    truth = truth_of(("A", 2, 0), ("B", 1, 5))
    assert match_instances([em([0, 1, 2])], tos, truth) == ["A"]


def test_match_tie_goes_to_earlier_primary():
    tos = {0: "A", 1: "B"}
    truth = truth_of(("A", 1, 50), ("B", 1, 10))
    assert match_instances([em([0, 1])], tos, truth) == ["B"]


def test_match_double_tie_goes_to_smaller_label():
    tos = {0: "zz", 1: "aa"}
    truth = truth_of(("zz", 1, 7), ("aa", 1, 7))
    assert match_instances([em([0, 1])], tos, truth) == ["aa"]


def brute_force_vote(labels, truth):
    """The documented rule, step by step: most members, then earliest primary, then label."""
    tally = {}
    for lbl in labels:
        tally[lbl] = tally.get(lbl, 0) + 1
    top = max(tally.values())
    tied = [lbl for lbl in tally if tally[lbl] == top]
    earliest = min(truth[lbl].primary_arrival for lbl in tied)
    return sorted(lbl for lbl in tied if truth[lbl].primary_arrival == earliest)[0]


def test_match_agrees_with_brute_force_vote():
    rng = random.Random(20)
    count_ties = arrival_ties = 0
    for _ in range(400):
        names = rng.sample(["aa", "ab", "b", "ba"], rng.randint(2, 4))
        # two possible arrivals and counts of 1-2 per label force both ties
        truth = truth_of(*[(lbl, 4, rng.choice([0, 10])) for lbl in names])
        tos = []  # seq -> label, a list like Trace.truth
        ems, member_labels = [], []
        for _ in range(rng.randint(1, 5)):
            labels = [lbl for lbl in names for _ in range(rng.randint(1, 2))]
            rng.shuffle(labels)
            ems.append(em(range(len(tos), len(tos) + len(labels))))
            tos.extend(labels)
            member_labels.append(labels)
        expect = [brute_force_vote(labels, truth) for labels in member_labels]
        assert match_instances(ems, tos, truth) == expect
        for labels in member_labels:
            top = max(labels.count(lbl) for lbl in names)
            tied = [lbl for lbl in names if labels.count(lbl) == top]
            count_ties += len(tied) > 1
            arrival_ties += len({truth[lbl].primary_arrival for lbl in tied}) < len(tied)
    assert count_ties > 100 and arrival_ties > 50


def test_match_requires_members():
    bare = EmittedInstance(key=("k",), count=1, close_reason="full", opened_at=0,
                           closed_at=0, first_ts=0, last_ts=0, response_avg=1.0,
                           response_min=1, response_max=1, member_seqs=None)
    with pytest.raises(ConfigError):
        match_instances([bare], {}, {})


# ---------------------------------------------------------------------------
# completeness
# ---------------------------------------------------------------------------


def test_completeness_threshold_arithmetic():
    # degree 15 split 13 + 2: the best window holds 13/15 = 0.8667
    tos = {i: "A" for i in range(15)}
    truth = truth_of(("A", 15, 0))
    ems = [em(range(13)), em(range(13, 15))]
    mapping = match_instances(ems, tos, truth)
    assert completeness(ems, mapping, truth, 0.85) == (1, 1, 1.0)
    assert completeness(ems, mapping, truth, 1.0) == (0, 1, 0.0)


def test_completeness_counts_foreign_members():
    # B's only window carries one foreign tuple, so its size reaches B's
    # degree even though one true member is missing
    tos = {0: "B", 1: "B", 2: "A"}
    truth = truth_of(("A", 3, 0), ("B", 3, 1))
    ems = [em([0, 1, 2])]
    mapping = match_instances(ems, tos, truth)
    assert mapping == ["B"]
    integrated, total, _ = completeness(ems, mapping, truth, 1.0)
    assert (integrated, total) == (1, 2)


def test_completeness_gamma_bounds():
    truth = truth_of(("A", 1, 0))
    for g in (0.0, -0.2, 1.2):
        with pytest.raises(ConfigError):
            completeness([], [], truth, g)


def test_completeness_gamma_monotone_synthetic():
    tos = {0: "A", 1: "A", 2: "A", 3: "B"}
    truth = truth_of(("A", 4, 0), ("B", 1, 9))
    ems = [em([0, 1, 2]), em([3])]
    mapping = match_instances(ems, tos, truth)
    ratios = [completeness(ems, mapping, truth, g)[2]
              for g in (0.5, 0.75, 0.76, 1.0)]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[0] == 1.0 and ratios[-1] == 0.5


# ---------------------------------------------------------------------------
# capture rate / recall / correct rate
# ---------------------------------------------------------------------------


def test_capture_counts_distinct_tuples():
    ems = [em([0, 1]), em([1, 2])]
    assert capture_rate(ems, 10) == (3, 10, 0.3)


def test_recall_and_correct_synthetic():
    tos = {0: "A", 1: "A", 2: "B", 3: "C"}
    truth = truth_of(("A", 2, 0), ("B", 1, 4), ("C", 1, 8))
    ems = [em([0, 1]), em([2, 3])]  # second is impure
    mapping = match_instances(ems, tos, truth)
    (hit, total, rec), (pure, emitted, corr) = recall_and_correct_rate(
        ems, mapping, tos, truth)
    assert (hit, total) == (2, 3)
    assert rec == pytest.approx(2 / 3)
    assert (pure, emitted) == (1, 2)
    assert corr == 0.5


def test_no_emissions_vacuous_rates():
    truth = truth_of(("A", 1, 0))
    (hit, total, rec), (pure, emitted, corr) = recall_and_correct_rate(
        [], [], {}, truth)
    assert (hit, total, rec) == (0, 1, 0.0)
    assert (pure, emitted, corr) == (0, 0, 1.0)


def test_perfect_run_scores_one_everywhere():
    tos = {0: "A", 1: "A", 2: "B"}
    truth = truth_of(("A", 2, 0), ("B", 1, 5))
    ems = [em([0, 1]), em([2])]
    mapping = match_instances(ems, tos, truth)
    assert completeness(ems, mapping, truth, 1.0)[2] == 1.0
    assert capture_rate(ems, 3)[2] == 1.0
    (_, _, rec), (_, _, corr) = recall_and_correct_rate(ems, mapping, tos, truth)
    assert rec == 1.0 and corr == 1.0


# ---------------------------------------------------------------------------
# full evaluate() against an independent recomputation
# ---------------------------------------------------------------------------


def test_evaluate_matches_brute_force(swa_small_run, small_trace):
    report = evaluate(swa_small_run.emissions, small_trace, gammas=(1.0, 0.85))
    tos = small_trace.truth
    truth = truth_index(small_trace)

    # independent completeness(gamma=1): per instance, the largest window
    # attributed to it must hold at least `degree` members
    best = {}
    for e in swa_small_run.emissions:
        from collections import Counter

        counts = Counter(tos[s] for s in e.member_seqs)
        top = max(counts.values())
        cands = sorted(
            (lbl for lbl, c in counts.items() if c == top),
            key=lambda lbl: (truth[lbl].primary_arrival, lbl),
        )
        lbl = cands[0]
        if e.count > best.get(lbl, 0):
            best[lbl] = e.count
    integrated = sum(1 for lbl, t in truth.items() if best.get(lbl, 0) >= t.degree)
    assert report.completeness_counts[1.0] == (integrated, len(truth))
    assert report.completeness[1.0] == pytest.approx(integrated / len(truth))

    seen = set()
    for e in swa_small_run.emissions:
        seen.update(e.member_seqs)
    assert report.captured_tuples == len(seen)
    assert report.total_tuples == small_trace.n_tuples


def test_evaluate_report_shape_and_ranges(swa_small_run, small_trace):
    report = evaluate(swa_small_run.emissions, small_trace)
    doc = report.to_dict()
    assert set(doc) == {"instances", "emissions", "completeness", "capture_rate",
                        "recall", "correct_rate"}
    assert list(doc["completeness"]) == ["gamma_1", "gamma_0.85", "gamma_0.75"]
    for g in (1.0, 0.85, 0.75):
        assert 0.0 <= report.completeness[g] <= 1.0
    for r in (report.capture_rate, report.recall, report.correct_rate):
        assert 0.0 <= r <= 1.0
    assert doc["completeness"]["gamma_1"]["total"] == report.instances
    # raising gamma can only shrink the integrated set
    assert report.completeness[1.0] <= report.completeness[0.85] <= report.completeness[0.75]


def test_evaluate_rejects_memberless_emissions(small_trace):
    cfg = PipelineConfig(kind="swa", capacity=13, timeout_s=22,
                         strategy=Strategy.HEAD_TS_IP)
    res = run_pipeline(small_trace, cfg, keep_members=False)
    with pytest.raises(ConfigError):
        evaluate(res.emissions, small_trace)
