"""Scoring: attribution, completeness, capture rate, recall, correct rate."""

import random
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, strategies as hs

from swakit.engine import Emissions, read_emissions, write_emissions
from swakit.errors import ConfigError
from swakit.metrics import (
    capture_rate,
    completeness,
    evaluate,
    match_instances,
    recall_and_correct_rate,
)
from swakit.trace import Trace

from conftest import emission_rows

Em = namedtuple("Em", "count member_seqs")


def em(seqs):
    seqs = tuple(seqs)
    return Em(len(seqs), seqs)


def columns(emissions, members=True):
    """The ``Emissions`` of ``em`` rows (of no members when ``members`` is false)."""
    n = len(emissions)
    seqs = [s for e in emissions for s in e.member_seqs]
    return Emissions(lambda: ["k"], np.zeros(n, np.int64), np.array([e.count for e in emissions], np.int64),
                     np.zeros(n, np.int8), np.zeros(n, np.int64), np.ones(n),
                     np.zeros(n, np.int64), np.array(seqs, np.int64) if members else None)


def labelled(*entries):
    """A trace of (label, timestamp) tuples, given in seq order (time order)."""
    return Trace.from_rows([(ts, "u", "s", "h", 0, 1, lbl, 0) for lbl, ts in entries])


def scored(entries, emissions):
    """(members, mapping as labels, truth table) of ``emissions`` over a labelled trace."""
    trace = labelled(*entries)
    members = columns(emissions)
    mapping = match_instances(members, trace.truth_table)
    labels = [trace.labels[c] if c >= 0 else None for c in mapping.tolist()]
    return members, mapping, labels, trace.truth_table


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------


def test_match_majority_wins():
    _, _, labels, _ = scored([("A", 0), ("A", 0), ("B", 5)], [em([0, 1, 2])])
    assert labels == ["A"]


def test_match_tie_goes_to_earlier_primary():
    _, _, labels, _ = scored([("B", 10), ("A", 50)], [em([0, 1])])
    assert labels == ["B"]


def test_match_double_tie_goes_to_smaller_label():
    _, _, labels, _ = scored([("zz", 7), ("aa", 7)], [em([0, 1])])
    assert labels == ["aa"]


def brute_force_vote(labels, primary):
    """The documented rule, step by step: most members, then earliest primary, then label."""
    tally = {}
    for lbl in labels:
        tally[lbl] = tally.get(lbl, 0) + 1
    top = max(tally.values())
    tied = [lbl for lbl in tally if tally[lbl] == top]
    earliest = min(primary[lbl] for lbl in tied)
    return sorted(lbl for lbl in tied if primary[lbl] == earliest)[0]


def test_match_agrees_with_brute_force_vote():
    rng = random.Random(20)
    count_ties = arrival_ties = 0
    for _ in range(400):
        names = rng.sample(["aa", "ab", "b", "ba"], rng.randint(2, 4))
        # two possible arrivals and counts of 1-2 per label force both ties;
        # each label's first tuple (at its primary arrival) sits in no emission
        primary = {lbl: rng.choice([0, 10]) for lbl in names}
        entries = sorted(((lbl, primary[lbl]) for lbl in names), key=lambda e: e[1])
        ems, member_labels = [], []
        for _ in range(rng.randint(1, 5)):
            labels = [lbl for lbl in names for _ in range(rng.randint(1, 2))]
            rng.shuffle(labels)
            ems.append(em(range(len(entries), len(entries) + len(labels))))
            entries += [(lbl, 20) for lbl in labels]
            member_labels.append(labels)
        expect = [brute_force_vote(labels, primary) for labels in member_labels]
        assert scored(entries, ems)[2] == expect
        for labels in member_labels:
            top = max(labels.count(lbl) for lbl in names)
            tied = [lbl for lbl in names if labels.count(lbl) == top]
            count_ties += len(tied) > 1
            arrival_ties += len({primary[lbl] for lbl in tied}) < len(tied)
    assert count_ties > 100 and arrival_ties > 50


LABELS = ["aa", "ab", "b", "ba"]


@given(hs.lists(hs.sampled_from([0, 10]), min_size=len(LABELS), max_size=len(LABELS)),
       hs.lists(hs.one_of(hs.just([]),  # memberless
                          hs.tuples(hs.sampled_from(LABELS), hs.integers(1, 3)).map(
                              lambda drawn: [drawn[0]] * drawn[1]),  # unanimous
                          hs.lists(hs.sampled_from(LABELS), min_size=2, max_size=6)),  # often mixed
                max_size=8))
def test_match_mixes_unanimous_mixed_and_memberless_emissions(arrivals, members):
    """One call over every kind of emission, with count ties and primary-arrival ties (two
    arrivals for four labels); each label's first tuple sits in no emission."""
    primary = dict(zip(LABELS, arrivals))
    entries = sorted(((lbl, primary[lbl]) for lbl in LABELS), key=lambda e: e[1])
    ems = []
    for labels in members:
        ems.append(em(range(len(entries), len(entries) + len(labels))))
        entries += [(lbl, 20) for lbl in labels]
    expect = [brute_force_vote(labels, primary) if labels else None for labels in members]
    assert scored(entries, ems)[2] == expect


def test_match_requires_members():
    bare = columns([em([0])], members=False)
    with pytest.raises(ConfigError):
        evaluate(bare, labelled(("A", 0)))


def test_member_outside_trace_rejected():
    for seq in (-1, 3):
        with pytest.raises(ConfigError, match="not in the trace"):
            evaluate(columns([em([0, seq])]), labelled(("A", 0), ("A", 0), ("A", 0)))


# ---------------------------------------------------------------------------
# completeness
# ---------------------------------------------------------------------------


def test_completeness_threshold_arithmetic():
    # degree 15 split 13 + 2: the best window holds 13/15 = 0.8667
    members, mapping, _, truth = scored([("A", 0)] * 15, [em(range(13)), em(range(13, 15))])
    assert completeness(members, mapping, truth, 0.85) == (1, 1, 1.0)
    assert completeness(members, mapping, truth, 1.0) == (0, 1, 0.0)


def test_completeness_counts_foreign_members():
    # B's only window carries one foreign tuple, so its size reaches B's
    # degree even though one true member is missing
    entries = [("A", 0), ("B", 1), ("B", 1), ("A", 2), ("A", 2), ("B", 3)]
    members, mapping, labels, truth = scored(entries, [em([1, 2, 3])])
    assert labels == ["B"]
    integrated, total, _ = completeness(members, mapping, truth, 1.0)
    assert (integrated, total) == (1, 2)


def test_completeness_gamma_bounds():
    members, mapping, _, truth = scored([("A", 0)], [])
    for g in (0.0, -0.2, 1.2):
        with pytest.raises(ConfigError):
            completeness(members, mapping, truth, g)


def test_completeness_gamma_monotone_synthetic():
    entries = [("A", 0), ("A", 0), ("A", 0), ("B", 9), ("A", 10)]
    members, mapping, _, truth = scored(entries, [em([0, 1, 2]), em([3])])
    ratios = [completeness(members, mapping, truth, g)[2]
              for g in (0.5, 0.75, 0.76, 1.0)]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[0] == 1.0 and ratios[-1] == 0.5


# ---------------------------------------------------------------------------
# capture rate / recall / correct rate
# ---------------------------------------------------------------------------


def test_capture_counts_distinct_tuples():
    assert capture_rate(columns([em([0, 1]), em([1, 2])]), 10) == (3, 10, 0.3)


def test_recall_and_correct_synthetic():
    entries = [("A", 0), ("A", 0), ("B", 4), ("C", 8)]
    members, mapping, _, truth = scored(entries, [em([0, 1]), em([2, 3])])  # second is impure
    (hit, total, rec), (pure, emitted, corr) = recall_and_correct_rate(members, mapping, truth)
    assert (hit, total) == (2, 3)
    assert rec == pytest.approx(2 / 3)
    assert (pure, emitted) == (1, 2)
    assert corr == 0.5


def test_recall_and_correct_match_a_loop_per_emission():
    """The scatter counts against one Python pass per emission, for any attribution: a label
    not the majority, or none (-1) for an emission with members too."""
    rng = random.Random(52)
    for case in range(300):
        labels = rng.choices("abcd", k=rng.randint(1, 12))
        entries = [(lbl, i) for i, lbl in enumerate(labels)]
        emissions = [em(rng.sample(range(len(entries)), rng.randint(0, min(4, len(entries)))))
                     for _ in range(rng.randint(0, 6) if case else 0)]
        trace = labelled(*entries)
        truth, members = trace.truth_table, columns(emissions)
        mapping = np.array([rng.randrange(-1, len(truth.labels)) for _ in emissions], np.int64)
        hit, pure = set(), 0
        for e, m in zip(emissions, mapping.tolist()):
            if m >= 0:
                hit.add(m)
                pure += all(trace.truth[s] == m for s in e.member_seqs)
        total, n = len(truth.labels), len(emissions)
        assert recall_and_correct_rate(members, mapping, truth) == (
            (len(hit), total, len(hit) / total), (pure, n, pure / n if n else 1.0))


def test_no_emissions_vacuous_rates():
    members, mapping, _, truth = scored([("A", 0)], [])
    (hit, total, rec), (pure, emitted, corr) = recall_and_correct_rate(members, mapping, truth)
    assert (hit, total, rec) == (0, 1, 0.0)
    assert (pure, emitted, corr) == (0, 0, 1.0)


def test_perfect_run_scores_one_everywhere():
    members, mapping, _, truth = scored([("A", 0), ("A", 0), ("B", 5)], [em([0, 1]), em([2])])
    assert completeness(members, mapping, truth, 1.0)[2] == 1.0
    assert capture_rate(members, 3)[2] == 1.0
    (_, _, rec), (_, _, corr) = recall_and_correct_rate(members, mapping, truth)
    assert rec == 1.0 and corr == 1.0


# ---------------------------------------------------------------------------
# full evaluate() against an independent recomputation
# ---------------------------------------------------------------------------


def test_evaluate_matches_brute_force(swa_small_run, small_trace):
    report = evaluate(swa_small_run.emissions, small_trace, gammas=(1.0, 0.85))
    tos = [small_trace.labels[c] for c in small_trace.truth.tolist()]
    t = small_trace.truth_table
    primary = dict(zip(t.labels, t.primary.tolist()))
    degree = dict(zip(t.labels, t.degree.tolist()))

    # independent completeness(gamma=1): per instance, the largest window
    # attributed to it must hold at least `degree` members
    best = {}
    for e in emission_rows(swa_small_run.emissions):
        from collections import Counter

        counts = Counter(tos[s] for s in e.member_seqs)
        top = max(counts.values())
        cands = sorted(
            (lbl for lbl, c in counts.items() if c == top),
            key=lambda lbl: (primary[lbl], lbl),
        )
        lbl = cands[0]
        if e.count > best.get(lbl, 0):
            best[lbl] = e.count
    integrated = sum(1 for lbl, d in degree.items() if best.get(lbl, 0) >= d)
    assert report.completeness_counts[1.0] == (integrated, len(degree))
    assert report.completeness[1.0] == pytest.approx(integrated / len(degree))

    seen = set()
    for e in emission_rows(swa_small_run.emissions):
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


def test_evaluate_rejects_memberless_emissions(swa_small_run, small_trace, tmp_path):
    path = tmp_path / "emitted.csv"
    write_emissions(swa_small_run.emissions, path)
    memberless = read_emissions(path)  # no sidecar, so no members
    assert memberless.seqs is None
    with pytest.raises(ConfigError):
        evaluate(memberless, small_trace)


# ---------------------------------------------------------------------------
# evaluate() as a whole against a scorer written from the module docstring
# ---------------------------------------------------------------------------


def brute_force_report(entries, emissions, gammas):
    """Every field of ``EvaluationReport.to_dict``, from the labelled tuples alone."""
    degree, primary = {}, {}
    for lbl, ts in entries:
        degree[lbl] = degree.get(lbl, 0) + 1
        primary[lbl] = min(primary.get(lbl, ts), ts)
    attributed = [brute_force_vote([entries[s][0] for s in e.member_seqs], primary)
                  if e.member_seqs else None for e in emissions]
    best = {}
    for e, lbl in zip(emissions, attributed):
        if lbl is not None:
            best[lbl] = max(best.get(lbl, 0), e.count)
    total = len(degree)
    completeness_doc = {}
    for g in sorted(gammas, reverse=True):
        integrated = sum(1 for lbl in degree if best.get(lbl, 0) / degree[lbl] >= g)
        completeness_doc[f"gamma_{g:g}"] = {"integrated": integrated, "total": total,
                                            "ratio": integrated / total}
    captured = len({s for e in emissions for s in e.member_seqs})
    hit = len({lbl for lbl in attributed if lbl is not None})
    pure = sum(1 for e, lbl in zip(emissions, attributed)
               if lbl is not None and all(entries[s][0] == lbl for s in e.member_seqs))
    return {
        "instances": total,
        "emissions": len(emissions),
        "completeness": completeness_doc,
        "capture_rate": {"captured_tuples": captured, "total_tuples": len(entries),
                         "ratio": captured / len(entries)},
        "recall": {"hit": hit, "total": total, "ratio": hit / total},
        "correct_rate": {"pure": pure, "emitted": len(emissions),
                         "ratio": pure / len(emissions) if emissions else 1.0},
    }


def test_evaluate_matches_brute_force_report():
    rng = random.Random(31)
    shapes = {"shared": 0, "foreign": 0, "count_tie": 0, "arrival_tie": 0, "none": 0}
    for case in range(300):
        # a few labels over few timestamps: count and primary-arrival ties
        names = ["a", "b", "c", "d"][:rng.randint(1, 4)]
        stamps = sorted(rng.choice([0, 0, 5, 9]) for _ in range(rng.randint(1, 14)))
        entries = [(rng.choice(names), ts) for ts in stamps]
        # tuples may sit in several emissions, or in none; case 0 emits nothing
        emissions = [em(rng.sample(range(len(entries)), rng.randint(0, min(5, len(entries)))))
                     for _ in range(rng.randint(0, 6) if case else 0)]
        gammas = rng.sample([1.0, 0.85, 0.75, 0.5, 0.2], rng.randint(1, 3))
        got = evaluate(columns(emissions), labelled(*entries), gammas).to_dict()
        assert got == brute_force_report(entries, emissions, gammas)
        seqs = [s for e in emissions for s in e.member_seqs]
        shapes["shared"] += len(seqs) > len(set(seqs))
        shapes["none"] += not emissions
        for e in emissions:
            labels = [entries[s][0] for s in e.member_seqs]
            shapes["foreign"] += len(set(labels)) > 1
            tied = [lbl for lbl in set(labels)
                    if labels.count(lbl) == max(map(labels.count, labels))]
            first = [min(ts for lbl2, ts in entries if lbl2 == lbl) for lbl in tied]
            shapes["count_tie"] += len(tied) > 1
            shapes["arrival_tie"] += len(set(first)) < len(first)
    assert min(shapes.values()) >= 1 and shapes["count_tie"] > 20 and shapes["arrival_tie"] > 10
