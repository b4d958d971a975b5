"""Fuzzed JSON documents: a malformed field exits 2, an accepted document round-trips.

Valid distribution, queue model and pipeline documents are mutated one node at
a time (property-based testing after MacIver et al., "Hypothesis: a new
approach to property-based testing", JOSS 2019) and fed to the commands that
load them, in-process.  The reference below states each document's fields,
JSON types and defaults on its own; it shares no code with the parsers.
Mutations only ever shrink a document or swap in a refused or small value, so
no accepted example starts a long search or a large solve.
"""

import contextlib
import io
import json
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as hs

from swakit import cli
from swakit.distributions import dist_from_dict, dist_to_dict, read_json
from swakit.queueing import load_model, model_to_dict


class Bad(Exception):
    """The reference refuses the document."""


def number(v):
    if (type(v) is int and abs(v) < 10**308) or (type(v) is float and v - v == 0):
        return float(v)
    raise Bad(v)


def integer(v):
    if type(v) is int and -2**63 <= v < 2**63:
        return v
    raise Bad(v)


def text(v):
    if type(v) is str:
        return v
    raise Bad(v)


def obj(v):
    if type(v) is dict:
        return v
    raise Bad(v)


def list_of(item, length=None):
    def check(v):
        if type(v) is not list or length not in (None, len(v)):
            raise Bad(v)
        return [item(x) for x in v]
    return check


def matrix(v):
    rows = list_of(list_of(number))(v)
    if len({len(r) for r in rows}) > 1:
        raise Bad(v)
    return rows


def fields(doc, schema, defaults=()):
    """``doc``'s fields in ``schema``, checked and canonical; a missing one takes its default."""
    obj(doc)
    defaults = dict(defaults)
    out = {}
    for key, check in schema.items():
        if key in doc:
            out[key] = check(doc[key])
        elif key in defaults:
            out[key] = defaults[key]
        else:
            raise Bad(key)
    return out


BRANCH = {"alpha": number, "lambda": number, "k": integer}
LAWS = {"erlang": {"lambda": number, "k": integer},
        "hyper_erlang": {"branches": list_of(lambda b: fields(b, BRANCH))},
        "ph": {"alpha": list_of(number), "T": matrix},
        "point": {"value": number}}


def canon_dist(doc):
    kind = obj(doc).get("type")
    if type(kind) is not str or kind not in LAWS:
        raise Bad(kind)
    return {"type": kind, **fields(doc, LAWS[kind])}


def canon_model(doc):
    def service(v):
        if "type" in obj(v):
            return canon_dist(v)
        return fields(v, {"mean": number, "scv": number}, {"scv": 1.0})

    return fields(doc, {"arrival": canon_dist, "service": service,
                        "servers": lambda v: v if v == "ample" else integer(v),
                        "buffer": lambda v: v if v == "unbounded" else integer(v),
                        "batch": list_of(integer, 2)},
                  {"servers": 1, "buffer": "unbounded", "batch": [1, 1]})


def canon_pipeline(doc):
    top = fields(doc, {"queue": obj, "aggregate": obj, "strategy": text},
                 {"queue": {}, "strategy": "head_ts_ip"})
    agg = fields(top["aggregate"], {"kind": text, "capacity": integer, "timeout_s": integer,
                                    "window": integer, "step": integer},
                 {"kind": "swa", "capacity": 13, "timeout_s": 22, "window": 32000, "step": None})
    if agg["step"] is None:
        agg["step"] = agg["window"]
    return {"queue": fields(top["queue"], {"tuple_size": integer}, {"tuple_size": 135}),
            "aggregate": agg, "strategy": top["strategy"]}


SPAN = {"type": "hyper_erlang", "branches": [{"alpha": 0.25, "lambda": 0.5, "k": 1},
                                             {"alpha": 0.75, "lambda": 1.5, "k": 3}]}
PH = {"type": "ph", "alpha": [0.6, 0.4], "T": [[-2.0, 1.0], [0.5, -1.5]]}
DISTS = [{"type": "erlang", "lambda": 0.5, "k": 2}, SPAN, PH, {"type": "point", "value": 3}]
MODELS = [
    {"arrival": {"type": "erlang", "lambda": 1.0, "k": 2}, "service": {"mean": 0.5, "scv": 0.5},
     "servers": 2, "buffer": "unbounded", "batch": [1, 1]},
    {"arrival": PH, "service": {"type": "erlang", "lambda": 3.0, "k": 2}, "servers": 1,
     "buffer": 4, "batch": [2, 2]},
    {"arrival": SPAN, "service": {"type": "point", "value": 0.5}, "servers": "ample"},
]
PIPELINES = [
    {"queue": {"pages": 10, "tuple_size": 135}, "strategy": "head_ts_ip",
     "aggregate": {"kind": "swa", "capacity": 5, "timeout_s": 3, "window": 40, "step": 40}},
    {"aggregate": {"kind": "sliding", "window": 60, "step": 30}, "strategy": "head"},
]
# a string, a bool, a list, null, a fraction, NaN and 400-digit integers
VALUES = ["x", "ample", "unbounded", "point", "sliding", "head", True, False, [], [1, 2], None,
          0.5, 2.5, float("nan"), 10**400, -10**400]


def paths(node, prefix=()):
    """Every node below the root, as the keys and indexes that lead to it."""
    children = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@hs.composite
def mutated(draw, docs):
    """A copy of one of ``docs`` kept, turned into a list, or with one node replaced or dropped."""
    doc = json.loads(json.dumps(draw(hs.sampled_from(docs))))
    how = draw(hs.sampled_from(["keep", "list", "replace", "drop"]))
    if how == "list":
        return [doc]
    if how == "keep":
        return doc
    *head, last = draw(hs.sampled_from(list(paths(doc))))
    parent = reduce(lambda node, key: node[key], head, doc)
    if how == "drop":
        del parent[last]
    else:
        parent[last] = draw(hs.sampled_from(VALUES))
    return doc


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    out = tmp_path_factory.mktemp("documents")
    assert cli.main(["gen-trace", "--instances", "20", "--services", "20", "--user-pool", "10",
                     "--out", str(out)]) == 0
    return out


def run_document(work, doc, *argv):
    """Write ``doc``, run ``argv`` on it in-process; the exit code, the error text and the path."""
    path = work / "doc.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*(str(path) if a == "DOC" else a for a in argv),
                         "--out", str(work / "out")])
    assert code in (0, 2, 3), err.getvalue()
    return code, err.getvalue(), path


def check(canon, doc, code, err, written_back):
    """A document the reference refuses exits 2; an accepted one, written back, is canonical."""
    try:
        want = canon(doc)
    except Bad:
        assert code == 2 and "error: " in err, (code, err)
        return
    if code == 0:
        assert json.dumps(written_back(), sort_keys=True) == json.dumps(want, sort_keys=True)


@settings(max_examples=400)
@given(doc=mutated(DISTS))
def test_distribution_documents(work, doc):
    code, err, path = run_document(work, doc, "estimate-params", "--span-dist", "DOC")
    check(canon_dist, doc, code, err,
          lambda: dist_to_dict(dist_from_dict(read_json(path, "distribution"))))


@settings(max_examples=350)
@given(doc=mutated(MODELS), command=hs.sampled_from(
    [("predict",), ("simulate-queue", "--arrivals", "100")]))
def test_queue_model_documents(work, doc, command):
    code, err, path = run_document(work, doc, *command, "--model", "DOC")
    check(canon_model, doc, code, err, lambda: model_to_dict(load_model(path)))


@settings(max_examples=300)
@given(doc=mutated(PIPELINES))
def test_pipeline_documents(work, doc):
    code, err, _ = run_document(work, doc, "run-pipeline", "--trace", str(work / "trace.csv"),
                                "--config", "DOC")
    stats = work / "out" / "operator_stats.json"
    check(canon_pipeline, doc, code, err, lambda: json.loads(stats.read_text())["config"])
