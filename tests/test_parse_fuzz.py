"""Mutated .ggf documents against the whole-array parser and the CLI contract.

Each example starts from a valid document and applies up to three
mutations: wrong types, floats or booleans for n/u/v, wrong gain widths,
u >= v, duplicates, out-of-range vertices, non-unit gains and huge vertex
counts.  `parse` must raise the class that `reference_refusal`, an
edge-by-edge parser, predicts; `spectrum` and `balance` must exit 0 or 2,
never raise, and on exit 2 write exactly one `error:` line.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dualgain import (  # noqa: E402
    BadParameterError,
    BadRingError,
    DualGainError,
    DualScalar,
    DuplicateEdgeError,
    GraphSyntaxError,
    NotUnitGainError,
    RINGS,
    SizeCapExceededError,
    parse,
)
from dualgain.cli import run  # noqa: E402
from dualgain.scalars import RING_WIDTH  # noqa: E402

# vertex counts far beyond what the O(n) arrays of any machine hold
HUGE_COUNTS = (10**12, 10**30, 2**64)

# exact units: <std, dual> = 0 and |std| = 1 with no rounding
UNITS = {
    "real": [([1.0], [0.0]), ([-1], [0])],
    "complex": [([1.0, 0.0], [0.0, 0.5]), ([0, -1], [0.25, 0.0]), ([-1.0, 0.0], [0.0, 0.0])],
    "quaternion": [([1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]),
                   ([0.0, 0.0, -1.0, 0.0], [0.5, 0.0, 0.0, 0.25]),
                   ([0, 0, 0, 1], [0, 0, 0, 0])],
}


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def reference_refusal(text, tol=1e-9):
    """The exception class `parse` raises for `text`, or None.

    This is the edge-by-edge parser the arrays replaced, with three
    deliberate changes marked below.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        return GraphSyntaxError
    if not isinstance(doc, dict) or doc.get("format") != "dual-gain-graph":
        return GraphSyntaxError
    if doc.get("version") != 1:
        return GraphSyntaxError
    ring = doc.get("ring")
    if ring not in RINGS:
        return BadRingError
    try:
        n = doc["n"]
        records = list(doc["edges"])
    except (KeyError, TypeError):
        return GraphSyntaxError
    if not _is_integer(n):
        return GraphSyntaxError
    edges, gains = [], []
    for rec in records:
        try:
            u, v = rec["u"], rec["v"]
            parts = [rec["gain_std"], rec["gain_dual"]]
        except (KeyError, TypeError):
            return GraphSyntaxError
        if not (_is_integer(u) and _is_integer(v)):
            return GraphSyntaxError
        # change 1: components must be JSON numbers; the edge-by-edge parser
        # took whatever float() took ("1", true, the characters of "10")
        if any(type(part) is not list
               or any(type(c) not in (int, float) for c in part) for part in parts):
            return GraphSyntaxError
        # change 2: a component beyond the float range is a syntax error;
        # the edge-by-edge parser let float()'s OverflowError escape
        try:
            parts = [[float(c) for c in part] for part in parts]
        except OverflowError:
            return GraphSyntaxError
        if any(len(part) != RING_WIDTH[ring] for part in parts):
            return GraphSyntaxError
        if not u < v:
            return GraphSyntaxError
        edges.append((u, v))
        gains.append(parts)
    if n < 0:
        return BadParameterError
    # change 3: a vertex count whose O(n) arrays exceed physical memory
    if n >= min(HUGE_COUNTS):
        return SizeCapExceededError
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return BadParameterError
        if (u, v) in seen:
            return DuplicateEdgeError
        seen.add((u, v))
    for _, (std, dual) in sorted(zip(edges, gains)):
        if not DualScalar.from_components(ring, std, dual).is_unit(tol):
            return NotUnitGainError
    return None


# --- mutations: each takes (draw, doc) and changes doc in place -----------


def _record(draw, doc):
    """A record dict of the document, or None when there is none."""
    records = [r for r in doc.get("edges", ()) if isinstance(r, dict)] \
        if isinstance(doc.get("edges"), list) else []
    return draw(st.sampled_from(records)) if records else None


def _part(draw, rec):
    key = draw(st.sampled_from(["gain_std", "gain_dual"]))
    return key if isinstance(rec.get(key), list) else None


def wrong_n(draw, doc):
    doc["n"] = draw(st.sampled_from([2.0, 2.7, True, False, "3", None, [], float("inf")]))


def huge_n(draw, doc):
    doc["n"] = draw(st.sampled_from(HUGE_COUNTS))


def other_n(draw, doc):
    doc["n"] = draw(st.integers(-2, 8))


def drop_field(draw, doc):
    doc.pop(draw(st.sampled_from(["format", "version", "ring", "n", "edges"])), None)


def wrong_edges(draw, doc):
    doc["edges"] = draw(st.sampled_from([None, 3, "ab", "", {"u": 0}, [[0, 1]]]))


def wrong_record(draw, doc):
    if isinstance(doc.get("edges"), list) and doc["edges"]:
        i = draw(st.integers(0, len(doc["edges"]) - 1))
        doc["edges"][i] = draw(st.sampled_from([None, 3, "x", [0, 1], {}]))


def wrong_vertex(draw, doc):
    rec = _record(draw, doc)
    if rec is not None:
        rec[draw(st.sampled_from(["u", "v"]))] = draw(st.sampled_from(
            [1.0, 0.5, True, "1", None, 10**30, -1, 2**63, 9]))


def reversed_edge(draw, doc):
    rec = _record(draw, doc)
    if rec is not None:
        if draw(st.booleans()):
            rec["u"], rec["v"] = rec.get("v"), rec.get("u")
        else:
            rec["v"] = rec.get("u")


def duplicate(draw, doc):
    rec = _record(draw, doc)
    if rec is not None:
        doc["edges"].append(json.loads(json.dumps(rec)))


def wrong_width(draw, doc):
    rec = _record(draw, doc)
    key = rec and _part(draw, rec)
    if key:
        if draw(st.booleans()) or not rec[key]:
            rec[key].append(0.0)
        else:
            rec[key].pop()


def wrong_gain(draw, doc):
    rec = _record(draw, doc)
    if rec is not None:
        rec[draw(st.sampled_from(["gain_std", "gain_dual"]))] = draw(st.sampled_from(
            [None, 1.0, "10", {"1": 0}, [[1.0], [0.0]]]))


def wrong_component(draw, doc):
    rec = _record(draw, doc)
    key = rec and _part(draw, rec)
    if key and rec[key]:
        rec[key][0] = draw(st.sampled_from(["1", True, None, 10**400, float("nan"), [1.0]]))


def non_unit(draw, doc):
    rec = _record(draw, doc)
    if rec is not None and isinstance(rec.get("gain_std"), list) and rec["gain_std"]:
        if draw(st.booleans()):
            rec["gain_std"] = [2.0] + rec["gain_std"][1:]
        else:
            rec["gain_dual"] = list(rec["gain_std"])     # <s, s> = 1


MUTATIONS = [wrong_n, huge_n, other_n, drop_field, wrong_edges, wrong_record, wrong_vertex,
             reversed_edge, duplicate, wrong_width, wrong_gain, wrong_component, non_unit]


@st.composite
def documents(draw):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    edges = []
    for u, v in chosen:
        std, dual = draw(st.sampled_from(UNITS[ring]))
        edges.append({"u": u, "v": v, "gain_std": list(std), "gain_dual": list(dual)})
    doc = {"format": "dual-gain-graph", "version": 1, "ring": ring, "n": n, "edges": edges}
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(draw, doc)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def ggf_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "doc.ggf")


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=documents())
def test_mutated_documents(text, ggf_path):
    expected = reference_refusal(text)
    try:
        parse(text)
        raised = None
    except DualGainError as exc:
        raised = type(exc)
    assert raised is expected, text
    with open(ggf_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for command in ("spectrum", "balance"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, ggf_path])       # raising here is a traceback
        assert code == (0 if expected is None else 2), (command, text)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
