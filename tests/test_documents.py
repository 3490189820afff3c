"""The NetworkDocument reader and writer against reference copies.

``reference_parse_document`` and ``reference_serialize_document`` are
the reader and writer as they were before edge and vertex lines were
read inline and lines were written by comprehensions.  They are the
oracles here and are not used by the library.  Documents are drawn from
family graphs and random networks, with integer and Fraction weights
and offsets, embeddings and meta lines; the reader tests then change
one token or line of a drawn document and require the same document,
or the same DocumentError line and message, from both readers."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphalg
from graphalg.cli import (
    DocumentError,
    NetworkDocument,
    _build_family,
    _format_scalar,
    _parse_field,
    _parse_id,
    parse_document,
    serialize_document,
)
from graphalg.network import Network
from graphalg.partial_graph import PartialGraph
from graphalg.planar import EmbeddedPartialGraph


def reference_parse_document(text):
    """The reader that read every id through ``_parse_id`` and every
    field through ``_parse_field``."""
    vertices = {}
    offsets = {}
    edges = {}
    weights = {}
    rotation = {}
    boundary_order = None
    metadata = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        kind, args = parts[0], parts[1:]
        if kind == "vertex":
            if len(args) < 2 or args[1] not in ("boundary", "interior"):
                raise DocumentError(
                    line_no, "expected: vertex <id> boundary|interior [d=..]"
                )
            vid = _parse_id(args[0], line_no)
            if vid in vertices:
                raise DocumentError(line_no, f"duplicate vertex id {vid}")
            vertices[vid] = args[1] == "boundary"
            offsets[vid] = _parse_field(args[2:], "d=", line_no, 0)
        elif kind == "edge":
            if len(args) < 3:
                raise DocumentError(
                    line_no, "expected: edge <id> <tail> <head> [w=..]"
                )
            eid = _parse_id(args[0], line_no)
            if eid in edges:
                raise DocumentError(line_no, f"duplicate edge id {eid}")
            edges[eid] = (
                _parse_id(args[1], line_no),
                _parse_id(args[2], line_no),
            )
            weights[eid] = _parse_field(args[3:], "w=", line_no, 1)
        elif kind == "rotation":
            if not args:
                raise DocumentError(line_no, "expected: rotation <v> <±e>...")
            vid = _parse_id(args[0], line_no)
            if vid in rotation:
                raise DocumentError(line_no, f"duplicate rotation for {vid}")
            darts = []
            for token in args[1:]:
                if token[:1] not in "+-":
                    raise DocumentError(
                        line_no, f"oriented edge {token!r} needs a sign"
                    )
                darts.append(
                    (_parse_id(token[1:], line_no), 1 if token[0] == "+" else -1)
                )
            rotation[vid] = tuple(darts)
        elif kind == "boundary-order":
            if boundary_order is not None:
                raise DocumentError(line_no, "duplicate boundary-order")
            boundary_order = tuple(_parse_id(a, line_no) for a in args)
        elif kind == "meta":
            if not args:
                raise DocumentError(line_no, "expected: meta <key> [value..]")
            metadata[args[0]] = " ".join(args[1:])
        else:
            raise DocumentError(line_no, f"unknown directive {kind!r}")
    if not vertices:
        raise DocumentError(0, "document has no vertices")
    boundary = {v for v, is_bd in vertices.items() if is_bd}
    try:
        graph = PartialGraph(vertices, boundary, edges)
        network = Network(graph, weights, offsets)
    except (ValueError, TypeError) as exc:
        raise DocumentError(0, str(exc))
    embedded = None
    if rotation or boundary_order is not None:
        embedded = EmbeddedPartialGraph(
            graph, rotation, boundary_order or tuple(sorted(boundary))
        )
    return NetworkDocument(network, embedded, metadata)


def reference_serialize_document(doc):
    """The writer that formatted every scalar through
    ``_format_scalar``, one line at a time."""
    N = doc.network
    G = N.graph
    dmap = N.dmap
    lines = []
    for v in G.vertices:
        kind = "boundary" if v in G.boundary else "interior"
        entry = f"vertex {v} {kind}"
        if dmap[v] != 0:
            entry += f" d={_format_scalar(dmap[v])}"
        lines.append(entry)
    for e, t, h in G.edges:
        lines.append(f"edge {e} {t} {h} w={_format_scalar(N.weight(e))}")
    if doc.embedded is not None:
        for v, darts in doc.embedded.rotation:
            tokens = " ".join(
                ("+" if s > 0 else "-") + str(e) for e, s in darts
            )
            lines.append(f"rotation {v} {tokens}".rstrip())
        order = " ".join(str(v) for v in doc.embedded.boundary_order)
        lines.append(f"boundary-order {order}".rstrip())
    for key in sorted(doc.metadata):
        lines.append(f"meta {key} {doc.metadata[key]}".rstrip())
    return "\n".join(lines) + "\n"


# -- documents ----------------------------------------------------------

FAMILY_SAMPLES = [
    ("complete", ["4"]),
    ("complete-bipartite", ["2", "3"]),
    ("cycle", ["5"]),
    ("cube", ["3"]),
    ("wheel", ["5"]),
    ("wheel", ["4", "hub-boundary"]),
    ("clf", ["3", "1"]),
    ("clf-prime", ["2", "2"]),
]
SCALARS = st.integers(-3, 3) | st.builds(
    Fraction, st.integers(-5, 5), st.integers(1, 4)
)
WORDS = st.text("ab-_1", min_size=1, max_size=4)


def _random_graph(draw):
    nv = draw(st.integers(1, 7))
    # ids need not be 0..n-1 nor start at 0
    ids = draw(st.lists(st.integers(0, 40), min_size=nv, max_size=nv, unique=True))
    vertex = st.sampled_from(ids)
    ends = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
            max_size=2 * nv if nv > 1 else 0,
        )
    )
    eids = draw(
        st.lists(
            st.integers(0, 60), min_size=len(ends), max_size=len(ends), unique=True
        )
    )
    boundary = draw(st.sets(vertex, max_size=3))
    return PartialGraph(ids, boundary, {e: p for e, p in zip(eids, ends)})


@st.composite
def documents(draw):
    """A NetworkDocument: a family graph with its own embedding if it
    has one, or a random multigraph with a random rotation system or
    none; weights and offsets integers or Fractions; a few meta lines
    whose values are single-spaced, as the reader leaves them."""
    embedded = None
    if draw(st.booleans()):
        built = _build_family(*draw(st.sampled_from(FAMILY_SAMPLES)))
        if isinstance(built, EmbeddedPartialGraph):
            G, embedded = built.graph, built
        else:
            G = built
    else:
        G = _random_graph(draw)
        if draw(st.booleans()):
            rotation = {v: draw(st.permutations(G.star(v))) for v in G.vertices}
            order = draw(st.permutations(sorted(G.boundary)))
            embedded = EmbeddedPartialGraph(G, rotation, order)
    weights = {e: draw(SCALARS) for e in G.edge_ids}
    offsets = {v: draw(SCALARS) for v in G.vertices if draw(st.booleans())}
    metadata = draw(
        st.dictionaries(WORDS, st.lists(WORDS, max_size=3).map(" ".join), max_size=2)
    )
    return NetworkDocument(Network(G, weights, offsets), embedded, metadata)


def assert_same_document(doc, expected):
    assert doc == expected
    # equal scalars of different types would print differently
    for mine, theirs in (
        (doc.network.weights, expected.network.weights),
        (doc.network.offsets, expected.network.offsets),
    ):
        assert [type(x) for _, x in mine] == [type(x) for _, x in theirs]


def assert_same_reading(text):
    """parse_document gives what the reference reader gives: an equal
    document, or a DocumentError with the same line and message."""
    try:
        expected = reference_parse_document(text)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as got:
            parse_document(text)
        assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc))
    else:
        assert_same_document(parse_document(text), expected)


# -- single-token and single-line mutations ----------------------------

# the token positions that hold ids, by line kind; rotation darts and
# boundary-order ids run to the end of the line
ID_POSITIONS = {"vertex": (1,), "edge": (1, 2, 3), "rotation": (1,)}
FIELD_START = {"vertex": 3, "edge": 4}


def _pick(lines, draw, kinds):
    """(index, tokens) of a drawn line whose kind is in ``kinds``, or
    None when there is none."""
    found = [i for i, line in enumerate(lines) if line.split()[0] in kinds]
    if not found:
        return None
    i = draw(st.sampled_from(found))
    return i, lines[i].split()


def _put(lines, i, parts):
    return lines[:i] + [" ".join(parts)] + lines[i + 1 :]


def _change_id(new):
    def mutate(lines, draw):
        picked = _pick(lines, draw, ("vertex", "edge", "rotation", "boundary-order"))
        if picked is None:
            return lines
        i, parts = picked
        positions = ID_POSITIONS.get(parts[0], range(1, len(parts)))
        positions = [j for j in positions if j < len(parts)]
        if not positions:
            return lines
        j = draw(st.sampled_from(positions))
        parts[j] = new(parts[j], draw)
        return _put(lines, i, parts)

    return mutate


def _set_fields(kinds, choices):
    """Replace the fields of a drawn vertex or edge line by a drawn
    list of ``choices``, ``*=`` standing for the line's own field."""

    def mutate(lines, draw):
        picked = _pick(lines, draw, kinds)
        if picked is None:
            return lines
        i, parts = picked
        prefix = "d=" if parts[0] == "vertex" else "w="
        fields = [t.replace("*=", prefix) for t in draw(st.sampled_from(choices))]
        return _put(lines, i, parts[: FIELD_START[parts[0]]] + fields)

    return mutate


def _add_fields(tokens):
    def mutate(lines, draw):
        picked = _pick(lines, draw, ("vertex", "edge"))
        if picked is None:
            return lines
        i, parts = picked
        prefix = "d=" if parts[0] == "vertex" else "w="
        return _put(lines, i, parts + [t.replace("*=", prefix) for t in tokens])

    return mutate


def _change_dart(new):
    def mutate(lines, draw):
        picked = _pick(lines, draw, ("rotation",))
        if picked is None or len(picked[1]) < 3:
            return lines
        i, parts = picked
        j = draw(st.integers(2, len(parts) - 1))
        parts[j] = new(parts[j])
        return _put(lines, i, parts)

    return mutate


def _change_end(new):
    """Replace the tail or head of a drawn edge line by
    ``new(parts, j)``, j its position."""

    def mutate(lines, draw):
        picked = _pick(lines, draw, ("edge",))
        if picked is None:
            return lines
        i, parts = picked
        j = draw(st.sampled_from([2, 3]))
        parts[j] = new(parts, j)
        return _put(lines, i, parts)

    return mutate


def _duplicate_with_bad_tail(lines, draw):
    """A second line with the id of a drawn vertex or edge line, after
    it, whose endpoint or field is also bad: the repeated id is the
    error reported."""
    picked = _pick(lines, draw, ("vertex", "edge"))
    if picked is None:
        return lines
    i, parts = picked
    if parts[0] == "edge":
        bad = parts[:2] + [draw(st.sampled_from(["x", "-1", "99"])), parts[3]]
    else:
        bad = parts[:3] + [draw(st.sampled_from(["d=x", "d=1/0", "y=1"]))]
    j = draw(st.integers(i + 1, len(lines)))
    return lines[:j] + [" ".join(bad)] + lines[j:]


def _truncate(lines, draw):
    i = draw(st.integers(0, len(lines) - 1))
    parts = lines[i].split()
    return _put(lines, i, parts[: draw(st.integers(1, len(parts)))])


def _insert(choices):
    def mutate(lines, draw):
        j = draw(st.integers(0, len(lines)))
        return lines[:j] + [draw(st.sampled_from(choices))] + lines[j:]

    return mutate


def _repeat_line(lines, draw):
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(i + 1, len(lines)))
    return lines[:j] + [lines[i]] + lines[j:]


MUTATIONS = {
    "none": lambda lines, draw: lines,
    "negative id": _change_id(lambda t, draw: f"-{draw(st.integers(1, 9))}"),
    "minus zero id": _change_id(lambda t, draw: f"-{t}"),
    "non-integer id": _change_id(
        lambda t, draw: draw(st.sampled_from(["x", "1.5", "1/2", "0x1", "+"]))
    ),
    "w=1/0 or d=1/0": _set_fields(("vertex", "edge"), [["*=1/0"]]),
    "empty field": _set_fields(("vertex", "edge"), [["*="]]),
    "other scalar fields": _set_fields(
        ("vertex", "edge"),
        [["*=3/6"], ["*=-4/2"], ["*=+7"], ["*=1_0"], ["*=2.5"], ["*=x"], []],
    ),
    "unknown field": _add_fields(["x=1"]),
    "repeated field": _add_fields(["*=2"]),
    "repeated bad field": _add_fields(["*=x", "*=2"]),
    "missing rotation sign": _change_dart(lambda t: t[1:]),
    "+-1": _change_dart(lambda t: "+-1"),
    "double sign": _change_dart(lambda t: "++" + t[1:]),
    "duplicate id with bad endpoint": _duplicate_with_bad_tail,
    # no drawn document has a vertex 99
    "dangling endpoint": _change_end(lambda parts, j: "99"),
    "loop": _change_end(lambda parts, j: parts[5 - j]),
    "truncated line": _truncate,
    "inserted line": _insert(
        ["", "# comment", "#edge x", "frobnicate 1", "meta", "rotation", "edge 1"]
    ),
    "repeated line": _repeat_line,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reader_matches_reference(mutation, data):
    doc = data.draw(documents())
    lines = data.draw(st.permutations(serialize_document(doc).splitlines()))
    lines = MUTATIONS[mutation](lines, data.draw)
    assert_same_reading("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "text,message",
    [
        # the repeated id is found before the bad endpoint on its line
        ("vertex 0 interior\nvertex 1 interior\nedge 0 0 1\nedge 0 x 1\n",
         "line 4: duplicate edge id 0"),
        ("vertex 0 interior\nvertex 0 interior d=x\n", "line 2: duplicate vertex id 0"),
        ("vertex 0 interior\nvertex 1 interior\nedge 0 0 1 w=1/0\n",
         "line 3: bad scalar '1/0'"),
        ("vertex 0 interior\nvertex 1 interior\nedge 0 0 1 w=\n", "line 3: bad scalar ''"),
        ("vertex 0 interior\nvertex 1 interior\nedge 0 -0 1\n", None),
        ("vertex 0 interior\nvertex 1 interior\nedge 0 1 -1\n", "line 3: negative id '-1'"),
        ("vertex 0 interior\nvertex 1 interior\nedge 0 x -1\n", "line 3: bad integer 'x'"),
        ("vertex 0 interior\nvertex 1 interior\nedge 0 0 2\n",
         "line 0: edge endpoint 2 is not a vertex (edge 0 references unknown vertices)"),
        ("vertex 0 interior\nvertex 1 interior\nedge 0 1 1\n",
         "line 0: loops are not allowed in networks (edge 0)"),
        ("vertex 0 boundary\nrotation 0 +-1\n", "line 2: negative id '-1'"),
        ("vertex 0 boundary\nrotation 0 1\n", "line 2: oriented edge '1' needs a sign"),
        ("vertex 0 boundary\nrotation 0 +\n", "line 2: bad integer ''"),
    ],
)
def test_reader_errors_and_their_order(text, message):
    assert_same_reading(text)
    if message is None:
        parse_document(text)
    else:
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == message


# -- the writer -----------------------------------------------------------


@given(documents())
@settings(max_examples=100, deadline=None)
def test_round_trip_is_the_identity_on_canonical_text(doc):
    text = serialize_document(doc)
    assert serialize_document(parse_document(text)) == text
    # equal values: an integral Fraction is written, and read, as an int
    assert parse_document(text) == doc


@given(documents(), st.text(" ab", max_size=5))
@settings(max_examples=100, deadline=None)
def test_writer_matches_reference(doc, value):
    # a value set by a caller, not read, may carry any spaces
    doc.metadata["k"] = value
    assert serialize_document(doc) == reference_serialize_document(doc)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["invariants", "strip", "continuation"])
def test_writer_and_reader_match_reference_on_workload_documents(
    workload, seed, tmp_path, monkeypatch
):
    # the benchmark's modules import one another by plain name
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    workloads = importlib.import_module("workloads")
    jobs = workloads.build(graphalg, workload, seed, tmp_path)
    for path in sorted({job.path for job in jobs}):
        text = Path(path).read_text()
        doc = parse_document(text)
        assert_same_document(doc, reference_parse_document(text))
        assert serialize_document(doc) == reference_serialize_document(doc)
