"""Command-line interface and the NetworkDocument text format.

A NetworkDocument is a line-oriented description of a network, with an
optional disk embedding and free-form metadata::

    vertex 0 boundary
    vertex 1 interior d=2
    edge 0 0 1 w=1
    edge 1 1 0 w=1/2
    rotation 0 +0 -1
    boundary-order 0
    meta name example

Vertex and edge ids are nonnegative integers; ``w`` accepts an integer
or a rational ``p/q``, and so does ``d``; each field appears at most
once on a line; oriented edges in rotations are ``+eid`` / ``-eid``.
Serialization is canonical, so documents round-trip losslessly.
Unknown directives and fields are rejected.

Every subcommand reads a document from a file argument (or stdin when
the argument is ``-``) unless noted, writes a human-readable report (or
JSON with ``--json``, schema tagged ``format: 1``), and exits 0 on
success, 1 when a computation's precondition fails, and 2 on a parse
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .continuation import integer_u0_matrix
from .exact_algebra import Mod, kernel_QmodZ_from_snf, smith_diagonal
from .fundamental import (
    critical_group,
    eigen_multiplicity,
    laplacian_charpoly,
    upsilon,
)
from .layering import (
    EDGE_DEL,
    SPIKE,
    is_completely_reducible,
    reduce_to_flower,
    standard_form_filtration,
)
from .network import Network, U0_QmodZ, U0_mod_n
from .partial_graph import PartialGraph
from .planar import EmbeddedPartialGraph, dual, harmonic_conjugate
from . import families


class DocumentError(ValueError):
    """Malformed NetworkDocument; carries the offending line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class NetworkDocument:
    network: Network
    embedded: EmbeddedPartialGraph | None = None
    metadata: dict = field(default_factory=dict)


def _parse_scalar(text, line_no):
    try:
        if "/" in text:
            return Fraction(text)
        return int(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(line_no, f"bad scalar {text!r}")


def _parse_field(tokens, prefix, line_no, default):
    """The scalar of the one optional field ``prefix`` (``d=`` or
    ``w=``) among ``tokens``, or ``default`` when it is absent."""
    value = None
    for token in tokens:
        if not token.startswith(prefix):
            raise DocumentError(line_no, f"unknown field {token!r}")
        if value is not None:
            raise DocumentError(line_no, f"repeated field {prefix!r}")
        value = _parse_scalar(token[len(prefix):], line_no)
    return default if value is None else value


_SIGNS = {"+": 1, "-": -1}


def _format_scalar(x):
    if isinstance(x, Mod):
        return str(x.value)
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def parse_document(text):
    """Parse a NetworkDocument.  The parser checks what the text alone
    shows, repeated ids included; PartialGraph and Network check the
    rest, and their errors are reported as parse errors of line 0.

    Edge and vertex lines, most of any document, are read inline: ids
    by ``int`` and a sign test, and no field or one integer field
    directly.  Whatever that does not accept goes to ``_parse_id`` and
    ``_parse_field``, which format every error, in the same order."""
    vertices = set()
    boundary = []
    offsets = {}
    edges = []
    weights = {}
    rotation = {}
    boundary_order = None
    metadata = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        n = len(parts)
        if kind == "edge":
            if n < 4:
                raise DocumentError(
                    line_no, "expected: edge <id> <tail> <head> [w=..]"
                )
            try:
                eid, t, h = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                eid = t = h = -1
            if eid < 0:
                eid = _parse_id(parts[1], line_no)
            if eid in weights:
                raise DocumentError(line_no, f"duplicate edge id {eid}")
            if t < 0 or h < 0:
                t = _parse_id(parts[2], line_no)
                h = _parse_id(parts[3], line_no)
            edges.append((eid, t, h))
            w = 1
            if n > 4:
                token = parts[4]
                if n == 5 and token[:2] == "w=" and "/" not in token:
                    try:
                        w = int(token[2:])
                    except ValueError:
                        w = _parse_field(parts[4:], "w=", line_no, 1)
                else:
                    w = _parse_field(parts[4:], "w=", line_no, 1)
            weights[eid] = w
        elif kind == "vertex":
            if n < 3 or parts[2] not in ("boundary", "interior"):
                raise DocumentError(
                    line_no, "expected: vertex <id> boundary|interior [d=..]"
                )
            try:
                vid = int(parts[1])
            except ValueError:
                vid = -1
            if vid < 0:
                vid = _parse_id(parts[1], line_no)
            if vid in vertices:
                raise DocumentError(line_no, f"duplicate vertex id {vid}")
            vertices.add(vid)
            if parts[2] == "boundary":
                boundary.append(vid)
            if n > 3:
                token = parts[3]
                if n == 4 and token[:2] == "d=" and "/" not in token:
                    try:
                        offsets[vid] = int(token[2:])
                    except ValueError:
                        offsets[vid] = _parse_field(parts[3:], "d=", line_no, 0)
                else:
                    offsets[vid] = _parse_field(parts[3:], "d=", line_no, 0)
        elif kind == "rotation":
            if n < 2:
                raise DocumentError(line_no, "expected: rotation <v> <±e>...")
            vid = _parse_id(parts[1], line_no)
            if vid in rotation:
                raise DocumentError(line_no, f"duplicate rotation for {vid}")
            darts = []
            for token in parts[2:]:
                sign = _SIGNS.get(token[0])
                if sign is None:
                    raise DocumentError(
                        line_no, f"oriented edge {token!r} needs a sign"
                    )
                try:
                    e = int(token[1:])
                except ValueError:
                    e = -1
                if e < 0:
                    e = _parse_id(token[1:], line_no)
                darts.append((e, sign))
            rotation[vid] = tuple(darts)
        elif kind == "boundary-order":
            if boundary_order is not None:
                raise DocumentError(line_no, "duplicate boundary-order")
            boundary_order = tuple(_parse_id(a, line_no) for a in parts[1:])
        elif kind == "meta":
            if n < 2:
                raise DocumentError(line_no, "expected: meta <key> [value..]")
            metadata[parts[1]] = " ".join(parts[2:])
        elif not kind.startswith("#"):
            raise DocumentError(line_no, f"unknown directive {kind!r}")
    if not vertices:
        raise DocumentError(0, "document has no vertices")
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


def _parse_int(text):
    """``text`` as an integer; ValueError "bad integer" otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r}") from None


def _parse_id(text, line_no=None):
    """``text`` as a nonnegative integer id.  A bad one raises
    DocumentError at ``line_no``, or ValueError outside a document."""
    try:
        value = _parse_int(text)
        if value < 0:
            raise ValueError(f"negative id {text!r}")
    except ValueError as exc:
        if line_no is None:
            raise
        raise DocumentError(line_no, str(exc)) from None
    return value


def serialize_document(doc):
    """The canonical text of ``doc``.  An ``int`` weight or offset is
    written as it is; ``_format_scalar`` writes any other scalar."""
    N = doc.network
    G = N.graph
    boundary = G.boundary
    lines = [
        f"vertex {v} {'boundary' if v in boundary else 'interior'}"
        + (
            ""
            if d == 0
            else f" d={d if type(d) is int else _format_scalar(d)}"
        )
        for v, d in N.offsets
    ]
    lines += [
        f"edge {e} {t} {h} w={w if type(w) is int else _format_scalar(w)}"
        for (e, t, h), (_, w) in zip(G.edges, N.weights)
    ]
    if doc.embedded is not None:
        lines += [
            f"rotation {v}"
            + "".join([f" +{e}" if s > 0 else f" -{e}" for e, s in darts])
            for v, darts in doc.embedded.rotation
        ]
        order = " ".join(map(str, doc.embedded.boundary_order))
        lines.append(f"boundary-order {order}".rstrip())
    for key in sorted(doc.metadata):
        lines.append(f"meta {key} {doc.metadata[key]}".rstrip())
    return "\n".join(lines) + "\n"


# -- output helpers -----------------------------------------------------


def _decomposition_json(dec):
    return {
        "free_rank": dec.free_rank,
        "invariant_factors": [str(f) for f in dec.invariant_factors],
    }


def _emit(args, text, payload):
    """The one writer of a subcommand's report: ``text``, or with
    ``--json`` the ``format: 1`` JSON object of ``payload``."""
    if args.json:
        print(json.dumps({"format": 1, **payload}, indent=2, sort_keys=True))
    else:
        print(text)


def _read_document(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return parse_document(text)


def _require_embedding(doc):
    if doc.embedded is None:
        raise ValueError("this command needs embedding data in the document")
    return doc.embedded


# -- subcommand implementations ----------------------------------------


def _cmd_upsilon(doc, args):
    report = upsilon(doc.network)
    dec = report.decomposition
    _emit(
        args,
        f"{dec}\nnon-degenerate: {'yes' if report.nondegenerate else 'no'}",
        {
            "upsilon": _decomposition_json(dec),
            "nondegenerate": report.nondegenerate,
        },
    )


def _cmd_crit(doc, args):
    dec = critical_group(doc.network.graph)
    _emit(
        args,
        f"{dec}\nfactors: {list(dec.invariant_factors)}",
        {"critical_group": _decomposition_json(dec)},
    )


def _cmd_u0(doc, args):
    if args.qz == (args.mod is not None):
        raise ValueError("choose exactly one of --mod N or --qz")
    if args.qz:
        dec = U0_QmodZ(doc.network)
        label = "U0 over Q/Z"
    else:
        dec = U0_mod_n(doc.network, args.mod)
        label = f"U0 over Z/{args.mod}"
    _emit(
        args,
        f"{label}: {dec}",
        {"u0": _decomposition_json(dec)},
    )


def _cmd_layerable(doc, args):
    # one strip: it yields the filtration exactly when G is layerable
    try:
        filtration = standard_form_filtration(doc.network.graph)
    except ValueError:
        filtration = None
    verdict = filtration is not None
    lines = [f"layerable: {'yes' if verdict else 'no'}"]
    payload = {"layerable": verdict}
    if args.filtration and verdict:
        steps = []
        for op in filtration.ops:
            if op.kind == SPIKE:
                steps.append(f"spike {op.vertex} via edge {op.edge}")
            elif op.kind == EDGE_DEL:
                steps.append(f"boundary-edge {op.edge}")
            else:
                steps.append(f"isolated {op.vertex}")
        lines += [f"  {s}" for s in steps]
        payload["filtration"] = steps
    _emit(args, "\n".join(lines), payload)


def _cmd_flower(doc, args):
    flower, trace = reduce_to_flower(doc.network.graph)
    payload = {
        "moves": len(trace),
        "flower_vertices": list(flower.vertices),
        "flower_edges": list(flower.edge_ids),
        "empty": flower.is_empty(),
    }
    lines = [
        f"moves applied: {payload['moves']}",
        f"flower vertices: {payload['flower_vertices']}",
        f"flower edges: {payload['flower_edges']}",
        f"empty: {'yes' if payload['empty'] else 'no'}",
    ]
    _emit(args, "\n".join(lines), payload)


def _cmd_reduce(doc, args):
    verdict, trace = is_completely_reducible(doc.network.graph)
    pieces = [
        {"vertices": list(W.vertices), "edges": list(W.edge_ids)}
        for W in trace.irreducible_witnesses()
    ]
    lines = [f"completely reducible: {'yes' if verdict else 'no'}"]
    lines += [
        f"irreducible piece: vertices {p['vertices']} edges {p['edges']}"
        for p in pieces
    ]
    _emit(
        args,
        "\n".join(lines),
        {"completely_reducible": verdict, "irreducible_pieces": pieces},
    )


def _cmd_u0_matrix(doc, args):
    S = [_parse_id(v) for v in args.interiorize.split(",") if v]
    A = integer_u0_matrix(doc.network, S)
    diag, rank = smith_diagonal(A)
    dec = kernel_QmodZ_from_snf(diag, rank, A.cols)
    matrix = [[_format_scalar(x) for x in row] for row in A.data]
    lines = ["matrix A:"] + ["  " + " ".join(row) for row in matrix]
    lines.append(f"smith diagonal: {list(diag)}")
    lines.append(f"kernel over Q/Z: {dec}")
    _emit(
        args,
        "\n".join(lines),
        {
            "matrix": matrix,
            "smith_diagonal": [str(d) for d in diag],
            "kernel": _decomposition_json(dec),
        },
    )


def _cmd_dual(doc, args):
    EG = _require_embedding(doc)
    D = dual(doc.network, EG)
    out = serialize_document(NetworkDocument(D.network, D.embedded, {}))
    # print restores the one newline that ends every document
    _emit(args, out[:-1], {"document": out})


def _cmd_conjugate(doc, args):
    EG = _require_embedding(doc)
    if args.mod is not None and args.mod < 2:
        raise ValueError("modulus must be >= 2")
    values = {}
    with open(args.values) as fh:
        for line_no, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise DocumentError(line_no, "expected: <vertex> <value>")
            vid = _parse_id(parts[0], line_no)
            if vid in values:
                raise DocumentError(line_no, f"duplicate vertex id {vid}")
            scalar = _parse_scalar(parts[1], line_no)
            if args.mod is not None:
                scalar = Mod(scalar, args.mod)
            values[vid] = scalar
    v, D = harmonic_conjugate(doc.network, EG, values)
    conjugate = {str(x): _format_scalar(v(x)) for x in D.network.graph.vertices}
    _emit(
        args,
        "\n".join(f"{x} {s}" for x, s in conjugate.items()),
        {"conjugate": conjugate},
    )


def _cmd_charpoly(doc, args):
    coeffs = laplacian_charpoly(doc.network)
    terms = " ".join(str(c) for c in coeffs)
    _emit(
        args,
        f"coefficients (highest degree first): {terms}",
        {"charpoly": [str(c) for c in coeffs]},
    )


def _cmd_eigmult(doc, args):
    try:
        lam = Fraction(args.eigenvalue)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad eigenvalue {args.eigenvalue!r}") from None
    mult = eigen_multiplicity(doc.network, lam)
    _emit(
        args,
        f"multiplicity of {args.eigenvalue}: {mult}",
        {"eigenvalue": args.eigenvalue, "multiplicity": mult},
    )


def _ints(params, count):
    """The family parameters ``params`` as exactly ``count`` ints."""
    if len(params) != count:
        raise ValueError(f"expected {count} integer(s), got {len(params)}")
    return [_parse_int(p) for p in params]


def _wheel(params):
    """``n``, or ``n hub-boundary`` for a boundary hub."""
    if not params or params[1:] not in ([], ["hub-boundary"]):
        raise ValueError("expected n or n hub-boundary")
    return [_parse_int(params[0]), len(params) == 2]


# The most vertices, and the most edges, that ``family`` builds.
FAMILY_CAP = 10**6

# name: (parameter count, or None for the wheel's own; builder; vertex
# and edge counts from the parameters.  Past 30 dimensions a cube is over
# the cap, so its counts stop growing there.)
_FAMILIES = {
    "complete": (1, families.complete_graph, lambda n: (n, n * (n - 1) // 2)),
    "complete-bipartite": (
        2, families.complete_bipartite_bi, lambda m, n: (m + n, m * n)
    ),
    "cycle": (1, families.cycle, lambda n: (n, n)),
    "cube": (1, families.cube, lambda n: (1 << min(n, 30), n << min(n, 30) >> 1)),
    "wheel": (None, families.wheel, lambda n, hub: (n + 1, 2 * n)),
    "clf": (2, families.clf, lambda m, n: (m * (n + 1), m * (2 * n + 1))),
    "clf-prime": (2, families.clf_prime, lambda m, n: (m * (n + 2), 2 * m * (n + 1))),
}


def _build_family(name, params):
    """The graph of the known family ``name`` with the parameter words
    ``params``; ValueError when they are bad or the graph would have
    more than FAMILY_CAP vertices or edges."""
    count, build, size = _FAMILIES[name]
    args = _wheel(params) if count is None else _ints(params, count)
    # a negative argument counts as 0, so that its builder refuses it
    if max(size(*(max(a, 0) for a in args))) > FAMILY_CAP:
        raise ValueError(f"over {FAMILY_CAP} vertices or edges")
    return build(*args)


def _cmd_family(args):
    name = args.name
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {name!r} (known: {known})")
    try:
        built = _build_family(name, args.params)
    except ValueError as exc:
        raise ValueError(f"bad parameters for {name}: {exc}")
    if isinstance(built, EmbeddedPartialGraph):
        doc = NetworkDocument(Network.standard(built.graph), built, {})
    else:
        doc = NetworkDocument(Network.standard(built), None, {})
    doc.metadata["family"] = " ".join([name] + list(args.params))
    out = serialize_document(doc)
    _emit(args, out[:-1], {"document": out})


def _cmd_export_dot(doc, args):
    G = doc.network.graph
    lines = ["graph network {"]
    for v in G.vertices:
        style = "filled" if v in G.boundary else "solid"
        fill = ', fillcolor="black", fontcolor="white"' if v in G.boundary else ""
        lines.append(f'  v{v} [label="{v}", style="{style}"{fill}];')
    for e, t, h in G.edges:
        w = doc.network.weight(e)
        label = f' [label="{_format_scalar(w)}"]' if w != 1 else ""
        lines.append(f"  v{t} -- v{h}{label};")
    lines.append("}")
    out = "\n".join(lines)
    _emit(args, out, {"dot": out})


def _cmd_verify(args):
    from .verify import run_suite

    results = run_suite(args.suite)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {status}  {r.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} passed")
    _emit(
        args,
        "\n".join(lines),
        {
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "all_passed": ok,
        },
    )
    return 0 if ok else 1


# Built once per process: building the parser costs more than most
# subcommands, and argparse looks up its message catalogues on the file
# system for every argument it adds.
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphalg",
        description="exact algebraic invariants of graphs with boundary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(fn=fn)
        return p

    def add_doc(name, fn, **kwargs):
        p = add(name, fn, **kwargs)
        p.add_argument("file", help="NetworkDocument file, or - for stdin")
        return p

    add_doc("upsilon", _cmd_upsilon, help="fundamental module decomposition")
    add_doc("crit", _cmd_crit, help="critical group of a boundaryless graph")
    p = add_doc("u0", _cmd_u0, help="boundary-vanishing harmonic module")
    p.add_argument("--mod", type=int, help="coefficients Z/N")
    p.add_argument("--qz", action="store_true", help="coefficients Q/Z")
    p = add_doc("layerable", _cmd_layerable, help="layerability test")
    p.add_argument("--filtration", action="store_true")
    add_doc("flower", _cmd_flower, help="strip to the unique flower")
    add_doc("reduce", _cmd_reduce, help="complete-reducibility trace")
    p = add_doc("u0-matrix", _cmd_u0_matrix, help="kernel presentation matrix")
    p.add_argument(
        "--interiorize",
        required=True,
        help="comma-separated interior vertices to expose",
    )
    add_doc("dual", _cmd_dual, help="dual network document")
    p = add_doc("conjugate", _cmd_conjugate, help="harmonic conjugate")
    p.add_argument("--values", required=True, help="file of '<vertex> <value>'")
    p.add_argument("--mod", type=int, help="interpret values in Z/N")
    add_doc("charpoly", _cmd_charpoly, help="characteristic polynomial")
    p = add_doc("eigmult", _cmd_eigmult, help="eigenvalue multiplicity")
    p.add_argument(
        "--lambda", dest="eigenvalue", required=True, help="eigenvalue p/q"
    )
    p = add("family", _cmd_family, help="emit a family NetworkDocument")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    add_doc("export-dot", _cmd_export_dot, help="DOT drawing")
    p = add("verify", _cmd_verify, help="run the verification suites")
    p.add_argument(
        "--suite", choices=("paper", "property"), default=None,
        help="restrict to one suite",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if "file" in args:  # the subcommands that add_doc registers
            code = args.fn(_read_document(args.file), args)
        else:
            code = args.fn(args)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
