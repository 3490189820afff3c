"""Tests for the NetworkDocument format and the command-line interface."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphalg
from graphalg import cli
from graphalg.cli import (
    _FAMILIES,
    FAMILY_CAP,
    DocumentError,
    _build_family,
    _wheel,
    NetworkDocument,
    main,
    parse_document,
    serialize_document,
)
from graphalg.families import wheel
from graphalg.network import Network
from graphalg.planar import EmbeddedPartialGraph

# sample parameters for every `graphalg family` builder
FAMILY_PARAMS = {
    "complete": [["5"]],
    "complete-bipartite": [["2", "3"]],
    "cycle": [["5"]],
    "cube": [["3"]],
    "wheel": [["5"], ["5", "hub-boundary"]],
    "clf": [["4", "2"], ["3", "1"]],
    "clf-prime": [["2", "2"], ["3", "1"]],
}

TRIANGLE_DOC = """\
vertex 0 boundary
vertex 1 boundary
vertex 2 interior
edge 0 0 1 w=1
edge 1 1 2 w=1
edge 2 2 0 w=1
rotation 0 +0 -2
rotation 1 +1 -0
rotation 2 +2 -1
boundary-order 0 1
"""


class TestDocumentFormat:
    def test_round_trip_is_lossless(self):
        doc = parse_document(TRIANGLE_DOC)
        text = serialize_document(doc)
        assert parse_document(text).network == doc.network
        assert parse_document(text).embedded == doc.embedded
        assert serialize_document(parse_document(text)) == text

    def test_every_family_builder_covers_samples(self):
        assert set(FAMILY_PARAMS) == set(_FAMILIES)

    @pytest.mark.parametrize(
        "name,params",
        [(name, p) for name, ps in FAMILY_PARAMS.items() for p in ps],
    )
    def test_family_graph_equals_its_parsed_document(self, name, params):
        built = _build_family(name, params)
        if isinstance(built, EmbeddedPartialGraph):
            doc = NetworkDocument(Network.standard(built.graph), built)
        else:
            doc = NetworkDocument(Network.standard(built))
        parsed = parse_document(serialize_document(doc))
        assert parsed.network == doc.network
        assert parsed.network.graph == doc.network.graph
        assert parsed.embedded == doc.embedded

    @pytest.mark.parametrize(
        "name,params",
        [(name, p) for name, ps in FAMILY_PARAMS.items() for p in ps],
    )
    def test_family_size_is_known_before_building(self, name, params):
        count, _, size = _FAMILIES[name]
        args = _wheel(params) if count is None else [int(p) for p in params]
        built = _build_family(name, params)
        G = built.graph if isinstance(built, EmbeddedPartialGraph) else built
        assert size(*args) == (len(G.vertices), len(G.edges))

    def test_family_cap_is_checked_before_building(self, monkeypatch):
        def never(*args):
            raise AssertionError("built a graph over the cap")

        monkeypatch.setitem(_FAMILIES, "cube", (1, never, _FAMILIES["cube"][2]))
        for n in (20, 40, 10**9):
            with pytest.raises(ValueError, match=f"over {FAMILY_CAP}"):
                _build_family("cube", [str(n)])

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_document("# a comment\n\nvertex 0 interior\n")
        assert doc.network.graph.vertices == (0,)

    def test_defaults(self):
        doc = parse_document("vertex 0 interior\nvertex 1 interior\nedge 0 0 1\n")
        assert doc.network.weight(0) == 1
        assert doc.network.offset(0) == 0
        assert doc.embedded is None

    def test_offsets_and_rational_weights(self):
        doc = parse_document(
            "vertex 0 boundary d=2\nvertex 1 interior d=-1\nedge 0 0 1 w=3/2\n"
        )
        from fractions import Fraction

        assert doc.network.offset(0) == 2
        assert doc.network.weight(0) == Fraction(3, 2)

    def test_metadata_round_trip(self):
        doc = parse_document("vertex 0 interior\nmeta family wheel 5\n")
        assert doc.metadata == {"family": "wheel 5"}
        assert "meta family wheel 5" in serialize_document(doc)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("vertex 0 weird\n", "boundary|interior"),
            ("vertex 0 interior\nvertex 0 boundary\n", "duplicate vertex"),
            ("vertex 0 interior\nedge 0 0 1\n", "unknown vertices"),
            ("vertex 0 interior\nfrobnicate 1\n", "unknown directive"),
            ("vertex 0 interior x=1\n", "unknown field"),
            ("vertex 0 interior\nedge 0 0 0\n", "loop"),
            ("", "no vertices"),
            ("vertex 0 boundary\nrotation 0 5\n", "sign"),
            ("vertex -3 interior\n", "line 1: negative id '-3'"),
            ("vertex 0 boundary\nrotation 0 +-3\n", "line 2: negative id '-3'"),
            ("vertex 0 interior d=1 d=2\n", "line 1: repeated field 'd='"),
            (
                "vertex 0 interior\nvertex 1 interior\nedge 0 0 1 w=1 w=2\n",
                "line 3: repeated field 'w='",
            ),
            # each field token is checked for its name, then for a
            # repeat, then for its scalar
            ("vertex 0 interior d=x d=2\n", "line 1: bad scalar 'x'"),
            ("vertex 0 interior d=1 y=2\n", "line 1: unknown field 'y=2'"),
            (
                "vertex 0 interior\nvertex 1 interior\nedge 0 0 1 w=1 w=x\n",
                "line 3: repeated field 'w='",
            ),
            (
                "vertex 0 interior\nvertex 1 interior\nedge 0 0 1 w=x y=1\n",
                "line 3: bad scalar 'x'",
            ),
        ],
    )
    def test_malformed_documents_rejected(self, text, fragment):
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert fragment in str(err.value)


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.doc"
    p.write_text(TRIANGLE_DOC)
    return str(p)


class TestCommands:
    def test_upsilon(self, triangle_file, capsys):
        assert main(["upsilon", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "Z^2" in out and "non-degenerate: yes" in out

    def test_upsilon_json(self, triangle_file, capsys):
        assert main(["upsilon", "--json", triangle_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == 1
        assert payload["upsilon"]["free_rank"] == 2

    def test_family_pipe_crit(self, tmp_path, capsys):
        assert main(["family", "complete", "4"]) == 0
        text = capsys.readouterr().out
        p = tmp_path / "k4.doc"
        p.write_text(text)
        assert main(["crit", str(p)]) == 0
        assert "Z/4 + Z/4" in capsys.readouterr().out

    def test_u0_modes(self, tmp_path, capsys):
        assert main(["family", "complete-bipartite", "2", "3"]) == 0
        p = tmp_path / "k23.doc"
        p.write_text(capsys.readouterr().out)
        assert main(["u0", "--qz", str(p)]) == 0
        assert "Z/2 + Z/2" in capsys.readouterr().out
        assert main(["u0", "--mod", "4", str(p)]) == 0
        assert "Z/2 + Z/2" in capsys.readouterr().out

    def test_u0_mod_n_on_a_rational_path(self, tmp_path, capsys):
        p = tmp_path / "path.doc"
        p.write_text(
            "vertex 0 boundary\nvertex 1 interior\nvertex 2 interior\n"
            "vertex 3 boundary\nedge 0 0 1 w=1/2\nedge 1 1 2 w=3\n"
            "edge 2 2 3 w=1\n"
        )
        assert main(["u0", "--mod", "5", str(p)]) == 0
        assert capsys.readouterr().out == "U0 over Z/5: 0\n"
        assert main(["u0", "--mod", "6", str(p)]) == 1
        err = capsys.readouterr().err
        assert err == "error: some weight or offset has no residue mod 6\n"

    def test_layerable_and_flower(self, triangle_file, capsys):
        assert main(["layerable", triangle_file]) == 0
        assert "layerable: yes" in capsys.readouterr().out
        assert main(["flower", triangle_file]) == 0
        assert "empty: yes" in capsys.readouterr().out

    def test_dual_round_trip(self, triangle_file, tmp_path, capsys):
        assert main(["dual", triangle_file]) == 0
        text = capsys.readouterr().out
        dual_doc = parse_document(text)
        assert len(dual_doc.network.graph.vertices) == 3
        assert dual_doc.embedded is not None

    def test_conjugate(self, triangle_file, tmp_path, capsys):
        values = tmp_path / "u.txt"
        values.write_text("0 0\n1 2\n2 1\n")
        assert main(["conjugate", "--values", str(values), triangle_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3

    def test_conjugate_rejects_non_harmonic(self, triangle_file, tmp_path, capsys):
        values = tmp_path / "u.txt"
        values.write_text("0 0\n1 5\n2 1\n")
        assert main(["conjugate", "--values", str(values), triangle_file]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\n", "line 1: expected: <vertex> <value>"),
            ("0 0\n1 2 3\n", "line 2: expected: <vertex> <value>"),
            ("x 1\n", "line 1: bad integer 'x'"),
        ],
    )
    def test_conjugate_malformed_values(
        self, triangle_file, tmp_path, capsys, text, message
    ):
        values = tmp_path / "u.txt"
        values.write_text(text)
        assert main(["conjugate", "--values", str(values), triangle_file]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_charpoly_and_eigmult(self, triangle_file, capsys):
        assert main(["charpoly", triangle_file]) == 0
        assert "1 " in capsys.readouterr().out
        assert main(["eigmult", "--lambda", "3", triangle_file]) == 0
        assert "multiplicity of 3:" in capsys.readouterr().out

    def test_export_dot(self, triangle_file, capsys):
        assert main(["export-dot", triangle_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph network {")
        assert "v0 --" in out or "v0 -- v1" in out

    def test_u0_matrix(self, tmp_path, capsys):
        assert main(["family", "complete-bipartite", "2", "3"]) == 0
        p = tmp_path / "k23.doc"
        p.write_text(capsys.readouterr().out)
        assert (
            main(["u0-matrix", "--interiorize", "2,3,4", str(p)]) == 0
        )
        out = capsys.readouterr().out
        assert "smith diagonal" in out

    def test_u0_matrix_empty_interiorize_json(self, tmp_path, capsys):
        assert main(["family", "complete-bipartite", "2", "1"]) == 0
        p = tmp_path / "k21.doc"
        p.write_text(capsys.readouterr().out)
        assert main(["u0-matrix", "--interiorize", "", "--json", str(p)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["smith_diagonal"] == []
        assert payload["kernel"] == {"free_rank": 0, "invariant_factors": []}

    def test_reduce_large_grid(self, tmp_path, capsys):
        # 26 x 26 grid, perimeter as boundary: over a thousand strip moves
        n = 26
        cells = [(i, j) for i in range(n) for j in range(n)]
        lines = [
            f"vertex {i * n + j} "
            + ("boundary" if {i, j} & {0, n - 1} else "interior")
            for i, j in cells
        ]
        pairs = [(i * n + j, i * n + j + 1) for i, j in cells if j + 1 < n]
        pairs += [(i * n + j, i * n + j + n) for i, j in cells if i + 1 < n]
        lines += [f"edge {e} {t} {h}" for e, (t, h) in enumerate(pairs)]
        p = tmp_path / "grid.doc"
        p.write_text("\n".join(lines) + "\n")
        assert main(["reduce", "--json", str(p)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completely_reducible"] is True
        assert payload["irreducible_pieces"] == []

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.doc"
        p.write_text("vertex 0 bogus\n")
        assert main(["upsilon", str(p)]) == 2

    def test_precondition_error_exit_code(self, triangle_file, capsys):
        # crit requires a boundaryless graph
        assert main(["crit", triangle_file]) == 1

    def test_missing_file_exit_code(self, capsys):
        assert main(["upsilon", "/nonexistent/x.doc"]) == 1

    def test_verify_paper_suite(self, capsys):
        assert main(["verify", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        assert "passed" in out


BAD_INPUTS = {
    "eigmult-zero-denominator": ["eigmult", "--lambda", "1/0", "{w5}"],
    "eigmult-bad-literal": ["eigmult", "--lambda", "abc", "{w5}"],
    "conjugate-missing-vertex": ["conjugate", "--values", "{partial}", "{w5}"],
    "conjugate-mod-0": ["conjugate", "--mod", "0", "--values", "{total}", "{w5}"],
    "conjugate-repeated-vertex": ["conjugate", "--values", "{repeated}", "{w5}"],
    "u0-mod-0": ["u0", "--mod", "0", "{w5}"],
    "u0-matrix-repeated-vertex": ["u0-matrix", "--interiorize", "0,1,0", "{w5}"],
    "upsilon-non-integral": ["upsilon", "{rational}"],
    "loop-edge": ["upsilon", "{loop}"],
    "u0-matrix-bad-integer": ["u0-matrix", "--interiorize", "0,x", "{w5}"],
    "u0-matrix-negative-id": ["u0-matrix", "--interiorize", "-1", "{w5}"],
    "family-extra-parameter": ["family", "cycle", "5", "7"],
    "family-extra-word": ["family", "cycle", "5", "x"],
    "family-missing-parameter": ["family", "clf", "3"],
    "family-unknown-wheel-option": ["family", "wheel", "5", "hubboundary"],
    "family-wheel-extra-parameter": ["family", "wheel", "5", "hub-boundary", "x"],
    "family-bad-integer": ["family", "cycle", "x"],
    "family-wheel-bad-integer": ["family", "wheel", "x"],
    "family-cube-over-cap": ["family", "cube", "40"],
    "family-cycle-over-cap": ["family", "cycle", "1000001"],
    "family-complete-over-cap": ["family", "complete", "1416"],
}

# the exact stderr of the inputs above whose message is pinned (exit 1)
BAD_INPUT_ERRORS = {
    "u0-matrix-bad-integer": "bad integer 'x'",
    "u0-matrix-negative-id": "negative id '-1'",
    "family-extra-parameter": "bad parameters for cycle: expected 1 integer(s), got 2",
    "family-extra-word": "bad parameters for cycle: expected 1 integer(s), got 2",
    "family-missing-parameter": "bad parameters for clf: expected 2 integer(s), got 1",
    "family-unknown-wheel-option":
        "bad parameters for wheel: expected n or n hub-boundary",
    "family-wheel-extra-parameter":
        "bad parameters for wheel: expected n or n hub-boundary",
    "eigmult-zero-denominator": "bad eigenvalue '1/0'",
    "eigmult-bad-literal": "bad eigenvalue 'abc'",
    "family-bad-integer": "bad parameters for cycle: bad integer 'x'",
    "family-wheel-bad-integer": "bad parameters for wheel: bad integer 'x'",
    "family-cube-over-cap": "bad parameters for cube: over 1000000 vertices or edges",
    "family-cycle-over-cap":
        "bad parameters for cycle: over 1000000 vertices or edges",
    "family-complete-over-cap":
        "bad parameters for complete: over 1000000 vertices or edges",
}

# the exact stderr of the inputs above that are parse errors (exit 2)
BAD_INPUT_PARSE_ERRORS = {
    "conjugate-repeated-vertex": "line 2: duplicate vertex id 0",
}


@pytest.mark.parametrize("case,argv", BAD_INPUTS.items(), ids=BAD_INPUTS.keys())
def test_bad_input_gives_an_error_line_not_a_traceback(case, argv, tmp_path, capsys):
    """Exit code 1 or 2 with a message on stderr, never an exception."""
    assert main(["family", "wheel", "5", "hub-boundary"]) == 0
    files = {
        "w5": capsys.readouterr().out,
        "partial": "0 0\n",
        "total": "".join(f"{v} {v}\n" for v in range(6)),
        "rational": "vertex 0 boundary\nvertex 1 interior\nedge 0 0 1 w=1/2\n",
        "loop": "vertex 0 interior\nedge 0 0 0\n",
        "repeated": "0 0\n0 1\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code = main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert any(
        line.startswith(("error: ", "parse error: ")) for line in err.splitlines()
    )
    if case in BAD_INPUT_ERRORS:
        assert (code, err) == (1, f"error: {BAD_INPUT_ERRORS[case]}\n")
    if case in BAD_INPUT_PARSE_ERRORS:
        assert (code, err) == (2, f"parse error: {BAD_INPUT_PARSE_ERRORS[case]}\n")


def test_only_emit_prints_to_stdout():
    """Every report goes through cli._emit; other prints go to stderr."""
    tree = ast.parse(Path(cli.__file__).read_text())
    (emit,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_emit"
    ]
    inside_emit = {id(node) for node in ast.walk(emit)}
    stdout_prints = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and id(node) not in inside_emit
        and not any(
            kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
            for kw in node.keywords
        )
    ]
    assert stdout_prints == []


def test_importing_the_cli_does_not_load_the_verification_suite():
    src = str(Path(graphalg.__file__).resolve().parents[1])
    code = "import sys, graphalg.cli; print('graphalg.verify' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"


# -- golden outputs ----------------------------------------------------

RATIONAL_TRIANGLE_DOC = TRIANGLE_DOC.replace("1 2 w=1", "1 2 w=1/2").replace(
    "2 0 w=1", "2 0 w=1/3"
)
W5 = wheel(5, hub_boundary=True)
W5_DOC = serialize_document(NetworkDocument(Network.standard(W5.graph), W5))

# name: (document, --interiorize argument, a harmonic --values file)
GOLDEN_DOCS = {
    "triangle": (TRIANGLE_DOC, "2", "0 0\n1 2\n2 1\n"),
    "rational-triangle": (RATIONAL_TRIANGLE_DOC, "2", "0 0\n1 1\n2 3/5\n"),
    "w5-hub-boundary": (W5_DOC, "0,1", "".join(f"{v} 1\n" for v in range(6))),
}
GOLDEN_COMMANDS = [
    "upsilon",
    "crit",
    "u0 --qz",
    "u0 --mod 4",
    "layerable",
    "layerable --filtration",
    "flower",
    "reduce",
    "u0-matrix --interiorize {S}",
    "dual",
    "conjugate --values {values}",
    "conjugate --mod 7 --values {values}",
    "charpoly",
    "eigmult --lambda 3",
    "export-dot",
]
# case id: (document name or None, argv template)
GOLDEN_CASES = {}
for flag in ("", " --json"):
    for name in GOLDEN_DOCS:
        for command in GOLDEN_COMMANDS:
            GOLDEN_CASES[f"{name}: {command}{flag}"] = (
                name, f"{command}{flag} {{doc}}"
            )
    GOLDEN_CASES[f"family wheel 5 hub-boundary{flag}"] = (
        None, f"family wheel 5 hub-boundary{flag}"
    )
    GOLDEN_CASES[f"verify{flag}"] = (None, f"verify{flag}")


def stub_suite(suite=None):
    from graphalg.verify import CheckResult

    return [CheckResult("short", True, "ok"), CheckResult("a longer name", False, "")]


def golden_argv(case, workdir):
    """The argv of a golden case, with its files written to workdir."""
    name, template = GOLDEN_CASES[case]
    fields = {}
    if name is not None:
        doc, S, values = GOLDEN_DOCS[name]
        fields = {"doc": workdir / "doc", "S": S, "values": workdir / "values"}
        fields["doc"].write_text(doc)
        fields["values"].write_text(values)
    return [arg.format(**fields) for arg in template.split()]


# each case's exit code, stdout and stderr, recorded before the
# subcommands shared one emitter; an intended output change edits its entry
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def test_golden_cases_all_recorded():
    assert set(GOLDEN) == set(GOLDEN_CASES)


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_output(case, tmp_path, monkeypatch, capsys):
    """Exit code, stdout and stderr of every subcommand, in text and
    JSON; verify runs on a stub suite, so only its rendering is pinned."""
    monkeypatch.setattr("graphalg.verify.run_suite", stub_suite)
    code = main(golden_argv(case, tmp_path))
    out, err = capsys.readouterr()
    assert {"code": code, "stdout": out, "stderr": err} == GOLDEN[case]
