"""Tests for the NetworkDocument format and the command-line interface."""

import json

import pytest

from graphalg.cli import (
    _FAMILY_BUILDERS,
    DocumentError,
    NetworkDocument,
    main,
    parse_document,
    serialize_document,
)
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
        assert set(FAMILY_PARAMS) == set(_FAMILY_BUILDERS)

    @pytest.mark.parametrize(
        "name,params",
        [(name, p) for name, ps in FAMILY_PARAMS.items() for p in ps],
    )
    def test_family_graph_equals_its_parsed_document(self, name, params):
        built = _FAMILY_BUILDERS[name](params)
        if isinstance(built, EmbeddedPartialGraph):
            doc = NetworkDocument(Network.standard(built.graph), built)
        else:
            doc = NetworkDocument(Network.standard(built))
        parsed = parse_document(serialize_document(doc))
        assert parsed.network == doc.network
        assert parsed.network.graph == doc.network.graph
        assert parsed.embedded == doc.embedded

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
    "conjugate-missing-vertex": ["conjugate", "--values", "{partial}", "{w5}"],
    "conjugate-mod-0": ["conjugate", "--mod", "0", "--values", "{total}", "{w5}"],
    "u0-mod-0": ["u0", "--mod", "0", "{w5}"],
    "u0-matrix-repeated-vertex": ["u0-matrix", "--interiorize", "0,1,0", "{w5}"],
    "upsilon-non-integral": ["upsilon", "{rational}"],
    "loop-edge": ["upsilon", "{loop}"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_gives_an_error_line_not_a_traceback(argv, tmp_path, capsys):
    """Exit code 1 or 2 with a message on stderr, never an exception."""
    assert main(["family", "wheel", "5", "hub-boundary"]) == 0
    files = {
        "w5": capsys.readouterr().out,
        "partial": "0 0\n",
        "total": "".join(f"{v} {v}\n" for v in range(6)),
        "rational": "vertex 0 boundary\nvertex 1 interior\nedge 0 0 1 w=1/2\n",
        "loop": "vertex 0 interior\nedge 0 0 0\n",
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
