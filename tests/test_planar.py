"""Unit tests for disk embeddings, duality, and harmonic conjugates."""

from fractions import Fraction

import pytest

from graphalg.families import wheel
from graphalg.network import Network, VertexFunction, is_harmonic
from graphalg import planar
from graphalg.partial_graph import PartialGraph
from graphalg.planar import (
    EmbeddedPartialGraph,
    double_dual_is_isomorphic,
    dual,
    harmonic_conjugate,
    trace_faces,
    validate_embedding,
    verify_duality,
)


def embedded_triangle(boundary=(0, 1)):
    """Triangle with vertices 0, 1 on the circle and 2 inside."""
    G = PartialGraph(range(3), boundary, {0: (0, 1), 1: (1, 2), 2: (2, 0)})
    rotation = {
        0: ((0, 1), (2, -1)),
        1: ((1, 1), (0, -1)),
        2: ((2, 1), (1, -1)),
    }
    return EmbeddedPartialGraph(G, rotation, tuple(boundary))


class TestEmbedding:
    def test_triangle_validates(self):
        assert validate_embedding(embedded_triangle())

    def test_faces_of_triangle(self):
        faces = trace_faces(embedded_triangle())
        # inner triangle face + two boundary faces
        assert len(faces) == 3
        assert sum(f.is_boundary for f in faces) == 2

    def test_sphere_wheel_faces(self):
        EW = wheel(4)  # no boundary: sphere embedding
        faces = trace_faces(EW)
        # Euler: 5 - 8 + F = 2
        assert len(faces) == 5

    def test_bad_rotation_rejected(self):
        EG = embedded_triangle()
        rmap = EG.rmap
        rmap[0] = rmap[0][:1]  # drop a dart
        with pytest.raises(ValueError):
            validate_embedding(
                EmbeddedPartialGraph(EG.graph, rmap, EG.boundary_order)
            )

    def test_repeated_dart_rejected(self):
        # two parallel edges: "rotation 0 +0 +0" has the star's length
        G = PartialGraph(range(2), {0}, {0: (0, 1), 1: (0, 1)})
        rotation = {0: ((0, 1), (0, 1)), 1: ((0, -1), (1, -1))}
        with pytest.raises(ValueError, match="rotation at 0"):
            validate_embedding(EmbeddedPartialGraph(G, rotation, (0,)))

    def test_wrong_boundary_order_rejected(self):
        EG = embedded_triangle()
        with pytest.raises(ValueError):
            validate_embedding(
                EmbeddedPartialGraph(EG.graph, EG.rmap, (0,))
            )


    def test_bad_embedding_raises_on_every_call(self):
        EG = embedded_triangle()
        bad = EmbeddedPartialGraph(EG.graph, EG.rmap, (1, 0, 1))
        for _ in range(2):
            with pytest.raises(ValueError, match="boundary order"):
                validate_embedding(bad)
            with pytest.raises(ValueError, match="boundary order"):
                trace_faces(bad)


def count_face_walks(monkeypatch):
    """Wrap the face walk in a counter; returns the list of walks."""
    walks = []
    walk = planar._trace_all_faces

    def counted(EG):
        walks.append(EG)
        return walk(EG)

    monkeypatch.setattr(planar, "_trace_all_faces", counted)
    return walks


def reference_faces(EG):
    """The face walks, one dart at a time: each step reverses the dart
    and takes its successor in the rotation."""
    rmap = planar._augmented_rotation(EG)
    succ = {}
    for darts in rmap.values():
        for i, d in enumerate(darts):
            succ[d] = darts[(i + 1) % len(darts)]
    faces = []
    seen = set()
    for start in succ:
        if start in seen:
            continue
        face = []
        d = start
        while True:
            face.append(d)
            seen.add(d)
            d = succ[d[:-1] + (-d[-1],)]
            if d == start:
                break
        faces.append(tuple(face))
    return faces


class TestFaceWalks:
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_walks_match_reference(self, n):
        for EW in (wheel(n), wheel(n, hub_boundary=True)):
            assert planar._trace_all_faces(EW) == reference_faces(EW)
        D = dual(Network.standard(EW.graph), EW).embedded
        assert planar._trace_all_faces(D) == reference_faces(D)
        for EG in (
            embedded_triangle(),
            EmbeddedPartialGraph(PartialGraph([0], (), {}), {0: ()}, ()),
        ):
            assert planar._trace_all_faces(EG) == reference_faces(EG)

    def test_validate_then_trace_walks_once(self, monkeypatch):
        walks = count_face_walks(monkeypatch)
        EG = embedded_triangle()
        assert validate_embedding(EG)
        assert len(trace_faces(EG)) == 3
        assert len(walks) == 1

    def test_dual_walks_primal_and_dual_once_each(self, monkeypatch):
        walks = count_face_walks(monkeypatch)
        EW = wheel(5, hub_boundary=True)
        D = dual(Network.standard(EW.graph), EW)
        assert walks == [EW, D.embedded]
        assert validate_embedding(D.embedded)
        assert len(walks) == 2


class TestDual:
    def test_triangle_dual_shape(self):
        EG = embedded_triangle()
        D = dual(Network.standard(EG.graph), EG)
        Gd = D.network.graph
        assert len(Gd.vertices) == 3
        assert set(Gd.edge_ids) == {0, 1, 2}
        assert len(Gd.boundary) == 2

    def test_weights_inverted(self):
        EG = embedded_triangle()
        N = Network(EG.graph, {0: 2, 1: -1, 2: Fraction(3, 4)})
        D = dual(N, EG)
        assert D.network.weight(0) == Fraction(1, 2)
        assert D.network.weight(1) == -1
        assert D.network.weight(2) == Fraction(4, 3)

    def test_boundaryless_rejected(self):
        EW = wheel(4)
        with pytest.raises(ValueError):
            dual(Network.standard(EW.graph), EW)

    def test_double_dual_triangle(self):
        EG = embedded_triangle()
        assert double_dual_is_isomorphic(Network.standard(EG.graph), EG)

    def test_double_dual_wheels(self):
        for n in (3, 4, 5):
            EW = wheel(n, hub_boundary=True)
            assert double_dual_is_isomorphic(Network.standard(EW.graph), EW)

    def test_wheel_duality_torsion(self):
        for n in (3, 4, 5, 6):
            EW = wheel(n, hub_boundary=True)
            assert verify_duality(Network.standard(EW.graph), EW)

    def test_duality_needs_normalized_network(self):
        EG = embedded_triangle()
        N = Network(EG.graph, {e: 1 for e in EG.graph.edge_ids}, {2: 1})
        with pytest.raises(ValueError):
            verify_duality(N, EG)

    def test_duality_with_non_integral_dual_rejected(self):
        EW = wheel(4, hub_boundary=True)
        N = Network(EW.graph, {e: 2 for e in EW.graph.edge_ids})
        with pytest.raises(ValueError, match="integer weights required"):
            verify_duality(N, EW)


class TestConjugate:
    def test_conjugate_satisfies_cauchy_riemann(self):
        EG = embedded_triangle()
        N = Network.standard(EG.graph)
        # harmonic: interior vertex 2 averages its neighbors
        u = {0: Fraction(0), 1: Fraction(2), 2: Fraction(1)}
        v, D = harmonic_conjugate(N, EG, u)
        assert is_harmonic(D.network, v)
        Gd = D.network.graph
        for e, t, h in Gd.edges:
            pt, ph = N.graph.edge_dict[e]
            du = u[ph] - u[pt]
            assert v(h) - v(t) == N.weight(e) * du

    def test_non_harmonic_input_rejected(self):
        EG = embedded_triangle()
        N = Network.standard(EG.graph)
        with pytest.raises(ValueError):
            harmonic_conjugate(N, EG, {0: 0, 1: 5, 2: 1})

    def test_partial_input_rejected(self):
        EG = embedded_triangle()
        N = Network.standard(EG.graph)
        with pytest.raises(ValueError, match="must be total"):
            harmonic_conjugate(N, EG, {0: 0, 1: 2})

    def test_conjugate_of_constant_is_constant(self):
        EW = wheel(5, hub_boundary=True)
        N = Network.standard(EW.graph)
        u = {x: Fraction(3) for x in EW.graph.vertices}
        v, D = harmonic_conjugate(N, EW, u)
        assert all(v(x) == 0 for x in D.network.graph.vertices)
