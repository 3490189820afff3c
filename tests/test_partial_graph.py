"""Unit tests for graphs with boundary and their morphisms."""

import random

import pytest

from graphalg.network import Network
from graphalg.partial_graph import (
    EDGE,
    DGraphMorphism,
    PartialGraph,
    bipartite_double_cover,
    box_product,
    compose,
    disjoint_union,
    full_subgraph,
    identity_morphism,
    is_covering_map,
    is_unramified,
    pullback_subgraph,
    rev,
    validate_morphism,
    validate_subgraph,
    wedge_sum,
)


def path(n, boundary=()):
    return PartialGraph(
        range(n), boundary, {k: (k, k + 1) for k in range(n - 1)}
    )


def triangle(boundary=()):
    return PartialGraph(range(3), boundary, {0: (0, 1), 1: (1, 2), 2: (2, 0)})


class TestPartialGraph:
    def test_partition_accessors(self):
        G = path(4, boundary={0, 3})
        assert G.interior == (1, 2)
        assert G.boundary == frozenset({0, 3})

    def test_star_and_degree(self):
        G = triangle()
        assert set(G.star(0)) == {(0, 1), (2, -1)}
        assert G.degree(1) == 2
        assert G.neighbors(2) == [0, 1]

    def test_oriented_edge_endpoints(self):
        G = triangle()
        assert G.o_tail((1, 1)) == 1 and G.o_head((1, 1)) == 2
        assert G.o_tail((1, -1)) == 2 and G.o_head((1, -1)) == 1
        assert rev((1, 1)) == (1, -1)

    @pytest.mark.parametrize("seed", range(30))
    def test_spanning_forest_covers_each_non_root_once(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(1, 10)
        edges = [
            (e, rng.randrange(nv), rng.randrange(nv))
            for e in range(rng.randint(0, 2 * nv))
        ]
        G = PartialGraph(range(nv), (), edges)
        forest = G.spanning_forest()
        comps = G.connected_components()
        roots = {min(c) for c in comps}
        assert set(forest) == set(G.vertices) - roots
        assert len({e for e, _ in forest.values()}) == len(forest)
        found = list(roots)
        for v, oe in forest.items():
            # each dart leads from an earlier vertex of v's component to v
            assert oe in G.star(G.o_tail(oe)) and G.o_head(oe) == v
            assert G.o_tail(oe) in found
            found.append(v)

    def test_cached_lookups_are_read_only(self):
        G = triangle()
        assert G.star(0) == G.star(0) and G.edge_dict[1] == (1, 2)
        with pytest.raises(TypeError):
            G.edge_dict[1] = (0, 0)
        N = Network.standard(G)
        with pytest.raises(TypeError):
            N.wmap[0] = 5
        with pytest.raises(TypeError):
            N.dmap[0] = 5
        assert G.edge_dict[1] == (1, 2) and N.weight(0) == 1

    def test_multigraph_edges_kept_separately(self):
        G = PartialGraph(range(2), (), {0: (0, 1), 1: (0, 1)})
        assert G.degree(0) == 2
        assert len(G.edges) == 2

    def test_loop_star_counts_both_orientations(self):
        G = PartialGraph(range(1), (), {0: (0, 0)})
        assert G.degree(0) == 2

    def test_connectivity_and_deletion(self):
        G = path(4)
        assert G.is_connected()
        H = G.delete_vertex(1)
        assert not H.is_connected()
        assert sorted(map(min, H.connected_components())) == [0, 2]
        assert len(G.delete_edge(0).edges) == 2

    def test_repeated_edge_id_rejected(self):
        # edge_dict would keep one of the two edges and the Laplacian both
        with pytest.raises(ValueError, match="repeated edge id 0"):
            PartialGraph([0, 1, 2], [0], [(0, 0, 1), (0, 1, 2)])

    def test_unknown_boundary_vertex_rejected(self):
        with pytest.raises(ValueError, match="boundary vertex 5 is not a vertex"):
            PartialGraph(range(3), {0, 5}, {0: (0, 1)})

    def test_unknown_edge_endpoint_rejected(self):
        for edges in ([(0, 0, 1), (1, 7, 2)], {0: (0, 1), 1: (2, 7)}):
            with pytest.raises(ValueError, match="edge endpoint 7 is not a vertex"):
                PartialGraph(range(3), (), edges)

    @pytest.mark.parametrize(
        "vertices,boundary,edges,error,message",
        [
            (range(3), {0, 5}, {0: (0, 1)}, ValueError, "boundary vertex 5 is not a vertex"),
            (range(3), {0, 5}, [(0, 0, 1)], ValueError, "boundary vertex 5 is not a vertex"),
            (range(3), (), [(0, 0, 1), (0, 1, 2)], ValueError, "repeated edge id 0"),
            (range(3), (), {0: (0, 1), 1: (2, 7)}, ValueError,
             "edge endpoint 7 is not a vertex (edge 1 references unknown vertices)"),
            (range(3), (), [(0, 0, 1), (1, 7, 2)], ValueError,
             "edge endpoint 7 is not a vertex (edge 1 references unknown vertices)"),
            ([0, None], (), {}, TypeError,
             "int() argument must be a string, a bytes-like object or a real"
             " number, not 'NoneType'"),
            ([0, "x"], (), {}, ValueError, "invalid literal for int() with base 10: 'x'"),
            (range(3), (), {0: (0, None)}, TypeError,
             "int() argument must be a string, a bytes-like object or a real"
             " number, not 'NoneType'"),
            (range(3), (), [(0, 1, "x")], ValueError,
             "invalid literal for int() with base 10: 'x'"),
            (range(3), (), {0: (0, 1, 2)}, ValueError, "too many values to unpack (expected 2)"),
            (range(3), (), {0: 1}, TypeError, "cannot unpack non-iterable int object"),
            (range(3), (), [(0, 1, 2), (1, 1)], ValueError,
             "not enough values to unpack (expected 3, got 2)"),
            (range(3), (), [(0, 1, 2, 3)], ValueError, "too many values to unpack (expected 3)"),
        ],
    )
    def test_construction_errors(self, vertices, boundary, edges, error, message):
        with pytest.raises(error) as err:
            PartialGraph(vertices, boundary, edges)
        assert str(err.value) == message

    def test_vertex_deletion_drops_incident_edges(self):
        G = PartialGraph(range(2), (), {0: (0, 1)})
        H = G.delete_vertex(1)
        assert H.vertices == (0,) and H.edges == ()


class TestMorphisms:
    def test_identity_validates_with_degree_one(self):
        G = triangle(boundary={0})
        f = identity_morphism(G)
        degrees = validate_morphism(f)
        assert all(d == 1 for d in degrees.values())
        assert is_covering_map(f)
        assert is_unramified(f)

    def test_collapse_edge_to_vertex(self):
        # collapse the path 0-1 onto a single vertex
        G = path(2, boundary={0, 1})
        H = PartialGraph([0], {0}, {})
        f = DGraphMorphism(G, H, {0: 0, 1: 0}, {0: ("vertex", 0)})
        degrees = validate_morphism(f)
        assert degrees == {0: 0, 1: 0}
        assert not is_covering_map(f)

    def test_interior_cannot_map_to_boundary(self):
        G = path(2)  # both interior
        H = path(2, boundary={0})
        f = DGraphMorphism(
            G, H, {0: 0, 1: 1}, {0: (EDGE, 0, 1)}
        )
        with pytest.raises(ValueError):
            validate_morphism(f)

    def test_double_cover_is_covering(self):
        G = triangle(boundary={0})
        cover, f = bipartite_double_cover(G)
        assert len(cover.vertices) == 6
        assert len(cover.edges) == 6
        assert is_covering_map(f)
        assert is_unramified(f)
        # C_3 double-covers to C_6
        assert cover.is_connected()
        assert all(cover.degree(v) == 2 for v in cover.vertices)

    def test_morphism_maps_are_read_only(self):
        G = triangle()
        cover, f = bipartite_double_cover(G)
        assert f.vmap == dict(f.vertex_map)
        with pytest.raises(TypeError):
            f.vmap[0] = 1
        with pytest.raises(TypeError):
            f.emap[0] = (EDGE, 1, 1)
        assert f.emap == dict(f.edge_map)
        assert [f.vertex_image(x) for x in cover.vertices] == [
            y for _, y in f.vertex_map
        ]

    def test_compose_covering_with_identity(self):
        G = triangle()
        cover, f = bipartite_double_cover(G)
        g = compose(identity_morphism(G), f)
        assert is_covering_map(g)

    def test_box_product_projections(self):
        G1 = path(2, boundary={0})
        G2 = path(3, boundary={0, 2})
        G, p1, p2 = box_product(G1, G2)
        assert len(G.vertices) == 6
        # edges: |E1||V2| + |V1||E2|
        assert len(G.edges) == 1 * 3 + 2 * 2
        validate_morphism(p1)
        validate_morphism(p2)
        # interior iff both factors interior
        assert len(G.interior) == len(G1.interior) * len(G2.interior)

    def test_disjoint_union_and_wedge(self):
        G1 = triangle(boundary={0})
        G2 = path(2, boundary={0, 1})
        U, v1, v2, e1, e2 = disjoint_union(G1, G2)
        assert len(U.vertices) == 5 and len(U.edges) == 4
        W, *_ = wedge_sum(G1, 0, G2, 0)
        assert len(W.vertices) == 4 and len(W.edges) == 4
        with pytest.raises(ValueError):
            wedge_sum(G1, 1, G2, 0)  # 1 is interior in G1


class TestSubgraphs:
    def test_full_subgraph_validates_and_realizes(self):
        G = triangle(boundary={0})
        sub = full_subgraph(G)
        assert validate_subgraph(G, sub)
        assert sub.realize(G) == G

    def test_interior_vertex_needs_full_star(self):
        G = path(3, boundary={0, 2})
        from graphalg.partial_graph import SubGraph

        with pytest.raises(ValueError):
            validate_subgraph(G, SubGraph({0, 1}, {0}, {1}))

    def test_pullback_along_double_cover(self):
        G = triangle(boundary={0})
        cover, f = bipartite_double_cover(G)
        sub = full_subgraph(G)
        pulled = pullback_subgraph(f, sub)
        assert validate_subgraph(cover, pulled)
        assert pulled.vertices == frozenset(cover.vertices)
