"""Unit tests for the graph family generators."""

import pytest

from graphalg.cli import NetworkDocument, parse_document, serialize_document
from graphalg.families import (
    clf,
    clf_prime,
    clf_prime_isomorphism,
    complete_bipartite_bi,
    complete_graph,
    cube,
    cycle,
    rotation_action,
    wheel,
)
from graphalg.network import Network, validate_network_morphism
from graphalg.partial_graph import is_covering_map, validate_morphism
from graphalg.planar import validate_embedding


class TestClassicFamilies:
    def test_complete_graph(self):
        G = complete_graph(5, boundary={0})
        assert len(G.edges) == 10
        assert all(G.degree(v) == 4 for v in G.vertices)
        assert G.boundary == frozenset({0})

    def test_complete_bipartite(self):
        G = complete_bipartite_bi(2, 3)
        assert len(G.edges) == 6
        assert G.boundary == frozenset({0, 1})
        assert all(G.degree(v) == 3 for v in (0, 1))
        assert all(G.degree(v) == 2 for v in (2, 3, 4))

    def test_cycle(self):
        G = cycle(6, boundary={0, 3})
        assert len(G.edges) == 6
        assert all(G.degree(v) == 2 for v in G.vertices)

    def test_cube(self):
        G = cube(3)
        assert len(G.vertices) == 8
        assert len(G.edges) == 12
        assert all(G.degree(v) == 3 for v in G.vertices)
        assert not G.boundary

    def test_wheel_embeds(self):
        for n in (3, 5, 8):
            EW = wheel(n, hub_boundary=True)
            assert validate_embedding(EW)
            G = EW.graph
            assert G.degree(n) == n  # hub
            assert all(G.degree(k) == 3 for k in range(n))

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(0)
        with pytest.raises(ValueError):
            wheel(2)
        with pytest.raises(ValueError):
            clf(1, 1)


class TestChainLinkFence:
    def test_clf_counts(self):
        for m, n in [(3, 1), (4, 2), (5, 3)]:
            G = clf(m, n)
            assert len(G.vertices) == m * (n + 1)
            assert len(G.edges) == m * (2 * n + 1)
            assert len(G.boundary) == m

    def test_clf_prime_counts(self):
        for m, n in [(2, 1), (3, 2), (2, 4)]:
            G = clf_prime(m, n)
            assert len(G.vertices) == m * (n + 2)
            assert len(G.edges) == 2 * m * (n + 1)
            assert len(G.boundary) == 2 * m

    def test_isomorphism_is_edge_preserving_bijection(self):
        for m, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            G = clf(2 * m, n)
            H = clf_prime(m, 2 * n)
            phi = clf_prime_isomorphism(m, n)
            assert sorted(phi) == sorted(G.vertices)
            assert sorted(phi.values()) == sorted(H.vertices)
            assert {phi[v] for v in G.boundary} <= set(H.boundary)
            g_pairs = sorted(
                tuple(sorted((phi[t], phi[h]))) for _, t, h in G.edges
            )
            h_pairs = sorted(tuple(sorted((t, h))) for _, t, h in H.edges)
            assert g_pairs == h_pairs

    def test_rotation_action_is_covering(self):
        for m, n, sheets in [(2, 1, 2), (3, 2, 2), (2, 1, 3)]:
            f = rotation_action(m, n, sheets)
            degrees = validate_morphism(f)
            assert is_covering_map(f)
            assert all(d == 1 for d in degrees.values())
            assert validate_network_morphism(
                f, Network.standard(f.source), Network.standard(f.target)
            )
            # the same check on networks read back from their documents
            N1, N2 = (
                parse_document(
                    serialize_document(NetworkDocument(Network.standard(G)))
                ).network
                for G in (f.source, f.target)
            )
            assert validate_network_morphism(f, N1, N2)
            # every fiber has `sheets` points
            assert all(
                len(f.vertex_fiber(y)) == sheets
                for y in f.target.vertices
            )
