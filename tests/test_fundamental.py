"""Unit tests for the fundamental module, critical groups, and spectra."""

import pytest

from graphalg.exact_algebra import ModuleDecomposition, poly_divides
from graphalg.families import (
    complete_bipartite_bi,
    complete_graph,
    cube,
    cycle,
    wheel,
)
from graphalg.fundamental import (
    charpoly_divisibility_check,
    critical_group,
    eigen_multiplicity,
    laplacian_charpoly,
    spanning_tree_count,
    torsion_crosscheck,
    upsilon,
    upsilon_reduced,
)
from graphalg.network import Network
from graphalg.partial_graph import bipartite_double_cover


class TestUpsilon:
    def test_K23(self):
        report = upsilon(Network.standard(complete_bipartite_bi(2, 3)))
        assert report.decomposition == ModuleDecomposition(2, (2, 2))
        assert report.nondegenerate

    def test_free_rank_is_boundary_size_when_nondegenerate(self):
        for m, n in [(2, 2), (3, 2), (4, 5)]:
            report = upsilon(Network.standard(complete_bipartite_bi(m, n)))
            assert report.decomposition.free_rank == m

    def test_degenerate_flagged(self):
        report = upsilon(Network.standard(cycle(4)))
        assert not report.nondegenerate

    def test_reduced_equals_critical_torsion(self):
        for G in (complete_graph(5), cycle(7), wheel(4).graph):
            red = upsilon_reduced(Network.standard(G))
            assert red.invariant_factors == critical_group(G).invariant_factors


class TestCriticalGroup:
    def test_cycle_is_cyclic(self):
        for n in range(3, 8):
            assert critical_group(cycle(n)) == ModuleDecomposition(0, (n,))

    def test_K4(self):
        assert critical_group(complete_graph(4)) == ModuleDecomposition(
            0, (4, 4)
        )

    def test_one_boundary_vertex_variant_agrees(self):
        # the torsion of Upsilon does not change when one vertex of a
        # connected graph becomes boundary
        for G in (complete_graph(6), wheel(6).graph, cycle(5), cube(3)):
            one = G.with_boundary({G.vertices[0]})
            alt = upsilon(Network.standard(one)).decomposition
            assert alt.free_rank == 1
            assert alt.invariant_factors == critical_group(G).invariant_factors

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            critical_group(cycle(4, boundary={0}))

    def test_order_counts_spanning_trees(self):
        for G in (complete_graph(5), wheel(5).graph, cycle(6)):
            torsion = critical_group(G)
            assert torsion.torsion_order == spanning_tree_count(G)

    def test_cayley_formula(self):
        assert spanning_tree_count(complete_graph(6)) == 6**4


class TestTorsionCrosscheck:
    def test_three_routes_agree(self):
        assert torsion_crosscheck(Network.standard(complete_bipartite_bi(3, 4)))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            torsion_crosscheck(Network.standard(cycle(4)))


class TestSpectra:
    def test_laplacian_charpoly_constant_term_vanishes(self):
        # 0 is always a Laplacian eigenvalue of a boundaryless graph
        p = laplacian_charpoly(Network.standard(cycle(5)))
        assert p[-1] == 0
        assert eigen_multiplicity(Network.standard(cycle(5)), 0) == 1

    def test_eigen_multiplicity_K4(self):
        # spectrum of L(K_4): 0, 4, 4, 4
        N = Network.standard(complete_graph(4))
        assert eigen_multiplicity(N, 4) == 3
        assert eigen_multiplicity(N, 0) == 1
        assert eigen_multiplicity(N, 1) == 0

    def test_double_cover_charpoly_divisibility(self):
        G = complete_graph(4)
        cover, f = bipartite_double_cover(G)
        assert charpoly_divisibility_check(
            f, Network.standard(cover), Network.standard(G)
        )
        # and directly: p_G(z) divides p_cover(z) for a degree-1 morphism
        assert poly_divides(
            laplacian_charpoly(Network.standard(G)),
            laplacian_charpoly(Network.standard(cover)),
        )
