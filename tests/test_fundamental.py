"""Unit tests for the fundamental module, critical groups, and spectra."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from graphalg.network import Network, laplacian_matrix
from graphalg.partial_graph import PartialGraph, bipartite_double_cover
from graphalg.verify import _two_lift_identity

nonzero_fractions = st.fractions(-5, 5, max_denominator=4).filter(bool)


def monic_with_roots(roots):
    """Coefficients of prod (z - r), highest degree first."""
    p = [1]
    for r in roots:
        p = [a - r * b for a, b in zip(p + [0], [0] + p)]
    return p


@st.composite
def fraction_networks(draw):
    """A random network on 2-6 vertices with parallel edges, nonzero
    Fraction weights and Fraction offsets, and a value of lambda: one
    of the diagonal entries of L, or any small fraction."""
    nv = draw(st.integers(2, 6))
    vertex = st.integers(0, nv - 1)
    ends = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=2 * nv,
        )
    )
    weights = draw(
        st.lists(nonzero_fractions, min_size=len(ends), max_size=len(ends))
    )
    offsets = draw(
        st.lists(
            st.fractions(-3, 3, max_denominator=3), min_size=nv, max_size=nv
        )
    )
    G = PartialGraph(range(nv), (), dict(enumerate(ends)))
    N = Network(G, dict(enumerate(weights)), dict(enumerate(offsets)))
    L = laplacian_matrix(N)
    lam = draw(
        st.sampled_from([L[i, i] for i in range(nv)])
        | st.fractions(-6, 6, max_denominator=4)
        | st.integers(-6, 6)
    )
    return N, lam


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

    @pytest.mark.parametrize("n", [48, 64])
    def test_complete_graph(self, n):
        # K(K_n) = (Z/n)^(n-2): after one unit pivot the Smith core
        # clears the block by pivots n that divide their row and column
        assert critical_group(complete_graph(n)) == ModuleDecomposition(
            0, (n,) * (n - 2)
        )

    def test_cube_7(self):
        # Q_n has 2^(2^n - n - 1) * prod k^C(n, k) spanning trees
        torsion = critical_group(cube(7))
        assert len(torsion.invariant_factors) == 63
        trees = 2 ** (2**7 - 7 - 1)
        for k in range(1, 8):
            trees *= k ** comb(7, k)
        assert torsion.torsion_order == trees


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

    def test_cube_charpoly_closed_form(self):
        # L(Q_6) has eigenvalue 2k with multiplicity C(6, k)
        roots = [2 * k for k in range(7) for _ in range(comb(6, k))]
        p = laplacian_charpoly(Network.standard(cube(6)))
        assert p == monic_with_roots(roots)

    def test_cube_7_charpoly_closed_form(self):
        # 128 vertices: the bound (1 + 14)^128 needs nine primes
        roots = [2 * k for k in range(8) for _ in range(comb(7, k))]
        p = laplacian_charpoly(Network.standard(cube(7)))
        assert p == monic_with_roots(roots)

    def test_complete_graph_charpoly_closed_form(self):
        # L(K_32) = 32 I - J: eigenvalue 0 once and 32 thirty-one times
        p = laplacian_charpoly(Network.standard(complete_graph(32)))
        assert p == monic_with_roots([0] + [32] * 31)

    def test_complete_graph_48_charpoly_closed_form(self):
        # the bound (1 + 94)^48 needs six primes
        p = laplacian_charpoly(Network.standard(complete_graph(48)))
        assert p == monic_with_roots([0] + [48] * 47)

    def test_eigen_multiplicity_K4(self):
        # spectrum of L(K_4): 0, 4, 4, 4
        N = Network.standard(complete_graph(4))
        assert eigen_multiplicity(N, 4) == 3
        assert eigen_multiplicity(N, 0) == 1
        assert eigen_multiplicity(N, 1) == 0

    @pytest.mark.parametrize("n", [60, 61, 62, 63])
    def test_eigen_multiplicity_of_cycle(self, n):
        # L(C_n) has the eigenvalues 2 - 2 cos(2 pi k / n), k = 0..n-1.
        # The rational values of cos at rational multiples of pi are
        # 0, +-1/2 and +-1, so the integer eigenvalue lam = 2 - 2 cos t
        # comes exactly from the turns t / (2 pi) listed here.
        turns = {
            0: {Fraction(0)},
            1: {Fraction(1, 6), Fraction(5, 6)},
            2: {Fraction(1, 4), Fraction(3, 4)},
            3: {Fraction(1, 3), Fraction(2, 3)},
            4: {Fraction(1, 2)},
        }
        N = Network.standard(cycle(n))
        for lam, at in turns.items():
            want = sum(Fraction(k, n) in at for k in range(n))
            assert eigen_multiplicity(N, lam) == want

    @pytest.mark.parametrize("n", [30, 48, 64])
    def test_eigen_multiplicity_of_complete_graph(self, n):
        # L(K_n) = n I - J: n I - L = J has rank 1, and L has rank n - 1
        N = Network.standard(complete_graph(n))
        assert eigen_multiplicity(N, n) == n - 1
        assert eigen_multiplicity(N, 0) == 1

    @settings(max_examples=80, deadline=None)
    @given(fraction_networks())
    def test_eigen_multiplicity_matches_sympy_nullity(self, case):
        import sympy

        N, lam = case
        L = laplacian_matrix(N)
        rational = lambda x: sympy.Rational(x.numerator, x.denominator)
        shifted = sympy.Matrix(
            [
                [
                    (rational(lam) if i == j else 0) - rational(x)
                    for j, x in enumerate(row)
                ]
                for i, row in enumerate(L.data)
            ]
        )
        assert eigen_multiplicity(N, lam) == len(shifted.nullspace())

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 6),
        nonzero_fractions,
        st.fractions(-3, 3, max_denominator=3),
    )
    def test_eigen_multiplicity_of_weighted_complete_graph(self, n, w, c):
        # L = c*I + w*(n*I - J): eigenvalue c once, c + n*w n-1 times
        G = complete_graph(n)
        N = Network(
            G, {e: w for e in G.edge_ids}, {v: c for v in G.vertices}
        )
        assert eigen_multiplicity(N, c + n * w) == n - 1
        assert eigen_multiplicity(N, c) == 1
        assert eigen_multiplicity(N, c + n * w / 2) == 0

    def test_two_lift_identity_rejects_a_wrong_base(self):
        cover, _ = bipartite_double_cover(cycle(8))
        p_cover = laplacian_charpoly(Network.standard(cover))

        def identity(G):
            p_base = laplacian_charpoly(Network.standard(G))
            return _two_lift_identity(G, p_base, p_cover)

        assert identity(cycle(8))
        assert not identity(cycle(5))
        # the path on 8 vertices has the degree of the cover's quotient
        path = PartialGraph(range(8), (), [(i, i, i + 1) for i in range(7)])
        assert not identity(path)

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
