"""Unit tests for networks and harmonic-function modules."""

from enum import IntEnum
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalg.exact_algebra import (
    DivisibleKernelError,
    ExactMatrix,
    Mod,
    charpoly,
    cokernel,
    kernel_QmodZ_torsion,
    kernel_mod_n,
    rank_over_Q,
)
from graphalg.families import clf, complete_bipartite_bi, cycle
from graphalg.fundamental import (
    eigen_multiplicity,
    laplacian_charpoly,
    upsilon,
    upsilon_reduced,
)
from graphalg.network import (
    Network,
    U0_QmodZ,
    U0_mod_n,
    VertexFunction,
    apply_L,
    in_U0,
    interior_block,
    _L_at,
    _is_zero,
    interior_rows,
    is_harmonic,
    is_nondegenerate,
    laplacian_matrix,
    pullback_harmonic,
    pushforward_U0,
    u0_brute_force_mod_n,
    validate_network_morphism,
)
from graphalg.partial_graph import PartialGraph, bipartite_double_cover, identity_morphism
from graphalg.verify import _clf_expected


INTEGER_SCALARS = st.integers(-3, 3).flatmap(
    lambda x: st.sampled_from([x, Fraction(x)])
)
RATIONAL_SCALARS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def integer_networks(draw, scalar=INTEGER_SCALARS):
    """A random network on 1-9 vertices with parallel edges, nonzero
    integer weights (some as Fractions with denominator 1) and integer
    offsets; with ``scalar=RATIONAL_SCALARS``, rational weights and
    offsets instead."""
    nv = draw(st.integers(1, 9))
    vertex = st.integers(0, nv - 1)
    ends = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
            # one vertex has no loop-free edge: drawing one only filters
            max_size=2 * nv if nv > 1 else 0,
        )
    )
    weights = draw(
        st.lists(scalar.filter(bool), min_size=len(ends), max_size=len(ends))
    )
    offsets = draw(st.lists(scalar, min_size=nv, max_size=nv))
    boundary = draw(st.sets(vertex, max_size=3))
    G = PartialGraph(range(nv), boundary, dict(enumerate(ends)))
    return Network(G, dict(enumerate(weights)), dict(enumerate(offsets)))


def oracle_laplacian(N):
    """L = D + sum over edges e of w(e) (e_t - e_h)(e_t - e_h)^T, built
    from the edge list as dense Fraction rows in vertex order."""
    V = N.graph.vertices
    pos = {v: i for i, v in enumerate(V)}
    L = [[Fraction(0)] * len(V) for _ in V]
    for v in V:
        L[pos[v]][pos[v]] += N.offset(v)
    for e, t, h in N.graph.edges:
        for a, sa in ((t, 1), (h, -1)):
            for b, sb in ((t, 1), (h, -1)):
                L[pos[a]][pos[b]] += sa * sb * N.weight(e)
    return L


def oracle_interior_block(N):
    """The V x V° block of :func:`oracle_laplacian` as an int matrix."""
    L = oracle_laplacian(N)
    cols = [N.graph.vertices.index(c) for c in N.graph.interior]
    return ExactMatrix([[int(row[j]) for j in cols] for row in L])


def path3(boundary=(0, 2)):
    return PartialGraph(range(3), boundary, {0: (0, 1), 1: (1, 2)})


class TestNetwork:
    def test_loops_rejected(self):
        G = PartialGraph(range(1), (), {0: (0, 0)})
        with pytest.raises(ValueError):
            Network(G, {0: 1})

    def test_weight_cover_required(self):
        with pytest.raises(ValueError):
            Network(path3(), {0: 1})

    @pytest.mark.parametrize("bad", [0.5, True, "1", None])
    def test_inexact_scalars_rejected(self, bad):
        with pytest.raises(TypeError, match="weight of edge 1 is not"):
            Network(path3(), {0: 1, 1: bad})
        with pytest.raises(TypeError, match="offset of vertex 1 is not"):
            Network(path3(), {0: 1, 1: 1}, {1: bad})

    def test_construction_errors(self):
        class One(IntEnum):
            ONE = 1

        G = path3()
        # edge 1 is a loop and edge 0 has no weight: the per-edge check
        # meets edge 0 first
        looped = PartialGraph(range(3), (0,), {0: (0, 1), 1: (1, 1)})
        cases = [
            (lambda: Network(G, {0: True, 1: 1}), TypeError,
             "weight of edge 0 is not an exact scalar"),
            (lambda: Network(G, {0: 1, 1: 1}, {1: 0.5}), TypeError,
             "offset of vertex 1 is not an exact scalar"),
            (lambda: Network(G, {0: 1, 1: 1}, {1: None}), TypeError,
             "offset of vertex 1 is not an exact scalar"),
            (lambda: Network(looped, {5: 1, 1: 1}), ValueError,
             "weight function must cover every edge exactly"),
            (lambda: Network(looped, {0: 1, 1: 1}), ValueError,
             "loops are not allowed in networks (edge 1)"),
            (lambda: Network(looped, {0: 0.5, 1: 1}), TypeError,
             "weight of edge 0 is not an exact scalar"),
            (lambda: Network(G, {0: 1}), ValueError,
             "weight function must cover every edge exactly"),
            (lambda: Network(G, {0: 1, 1: 1}, {9: 1.5}), ValueError,
             "offset on unknown vertex 9"),
        ]
        for build, error, message in cases:
            with pytest.raises(error) as err:
                build()
            assert str(err.value) == message
        # a subclass of int other than bool is exact, and kept as given
        N = Network(G, {0: One.ONE, 1: 1}, {1: One.ONE})
        assert type(N.weight(0)) is One and type(N.offset(1)) is One
        assert N.weights == ((0, 1), (1, 1)) and N.offsets == ((0, 0), (1, 1), (2, 0))

    def test_predicates(self):
        N = Network(path3(), {0: 1, 1: -1}, {1: 2})
        assert N.is_unit_weight()
        assert N.is_integral()
        assert not N.is_normalized()
        assert Network.standard(path3()).is_normalized()
        assert not Network(path3(), {0: 2, 1: 1}).is_unit_weight()
        assert Network(path3(), {0: Fraction(1, 2), 1: -1}).is_unit_weight()
        assert not Network(path3(), {0: Fraction(2), 1: 1}).is_unit_weight()
        assert not Network(path3(), {0: Fraction(0), 1: 1}).is_unit_weight()


class TestLaplacian:
    def test_path_matrix(self):
        N = Network.standard(path3())
        L = laplacian_matrix(N)
        assert L == ExactMatrix([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_offsets_enter_diagonal(self):
        N = Network(path3(), {0: 1, 1: 1}, {0: 5})
        assert laplacian_matrix(N)[0, 0] == 6

    def test_interior_block_shape(self):
        N = Network.standard(path3(boundary=(0, 2)))
        B = interior_block(N)
        assert (B.rows, B.cols) == (3, 1)

    def test_apply_L_and_harmonicity(self):
        N = Network.standard(path3())
        u = VertexFunction({0: 0, 1: 1, 2: 2})
        Lu = apply_L(N, u)
        assert Lu(1) == 0
        assert is_harmonic(N, u)  # interior is {1} only
        assert not is_harmonic(Network.standard(path3(boundary=())), u)

    def test_vertex_function_map_is_read_only(self):
        u = VertexFunction({0: 0, 1: 1, 2: 2})
        assert u.vmap == dict(u.values)
        with pytest.raises(TypeError):
            u.vmap[0] = 5
        assert u(0) == 0


class TestU0:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mod_n_matches_brute_force(self, n):
        G = complete_bipartite_bi(2, 3)
        N = Network.standard(G)
        assert U0_mod_n(N, n).torsion_order == len(u0_brute_force_mod_n(N, n))

    def test_QmodZ_on_K23(self):
        N = Network.standard(complete_bipartite_bi(2, 3))
        assert U0_mod_n(N, 2).torsion_order == 4
        assert str(U0_QmodZ(N)) == "Z/2 + Z/2"

    def test_QmodZ_on_clf_80_6(self):
        # the chain-link fence closed form, past verify's m <= 40
        N = Network.standard(clf(80, 6))
        assert U0_QmodZ(N) == _clf_expected(80, 6)

    def test_degenerate_network_rejected(self):
        # cycle with no boundary: constants lie in the kernel
        N = Network.standard(cycle(4))
        assert not is_nondegenerate(N)
        with pytest.raises(ValueError):
            U0_QmodZ(N)

    def test_in_U0_with_mod_values(self):
        N = Network.standard(complete_bipartite_bi(2, 3))
        m = 2  # boundary size
        u = VertexFunction(
            {0: Mod(0, 2), 1: Mod(0, 2), 2: Mod(1, 2), 3: Mod(1, 2), 4: Mod(0, 2)}
        )
        assert in_U0(N, u)
        assert not in_U0(
            N, VertexFunction({v: Mod(int(v == 2), 2) for v in range(5)})
        )


class TestOracle:
    """Every reader of the Laplacian against L built from the edge list."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(integer_networks(), integer_networks(RATIONAL_SCALARS)),
        st.data(),
    )
    def test_laplacian_matches_edge_sum_oracle(self, N, data):
        L = oracle_laplacian(N)
        V = N.graph.vertices
        assert [list(r) for r in laplacian_matrix(N).data] == L
        if N.is_integral():
            assert interior_rows(N) == [
                {j: x for j, x in enumerate(r) if x}
                for r in oracle_interior_block(N).data
            ]
        else:
            with pytest.raises(ValueError, match="integer weights required"):
                interior_rows(N)
        u = {v: data.draw(st.integers(-5, 5)) for v in V}
        want = [sum(a * u[y] for a, y in zip(row, V)) for row in L]
        assert [apply_L(N, u)(x) for x in V] == want
        # over Z/101, where the denominators 1..4 are units
        Lu = apply_L(N, {y: Mod(u[y], 101) for y in V})
        assert [Lu(x) for x in V] == [Mod(w, 101) for w in want]

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(integer_networks(), integer_networks(RATIONAL_SCALARS)),
        st.fractions(max_denominator=3).filter(lambda x: abs(x) <= 6),
    )
    def test_rank_readers_match_edge_sum_oracle(self, N, lam):
        L = oracle_laplacian(N)
        V = N.graph.vertices
        interior = [V.index(c) for c in N.graph.interior]
        block = ExactMatrix([[row[j] for j in interior] for row in L])
        assert is_nondegenerate(N) == (rank_over_Q(block) == len(interior))
        shifted = ExactMatrix(
            [[(lam if i == j else 0) - x for j, x in enumerate(row)]
             for i, row in enumerate(L)]
        )
        assert eigen_multiplicity(N, lam) == len(V) - rank_over_Q(shifted)
        if all(x.denominator == 1 for row in L for x in row):
            assert laplacian_charpoly(N) == charpoly(ExactMatrix(L).to_integer())
        else:
            with pytest.raises(ValueError, match="non-integer entries"):
                laplacian_charpoly(N)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(integer_networks(), integer_networks(RATIONAL_SCALARS)),
        st.data(),
    )
    def test_is_harmonic_matches_edge_sum_oracle(self, N, data):
        L = oracle_laplacian(N)
        V = N.graph.vertices
        # small values, so that Lu vanishes at some vertices
        u = {v: data.draw(st.integers(-1, 1)) for v in V}
        Lu = [sum(a * u[y] for a, y in zip(row, V)) for row in L]
        want = all(Lu[V.index(x)] == 0 for x in N.graph.interior)
        assert is_harmonic(N, u) == want
        # over Z/101 the oracle's values vanish when their residues do
        assert is_harmonic(N, {y: Mod(u[y], 101) for y in V}) == all(
            Mod(Lu[V.index(x)], 101) == 0 for x in N.graph.interior
        )
        partial = dict(list(u.items())[1:])
        with pytest.raises(ValueError, match="must be total"):
            is_harmonic(N, partial)

    def test_charpoly_of_integral_L_with_fraction_weights(self):
        # two parallel edges of weight 1/2 make an integral Laplacian
        G = PartialGraph(range(2), (), {0: (0, 1), 1: (0, 1)})
        N = Network(G, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert laplacian_charpoly(N) == [1, -2, 0]


class TestSparseRoute:
    """The interior block as sparse rows, and the modules read off its
    Smith diagonal, against the block built from the edge list."""

    @settings(max_examples=150, deadline=None)
    @given(integer_networks())
    def test_interior_rows_match_dense_block(self, N):
        block = oracle_interior_block(N)
        rows = interior_rows(N)
        assert len(rows) == block.rows
        assert all(x for r in rows for x in r.values())
        dense = tuple(
            tuple(r.get(j, 0) for j in range(block.cols)) for r in rows
        )
        assert dense == block.data

    def test_interior_rows_require_integers(self):
        G = path3()
        N = Network(G, {0: Fraction(1, 2), 1: 1})
        with pytest.raises(ValueError, match="integer weights required"):
            interior_rows(N)
        # U0 over Z/n reads s L (s = 2 here) when s is a unit mod n
        assert U0_mod_n(N, 3) == U0_mod_n(Network(G, {0: 1, 1: 2}), 3)
        with pytest.raises(ValueError, match="no residue mod 4"):
            U0_mod_n(N, 4)

    @settings(max_examples=100, deadline=None)
    @given(integer_networks(), st.integers(2, 12))
    def test_sparse_route_matches_dense_kernels(self, N, n):
        block = oracle_interior_block(N)
        assert U0_mod_n(N, n) == kernel_mod_n(block, n)
        try:
            want = kernel_QmodZ_torsion(block)
        except DivisibleKernelError:
            with pytest.raises(ValueError, match="degenerate"):
                U0_QmodZ(N)
        else:
            assert U0_QmodZ(N) == want

    @settings(max_examples=100, deadline=None)
    @given(integer_networks())
    def test_upsilon_matches_dense_cokernel(self, N):
        block = oracle_interior_block(N)
        report = upsilon(N)
        assert report.decomposition == cokernel(block)
        assert report.nondegenerate == is_nondegenerate(N)
        if N.is_normalized() and N.graph.vertices:
            reduced = ExactMatrix(block.data[1:])
            assert upsilon_reduced(N) == cokernel(reduced)


class TestFunctoriality:
    def test_morphism_weight_mismatch_rejected(self):
        G = path3()
        f = identity_morphism(G)
        N1 = Network(G, {0: 1, 1: 1})
        N2 = Network(G, {0: 1, 1: 2})
        with pytest.raises(ValueError):
            validate_network_morphism(f, N1, N2)

    def test_offset_condition(self):
        G = path3()
        f = identity_morphism(G)
        N1 = Network(G, {0: 1, 1: 1}, {1: 3})
        N2 = Network(G, {0: 1, 1: 1}, {1: 3})
        assert validate_network_morphism(f, N1, N2)[1] == 1
        N3 = Network(G, {0: 1, 1: 1}, {1: 4})
        with pytest.raises(ValueError):
            validate_network_morphism(f, N1, N3)

    def test_pullback_pushforward_roundtrip_doubles(self):
        G = complete_bipartite_bi(2, 3)
        cover, f = bipartite_double_cover(G)
        N1, N2 = Network.standard(cover), Network.standard(G)
        for u in u0_brute_force_mod_n(N2, 2):
            pulled = pullback_harmonic(f, N1, N2, u)
            pushed = pushforward_U0(f, N1, N2, pulled)
            assert pushed == VertexFunction(
                {v: 2 * u(v) for v in G.vertices}
            )

    def test_pullback_requires_harmonic_input(self):
        G = complete_bipartite_bi(2, 3)
        cover, f = bipartite_double_cover(G)
        N1, N2 = Network.standard(cover), Network.standard(G)
        bad = VertexFunction({v: Fraction(v) for v in G.vertices})
        with pytest.raises(ValueError):
            pullback_harmonic(f, N1, N2, bad)


@st.composite
def small_rational_networks(draw):
    """A network on 1-5 vertices with at most 3 interior ones and weights
    and offsets in Q, some with denominators 2 or 3."""
    nv = draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    ends = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
            max_size=2 * nv if nv > 1 else 0,
        )
    )
    scalar = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    weights = draw(
        st.lists(scalar.filter(bool), min_size=len(ends), max_size=len(ends))
    )
    offsets = draw(st.lists(scalar, min_size=nv, max_size=nv))
    boundary = draw(st.sets(vertex, min_size=max(0, nv - 3), max_size=nv))
    G = PartialGraph(range(nv), boundary, dict(enumerate(ends)))
    return Network(G, dict(enumerate(weights)), dict(enumerate(offsets)))


class TestRationalNetworks:
    @settings(max_examples=80, deadline=None)
    @given(small_rational_networks(), st.integers(2, 6))
    def test_U0_mod_n_matches_brute_force(self, N, n):
        s = N._laplacian[1]
        if gcd(s, n) > 1:
            with pytest.raises(ValueError, match=f"no residue mod {n}$"):
                U0_mod_n(N, n)
        else:
            got = U0_mod_n(N, n).torsion_order
            assert got == len(u0_brute_force_mod_n(N, n))

    def test_path_with_a_half_weight(self):
        G = PartialGraph(range(4), {0, 3}, {0: (0, 1), 1: (1, 2), 2: (2, 3)})
        N = Network(G, {0: Fraction(1, 2), 1: 3, 2: 1}, {1: -3, 2: -4})
        for n in (5, 7, 11):
            assert U0_mod_n(N, n).torsion_order == len(
                u0_brute_force_mod_n(N, n))
        for n in (2, 6):
            with pytest.raises(ValueError, match="no residue mod"):
                U0_mod_n(N, n)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(integer_networks(), integer_networks(RATIONAL_SCALARS)),
        st.sampled_from([None, 2, 5, 6, 7, 12]),
        st.data(),
    )
    def test_is_harmonic_matches_L_at(self, N, n, data):
        """On s > 1 and gcd(s, n) of 1 or more, and on values that are
        mostly not harmonic: the int check answers as Lu's own entries,
        and raises as they do."""
        V = N.graph.vertices
        values = st.integers(-2, 2) if n else (
            st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3))
        u = {v: data.draw(values) for v in V}
        if n:
            u = {v: Mod(x, n) for v, x in u.items()}

        def by_L_at():
            return all(_is_zero(_L_at(N, u, x)) for x in N.graph.interior)

        try:
            want = by_L_at()
        except ValueError as exc:
            assert gcd(N._laplacian[1], n) > 1
            with pytest.raises(ValueError, match=str(exc)):
                is_harmonic(N, u)
            return
        assert is_harmonic(N, u) == want

    @settings(max_examples=100, deadline=None)
    @given(integer_networks(RATIONAL_SCALARS), st.data())
    def test_is_harmonic_on_a_perturbed_constant(self, N, data):
        """With zero offsets a constant is harmonic; adding 1/2 at one
        interior vertex x makes Lu(x) half the weight sum at x, and the
        neighbors' Lu minus half their weights to x."""
        G = N.graph
        N = Network(G, dict(N.weights))
        c = data.draw(st.fractions(-3, 3, max_denominator=4))
        u = {v: c for v in G.vertices}
        assert is_harmonic(N, u)
        assert is_harmonic(N, {v: Mod(c, 7) for v in G.vertices})
        if not G.interior:
            return
        x = data.draw(st.sampled_from(G.interior))
        u[x] += Fraction(1, 2)
        want = all(_is_zero(_L_at(N, u, y)) for y in G.interior)
        assert is_harmonic(N, u) == want
        if sum(w for e, w in N.weights if x in G.edge_dict[e]):
            assert not want

    def test_known_harmonic_and_not(self):
        # L on path 0 - 1 - 2 with weights 1/2, 1/3: u(1) = (3 u0 + 2 u2)/5
        N = Network(path3(), {0: Fraction(1, 2), 1: Fraction(1, 3)})
        assert N._laplacian[1] == 6
        u = {0: 0, 1: Fraction(2, 5), 2: 1}
        assert is_harmonic(N, u)
        assert not is_harmonic(N, {**u, 1: Fraction(1, 2)})
        assert is_harmonic(N, {v: Mod(x, 7) for v, x in u.items()})
        assert not is_harmonic(N, {0: Mod(0, 7), 1: Mod(1, 7), 2: Mod(1, 7)})
        with pytest.raises(ValueError, match="not invertible"):
            is_harmonic(N, {v: Mod(x, 12) for v, x in u.items()})
