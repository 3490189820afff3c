"""Unit tests for the exact linear algebra layer."""

from fractions import Fraction
from itertools import product
from math import comb, gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphalg.exact_algebra import (
    DivisibleKernelError,
    ExactMatrix,
    Mod,
    ModuleDecomposition,
    _inverse,
    _is_prime,
    _is_unit,
    _prime,
    _sparse_pivots,
    charpoly,
    cokernel,
    determinant,
    kernel_QmodZ_torsion,
    kernel_mod_n,
    poly_divides,
    rank_over_Q,
    smith_diagonal,
    snf,
)
from graphalg.families import complete_graph
from graphalg.network import Network, interior_block, laplacian_matrix
from graphalg.partial_graph import PartialGraph

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@st.composite
def multigraph_blocks(draw, sizes=(12, 14), edges=(1, 3), weight=st.integers(1, 3)):
    """The interior block, or the rank-deficient full Laplacian, of a
    random multigraph with ``sizes`` vertices, ``edges`` times as many
    edges (parallel ones allowed), weights drawn from ``weight`` and a
    random boundary."""
    nv = draw(st.integers(*sizes))
    vertex = st.integers(0, nv - 1)
    ends = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
            min_size=int(edges[0] * nv),
            max_size=int(edges[1] * nv),
        )
    )
    weights = draw(st.lists(weight, min_size=len(ends), max_size=len(ends)))
    boundary = draw(st.sets(vertex, max_size=4))
    G = PartialGraph(range(nv), boundary, dict(enumerate(ends)))
    N = Network(G, dict(enumerate(weights)))
    if draw(st.booleans()):
        return laplacian_matrix(N)
    return interior_block(N)


def sympy_smith(A):
    """(diagonal, rank) of smith_diagonal's form, from sympy's
    invariant factors."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    want = invariant_factors(Matrix([list(r) for r in A.data]), domain=ZZ)
    nonzero = tuple(int(abs(d)) for d in want if d)
    return nonzero + (0,) * (min(A.rows, A.cols) - len(nonzero)), len(nonzero)


class TestMod:
    def test_arithmetic(self):
        a = Mod(4, 7)
        b = Mod(5, 7)
        assert a + b == Mod(2, 7)
        assert a - b == Mod(6, 7)
        assert a * b == Mod(6, 7)
        assert -a == Mod(3, 7)
        assert 2 * a == Mod(1, 7)

    def test_fraction_coercion_uses_modular_inverse(self):
        assert Mod(Fraction(1, 2), 5) == Mod(3, 5)
        assert Mod(Fraction(2, 3), 7) == Mod(3, 7)

    def test_noninvertible_denominator_rejected(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Mod(Fraction(1, 2), 4)

    def test_truthiness_and_int_comparison(self):
        assert not Mod(0, 6)
        assert Mod(3, 6)
        assert Mod(5, 6) == -1

    @given(
        st.integers(-50, 50) | st.fractions(-9, 9, max_denominator=6),
        st.integers(2, 40),
    )
    def test_residue_of_a_value_or_of_a_mod(self, x, n):
        assume(gcd(x.denominator, n) == 1)
        r = Mod(x, n)
        assert 0 <= r.value < n
        assert (r * x.denominator).value == x.numerator % n
        assert Mod(r, n) == r


def reference_is_unit(w):
    """The unit test that ``Network.is_unit_weight`` applied to each
    weight before it moved to ``_is_unit``."""
    if isinstance(w, Fraction) and w.denominator != 1:
        return w != 0
    return w in (1, -1)


exact_scalars = (
    st.integers(-6, 6)
    | st.fractions(-6, 6, max_denominator=5)
    | st.integers(-6, 6).map(Fraction)
)


class TestWeightRules:
    @given(exact_scalars)
    def test_is_unit_matches_reference(self, w):
        assert _is_unit(w) == reference_is_unit(w)

    @given(exact_scalars.filter(bool))
    def test_inverse(self, w):
        assert _inverse(w) * w == 1
        assert type(_inverse(w)) is (type(w) if w in (1, -1) else Fraction)


class TestModuleDecomposition:
    def test_from_cyclic_orders_chains_factors(self):
        d = ModuleDecomposition.from_cyclic_orders((6, 4))
        assert d.invariant_factors == (2, 12)
        assert d.torsion_order == 24

    def test_zero_order_counts_as_free(self):
        d = ModuleDecomposition.from_cyclic_orders((0, 3, 0))
        assert d.free_rank == 2
        assert d.invariant_factors == (3,)

    def test_product_of_two_large_primes(self):
        # trial division would need about 10^12 steps on this order
        p, q = 999999999989, 1000000000039
        d = ModuleDecomposition.from_cyclic_orders((p * q, p, 1, 0))
        assert d.free_rank == 1
        assert d.invariant_factors == (p, p * q)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 3000), max_size=8))
    def test_from_cyclic_orders_matches_prime_powers(self, orders):
        from sympy import factorint

        # each prime's powers, largest first; factor i of the chain
        # counted from the top is the product of the i-th largest ones
        powers = {}
        for o in filter(None, orders):
            for prime, k in factorint(o).items():
                powers.setdefault(prime, []).append(prime**k)
        columns = [sorted(v, reverse=True) for v in powers.values()]
        depth = max(map(len, columns), default=0)
        want = [
            prod(c[i] for c in columns if i < len(c))
            for i in reversed(range(depth))
        ]
        d = ModuleDecomposition.from_cyclic_orders(orders)
        assert d.free_rank == orders.count(0)
        assert list(d.invariant_factors) == want

    def test_str(self):
        assert str(ModuleDecomposition(2, (3, 15))) == "Z^2 + Z/3 + Z/15"
        assert str(ModuleDecomposition(1, ())) == "Z"
        assert str(ModuleDecomposition(0, ())) == "0"


class TestSnf:
    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_snf_relation_and_divisibility(self, rows):
        A = ExactMatrix(rows)
        result = snf(A)
        assert result.U * A * result.V == result.S
        assert abs(determinant(result.U)) == 1
        assert abs(determinant(result.V)) == 1
        diag = result.diagonal
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert len(nonzero) == result.rank == rank_over_Q(A)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # off-diagonal entries vanish
        for i in range(result.S.rows):
            for j in range(result.S.cols):
                if i != j:
                    assert result.S[i, j] == 0

    def test_known_diagonal(self):
        A = ExactMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf(A).diagonal == (2, 2, 156)


class TestSmithDiagonal:
    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_matches_snf(self, rows):
        A = ExactMatrix(rows)
        result = snf(A)
        assert smith_diagonal(A) == (result.diagonal, result.rank)

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            multigraph_blocks(),
            # sparse: most of the block goes in the unit phase
            multigraph_blocks(sizes=(10, 20), edges=(1, 1.5)),
        )
    )
    def test_matches_sympy_on_laplacian_blocks(self, A):
        assert smith_diagonal(A) == sympy_smith(A)

    def test_entry_growth_regression(self):
        # working entries of snf's pivot loop grow without bound here:
        # it did not finish in two minutes
        A = ExactMatrix(
            [
                [2, -3, -2, 0, 4, 8],
                [7, -6, 0, -6, -6, 0],
                [-9, 4, -1, 9, 7, 9],
                [-4, -3, 0, 0, -3, 0],
                [7, 0, 3, -9, 4, -1],
                [4, -9, 0, 0, 0, 3],
                [2, 2, 0, 8, -4, -6],
            ]
        )
        assert smith_diagonal(A) == ((1, 1, 1, 1, 1, 12), 6)

    def test_degenerate_shapes(self):
        assert smith_diagonal(ExactMatrix([])) == ((), 0)
        assert smith_diagonal(ExactMatrix([[0, 0, 0], [0, 0, 0]])) == ((0, 0), 0)
        assert smith_diagonal(ExactMatrix([[6], [4]])) == ((2,), 1)
        assert smith_diagonal(ExactMatrix([[5, 10]])) == ((5,), 1)

    def test_rejects_fractions(self):
        with pytest.raises(ValueError):
            smith_diagonal(ExactMatrix([[Fraction(1, 2)]]))


def sparse(A):
    """A's rows as the Smith core holds them: ``{column: int}`` dicts."""
    return [{j: x for j, x in enumerate(r) if x} for r in A.data]


@st.composite
def scaled_blocks(draw):
    """c times a random Laplacian block: every entry is a multiple of c."""
    c = draw(st.integers(2, 6))
    B = draw(multigraph_blocks(sizes=(4, 10), edges=(1, 2)))
    return ExactMatrix([[c * x for x in r] for r in B.data])


@st.composite
def complete_blocks(draw):
    """The block of K_n with one weight w on every edge, offsets that are
    multiples of w and a random boundary: w (n I - J) + diagonal, dense."""
    n = draw(st.integers(3, 12))
    w = draw(st.integers(1, 6))
    G = PartialGraph(
        range(n),
        draw(st.sets(st.integers(0, n - 1), max_size=3)),
        [(k, a, b) for k, (a, b) in enumerate(
            (a, b) for a in range(n) for b in range(a + 1, n))],
    )
    offsets = {v: w * draw(st.integers(0, 2)) for v in range(n)}
    N = Network(G, {e: w for e in G.edge_ids}, offsets)
    if draw(st.booleans()):
        return laplacian_matrix(N)
    return interior_block(N)


def hadamard_square(A):
    """The square of a bound on every minor of A, of any size: the
    product of the squared lengths of its nonzero rows."""
    return prod(max(1, sum(x * x for x in r)) for r in A.data)


class TestUnitPhase:
    """The +-1 pivots of smith_diagonal's sparse phase, against outside
    oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            multigraph_blocks(sizes=(3, 7), edges=(1, 1.5)),
            multigraph_blocks(sizes=(3, 7), edges=(1, 1.5), weight=st.just(2)),
        )
    )
    def test_small_blocks_match_snf(self, A):
        result = snf(A)
        assert smith_diagonal(A) == (result.diagonal, result.rank)

    @settings(max_examples=25, deadline=None)
    @given(multigraph_blocks(sizes=(6, 14), weight=st.just(2)))
    def test_no_unit_pivot(self, A):
        # every entry is even: every pivot is even too
        pivots, _ = _sparse_pivots(sparse(A))
        assert all(p % 2 == 0 for p in pivots)
        assert smith_diagonal(A) == sympy_smith(A)

    def test_pivots_are_counted_in_the_diagonal(self):
        # a path with both ends on the boundary strips to nothing: every
        # invariant is a unit pivot
        G = PartialGraph(range(6), {0, 5}, {i: (i, i + 1) for i in range(5)})
        A = interior_block(Network.standard(G))
        assert _sparse_pivots(sparse(A)) == ([1, 1, 1, 1], [])
        assert smith_diagonal(A) == ((1, 1, 1, 1), 4)


class TestDivisiblePivots:
    """The larger pivots of smith_diagonal's sparse phase: entries that
    divide their whole row and column."""

    def test_divisible_pivots_on_complete_graph(self):
        # L(K_n) = n I - J: after one unit pivot every row left is a
        # multiple of n, cleared by divisible pivots with no remnant
        n = 12
        A = laplacian_matrix(Network.standard(complete_graph(n)))
        pivots, remnant = _sparse_pivots(sparse(A))
        assert sorted(pivots) == [1] + [n] * (n - 2) and not remnant
        assert smith_diagonal(A) == ((1,) + (n,) * (n - 2) + (0,), n - 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            multigraph_blocks(sizes=(6, 14), weight=st.sampled_from([2, 3, 6])),
            scaled_blocks(),
            complete_blocks(),
        )
    )
    def test_many_divisible_pivots_match_sympy(self, A):
        assert smith_diagonal(A) == sympy_smith(A)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            multigraph_blocks(sizes=(6, 14), weight=st.sampled_from([2, 3, 6])),
            multigraph_blocks(sizes=(10, 20), edges=(1, 1.5)),
            scaled_blocks(),
            complete_blocks(),
        )
    )
    def test_remnant_within_hadamard_bound(self, A):
        # every remnant entry is a minor of A over the pivots' product
        bound = hadamard_square(A)
        _, remnant = _sparse_pivots(sparse(A))
        assert all(x * x <= bound for r in remnant for x in r)


class TestCokernel:
    def test_diagonal_presentation(self):
        assert cokernel(ExactMatrix([[2, 0], [0, 4]])) == ModuleDecomposition(
            0, (2, 4)
        )

    def test_non_diagonal_presentation(self):
        # [[2, 1], [0, 2]] presents Z/4, not Z/2 + Z/2
        assert cokernel(ExactMatrix([[2, 1], [0, 2]])) == ModuleDecomposition(
            0, (4,)
        )

    def test_free_part(self):
        A = ExactMatrix([[1, 1], [1, 1], [0, 3]])
        d = cokernel(A)
        assert d.free_rank == 1


class TestKernelModN:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_brute_force_count(self, n):
        mats = [
            [[1, 2], [3, 4]],
            [[2, 0], [0, 2]],
            [[6, 3, 1]],
            [[2, 4], [4, 8], [0, 0]],
        ]
        for rows in mats:
            A = ExactMatrix(rows)
            count = 0
            for vec in product(range(n), repeat=A.cols):
                img = [
                    sum(A[i, j] * vec[j] for j in range(A.cols)) % n
                    for i in range(A.rows)
                ]
                if not any(img):
                    count += 1
            assert kernel_mod_n(A, n).torsion_order == count

    def test_zero_matrix(self):
        A = ExactMatrix([[0, 0], [0, 0]])
        assert kernel_mod_n(A, 4) == ModuleDecomposition.from_cyclic_orders(
            (4, 4)
        )


class TestKernelQmodZ:
    def test_diagonal(self):
        A = ExactMatrix([[3, 0], [0, 15]])
        assert kernel_QmodZ_torsion(A) == ModuleDecomposition(0, (3, 15))

    def test_column_rank_deficiency_raises(self):
        with pytest.raises(DivisibleKernelError):
            kernel_QmodZ_torsion(ExactMatrix([[1, 1], [2, 2]]))

    def test_agrees_with_transpose_cokernel(self):
        A = ExactMatrix([[2, 1], [0, 6], [4, 4]])
        assert (
            kernel_QmodZ_torsion(A).invariant_factors
            == cokernel(A.transpose()).invariant_factors
        )


def square_matrices(sizes, entries=st.integers(-99, 99)):
    return sizes.flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def sympy_charpoly(rows):
    import sympy

    n = len(rows)
    coeffs = sympy.Matrix(n, n, sum(rows, [])).charpoly().all_coeffs()
    return [int(c) for c in coeffs]


def poly_product(polys):
    """Product of integer polynomials, coefficients highest degree first."""
    out = [1]
    for p in polys:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


class TestCharpolyAndDeterminant:
    @settings(max_examples=60, deadline=None)
    @given(square_matrices(st.integers(0, 12)))
    def test_charpoly_matches_sympy(self, rows):
        # entries up to 99 need up to three primes at n = 12
        assert charpoly(ExactMatrix(rows)) == sympy_charpoly(rows)

    @settings(max_examples=40, deadline=None)
    @given(square_matrices(st.integers(0, 12)), st.booleans())
    def test_charpoly_of_triangular_matrix(self, rows, upper):
        # an upper triangular matrix has no pivot below any subdiagonal
        n = len(rows)
        T = [
            [a if (j >= i if upper else j <= i) else 0 for j, a in enumerate(r)]
            for i, r in enumerate(rows)
        ]
        want = poly_product([[1, -T[i][i]] for i in range(n)])
        assert charpoly(ExactMatrix(T)) == want

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(square_matrices(st.integers(0, 4)), min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_charpoly_of_block_diagonal_matrix(self, blocks, rng):
        # a similar block-diagonal matrix has columns that are zero below
        # the subdiagonal wherever a block ends
        n = sum(len(b) for b in blocks)
        D = [[0] * n for _ in range(n)]
        k = 0
        for b in blocks:
            for i, r in enumerate(b):
                D[k + i][k : k + len(b)] = r
            k += len(b)
        order = list(range(n))
        rng.shuffle(order)
        P = [[D[i][j] for j in order] for i in order]
        want = poly_product([sympy_charpoly(b) for b in blocks])
        assert charpoly(ExactMatrix(D)) == want
        assert charpoly(ExactMatrix(P)) == want

    @pytest.mark.parametrize("n,r", [(0, 5), (1, -7), (30, 2**40), (30, -(2**40))])
    def test_charpoly_of_scalar_matrix(self, n, r):
        # det(zI - rI) = (z - r)^n has the largest coefficients that
        # the bound (1 + |r|)^n allows, of both signs
        got = charpoly(ExactMatrix([[r * (i == j) for j in range(n)] for i in range(n)]))
        assert got == [comb(n, k) * (-r) ** k for k in range(n + 1)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_charpoly_coefficient_above_half_the_first_prime(self, sign):
        # |a| < p but |a| > p / 2: one prime cannot tell a from a - p,
        # so the bound 2 (1 + |a|) must call for a second one
        a = sign * (_prime(0) - 10)
        assert charpoly(ExactMatrix([[a]])) == [1, -a]

    def test_charpoly_errors(self):
        with pytest.raises(ValueError, match="square matrix required"):
            charpoly(ExactMatrix([[1, 2]]))
        with pytest.raises(ValueError, match="integer matrix required"):
            charpoly(ExactMatrix([[Fraction(1, 2)]]))

    def test_primes_are_the_largest_below_2_to_62(self):
        import sympy

        primes = [_prime(i) for i in range(40)]
        assert len(set(primes)) == len(primes)
        assert all(sympy.isprime(p) for p in primes)
        # consecutive, so none below 2**62 is skipped
        assert primes[0] == sympy.prevprime(2**62)
        assert all(sympy.prevprime(p) == q for p, q in zip(primes, primes[1:]))

    def test_is_prime_matches_sympy(self):
        import sympy

        near = range(2**62 - 3000, 2**62)
        # strong pseudoprimes to bases 2..7 and to bases 2..23
        pseudo = [3215031751, 3825123056546413051]
        for n in [*range(3000), *near, *pseudo]:
            assert _is_prime(n) == sympy.isprime(n), n

    def test_determinant_is_constant_term_sign(self):
        A = ExactMatrix([[1, 2], [3, 4]])
        assert determinant(A) == -2
        # constant term of det(zI - A) is (-1)^n det(A)
        assert charpoly(A)[-1] == (-1) ** A.rows * determinant(A)

    def test_fraction_determinant(self):
        A = ExactMatrix([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
        assert determinant(A) == Fraction(-3, 4)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_determinant_matches_sympy(self, rows):
        import sympy

        got = determinant(ExactMatrix(rows))
        want = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
        ).det()
        assert got == Fraction(int(want.p), int(want.q))
        if all(isinstance(x, int) for r in rows for x in r) or got.denominator == 1:
            assert type(got) is int
        else:
            assert type(got) is Fraction

    def test_singular_and_empty_determinant(self):
        assert determinant(ExactMatrix([[1, 2], [2, 4]])) == 0
        assert determinant(ExactMatrix([])) == 1


class TestPolyDivides:
    def test_divides(self):
        # (z - 1)(z + 2) = z^2 + z - 2
        assert poly_divides([1, -1], [1, 1, -2])
        assert poly_divides([1, 2], [1, 1, -2])
        assert not poly_divides([1, 1], [1, 1, -2])


class TestExactMatrixOps:
    def test_immutability(self):
        A = ExactMatrix([[1, 0], [0, 1]])
        with pytest.raises(AttributeError):
            A.rows = 3

    def test_apply_on_mod_vector(self):
        A = ExactMatrix([[1, 2], [3, 4]])
        out = A.apply([Mod(1, 5), Mod(2, 5)])
        assert out == [Mod(0, 5), Mod(1, 5)]

    def test_mixed_entries_kept_as_given(self):
        A = ExactMatrix([[1, Fraction(1, 2)], [Fraction(3), 4]])
        B = ExactMatrix([[Fraction(1), Fraction(1, 2)], [3, Fraction(4)]])
        assert type(A[0, 0]) is int and type(A[1, 0]) is Fraction
        assert A == B and hash(A) == hash(B)
        assert A.is_integer() is False
        assert ExactMatrix([[Fraction(2), 1]]).to_integer().data == ((2, 1),)
