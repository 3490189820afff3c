"""Unit tests for symplectic boundary-data transforms and harmonic
continuation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalg import continuation
from graphalg.continuation import (
    complementary_plan,
    continuation_plan,
    continue_harmonic,
    edge_transform,
    find_layering_set,
    initial_transform,
    invariant_factor_bound,
    is_symplectic,
    multiplicity_bound_check,
    spike_transform,
    symplectic_form,
    u0_matrix_A,
    u0_mod_n_via_continuation,
    u0_via_continuation,
)
from graphalg.exact_algebra import (
    ExactMatrix,
    Mod,
    ModuleDecomposition,
    _inverse,
    snf,
)
from graphalg.families import clf, complete_graph, cube, wheel
from graphalg.layering import (
    EDGE_DEL,
    SPIKE,
    interiorize,
    is_layerable,
    reduce_to_flower,
    strip_layerable,
)
from graphalg.network import (
    Network,
    U0_QmodZ,
    U0_mod_n,
    apply_L,
    is_harmonic,
)
from graphalg.partial_graph import PartialGraph


def worked_example():
    """Five-vertex example with boundary {2} whose kernel matrix has
    Smith form diag(3, 15)."""
    edges = {
        0: (0, 1),
        1: (1, 2),
        2: (1, 4),
        3: (0, 4),
        4: (0, 3),
        5: (2, 4),
        6: (3, 4),
        7: (2, 3),
    }
    return PartialGraph(range(5), {2}, edges)


def reference_initial(d_values):
    """[[I, 0], [D, I]] as a dense grid."""
    m = len(d_values)
    grid = [[int(r == c) for c in range(2 * m)] for r in range(2 * m)]
    for i, d in enumerate(d_values):
        grid[m + i][i] = d
    return ExactMatrix(grid)


def reference_spike(m, j, w, d):
    """[[I, w^-1 E_jj], [d E_jj, I + d w^-1 E_jj]] as a dense grid."""
    grid = [[int(r == c) for c in range(2 * m)] for r in range(2 * m)]
    k = j - 1
    grid[k][m + k] = 1 / Fraction(w)
    grid[m + k][k] = d
    grid[m + k][m + k] = 1 + d / Fraction(w)
    return ExactMatrix(grid)


def reference_edge(m, i, j, w):
    """[[I, 0], [w(E_ii + E_jj - E_ij - E_ji), I]] as a dense grid."""
    grid = [[int(r == c) for c in range(2 * m)] for r in range(2 * m)]
    a, b = i - 1, j - 1
    grid[m + a][a] += w
    grid[m + b][b] += w
    grid[m + a][b] -= w
    grid[m + b][a] -= w
    return ExactMatrix(grid)


weights = st.fractions(-5, 5, max_denominator=4).filter(bool)
offsets = st.fractions(-3, 3, max_denominator=3) | st.integers(-3, 3)


@st.composite
def moves(draw):
    """A random move with its reference grid."""
    m = draw(st.integers(2, 6))
    index = st.integers(1, m)
    kind = draw(st.sampled_from(["initial", "spike", "edge"]))
    if kind == "initial":
        d = draw(st.lists(offsets, min_size=m, max_size=m))
        return initial_transform(d), reference_initial(d)
    if kind == "spike":
        j, w, d = draw(index), draw(weights), draw(offsets)
        return spike_transform(m, j, w, d), reference_spike(m, j, w, d)
    i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
    w = draw(weights)
    return edge_transform(m, i, j, w), reference_edge(m, i, j, w)


@st.composite
def layerable_networks(draw):
    """A layerable network grown from isolated boundary vertices by
    random spikes and boundary edges; its weights and nonzero offsets
    are either all in 1..5 (units mod 101) or all fractions."""
    m = draw(st.integers(1, 5))
    boundary = list(range(m))
    nv = m
    edges = {}
    for step in draw(st.lists(st.booleans(), max_size=25)):
        if step or m == 1:
            k = draw(st.integers(0, m - 1))
            edges[len(edges)] = (boundary[k], nv)
            boundary[k] = nv
            nv += 1
        else:
            a, b = draw(
                st.lists(
                    st.integers(0, m - 1), min_size=2, max_size=2, unique=True
                )
            )
            edges[len(edges)] = (boundary[a], boundary[b])
    scalars = weights if draw(st.booleans()) else st.integers(1, 5)
    w = {e: draw(scalars) for e in edges}
    d = {v: draw(scalars | st.just(0)) for v in range(nv)}
    return Network(PartialGraph(range(nv), boundary, edges), w, d)


@st.composite
def networks_with_layering_sets(draw):
    """A random connected multigraph on 3-8 vertices with a random
    boundary and nonzero Fraction weights, and S = find_layering_set."""
    nv = draw(st.integers(3, 8))
    edges = {}
    for v in range(1, nv):
        edges[len(edges)] = (draw(st.integers(0, v - 1)), v)
    vertex = st.integers(0, nv - 1)
    extra = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    for p in draw(st.lists(extra, max_size=2 * nv)):
        edges[len(edges)] = p
    boundary = draw(st.sets(vertex, min_size=1, max_size=nv - 1))
    G = PartialGraph(range(nv), boundary, edges)
    N = Network(G, {e: draw(weights) for e in edges})
    return N, find_layering_set(G)


@st.composite
def multigraphs(draw):
    """A random multigraph on 1-8 vertices with loops, parallel edges
    and a random boundary."""
    nv = draw(st.integers(1, 8))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * nv))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=nv))
    boundary = draw(st.sets(vertex))
    return PartialGraph(range(nv), boundary, dict(enumerate(edges)))


def with_fractions(data, G):
    """A network on G with drawn Fraction weights and offsets."""
    fractions = st.fractions(-3, 3, max_denominator=3)
    return Network(
        G,
        {e: data.draw(weights) for e in G.edge_ids},
        {v: data.draw(fractions) for v in G.vertices},
    )


def reference_plan(N, initial_labels, steps):
    """(initial labels, transforms, records) as the plan builder made
    them from ("spike", anchor, new vertex, edge) and ("edge", v1, v2,
    edge) tuples in application order, finding labels by list search."""
    label = list(initial_labels)
    m = len(label)
    transforms = [initial_transform([N.offset(v) for v in label])]
    records = [None]
    for kind, a, b, e in steps:
        if kind == "spike":
            j = label.index(a) + 1
            transforms.append(spike_transform(m, j, N.weight(e), N.offset(b)))
            label[j - 1] = b
            records.append((b, j))
        else:
            i, j = label.index(a) + 1, label.index(b) + 1
            transforms.append(edge_transform(m, i, j, N.weight(e)))
            records.append(None)
    return tuple(initial_labels), tuple(transforms), tuple(records)


def reference_steps(G, ops, swap):
    """The step tuples of strip moves; ``swap`` adjoins each spike's
    interior endpoint at its boundary endpoint instead of the reverse."""
    steps = []
    for op in ops:
        if op.kind == SPIKE:
            ends = (op.vertex, op.interior_vertex)
            anchor, new = ends if swap else ends[::-1]
            steps.append(("spike", anchor, new, op.edge))
        elif op.kind == EDGE_DEL:
            steps.append(("edge", *G.edge_dict[op.edge], op.edge))
    return steps


def reference_layering_set(G):
    """find_layering_set re-stripping the whole graph each round."""
    S = []
    H = G
    while True:
        flower, _ = reduce_to_flower(H)
        if flower.is_empty():
            return sorted(S)
        candidates = [
            x
            for x in flower.interior
            if any(y in flower.boundary for y in flower.neighbors(x))
        ]
        pick = min(candidates) if candidates else min(flower.interior)
        S.append(pick)
        H = interiorize(H, {pick})


def plan_parts(plan):
    return plan.initial_labels, plan.transforms, plan.records


def final_labels(plan):
    """The vertices labelled 1..m after the last move of the plan."""
    label = list(plan.initial_labels)
    for record in plan.records:
        if record is not None:
            vertex, j = record
            label[j - 1] = vertex
    return label


class TestTransforms:
    def test_symplectic_form_squares_to_minus_identity(self):
        J = symplectic_form(3)
        assert J * J == ExactMatrix(
            [[-int(i == j) for j in range(6)] for i in range(6)]
        )

    def test_each_generator_is_symplectic(self):
        assert is_symplectic(initial_transform([2, -1, 0]).matrix)
        assert is_symplectic(spike_transform(3, 2, Fraction(5, 3), -2).matrix)
        assert is_symplectic(edge_transform(3, 1, 3, Fraction(-7, 2)).matrix)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            spike_transform(2, 1, 0)
        with pytest.raises(ValueError):
            edge_transform(2, 1, 2, 0)
        with pytest.raises(ValueError):
            edge_transform(2, 1, 1, 1)

    @settings(max_examples=150, deadline=None)
    @given(moves())
    def test_matrix_matches_reference_grid(self, case):
        T, grid = case
        assert T.matrix == grid
        assert T.m == grid.rows // 2

    @settings(max_examples=60, deadline=None)
    @given(moves(), st.data())
    def test_apply_is_the_matrix_action(self, case, data):
        T, grid = case
        x = data.draw(
            st.lists(offsets, min_size=grid.rows, max_size=grid.rows)
        )
        assert T.apply(x) == grid.apply(x)
        x_mod = [Mod(v, 101) for v in x]
        assert T.apply(x_mod) == grid.apply(x_mod)

    def test_spike_transform_entries(self):
        T = spike_transform(2, 1, 2, 3).matrix
        # [[I, w^-1 E_11], [d E_11, I + d w^-1 E_11]]
        assert T[0, 2] == Fraction(1, 2)
        assert T[2, 0] == 3
        assert T[2, 2] == Fraction(5, 2)
        assert T[1, 3] == 0


class TestContinuation:
    def test_plan_reaches_every_vertex(self):
        G = PartialGraph(
            range(4), {0}, {0: (0, 1), 1: (1, 2), 2: (2, 3)}
        )
        N = Network.standard(G)
        plan = continuation_plan(N)
        recorded = {r[0] for r in plan.records if r}
        assert recorded | set(plan.initial_labels) == set(G.vertices)
        assert is_symplectic(plan.total_matrix())

    def test_continue_constant_on_path(self):
        G = PartialGraph(range(3), {0}, {0: (0, 1), 1: (1, 2)})
        N = Network.standard(G)
        plan = continuation_plan(N)
        u = continue_harmonic(plan, [Fraction(7)])
        assert all(u(v) == 7 for v in G.vertices)

    def test_continue_with_offsets_is_harmonic(self):
        G = PartialGraph(range(3), {0}, {0: (0, 1), 1: (1, 2)})
        N = Network(G, {0: 1, 1: 1}, {1: 1, 2: 2})
        plan = continuation_plan(N)
        u = continue_harmonic(plan, [Fraction(1)])
        assert is_harmonic(N, u)
        assert u(2) == 1  # the initial label keeps its value

    def test_unlayerable_network_rejected(self):
        G = complete_graph(4, boundary={0})
        with pytest.raises(ValueError):
            continuation_plan(Network.standard(G))


    @settings(max_examples=60, deadline=None)
    @given(layerable_networks(), st.data())
    def test_continue_harmonic_agrees_with_total_matrix(self, N, data):
        plan = continuation_plan(N)
        total = plan.total_matrix()
        assert is_symplectic(total)
        m = plan.m
        for modulus in (None, 101):
            if modulus is None:
                phi = data.draw(st.lists(offsets, min_size=m, max_size=m))
                phi = [Fraction(x) for x in phi]
            elif not N.is_integral():
                continue
            else:
                phi = data.draw(
                    st.lists(st.integers(0, 100), min_size=m, max_size=m)
                )
                phi = [Mod(x, modulus) for x in phi]
            u = continue_harmonic(plan, phi)
            out = total.apply(phi + [0 * x for x in phi])
            labels = final_labels(plan)
            Lu = apply_L(N, u)
            assert out[:m] == [u(v) for v in labels]
            assert out[m:] == [Lu(v) for v in labels]


class TestPlansFromStripMoves:
    @settings(max_examples=100, deadline=None)
    @given(layerable_networks(), st.data())
    def test_continuation_plan_matches_step_tuples(self, N, data):
        N = with_fractions(data, N.graph)
        G = N.graph
        remnant, ops = strip_layerable(G)
        initial = tuple(sorted(remnant.vertices))
        steps = reference_steps(G, reversed(ops), swap=False)
        want = reference_plan(N, initial, steps)
        assert plan_parts(continuation_plan(N)) == want

    @settings(max_examples=100, deadline=None)
    @given(networks_with_layering_sets(), st.data())
    def test_complementary_plan_matches_step_tuples(self, case, data):
        N, S = case
        N = with_fractions(data, N.graph)
        G = N.graph
        _, ops = strip_layerable(interiorize(G, S))
        initial = tuple(S) + tuple(sorted(G.boundary))
        want = reference_plan(N, initial, reference_steps(G, ops, swap=True))
        assert plan_parts(complementary_plan(N, S)) == want

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_find_layering_set_matches_whole_graph_strips(self, G):
        assert find_layering_set(G) == reference_layering_set(G)

    def test_find_layering_set_strips_only_flowers(self, monkeypatch):
        sizes = []  # (edges in, edges of the flower out) per strip
        strip = continuation.reduce_to_flower

        def recording(H):
            flower, ops = strip(H)
            sizes.append((len(H.edges), len(flower.edges)))
            return flower, ops

        monkeypatch.setattr(continuation, "reduce_to_flower", recording)
        find_layering_set(clf(80, 6))
        assert len(sizes) > 2
        for (_, before), (edges_in, _) in zip(sizes, sizes[1:]):
            assert edges_in <= before


class TestExplicitKernel:
    def _corner(self, N, S):
        plan = complementary_plan(N, S)
        m = plan.m
        rows = plan.total_matrix().data[m : 2 * m]
        return ExactMatrix([row[: len(S)] for row in rows])

    def test_worked_example_is_a_corner_of_the_total_matrix(self):
        N = Network.standard(worked_example())
        assert u0_matrix_A(N, {3, 4}) == self._corner(N, [3, 4])

    @settings(max_examples=60, deadline=None)
    @given(networks_with_layering_sets())
    def test_u0_matrix_is_a_corner_of_the_total_matrix(self, case):
        N, S = case
        A = u0_matrix_A(N, S)
        assert (A.rows, A.cols) == (len(S) + len(N.graph.boundary), len(S))
        assert A == self._corner(N, S)

    def test_worked_example_smith_form(self):
        N = Network.standard(worked_example())
        A = u0_matrix_A(N, {3, 4})
        assert snf(A.to_integer()).diagonal == (3, 15)
        assert u0_via_continuation(N, {3, 4}) == ModuleDecomposition(
            0, (3, 15)
        )

    def test_routes_agree_mod_n(self):
        N = Network.standard(worked_example())
        for n in (2, 3, 5, 9, 45):
            assert u0_mod_n_via_continuation(N, {3, 4}, n) == U0_mod_n(N, n)

    def test_matches_direct_kernel_over_QmodZ(self):
        N = Network.standard(worked_example())
        S = find_layering_set(N.graph)
        assert u0_via_continuation(N, S) == U0_QmodZ(N)

    def test_complementary_plan_initial_labels(self):
        N = Network.standard(worked_example())
        plan = complementary_plan(N, [3, 4])
        assert plan.initial_labels == (3, 4, 2)

    def test_unlayerable_S_rejected(self):
        N = Network.standard(worked_example())
        with pytest.raises(ValueError):
            complementary_plan(N, [])

    def test_repeated_vertex_in_S_rejected(self):
        # labelling vertex 0 twice would give Z/11 + Z/11 + Z/11 here
        N = Network.standard(wheel(5, hub_boundary=True).graph)
        assert u0_mod_n_via_continuation(N, [0, 1], 11) == U0_mod_n(N, 11)
        with pytest.raises(ValueError, match="repeated vertex"):
            complementary_plan(N, [0, 1, 0])
        with pytest.raises(ValueError, match="repeated vertex"):
            u0_mod_n_via_continuation(N, [0, 1, 0], 11)


def unit_weights(data, G):
    """A network on G with drawn weights +1 or -1 and int offsets."""
    return Network(
        G,
        {e: data.draw(st.sampled_from([1, -1])) for e in G.edge_ids},
        {v: data.draw(st.integers(-3, 3)) for v in G.vertices},
    )


class TestIntegralDataStaysInZ:
    """A spike of weight +1 or -1 is inverted in Z, so on such weights
    and int offsets every move keeps int data int."""

    def test_worked_example_kernel_matrix(self):
        A = u0_matrix_A(Network.standard(worked_example()), {3, 4})
        assert all(type(x) is int for row in A.data for x in row)

    @settings(max_examples=60, deadline=None)
    @given(networks_with_layering_sets(), st.data())
    def test_kernel_matrix(self, case, data):
        N, S = case
        A = u0_matrix_A(unit_weights(data, N.graph), S)
        assert all(type(x) is int for row in A.data for x in row)

    @settings(max_examples=60, deadline=None)
    @given(layerable_networks(), st.data())
    def test_continued_values(self, N, data):
        N = unit_weights(data, N.graph)
        plan = continuation_plan(N)
        phi = data.draw(st.lists(st.integers(-5, 5), min_size=plan.m,
                                 max_size=plan.m))
        u = continue_harmonic(plan, phi)
        assert all(type(u(v)) is int for v in N.graph.vertices)


class TestBounds:
    def test_find_layering_set_is_valid(self):
        for G in (worked_example(), cube(3).with_boundary({0})):
            S = find_layering_set(G)
            assert is_layerable(interiorize(G, S))

    def test_invariant_factor_bound_complete_graph(self):
        G = complete_graph(5)
        assert invariant_factor_bound(G, range(4)) == 3

    def test_invariant_factor_bound_needs_layerable_set(self):
        with pytest.raises(ValueError):
            invariant_factor_bound(cube(3), [0])

    def test_multiplicity_bound(self):
        N = Network.standard(complete_graph(4))
        # S = {0,1,2} leaves K4 layerable and mult(4) = 3 = |S|: tight
        assert multiplicity_bound_check(N, range(3), 4)
        with pytest.raises(ValueError):
            multiplicity_bound_check(N, [0], 4)


# -- the int runner against Fraction and Mod arithmetic -----------------


def reference_apply(T, data):
    """A move on the data's own objects (int, Fraction or Mod), one
    copy of the vector per move: the arithmetic the int runner
    replaces."""
    out = list(data)
    m = T.m
    move = T.kind
    if move[0] == "initial":
        for i, d in enumerate(move[1]):
            out[m + i] += d * out[i]
    elif move[0] == "spike":
        _, j, w, d = move
        k = j - 1
        out[k] += out[m + k] * _inverse(w)
        out[m + k] += d * out[k]
    else:
        _, i, j, w = move
        a, b = i - 1, j - 1
        f = w * (out[a] - out[b])
        out[m + a] += f
        out[m + b] -= f
    return out


def reference_continue(plan, phi):
    """continue_harmonic's values by :func:`reference_apply`, unchecked."""
    m = plan.m
    data = list(phi) + [0 * v for v in phi]
    values = dict(zip(plan.initial_labels, phi))
    for T, record in zip(plan.transforms, plan.records):
        data = reference_apply(T, data)
        if record is not None:
            vertex, j = record
            values[vertex] = data[j - 1]
    return values


def reference_matrix(transforms, m, count, rows):
    """Rows ``rows`` of the unit vectors e_0..e_(count-1) moved by
    :func:`reference_apply`, as the columns of a grid."""
    columns = []
    for k in range(count):
        data = [int(i == k) for i in range(2 * m)]
        for T in transforms:
            data = reference_apply(T, data)
        columns.append([data[r] for r in rows])
    return [[c[i] for c in columns] for i in range(len(rows))]


NOT_INVERTIBLE = "base is not invertible for the given modulus"


def lacks_residue(transforms, n):
    """Whether a coefficient of the moves (an offset d, a weight w or
    1/w) has a denominator not prime to n."""
    denominators = []
    for T in transforms:
        move = T.kind
        if move[0] == "initial":
            denominators += [d.denominator for d in move[1]]
        elif move[0] == "spike":
            _, _, w, d = move
            denominators += [abs(w.numerator), d.denominator]
        else:
            denominators.append(move[3].denominator)
    return any(gcd(q, n) > 1 for q in denominators)


def assert_runner_matches(run, reference, n=None):
    """``run()`` returns the values of ``reference()``, all of one type:
    the reference's type where its values share one, and Mod over Z/n
    (n not None), where the reference's values are read in Z/n."""
    want = reference()
    if n is not None:
        want = [Mod(x, n) for x in want]
    got = run()
    assert got == want
    got_types = {type(x) for x in got}
    want_types = {type(x) for x in (reference() if n is None else want)}
    assert len(got_types) <= 1
    if len(want_types) == 1:
        assert got_types == want_types


any_weights = weights | st.integers(2, 5) | st.sampled_from([1, -1])
any_offsets = offsets | st.just(0)


@st.composite
def any_moves(draw):
    """A random move on 1..5 labels with Fraction, int (2..5) or unit
    weights and Fraction or int offsets."""
    m = draw(st.integers(1, 5))
    index = st.integers(1, m)
    kind = draw(st.sampled_from(["initial", "spike", "edge"]))
    if kind == "initial" or m == 1 and kind == "edge":
        d = draw(st.lists(any_offsets, min_size=m, max_size=m))
        return initial_transform(d)
    if kind == "spike":
        return spike_transform(m, draw(index), draw(any_weights),
                               draw(any_offsets))
    i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
    return edge_transform(m, i, j, draw(any_weights))


@st.composite
def ring_data(draw, size):
    """(values, n): ``size`` values of one kind: ints, Fractions, ints
    mixed with Fractions (n None), or Mods, or ints mixed with Mods, of
    one modulus n in {7, 12, 101}."""
    kind = draw(st.sampled_from(["int", "fraction", "int+fraction", "mod",
                                 "int+mod"]))
    ints = st.integers(-9, 9)
    fractions = st.fractions(-9, 9, max_denominator=6)
    if kind == "int":
        return draw(st.lists(ints, min_size=size, max_size=size)), None
    if kind == "fraction":
        return draw(st.lists(fractions, min_size=size, max_size=size)), None
    if kind == "int+fraction":
        return draw(st.lists(ints | fractions, min_size=size,
                             max_size=size)), None
    n = draw(st.sampled_from([7, 12, 101]))
    mods = st.builds(Mod, st.integers(0, n - 1), st.just(n))
    values = draw(st.lists(mods if kind == "mod" else ints | mods,
                           min_size=size, max_size=size))
    if not values:
        return values, None
    if not any(isinstance(x, Mod) for x in values):
        values[0] = Mod(values[0], n)
    return values, n


def runner_case(transforms, run, reference, n):
    """Check ``run`` against ``reference`` over Q, or over Z/n, where a
    coefficient with no residue mod n must make ``run`` raise the
    reference's error (which Mod data alone always meets)."""
    if n is not None and lacks_residue(transforms, n):
        with pytest.raises(ValueError, match=NOT_INVERTIBLE):
            run()
        return False
    assert_runner_matches(run, reference, n)
    return True


class TestIntRunner:
    """The moves on ints equal the moves on int, Fraction and Mod
    objects (``reference_apply``), with the types that rule gives."""

    @settings(max_examples=300, deadline=None)
    @given(any_moves(), st.data())
    def test_apply(self, T, data):
        values, n = data.draw(ring_data(2 * T.m))
        if not runner_case([T], lambda: T.apply(values),
                           lambda: reference_apply(T, values), n):
            if all(isinstance(x, Mod) for x in values):
                with pytest.raises(ValueError, match=NOT_INVERTIBLE):
                    reference_apply(T, values)

    @settings(max_examples=200, deadline=None)
    @given(any_moves())
    def test_matrix(self, T):
        size = 2 * T.m
        want = reference_matrix([T], T.m, size, range(size))
        assert_runner_matches(
            lambda: [x for row in T.matrix.data for x in row],
            lambda: [x for row in want for x in row],
        )

    @settings(max_examples=200, deadline=None)
    @given(layerable_networks(), st.data())
    def test_continue_harmonic(self, N, data):
        N = with_weights(data, N.graph)
        plan = continuation_plan(N)
        phi, n = data.draw(ring_data(plan.m))
        vertices = N.graph.vertices

        def run():
            u = continue_harmonic(plan, phi)
            return [u(v) for v in vertices]

        def reference():
            values = reference_continue(plan, phi)
            return [values[v] for v in vertices]

        try:
            runner_case(plan.transforms, run, reference, n)
        except ValueError as exc:
            # Z/n data on a network whose denominators share a factor
            # with n: the harmonicity check raises as it always did
            assert str(exc) == NOT_INVERTIBLE
            assert gcd(N._laplacian[1], n) > 1

    @settings(max_examples=100, deadline=None)
    @given(networks_with_layering_sets(), st.data())
    def test_kernel_and_total_matrices(self, case, data):
        N, S = case
        N = with_weights(data, N.graph)
        plan = complementary_plan(N, S)
        m = plan.m
        want = reference_matrix(plan.transforms, m, 2 * m, range(2 * m))
        assert_runner_matches(
            lambda: [x for row in plan.total_matrix().data for x in row],
            lambda: [x for row in want for x in row],
        )
        want = reference_matrix(plan.transforms, m, len(S), range(m, 2 * m))
        assert_runner_matches(
            lambda: [x for row in u0_matrix_A(N, S).data for x in row],
            lambda: [x for row in want for x in row],
        )

    def test_spike_weight_not_prime_to_n(self):
        G = PartialGraph(range(2), {1}, {0: (0, 1)})
        plan = continuation_plan(Network(G, {0: 2}))
        for phi in ([Mod(1, 12)], [Mod(3, 12)]):
            with pytest.raises(ValueError, match=NOT_INVERTIBLE):
                continue_harmonic(plan, phi)
        assert continue_harmonic(plan, [Mod(1, 7)]).vmap == {
            0: Mod(1, 7), 1: Mod(1, 7)}

    def test_moduli_mismatch_raises_up_front(self):
        # the two labels never meet, so Mod arithmetic would not notice
        T = initial_transform([0, 0])
        data = [Mod(1, 7), Mod(1, 11), Mod(0, 7), Mod(0, 11)]
        assert reference_apply(T, data) == data
        with pytest.raises(ValueError, match="^modulus mismatch$"):
            T.apply(data)
        G = PartialGraph(range(2), {0, 1}, {})
        plan = continuation_plan(Network(G, {}))
        with pytest.raises(ValueError, match="^modulus mismatch$"):
            continue_harmonic(plan, [Mod(1, 7), Mod(1, 11)])

    def test_non_integral_coefficient_rescales(self):
        # path 0 - 1 - 2 with boundary {2}: 1/w = 1/2 and the offset 1/3
        # are the only denominators, so D ends at 6
        G = PartialGraph(range(3), {2}, {0: (0, 1), 1: (1, 2)})
        N = Network(G, {0: 2, 1: 1}, {1: Fraction(1, 3)})
        plan = continuation_plan(N)
        u = continue_harmonic(plan, [1])
        assert u.vmap == reference_continue(plan, [1])
        assert {type(x) for x in u.vmap.values()} == {Fraction}

    def test_dead_end_fraction_keeps_int_values(self):
        # the offset 1/2 of the last vertex reaches no recorded value, so
        # Fraction arithmetic leaves every value an int
        G = PartialGraph(range(2), {1}, {0: (0, 1)})
        N = Network(G, {0: 1}, {1: Fraction(1, 2)})
        plan = continuation_plan(N)
        u = continue_harmonic(plan, [3])
        assert u.vmap == reference_continue(plan, [3]) == {0: 3, 1: 3}
        assert {type(x) for x in u.vmap.values()} == {int}

    def test_floats_rejected(self):
        T = initial_transform([1])
        with pytest.raises(TypeError, match="not an exact scalar"):
            T.apply([0.5, 0])


def with_weights(data, G):
    """A network on G with drawn weights (Fraction, 2..5 or +-1) and
    offsets (Fraction or int)."""
    return Network(
        G,
        {e: data.draw(any_weights) for e in G.edge_ids},
        {v: data.draw(any_offsets) for v in G.vertices},
    )
