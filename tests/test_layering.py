"""Unit tests for layer-stripping, flowers, filtrations, and the
degenerate-weight constructions."""

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalg.families import clf, complete_bipartite_bi, complete_graph, cycle, wheel
from graphalg.layering import (
    EDGE_DEL,
    ISOLATED,
    SPIKE,
    LayerOp,
    apply_op,
    apply_op_network,
    degenerate_weights_general,
    degenerate_weights_normalized,
    find_strippable,
    find_wedge_split,
    interiorize,
    is_completely_reducible,
    is_flower,
    is_irreducible,
    is_layerable,
    reduce_to_flower,
    standard_form_filtration,
    strip_layerable,
)
from graphalg.network import Network, in_U0, is_nondegenerate
from graphalg.partial_graph import PartialGraph, wedge_sum


def path(n, boundary=()):
    return PartialGraph(
        range(n), boundary, {k: (k, k + 1) for k in range(n - 1)}
    )


class TestMoves:
    def test_move_detection(self):
        # 0 isolated boundary; 1-2 boundary edge; 3-4 spike into interior
        G = PartialGraph(
            range(5), {0, 1, 2, 3}, {0: (1, 2), 1: (3, 4)}
        )
        kinds = [op.kind for op in find_strippable(G)]
        assert kinds == [ISOLATED, SPIKE, EDGE_DEL]

    def test_spike_promotes_interior_endpoint(self):
        G = path(2, boundary={0})
        op = find_strippable(G)[0]
        assert op.kind == SPIKE and op.vertex == 0 and op.interior_vertex == 1
        H = apply_op(G, op)
        assert H.boundary == frozenset({1}) and not H.edges

    def test_inapplicable_move_rejected(self):
        G = path(3, boundary={0})
        with pytest.raises(ValueError):
            apply_op(G, LayerOp(ISOLATED, vertex=0))

    def test_network_spike_requires_unit_weight(self):
        G = path(2, boundary={0})
        op = find_strippable(G)[0]
        with pytest.raises(ValueError):
            apply_op_network(Network(G, {0: 2}), op)
        N2 = apply_op_network(Network(G, {0: -1}), op)
        assert not N2.graph.edges

    @pytest.mark.parametrize("w", [2, Fraction(2), 0, Fraction(0)])
    def test_integral_spike_weight_refused_however_written(self, w):
        G = path(2, boundary={0})
        op = find_strippable(G)[0]
        with pytest.raises(ValueError, match=r"over Z: \+1 or -1"):
            apply_op_network(Network(G, {0: w}), op)
        N2 = apply_op_network(Network(G, {0: Fraction(1, 2)}), op)
        assert not N2.graph.edges


class TestLayerability:
    def test_path_layerable_from_one_end(self):
        assert is_layerable(path(5, boundary={0}))

    def test_all_boundary_always_layerable(self):
        G = complete_graph(4, boundary=range(4))
        assert is_layerable(G)

    def test_interior_cycle_is_stuck(self):
        G = cycle(4, boundary=())
        flower, _ = reduce_to_flower(G)
        assert flower == G
        assert is_flower(G)
        assert not is_layerable(G)

    def test_interiorize(self):
        G = cycle(4)
        H = interiorize(G, {0, 1})
        assert H.boundary == frozenset({0, 1})
        with pytest.raises(ValueError):
            interiorize(H, {0})

    def test_confluence_on_random_graphs(self):
        rng = random.Random(7)
        for trial in range(25):
            nv = rng.randint(2, 7)
            edges = {
                k: (rng.randrange(nv), rng.randrange(nv))
                for k in range(rng.randint(1, 10))
            }
            edges = {
                k: (t, h) for k, (t, h) in edges.items() if t != h
            }
            boundary = {v for v in range(nv) if rng.random() < 0.5}
            G = PartialGraph(range(nv), boundary, edges)
            f1, _ = reduce_to_flower(G)
            f2, _ = naive_strip(G, True, lambda op: (-op.sort_key()[0], op.vertex))
            assert f1 == f2


class TestFiltration:
    def test_standard_form_of_a_path(self):
        G = path(4, boundary={0})
        filt = standard_form_filtration(G)
        assert filt.stages[0].edges == ()
        assert filt.stages[-1] == G
        # one label per boundary vertex at every stage, consistent order
        for stage, labelling in zip(filt.stages, filt.labellings):
            assert sorted(labelling) == sorted(stage.boundary)
        assert len(filt.ops) == len(filt.stages) - 1

    def test_spike_extension_keeps_label_slot(self):
        G = path(3, boundary={0})
        filt = standard_form_filtration(G)
        # the single label slot walks back along the path: 2, 1, 0
        assert filt.labellings == ((2,), (1,), (0,))

    def test_stages_and_labellings_are_built_on_first_use(self):
        # a layerable verdict reads only the moves: the labellings hold
        # one tuple per move, each as long as the boundary
        filt = standard_form_filtration(path(3, boundary={0}))
        assert "stages" not in vars(filt) and "labellings" not in vars(filt)
        assert filt.labellings == ((2,), (1,), (0,))

    def test_not_layerable_raises(self):
        with pytest.raises(ValueError):
            standard_form_filtration(cycle(4, boundary=()))

    def test_strip_layerable_keeps_boundary_count(self):
        G = complete_graph(4, boundary=range(4))
        remnant, ops = strip_layerable(G)
        assert len(remnant.boundary) == 4
        assert not remnant.edges


class TestReducibility:
    def test_wedge_split_found(self):
        G1 = cycle(3, boundary={0})
        W, *_ = wedge_sum(G1, 0, cycle(3, boundary={0}), 0)
        split = find_wedge_split(W)
        assert split is not None
        x, A, B = split
        assert len(A.vertices) == 3 and len(B.vertices) == 3

    def test_interior_cycle_irreducible(self):
        assert is_irreducible(cycle(4, boundary=()))
        assert not is_irreducible(path(3, boundary={0}))

    def test_complete_bipartite_not_completely_reducible(self):
        ok, trace = is_completely_reducible(complete_bipartite_bi(2, 3))
        assert not ok
        assert all(is_irreducible(W) for W in trace.irreducible_witnesses())

    def test_layerable_graph_completely_reducible(self):
        ok, trace = is_completely_reducible(path(5, boundary={0}))
        assert ok
        assert not trace.irreducible_witnesses()

    def test_long_path_does_not_recurse_per_move(self):
        G = path(1100, boundary={0})
        ok, trace = is_completely_reducible(G)
        assert ok
        # one strip node holds all 1099 spikes and the last isolated
        # vertex; its child is the empty flower
        assert len(trace.root.move) == 1100
        (child,) = trace.root.children
        assert child.graph.is_empty() and not child.children


class TestDegenerateWeights:
    def test_general_construction_on_interior_cycle(self):
        N, u = degenerate_weights_general(cycle(4, boundary=()))
        assert in_U0(N, u)
        assert not is_nondegenerate(N)

    def test_general_construction_on_flower_with_boundary(self):
        flower, _ = reduce_to_flower(complete_bipartite_bi(2, 3))
        assert not flower.is_empty()
        N, u = degenerate_weights_general(flower)
        assert in_U0(N, u)
        assert not is_nondegenerate(N)

    def test_normalized_construction_on_irreducible(self):
        G = cycle(5, boundary=())
        N, u = degenerate_weights_normalized(G)
        assert N.is_normalized()
        assert in_U0(N, u)
        assert all(u(v) != 0 for v in G.interior)

    def test_normalized_rejects_reducible(self):
        with pytest.raises(ValueError):
            degenerate_weights_normalized(path(3, boundary={0}))


# two triangles joined by the bridge 6
JOINED_TRIANGLES = PartialGraph(
    range(6),
    (),
    {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (3, 4), 4: (4, 5), 5: (5, 3), 6: (2, 3)},
)


def irreducible_sweep():
    """Seeded irreducible loopless multigraphs, about a sixth of their
    edges doubled, with interior bridges among them."""
    rng = random.Random(17)
    graphs = [JOINED_TRIANGLES]
    while len(graphs) < 60:
        nv = rng.randint(3, 9)
        edges = []
        for e in range(rng.randint(nv, 2 * nv + 2)):
            t, h = rng.sample(range(nv), 2)
            edges += [(e, t, h)] + [(100 + e, h, t)] * (rng.random() < 0.15)
        G = PartialGraph(range(nv), rng.sample(range(nv), rng.randint(0, 3)), edges)
        if is_irreducible(G):
            graphs.append(G)
    return graphs


class TestDegenerateNormalized:
    def test_sweep(self):
        graphs = irreducible_sweep()
        parallel = bridged = 0
        for G in graphs:
            N, u = degenerate_weights_normalized(G)
            assert N.is_normalized()
            assert in_U0(N, u)
            assert all(u(v) != 0 for v in G.interior)
            assert all(w != 0 for _, w in N.weights)
            assert not is_nondegenerate(N)
            pairs = [frozenset((t, h)) for _, t, h in G.edges]
            parallel += len(set(pairs)) < len(pairs)
            bridged += bool(G.bridges())
        assert parallel >= 10 and bridged >= 5

    @pytest.mark.parametrize(
        "G, weights",
        [
            (
                wheel(5).graph,
                ["1", "-1", "-2", "-3", "1", "-1", "1/2", "1/3", "1/2", "1"],
            ),
            (JOINED_TRIANGLES, ["-1", "-1", "1/2", "-1", "-1", "1/2", "1"]),
        ],
        ids=["W5", "joined-triangles"],
    )
    def test_pinned_weights(self, G, weights):
        N, _ = degenerate_weights_normalized(G)
        assert [str(w) for _, w in N.weights] == weights

    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_weights_stay_small(self, n):
        """Every weight's numerator and denominator fit in 16 bits, however
        many cycles the wheel has."""
        N, _ = degenerate_weights_normalized(wheel(n).graph)
        bits = max(
            max(w.numerator.bit_length(), w.denominator.bit_length())
            for _, w in N.weights
        )
        assert bits <= 16

    def test_graph_builds_do_not_grow_with_size(self, monkeypatch):
        wheels = [wheel(n).graph for n in (25, 50, 100)]
        builds = []
        init = PartialGraph.__init__

        def counting_init(self, *args):
            builds.append(self)
            init(self, *args)

        monkeypatch.setattr(PartialGraph, "__init__", counting_init)
        counts = []
        for G in wheels:
            del builds[:]
            degenerate_weights_normalized(G)
            counts.append(len(builds))
        assert counts[0] == counts[1] == counts[2]


@pytest.fixture
def walks(monkeypatch):
    """Counts of the component walks and the low-point passes that
    PartialGraph makes, by the name of the cached walk."""
    counts = Counter()

    def counting(name):
        walk = vars(PartialGraph)[name].func

        def counted(G):
            counts[name] += 1
            return walk(G)

        prop = cached_property(counted)
        prop.__set_name__(PartialGraph, name)
        monkeypatch.setattr(PartialGraph, name, prop)

    counting("_components")
    counting("_low_points")
    return counts


@pytest.mark.parametrize("n", [40, 100])
def test_degenerate_weights_walk_each_graph_once(walks, n):
    """One component walk and one low-point pass on the wheel serve the
    reduction step, the wedge split and the bridges; the second walk is
    of the graph of the bridges."""
    G = wheel(n, hub_boundary=True).graph
    walks.clear()
    degenerate_weights_normalized(G)
    assert (walks["_components"], walks["_low_points"]) == (2, 1)


def test_reduction_walks_an_irreducible_graph_once(walks):
    G = clf(60, 8)
    ok, trace = is_completely_reducible(G)
    assert not ok and trace.root.graph is G and not trace.root.children
    assert (walks["_components"], walks["_low_points"]) == (1, 1)


def components_without(G, vertex=None, edge=None):
    vs = [v for v in G.vertices if v != vertex]
    es = [x for x in G.edges if x[0] != edge and vertex not in x[1:]]
    return len(PartialGraph(vs, (), es).connected_components())


@pytest.mark.parametrize("seed", range(40))
def test_low_points_against_deletion(seed):
    """A bridge is an edge whose deletion adds a component, a cut vertex
    a vertex whose deletion does; the graphs have loops, parallel edges
    and several components."""
    rng = random.Random(seed)
    nv = rng.randint(1, 9)
    edges = [
        (e, rng.randrange(nv), rng.randrange(nv))
        for e in range(rng.randint(0, 2 * nv))
    ]
    edges += [(100 + e, h, t) for e, t, h in edges if rng.random() < 0.2]
    G = PartialGraph(range(nv), (), edges)
    k = len(G.connected_components())
    cut, bridges = G.cut_vertices(), G.bridges()
    assert bridges == {e for e in G.edge_ids if components_without(G, edge=e) > k}
    assert cut == {v for v in G.vertices if components_without(G, vertex=v) > k}


# -- the worklist strip against a naive reference ----------------------


def naive_strip(G, isolated=True, order_key=None):
    """Reference: repeated find_strippable plus apply_op."""
    ops = []
    while True:
        moves = [
            op for op in find_strippable(G) if isolated or op.kind != ISOLATED
        ]
        if not moves:
            return G, ops
        op = min(moves, key=order_key) if order_key else moves[0]
        G = apply_op(G, op)
        ops.append(op)


@st.composite
def multigraphs(draw):
    """Parallel edges and loops (boundary loops included) allowed."""
    nv = draw(st.integers(1, 9))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=16))
    boundary = draw(st.sets(vertex))
    return PartialGraph(range(nv), boundary, dict(enumerate(pairs)))


@st.composite
def connected_multigraphs(draw):
    """A random spanning tree plus a few extra edges, loops allowed."""
    nv = draw(st.integers(3, 10))
    vertex = st.integers(0, nv - 1)
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=5))
    boundary = draw(st.sets(vertex))
    return PartialGraph(range(nv), boundary, dict(enumerate(pairs)))


@st.composite
def offset_networks(draw):
    """Loopless multigraphs with weights +1 or -1, so that every spike
    applies, and nonzero offsets."""
    G = draw(multigraphs())
    G = G.induced(G.vertices, [e for e, t, h in G.edges if t != h], G.boundary)
    w = {e: draw(st.sampled_from([1, -1])) for e in G.edge_ids}
    d = {v: draw(st.integers(-3, 3).filter(bool)) for v in G.vertices}
    return Network(G, w, d)


def naive_wedge_split(G):
    """Reference: delete each boundary vertex in turn and rescan."""
    if not G.is_connected() or len(G.vertices) < 3:
        return None
    for x in sorted(G.boundary):
        comps = G.delete_vertex(x).connected_components()
        if len(comps) > 1:
            side1 = set(comps[0]) | {x}
            e1 = [e for e, t, h in G.edges if t in side1 and h in side1]
            e2 = [e for e, _, _ in G.edges if e not in e1]
            side2 = set(G.vertices) - comps[0]
            return (
                x,
                G.induced(side1, e1, G.boundary & side1),
                G.induced(side2, e2, G.boundary & side2),
            )
    return None


def shuffled(salt):
    return lambda op: hash((salt, op.sort_key())) % 101


class TestWorklistAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.integers(0, 10**6))
    def test_reduce_to_flower(self, G, salt):
        assert reduce_to_flower(G) == naive_strip(G)
        assert reduce_to_flower(G)[0] == naive_strip(G, True, shuffled(salt))[0]

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_strip_layerable(self, G):
        remnant, ops = naive_strip(G, isolated=False)
        if remnant.edges or set(remnant.vertices) - remnant.boundary:
            with pytest.raises(ValueError, match="not layerable"):
                strip_layerable(G)
        else:
            assert strip_layerable(G) == (remnant, ops)

    @settings(max_examples=300, deadline=None)
    @given(connected_multigraphs())
    def test_find_wedge_split(self, G):
        assert find_wedge_split(G) == naive_wedge_split(G)

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_is_irreducible(self, G):
        # the four checks is_irreducible made before it read the
        # reduction step
        reference = (
            not G.is_empty()
            and not find_strippable(G)
            and G.is_connected()
            and naive_wedge_split(G) is None
        )
        assert is_irreducible(G) == reference

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_filtration_exists_iff_layerable(self, G):
        try:
            standard_form_filtration(G)
        except ValueError:
            assert not is_layerable(G)
        else:
            assert is_layerable(G)

    @settings(max_examples=200, deadline=None)
    @given(offset_networks())
    def test_apply_op_network_restricts_the_maps(self, N):
        for op in find_strippable(N.graph):
            G2 = apply_op(N.graph, op)
            expected = Network(
                G2,
                {e: w for e, w in N.weights if e in set(G2.edge_ids)},
                {v: d for v, d in N.offsets if v in set(G2.vertices)},
            )
            assert apply_op_network(N, op) == expected

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_filtration_replays(self, G):
        try:
            filt = standard_form_filtration(G)
        except ValueError:
            remnant, _ = naive_strip(G, isolated=False)
            assert remnant.edges or set(remnant.vertices) - remnant.boundary
            return
        # undo the extensions from the top: each is a strip move
        H = G
        for stage, op in zip(reversed(filt.stages[:-1]), reversed(filt.ops)):
            H = apply_op(H, op)
            assert H == stage
        label = sorted(filt.stages[0].vertices)
        assert filt.labellings[0] == tuple(label)
        for op, labelling in zip(filt.ops, filt.labellings[1:]):
            if op.kind == SPIKE:
                label[label.index(op.interior_vertex)] = op.vertex
            assert labelling == tuple(label)
