"""Verification suites: golden-value reproduction and randomized
property checks, shared by ``graphalg verify`` and the test suite.

Each check returns a :class:`CheckResult`; ``run_suite`` executes the
"paper" suite (deterministic golden values), the "property" suite
(randomized structural properties with fixed seeds), or both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import families
from .continuation import (
    edge_transform,
    find_layering_set,
    initial_transform,
    integer_u0_matrix,
    invariant_factor_bound,
    is_symplectic,
    multiplicity_bound_check,
    spike_transform,
    u0_via_continuation,
)
from .exact_algebra import (
    ExactMatrix,
    Mod,
    ModuleDecomposition,
    charpoly,
    smith_diagonal,
)
from .fundamental import (
    _charpoly_divides,
    _constant_degree,
    critical_group,
    eigen_multiplicity,
    laplacian_charpoly,
    torsion_crosscheck,
    upsilon,
)
from .layering import (
    apply_op,
    degenerate_weights_general,
    find_strippable,
    is_completely_reducible,
    is_flower,
    is_irreducible,
    reduce_to_flower,
)
from .network import (
    Network,
    U0_QmodZ,
    U0_mod_n,
    VertexFunction,
    in_U0,
    is_nondegenerate,
    laplacian_matrix,
    pullback_harmonic,
    pushforward_U0,
    u0_brute_force_mod_n,
)
from .partial_graph import PartialGraph, bipartite_double_cover
from .planar import (
    EmbeddedPartialGraph,
    _trace_all_faces,
    dual,
    trace_faces,
    validate_embedding,
    verify_duality,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def _one_boundary_agrees(G, got):
    """The critical group ``got`` of G equals the torsion of Upsilon
    with a single boundary vertex."""
    one = G.with_boundary({G.vertices[0]})
    alt = upsilon(Network.standard(one)).decomposition.invariant_factors
    return alt == got.invariant_factors


# -- golden-value checks ------------------------------------------------


def check_complete_bipartite():
    """K_{m,n} with m boundary and n interior vertices has fundamental
    module Z^m + (Z/m)^(n-1)."""
    bad = []
    for m in range(2, 7):
        for n in range(2, 7):
            G = families.complete_bipartite_bi(m, n)
            got = upsilon(Network.standard(G)).decomposition
            want = ModuleDecomposition(m, (m,) * (n - 1))
            if got != want:
                bad.append((m, n, str(got)))
    return _result(
        "complete-bipartite",
        not bad,
        "m,n in 2..6" if not bad else f"mismatch: {bad}",
    )


def check_complete_graphs():
    """Crit(K_n) = (Z/n)^(n-2), meeting the layer-stripping bound on the
    number of invariant factors with equality."""
    bad = []
    for n in range(3, 9):
        G = families.complete_graph(n)
        got = critical_group(G)
        want = ModuleDecomposition(0, (n,) * (n - 2))
        bound = invariant_factor_bound(G, range(n - 1))
        if got != want or bound != len(got.invariant_factors):
            bad.append((n, str(got), bound))
        if not _one_boundary_agrees(G, got):
            bad.append((n, "one-boundary variant"))
    return _result(
        "complete-graphs",
        not bad,
        "n in 3..8, bound tight" if not bad else f"mismatch: {bad}",
    )


def check_wheels():
    """Crit(W_n) follows the Fibonacci pattern: (Z/(F_{n-1}+F_{n+1}))^2
    for odd n, Z/F_n + Z/5F_n for even n."""
    fib = [0, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    bad = []
    for n in range(3, 13):
        G = families.wheel(n).graph
        got = critical_group(G)
        if n % 2:
            lucas = fib[n - 1] + fib[n + 1]
            want = ModuleDecomposition.from_cyclic_orders((lucas, lucas))
        else:
            want = ModuleDecomposition.from_cyclic_orders((fib[n], 5 * fib[n]))
        if got != want:
            bad.append((n, str(got), str(want)))
        if not _one_boundary_agrees(G, got):
            bad.append((n, "one-boundary variant"))
    return _result(
        "wheels", not bad, "n in 3..12" if not bad else f"mismatch: {bad}"
    )


def _clf_expected(m, n):
    if m % 2 == 1:
        orders = [2] * n
    elif m % 4 == 2:
        orders = [2] * (2 * n)
    else:
        orders = [gcd(4**j, 2 * m) for j in range(1, n + 1)] * 2
    return ModuleDecomposition.from_cyclic_orders(orders)


def _clf_prime_expected(m, n):
    if m % 2 == 1:
        orders = [2] * n
    else:
        orders = [gcd(4**j, 4 * m) for j in range(1, (n + 1) // 2 + 1)]
        orders += [gcd(4**j, 4 * m) for j in range(1, n // 2 + 1)]
    return ModuleDecomposition.from_cyclic_orders(orders)


def check_clf():
    """The chain-link fence closed forms, for both families; clf also
    through the kernel matrix A of a layering set."""
    bad = []
    for m in range(3, 41):
        for n in range(1, 6):
            G = families.clf(m, n)
            N = Network.standard(G)
            want = _clf_expected(m, n)
            got = U0_QmodZ(N)
            if got != want:
                bad.append(("clf", m, n, str(got)))
            got = u0_via_continuation(N, find_layering_set(G))
            if got != want:
                bad.append(("clf via A", m, n, str(got)))
    for m in range(1, 7):
        for n in range(1, 5):
            got = U0_QmodZ(Network.standard(families.clf_prime(m, n)))
            if got != _clf_prime_expected(m, n):
                bad.append(("clf'", m, n, str(got)))
    return _result(
        "chain-link-fence",
        not bad,
        "clf m 3..40 n 1..5, direct and via A; clf' m 1..6 n 1..4"
        if not bad
        else f"mismatch: {bad}",
    )


def _worked_example():
    # 0..4 = v, w, z, x, y with boundary z
    edges = {
        0: (0, 1),  # v-w
        1: (1, 2),  # w-z
        2: (1, 4),  # w-y
        3: (0, 4),  # v-y
        4: (0, 3),  # v-x
        5: (2, 4),  # z-y
        6: (3, 4),  # x-y
        7: (2, 3),  # z-x
    }
    return PartialGraph(range(5), {2}, edges)


def check_worked_example():
    """The eight-edge example: the kernel matrix for S = {x, y} has
    Smith normal form diag(3, 15), U0 = Z/3 + Z/15, and the tabulated
    mod-3 and mod-5 generators lie in U0."""
    G = _worked_example()
    N = Network.standard(G)
    diag, _ = smith_diagonal(integer_u0_matrix(N, {3, 4}))
    dec = u0_via_continuation(N, {3, 4})
    ok = tuple(diag) == (3, 15) and dec == ModuleDecomposition(0, (3, 15))
    ok = ok and U0_QmodZ(N) == ModuleDecomposition(0, (3, 15))
    # generators: keys v, w, z, x, y
    gens3 = [
        {0: 0, 1: -1, 2: 0, 3: 1, 4: 0},
        {0: -1, 1: -1, 2: 0, 3: 0, 4: 1},
    ]
    gen5 = {0: 0, 1: 2, 2: 0, 3: 2, 4: 1}
    for vals in gens3:
        u = VertexFunction({v: Mod(x, 3) for v, x in vals.items()})
        ok = ok and in_U0(N, u)
    u5 = VertexFunction({v: Mod(x, 5) for v, x in gen5.items()})
    ok = ok and in_U0(N, u5)
    return _result(
        "worked-example",
        ok,
        f"snf diagonal {tuple(int(d) for d in diag)}, U0 {dec}",
    )


def check_cubes():
    """Crit(Q_n) has exactly 2^(n-1) - 1 invariant factors, meeting the
    layer-stripping bound with equality."""
    bad = []
    for n in range(2, 7):
        G = families.cube(n)
        got = critical_group(G)
        count = len(got.invariant_factors)
        bound = invariant_factor_bound(G, range(2 ** (n - 1)))
        if count != 2 ** (n - 1) - 1 or bound != count:
            bad.append((n, count, bound))
        if not _one_boundary_agrees(G, got):
            bad.append((n, "one-boundary variant"))
    return _result(
        "cubes", not bad, "n in 2..6" if not bad else f"mismatch: {bad}"
    )


def check_wheel_duality():
    """Reduced-module torsion agrees with the dual for hub-boundary
    wheels, and the dual of W_5 is again a wheel on five rim vertices."""
    bad = []
    for n in range(3, 11):
        EW = families.wheel(n, hub_boundary=True)
        if not verify_duality(Network.standard(EW.graph), EW):
            bad.append(n)
    EW5 = families.wheel(5, hub_boundary=True)
    D = dual(Network.standard(EW5.graph), EW5)
    Gd = D.network.graph
    hub = [v for v in Gd.vertices if Gd.degree(v) == 5]
    wheel_shape = (
        len(Gd.vertices) == 6
        and len(Gd.edges) == 10
        and len(hub) == 1
        and len(Gd.boundary) == 1
        and all(
            Gd.degree(v) == 3 for v in Gd.vertices if v not in hub
        )
        and _is_cycle(Gd.delete_vertex(hub[0]))
    )
    if not wheel_shape:
        bad.append("W5-self-dual")
    return _result(
        "wheel-duality",
        not bad,
        "n in 3..10; W5 self-dual" if not bad else f"failed: {bad}",
    )


def _is_cycle(G):
    return (
        G.is_connected()
        and len(G.edges) == len(G.vertices)
        and all(G.degree(v) == 2 for v in G.vertices)
    )


def check_cycle_spectra():
    """Adjacency eigenvalues of C_n have multiplicity at most 2, with
    equality away from +/-2; and the characteristic polynomial of a base
    graph divides that of its bipartite double cover, whose quotient is
    the characteristic polynomial of D + A."""
    import sympy

    z = sympy.Symbol("z")
    bad = []
    for n in range(3, 13):
        G = families.cycle(n)
        N = Network(G, {e: 1 for e in G.edge_ids}, {v: -2 for v in G.vertices})
        # L = -adjacency, so det(zI + L) is the adjacency charpoly
        coeffs = charpoly(_negate(N))
        poly = sympy.Poly(coeffs, z)
        _, factors = poly.factor_list()
        for factor, exp in factors:
            roots = sympy.roots(factor)
            # simple exactly at the extreme eigenvalues +/-2, double
            # everywhere else
            extreme = factor.degree() == 1 and set(roots) <= {2, -2}
            if exp > 2 or (exp == 1) != extreme:
                bad.append((n, str(factor), exp))
            # cross-check rational roots against the exact nullity and
            # the layer-stripping multiplicity bound (L = -adjacency)
            for r in roots:
                if r.is_rational:
                    lam = Fraction(int(sympy.numer(r)), int(sympy.denom(r)))
                    if eigen_multiplicity(N, -lam) != exp:
                        bad.append((n, "mult", str(r)))
                    if not multiplicity_bound_check(N, {0, 1}, -lam):
                        bad.append((n, "bound", str(r)))
    for G in (
        families.cycle(3),
        families.complete_graph(4),
        families.complete_graph(32),
        families.cube(5),
        families.cube(6),
    ):
        cover, f = bipartite_double_cover(G)
        n = _constant_degree(f)
        # one charpoly each of the cover and the base, for both checks
        p_cover = laplacian_charpoly(Network.standard(cover))
        p_base = laplacian_charpoly(Network.standard(G))
        if not _charpoly_divides(p_cover, p_base, n):
            bad.append(("double-cover", len(G.vertices)))
        if not _two_lift_identity(G, p_base, p_cover):
            bad.append(("two-lift", len(G.vertices)))
    return _result(
        "cycle-spectra",
        not bad,
        "C_n n 3..12; double covers of C3, K4, K32, Q5, Q6"
        if not bad
        else f"failed: {bad}",
    )


def _two_lift_identity(G, p_base, p_cover):
    """charpoly(L(cover)) = charpoly(D - A) * charpoly(D + A) for the
    bipartite double cover of G, given ``p_base`` = charpoly(D - A) and
    ``p_cover`` = charpoly(L(cover)): the cover's Laplacian
    [[D, -A], [-A, D]] splits on the vectors (x, x) and (x, -x).
    D + A is G's network with weights -1 and offsets 2 deg."""
    signless = Network(
        G,
        {e: -1 for e in G.edge_ids},
        {v: 2 * G.degree(v) for v in G.vertices},
    )
    q = laplacian_charpoly(signless)
    product = [0] * (len(p_base) + len(q) - 1)
    for i, x in enumerate(p_base):
        for j, y in enumerate(q):
            product[i + j] += x * y
    return p_cover == product


def _negate(N):
    L = laplacian_matrix(N).to_integer()
    return ExactMatrix([[-x for x in row] for row in L.data])


def check_symmetry_counting():
    """For the two-sheeted translation quotient of the chain-link fence,
    mod-3 harmonic counts agree modulo 2 and pushing a pulled-back
    function forward doubles it."""
    bad = []
    for m, n in ((2, 1), (3, 1), (2, 2)):
        f = families.rotation_action(m, n, 2)
        N1 = Network.standard(f.source)
        N2 = Network.standard(f.target)
        big = U0_mod_n(N1, 3).torsion_order
        small = U0_mod_n(N2, 3).torsion_order
        if (big - small) % 2 != 0:
            bad.append((m, n, big, small))
        for u in u0_brute_force_mod_n(N2, 3):
            pulled = pullback_harmonic(f, N1, N2, u)
            pushed = pushforward_U0(f, N1, N2, pulled)
            doubled = VertexFunction(
                {v: 2 * u(v) for v in N2.graph.vertices}
            )
            if pushed != doubled:
                bad.append((m, n, "round-trip"))
                break
    return _result(
        "symmetry-counting",
        not bad,
        "clf quotients (2,1),(3,1),(2,2) mod 3"
        if not bad
        else f"failed: {bad}",
    )


def check_bipartite_obstruction():
    """K_{m,n} with every interior vertex of degree >= 2 is not
    completely reducible, and the reduction trace exhibits an
    irreducible piece."""
    bad = []
    for m in range(2, 5):
        for n in range(m, 6):
            G = families.complete_bipartite_bi(m, n)
            verdict, trace = is_completely_reducible(G)
            witnesses = trace.irreducible_witnesses()
            if verdict or not witnesses:
                bad.append((m, n, verdict))
                continue
            if not all(is_irreducible(W) for W in witnesses):
                bad.append((m, n, "witness"))
    return _result(
        "bipartite-obstruction",
        not bad,
        "K_{m,n}, 2<=m<=4, m<=n<=5" if not bad else f"failed: {bad}",
    )


# -- randomized property checks ----------------------------------------


def _random_connected_graph(rng, max_vertices=5, max_edges=7, multi=False):
    while True:
        nv = rng.randint(2, max_vertices)
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        ne = rng.randint(nv - 1, max_edges)
        if multi:
            chosen = [rng.choice(pairs) for _ in range(ne)]
        else:
            rng.shuffle(pairs)
            chosen = pairs[:ne]
        edges = {k: p for k, p in enumerate(chosen)}
        G = PartialGraph(range(nv), (), edges)
        if G.is_connected():
            return G


def _all_connected_graphs(max_vertices=5, max_edges=7):
    for nv in range(1, max_vertices + 1):
        pairs = list(combinations(range(nv), 2))
        top = min(max_edges, len(pairs))
        for ne in range(0, top + 1):
            for chosen in combinations(pairs, ne):
                G = PartialGraph(range(nv), (), dict(enumerate(chosen)))
                if G.is_connected():
                    yield G


def check_layerability_characterization():
    """Exhaustively over connected graphs with at most 5 vertices and 7
    edges and every boundary choice: the strip leaves no move,
    non-layerable graphs admit an explicitly degenerate network
    (verified witness), while layerable ones stay non-degenerate for 20
    random unit rational weight choices."""
    rng = random.Random(20260823)
    checked = 0
    for G0 in _all_connected_graphs():
        nv = len(G0.vertices)
        for mask in range(2**nv):
            boundary = {v for v in G0.vertices if mask & (1 << v)}
            G = G0.with_boundary(boundary)
            flower, _ = reduce_to_flower(G)
            checked += 1
            # the strip works on degree counters; the full move scan
            # checks independently that it left no move
            if not is_flower(flower):
                return _result(
                    "layerability", False, f"strip stopped early: {G}"
                )
            if flower.is_empty():
                for _ in range(20):
                    w = {
                        e: Fraction(
                            rng.choice([-3, -2, -1, 1, 2, 3]),
                            rng.randint(1, 3),
                        )
                        for e in G.edge_ids
                    }
                    if G.edge_ids and not is_nondegenerate(Network(G, w)):
                        return _result(
                            "layerability",
                            False,
                            f"layerable but degenerate: {G} {w}",
                        )
            else:
                # witness construction verifies membership internally
                N, u = degenerate_weights_general(flower)
                if not in_U0(N, u) or all(
                    u(v) == 0 for v in flower.vertices
                ):
                    return _result(
                        "layerability", False, f"witness failed: {flower}"
                    )
    return _result(
        "layerability", True, f"{checked} (graph, boundary) pairs"
    )


def check_flower_confluence():
    """Fifty random graphs, each stripped by the move scan in two random
    move orders, reach the flower of ``reduce_to_flower``."""
    rng = random.Random(4242)
    for trial in range(50):
        G = _random_connected_graph(rng, max_vertices=8, max_edges=14, multi=True)
        boundary = {
            v for v in G.vertices if rng.random() < 0.5
        }
        G = G.with_boundary(boundary)
        flower, _ = reduce_to_flower(G)
        for seed in (trial, trial + 1000):
            order = random.Random(seed)
            H = G
            while moves := find_strippable(H):
                H = apply_op(H, order.choice(moves))
            if H != flower:
                return _result("flower-confluence", False, f"trial {trial}")
    return _result("flower-confluence", True, "50 random graphs")


def check_symplectic():
    """Two hundred random boundary-data transforms, and products of
    them, preserve the standard symplectic form exactly."""
    rng = random.Random(77)
    pool = {}
    for trial in range(200):
        m = rng.randint(1, 5)
        kind = rng.choice(("initial", "spike", "edge"))
        if kind == "initial":
            T = initial_transform(
                [rng.randint(-4, 4) for _ in range(m)]
            )
        elif kind == "spike":
            w = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            T = spike_transform(m, rng.randint(1, m), w, rng.randint(-3, 3))
        else:
            if m == 1:
                m = 2
            i = rng.randint(1, m)
            j = rng.randint(1, m)
            while j == i:
                j = rng.randint(1, m)
            w = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            T = edge_transform(m, i, j, w)
        if not is_symplectic(T.matrix):
            return _result("symplectic", False, f"trial {trial}: {T.kind}")
        pool.setdefault(T.m, []).append(T.matrix)
    for m, mats in pool.items():
        prod = mats[0]
        for M in mats[1 : 1 + 6]:
            prod = prod * M
        if not is_symplectic(prod):
            return _result("symplectic", False, f"product at m={m}")
    return _result("symplectic", True, "200 transforms + products")


def _random_sparse_graph(rng, nv, extra):
    """A random spanning tree on nv vertices plus ``extra`` further
    edges, without parallel edges."""
    pairs = set()
    for v in range(1, nv):
        pairs.add((rng.randrange(v), v))
    while len(pairs) < nv - 1 + extra:
        pairs.add(tuple(sorted(rng.sample(range(nv), 2))))
    return PartialGraph(range(nv), (), dict(enumerate(sorted(pairs))))


def check_cross_oracle():
    """Thirty random non-degenerate unit-weight networks with at most
    seven vertices and four with 50-64: the direct kernel over Q/Z, the
    transposed cokernel, and the layer-stripping kernel matrix agree."""
    rng = random.Random(1089)
    done = 0
    while done < 34:
        if done < 30:
            G = _random_connected_graph(rng, max_vertices=7, max_edges=12)
            boundary = {v for v in G.vertices if rng.random() < 0.4} or {0}
        else:
            # one to three boundary vertices leave nontrivial torsion
            nv = rng.randint(50, 64)
            G = _random_sparse_graph(rng, nv, nv // 2)
            boundary = set(rng.sample(range(nv), rng.randint(1, 3)))
        G = G.with_boundary(boundary)
        if not G.interior:
            continue
        w = {e: rng.choice([1, -1]) for e in G.edge_ids}
        N = Network(G, w)
        if not is_nondegenerate(N):
            continue
        direct = U0_QmodZ(N)
        if not torsion_crosscheck(N):
            return _result("cross-oracle", False, f"transpose route: {G}")
        S = find_layering_set(G)
        via_A = u0_via_continuation(N, S)
        if via_A != direct:
            return _result(
                "cross-oracle", False, f"kernel matrix route: {G} S={S}"
            )
        done += 1
    return _result(
        "cross-oracle", True, "34 random networks (4 with 50+ vertices), 3 routes"
    )


def _embed_with_networkx(G, rng):
    """Disk embedding of a connected planar graph: compute a rotation
    system, pick a face whose walk visits distinct vertices, and open it
    up into the disk boundary."""
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(G.vertices)
    nxg.add_edges_from((t, h) for _, t, h in G.edges)
    planar, embedding = nx.check_planarity(nxg)
    if not planar:
        return None
    data = embedding.get_data()
    pair_to_edge = {}
    for e, t, h in G.edges:
        pair_to_edge[(t, h)] = (e, 1)
        pair_to_edge[(h, t)] = (e, -1)
    rotation = {
        v: tuple(pair_to_edge[(v, w)] for w in data[v]) for v in G.vertices
    }
    for flip in (False, True):
        rot = (
            {v: tuple(reversed(ds)) for v, ds in rotation.items()}
            if flip
            else rotation
        )
        EG0 = EmbeddedPartialGraph(G, rot, ())
        faces = _trace_all_faces(EG0)
        candidates = []
        for face in faces:
            tails = [G.o_tail(d) for d in face]
            if len(set(tails)) == len(tails):
                candidates.append(face)
        rng.shuffle(candidates)
        for face in candidates:
            boundary = [G.o_tail(d) for d in face]
            rmap = {v: list(ds) for v, ds in rot.items()}
            for d in face:
                b = G.o_tail(d)
                darts = rmap[b]
                i = darts.index(d)
                rmap[b] = darts[i:] + darts[:i]
            EG = EmbeddedPartialGraph(
                G.with_boundary(boundary), rmap, tuple(boundary)
            )
            try:
                validate_embedding(EG)
                return EG
            except ValueError:
                continue
    return None


def check_random_planar_duality():
    """Twenty-five random circular planar unit-weight networks have the
    same reduced-module torsion as their duals."""
    rng = random.Random(31415)
    done = 0
    while done < 25:
        G = _random_connected_graph(rng, max_vertices=8, max_edges=12)
        EG = _embed_with_networkx(G, rng)
        if EG is None:
            continue
        # an edge with the same face on both sides would dualize to a
        # loop; skip those samples
        face_of = {}
        for i, f in enumerate(trace_faces(EG)):
            for d in f.darts:
                face_of[d] = i
        if any(
            face_of[(e, 1)] == face_of[(e, -1)] for e in EG.graph.edge_ids
        ):
            continue
        w = {e: rng.choice([1, -1]) for e in EG.graph.edge_ids}
        N = Network(EG.graph, w)
        if not verify_duality(N, EG):
            return _result(
                "random-planar-duality", False, f"graph {EG.graph}"
            )
        done += 1
    return _result("random-planar-duality", True, "25 random embeddings")


PAPER_CHECKS = (
    check_complete_bipartite,
    check_complete_graphs,
    check_wheels,
    check_clf,
    check_worked_example,
    check_cubes,
    check_wheel_duality,
    check_cycle_spectra,
    check_symmetry_counting,
    check_bipartite_obstruction,
)

PROPERTY_CHECKS = (
    check_layerability_characterization,
    check_flower_confluence,
    check_symplectic,
    check_cross_oracle,
    check_random_planar_duality,
)


def run_suite(suite=None):
    checks = []
    if suite in (None, "paper"):
        checks += list(PAPER_CHECKS)
    if suite in (None, "property"):
        checks += list(PROPERTY_CHECKS)
    return [fn() for fn in checks]
