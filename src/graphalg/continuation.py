"""Harmonic continuation along standard-form filtrations.

Boundary data of a harmonic function u on a stage with boundary labels
l_1, ..., l_m is the column (u(l_1), ..., u(l_m), Lu(l_1), ..., Lu(l_m)).
The isolated stage acts on boundary data by the offset shear
Lu = d u, and each layerable extension by an elementary symplectic
move that changes at most two entries: a spike at one label or a
boundary edge between two labels.  A plan reads these moves off the
strip's own ``LayerOp``s.  A :class:`BoundaryTransform` stores
the move, not its 2m x 2m matrix; applying the moves in turn continues
u across the whole filtration with O(1) arithmetic per extension.
``.matrix`` and ``ContinuationPlan.total_matrix`` derive the dense
matrices from the moves, for checking that they are symplectic.

The same moves compute, for S a set of interior vertices making
G_{S->boundary} layerable, a matrix A with U0(G, L, M) isomorphic to
ker(A acting on M^{|S|}): run the continuation over the complementary
filtration starting from the isolated stage S + boundary, feed in the
unit vectors on S and zeros on the boundary, and read off the final
Lu-block; u extends harmonically exactly when that block vanishes.
``find_layering_set`` finds such an S greedily; after each promoted
vertex it re-strips only the last flower, which ends where re-stripping
the whole graph would.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_algebra import (
    ExactMatrix,
    _inverse,
    kernel_QmodZ_torsion,
    kernel_mod_n,
)
from .fundamental import eigen_multiplicity
from .layering import (
    SPIKE,
    LayerOp,
    interiorize,
    is_layerable,
    reduce_to_flower,
    strip_layerable,
)
from .network import (
    Network,
    VertexFunction,
    is_harmonic,
)


@dataclass(frozen=True)
class BoundaryTransform:
    """One layerable extension acting on boundary data (x, y) =
    (u|boundary, Lu|boundary) of length 2m, as the move ``kind``:

    - ``("initial", d)``: y_i += d_i x_i for every label i;
    - ``("spike", j, w, d)``: x_j += y_j / w, then y_j += d x_j;
    - ``("edge", i, j, w)``: with f = w (x_i - x_j), y_i += f and
      y_j -= f.

    Label indices are 1-based; entries may be in Q or Z/n.
    """

    m: int
    kind: tuple

    def apply(self, data):
        """The moved copy of the boundary data ``data``."""
        out = list(data)
        m = self.m
        move = self.kind
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

    @property
    def matrix(self):
        """The 2m x 2m matrix of the move (columns: images of e_k)."""
        return _matrix_of(self.apply, 2 * self.m)


def _matrix_of(move, n):
    """The n x n matrix whose k-th column is ``move(e_k)``, e_k the k-th
    unit vector of length n."""
    columns = [move([int(i == k) for i in range(n)]) for k in range(n)]
    return ExactMatrix([[c[r] for c in columns] for r in range(n)])


def symplectic_form(m):
    """J = [[0, -I], [I, 0]] of size 2m."""
    grid = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        grid[i][m + i] = -1
        grid[m + i][i] = 1
    return ExactMatrix(grid)


def is_symplectic(T):
    m2 = T.rows
    if m2 % 2 or T.cols != m2:
        return False
    J = symplectic_form(m2 // 2)
    return T.transpose() * J * T == J


def initial_transform(d_values):
    """T0 = [[I, 0], [D, I]] for the isolated-vertex stage, D the
    diagonal of the vertex offsets in label order."""
    d_values = tuple(d_values)
    return BoundaryTransform(len(d_values), ("initial", d_values))


def spike_transform(m, j, w, d=0):
    """Transform for adjoining a boundary spike at label index j
    (1-based) with edge weight w and new-vertex offset d:
    [[I, w^-1 E_jj], [d E_jj, I + d w^-1 E_jj]]."""
    if not 1 <= j <= m:
        raise ValueError("index out of range")
    if w == 0:
        raise ValueError("spike weight must be nonzero")
    return BoundaryTransform(m, ("spike", j, w, d))


def edge_transform(m, i, j, w):
    """Transform for adjoining a boundary edge between label indices i
    and j (1-based): [[I, 0], [w(E_ii + E_jj - E_ij - E_ji), I]]."""
    if not (1 <= i <= m and 1 <= j <= m) or i == j:
        raise ValueError("indices out of range or equal")
    if w == 0:
        raise ValueError("edge weight must be nonzero")
    return BoundaryTransform(m, ("edge", i, j, w))


@dataclass(frozen=True)
class ContinuationPlan:
    """Transforms in application order, with the vertex recorded at each
    step: ``records[k]`` is the (vertex, label index) whose value first
    appears after ``transforms[k]`` is applied (None for edge steps).
    ``initial_labels`` lists the vertices of the smallest stage in label
    order."""

    network: Network
    initial_labels: tuple
    transforms: tuple
    records: tuple

    @property
    def m(self):
        return len(self.initial_labels)

    def apply(self, data):
        """Boundary data ``data`` of the smallest stage moved through
        every transform."""
        for T in self.transforms:
            data = T.apply(data)
        return data

    def total_matrix(self):
        return _matrix_of(self.apply, 2 * self.m)


def _build_plan(N, initial_labels, ops):
    """Shared plan builder.  ``ops`` are strip moves in the order their
    extensions are applied: a spike adjoins ``op.vertex`` at the label
    of ``op.interior_vertex``, which turns interior, and a boundary edge
    joins the labels of its two ends."""
    ends = N.graph.edge_dict
    dmap, wmap = N.dmap, N.wmap
    m = len(initial_labels)
    index = {v: j for j, v in enumerate(initial_labels, 1)}
    transforms = [initial_transform([dmap[v] for v in initial_labels])]
    records = [None]
    for op in ops:
        w = wmap[op.edge]
        if op.kind == SPIKE:
            j = index.pop(op.interior_vertex)
            index[op.vertex] = j
            transforms.append(spike_transform(m, j, w, dmap[op.vertex]))
            records.append((op.vertex, j))
        else:
            t, h = ends[op.edge]
            transforms.append(edge_transform(m, index[t], index[h], w))
            records.append(None)
    return ContinuationPlan(
        N, tuple(initial_labels), tuple(transforms), tuple(records)
    )


def continuation_plan(N):
    """Plan for continuing harmonic functions on a layerable network
    from the isolated stage of its standard-form filtration: the strip
    moves undone in reverse order."""
    remnant, ops = strip_layerable(N.graph, "network graph is not layerable")
    return _build_plan(N, tuple(sorted(remnant.vertices)), reversed(ops))


def complementary_plan(N, S):
    """Plan for the complementary filtration of G_{S->boundary}: the
    continuation starts from the isolated stage S + boundary (S sorted
    and labelled first) and replays the strip moves of G_{S->boundary}
    in discovery order, each spike with its two endpoints swapped."""
    G = N.graph
    S = sorted(S)
    if len(set(S)) != len(S):
        raise ValueError("S has a repeated vertex")
    _, ops = strip_layerable(
        interiorize(G, S), "G_{S->boundary} is not layerable"
    )
    ops = [
        LayerOp(SPIKE, op.interior_vertex, op.edge, op.vertex)
        if op.kind == SPIKE
        else op
        for op in ops
    ]
    return _build_plan(N, tuple(S) + tuple(sorted(G.boundary)), ops)


def continue_harmonic(plan, phi):
    """Continue boundary data phi (values on ``plan.initial_labels`` in
    label order, over Q or Z/n) to a harmonic function on the full
    network.  Verified with is_harmonic before returning."""
    m = plan.m
    if len(phi) != m:
        raise ValueError("need one value per initial label")
    data = list(phi) + [0 * v for v in phi]
    values = dict(zip(plan.initial_labels, phi))
    for T, record in zip(plan.transforms, plan.records):
        data = T.apply(data)
        if record is not None:
            vertex, j = record
            values[vertex] = data[j - 1]
    u = VertexFunction(values)
    if not is_harmonic(plan.network, u):
        raise AssertionError("continuation failed harmonicity check")
    return u


def u0_matrix_A(N, S):
    """The matrix A of the explicit-kernel theorem: with s = |S| and
    m = s + |boundary|, A is the bottom m x s corner of the total
    boundary-data transform of the complementary filtration, and
    U0(G, L, M) = ker(A acting on M^s).  Only the s columns e_1..e_s
    are pushed through the moves."""
    plan = complementary_plan(N, S)
    m = plan.m
    columns = [
        plan.apply([int(i == k) for i in range(2 * m)]) for k in range(len(S))
    ]
    return ExactMatrix([[c[r] for c in columns] for r in range(m, 2 * m)])


def integer_u0_matrix(N, S):
    """``u0_matrix_A(N, S)`` with int entries; raises ValueError when A
    is not integral."""
    A = u0_matrix_A(N, S)
    if not A.is_integer():
        raise ValueError("A is not integral; use unit integer weights")
    return A.to_integer()


def u0_via_continuation(N, S):
    """Torsion decomposition of ker A over Q/Z; cross-oracle for
    U0_QmodZ."""
    return kernel_QmodZ_torsion(integer_u0_matrix(N, S))


def u0_mod_n_via_continuation(N, S, n):
    return kernel_mod_n(integer_u0_matrix(N, S), n)


def find_layering_set(G):
    """Greedy heuristic: strip to the flower; while it is not empty,
    promote one of its interior vertices (preferring one adjacent to the
    boundary) and strip that flower again.  Returns S with G_{S->boundary}
    layerable."""
    S = []
    flower, _ = reduce_to_flower(G)
    while not flower.is_empty():
        candidates = [
            x
            for x in flower.interior
            if any(y in flower.boundary for y in flower.neighbors(x))
        ]
        pick = min(candidates) if candidates else min(flower.interior)
        S.append(pick)
        flower, _ = reduce_to_flower(interiorize(flower, {pick}))
    return sorted(S)


def invariant_factor_bound(G, S):
    """For a boundaryless graph: the critical group has at most
    |S| - 1 invariant factors, provided designating one vertex of S as
    boundary and the rest as S' leaves G_{S'->boundary} layerable."""
    if G.boundary:
        raise ValueError("boundaryless graph required")
    S = sorted(S)
    if not S:
        raise ValueError("S must be nonempty")
    x = S[0]
    Gp = G.with_boundary({x})
    if not is_layerable(interiorize(Gp, S[1:])):
        raise ValueError("G_{S->boundary} is not layerable")
    return len(S) - 1


def multiplicity_bound_check(N, S, lam):
    """Eigenvalue multiplicity is at most |S| when G_{S->boundary} is
    layerable."""
    G = N.graph
    if not is_layerable(interiorize(G, set(S) - set(G.boundary))):
        raise ValueError("G_{S->boundary} is not layerable")
    return eigen_multiplicity(N, lam) <= len(S)
