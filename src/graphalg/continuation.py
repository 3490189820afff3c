"""Harmonic continuation along standard-form filtrations.

Boundary data of a harmonic function u on a stage with boundary labels
l_1, ..., l_m is the column (u(l_1), ..., u(l_m), Lu(l_1), ..., Lu(l_m)).
The isolated stage acts on boundary data by the offset shear
Lu = d u, and each layerable extension by an elementary symplectic
move that changes at most two entries: a spike at one label or a
boundary edge between two labels.  A plan reads these moves off the
strip's own ``LayerOp``s.  A :class:`BoundaryTransform` stores
the move, not its 2m x 2m matrix; applying the moves in turn continues
u across the whole filtration.  Every route runs the moves through one
runner, in place on Python ints: over Z/n on residues, over Q on
numerators over one common denominator D.  An extension costs O(1) int
operations, plus an O(m) rescale of the vector and D when a coefficient
is not an integer (never on integral networks with spike weights
+-1).  Values are lifted back to Fraction or Mod once, at the end.
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
from fractions import Fraction
from math import lcm

from .exact_algebra import (
    ExactMatrix,
    Mod,
    _inverse,
    _residue,
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
        return _push((self,), self.m, [data], {1: range(len(data))})[0]

    @property
    def matrix(self):
        """The 2m x 2m matrix of the move (columns: images of e_k)."""
        return _matrix_of((self,), self.m, 2 * self.m, range(2 * self.m))


def _matrix_of(transforms, m, count, rows):
    """The matrix whose k-th column, for k < ``count``, is the entries
    ``rows`` of the unit vector e_k of length 2m moved through
    ``transforms``."""
    size = 2 * m
    units = [[int(i == k) for i in range(size)] for k in range(count)]
    columns = _push(transforms, m, units, {len(transforms): rows})
    return ExactMatrix([[c[i] for c in columns] for i in range(len(rows))])


# the kinds of lowered move, and the types of the values they run on
_INITIAL, _SPIKE, _EDGE = range(3)
_RING_TYPES = frozenset({int, Fraction, Mod})


def _push(transforms, m, columns, picks):
    """Move each column of boundary data through ``transforms`` and
    return, per column, the entries that ``picks`` names: ``picks[k]``
    lists the rows read after the first k moves.

    The moves run in place on Python ints.  Over Z/n (some entry is a
    Mod) the entries and coefficients are residues.  Over Q the entries
    are numerators over one denominator D, and a coefficient with
    denominator q > 1 first scales the vector and D by q.  The values
    are lifted back once: to Mods over Z/n; over Q to Fractions, or to
    ints when Fraction arithmetic would make no picked entry a
    Fraction."""
    n, D, vectors, fractions = _lower_data(columns)
    moves, typed = _lower_moves(transforms, n)
    first = picks.get(0, ())
    after = [picks.get(step) for step in range(1, len(moves) + 1)]
    picked = [_run(moves, m, v, n, D, first, after) for v in vectors]
    if n:
        return [[Mod(x, n) for x, _ in col] for col in picked]
    if (typed or fractions) and any(
        _fraction_picked(transforms, m, col, picks) for col in columns
    ):
        return [[Fraction(x, d) for x, d in col] for col in picked]
    return [[x // d for x, d in col] for col in picked]


def _lower_data(columns):
    """``(n, D, vectors, fractions)``: the columns as int vectors over
    one ring, and whether an entry is other than an int.  Over Z/n (n
    the modulus of the Mod entries) they are residues and D = 1; over Q
    (n None) they are numerators over D, the lcm of every
    denominator."""
    entries = [x for col in columns for x in col]
    types = set(map(type, entries))
    if types <= {int}:
        return None, 1, [list(col) for col in columns], False
    for t in types - _RING_TYPES:
        if not issubclass(t, (int, Fraction, Mod)):
            bad = next(x for x in entries if type(x) is t)
            raise TypeError(f"not an exact scalar: {bad!r}")
    moduli = {x.modulus for x in entries if isinstance(x, Mod)}
    if len(moduli) > 1:
        raise ValueError("modulus mismatch")
    if moduli:
        n = moduli.pop()
        return n, 1, [
            [x.value if isinstance(x, Mod)
             else _residue(x.numerator, x.denominator, n) % n for x in col]
            for col in columns
        ], True
    D = lcm(*(x.denominator for x in entries))
    return None, D, [
        [x.numerator * (D // x.denominator) for x in col] for col in columns
    ], True


def _lower_moves(transforms, n):
    """``(moves, typed)``: the moves with int coefficients, and whether
    any coefficient is a Fraction.  A coefficient is a pair (p, q): over
    Q its numerator and denominator, over Z/n (n not None) its residue
    and 1.  The initial move's offsets share the lcm L of their
    denominators, as p L / q."""
    moves = []
    typed = False
    for T in transforms:
        move = T.kind
        if move[0] == "spike":
            _, j, w, d = move
            p, q = w.denominator, w.numerator  # 1/w
            if q < 0:
                p, q = -p, -q
            p2, q2 = d.numerator, d.denominator
            typed = (typed or q != 1 or type(w) is not int
                     or type(d) is not int)
            if n:
                p, q = _residue(p, q, n) % n, 1
                p2, q2 = _residue(p2, q2, n) % n, 1
            moves.append((_SPIKE, j - 1, p, q, p2, q2))
        elif move[0] == "edge":
            _, i, j, w = move
            p, q = w.numerator, w.denominator
            typed = typed or type(w) is not int
            if n:
                p, q = _residue(p, q, n) % n, 1
            moves.append((_EDGE, i - 1, j - 1, p, q))
        else:
            ds = move[1]
            typed = typed or any(type(d) is not int for d in ds)
            terms = [(i, d.numerator, d.denominator)
                     for i, d in enumerate(ds) if d]
            if n:
                terms = [(i, _residue(p, q, n) % n, 1) for i, p, q in terms]
            L = lcm(*(q for _, _, q in terms))
            terms = [(i, p * (L // q)) for i, p, q in terms]
            moves.append((_INITIAL, L, terms))
    return moves, typed


def _run(moves, m, v, n, D, first, after):
    """Run the lowered moves on the int vector ``v`` in place, over Z/n
    (n not None) or over Q with common denominator ``D``.  Returns as
    (numerator, denominator) pairs the entries at rows ``first`` before
    any move, then those at rows ``after[k]`` (if any) after move k."""
    out = [(v[r], D) for r in first]
    for move, rows in zip(moves, after):
        kind = move[0]
        if kind == _SPIKE:
            _, k, p, q, p2, q2 = move
            y = m + k
            x = v[y]
            if q != 1:
                v[:] = [q * e for e in v]
                D *= q
            x = v[k] + p * x
            v[k] = x = x % n if n else x
            if q2 != 1:
                v[:] = [q2 * e for e in v]
                D *= q2
            x = v[y] + p2 * x
            v[y] = x % n if n else x
        elif kind == _EDGE:
            _, a, b, p, q = move
            f = p * (v[a] - v[b])
            if q != 1:
                v[:] = [q * e for e in v]
                D *= q
            a, b = m + a, m + b
            if n:
                v[a] = (v[a] + f) % n
                v[b] = (v[b] - f) % n
            else:
                v[a] += f
                v[b] -= f
        else:
            _, L, terms = move
            if L != 1:
                xs = v[:m]
                v[:] = [L * e for e in v]
                D *= L
            else:
                xs = v
            for i, c in terms:
                x = v[m + i] + c * xs[i]
                v[m + i] = x % n if n else x
        if rows:
            for r in rows:
                out.append((v[r], D))
    return out


def _fraction_picked(transforms, m, data, picks):
    """Whether Fraction arithmetic on ``data`` would make a picked entry
    a Fraction: an entry that a move writes becomes one when an operand
    or a coefficient of the move is one."""
    flags = [isinstance(x, Fraction) for x in data]
    if any(flags[r] for r in picks.get(0, ())):
        return True
    for step, T in enumerate(transforms, 1):
        move = T.kind
        if move[0] == "spike":
            _, j, w, d = move
            k, y = j - 1, m + j - 1
            inverse = _inverse(w)
            flags[k] = flags[k] or flags[y] or isinstance(inverse, Fraction)
            flags[y] = flags[y] or flags[k] or isinstance(d, Fraction)
        elif move[0] == "edge":
            _, i, j, w = move
            f = flags[i - 1] or flags[j - 1] or isinstance(w, Fraction)
            flags[m + i - 1] = flags[m + i - 1] or f
            flags[m + j - 1] = flags[m + j - 1] or f
        else:
            for i, d in enumerate(move[1]):
                f = flags[i] or isinstance(d, Fraction)
                flags[m + i] = flags[m + i] or f
        if any(flags[r] for r in picks.get(step, ())):
            return True
    return False


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
        picks = {len(self.transforms): range(len(data))}
        return _push(self.transforms, self.m, [data], picks)[0]

    def total_matrix(self):
        return _matrix_of(self.transforms, self.m, 2 * self.m,
                          range(2 * self.m))


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
    # the initial labels keep phi; each recorded vertex takes x_j as it
    # first appears
    vertices = list(plan.initial_labels)
    picks = {0: range(m)}
    for step, record in enumerate(plan.records, 1):
        if record is not None:
            vertex, j = record
            vertices.append(vertex)
            picks[step] = (j - 1,)
    [values] = _push(plan.transforms, m, [list(phi) + [0] * m], picks)
    u = VertexFunction(zip(vertices, values))
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
    return _matrix_of(plan.transforms, m, len(S), range(m, 2 * m))


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
