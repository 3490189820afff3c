"""Exact linear algebra over Z, Q, and Z/n.

Everything here is pure integer/rational arithmetic (``int`` and
``fractions.Fraction``); no floating point is used anywhere.  The main
entry points are the Smith normal form diagonal (:func:`smith_diagonal`:
a sparse elimination on pivots that divide their whole row and column,
+-1 ones first, whose entries stay minors of the input over a nonzero
integer, then the dense remnant modulo a nonzero minor, so that entries
stay bounded), cokernel and kernel decompositions of integer matrices
(also read off a known diagonal by the ``*_from_snf`` helpers), exact
rank and determinant (one integer Bareiss elimination), and
characteristic polynomials (Hessenberg reduction modulo fixed primes
below 2**62, combined by the Chinese remainder theorem up to a bound on
the coefficients).
:func:`snf` adds the unimodular transforms U and V as a certificate
for small inputs.

Finitely generated abelian groups are described by
:class:`ModuleDecomposition`: a free rank plus a divisibility chain of
invariant factors, e.g. ``Z^2 + Z/3 + Z/15``.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd


def _residue(p, q, n):
    """The int standing for p/q in Z/n, not reduced; ``pow`` raises
    ValueError when q is not prime to n.  The one rule by which Mod
    arithmetic and the continuation moves map Q into Z/n."""
    return p if q == 1 else p * pow(q, -1, n)


class Mod:
    """A residue in Z/n, stored in canonical range [0, n)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus
        if type(value) is not int:
            value = self._coerce(value)
        self.value = value % modulus

    def _coerce(self, other):
        if isinstance(other, Mod):
            if other.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return other.value
        if isinstance(other, (int, Fraction)):
            return _residue(other.numerator, other.denominator, self.modulus)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Mod(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Mod(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Mod(v - self.value, self.modulus)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Mod(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return Mod(-self.value, self.modulus)

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"Mod({self.value}, {self.modulus})"

    def __bool__(self):
        return self.value != 0


def _is_exact_scalar(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


# The exact types themselves: a value whose type is one of them is an
# exact scalar, so a bulk check of types needs no per-value call.
_EXACT_TYPES = frozenset({int, Fraction})


def _is_unit(w):
    """True iff the exact scalar ``w`` is a unit of its ring: over Q
    every non-integral value is, over Z only +1 and -1."""
    return w.denominator != 1 or w in (1, -1)


def _inverse(w):
    """The inverse of a nonzero exact scalar: +1 and -1 are their own,
    any other value's is a Fraction."""
    return w if w in (1, -1) else 1 / Fraction(w)


class ExactMatrix:
    """Immutable dense matrix with int or Fraction entries (kept as
    given: a row may mix the two)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        grid = []
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for x in row:
                if not _is_exact_scalar(x):
                    raise TypeError(f"not an exact scalar: {x!r}")
            grid.append(tuple(row))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(grid))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and (
            (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.data]})"

    def is_integer(self):
        return all(
            isinstance(x, int) or x.denominator == 1 for row in self.data for x in row
        )

    def to_integer(self):
        if not self.is_integer():
            raise ValueError("matrix has non-integer entries")
        return ExactMatrix([[int(x) for x in row] for row in self.data])

    def transpose(self):
        return ExactMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            return ExactMatrix(
                [
                    [
                        sum(
                            self.data[i][k] * other.data[k][j]
                            for k in range(self.cols)
                        )
                        for j in range(other.cols)
                    ]
                    for i in range(self.rows)
                ]
            )
        return NotImplemented

    def apply(self, vector):
        """Matrix-vector product; vector entries may live in any module
        on which int/Fraction multiplication acts (int, Fraction, Mod)."""
        if len(vector) != self.cols:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            acc = None
            for j in range(self.cols):
                term = self.data[i][j] * vector[j]
                acc = term if acc is None else acc + term
            out.append(acc if acc is not None else 0)
        return out


@dataclass(frozen=True)
class ModuleDecomposition:
    """Z^free_rank + Z/f1 + ... + Z/fk with f_i | f_{i+1}, all f_i > 1."""

    free_rank: int
    invariant_factors: tuple

    def __post_init__(self):
        factors = tuple(int(f) for f in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for f in factors:
            if f <= 1:
                raise ValueError("invariant factors must exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("divisibility chain violated")

    @staticmethod
    def from_cyclic_orders(orders):
        """Normalize a direct sum of cyclic groups Z/o (o = 0 meaning Z)
        into invariant-factor chain form."""
        orders = [abs(int(o)) for o in orders]
        finite = [o for o in orders if o]
        return ModuleDecomposition(
            len(orders) - len(finite), tuple(_invariant_chain(finite))
        )

    @property
    def torsion_order(self):
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SnfResult:
    """U*A*V = S with U, V unimodular and S = diag(d1,...,dr,0,...)."""

    U: ExactMatrix
    S: ExactMatrix
    V: ExactMatrix
    rank: int

    @property
    def diagonal(self):
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S[i, i] for i in range(n))


def _require_integer(A):
    if not isinstance(A, ExactMatrix):
        raise TypeError("expected ExactMatrix")
    if not A.is_integer():
        raise ValueError("integer matrix required")
    return [[int(x) for x in row] for row in A.data]


def snf(A):
    """Smith normal form of an integer matrix with its certificate.

    Returns :class:`SnfResult` with U*A*V = S exactly.  This is the
    certificate and test oracle for small inputs: its working entries
    are not bounded and can grow exponentially.  Production code routes
    through ``_smith_rows`` (:func:`smith_diagonal` for a matrix), which
    returns the same diagonal and rank without U and V.
    """
    M = _require_integer(A)
    m, n = A.rows, A.cols
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        Mr, Ms = M[dst], M[src]
        for k in range(n):
            Mr[k] += q * Ms[k]
        Ur, Us = U[dst], U[src]
        for k in range(m):
            Ur[k] += q * Us[k]

    def add_col(src, dst, q):
        for row in M:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        # locate minimal-absolute-value nonzero entry in M[t:, t:]
        best = None
        for i in range(t, m):
            Mi = M[i]
            for j in range(t, n):
                v = Mi[j]
                if v != 0 and (best is None or abs(v) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            pivot = M[t][t]
            dirty = False
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    q = M[i][t] // pivot
                    add_row(t, i, -q)
                    if M[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
                        pivot = M[t][t]
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    q = M[t][j] // pivot
                    add_col(t, j, -q)
                    if M[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        pivot = M[t][t]
            if not dirty:
                # row and column are clear; enforce divisibility
                ok = True
                for i in range(t + 1, m):
                    Mi = M[i]
                    for j in range(t + 1, n):
                        if Mi[j] % pivot != 0:
                            add_row(i, t, 1)
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    break
        if M[t][t] < 0:
            for k in range(n):
                M[t][k] = -M[t][k]
            for k in range(m):
                U[t][k] = -U[t][k]
        t += 1

    rank = sum(1 for i in range(limit) if M[i][i] != 0)
    return SnfResult(ExactMatrix(U), ExactMatrix(M), ExactMatrix(V), rank)


def _invariant_chain(orders):
    """Invariant factors (each > 1 and dividing the next) of the direct
    sum of Z/o over the positive integers ``orders``.

    Replaces pairs by (gcd, lcm), which keeps the group since
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); no factoring is needed.
    """
    fs = sorted(o for o in orders if o > 1)
    for i in range(len(fs)):
        a = fs[i]
        for j in range(i + 1, len(fs)):
            b = fs[j]
            if b % a:
                g = gcd(a, b)
                fs[j] = a // g * b
                a = g
        fs[i] = a
    return [f for f in fs if f > 1]


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _bareiss(rows):
    """Fraction-free elimination of a list of int rows (consumed).

    Returns ``(rank, sign, pivot)``: the rank r, the sign of the row
    permutation used, and the last pivot, which is the determinant of
    a nonsingular r x r minor of the row-permuted matrix (1 when r = 0).
    Every working entry is such a minor, so entries stay bounded by
    Hadamard's bound.
    """
    rank, sign, prev = 0, 1, 1
    while rows and rows[0]:
        k = next((i for i, r in enumerate(rows) if r[0]), None)
        if k is None:
            rows = [r[1:] for r in rows]
            continue
        if k:
            rows[0], rows[k] = rows[k], rows[0]
            sign = -sign
        top = rows[0]
        p = top[0]
        top = top[1:]
        rest = []
        for r in rows[1:]:
            a = r[0]
            if a:
                rest.append(
                    [(p * x - a * y) // prev for x, y in zip(r[1:], top)]
                )
            elif p == prev:
                rest.append(r[1:])
            else:
                rest.append([p * x // prev for x in r[1:]])
        rows = rest
        prev = p
        rank += 1
    return rank, sign, prev


def _integer_rows(data):
    """Int/Fraction rows as int lists, each cleared of denominators by
    the lcm of its own, and the product of those row multipliers."""
    rows, scale = [], 1
    for row in data:
        den = 1
        for x in row:
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return rows, scale


def smith_diagonal(A):
    """Smith normal form diagonal and rank of an integer matrix:
    ``(diagonal, rank)`` with ``diagonal = (d1, ..., dr, 0, ...)`` of
    length min(rows, cols) and d1 | d2 | ... | dr.

    This is the production Smith route, in two phases on the rows held
    as sparse ``{column: int}`` dicts.

    The pivot phase (:func:`_sparse_pivots`) eliminates on entries p
    that divide every entry of their row and of their column: +-1
    entries first, then larger ones.  Row operations with the integer
    multipliers r[c] / p clear p's column, and column operations (which
    touch only p's row, now alone in the column) would clear its row,
    so each step is a unimodular equivalence A ~ p + S with S the rows
    and columns left.  The Smith form of A is therefore the gcd/lcm
    chain (:func:`_invariant_chain`) of the pivots' absolute values and
    the remnant's invariants, padded with 1s; the rank is the number of
    pivots plus the remnant's.

    Entries stay bounded because the phase is plain Gaussian
    elimination: after pivots p1, ..., pk in rows I and columns J, the
    entry in row i and column j is the Schur complement entry
    det A[I+i, J+j] / det A[I, J], and det A[I, J] = +-p1 ... pk, a
    nonzero integer.  So every working entry is at most a (k+1) x (k+1)
    minor of A in absolute value, within Hadamard's bound.

    The dense remnant then goes to :func:`_smith_mod_D`.  Only the
    diagonal is computed; :func:`snf` gives U and V.
    """
    rows = [{j: x for j, x in enumerate(r) if x} for r in _require_integer(A)]
    return _smith_rows(rows, A.cols)


def _smith_rows(rows, cols):
    """:func:`smith_diagonal` of the matrix with ``cols`` columns whose
    rows are the sparse int dicts ``rows`` (consumed)."""
    size = min(len(rows), cols)
    pivots, remnant = _sparse_pivots(rows)
    invariants = _smith_mod_D(remnant)
    rank = len(pivots) + len(invariants)
    chain = _invariant_chain(pivots + list(invariants))
    diagonal = (1,) * (rank - len(chain)) + tuple(chain)
    return diagonal + (0,) * (size - rank), rank


def _sparse_pivots(rows):
    """Eliminate, in the sparse int rows ``rows`` (changed in place), on
    pivots that divide every entry of their row and of their column.
    Returns the pivots' absolute values and the rows left as a dense
    remnant: its nonzero rows, over the columns still in use.

    An entry p qualifies when |p| is the gcd of its row and the gcd of
    its column, so every +-1 entry does.  A heap orders the candidates
    by |p|, then by Markowitz cost (row count - 1)(column count - 1),
    so +-1 pivots come first and larger ones only once none is left.
    Costs are checked when an entry is popped, and a stale one goes
    back with its new cost.

    A scan enters each row once: by its first +-1 entry, or, in a row
    whose gcd g > 1, by its entry +-g in the shortest column whose gcd
    is g.  When a row's +-1 entry is first popped, all the row's +-1
    entries go on the heap with their current costs, and so does every
    +-1 that fill-in creates later.  No +-1 entry is missed, yet a dense
    block, whose rows all change at the first pivot, costs one heap
    entry per row rather than one per entry.  A larger pivot is checked
    afresh when popped; when the heap runs dry the scan runs again,
    until it finds nothing.
    """
    live = dict(enumerate(rows))
    where = defaultdict(set)  # column -> live rows with an entry there
    for i, r in live.items():
        for j in r:
            where[j].add(i)

    def column_gcd(j):
        g = colgcd.get(j)
        if g is None:
            g = colgcd[j] = gcd(*(live[t][j] for t in where[j]))
        return g

    push, pop = heapq.heappush, heapq.heappop
    spread = set()  # rows whose +-1 entries are all on the heap
    pivots = []
    while True:
        heap, colgcd = [], {}
        for i, r in live.items():
            g = gcd(*r.values())
            if g == 1:
                j = next((j for j, x in r.items() if x == 1 or x == -1), None)
                if j is not None:
                    heap.append((1, (len(r) - 1) * (len(where[j]) - 1), i, j))
                continue
            cols = [
                j
                for j, x in r.items()
                if (x == g or x == -g) and column_gcd(j) == g
            ]
            if cols:
                n, j = min(zip(map(len, map(where.__getitem__, cols)), cols))
                heap.append((g, (len(r) - 1) * (n - 1), i, j))
        if not heap:
            break
        heapq.heapify(heap)
        while heap:
            a, old, i, c = pop(heap)
            top = live.get(i)
            if top is None:
                continue
            if a == 1:
                if i not in spread:
                    spread.add(i)
                    n = len(top) - 1
                    for j, x in top.items():
                        if x == 1 or x == -1:
                            push(heap, (1, n * (len(where[j]) - 1), i, j))
                    continue
                if top.get(c) not in (1, -1):
                    continue
            elif not (
                abs(top.get(c, 0)) == a == gcd(*top.values())
                and all(live[t][c] % a == 0 for t in where[c])
            ):
                continue
            now = (len(top) - 1) * (len(where[c]) - 1)
            if now > old:
                push(heap, (a, now, i, c))
                continue
            del live[i]
            p = top.pop(c)
            for j in top:
                where[j].discard(i)
            below = where.pop(c)
            below.discard(i)
            for t in below:
                r = live[t]
                f = r.pop(c) // p  # exact: p divides its column
                for j, x in top.items():
                    v = r.get(j, 0) - f * x
                    if v:
                        r[j] = v
                        where[j].add(t)
                        if v == 1 or v == -1:
                            push(heap, (1, (len(r) - 1) * (len(where[j]) - 1), t, j))
                    else:
                        del r[j]
                        where[j].discard(t)
            pivots.append(a)
    rest = [r for r in live.values() if r]
    used = sorted(set().union(*rest))
    return pivots, [[r.get(j, 0) for j in used] for r in rest]


def _smith_mod_D(M):
    """The nonzero Smith invariants (d1, ..., dr) of the dense int rows
    ``M``, eliminated modulo a nonzero minor.

    D = |last Bareiss pivot| is a nonzero r x r minor, hence a multiple
    of d1 * ... * dr.  The columns of [M | D*I] span a lattice with
    invariants gcd(di, D) = di (and D for the rows past r), so
    elimination may reduce every entry to a symmetric residue mod D: no
    working entry ever exceeds D/2 in absolute value (Kannan-Bachem
    1979, Domich-Kannan-Trotter 1987).
    """
    rank, _, pivot = _bareiss([row[:] for row in M])
    D = abs(pivot)
    h = (D - 1) // 2
    lo, hi = -h, D - 1 - h

    def combine(a, x, b, y):
        # a*x + b*y for rows x, y, in symmetric residues (-D/2, D/2]
        return [
            v if lo <= (v := a * s + b * t) <= hi else (v + h) % D - h
            for s, t in zip(x, y)
        ]

    rows = [combine(1, row, 0, row) for row in M]
    diagonal = []
    while True:
        rows = [r for r in rows if any(r)]
        if not rows:
            break
        # pivot of least absolute value; a unit cannot be beaten
        unit = next(
            ((i, r.index(u)) for i, r in enumerate(rows) for u in (1, -1) if u in r),
            None,
        )
        if unit is None:
            _, i, j = min(
                (abs(x), i, j)
                for i, r in enumerate(rows)
                for j, x in enumerate(r)
                if x
            )
        else:
            i, j = unit
        rows[0], rows[i] = rows[i], rows[0]
        if j:
            for r in rows:
                r[0], r[j] = r[j], r[0]
        p = rows[0][0]
        while True:
            # clear column 0 by row operations
            top = rows[0]
            for i in range(1, len(rows)):
                r = rows[i]
                a = r[0]
                if not a:
                    continue
                if a % p == 0:
                    rows[i] = combine(1, r, -(a // p), top)
                    continue
                g, s, t = _xgcd(p, a)
                rows[i] = combine(a // g, top, -(p // g), r)
                rows[0] = top = combine(s, top, t, r)
                p = g
            # row 0 needs column operations only where p does not
            # divide; each one shrinks p to a proper divisor
            clean = True
            for j in range(1, len(top)):
                b = rows[0][j]
                if b % p == 0:
                    continue
                clean = False
                g, s, t = _xgcd(p, b)
                b, p = b // g, p // g
                for r in rows:
                    x, y = r[0], r[j]
                    v = s * x + t * y
                    r[0] = v if lo <= v <= hi else (v + h) % D - h
                    v = b * x - p * y
                    r[j] = v if lo <= v <= hi else (v + h) % D - h
                p = g
            if clean:
                break
        diagonal.append(p)
        rows = [r[1:] for r in rows[1:]]
    # invariants of [M | D*I]: the chain of the pivots' gcds with D,
    # then D once for every row left without a pivot
    chain = _invariant_chain(gcd(p, D) for p in diagonal)
    full = [1] * (len(diagonal) - len(chain)) + chain
    full += [D] * (len(M) - len(diagonal))
    return tuple(full[:rank])


def cokernel(A):
    """Decomposition of Z^rows / (column space of A)."""
    return cokernel_from_snf(*smith_diagonal(A), A.rows)


def cokernel_from_snf(diagonal, rank, rows):
    """``cokernel`` of a matrix with ``rows`` rows, read off its Smith
    diagonal and rank."""
    return ModuleDecomposition(rows - rank, tuple(d for d in diagonal if d > 1))


def kernel_mod_n(A, n):
    """Decomposition of {x in (Z/n)^cols : A x = 0 mod n}."""
    return kernel_mod_n_from_snf(smith_diagonal(A)[0], A.cols, n)


def kernel_mod_n_from_snf(diagonal, cols, n):
    """``kernel_mod_n`` of a matrix with ``cols`` columns, read off its
    Smith diagonal."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    orders = []
    for j in range(cols):
        d = diagonal[j] if j < len(diagonal) else 0
        orders.append(n if d == 0 else gcd(d, n))
    return ModuleDecomposition.from_cyclic_orders(orders)


class DivisibleKernelError(ValueError):
    """Raised when ker(A) on (Q/Z)^cols has a divisible (non-finite) part."""


def kernel_QmodZ_torsion(A):
    """The finite group ker(A acting on (Q/Z)^cols).

    Requires A to have full column rank over Q; otherwise the kernel has
    a divisible part and this raises :class:`DivisibleKernelError`.
    """
    return kernel_QmodZ_from_snf(*smith_diagonal(A), A.cols)


def kernel_QmodZ_from_snf(diagonal, rank, cols):
    """``kernel_QmodZ_torsion`` of a matrix with ``cols`` columns, read
    off its Smith diagonal and rank."""
    if rank < cols:
        raise DivisibleKernelError("divisible kernel part present")
    return ModuleDecomposition.from_cyclic_orders(d for d in diagonal if d > 1)


def rank_over_Q(A):
    """Exact rank via fraction-free (Bareiss) elimination."""
    if not isinstance(A, ExactMatrix):
        raise TypeError("expected ExactMatrix")
    # clearing denominators row by row leaves the rank unchanged
    return _bareiss(_integer_rows(A.data)[0])[0]


def determinant(A):
    """Exact determinant of a square integer/rational matrix (Bareiss):
    an int when it is integral, a Fraction otherwise."""
    if A.rows != A.cols:
        raise ValueError("square matrix required")
    rows, scale = _integer_rows(A.data)
    rank, sign, pivot = _bareiss(rows)
    if rank < A.rows:
        return 0
    if scale == 1:
        return sign * pivot
    det = Fraction(sign * pivot, scale)
    return det.numerator if det.denominator == 1 else det


def _is_prime(n):
    """Miller-Rabin on the first twelve prime bases, which is exact for
    every n < 3.18 * 10**23 (Sorenson and Webster, Math. Comp. 86,
    2017), so for every n below 2**62."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _prime(i):
    """The i-th prime below 2**62, largest first."""
    p = _prime(i - 1) - 2 if i else (1 << 62) - 1
    while not _is_prime(p):
        p -= 2
    return p


def _charpoly_mod(M, p):
    """det(zI - M) mod p, lowest degree first, for int rows M.

    M is brought to upper Hessenberg form by similarity over Z/p: for
    each column m - 1, a row i >= m with a nonzero entry there is
    swapped to row m (with the matching column swap), then
    row i -= u row m and column m += u column i, for each i > m, clear
    the column below the subdiagonal.
    The polynomial then follows Hessenberg's recurrence (Cohen, A Course
    in Computational Algebraic Number Theory, 1993, Alg. 2.2.9) on the
    leading blocks.  Both phases take O(n^3) operations on residues.
    """
    n = len(M)
    H = [[a % p for a in row] for row in M]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for r in H:
                r[i], r[m] = r[m], r[i]
        # rows m and below are zero left of column m - 1
        pivot = H[m][m - 1 :]
        inv = pow(pivot[0], -1, p)
        ops = []
        for i in range(m + 1, n):
            row = H[i]
            if row[m - 1]:
                u = row[m - 1] * inv % p
                row[m - 1 :] = [
                    (a - u * b) % p for a, b in zip(row[m - 1 :], pivot)
                ]
                ops.append((i, u))
        # the row operations leave row m alone, so they commute
        for i, u in ops:
            for r in H:
                if r[i]:
                    r[m] = (r[m] + u * r[i]) % p
    # polys[k] = charpoly of the leading k x k block
    polys = [[1]]
    for m in range(n):
        q, h = polys[m], H[m][m]
        new = [a - h * b for a, b in zip([0] + q, q + [0])]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % p
            if not t:
                break
            c = t * H[i][m] % p
            if c:
                new[: i + 1] = [a - c * b for a, b in zip(new, polys[i])]
        polys.append([a % p for a in new])
    return polys[n]


def charpoly(A):
    """Coefficients of det(zI - A), highest degree first, for an integer
    square matrix.

    Every eigenvalue lies within R, the largest absolute row sum, so
    the coefficient of z^(n-k) is at most C(n, k) R^k and every
    coefficient at most B = (1 + R)^n in absolute value.  The
    polynomial is computed modulo the primes just below 2**62, largest
    first, by Hessenberg reduction (:func:`_charpoly_mod`), until their
    product exceeds 2B; the Chinese remainder theorem combines the
    residues and the symmetric lift gives the exact integers.  Nothing
    is random and nothing stops early, so the result is exact.
    """
    if A.rows != A.cols:
        raise ValueError("square matrix required")
    return _charpoly_rows(_require_integer(A))


def _charpoly_rows(M):
    """:func:`charpoly` of the square int rows ``M``, which it does not
    check; callers that hold int rows skip the ExactMatrix."""
    n = len(M)
    bound = 2 * (1 + max((sum(map(abs, r)) for r in M), default=0)) ** n
    coeffs, modulus, i = [0] * (n + 1), 1, 0
    while modulus <= bound:
        p = _prime(i)
        i += 1
        residues = _charpoly_mod(M, p)
        # x = c + modulus * ((r - c) / modulus mod p) agrees with both
        inv = pow(modulus, -1, p)
        coeffs = [
            c + modulus * ((r - c) * inv % p)
            for c, r in zip(coeffs, residues)
        ]
        modulus *= p
    half = modulus // 2
    return [c - modulus if c > half else c for c in reversed(coeffs)]


def poly_divides(p, q):
    """True if integer polynomial p divides q exactly (coefficients
    highest-degree first, over Q)."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    while p and p[0] == 0:
        p.pop(0)
    while q and q[0] == 0:
        q.pop(0)
    if not p:
        return not q
    if not q:
        return True
    if len(q) < len(p):
        return False
    rem = q[:]
    while len(rem) >= len(p):
        if rem[0] == 0:
            rem.pop(0)
            continue
        factor = rem[0] / p[0]
        for i in range(len(p)):
            rem[i] -= factor * p[i]
        rem.pop(0)
    return all(c == 0 for c in rem)
