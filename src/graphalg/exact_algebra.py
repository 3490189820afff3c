"""Exact linear algebra over Z, Q, and Z/n.

Everything here is pure integer/rational arithmetic (``int`` and
``fractions.Fraction``); no floating point is used anywhere.  The main
entry points are Smith normal form (:func:`snf`), cokernel and kernel
decompositions of integer matrices, exact rank, and characteristic
polynomials.

Finitely generated abelian groups are described by
:class:`ModuleDecomposition`: a free rank plus a divisibility chain of
invariant factors, e.g. ``Z^2 + Z/3 + Z/15``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class Mod:
    """A residue in Z/n, stored in canonical range [0, n)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if isinstance(value, Fraction):
            value = value.numerator * pow(value.denominator, -1, modulus)
        self.value = value % modulus
        self.modulus = modulus

    def _coerce(self, other):
        if isinstance(other, Mod):
            if other.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return other.value
        if isinstance(other, int):
            return other
        if isinstance(other, Fraction):
            if other.denominator == 1:
                return other.numerator
            return other.numerator * pow(other.denominator, -1, self.modulus)
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


class ExactMatrix:
    """Immutable dense matrix with int or Fraction entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        grid = []
        has_fraction = False
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for x in row:
                if not _is_exact_scalar(x):
                    raise TypeError(f"not an exact scalar: {x!r}")
                if isinstance(x, Fraction):
                    has_fraction = True
            grid.append(tuple(row))
        if has_fraction:
            grid = [tuple(Fraction(x) for x in row) for row in grid]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(grid))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def zeros(rows, cols):
        return ExactMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n):
        return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries, rows=None, cols=None):
        n = len(entries)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        grid = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(entries):
            grid[i][i] = d
        return ExactMatrix(grid)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
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

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self):
        return ExactMatrix([[-x for x in row] for row in self.data])

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
        if _is_exact_scalar(other):
            return ExactMatrix([[x * other for x in row] for row in self.data])
        return NotImplemented

    def __rmul__(self, other):
        if _is_exact_scalar(other):
            return ExactMatrix([[other * x for x in row] for row in self.data])
        return NotImplemented

    def scale(self, c):
        return ExactMatrix([[x * c for x in row] for row in self.data])

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

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [list(self.data[i]) + list(other.data[i]) for i in range(self.rows)]
        )

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("shape mismatch")
        return ExactMatrix([list(r) for r in self.data] + [list(r) for r in other.data])

    def submatrix(self, row_indices, col_indices):
        return ExactMatrix(
            [[self.data[i][j] for j in col_indices] for i in row_indices]
        )


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
    def from_cyclic_orders(orders, free_rank=0):
        """Normalize a direct sum of cyclic groups Z/o (o = 0 meaning Z)
        into invariant-factor chain form."""
        finite = []
        for o in orders:
            o = abs(int(o))
            if o == 0:
                free_rank += 1
            elif o > 1:
                finite.append(o)
        # Collect prime powers, then rebuild the chain from the largest
        # power of each prime downwards.
        powers = {}
        for o in finite:
            n, p = o, 2
            while p * p <= n:
                if n % p == 0:
                    k = 0
                    while n % p == 0:
                        n //= p
                        k += 1
                    powers.setdefault(p, []).append(p**k)
                p += 1
            if n > 1:
                # leftover prime factor (appears to the first power)
                powers.setdefault(n, []).append(n)
        for lst in powers.values():
            lst.sort(reverse=True)
        depth = max((len(v) for v in powers.values()), default=0)
        chain = []
        for i in range(depth):
            f = 1
            for lst in powers.values():
                if i < len(lst):
                    f *= lst[i]
            chain.append(f)
        chain.reverse()
        return ModuleDecomposition(free_rank, tuple(chain))

    @property
    def torsion_order(self):
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

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
    """Smith normal form of an integer matrix.

    Returns :class:`SnfResult` with U*A*V = S exactly.  Pivoting picks
    the minimal-absolute-value nonzero entry of the working submatrix to
    keep intermediate entries small.
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


def cokernel(A):
    """Decomposition of Z^rows / (column space of A)."""
    result = snf(A)
    factors = [d for d in result.diagonal if d > 1]
    return ModuleDecomposition(A.rows - result.rank, tuple(factors))


def kernel_mod_n(A, n):
    """Decomposition of {x in (Z/n)^cols : A x = 0 mod n}."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    result = snf(A)
    orders = []
    diag = result.diagonal
    for j in range(A.cols):
        d = diag[j] if j < len(diag) else 0
        orders.append(n if d == 0 else gcd(int(d), n))
    return ModuleDecomposition.from_cyclic_orders(orders)


class DivisibleKernelError(ValueError):
    """Raised when ker(A) on (Q/Z)^cols has a divisible (non-finite) part."""


def kernel_QmodZ_torsion(A):
    """The finite group ker(A acting on (Q/Z)^cols).

    Requires A to have full column rank over Q; otherwise the kernel has
    a divisible part and this raises :class:`DivisibleKernelError`.
    """
    return kernel_QmodZ_from_snf(snf(A), A.cols)


def kernel_QmodZ_from_snf(result, cols):
    """``kernel_QmodZ_torsion`` of a matrix with ``cols`` columns, read
    off its Smith form ``result``."""
    if result.rank < cols:
        raise DivisibleKernelError("divisible kernel part present")
    return ModuleDecomposition.from_cyclic_orders(
        int(d) for d in result.diagonal if d > 1
    )


def rank_over_Q(A):
    """Exact rank via fraction-free (Bareiss-style) elimination."""
    if not isinstance(A, ExactMatrix):
        raise TypeError("expected ExactMatrix")
    # clear denominators row by row; rank is unchanged
    M = []
    for row in A.data:
        lcm = 1
        for x in row:
            if isinstance(x, Fraction):
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        M.append([int(x * lcm) for x in row])
    m, n = A.rows, A.cols
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        for i in range(row + 1, m):
            for j in range(col + 1, n):
                M[i][j] = (M[row][col] * M[i][j] - M[i][col] * M[row][j]) // prev
            M[i][col] = 0
        prev = M[row][col]
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def determinant(A):
    """Exact determinant of a square integer/rational matrix (Bareiss)."""
    if A.rows != A.cols:
        raise ValueError("square matrix required")
    n = A.rows
    if n == 0:
        return 1
    M = [[Fraction(x) for x in row] for row in A.data]
    sign = 1
    prev = Fraction(1)
    for col in range(n - 1):
        piv = next((i for i in range(col, n) if M[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                M[i][j] = (M[col][col] * M[i][j] - M[i][col] * M[col][j]) / prev
            M[i][col] = Fraction(0)
        prev = M[col][col]
    det = sign * M[n - 1][n - 1]
    if det.denominator == 1:
        return int(det)
    return det


def charpoly(A):
    """Coefficients of det(zI - A), highest degree first, for an integer
    square matrix.  Computed by evaluating the fraction-free determinant
    at dim+1 integer points and interpolating."""
    if A.rows != A.cols:
        raise ValueError("square matrix required")
    M = _require_integer(A)
    n = A.rows
    if n == 0:
        return [1]
    points = list(range(n + 1))
    values = []
    for z in points:
        B = ExactMatrix(
            [
                [(z if i == j else 0) - M[i][j] for j in range(n)]
                for i in range(n)
            ]
        )
        values.append(determinant(B))
    # Lagrange interpolation; the result is monic with integer coefficients.
    coeffs = [Fraction(0)] * (n + 1)
    for k, zk in enumerate(points):
        # basis polynomial prod_{j != k} (z - zj) / (zk - zj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, zj in enumerate(points):
            if j == k:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] += c * (-zj)
                nxt[d + 1] += c
            basis = nxt
            denom *= zk - zj
        scale = Fraction(values[k]) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    out = []
    for c in reversed(coeffs):
        if c.denominator != 1:
            raise ArithmeticError("interpolation produced non-integer coefficient")
        out.append(int(c))
    return out


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
