"""Dense matrices over the rational numbers with exact arithmetic.

Everything that feeds a rational decision elsewhere in the package
(definiteness oracles, kernels, matrix identities, check-coxeter's parsed
input) goes through this module, so there is no floating point anywhere
below.  Entries are kept in their plain exact form, an int when integral
and a Fraction otherwise, so integral matrices multiply in int arithmetic.
One dense Gauss-Jordan loop gives rref, and through it rank, kernels and
inverses, its rows and pivots, and det the signed product of its pivots.
A RatMatrix is one of the linear maps cyclo walks; the spectral commands
on a quiver or a weight sequence hand cyclo K0Arithmetic's Coxeter map
instead, and never load this module.  The sparse echelon and the plain
form live in echelon.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .echelon import Vector, plain


class RatMatrix:
    """Immutable rectangular matrix with exact rational entries.

    Each entry is stored in its plain form: an int when integral, a
    Fraction only where a denominator appears.  Python keeps int products
    and sums in ints, so integral matrices stay integral without a separate
    code path.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(map(plain, row)) for row in rows)
        if data:
            width = len(data[0])
            for row in data:
                if len(row) != width:
                    raise ValueError("ragged rows in matrix")
        self._rows = data

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[0] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> Vector:
        return self._rows[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self._rows)

    def entries(self) -> tuple[Vector, ...]:
        return self._rows

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._rows)
        return f"RatMatrix([{body}])"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([-x for x in row] for row in self._rows)

    def scale(self, c) -> "RatMatrix":
        c = plain(c)
        return RatMatrix([c * x for x in row] for row in self._rows)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        ocols = other.cols
        out = []
        for row in self._rows:
            acc = [0] * ocols
            for k, coeff in enumerate(row):
                if coeff:
                    orow = other._rows[k]
                    for j in range(ocols):
                        if orow[j]:
                            acc[j] += coeff * orow[j]
            out.append(acc)
        return RatMatrix(out)

    def apply(self, vec: Sequence) -> Vector:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        support = [(k, plain(v)) for k, v in enumerate(vec) if v]
        return tuple(plain(sum([row[k] * v for k, v in support])) for row in self._rows)

    def __pow__(self, exponent: int) -> "RatMatrix":
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not exponent:
            return RatMatrix.identity(self.rows)
        base = self
        while not exponent & 1:
            base, exponent = base * base, exponent >> 1
        result = base  # the power at the lowest set bit, no product by the identity
        while exponent > 1:
            base, exponent = base * base, exponent >> 1
            if exponent & 1:
                result = result * base
        return result

    @property
    def T(self) -> "RatMatrix":
        return RatMatrix(zip(*self._rows)) if self._rows else RatMatrix([])

    def trace(self) -> int | Fraction:
        if not self.is_square:
            raise ValueError("trace requires a square matrix")
        return plain(sum(self._rows[i][i] for i in range(self.rows)))

    def is_zero(self) -> bool:
        return all(not x for row in self._rows for x in row)

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        return all(
            self._rows[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def _gauss_jordan(self) -> tuple[list[list], list[int], int | Fraction]:
        """The rows of the reduced row echelon form, its pivot columns, and
        the product of the pivots as met, before their rows are scaled,
        negated once per row swap."""
        work = [list(row) for row in self._rows]
        nrows, ncols = self.rows, self.cols
        pivots = []
        product = 1
        r = 0
        for col in range(ncols):
            if r == nrows:
                break
            pivot = next((i for i in range(r, nrows) if work[i][col]), None)
            if pivot is None:
                continue
            if pivot != r:
                work[r], work[pivot] = work[pivot], work[r]
                product = -product
            prow = work[r]
            product *= prow[col]
            # rows from r on vanish left of col, so the update touches only
            # the pivot row's nonzero columns from col on
            support = [k for k in range(col, ncols) if prow[k]]
            inv = Fraction(1) / prow[col]
            if inv != 1:
                for k in support:
                    prow[k] = plain(prow[k] * inv)
            for i in range(nrows):
                row = work[i]
                f = row[col]
                if f and i != r:
                    for k in support:
                        row[k] -= f * prow[k]
            pivots.append(col)
            r += 1
        return work, pivots, product

    def det(self) -> int | Fraction:
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        _, pivots, product = self._gauss_jordan()
        return plain(product) if len(pivots) == self.rows else 0

    def rref(self) -> tuple["RatMatrix", tuple[int, ...]]:
        work, pivots, _ = self._gauss_jordan()
        return RatMatrix(work), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[Vector]:
        """Basis of the right null space, one vector per free column."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            vec = [0] * self.cols
            vec[f] = 1
            for r, p in enumerate(pivots):
                vec[p] = -reduced[r, f]
            basis.append(tuple(vec))
        return basis

    def inverse(self) -> "RatMatrix":
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        reduced, pivots = self.hstack(RatMatrix.identity(n)).rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return RatMatrix(row[n:] for row in reduced.entries())

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return RatMatrix([list(a) + list(b) for a, b in zip(self._rows, other._rows)])

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
