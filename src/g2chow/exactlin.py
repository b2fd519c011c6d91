"""Exact linear algebra over the rationals.

Dense matrices of :class:`fractions.Fraction`, exact rank, reduced row
echelon forms, affine solves with kernel bases, Gram matrices and
semidefiniteness certificates.  There is no floating point anywhere in
this package, and identical inputs always produce identical outputs.

All elimination is one integer row step, ``_clear``, on rows scaled by
the lcm of their denominators: a target row with x in the pivot column
becomes ``p*row - x*pivot_row`` divided by the gcd of its entries.  The
step only multiplies integers and divides by a common divisor, so it is
exact.  Each row stays proportional to the same row of fraction-free
(Bareiss) elimination, whose entries are minors of the scaled input, so
no entry outgrows such a minor.  Two pivot rules drive the step:

* first nonzero entry per column, cleared in every other row
  (Gauss-Jordan), for ``rref``, ``rank``, ``kernel_basis`` and
  ``solve_affine``.  Dividing each pivot row by its pivot gives the unique
  reduced row echelon form; Fractions are built only for returned values,
  and kernel bases list free columns in ascending order;
* first nonzero diagonal entry, swapped in by rows and columns alike and
  cleared below, for ``negative_semidefinite_rank``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[Fraction, ...]


class InconsistentSystem(ValueError):
    """The right-hand side is not in the image of the matrix."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is the contract)."""
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed; use int, str or Fraction")
    return Fraction(value)


def format_rat(x: Fraction) -> str:
    """Render as ``p/q``, or just ``p`` when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    # intersection matrices and gamma/rho operators are mostly zeros
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


class RatMatrix:
    """Immutable dense matrix of rationals.

    Zero-row and zero-column matrices are allowed (they occur as operators
    in and out of empty stratum lattices); an empty row list needs an
    explicit ``ncols``.

    Tuples are built from lists, not generators: CPython starts a tuple
    built from a generator at length 10 and resizes it, which moves
    free-list entries from that size to the final one, and over many
    matrices those free lists hold megabytes.
    """

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Iterable[Iterable[int | str | Fraction]], ncols: int | None = None):
        data = tuple([tuple([rat(x) for x in row]) for row in rows])
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} disagrees with row width {width}")
        else:
            if ncols is None:
                raise ValueError("an empty matrix needs an explicit column count")
            width = ncols
        self._rows = data
        self._ncols = width

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMatrix":
        return cls([[Fraction(0)] * ncols for _ in range(nrows)], ncols=ncols)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def rows(self) -> tuple[Vec, ...]:
        return self._rows

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> Vec:
        return self._rows[i]

    def column(self, j: int) -> Vec:
        return tuple([row[j] for row in self._rows])

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self._rows[i][j] for i in range(self.nrows)] for j in range(self._ncols)],
            ncols=self.nrows,
        )

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self._ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self._ncols} @ {other.nrows}x{other.ncols}")
        return RatMatrix(
            [[dot(row, other.column(j)) for j in range(other.ncols)] for row in self._rows],
            ncols=other.ncols,
        )

    def matvec(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self._ncols:
            raise ValueError(f"vector length {len(v)} does not match {self._ncols} columns")
        return tuple([dot(row, v) for row in self._rows])

    def add(self, other: "RatMatrix") -> "RatMatrix":
        if (self.nrows, self._ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            ncols=self._ncols,
        )

    def scale(self, c: int | str | Fraction) -> "RatMatrix":
        f = rat(c)
        return RatMatrix([[f * x for x in row] for row in self._rows], ncols=self._ncols)

    def is_symmetric(self) -> bool:
        if self.nrows != self._ncols:
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self._ncols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    def first_nonzero(self) -> tuple[int, int, Fraction] | None:
        for i, row in enumerate(self._rows):
            for j, x in enumerate(row):
                if x != 0:
                    return (i, j, x)
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._ncols, self._rows))

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self._ncols})"


class AffineSolution(NamedTuple):
    particular: Vec
    kernel_basis: tuple[Vec, ...]


@dataclass(frozen=True)
class SemidefiniteReport:
    is_semidefinite: bool
    rank: int
    witness: str | None


def _int_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (a positive factor)."""
    out: list[list[int]] = []
    for row in rows:
        den = reduce(math.lcm, (x.denominator for x in row), 1)
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _clear(rows: list[list[int]], r: int, c: int, targets: Iterable[int]) -> None:
    """The elimination step: clear column c of the target rows with pivot row r.

    Rows with a zero in column c are left alone.
    """
    pivot = rows[r]
    p = pivot[c]
    for i in targets:
        x = rows[i][c]
        if x:
            row = [p * a - x * b for a, b in zip(rows[i], pivot)]
            g = math.gcd(*row)
            rows[i] = [a // g for a in row] if g > 1 else row


def _gauss_jordan(rows: list[list[int]]) -> list[int]:
    """Reduce integer rows in place and return the pivot columns.

    Row k ends with its pivot in column ``pivots[k]`` and zeros in the
    other pivot columns; divided by that pivot it is row k of the rref.
    """
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        _clear(rows, r, c, (i for i in range(len(rows)) if i != r))
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def _kernel(rows: list[list[int]], pivots: Sequence[int], ncols: int) -> tuple[Vec, ...]:
    """One kernel vector per free column (ascending), with a single 1 there."""
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return tuple(basis)


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form with first-nonzero pivoting.

    Returns the reduced matrix and the tuple of pivot columns.
    """
    rows = _int_rows(m.rows)
    pivots = _gauss_jordan(rows)
    reduced = [[Fraction(a, row[p]) for a in row] for row, p in zip(rows, pivots)]
    zero = [0] * m.ncols
    return RatMatrix(reduced + [zero] * (m.nrows - len(pivots)), ncols=m.ncols), tuple(pivots)


def kernel_basis(m: RatMatrix) -> tuple[Vec, ...]:
    """Deterministic basis of the right kernel.

    One vector per free column (ascending), each with a single 1 in its
    free position.
    """
    rows = _int_rows(m.rows)
    return _kernel(rows, _gauss_jordan(rows), m.ncols)


def solve_affine(m: RatMatrix, b: Sequence[int | str | Fraction]) -> AffineSolution:
    """Solve ``m @ x = b`` exactly.

    Returns one particular solution together with a kernel basis; raises
    :class:`InconsistentSystem` when ``b`` is not in the image.
    """
    rhs = [rat(x) for x in b]
    if len(rhs) != m.nrows:
        raise ValueError(f"right-hand side length {len(rhs)} does not match {m.nrows} rows")
    n = m.ncols
    rows = _int_rows(row + (bv,) for row, bv in zip(m.rows, rhs))
    pivots = _gauss_jordan(rows)
    if n in pivots:
        raise InconsistentSystem("right-hand side is not in the column span of the matrix")
    x = [Fraction(0)] * n
    for row, p in zip(rows, pivots):
        x[p] = Fraction(row[n], row[p])
    return AffineSolution(tuple(x), _kernel(rows, pivots, n))


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_gauss_jordan(_int_rows(m.rows)))


def gram(vectors: Sequence[Sequence[int | str | Fraction]], pairing: RatMatrix) -> RatMatrix:
    """Gram matrix ``G[i][j] = v_i^T pairing v_j`` of a symmetric pairing."""
    if not pairing.is_symmetric():
        raise ValueError("pairing must be symmetric")
    vs = [tuple(rat(x) for x in v) for v in vectors]
    for v in vs:
        if len(v) != pairing.nrows:
            raise ValueError(f"vector length {len(v)} does not match pairing dimension {pairing.nrows}")
    images = [pairing.matvec(v) for v in vs]
    return RatMatrix([[dot(v, w) for w in images] for v in vs], ncols=len(vs))


def negative_semidefinite_rank(m: RatMatrix) -> SemidefiniteReport:
    """Exact negative-semidefiniteness test for a symmetric matrix.

    Eliminates the negated, integer-scaled matrix with the first nonzero
    diagonal entry as pivot, swapping rows and columns alike.  Each step
    leaves the remaining block a positive row scaling of the (scaled) Schur
    complement, which has the same diagonal signs, zero pattern and rank.
    The form is negative semidefinite exactly when every pivot is positive
    and the block left without a nonzero diagonal is zero; the number of
    pivots is the rank of the form.
    """
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    if not m.is_symmetric():
        raise ValueError("matrix must be symmetric")
    n = m.nrows
    a = [[-x for x in row] for row in _int_rows(m.rows)]
    perm = list(range(n))
    for k in range(n):
        piv = next((j for j in range(k, n) if a[j][j]), None)
        if piv is None:
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        return SemidefiniteReport(
                            False, k, f"indefinite 2x2 principal block at indices ({perm[i]}, {perm[j]})"
                        )
            return SemidefiniteReport(True, k, None)
        a[k], a[piv] = a[piv], a[k]
        for row in a:
            row[k], row[piv] = row[piv], row[k]
        perm[k], perm[piv] = perm[piv], perm[k]
        if a[k][k] < 0:
            return SemidefiniteReport(
                False, k, f"direction with positive self-pairing at index {perm[k]}"
            )
        _clear(a, k, k, range(k + 1, n))
    return SemidefiniteReport(True, n, None)
