"""Sparse exact linear algebra over the rationals.

All elimination happens fraction-free on integer rows (each row scaled to integers and
kept gcd-reduced), so no floating point ever enters a rank, kernel or membership
computation. Matrices are dict-of-rows; rows and columns are 0-indexed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SparseRationalMatrix:
    """Sparse matrix over Q. Zero entries are never stored."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]

    @classmethod
    def from_entries(cls, nrows, ncols, entries) -> "SparseRationalMatrix":
        """Build from an iterable of (row, col, value); repeated positions accumulate."""
        m = cls(nrows, ncols)
        for r, c, v in entries:
            m.add_to(r, c, v)
        return m

    @classmethod
    def from_dense(cls, rows) -> "SparseRationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = cls(nrows, ncols)
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged dense input")
            for c, v in enumerate(row):
                m.add_to(r, c, v)
        return m

    def _check(self, r, c):
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry ({r}, {c}) outside {self.nrows}x{self.ncols} matrix")

    def add_to(self, r, c, v):
        self._check(r, c)
        v = Fraction(v)
        if not v:
            return
        row = self.rows[r]
        w = row.get(c, 0) + v
        if w:
            row[c] = w
        else:
            del row[c]

    def set_entry(self, r, c, v):
        self._check(r, c)
        v = Fraction(v)
        if v:
            self.rows[r][c] = v
        else:
            self.rows[r].pop(c, None)

    def get(self, r, c) -> Fraction:
        self._check(r, c)
        return self.rows[r].get(c, Fraction(0))

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def clone(self) -> "SparseRationalMatrix":
        m = SparseRationalMatrix(self.nrows, self.ncols)
        m.rows = [dict(row) for row in self.rows]
        return m

    def transpose(self) -> "SparseRationalMatrix":
        m = SparseRationalMatrix(self.ncols, self.nrows)
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                m.rows[c][r] = v
        return m

    def apply(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Matrix times column vector, both as sparse dicts."""
        out: dict[int, Fraction] = {}
        for r, row in enumerate(self.rows):
            s = Fraction(0)
            for c, v in row.items():
                x = vec.get(c)
                if x is not None:
                    s += v * x
            if s:
                out[r] = s
        return out

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = SparseRationalMatrix(self.nrows, other.ncols)
        for r, row in enumerate(self.rows):
            acc: dict[int, Fraction] = {}
            for c, v in row.items():
                for c2, w in other.rows[c].items():
                    s = acc.get(c2, 0) + v * w
                    if s:
                        acc[c2] = s
                    else:
                        del acc[c2]
            out.rows[r] = acc
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseRationalMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    def dump(self) -> str:
        """Serialize as `nrows ncols nnz` header plus `row col num/den` lines.

        Entries come out in row-major order, so equal matrices dump byte-identically.
        """
        lines = []
        for r, row in enumerate(self.rows):
            for c in sorted(row):
                v = row[c]
                lines.append(f"{r} {c} {v.numerator}/{v.denominator}")
        head = f"{self.nrows} {self.ncols} {len(lines)}"
        return "\n".join([head] + lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "SparseRationalMatrix":
        """Inverse of dump(); any malformed dump raises ValueError.

        The header's nnz is the number of stored entries, so a zero value or a
        repeated position is malformed too.
        """
        toks = text.split()
        if len(toks) < 3:
            raise ValueError("matrix dump too short")
        nrows, ncols, nnz = int(toks[0]), int(toks[1]), int(toks[2])
        if len(toks) != 3 + 3 * nnz:
            raise ValueError("matrix dump length does not match header")
        m = cls(nrows, ncols)
        for i in range(nnz):
            r, c, val = int(toks[3 + 3 * i]), int(toks[4 + 3 * i]), toks[5 + 3 * i]
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r}, {c}) outside {nrows}x{ncols} matrix")
            if c in m.rows[r]:
                raise ValueError(f"entry ({r}, {c}) repeated")
            try:
                v = Fraction(val)
            except ZeroDivisionError:
                raise ValueError(f"entry ({r}, {c}) has zero denominator") from None
            if not v:
                raise ValueError(f"entry ({r}, {c}) is zero")
            m.rows[r][c] = v
        return m


def _normalize(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row through by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _combine(row_a: dict[int, int], s: int, row_b: dict[int, int], t: int) -> dict[int, int]:
    """s*row_a + t*row_b as a fresh dict."""
    out = {c: s * v for c, v in row_a.items()}
    for c, v in row_b.items():
        w = out.get(c, 0) + t * v
        if w:
            out[c] = w
        elif c in out:
            del out[c]
    return out


def _integer_rows(matrix: SparseRationalMatrix) -> list[dict[int, int]]:
    out = []
    for row in matrix.rows:
        if not row:
            continue
        den = lcm(*(v.denominator for v in row.values())) if row else 1
        out.append(_normalize({c: int(v * den) for c, v in row.items()}))
    return out


class Echelon:
    """Incremental fraction-free row echelon over the integers.

    Reduction multiplies through by pivot entries instead of dividing, and every row is
    gcd-reduced after each combine; that keeps growth tame without Bareiss's division
    bookkeeping. Pivot rows are keyed by their leading column.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Reduce a row against the current pivots until its lead column is free."""
        row = dict(row)
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                return _normalize(row)
            row = _combine(row, piv[c], piv, -row[c])
        return row

    def insert(self, row: dict[int, int]) -> int | None:
        """Reduce and adopt a row as a new pivot; returns its pivot column, or None."""
        row = self.reduce(row)
        if not row:
            return None
        c = min(row)
        self.pivots[c] = row
        return c

    def back_reduce(self):
        """Reduce pivot rows against each other: integral RREF shape."""
        for c in sorted(self.pivots, reverse=True):
            piv = self.pivots[c]
            for c2, row in list(self.pivots.items()):
                if c2 != c and c in row:
                    self.pivots[c2] = _normalize(_combine(row, piv[c], piv, -row[c]))

    def normal_form(self, col: int) -> dict[int, Fraction]:
        """The unit vector at `col` modulo the row span, as {col: Fraction}.

        Call back_reduce() first: the result is then the unique vector of
        e_col + span that vanishes on every pivot column.
        """
        piv = self.pivots.get(col)
        if piv is None:
            return {col: Fraction(1)}
        return {d: Fraction(-v, piv[col]) for d, v in piv.items() if d != col}

    @property
    def rank(self) -> int:
        return len(self.pivots)


def echelon_from_matrix(matrix: SparseRationalMatrix) -> Echelon:
    ech = Echelon()
    # Sparsest rows first: the pivoting-by-sparsity part of the scheme.
    for row in sorted(_integer_rows(matrix), key=len):
        ech.insert(row)
    return ech


def rank(matrix: SparseRationalMatrix) -> int:
    return echelon_from_matrix(matrix).rank


def rank_kernel_image(matrix):
    """Rank, right kernel basis and image pivot columns, all exact.

    Returns (rank, kernel, pivot_cols): kernel is a list of {col: Fraction} vectors
    spanning {x : M x = 0}, one per free column with that column's coordinate set to 1;
    pivot_cols index an independent spanning subset of the columns.
    """
    ech = echelon_from_matrix(matrix)
    ech.back_reduce()
    pivot_cols = sorted(ech.pivots)
    kernel = []
    pivot_set = ech.pivots
    for f in range(matrix.ncols):
        if f in pivot_set:
            continue
        vec = {f: Fraction(1)}
        for c in pivot_cols:
            row = pivot_set[c]
            if f in row:
                vec[c] = Fraction(-row[f], row[c])
        kernel.append(vec)
    return ech.rank, kernel, pivot_cols


def membership(matrix: SparseRationalMatrix, vector: dict[int, Fraction]):
    """Decide whether `vector` (indexed by rows) lies in the column space.

    Returns (solution, certificate). Exactly one is not None: `solution` is an
    {col: Fraction} dict with  M @ solution == vector;  `certificate` is a left kernel
    vector y (dict over rows) with  y . M == 0  but  y . vector != 0.
    """
    aug = SparseRationalMatrix(matrix.nrows, matrix.ncols + 1)
    aug.rows = [dict(row) for row in matrix.rows]
    last = matrix.ncols
    for r, v in vector.items():
        v = Fraction(v)
        if v:
            aug._check(r, 0)
            aug.rows[r][last] = v
    _, kernel, _ = rank_kernel_image(aug)
    for vec in kernel:
        t = vec.get(last)
        if t:
            sol = {c: -v / t for c, v in vec.items() if c != last}
            return sol, None
    _, left_kernel, _ = rank_kernel_image(matrix.transpose())
    for y in left_kernel:
        pairing = sum((y[r] * vector.get(r, Fraction(0)) for r in y), Fraction(0))
        if pairing:
            return None, y
    raise AssertionError("no solution and no separating left kernel vector")


def cohomology_dims(d_in: SparseRationalMatrix, d_out: SparseRationalMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for a composable pair with d_out @ d_in = 0.

    `d_in` maps the previous term into the middle one, `d_out` maps the middle one
    onward; raises if shapes mismatch or the composite is nonzero.
    """
    if d_in.nrows != d_out.ncols:
        raise ValueError("d_in codomain and d_out domain differ")
    if not (d_out @ d_in).is_zero():
        raise ArithmeticError("composite of consecutive differentials is nonzero")
    r_in = rank(d_in)
    r_out = rank(d_out)
    return d_out.ncols - r_out - r_in
