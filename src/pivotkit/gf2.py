"""Dense linear algebra over GF(2) with bit-packed rows.

Rows are stored as Python ints, bit j of a row being column j.  Addition
is XOR, so subtraction equals addition.  All operations return fresh
values; nothing mutates its inputs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ._text import content_lines, read_header
from .errors import DimensionMismatch, FormatError, PivotOnZero


class BitMatrix:
    """A binary matrix with bit-packed rows.

    Empty matrices (0 rows or 0 columns) are legal and have rank 0.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [0] * nrows
        else:
            if len(rows) != nrows:
                raise ValueError("row count does not match nrows")
            mask = (1 << ncols) - 1
            for r in rows:
                if r & ~mask:
                    raise ValueError("row has bits outside the column range")
            self.rows = list(rows)

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("matrix index out of range")
        return (self.rows[i] >> j) & 1

    def set(self, i: int, j: int, value: int) -> None:
        if value not in (0, 1):
            raise ValueError("entries must be 0 or 1")
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("matrix index out of range")
        if value:
            self.rows[i] |= 1 << j
        else:
            self.rows[i] &= ~(1 << j)

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.ncols
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << i
                row ^= low
        return BitMatrix(self.ncols, self.nrows, cols)

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")
        return BitMatrix(self.nrows, self.ncols,
                         [a ^ b for a, b in zip(self.rows, other.rows)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, tuple(self.rows)))

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"


def rank_bits(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as bit-packed ints."""
    lead: dict[int, int] = {}
    for row in rows:
        while row:
            hb = row.bit_length() - 1
            if hb in lead:
                row ^= lead[hb]
            else:
                lead[hb] = row
                break
    return len(lead)


def rank(m: BitMatrix) -> int:
    """Dimension of the row space of m over GF(2)."""
    return rank_bits(m.rows)


def matrix_pivot(m: BitMatrix, x: int, y: int) -> BitMatrix:
    """Pivot m at entry (x, y), which must be 1.

    Row x and column y are kept; every other entry (i, j) becomes
    m[i][j] XOR m[i][y]*m[x][j].  The operation is an involution.
    """
    if m.get(x, y) != 1:
        raise PivotOnZero(f"entry ({x},{y}) is 0")
    xrow_off = m.rows[x] & ~(1 << y)
    rows = []
    for i, row in enumerate(m.rows):
        if i != x and (row >> y) & 1:
            rows.append(row ^ xrow_off)
        else:
            rows.append(row)
    return BitMatrix(m.nrows, m.ncols, rows)


def format_matrix(m: BitMatrix) -> str:
    lines = [f"matrix {m.nrows} {m.ncols}"]
    for r in m.rows:
        lines.append("".join(str((r >> j) & 1) for j in range(m.ncols)))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> BitMatrix:
    return read_matrix(content_lines(text))


def read_matrix(lines: Iterator[str]) -> BitMatrix:
    """The matrix whose header is the next of lines and whose rows are the rest."""
    nrows, ncols = read_header(lines, "matrix", "matrix rows", "matrix columns")
    rows, bad = [], None
    for line in lines:
        ok = len(line) == ncols and not set(line) - {"0", "1"}
        rows.append(int(line[::-1], 2) if ok else 0)
        if not ok and bad is None:
            bad = line
    if ncols == 0 and not rows:
        # Its rows are the blank lines that content_lines dropped.
        return BitMatrix(nrows, 0)
    if len(rows) != nrows:
        raise FormatError(f"expected {nrows} matrix rows, got {len(rows)}")
    if bad is not None:
        raise FormatError(f"bad matrix row: {bad!r}")
    return BitMatrix(nrows, ncols, rows)
