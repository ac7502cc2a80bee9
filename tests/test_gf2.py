from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from pivotkit.errors import CapExceeded, DimensionMismatch, PivotOnZero
from pivotkit.gf2 import BitMatrix, format_matrix, matrix_pivot, parse_matrix, rank
from pivotkit.graph import Graph, format_bigraph, format_graph, parse_bigraph, parse_graph

from oracles import rank_by_span


def mat(*rows):
    """The matrix whose rows are the given 0/1 strings."""
    return parse_matrix(f"matrix {len(rows)} {len(rows[0])}\n" + "\n".join(rows))


def bitmatrices(max_dim=5):
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.lists(st.integers(0, (1 << c) - 1 if c else 0),
                               min_size=r, max_size=r).map(
                lambda rows: BitMatrix(r, c, rows))))


def graphs(max_n=6):
    """Every graph on 0..max_n vertices, each edge set a bitmask over the pairs."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.integers(0, (1 << n * (n - 1) // 2) - 1).map(
            lambda mask: Graph(n, [e for i, e in enumerate(combinations(range(n), 2))
                                   if mask >> i & 1])))


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix(3, 3, [1, 2, 4])) == 3

    def test_all_ones(self):
        assert rank(BitMatrix(4, 5, [0b11111] * 4)) == 1

    def test_dependent_rows(self):
        # rows XOR to zero, so only two are independent
        m = mat("110", "011", "101")
        assert rank(m) == rank_by_span(m) == 2

    def test_empty(self):
        assert rank(BitMatrix(0, 3)) == 0
        assert rank(BitMatrix(3, 0)) == 0

    @given(bitmatrices())
    def test_matches_span_oracle(self, m):
        assert rank(m) == rank_by_span(m)

    @given(bitmatrices())
    def test_transpose_invariant(self, m):
        t = m.transpose()
        assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
        assert t.rows == [sum(m.get(i, j) << i for i in range(m.nrows)) for j in range(m.ncols)]
        assert rank(m) == rank(t)


class TestMatrixPivot:
    def test_one_by_one(self):
        m = mat("1")
        assert matrix_pivot(m, 0, 0) == m

    def test_entrywise_formula(self):
        m = mat("11", "10")
        assert matrix_pivot(m, 0, 0) == mat("11", "11")

    def test_involution_of_previous(self):
        m = mat("11", "11")
        assert matrix_pivot(m, 0, 0) == mat("11", "10")

    def test_pivot_on_zero_raises(self):
        with pytest.raises(PivotOnZero):
            matrix_pivot(mat("01", "10"), 0, 0)

    def test_involution_exhaustive_3x3(self):
        for bits in range(1 << 9):
            m = BitMatrix(3, 3, [(bits >> (3 * i)) & 7 for i in range(3)])
            for x in range(3):
                for y in range(3):
                    if m.get(x, y):
                        assert matrix_pivot(matrix_pivot(m, x, y), x, y) == m

    def test_preserves_pivot_row_and_column(self):
        m = mat("101", "110", "011")
        p = matrix_pivot(m, 1, 1)
        assert [p.get(1, j) for j in range(3)] == [m.get(1, j) for j in range(3)]
        assert [p.get(i, 1) for i in range(3)] == [m.get(i, 1) for i in range(3)]


class TestXorRank:
    """rank(m1 ^ m2), the perturbation order between two matrices."""

    def test_self_difference(self):
        m = mat("10", "11")
        assert rank(m ^ m) == 0

    def test_all_ones_difference(self):
        assert rank(BitMatrix(2, 3) ^ mat("111", "111")) == 1

    def test_swap_matrix(self):
        assert rank(mat("10", "01") ^ mat("01", "10")) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BitMatrix(2, 2) ^ BitMatrix(2, 3)

    @given(bitmatrices(4), bitmatrices(4))
    def test_symmetry_and_zero_iff_equal(self, m1, m2):
        if (m1.nrows, m1.ncols) != (m2.nrows, m2.ncols):
            return
        assert rank(m1 ^ m2) == rank(m2 ^ m1)
        assert (rank(m1 ^ m2) == 0) == (m1 == m2)


class TestFormat:
    def test_round_trip(self):
        m = BitMatrix(2, 3, [0b101, 0b100])
        assert format_matrix(m) == "matrix 2 3\n101\n001\n"
        assert parse_matrix(format_matrix(m)) == m

    def test_comments_ignored(self):
        text = "# comment\nmatrix 1 2\n10\n"
        assert parse_matrix(text) == BitMatrix(1, 2, [0b01])

    def test_empty_matrix_round_trip(self):
        m = BitMatrix(0, 0)
        assert parse_matrix(format_matrix(m)) == m

    @given(bitmatrices())
    def test_every_shape_round_trips(self, m):
        assert parse_matrix(format_matrix(m)) == m

    @given(graphs())
    def test_every_graph_round_trips(self, g):
        assert parse_graph(format_graph(g)) == g

    @given(bitmatrices())
    def test_every_bigraph_shape_round_trips(self, m):
        assert parse_bigraph(format_bigraph(m)) == m

    def test_rows_of_an_empty_column_matrix_are_capped(self):
        # Its text is the header alone, so the cap is checked before any
        # row is allocated.
        assert parse_matrix("matrix 1000 0\n") == BitMatrix(1000, 0)
        for nrows in (1001, 10 ** 9, 10 ** 20):
            with pytest.raises(CapExceeded, match=f"{nrows} matrix rows exceeds"):
                parse_matrix(f"matrix {nrows} 0\n")
