import importlib.util
import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pivotkit.cutrank import (SUBSET_CAP, Separation, cut_rank,
                              find_low_rank_separation)
from pivotkit.errors import SubsetCapExceeded
from pivotkit.gf2 import BitMatrix, rank, rank_bits
from pivotkit.graph import Graph

import oracles


def cut_rank_by_matrix(g, xs):
    """Oracle: build the X-by-complement submatrix explicitly and rank it."""
    xs = sorted(xs)
    comp = [v for v in range(g.n) if v not in xs]
    m = BitMatrix(len(xs), len(comp))
    for i, u in enumerate(xs):
        for j, v in enumerate(comp):
            if g.has_edge(u, v):
                m.set(i, j, 1)
    return rank(m)


class TestCutRank:
    def test_c4_split(self):
        assert cut_rank(Graph.cycle(4), [0, 1]) == 2

    def test_empty_and_full_sides(self):
        g = Graph(4, combinations(range(4), 2))
        assert cut_rank(g, []) == 0
        assert cut_rank(g, range(4)) == 0

    def test_complete_graph_any_split_is_one(self):
        g = Graph(5, combinations(range(5), 2))
        for r in range(1, 5):
            for xs in combinations(range(5), r):
                assert cut_rank(g, xs) == 1

    def test_symmetric_in_complement(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        for r in range(6):
            for xs in combinations(range(5), r):
                comp = [v for v in range(5) if v not in xs]
                assert cut_rank(g, xs) == cut_rank(g, comp)

    def test_matches_matrix_oracle(self):
        import random
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 7)
            g = Graph(n)
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        g.add_edge(u, v)
            for _ in range(10):
                xs = [v for v in range(n) if rng.random() < 0.5]
                assert cut_rank(g, xs) == cut_rank_by_matrix(g, xs)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cut_rank(Graph(3), [5])


class TestFindLowRankSeparation:
    def test_k1_always_none(self):
        assert find_low_rank_separation(Graph(4, [(0, 1)]), 1) is None

    def test_disconnected_graph_fails_k2(self):
        g = Graph(4, [(0, 1), (2, 3)])
        sep = find_low_rank_separation(g, 2)
        assert sep is not None and sep.order == 1 and sep.cutrank_value == 0

    def test_c5_is_2_rank_connected(self):
        assert find_low_rank_separation(Graph.cycle(5), 2) is None

    def test_witness_is_valid(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        sep = find_low_rank_separation(g, 3)
        assert sep is not None
        n = g.n
        assert sep.order <= len(sep.side_x) <= n - sep.order
        assert cut_rank(g, sep.side_x) == sep.cutrank_value < sep.order

    def test_deterministic(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        s1 = find_low_rank_separation(g, 3)
        s2 = find_low_rank_separation(g, 3)
        assert s1 == s2

    def test_subset_cap_edge(self):
        """24 vertices are searched; 25 raise before any subset is ranked,
        whatever k is."""
        assert find_low_rank_separation(Graph(SUBSET_CAP), 2) == Separation((0,), 1, 0)
        for k in (2, 10 ** 6):
            with pytest.raises(SubsetCapExceeded, match="25 vertices exceeds the subset cap 24"):
                find_low_rank_separation(Graph.cycle(SUBSET_CAP + 1), k)

    def test_pinned_bench_queries(self):
        """Every pooled certify unit of the benchmark keeps its pinned
        separation, and each witness passes the bench's own rank check."""
        bench = Path(__file__).resolve().parents[1] / "bench"
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        pins = json.loads((bench / "pins.json").read_text())["certify"]
        certify = workloads.Certify()
        pool = certify.pool()
        assert len(pool) == len(pins) == 192
        for unit in pool:
            inputs = certify.prepare(unit)
            sep = certify.run(inputs)
            assert certify.record(sep) == pins[certify.key(unit)], unit
            assert certify.recheck(inputs, sep) is None, unit

    def test_small_sides_not_counted(self):
        # A pendant vertex has cut-rank 1, which only violates order >= 2,
        # and order 2 requires both sides to have >= 2 vertices.
        g = Graph.path(3)
        sep = find_low_rank_separation(g, 3)
        assert sep is None


def graph_from_code(n, code):
    """The labelled graph on range(n) with edge i of combinations(range(n), 2)
    present when bit i of code is set."""
    pairs = combinations(range(n), 2)
    return Graph(n, [e for i, e in enumerate(pairs) if (code >> i) & 1])


@st.composite
def labelled_graphs(draw, n_min, n_max):
    """G(n, p) with n in n_min..n_max and p from sparse to dense."""
    n = draw(st.integers(n_min, n_max))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7]))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


class TestMatchesMultiPassOracle:
    """The single pass returns the multi-pass search's first witness."""

    def assert_same(self, g, ks=range(5)):
        for k in ks:
            assert find_low_rank_separation(g, k) == oracles.find_low_rank_separation(g, k)

    def test_every_graph_up_to_five_vertices(self):
        for n in range(6):
            for code in range(1 << (n * (n - 1) // 2)):
                self.assert_same(graph_from_code(n, code))

    def test_sampled_six_vertex_graphs(self):
        rng = random.Random(6)
        for code in rng.sample(range(1 << 15), 2000):
            self.assert_same(graph_from_code(6, code))

    @settings(max_examples=20, deadline=None)
    @given(labelled_graphs(7, 12))
    def test_larger_graphs(self, g):
        self.assert_same(g, ks=range(2, 6))


def gnp(n, p, label):
    """Seeded G(n, p), drawn as the certify benchmark draws its graphs."""
    rng = random.Random(label)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def certify_graph(n, p, seed):
    return gnp(n, p, f"certify/n{n}/p{p}/g{seed}")


def two_blocks():
    """G(9, .7) on the even vertices and on the odd ones, joined by the edge
    16-17.  The first order-2 witness is the evens but 16, found part-way
    through the size-8 walk; the walk then goes on to size 9, where a side
    must hold vertex 0, with top 1."""
    rng = random.Random("two blocks 1")
    return Graph(18, [(2 * a + s, 2 * b + s) for s in (0, 1)
                      for a, b in combinations(range(9), 2) if rng.random() < 0.7]
                 + [(16, 17)])


class TestMatchesSinglePassOracle:
    """The pruned walk returns the witness of the single pass that ranks
    every smaller side."""

    GRID = Graph(16, [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
                 + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)])
    GRAPHS = {
        **{f"certify n{n} p{p} g{s}": certify_graph(n, p, s)
           for n in (14, 16) for p in (0.5, 0.08) for s in (0, 1)},
        **{f"certify n18 p0.5 g{s}": certify_graph(18, 0.5, s) for s in (0, 1)},
        "two blocks": two_blocks(),
        "C16": Graph.cycle(16),
        "P16": Graph.path(16),
        "K16": Graph(16, combinations(range(16), 2)),
        "grid 4x4": GRID,
        "K8,8": Graph(16, [(i, 8 + j) for i in range(8) for j in range(8)]),
        "empty 16": Graph(16),
    }

    def test_two_blocks_witness_is_the_evens_but_16(self):
        for k in range(3, 7):
            assert find_low_rank_separation(self.GRAPHS["two blocks"], k) == \
                Separation(tuple(range(0, 16, 2)), 2, 1)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_same_witness(self, name):
        g = self.GRAPHS[name]
        full = (1 << g.n) - 1

        def value(subset, lim):
            out = full
            for v in subset:
                out ^= 1 << v
            return min(rank_bits([g.adj[u] & out for u in subset]), lim)

        for k in range(2, 7):
            found = oracles.first_separation(g.n, k, value)
            want = None if found is None else Separation(found[0], found[1] + 1, found[1])
            assert find_low_rank_separation(g, k) == want


class TestPrunedWork:
    """A dense graph with no separation is answered without ranking every side."""

    @pytest.mark.parametrize("k, most_reads", [(3, 1400), (4, 6000)])
    def test_dense_n18_row_reads(self, k, most_reads):
        """The walk reads 1,344 adjacency rows at k = 3 and 5,806 at k = 4,
        one per sibling it visits; ranking each sibling's members afresh
        read 5,149 and 25,673, and a full scan ranks all 131,071 sides."""
        reads = 0

        class CountedRows(list):
            def __getitem__(self, index):
                nonlocal reads
                reads += 1
                return super().__getitem__(index)

        g = certify_graph(18, 0.5, 0)
        g.adj = CountedRows(g.adj)
        assert find_low_rank_separation(g, k) is None
        assert reads <= most_reads
