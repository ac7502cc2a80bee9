import random
import tracemalloc

import networkx as nx
import pytest

import oracles
from pivotkit.errors import (DimensionMismatch, NotATree, PartitionInvalid,
                             TreeTooSmall)
from pivotkit.gf2 import BitMatrix, rank
from pivotkit.graph import Graph
from pivotkit.structure import (BlockPartition, SplitEdge, SplitVertex,
                                check_struct_density,
                                constant_block_partition,
                                format_block_partition, format_tree_split,
                                free_trees, perturbation_partition,
                                reconstruct_from_partition, split_tree,
                                tree_split_problem)


def random_tree(rng, n):
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v)
    return g


class TestSplitTree:
    def test_path_11_vertices_s2(self):
        t = Graph.path(11)
        split = split_tree(t, 2)
        assert isinstance(split, SplitEdge)
        assert split.edge == (7, 8)
        assert len(split.side_a) == 7 and len(split.side_b) == 2

    def test_star_needs_vertex_split(self):
        t = Graph(16, [(0, i) for i in range(1, 16)])
        split = split_tree(t, 3)
        assert isinstance(split, SplitVertex)
        assert split.vertex == 0
        assert len(split.t1) == 3 and len(split.t2) == 3 and len(split.t3) == 9

    def test_too_small(self):
        with pytest.raises(TreeTooSmall):
            split_tree(Graph.path(5), 1)

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            split_tree(Graph.cycle(6), 1)
        with pytest.raises(NotATree):
            split_tree(Graph(7, [(0, 1), (2, 3)]), 1)

    def test_vertex_split_sizes_bounded(self):
        # the two grouped subtrees have between s and 2s edges
        rng = random.Random(61)
        for _ in range(60):
            s = rng.randint(1, 3)
            n = rng.randint(5 * s + 1, 8 * s + 1)
            t = random_tree(rng, n)
            split = split_tree(t, s)
            if isinstance(split, SplitVertex):
                assert s <= len(split.t1) <= 2 * s
                assert s <= len(split.t2) <= 2 * s
                assert len(split.t3) >= s

    def test_output_always_validates(self):
        rng = random.Random(67)
        for _ in range(80):
            s = rng.randint(1, 3)
            n = rng.randint(5 * s + 1, 9 * s + 1)
            t = random_tree(rng, n)
            split = split_tree(t, s)
            assert tree_split_problem(t, s, split) is None

    def test_deterministic(self):
        rng = random.Random(71)
        t = random_tree(rng, 17)
        assert split_tree(t, 3) == split_tree(t, 3)

    def test_checker_rejects_bad_splits(self):
        t = Graph.path(11)
        good = split_tree(t, 2)
        assert isinstance(good, SplitEdge)
        # undersized side
        bad = SplitEdge((0, 1), frozenset(),
                        frozenset({(u, u + 1) for u in range(1, 10)}))
        assert tree_split_problem(t, 2, bad) is not None
        # sides sharing a vertex (both are subtrees meeting at vertex 3)
        bad2 = SplitEdge((0, 1), frozenset({(1, 2), (2, 3)}),
                         frozenset({(u, u + 1) for u in range(3, 10)}))
        assert tree_split_problem(t, 2, bad2) is not None

    def test_format(self):
        split = split_tree(Graph.path(11), 2)
        text = format_tree_split(split)
        assert text.startswith("split edge 7 8\n")
        assert "side1" in text and "side2" in text


def tree_splits(max_order):
    """Every (tree, legal s) pair over the free trees of 6..max_order vertices."""
    for order in range(6, max_order + 1):
        for t in free_trees(order):
            for s in range(1, (order - 1) // 5 + 1):
                yield t, s


def mutations(t, split, rng):
    """One edge moved between two parts, a wrong split edge (a tree edge
    or a non-edge), and a wrong split vertex (in or out of range)."""
    if isinstance(split, SplitEdge):
        parts = [set(split.side_a), set(split.side_b)]
    else:
        parts = [set(split.t1), set(split.t2), set(split.t3)]
    i, j = rng.sample(range(len(parts)), 2)
    e = rng.choice(sorted(parts[i]))
    parts[i].remove(e)
    parts[j].add(e)
    moved = [frozenset(p) for p in parts]
    if isinstance(split, SplitEdge):
        yield SplitEdge(split.edge, *moved)
        edge = rng.choice(t.edge_list() + [(0, t.n)])
        yield SplitEdge(edge, split.side_a, split.side_b)
    else:
        yield SplitVertex(split.vertex, *moved)
        yield SplitVertex(rng.randrange(-1, t.n + 1), split.t1, split.t2, split.t3)


class TestFreeTrees:
    def test_equal_to_networkx_in_order(self):
        counts = []
        for order in range(2, 14):
            trees = [t.adj for t in free_trees(order)]
            assert trees == [Graph(order, t.edges()).adj
                             for t in nx.nonisomorphic_trees(order)]
            counts.append(len(trees))
        assert counts == [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301]

    def test_smallest_orders(self):
        assert list(free_trees(0)) == []
        assert list(free_trees(1)) == [Graph(1)]
        with pytest.raises(ValueError):
            list(free_trees(-1))


class TestSplitAgainstOracle:
    def test_split_equals_oracle_on_every_tree_up_to_13_vertices(self):
        # The oracle split_tree returns only splits its own checker passes.
        pairs = 0
        for t, s in tree_splits(13):
            split = split_tree(t, s)
            assert split == oracles.split_tree(t, s)
            assert tree_split_problem(t, s, split) is None
            pairs += 1
        assert pairs == 4367

    def test_checker_agrees_with_oracle_on_mutated_splits(self):
        rng = random.Random(83)
        problems = set()
        for t, s in tree_splits(11):
            for bad in mutations(t, split_tree(t, s), rng):
                for s_check in (s, s + 1):
                    problem = tree_split_problem(t, s_check, bad)
                    assert problem == oracles.tree_split_problem(t, s_check, bad)
                    problems.add(problem)
        assert len(problems) >= 10

    def test_checker_reports_a_non_tree(self):
        split = split_tree(Graph.path(11), 2)
        cycle = Graph.cycle(11)
        assert tree_split_problem(cycle, 2, split) == "t is not a tree"
        # The path plus an isolated vertex: every part lies in the forest
        # and passes the count test, so only the tree check catches it.
        forest = Graph(12, Graph.path(11).edge_list())
        assert oracles.tree_split_problem(forest, 2, split) is None
        assert tree_split_problem(forest, 2, split) == "t is not a tree"
        assert tree_split_problem(Graph(0), 2, split) == "t is not a tree"


def expanded(c, bp):
    """The matrix of c's shape whose every block holds its value in bp:
    the zero matrix rebuilt by bp's blocks."""
    zero = BitMatrix(c.nrows, c.ncols)
    return reconstruct_from_partition(zero, bp._replace(mode="graph-pair"))


class TestConstantBlockPartition:
    def test_class_count_bounded_by_rank(self):
        rng = random.Random(73)
        for _ in range(50):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = BitMatrix(nr, nc, [rng.randrange(1 << nc) for _ in range(nr)])
            bp = constant_block_partition(m)
            p = rank(m)
            assert len(bp.row_classes) <= 2 ** p
            assert len(bp.col_classes) <= 2 ** p
            assert expanded(m, bp) == m

    def test_zero_matrix(self):
        bp = constant_block_partition(BitMatrix(3, 4))
        assert len(bp.row_classes) == 1 and len(bp.col_classes) == 1
        assert bp.blocks == BitMatrix(1, 1)

    def test_non_partitions_are_not_constant(self):
        c = BitMatrix(3, 2)
        assert expanded(c, constant_block_partition(c)) == c
        for rows, cols, blocks in [(((0,),), ((0,),), BitMatrix(1, 1)),  # rows 1, 2 and column 1 unlisted
                                   (((0,), (0, 1, 2)), ((0, 1),), BitMatrix(2, 1)),
                                   (((0, 0, 1, 2),), ((0, 1),), BitMatrix(1, 1)),
                                   (((0, 1, 2),), ((0, 1), ()), BitMatrix(1, 2)),
                                   (((0, 1, 2),), ((0, 1, 2),), BitMatrix(1, 1)),
                                   (((0, 1, 2),), ((0, 1),), BitMatrix(0, 1)),
                                   (((0, 1, 2),), ((0, 1),), BitMatrix(1, 2))]:
            with pytest.raises(PartitionInvalid):
                expanded(c, BlockPartition("matrix", rows, cols, blocks))

    def test_one_flipped_entry_is_not_constant(self):
        rng = random.Random(83)
        for _ in range(30):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            c = BitMatrix(nr, nc, [rng.randrange(1 << nc) for _ in range(nr)])
            bp = constant_block_partition(c)
            for i in range(nr):
                for j in range(nc):
                    rows = list(c.rows)
                    rows[i] ^= 1 << j
                    flipped = BitMatrix(nr, nc, rows)
                    assert expanded(flipped, bp) != flipped

    def test_format(self):
        bp = constant_block_partition(BitMatrix(2, 3, [0b011, 0b011]))
        assert format_block_partition(bp) == (
            "blockpartition matrix 1 2\n"
            "rowclass 0 0 1\n"
            "colclass 0 0 1\n"
            "colclass 1 2\n"
            "block 0 0 one\n"
            "block 0 1 zero\n")
        bp = perturbation_partition(BitMatrix(2, 2, [0b01, 0]), BitMatrix(2, 2, [0b01, 0b10]))
        assert format_block_partition(bp) == (
            "blockpartition graph-pair 2 2\n"
            "rowclass 0 0\n"
            "rowclass 1 1\n"
            "colclass 0 0\n"
            "colclass 1 1\n"
            "block 0 0 equal\n"
            "block 0 1 equal\n"
            "block 1 0 equal\n"
            "block 1 1 complement\n")

    def test_format_peak_memory_is_near_its_length(self):
        """One string per row class, not one per block: a random 300 x 300
        matrix's 1.6 MB of text peaks near twice that, where a list of
        block lines peaked above six times."""
        rng = random.Random(300)
        c = BitMatrix(300, 300, [rng.getrandbits(300) for _ in range(300)])
        bp = constant_block_partition(c)
        tracemalloc.start()
        try:
            text = format_block_partition(bp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 1608595 and peak < 3 * len(text)


class TestPerturbationPartition:
    def test_identical_graphs(self):
        g = BitMatrix(2, 2, [0b01, 0b10])
        bp = perturbation_partition(g, g)
        assert len(bp.row_classes) == 1 and len(bp.col_classes) == 1
        assert bp.mode == "graph-pair"
        assert bp.blocks == BitMatrix(1, 1)

    def test_full_complement(self):
        g1 = BitMatrix(2, 3)
        g2 = BitMatrix(2, 3, [0b111, 0b111])
        bp = perturbation_partition(g1, g2)
        assert bp.blocks == BitMatrix(1, 1, [1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^2x2 vs 2x3$"):
            perturbation_partition(BitMatrix(2, 2), BitMatrix(2, 3))

    def test_reconstruction_round_trip(self):
        rng = random.Random(79)
        for _ in range(50):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            g1 = BitMatrix(nr, nc, [rng.randrange(1 << nc) for _ in range(nr)])
            g2 = BitMatrix(nr, nc, [rng.randrange(1 << nc) for _ in range(nr)])
            bp = perturbation_partition(g1, g2)
            assert reconstruct_from_partition(g2, bp) == g1
            p = rank(g1 ^ g2)
            assert len(bp.row_classes) <= 2 ** p
            assert len(bp.col_classes) <= 2 ** p

    def test_reconstruct_rejects_non_partitions(self):
        # Row 2 is in no class, so its value in g2 would be kept unchecked.
        g2 = BitMatrix(3, 2)
        for rows, blocks in [(((0, 1),), BitMatrix(1, 1, [1])),
                             (((0, 1), (1, 2)), BitMatrix(2, 1, [1, 0])),
                             (((0, 1, 2),), BitMatrix(2, 1, [1, 0]))]:
            with pytest.raises(PartitionInvalid):
                reconstruct_from_partition(g2, BlockPartition("graph-pair", rows, ((0, 1),), blocks))

    def test_reconstruct_rejects_matrix_mode(self):
        bp = constant_block_partition(BitMatrix(2, 2))
        with pytest.raises(ValueError):
            reconstruct_from_partition(BitMatrix(2, 2), bp)


class TestCheckStructDensity:
    def test_trivial_partition_passes(self):
        g = BitMatrix(4, 4, [0b1111] * 4)
        assert check_struct_density(g, [[0, 1, 2, 3]], [[0, 1, 2, 3]], 1)

    def test_invalid_partition(self):
        g = BitMatrix(2, 2, [0b11, 0b11])
        with pytest.raises(PartitionInvalid):
            check_struct_density(g, [[0]], [[0, 1]], 1)
        with pytest.raises(PartitionInvalid):
            check_struct_density(g, [[0, 0, 1]], [[0, 1]], 1)

    def test_bad_s(self):
        g = BitMatrix(2, 2, [0b11, 0b11])
        with pytest.raises(ValueError):
            check_struct_density(g, [[0, 1]], [[0, 1]], 0)
