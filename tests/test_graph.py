import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from pivotkit.gf2 import BitMatrix
from pivotkit.graph import (DegreeStats, Graph, bipartite_complement, degree_stats,
                            find_complete_bipartite, format_bigraph, format_graph,
                            is_c4_free, is_connected, parse_bigraph, parse_graph,
                            vertex_connectivity)

import oracles
from oracles import biclique_by_enumeration, blow_up
from oracles import vertex_connectivity as vertex_connectivity_all_pairs


def c6_bigraph():
    # 6-cycle a0 b0 a1 b1 a2 b2: each a_i adjacent to b_i and b_{i-1}
    return BitMatrix(3, 3, [0b101, 0b011, 0b110])


def complete_bigraph(a, b):
    return BitMatrix(a, b, [(1 << b) - 1] * a)


class TestBipartiteComplement:
    def test_complete_becomes_edgeless(self):
        assert bipartite_complement(complete_bigraph(2, 3)) == BitMatrix(2, 3)

    def test_edgeless_becomes_complete(self):
        assert bipartite_complement(BitMatrix(2, 2)) == complete_bigraph(2, 2)

    def test_c6_becomes_matching(self):
        g = bipartite_complement(c6_bigraph())
        assert (g.nrows, g.ncols) == (3, 3)
        assert degree_stats(g) == DegreeStats(1, 1, Fraction(1))

    def test_involution(self):
        g = c6_bigraph()
        assert bipartite_complement(bipartite_complement(g)) == g


class TestFindCompleteBipartite:
    def test_k44_has_no_k25(self):
        assert find_complete_bipartite(complete_bigraph(4, 4), 2, 5) is None

    def test_k22_found_in_k22(self):
        w = find_complete_bipartite(complete_bigraph(2, 2), 2, 2)
        assert w is not None
        assert sorted(w.s_set) == [0, 1] and sorted(w.t_set) == [0, 1]

    def test_c6_blowup_cases(self):
        # The copies of C6's even vertices are the rows, those of its odd
        # vertices the columns.
        g = blow_up(Graph.cycle(6), 3)
        side_a = [v for v in range(g.n) if v // 3 % 2 == 0]
        side_b = [v for v in range(g.n) if v // 3 % 2 == 1]
        bg = BitMatrix(9, 9, [sum(1 << j for j, w in enumerate(side_b)
                                  if g.has_edge(u, w)) for u in side_a])
        # 18 vertices on both sides of the comparison, so equal edge counts.
        assert degree_stats(bg) == degree_stats(g)
        assert find_complete_bipartite(bg, 4, 4) is None
        w = find_complete_bipartite(bg, 3, 6)
        assert w is not None

    @pytest.mark.parametrize("s,t", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_matches_enumeration_oracle(self, s, t):
        import random
        rng = random.Random(7 * s + t)
        for _ in range(30):
            na, nb = rng.randint(1, 6), rng.randint(1, 6)
            m = BitMatrix(na, nb, [rng.randrange(1 << nb) for _ in range(na)])
            found = find_complete_bipartite(m, s, t) is not None
            assert found == biclique_by_enumeration(m, s, t)

    def test_first_witness_matches_the_combinations_search(self):
        # The depth-first walk skips only prefixes that no row can complete,
        # so it returns the witness the full combinations search returns.
        rng = random.Random(11)
        for _ in range(400):
            na, nb = rng.randint(0, 9), rng.randint(0, 9)
            p = rng.choice((0.3, 0.6, 0.9))
            m = BitMatrix(na, nb, [sum(1 << j for j in range(nb) if rng.random() < p)
                                   for _ in range(na)])
            s, t = rng.randint(1, 5), rng.randint(1, 5)
            w = find_complete_bipartite(m, s, t)
            assert (w and tuple(w)) == oracles.first_biclique(m, s, t)

    def test_witness_is_a_real_biclique(self):
        g = c6_bigraph()
        w = find_complete_bipartite(g, 1, 2)
        assert w is not None
        if w.s_side == "A":
            assert all(g.get(i, j) for i in w.s_set for j in w.t_set)
        else:
            assert all(g.get(i, j) for j in w.s_set for i in w.t_set)


class TestC4Free:
    def test_c4_itself(self):
        assert not is_c4_free(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_trees(self):
        assert is_c4_free(Graph.path(6))
        assert is_c4_free(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))

    def test_c5(self):
        assert is_c4_free(Graph.cycle(5))

    def test_agrees_with_biclique_search_on_bipartite(self):
        import random
        rng = random.Random(11)
        for _ in range(40):
            na, nb = rng.randint(2, 5), rng.randint(2, 5)
            m = BitMatrix(na, nb, [rng.randrange(1 << nb) for _ in range(na)])
            as_graph = Graph(na + nb, [(i, na + j) for i in range(na) for j in range(nb)
                                       if m.get(i, j)])
            assert is_c4_free(as_graph) == (find_complete_bipartite(m, 2, 2) is None)


def small_and_seeded_graphs():
    """Every labelled graph on at most five vertices and 60 seeded G(n, p)
    on 6 to 24 vertices."""
    graphs = []
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        graphs += [Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                   for bits in range(1 << len(pairs))]
    rng = random.Random(61)
    for _ in range(60):
        n, p = rng.randint(6, 24), rng.random()
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return graphs


class TestRows:
    def test_edge_list_by_lower_end_then_upper(self):
        for g in small_and_seeded_graphs():
            assert g.edge_list() == [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                                     if g.has_edge(u, v)]

    def test_delete_vertex_relabels_the_vertices_above_down(self):
        for g in small_and_seeded_graphs():
            for v in range(g.n):
                keep = [u for u in range(g.n) if u != v]
                want = [sum(1 << j for j, w in enumerate(keep) if g.has_edge(u, w)) for u in keep]
                got = g.delete_vertex(v)
                assert (got.n, got.adj) == (g.n - 1, want)


class TestBlowUp:
    def test_identity(self):
        g = Graph.cycle(6)
        assert blow_up(g, 1) == g

    def test_c6_by_3(self):
        g = blow_up(Graph.cycle(6), 3)
        assert g.n == 18
        assert g.num_edges() == 54
        assert all(g.degree(v) == 6 for v in range(g.n))

    def test_single_vertex(self):
        g = blow_up(Graph(1), 5)
        assert g.n == 5 and g.num_edges() == 0

    def test_edge_and_degree_counts(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = blow_up(g, 2)
        assert b.n == 8 and b.num_edges() == 4 * g.num_edges()
        for v in range(g.n):
            for c in range(2):
                assert b.degree(2 * v + c) == 2 * g.degree(v)


class TestVertexConnectivity:
    def test_complete(self):
        assert vertex_connectivity(Graph(5, combinations(range(5), 2))) == 4

    def test_cycle(self):
        assert vertex_connectivity(Graph.cycle(5)) == 2

    def test_path(self):
        assert vertex_connectivity(Graph.path(4)) == 1

    def test_disconnected(self):
        assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_matches_all_pairs_oracle_on_c4_free_graphs(self):
        """Seeded C4-free graphs drawn like rankconn-lemma's (4-10
        vertices, edge probability 0.1-0.45), until 300 are connected,
        and the Petersen graph (kappa = 3, girth 5)."""
        import random
        rng = random.Random(14)
        graphs = []
        connected = 0
        while connected < 300:
            n, p = rng.randint(4, 10), rng.uniform(0.1, 0.45)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            if is_c4_free(g):
                graphs.append(g)
                connected += is_connected(g)
        graphs.append(Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]))
        values = [vertex_connectivity(g) for g in graphs]
        assert values == [vertex_connectivity_all_pairs(g) for g in graphs]
        assert set(values) == {0, 1, 2, 3}

    def test_cut_through_the_least_degree_vertex(self):
        # Vertex 0 (the only one of least degree, 2) joins {1, 2} of a K5
        # on 1-5 to {6, 7} of a K5 on 6-10.  Separating 0 from any
        # non-neighbour takes two vertices; the cut {0} separates a
        # non-adjacent pair of 0's neighbours, such as 1 and 6.
        edges = [(0, 1), (0, 2), (0, 6), (0, 7)]
        edges += list(combinations(range(1, 6), 2)) + list(combinations(range(6, 11), 2))
        g = Graph(11, edges)
        assert vertex_connectivity(g) == vertex_connectivity_all_pairs(g) == 1

    def test_matches_networkx(self):
        """Connectivity and vertex connectivity against networkx on every
        labelled graph with 2-5 vertices and on seeded 4-12-vertex graphs
        drawn like rankconn-lemma's (about half are C4-free)."""
        import random
        import networkx as nx
        graphs = []
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 8)
            graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < 0.4]))
        for n in range(2, 6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                graphs.append(Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
        rng = random.Random(5)
        for _ in range(400):
            n, p = rng.randint(4, 12), rng.uniform(0.1, 0.45)
            graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < p]))
        assert len(graphs) == 30 + 1098 + 400
        assert sum(map(is_c4_free, graphs[-400:])) == 221
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edge_list())
            assert vertex_connectivity(g) == nx.node_connectivity(h)
            assert is_connected(g) == nx.is_connected(h)


class TestDegreeStats:
    def test_k44(self):
        st = degree_stats(complete_bigraph(4, 4))
        assert (st.min_degree, st.max_degree, st.average_degree) == (4, 4, 4)

    def test_edgeless(self):
        st = degree_stats(Graph(5))
        assert (st.min_degree, st.max_degree, st.average_degree) == (0, 0, 0)

    def test_star(self):
        g = Graph(10, [(0, i) for i in range(1, 10)])
        st = degree_stats(g)
        assert (st.min_degree, st.max_degree) == (1, 9)
        assert st.average_degree == Fraction(9, 5)

    def test_min_le_avg_le_max(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])
        st = degree_stats(g)
        assert st.min_degree <= st.average_degree <= st.max_degree


class TestFormats:
    def test_graph_round_trip(self):
        g = Graph(5, [(0, 1), (1, 4), (2, 3)])
        assert parse_graph(format_graph(g)) == g

    def test_bigraph_round_trip(self):
        g = c6_bigraph()
        assert parse_bigraph(format_bigraph(g)) == g

    def test_bigraph_text_lists_edges_row_by_row(self):
        assert format_bigraph(BitMatrix(4, 3, [0b101, 0, 0b010, 0])) == \
            "bigraph 4 3\n0 0\n0 2\n2 1\n"
        assert format_bigraph(BitMatrix(2, 0)) == "bigraph 2 0\n"

    def test_bigraph_text_peak_memory_is_near_its_length(self):
        """One string per row, not one per edge: the all-ones 300 x 300
        bigraph's 0.65 MB of text peaks near twice that, where a list of
        edge lines peaked above ten times."""
        g = BitMatrix(300, 300, [(1 << 300) - 1] * 300)
        tracemalloc.start()
        try:
            text = format_bigraph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 654016 and peak < 3 * len(text)

    def test_graph_text_peak_memory_is_near_its_length(self):
        """One string per row, not one per edge: K_300's 0.33 MB of text
        peaks near twice that, where a list of edge lines peaked near
        nineteen times."""
        g = Graph(300, combinations(range(300), 2))
        tracemalloc.start()
        try:
            text = format_graph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 325920 and peak < 3 * len(text)

    def test_graph_reader_peak_memory_is_below_its_length(self):
        """The reader holds a block of lines at a time, not every line:
        reading K_300's 0.33 MB of text peaks below its length, where a
        list of its lines peaked about ten times."""
        g = Graph(300, combinations(range(300), 2))
        text = format_graph(g)
        tracemalloc.start()
        try:
            parsed = parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == g and peak < len(text)

    def test_graph_reader_skips_comments_and_crlf_across_blocks(self):
        # 0.86 MB of text, so about 200 of the reader's blocks: lines end
        # in CRLF and comments lie on every side of the block boundaries.
        g = Graph(300, combinations(range(300), 2))
        text = format_graph(g).replace("\n", "\r\n  # note\r\n\n")
        assert parse_graph(text) == g
