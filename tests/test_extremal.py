import random

import pytest

from pivotkit.extremal import (Instance, format_instance,
                               gen_c6_blowup_example, gen_ktt_example,
                               gen_random_instance)
from pivotkit.graph import Graph, degree_stats, find_complete_bipartite
from pivotkit.matroid import graphic_matroid, parse_multigraph
from pivotkit.pivot import canonical_form

from oracles import blow_up, fundamental_matrix_by_solving


class TestKttExample:
    def test_fundamental_is_complete_bipartite(self):
        for t in (2, 3, 5):
            inst = gen_ktt_example(t)
            g = inst.fundamental
            assert (g.nrows, g.ncols) == (t - 1, t - 1)
            assert degree_stats(g).min_degree == t - 1

    def test_contains_ktt_minus_one(self):
        inst = gen_ktt_example(5)
        assert find_complete_bipartite(inst.fundamental, 4, 4) is not None
        assert find_complete_bipartite(inst.fundamental, 4, 5) is None

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            gen_ktt_example(1)

    def test_fundamental_matches_solver_oracle(self):
        inst = gen_ktt_example(4)
        d, _, _ = fundamental_matrix_by_solving(inst.multigraph, inst.tree)
        assert inst.fundamental == d


class TestC6BlowupExample:
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_fundamental_is_blown_up_six_cycle(self, s):
        inst = gen_c6_blowup_example(s)
        got = graphic_matroid(inst.multigraph, inst.tree).element_graph()
        want = blow_up(Graph.cycle(6), s - 1)
        assert canonical_form(got) == canonical_form(want)

    def test_min_degree(self):
        for s in (2, 3, 4):
            st = degree_stats(gen_c6_blowup_example(s).fundamental)
            assert st.min_degree == 2 * (s - 1)

    def test_is_kss_free(self):
        inst = gen_c6_blowup_example(3)
        assert find_complete_bipartite(inst.fundamental, 3, 3) is None
        assert find_complete_bipartite(inst.fundamental, 2, 4) is not None

    def test_rejects_small_s(self):
        with pytest.raises(ValueError):
            gen_c6_blowup_example(1)

    def test_fundamental_matches_solver_oracle(self):
        inst = gen_c6_blowup_example(3)
        d, _, _ = fundamental_matrix_by_solving(inst.multigraph, inst.tree)
        assert inst.fundamental == d


class TestRandomInstance:
    def test_deterministic_per_seed(self):
        a = gen_random_instance(8, 5, 42)
        b = gen_random_instance(8, 5, 42)
        assert a.multigraph.edges == b.multigraph.edges
        assert a.tree == b.tree
        assert a.fundamental == b.fundamental

    def test_different_seeds_usually_differ(self):
        instances = {tuple(gen_random_instance(8, 5, s).multigraph.edges)
                     for s in range(10)}
        assert len(instances) > 1

    def test_tree_is_spanning(self):
        for seed in range(15):
            inst = gen_random_instance(7, 3, seed)
            # graphic_matroid validates the spanning tree internally
            graphic_matroid(inst.multigraph, inst.tree)

    def test_no_loops_by_default(self):
        for seed in range(15):
            inst = gen_random_instance(5, 6, seed)
            assert all(u != v for _, u, v in inst.multigraph.edges)

    def test_large_instance_memory(self):
        # MultiGraph has no vertex cap, so its walk keeps edge lists: a
        # 20,000-vertex instance peaks near 13 MB.  One adjacency bitmask
        # per vertex would take it near 50 MB.
        import tracemalloc
        tracemalloc.start()
        try:
            gen_random_instance(20000, 5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2 ** 20

    def test_loops_allowed_when_asked(self):
        found = any(u == v
                    for seed in range(30)
                    for _, u, v in gen_random_instance(3, 6, seed,
                                                       allow_loops=True).multigraph.edges)
        assert found

    def test_fundamental_matches_solver_oracle(self):
        for seed in range(10):
            inst = gen_random_instance(6, 4, seed)
            d, _, _ = fundamental_matrix_by_solving(inst.multigraph, inst.tree)
            assert inst.fundamental == d

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_random_instance(1, 0, 0)
        with pytest.raises(ValueError):
            gen_random_instance(4, -1, 0)


class TestFormatInstance:
    def test_round_trip_with_provenance(self):
        inst = gen_ktt_example(3)
        text = format_instance(inst)
        assert text.startswith("# gen ktt t=3\n")
        mg, tree = parse_multigraph(text)
        assert mg.edges == inst.multigraph.edges
        assert tree == inst.tree
