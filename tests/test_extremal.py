import random

import pytest

from pivotkit._text import HEADER_CAP
from pivotkit.errors import CapExceeded
from pivotkit.extremal import (Instance, _random_tree_edges, format_instance,
                               gen_c6_blowup_example, gen_ktt_example,
                               gen_random_instance)
from pivotkit.graph import Graph, degree_stats, find_complete_bipartite
from pivotkit.matroid import MultiGraph, graphic_matroid, parse_multigraph
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
        # 20,000-vertex random tree with 5 extra edges peaks near 13 MB.
        # One adjacency bitmask per vertex would take it near 50 MB.  The
        # generators stop at HEADER_CAP, so the multigraph is built here.
        import tracemalloc
        tracemalloc.start()
        try:
            rng = random.Random(1)
            edges = [(f"t{i}", u, v) for i, (u, v) in enumerate(_random_tree_edges(20000, rng))]
            edges += [(f"f{i}", rng.randrange(20000), rng.randrange(20000)) for i in range(5)]
            graphic_matroid(MultiGraph(20000, edges), frozenset(e[0] for e in edges[:19999]))
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


class TestInstanceCap:
    # Each generator builds an instance at the cap and refuses one past it
    # before building any list.
    def test_at_the_cap(self):
        assert HEADER_CAP == 1000
        assert gen_ktt_example(1000).multigraph.n == 1000
        assert gen_c6_blowup_example(334).multigraph.n == 1000
        inst = gen_random_instance(1000, 1000, 0)
        assert (inst.multigraph.n, len(inst.multigraph.edges)) == (1000, 1999)

    @pytest.mark.parametrize("make, message", [
        (lambda: gen_ktt_example(1001), "1001 vertices"),
        (lambda: gen_c6_blowup_example(335), "1003 vertices"),
        (lambda: gen_random_instance(1001, 0, 0), "1001 vertices"),
        (lambda: gen_random_instance(2, 1001, 0), "1001 extra edges"),
    ], ids=["ktt", "c6blowup", "random-n", "random-extra"])
    def test_past_the_cap(self, make, message):
        with pytest.raises(CapExceeded, match=f"^{message} exceeds the instance cap 1000$"):
            make()

    def test_usage_errors_come_before_the_cap(self):
        with pytest.raises(ValueError):
            gen_random_instance(10 ** 20, -1, 0)


class TestFormatInstance:
    def test_round_trip_with_provenance(self):
        inst = gen_ktt_example(3)
        text = format_instance(inst)
        assert text.startswith("# gen ktt t=3\n")
        mg, tree = parse_multigraph(text)
        assert mg.edges == inst.multigraph.edges
        assert tree == inst.tree
