import importlib.util
import json
import random
import sys
from itertools import combinations, count
from pathlib import Path

import networkx as nx
import pytest

import oracles
from pivotkit.cutrank import SUBSET_CAP, cut_rank
from pivotkit.errors import (CapExceeded, NotAnEdge, OrbitBudgetExceeded,
                             SearchBudgetExceeded)
from pivotkit.graph import Graph, shape
from pivotkit.pivot import _fixing, canonical_form, is_pivot_minor, pivot, pivot_orbit

from oracles import blow_up


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if (bits >> i) & 1])


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_list())
    return h


def complete(n):
    return Graph(n, combinations(range(n), 2))


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])


def gnp(rng, n, p):
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def k_nn(n):
    return Graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


def multipartite(sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return Graph(len(part), [(u, v) for u, v in combinations(range(len(part)), 2)
                             if part[u] != part[v]])


def with_true_twin(g, v):
    """g plus a new vertex joined to v and to every neighbour of v."""
    h = Graph(g.n + 1, g.edge_list())
    for u in range(g.n):
        if u == v or g.has_edge(u, v):
            h.add_edge(u, g.n)
    return h


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edge_list()]
        offset += g.n
    return Graph(offset, edges)


def complement(g):
    return Graph(g.n, [(u, v) for u, v in combinations(range(g.n), 2)
                       if not g.has_edge(u, v)])


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def petersen():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)])


def prism(k):
    """Two k-cycles joined by a perfect matching: vertex-transitive, and
    for k != 4 the rungs are an edge orbit of their own."""
    return Graph(2 * k, [(i, (i + 1) % k) for i in range(k)]
                 + [(k + i, k + (i + 1) % k) for i in range(k)]
                 + [(i, k + i) for i in range(k)])


def twin_heavy(rng):
    """Blow-ups, planted true twins and complete multipartite graphs."""
    graphs = []
    for _ in range(4):
        graphs.append(blow_up(gnp(rng, rng.randint(3, 5), 0.5), 2))
        base = gnp(rng, rng.randint(4, 6), 0.5)
        g = with_true_twin(base, 0)
        graphs.append(with_true_twin(g, base.n))
    return graphs + [multipartite(s) for s in ((3, 3, 3), (2, 2, 2, 2), (1, 2, 3))]


def pivot_cases():
    """Every labelled graph on two to five vertices, 300 seeded G(8, p)
    and 32 seeded G(n, p) on 9 to 24 vertices."""
    rng = random.Random(37)
    graphs = [g for n in range(2, 6) for g in all_graphs(n)]
    graphs += [gnp(rng, 8, rng.choice((0.2, 0.5, 0.8))) for _ in range(300)]
    return graphs + [gnp(rng, n, rng.choice((0.2, 0.5, 0.8))) for n in range(9, 25)
                     for _ in range(2)]


def _outcome(search, h, g, budget):
    """A pivot-minor search's answer and witness, or, when its budget runs
    out, the expansions and depth it reached."""
    try:
        return search(h, g, budget)
    except SearchBudgetExceeded as exc:
        return ("budget", exc.expanded, exc.depth)


@pytest.fixture
def expansions(monkeypatch):
    """The labelled keys of the states is_pivot_minor expands: it closes
    the orbits of one state per expansion."""
    module = sys.modules["pivotkit.pivot"]
    keys, firsts = [], module._orbit_firsts

    def counting(g, autos, deletions):
        keys.append(g.key())
        return firsts(g, autos, deletions)

    monkeypatch.setattr(module, "_orbit_firsts", counting)
    return keys


def _against_the_oracle(h, g, budget, expansions=None):
    """is_pivot_minor's outcome, checked against the BFS that expands
    every successor, which makes at least as many expansions: where the
    search stops, that BFS stops too, and where it answers, that BFS
    gives the same answer and witness at a budget of at least 20,000.
    Given the expansions fixture, that BFS also stops at a budget one
    below the search's expansions."""
    if expansions is not None:
        expansions.clear()
    got = _outcome(is_pivot_minor, h, g, budget)
    if got[0] == "budget":
        assert _outcome(oracles.is_pivot_minor, h, g, budget)[0] == "budget"
        return got
    assert got == _outcome(oracles.is_pivot_minor, h, g, max(budget, 20000))
    if expansions is not None and len(expansions) > 1:
        assert _outcome(oracles.is_pivot_minor, h, g, len(expansions) - 1)[0] == "budget"
    return got


class TestPivot:
    def test_single_edge_fixed(self):
        g = Graph(2, [(0, 1)])
        assert pivot(g, 0, 1) == g

    def test_path3(self):
        g = Graph(3, [(0, 1), (1, 2)])
        p = pivot(g, 0, 1)
        assert sorted(p.edge_list()) == [(0, 1), (0, 2)]

    def test_not_an_edge(self):
        with pytest.raises(NotAnEdge):
            pivot(Graph(3, [(0, 1)]), 0, 2)

    def test_involution_exhaustive_n4(self):
        for g in all_graphs(4):
            for u, v in g.edge_list():
                assert pivot(pivot(g, u, v), u, v) == g

    def test_symmetric_in_endpoints(self):
        for g in all_graphs(4):
            for u, v in g.edge_list():
                assert pivot(g, u, v) == pivot(g, v, u)

    def test_matches_the_three_pass_oracle(self):
        """Every edge, both ways round, of every labelled graph on at most
        five vertices, of 332 seeded G(n, p) on 8 to 24 vertices and of
        K_24."""
        for g in pivot_cases() + [complete(24)]:
            for u, v in g.edge_list():
                assert pivot(g, u, v) == oracles.pivot(g, u, v)
                assert pivot(g, v, u) == oracles.pivot(g, v, u)

    def test_pivots_keep_the_shape(self):
        """The component sizes and bipartiteness that is_pivot_minor
        compares agree with networkx and survive every pivot, both ways
        round, on the graphs of the test above but K_24."""
        for g in pivot_cases():
            x = to_nx(g)
            sizes = tuple(sorted(len(c) for c in nx.connected_components(x)))
            assert shape(g) == (sizes, nx.is_bipartite(x))
            for u, v in g.edge_list():
                assert shape(pivot(g, u, v)) == shape(pivot(g, v, u)) == shape(g)

    def test_bipartite_preserved_and_cutranks(self):
        for g in all_graphs(5):
            if not nx.is_bipartite(to_nx(g)):
                continue
            for u, v in g.edge_list():
                p = pivot(g, u, v)
                assert nx.is_bipartite(to_nx(p))
                # every cut-rank value is preserved
                for mask in range(1 << g.n):
                    xs = [w for w in range(g.n) if (mask >> w) & 1]
                    assert cut_rank(g, xs) == cut_rank(p, xs)


class TestPivotOrbit:
    def test_single_edge(self):
        assert len(pivot_orbit(Graph(2, [(0, 1)]), 10)) == 1

    def test_path3_orbit(self):
        orbit = pivot_orbit(Graph(3, [(0, 1), (1, 2)]), 10)
        keys = {g.key() for g in orbit}
        expected = {Graph(3, [(0, 1), (1, 2)]).key(),
                    Graph(3, [(0, 1), (0, 2)]).key(),
                    Graph(3, [(1, 2), (0, 2)]).key()}
        assert keys == expected

    def test_budget_exceeded(self):
        g = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                      if (i + j) % 2])
        with pytest.raises(OrbitBudgetExceeded):
            pivot_orbit(g, 1)

    @pytest.mark.parametrize("max_size, depth", [(5, 1), (7, 2)])
    def test_budget_exceeded_reports_progress(self, max_size, depth):
        # Levels 0 and 1 hold C6 and the six graphs its edge pivots give.
        with pytest.raises(OrbitBudgetExceeded) as info:
            pivot_orbit(Graph.cycle(6), max_size)
        exc = info.value
        assert exc.found == max_size + 1 and exc.depth == depth
        assert str(exc) == f"orbit exceeds {max_size}: found={max_size + 1} depth={depth}"

    @pytest.mark.parametrize("max_size", [0, -3])
    def test_max_size_below_one_rejected(self, max_size):
        with pytest.raises(ValueError):
            pivot_orbit(Graph(2, [(0, 1)]), max_size)

    def test_host_over_the_subset_cap(self):
        assert pivot_orbit(Graph(SUBSET_CAP), 1) == [Graph(SUBSET_CAP)]
        with pytest.raises(CapExceeded, match="25 vertices exceeds the cap 24"):
            pivot_orbit(Graph.path(SUBSET_CAP + 1), 10 ** 12)

    @pytest.mark.parametrize("max_size", [3, 50, 10 ** 6])
    def test_matches_frontier_oracle(self, max_size):
        # Every labelled graph on 1..5 vertices and 200 seeded G(n, p) on
        # 6..9: the same graphs in the same order, or the same stop.
        rng = random.Random(43)
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        for _ in range(200):
            n, p = rng.randint(6, 9), rng.random()
            graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))

        def outcome(orbit, g):
            try:
                return orbit(g, max_size)
            except OrbitBudgetExceeded as exc:
                return exc.found, exc.depth

        for g in graphs:
            assert outcome(pivot_orbit, g) == outcome(oracles.pivot_orbit, g), g.edge_list()

    def test_bipartite_orbit_stays_bipartite(self):
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)])
        for h in pivot_orbit(g, 500):
            assert nx.is_bipartite(to_nx(h))


class TestIsomorphism:
    def test_relabeled_path(self):
        g1 = Graph(3, [(0, 1), (1, 2)])
        g2 = Graph(3, [(1, 2), (0, 2)])
        assert canonical_form(g1) == canonical_form(g2)

    def test_path_vs_triangle(self):
        assert canonical_form(Graph(3, [(0, 1), (1, 2)])) != canonical_form(complete(3))

    def test_degree_sequence_prune(self):
        c6 = Graph.cycle(6)
        k2_blown = blow_up(Graph(2, [(0, 1)]), 2)  # C4, 4 vertices
        assert canonical_form(c6) != canonical_form(k2_blown)

    def test_canonical_form_invariant_under_relabeling(self):
        import random
        rng = random.Random(5)
        for g in [Graph.cycle(5), Graph.path(6), Graph(4, [(0, 1), (2, 3)])]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])
            assert canonical_form(g) == canonical_form(h)

    def test_canonical_form_separates_nonisomorphic(self):
        seen = {}
        for g in all_graphs(4):
            seen.setdefault(canonical_form(g), []).append(g)
        # 11 isomorphism classes of graphs on 4 vertices
        assert len(seen) == 11

    # Isomorphism classes of graphs on n vertices (OEIS A000088).
    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 4), (4, 11),
                                            (5, 34), (6, 156)])
    def test_forms_group_labelled_graphs_into_isomorphism_classes(self, n, classes):
        graphs = list(all_graphs(n))
        forms = {g.key(): canonical_form(g) for g in graphs}
        groups = {}
        for g in graphs:
            groups.setdefault(forms[g.key()], []).append(g)
        assert len(groups) == classes
        # Forms are invariant under a transposition and an n-cycle, which
        # generate every relabelling; with the class count this makes each
        # group exactly one isomorphism class.
        swap = [1, 0] + list(range(2, n))
        rotate = list(range(1, n)) + [0]
        for g in graphs:
            for perm in (swap, rotate):
                assert forms[relabel(g, perm).key()] == forms[g.key()]
        # VF2 agrees: every member up to n = 5, four seeded members per
        # class at n = 6 (all 32768 would add about 13 s).
        rng = random.Random(n)
        for first, *rest in groups.values():
            if n == 6:
                rest = rng.sample(rest, min(4, len(rest)))
            h = to_nx(first)
            assert all(nx.is_isomorphic(h, to_nx(g)) for g in rest)

    def test_forms_survive_seeded_relabelling(self):
        rng = random.Random(17)
        hosts = [gnp(rng, n, p) for n in range(7, 11) for p in (0.3, 0.5, 0.7)]
        # The symmetric ones took the ordering search up to 36 s each.
        symmetric = [Graph.cycle(10), k_nn(5), complete(10), Graph(12)]
        # Every vertex has a twin, and then regular graphs with twins whose
        # one degree cell holds several orbits, where a wrong swap would
        # prune the child that leads to the least leaf.
        c3_c4 = disjoint_union(Graph.cycle(3), Graph.cycle(4))
        k33_k4 = disjoint_union(k_nn(3), complete(4))
        twin_rich = [Graph(24), complete(24), k_nn(12),
                     disjoint_union(*[complete(3)] * 8), blow_up(Graph.cycle(6), 4),
                     c3_c4, complement(c3_c4), blow_up(c3_c4, 2), k33_k4, complement(k33_k4),
                     disjoint_union(k_nn(2), complete(3), complete(3))]
        for g in hosts + symmetric + twin_rich:
            form = canonical_form(g)
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == form

    def test_twin_heavy_forms_match_the_oracle_and_vf2(self):
        """Planted false twins (blow-ups), planted true twins and complete
        multipartite graphs on 7-12 vertices: equal forms must mean
        isomorphic, by the ordering search and by VF2."""
        rng = random.Random(41)
        graphs = []
        for _ in range(5):
            base = gnp(rng, rng.randint(5, 6), 0.5)
            toggled = Graph(base.n, set(base.edge_list()) ^ {(0, 1)})
            graphs += [blow_up(base, 2), blow_up(relabel(base, shuffled(rng, base.n)), 2),
                       blow_up(toggled, 2)]
            base = gnp(rng, rng.randint(5, 9), 0.5)
            v, u = rng.sample(range(base.n), 2)
            g = with_true_twin(base, v)
            # Copying v or its copy gives one graph up to isomorphism.
            graphs += [with_true_twin(g, v), with_true_twin(g, base.n), with_true_twin(g, u)]
        # Distinct part sizes up to 4 keep the ordering search to at most
        # 1!2!3!4! orderings; the next test takes equal part sizes.
        graphs += [multipartite(s) for s in ((3, 4), (1, 2, 4), (1, 3, 4),
                                             (2, 3, 4), (1, 2, 3, 4))]
        forms = [canonical_form(g) for g in graphs]
        keys = [oracles.canonical_form(g) for g in graphs]
        outcomes = set()
        for (g1, f1, k1), (g2, f2, k2) in combinations(zip(graphs, forms, keys), 2):
            if g1.n == g2.n:
                same = f1 == f2
                assert same == (k1 == k2) == nx.is_isomorphic(to_nx(g1), to_nx(g2))
                outcomes.add(same)
        assert outcomes == {True, False}
        for g, form in zip(graphs, forms):
            for _ in range(3):
                assert canonical_form(relabel(g, shuffled(rng, g.n))) == form

    def test_multipartite_forms_follow_the_part_sizes(self):
        """Complete multipartite graphs, where each part of two or more
        vertices is a twin class, are isomorphic exactly when their part
        sizes agree as multisets."""
        rng = random.Random(43)
        sizes = [(3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4), (3, 3, 3, 3), (2, 2, 4, 4),
                 (2, 3, 3, 4), (1, 1, 2, 2, 2, 2, 2), (1, 2, 2, 3, 4), (1, 1, 1, 3, 3, 3)]
        graphs = [(tuple(sorted(s)), multipartite(s)) for s in sizes]
        graphs += [(parts, relabel(g, shuffled(rng, g.n))) for parts, g in graphs]
        forms = [canonical_form(g) for _, g in graphs]
        for ((p1, g1), f1), ((p2, g2), f2) in combinations(zip(graphs, forms), 2):
            if g1.n == g2.n:
                assert (f1 == f2) == (p1 == p2) == nx.is_isomorphic(to_nx(g1), to_nx(g2))

    def test_appended_maps_are_automorphisms(self):
        """Each map canonical_form appends is a permutation that keeps the
        edge set, and the list leaves the form as it is.  On the
        vertex-transitive graphs the maps carry vertex 0 to every vertex,
        so the search keeps one deletion there."""
        rng = random.Random(47)
        transitive = [Graph.cycle(8), k_nn(4), petersen(), blow_up(Graph.cycle(6), 4), prism(5)]
        graphs = twin_heavy(rng) + transitive
        graphs += [relabel(g, shuffled(rng, g.n)) for g in graphs]
        transitive_forms = {canonical_form(t) for t in transitive}
        for g in graphs:
            autos = []
            assert canonical_form(g, autos) == canonical_form(g)
            assert autos, g
            edges = set(g.edge_list())
            for a in autos:
                assert sorted(a) == list(range(g.n))
                assert {(min(a[u], a[v]), max(a[u], a[v])) for u, v in edges} == edges
            if canonical_form(g) in transitive_forms:
                orbit, stack = {0}, [0]
                while stack:
                    u = stack.pop()
                    for a in autos:
                        if a[u] not in orbit:
                            orbit.add(a[u])
                            stack.append(a[u])
                assert len(orbit) == g.n

    def test_only_maps_fixing_the_path_prune(self):
        """A child's subtree is mapped onto another's only by maps that fix
        every individualized vertex: with 0 and 1 individualized, the
        identity and the swap of 2 and 3 are kept, and the swap of 1 and 2
        is dropped.  With nothing individualized every map is kept."""
        identity, swap23, swap12 = [0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3]
        autos = [(identity, 0b1111), (swap12, 0b1001), (swap23, 0b0011)]
        assert _fixing(autos, 0b0011) == [identity, swap23]
        assert _fixing(autos, 0b0010) == [identity, swap23]
        assert _fixing(autos, 0) == [identity, swap12, swap23]

    def test_are_isomorphic_agrees_with_vf2(self):
        """Two graphs have equal canonical forms exactly when VF2 finds
        an isomorphism."""
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 8)
            p = rng.choice((0.3, 0.5))
            g1 = gnp(rng, n, p)
            # Half the pairs are relabellings, so both answers occur.
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                g2 = relabel(g1, perm)
            else:
                g2 = gnp(rng, n, p)
            same = canonical_form(g1) == canonical_form(g2)
            assert same == nx.is_isomorphic(to_nx(g1), to_nx(g2))

    def test_large_forms_code_a_relabelled_adjacency_matrix(self):
        """At 17 to 24 vertices, where a leaf code spans n² bits, the code
        holds a relabelling of g's adjacency matrix, its first row in the
        top n bits.  Forms survive seeded relabelling, and separate each
        seeded G(n, p) from the graph a 2-switch makes of it, which keeps
        every degree, exactly when VF2 calls the two non-isomorphic."""
        rng = random.Random(71)
        graphs = [Graph.cycle(17), prism(9), complete(19), k_nn(10), blow_up(Graph.cycle(6), 4)]
        pairs = []
        for n in range(17, 25):
            g = gnp(rng, n, rng.choice((0.3, 0.5)))
            edges = set(g.edge_list())
            while True:  # ab, cd -> ac, bd
                (a, b), (c, d) = rng.sample(sorted(edges), 2)
                ac, bd = (min(a, c), max(a, c)), (min(b, d), max(b, d))
                if len({a, b, c, d}) == 4 and not edges & {ac, bd}:
                    break
            switched = Graph(n, edges - {(a, b), (c, d)} | {ac, bd})
            graphs += [g, switched]
            pairs.append((g, switched))
        forms = {}
        for g in graphs:
            n, code = forms[g.key()] = canonical_form(g)
            rows = [code >> n * (n - 1 - i) & ((1 << n) - 1) for i in range(n)]
            assert code >> n * n == 0 and not any(rows[v] >> v & 1 for v in range(n))
            assert all(rows[u] >> v & 1 == rows[v] >> u & 1 for u in range(n) for v in range(n))
            leaf = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1])
            assert nx.is_isomorphic(to_nx(leaf), to_nx(g))
            for _ in range(2):
                assert canonical_form(relabel(g, shuffled(rng, n))) == forms[g.key()]
        outcomes = set()
        for g1, g2 in pairs:
            same = forms[g1.key()] == forms[g2.key()]
            assert same == nx.is_isomorphic(to_nx(g1), to_nx(g2))
            outcomes.add(same)
        assert False in outcomes


class TestIsPivotMinor:
    def test_reflexive(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        found, witness = is_pivot_minor(g, g, 100)
        assert found and witness == []

    def test_delete_endpoint(self):
        h = Graph.path(3)
        g = Graph.path(4)
        found, witness = is_pivot_minor(h, g, 1000)
        assert found
        assert any(step[0] == "delete" for step in witness)

    def test_triangle_not_in_bipartite(self):
        h = complete(3)
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)])
        found, _ = is_pivot_minor(h, g, 50000)
        assert not found

    def test_budget_exceeded_is_distinct(self):
        h = complete(3)
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)])
        with pytest.raises(SearchBudgetExceeded):
            is_pivot_minor(h, g, 2)

    def test_budget_exceeded_reports_progress(self):
        h = complete(3)
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)])
        with pytest.raises(SearchBudgetExceeded) as info:
            is_pivot_minor(h, g, 2)
        exc = info.value
        assert (exc.expanded, exc.stored, exc.depth) == (2, 7, 1)
        assert str(exc) == "budget 2 exhausted: expanded=2 stored=7 depth=1"

    @pytest.mark.parametrize("budget, stored, depth", [(1, 3, 1), (5, 37, 2), (30, 179, 4)])
    def test_budget_stop_computes_no_form(self, monkeypatch, budget, stored, depth):
        """A stop reports the labelled graphs the search stored, so the only
        form computed without a maps list is H's: the queued states are not
        canonicalised for a figure."""
        module = sys.modules["pivotkit.pivot"]
        form, bare = module.canonical_form, []

        def recording(g, automorphisms=None):
            if automorphisms is None:
                bare.append(g.key())
            return form(g, automorphisms)

        monkeypatch.setattr(module, "canonical_form", recording)
        with pytest.raises(SearchBudgetExceeded) as info:
            is_pivot_minor(Graph.cycle(5), Graph.cycle(8), budget)
        exc = info.value
        assert bare == [Graph.cycle(5).key()]
        assert (exc.expanded, exc.stored, exc.depth) == (budget, stored, depth)

    @pytest.mark.parametrize("budget", [1, 20000])
    def test_host_of_h_size_and_another_shape_answers_at_once(self, monkeypatch, budget):
        """Pivots keep the shape, so when G has as many vertices as H but
        another shape, the search answers False after H's form and G's,
        without a pivot, at any budget: C5 in P5, which is bipartite, and
        in a triangle beside an edge, which is not connected."""
        module = sys.modules["pivotkit.pivot"]
        form, pivoted, forms, pivots = module.canonical_form, module._pivoted, [], []

        def recording(g, automorphisms=None):
            forms.append(g.key())
            return form(g, automorphisms)

        def counting(adj, x, y):
            pivots.append((x, y))
            return pivoted(adj, x, y)

        monkeypatch.setattr(module, "canonical_form", recording)
        monkeypatch.setattr(module, "_pivoted", counting)
        h = Graph.cycle(5)
        for g in (Graph.path(5), Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])):
            forms.clear()
            assert is_pivot_minor(h, g, budget) == (False, None)
            assert forms == [h.key(), g.key()] and pivots == []

    @pytest.mark.parametrize("budget", [0, -1, -5])
    def test_budget_below_one_rejected(self, budget):
        g = Graph.path(4)
        with pytest.raises(ValueError):
            is_pivot_minor(g, g, budget)
        with pytest.raises(ValueError):
            is_pivot_minor(Graph.path(5), g, budget)

    def test_host_over_the_subset_cap(self, monkeypatch):
        """A host of 24 vertices is searched; one of 25 raises before any
        canonical form is computed, whatever the budget."""
        assert is_pivot_minor(Graph(SUBSET_CAP), Graph(SUBSET_CAP), 1) == (True, [])
        monkeypatch.setattr(sys.modules["pivotkit.pivot"], "canonical_form", None)
        for h in (Graph.path(3), Graph.path(30)):
            with pytest.raises(CapExceeded, match="25 vertices exceeds the cap 24"):
                is_pivot_minor(h, Graph.path(SUBSET_CAP + 1), 10 ** 12)

    def test_orbits_closed_only_for_expanded_states(self, expansions):
        """A queued state keeps its maps; its orbits are closed when it is
        expanded, so a run stopped by its budget closes exactly as many
        as it expanded."""
        for budget in (1, 5, 30):
            expansions.clear()
            with pytest.raises(SearchBudgetExceeded) as info:
                is_pivot_minor(Graph.cycle(5), Graph.cycle(8), budget)
            assert len(expansions) == info.value.expanded == budget

    def test_same_answers_as_the_ordering_search(self, monkeypatch):
        """The BFS keeps the first labelled graph of each class, so any
        exact canonical form gives the same witnesses."""
        rng = random.Random(29)
        hosts = [gnp(rng, 7, 0.5) for _ in range(20)]
        queries = [(h, g) for g in hosts for h in (Graph.cycle(5), Graph.path(5))]
        # The bench's symmetric hosts, where twin swaps prune the most.
        queries += [(h, g) for g in (Graph.cycle(8), k_nn(4))
                    for h in (Graph.cycle(5), Graph.path(5), Graph.cycle(6))]
        new = [is_pivot_minor(h, g, 20000) for h, g in queries]
        # The ordering search finds no automorphisms, so every successor
        # is expanded.
        monkeypatch.setattr(sys.modules["pivotkit.pivot"], "canonical_form",
                            lambda g, automorphisms=None: oracles.canonical_form(g))
        assert [is_pivot_minor(h, g, 20000) for h, g in queries] == new
        assert any(found for found, _ in new) and not all(found for found, _ in new)

    def test_same_outcomes_as_the_oracle_bfs(self, expansions):
        """The labelled-repeat skip and the shape drop remove only states
        that cannot reach H, so the search gives the answer and witness of
        the BFS that canonicalises every successor, from no more
        expansions."""
        rng = random.Random(11)
        kinds = set()
        for _ in range(80):
            n = rng.randint(3, 7)
            g = gnp(rng, n, rng.choice((0.3, 0.5, 0.7)))
            h = gnp(rng, rng.randint(1, n), rng.choice((0.3, 0.5, 0.7)))
            budget = rng.choice((1, 3, 10, 100, 20000))
            kinds.add(_against_the_oracle(h, g, budget, expansions)[0])
        assert kinds == {True, False, "budget"}

    def test_small_graphs_against_the_oracle_bfs(self, monkeypatch):
        """Every pair of graphs from the atlas with |H| <= |G| <= 5, and every
        6-vertex G against P4, C4, C5, P5 and C6, gets the answer and
        witness of the BFS that expands every successor.  That BFS runs
        with this module's canonical form; checking the expansions here
        too would double its time."""
        monkeypatch.setattr(oracles, "canonical_form", canonical_form)
        atlas = [Graph(x.number_of_nodes(), x.edges()) for x in nx.graph_atlas_g()]
        small = [g for g in atlas if g.n <= 5]
        queries = [(h, g) for g in small for h in small if h.n <= g.n]
        queries += [(h, g) for g in atlas if g.n == 6
                    for h in (Graph.path(4), Graph.cycle(4), Graph.cycle(5),
                              Graph.path(5), Graph.cycle(6))]
        answers = {_against_the_oracle(h, g, 20000)[0] for h, g in queries}
        assert answers == {True, False}

    def test_each_labelled_graph_canonicalised_once(self, monkeypatch):
        """Pivoting an edge back gives the parent; a BFS that
        canonicalises every successor gives the same answer with 530
        calls on 352 labelled graphs, and one that skips only labelled
        repeats with those 352.  Expanding one successor per
        automorphism orbit leaves 217, and dropping the 5-vertex states
        whose shape is not C5's leaves 173."""
        module = sys.modules["pivotkit.pivot"]
        form, keys = module.canonical_form, []

        def recording(g, automorphisms=None):
            keys.append(g.key())
            return form(g, automorphisms)

        monkeypatch.setattr(module, "canonical_form", recording)
        assert is_pivot_minor(Graph.cycle(5), Graph.cycle(8), 20000) == (False, None)
        assert len(keys) == len(set(keys)) == 173

    @pytest.mark.parametrize("h, found, calls", [
        (Graph.path(5), True, 18), (Graph.cycle(6), True, 12),
        (Graph.path(4), True, 75), (Graph.cycle(5), False, 173)], ids=["P5", "C6", "P4", "C5"])
    def test_successors_are_canonicalised_as_they_leave_the_queue(self, monkeypatch,
                                                                  h, found, calls):
        """A successor with as many vertices as H is canonicalised when it
        is met, unless its shape is not H's, any other only when it leaves
        the queue.  In C8, P5, C6 and P4 are found with 18, 12 and 75
        calls, where canonicalising each successor as it is met takes 74,
        46 and 169; the "no" query C5 takes 173.  After H's own form, each
        labelled graph is counted once."""
        module = sys.modules["pivotkit.pivot"]
        form, keys = module.canonical_form, []

        def recording(g, automorphisms=None):
            keys.append(g.key())
            return form(g, automorphisms)

        monkeypatch.setattr(module, "canonical_form", recording)
        assert is_pivot_minor(h, Graph.cycle(8), 20000)[0] == found
        assert len(keys) == calls and len(set(keys[1:])) == calls - 1

    def test_budget_stops_mid_level_as_the_oracle(self, monkeypatch):
        """At each budget from 1 to the one where the BFS that
        canonicalises each successor as it meets it answers, a budget that
        runs out partway through a level either stops the search or lets it
        give that BFS's answer and witness, and at that last budget the
        search has answered.  C5 in C8 answers with 35 expansions where
        that BFS takes 46."""
        monkeypatch.setattr(oracles, "canonical_form", canonical_form)
        queries = [(Graph.cycle(5), Graph.cycle(8)), (Graph.path(5), k_nn(4)),
                   (Graph.path(5), gnp(random.Random(59), 8, 0.5))]
        answers = []
        for h, g in queries:
            early = []  # the search's outcomes at the budgets where it answers
            for budget in count(1):
                got = _outcome(is_pivot_minor, h, g, budget)
                if got[0] != "budget":
                    early.append(got)
                want = _outcome(oracles.is_pivot_minor, h, g, budget)
                if want[0] != "budget":
                    break
            assert early[-1] is got and all(e == want for e in early)
            answers.append((want[0], budget - len(early) + 1, budget))
        assert answers[0] == (False, 35, 46)
        assert [a[0] for a in answers] == [False, False, True]

    def test_orbit_rule_keeps_the_oracle_outcomes(self, monkeypatch):
        """On symmetric hosts, where one successor per orbit prunes the
        most, the search gives the answer and witness of the BFS that
        builds and canonicalises every successor.  That BFS runs here with
        this module's canonical form, so the two differ only in the
        search; its own ordering search takes about a minute per query on
        the Petersen graph.  Checking the expansions here too would add
        half the test's time."""
        monkeypatch.setattr(oracles, "canonical_form", canonical_form)
        rng = random.Random(53)
        # On the prism, pruning edges by the vertex orbits of their ends
        # would take a rung for a cycle edge.
        hosts = [Graph.cycle(8), k_nn(4), petersen(), blow_up(Graph.cycle(6), 2), prism(5)]
        hosts += twin_heavy(rng)[-4:]
        queries = [(h, g, 20000) for g in hosts
                   for h in (Graph.cycle(5), Graph.path(5), Graph.cycle(6), Graph.path(4))]
        # Beyond 30 states the 24-vertex blow-up takes about 20 s.
        queries.append((Graph.cycle(5), blow_up(Graph.cycle(6), 4), 30))
        kinds = set()
        for h, g, budget in queries:
            kinds.add(_against_the_oracle(h, g, budget)[0])
        assert kinds == {True, False, "budget"}

    def test_pinned_bench_queries(self, monkeypatch):
        """Every pooled pivot-search unit of the benchmark keeps its
        pinned answer and witness, and each witness replays to a copy of
        H.  The pool takes 18,420 canonical forms, 7,717 of them on the
        "no" queries."""
        module = sys.modules["pivotkit.pivot"]
        form, calls = module.canonical_form, [0]

        def counting(g, automorphisms=None):
            calls[0] += 1
            return form(g, automorphisms)

        monkeypatch.setattr(module, "canonical_form", counting)
        bench = Path(__file__).resolve().parents[1] / "bench"
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        pins = json.loads((bench / "pins.json").read_text())["pivot-search"]
        search = workloads.PivotSearch()
        pool = search.pool()
        assert len(pool) == len(pins) == 78
        no_calls = 0
        for unit in pool:
            h, g = search.prepare(unit)
            before = calls[0]
            found, steps = search.run((h, g))
            no_calls += 0 if found else calls[0] - before
            assert search.record((found, steps)) == pins[search.key(unit)], unit
            if found:
                for step in steps:
                    g = oracles.pivot(g, *step[1:]) if step[0] == "pivot" \
                        else g.delete_vertex(step[1])
                assert nx.is_isomorphic(to_nx(g), to_nx(h)), unit
        assert (calls[0], no_calls) == (18420, 7717)

    def test_witness_replays(self):
        h = Graph(3, [(0, 1), (0, 2)])
        g = Graph.path(4)
        found, witness = is_pivot_minor(h, g, 5000)
        assert found
        cur = g
        for step in witness:
            if step[0] == "pivot":
                cur = pivot(cur, step[1], step[2])
            else:
                cur = cur.delete_vertex(step[1])
        assert canonical_form(cur) == canonical_form(h)

    def test_larger_h_false(self):
        assert is_pivot_minor(Graph.path(5), Graph.path(4), 10) == (False, None)
