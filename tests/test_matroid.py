import random
from collections import Counter

import pytest

from pivotkit import matroid
from pivotkit.cutrank import SUBSET_CAP, cut_rank
from pivotkit.errors import (ElementNotFound, FormatError, GroundSetTooLarge,
                             NotASpanningTree, NotConnected, PivotOnZero,
                             SubsetCapExceeded)
from pivotkit.extremal import gen_c6_blowup_example, gen_ktt_example
from pivotkit.gf2 import BitMatrix
from pivotkit.matroid import (BinaryMatroid, MultiGraph,
                              change_basis, circuits, cographic_matroid,
                              connectivity_kernel, connectivity_lambda,
                              format_matroid, format_multigraph,
                              graphic_matroid,
                              is_k_connected, minor, parse_matroid,
                              parse_multigraph)
from pivotkit.pivot import pivot
from pivotkit.verify import _random_matroid

from oracles import circuits as circuits_by_power_set
from oracles import connectivity_lambda as connectivity_lambda_oracle
from oracles import (fundamental_matrix_by_solving, multigraph_cycles,
                     multigraph_minor)
from oracles import first_separation as first_separation_single_pass
from oracles import is_k_connected as is_k_connected_multi_pass


def triangle():
    mg = MultiGraph(3, [("e0", 0, 1), ("e1", 1, 2), ("e2", 0, 2)])
    return mg, frozenset({"e0", "e1"})


def random_connected_multigraph(rng, n_max=6, extra_max=4, allow_loops=True):
    """A random spanning tree plus random extra edges (parallels/loops ok)."""
    n = rng.randint(1, n_max)
    edges = []
    for v in range(1, n):
        edges.append((f"e{v - 1}", rng.randrange(v), v))
    tree = frozenset(lab for lab, _, _ in edges)
    k = n - 1
    for _ in range(rng.randint(0, extra_max)):
        u = rng.randrange(n)
        v = rng.randrange(n) if allow_loops else rng.choice(
            [w for w in range(n) if w != u] or [u])
        edges.append((f"e{k}", u, v))
        k += 1
    return MultiGraph(n, edges), tree


class TestFundamentalMatrix:
    def test_triangle(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        assert m.basis == ("e0", "e1") and m.nonbasis == ("e2",)
        assert m.rep == BitMatrix(2, 1, [1, 1])

    def test_loop_gives_zero_column(self):
        mg = MultiGraph(2, [("t", 0, 1), ("l", 1, 1)])
        m = graphic_matroid(mg, frozenset({"t"}))
        assert m.nonbasis == ("l",) and m.rep == BitMatrix(1, 1)

    def test_parallel_edge(self):
        mg = MultiGraph(2, [("t", 0, 1), ("p", 0, 1)])
        assert graphic_matroid(mg, frozenset({"t"})).rep == BitMatrix(1, 1, [1])

    def test_matches_incidence_solving_oracle(self):
        rng = random.Random(23)
        for i in range(400):
            mg, t = random_connected_multigraph(rng, allow_loops=False)
            if i % 2:  # half of the instances get a loop at a random position
                v = rng.randrange(mg.n)
                mg.edges.insert(rng.randint(0, len(mg.edges)), ("loop", v, v))
            m = graphic_matroid(mg, t)
            od, orows, ocols = fundamental_matrix_by_solving(mg, t)
            assert (list(m.basis), list(m.nonbasis)) == (orows, ocols)
            assert m.rep == od

    def test_a_valid_tree_is_walked_once(self, monkeypatch):
        calls = []

        def counting(n, edges):
            calls.append(len(edges))
            return real(n, edges)

        real = matroid._walk
        monkeypatch.setattr(matroid, "_walk", counting)
        mg = MultiGraph(4, [("e0", 0, 1), ("f", 0, 3), ("e1", 1, 2), ("e2", 2, 3), ("l", 2, 2)])
        m = graphic_matroid(mg, frozenset({"e0", "e1", "e2"}))
        assert m.rep == BitMatrix(3, 2, [1, 1, 1])
        assert calls == [3]  # the tree edges only

    def test_not_connected(self):
        mg = MultiGraph(3, [("e0", 0, 1)])
        with pytest.raises((NotConnected, NotASpanningTree)):
            graphic_matroid(mg, frozenset({"e0"}))

    def test_not_connected_is_raised_before_any_tree_check(self):
        mg = MultiGraph(4, [("e0", 0, 1), ("e1", 2, 3), ("l", 2, 2)])
        for tree in ({"e0"}, {"e0", "l"}, {"e0", "e1", "nope"}):
            with pytest.raises(NotConnected):
                graphic_matroid(mg, frozenset(tree))

    def test_bad_tree(self):
        mg, _ = triangle()
        with pytest.raises(NotASpanningTree, match="^tree has 1 edges, expected 2$"):
            graphic_matroid(mg, frozenset({"e0"}))
        with pytest.raises(NotASpanningTree, match="^tree has 3 edges, expected 2$"):
            graphic_matroid(mg, frozenset({"e0", "e1", "e2"}))
        with pytest.raises(NotASpanningTree, match="^unknown tree edge label: x$"):
            graphic_matroid(mg, frozenset({"e0", "x"}))
        # Three tree edges on four vertices, two of them parallel: the
        # count is right, but vertex 3 is not reached.
        mg = MultiGraph(4, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2), ("d", 2, 3)])
        with pytest.raises(NotASpanningTree, match="^tree edges do not span every vertex$"):
            graphic_matroid(mg, frozenset({"a", "b", "c"}))


class TestCircuits:
    def test_triangle_graphic(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        assert circuits(m) == frozenset({frozenset({"e0", "e1", "e2"})})

    def test_loop_is_a_circuit(self):
        mg = MultiGraph(2, [("t", 0, 1), ("l", 1, 1)])
        m = graphic_matroid(mg, frozenset({"t"}))
        assert frozenset({"l"}) in circuits(m)

    def test_parallel_pair_is_a_circuit(self):
        mg = MultiGraph(2, [("t", 0, 1), ("p", 0, 1)])
        m = graphic_matroid(mg, frozenset({"t"}))
        assert circuits(m) == frozenset({frozenset({"t", "p"})})

    def test_matches_cycle_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            mg, t = random_connected_multigraph(rng, n_max=5, extra_max=3)
            if len(mg.edges) > 10:
                continue
            m = graphic_matroid(mg, t)
            assert circuits(m) == multigraph_cycles(mg)

    def test_matches_power_set_oracle_on_random_matroids(self):
        # Seeded binary matroids of 2-12 elements with planted loops (zero
        # columns), coloops (zero rows) and parallel pairs (a repeated
        # column, or a unit column parallel to a basis element).
        rng = random.Random(59)
        kinds = set()
        for _ in range(150):
            ne = rng.randint(2, 12)
            nr = rng.randint(0, ne)
            nc = ne - nr
            cols = [rng.randrange(1 << nr) for _ in range(nc)]
            if nc and rng.random() < 0.3:
                cols[rng.randrange(nc)] = 0
            if nc > 1 and rng.random() < 0.3:
                cols[rng.randrange(nc)] = cols[rng.randrange(nc)]
            if nc and nr and rng.random() < 0.3:
                cols[rng.randrange(nc)] = 1 << rng.randrange(nr)
            rows = [sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(nr)]
            if nr and rng.random() < 0.3:
                rows[rng.randrange(nr)] = 0
            m = BinaryMatroid([f"b{i}" for i in range(nr)], [f"c{j}" for j in range(nc)],
                              BitMatrix(nr, nc, rows))
            got = circuits(m)
            assert got == circuits_by_power_set(m)
            kinds |= {"loop" if len(c) == 1 else "parallel" if len(c) == 2 else "other"
                      for c in got}
            kinds |= {"coloop" for e in m.ground() if not any(e in c for c in got)}
        assert kinds == {"loop", "parallel", "coloop", "other"}

    @staticmethod
    def from_columns(vectors):
        """The binary matroid whose elements are the given GF(2) vectors,
        with the first rank-many of them, the unit vectors, as basis."""
        r = max(vectors).bit_length()
        assert vectors[:r] == [1 << i for i in range(r)]
        rows = [sum((v >> i & 1) << j for j, v in enumerate(vectors[r:])) for i in range(r)]
        return BinaryMatroid([f"p{v}" for v in vectors[:r]], [f"p{v}" for v in vectors[r:]],
                             BitMatrix(r, len(vectors) - r, rows))

    def test_projective_and_affine_geometries(self):
        # PG(3,2): the 15 nonzero vectors of GF(2)^4; its circuits are the
        # 35 lines, 105 4-sets and 168 5-sets.  AG(4,2): the 16 points v of
        # GF(2)^4 as the vectors (v, 1) of GF(2)^5, written in the basis of
        # the points e1..e4 and 0, so v maps to v plus bit 4 when |v| is
        # even.  It has 16 elements (the cap); its circuits are the 140
        # planes and 448 6-sets.
        pg = self.from_columns([1, 2, 4, 8] + [v for v in range(1, 16) if v & (v - 1)])
        ag = self.from_columns([1, 2, 4, 8, 16] + [v | (v.bit_count() + 1) % 2 << 4
                                                   for v in range(16) if v & (v - 1)])
        assert (len(pg.ground()), len(ag.ground())) == (15, 16)
        for m, sizes in ((pg, {3: 35, 4: 105, 5: 168}), (ag, {4: 140, 6: 448})):
            got = circuits(m)
            assert got == circuits_by_power_set(m)
            assert Counter(map(len, got)) == sizes

    def test_cap(self):
        rep = BitMatrix(9, 8)
        m = BinaryMatroid([f"b{i}" for i in range(9)],
                          [f"c{j}" for j in range(8)], rep)
        with pytest.raises(GroundSetTooLarge):
            circuits(m)


class TestChangeBasis:
    def test_triangle_exchange(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        m2 = change_basis(m, "e0", "e2")
        assert set(m2.basis) == {"e2", "e1"}
        assert circuits(m2) == circuits(m)

    def test_pivot_on_zero(self):
        mg = MultiGraph(2, [("t", 0, 1), ("l", 1, 1)])
        m = graphic_matroid(mg, frozenset({"t"}))
        with pytest.raises(PivotOnZero):
            change_basis(m, "t", "l")

    def test_missing_element(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        with pytest.raises(ElementNotFound):
            change_basis(m, "nope", "e2")

    def test_involution_and_circuits_preserved(self):
        rng = random.Random(37)
        for _ in range(30):
            mg, t = random_connected_multigraph(rng, n_max=5, extra_max=3)
            if len(mg.edges) > 10:
                continue
            m = graphic_matroid(mg, t)
            base = circuits(m)
            for x in m.basis:
                i = m.row_of(x)
                for j, y in enumerate(m.nonbasis):
                    if m.rep.get(i, j):
                        m2 = change_basis(m, x, y)
                        assert circuits(m2) == base
                        back = change_basis(m2, y, x)
                        assert back == m

    def test_matches_graph_pivot(self):
        """Basis exchange on the matroid = pivot on its element graph."""
        rng = random.Random(41)
        for _ in range(30):
            mg, t = random_connected_multigraph(rng, n_max=5, extra_max=3)
            m = graphic_matroid(mg, t)
            g = m.element_graph()
            order = m.element_order()
            pos = {e: i for i, e in enumerate(order)}
            for x in m.basis:
                i = m.row_of(x)
                for j, y in enumerate(m.nonbasis):
                    if m.rep.get(i, j):
                        g2 = change_basis(m, x, y).element_graph()
                        assert g2 == pivot(g, pos[x], pos[y])


class TestMinor:
    def test_delete_nonbasis(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        m2 = minor(m, {"e2"}, set())
        assert set(m2.ground()) == {"e0", "e1"}
        assert circuits(m2) == frozenset()

    def test_contract_forces_exchange(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        m2 = minor(m, set(), {"e2"})
        assert circuits(m2) == frozenset({frozenset({"e0", "e1"})})

    def test_contract_loop_is_deletion(self):
        mg = MultiGraph(2, [("t", 0, 1), ("l", 1, 1)])
        m = graphic_matroid(mg, frozenset({"t"}))
        m2 = minor(m, set(), {"l"})
        assert set(m2.ground()) == {"t"}
        assert circuits(m2) == frozenset()

    def test_delete_coloop_is_contraction(self):
        mg = MultiGraph(3, [("a", 0, 1), ("b", 1, 2)])
        m = graphic_matroid(mg, frozenset({"a", "b"}))
        m2 = minor(m, {"a"}, set())
        assert set(m2.ground()) == {"b"}
        assert circuits(m2) == frozenset()

    def test_circuits_match_circuit_minor_on_binary_matroids(self):
        # The circuits of M/C\D are the minimal nonempty sets X - C over
        # the circuits X of M that avoid D.  Random matroids are mostly not
        # graphic, and about two in three have a zero row (a coloop) or a
        # zero column (a loop), which no basis exchange can move.
        rng = random.Random(47)
        with_loop_or_coloop = 0
        for _ in range(600):
            m = _random_matroid(rng, 12)
            loop = any(not any(m.rep.get(i, j) for i in range(m.rep.nrows))
                       for j in range(m.rep.ncols))
            with_loop_or_coloop += 0 in m.rep.rows or loop
            dels, cons = set(), set()
            for e in sorted(m.ground()):
                (dels, cons, set())[rng.randrange(3)].add(e)
            sets = {x - cons for x in circuits(m) if not x & dels}
            want = {x for x in sets if x and not any(y and y < x for y in sets)}
            assert circuits(minor(m, dels, cons)) == want
        assert with_loop_or_coloop >= 350

    def test_overlap_rejected(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        with pytest.raises(ValueError):
            minor(m, {"e0"}, {"e0"})

    def test_circuits_match_graph_minor_oracle(self):
        rng = random.Random(43)
        for _ in range(30):
            mg, t = random_connected_multigraph(rng, n_max=5, extra_max=3)
            labels = [lab for lab, _, _ in mg.edges]
            if len(labels) < 2 or len(labels) > 9:
                continue
            rng.shuffle(labels)
            dels = set(labels[:1])
            cons = set(labels[1:2])
            m = graphic_matroid(mg, t)
            got = circuits(minor(m, dels, cons))
            want = multigraph_cycles(multigraph_minor(mg, dels, cons))
            assert got == want


class TestConnectivity:
    def test_lambda_triangle(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        assert connectivity_lambda(m, {"e0"}) == 1
        assert connectivity_lambda(m, {"e0", "e1"}) == 1
        assert connectivity_lambda(m, set()) == 0
        assert connectivity_lambda(m, m.ground()) == 0

    def test_lambda_symmetric(self):
        rng = random.Random(47)
        for _ in range(20):
            mg, t = random_connected_multigraph(rng, n_max=5, extra_max=3)
            m = graphic_matroid(mg, t)
            elements = m.element_order()
            for _ in range(8):
                xs = {e for e in elements if rng.random() < 0.5}
                comp = set(elements) - xs
                assert connectivity_lambda(m, xs) == connectivity_lambda(m, comp)

    def test_lambda_equals_cut_rank_of_element_graph(self):
        rng = random.Random(53)
        for _ in range(20):
            mg, t = random_connected_multigraph(rng, n_max=5, extra_max=3)
            m = graphic_matroid(mg, t)
            order = m.element_order()
            pos = {e: i for i, e in enumerate(order)}
            g = m.element_graph()
            for _ in range(8):
                xs = {e for e in order if rng.random() < 0.5}
                assert connectivity_lambda(m, xs) == cut_rank(g, [pos[e] for e in xs])

    def test_lambda_unknown_label(self):
        mg, t = triangle()
        with pytest.raises(ElementNotFound):
            connectivity_lambda(graphic_matroid(mg, t), {"e0", "nope"})

    @staticmethod
    def assert_kernel_matches_oracle(m):
        """On every element subset the kernel equals the submatrix-based
        lambda."""
        order = m.element_order()
        lam = connectivity_kernel(m)
        masks = range(1 << len(order))
        want = [connectivity_lambda_oracle(m, [e for i, e in enumerate(order) if x >> i & 1])
                for x in masks]
        assert [lam(x) for x in masks] == want

    def test_kernel_matches_oracle_on_random_matroids(self):
        rng = random.Random(83)
        for _ in range(300):
            self.assert_kernel_matches_oracle(_random_matroid(rng, 10))

    def test_kernel_matches_oracle_on_graphic_and_cographic(self):
        rng = random.Random(89)
        graphs = [random_connected_multigraph(rng, n_max=5, extra_max=4)
                  for _ in range(20)]
        graphs += [(inst.multigraph, inst.tree) for inst in
                   [gen_ktt_example(t) for t in range(3, 7)] + [gen_c6_blowup_example(2)]]
        for mg, t in graphs:
            for build in (graphic_matroid, cographic_matroid):
                self.assert_kernel_matches_oracle(build(mg, t))

    def test_kernel_matches_oracle_with_interleaved_labels(self):
        # Sorted labels that mix basis and non-basis elements, so an
        # element's position is neither its row nor its column index:
        # shuffled label names, and 11-12 labels e<i> with e0..e2 in the
        # basis, where e10 and e11 sort between e1 and e2.
        rng = random.Random(103)
        matroids = []
        for _ in range(60):
            m = _random_matroid(rng, 9)
            names = rng.sample("abcdefghijklmnopqrstuvwxyz", len(m.ground()))
            matroids.append(BinaryMatroid(names[:len(m.basis)], names[len(m.basis):], m.rep))
        for _ in range(4):
            nr = rng.randint(3, 5)
            nc = rng.randint(11, 12) - nr
            labels = [f"e{i}" for i in range(nr + nc)]
            rep = BitMatrix(nr, nc, [rng.randrange(1 << nc) for _ in range(nr)])
            matroids.append(BinaryMatroid(labels[:nr], labels[nr:], rep))
        mixed = 0
        for m in matroids:
            in_basis = [e in m.basis for e in m.element_order()]
            mixed += in_basis not in (sorted(in_basis), sorted(in_basis, reverse=True))
            self.assert_kernel_matches_oracle(m)
        assert mixed >= 40 and matroids[-1].element_order()[2] == "e10"

    def test_is_k_connected_triangle(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        assert is_k_connected(m, 2) == (True, None)

    def test_is_k_connected_witness(self):
        # two triangles sharing a vertex: the edge set of one triangle
        # separates with lambda = 1
        mg = MultiGraph(5, [("a", 0, 1), ("b", 1, 2), ("c", 0, 2),
                            ("d", 0, 3), ("e", 3, 4), ("f", 0, 4)])
        m = graphic_matroid(mg, frozenset({"a", "b", "d", "e"}))
        ok, witness = is_k_connected(m, 3)
        assert not ok
        assert witness is not None
        lam = connectivity_lambda(m, witness)
        assert lam < 2 and len(witness) >= lam + 1

    def test_is_k_connected_subset_cap_edge(self):
        labels = [f"e{i:02}" for i in range(SUBSET_CAP + 1)]
        m = BinaryMatroid(labels[:12], labels[12:], BitMatrix(12, 13))
        with pytest.raises(SubsetCapExceeded, match="25 elements exceeds the subset cap 24"):
            is_k_connected(m, 2)
        m = BinaryMatroid(labels[:12], labels[12:-1], BitMatrix(12, 12))
        assert is_k_connected(m, 2) == (False, frozenset({"e00"}))

    def test_is_k_connected_matches_multi_pass_oracle(self):
        # Random graphs give witnesses of order 1 and 2; the C6 blow-up
        # gives one of order 3.
        rng = random.Random(71)
        graphs = [random_connected_multigraph(rng, n_max=6, extra_max=6, allow_loops=False)
                  for _ in range(40)]
        graphs += [(inst.multigraph, inst.tree) for inst in
                   [gen_ktt_example(t) for t in range(3, 7)] + [gen_c6_blowup_example(2)]]
        for mg, t in graphs:
            for build in (graphic_matroid, cographic_matroid):
                m = build(mg, t)
                for k in range(6):
                    assert is_k_connected(m, k) == is_k_connected_multi_pass(m, k)

    def test_is_k_connected_matches_single_pass_oracle(self):
        # The parent single pass ranks every smaller side; the pruned walk
        # must return its witness.
        rng = random.Random(101)
        for _ in range(30):
            m = _random_matroid(rng, 14)
            elements = m.element_order()
            lam = connectivity_kernel(m)

            def value(subset, lim):
                return lam(sum(1 << i for i in subset))

            for k in range(7):
                found = first_separation_single_pass(len(elements), k, value)
                want = (True, None) if found is None else \
                    (False, frozenset(elements[i] for i in found[0]))
                assert is_k_connected(m, k) == want


class TestCographic:
    def test_triangle_dual(self):
        mg, t = triangle()
        m = cographic_matroid(mg, t)
        assert m.basis == ("e2",) and set(m.nonbasis) == {"e0", "e1"}
        # dual circuits of the triangle = all 2-subsets (minimal edge cuts)
        assert circuits(m) == frozenset({frozenset({"e0", "e1"}),
                                         frozenset({"e0", "e2"}),
                                         frozenset({"e1", "e2"})})

    def test_fundamental_graphs_are_transposes(self):
        rng = random.Random(59)
        for _ in range(10):
            mg, t = random_connected_multigraph(rng, n_max=5, extra_max=3)
            g1 = graphic_matroid(mg, t).rep
            g2 = cographic_matroid(mg, t).rep
            assert g1.transpose() == g2


class TestFormats:
    def test_multigraph_round_trip(self):
        mg, t = triangle()
        mg2, t2 = parse_multigraph(format_multigraph(mg, t))
        assert mg2.n == mg.n and mg2.edges == mg.edges and t2 == t

    def test_multigraph_provenance_comment_ignored(self):
        mg, t = triangle()
        text = format_multigraph(mg, t, provenance="gen ktt t=3")
        assert text.startswith("# gen ktt t=3\n")
        mg2, _ = parse_multigraph(text)
        assert mg2.edges == mg.edges

    def test_matroid_round_trip(self):
        mg, t = triangle()
        m = graphic_matroid(mg, t)
        assert parse_matroid(format_matroid(m)) == m

    def test_matroid_with_empty_nonbasis_round_trips(self):
        m = BinaryMatroid(["a", "b"], [], BitMatrix(2, 0))
        assert format_matroid(m) == "basis a b\nnonbasis\nmatrix 2 0\n\n\n"
        assert parse_matroid(format_matroid(m)) == m

    def test_bad_documents(self):
        with pytest.raises(FormatError):
            parse_multigraph("graph 3\n0 1\n")
        with pytest.raises(FormatError):
            parse_multigraph("multigraph 2\n0 1 branch e0\n")
        with pytest.raises(FormatError):
            parse_matroid("basis a\nmatrix 1 0\n")
        with pytest.raises(FormatError):
            parse_matroid("basisX a\nnonbasis b\nmatrix 1 1\n1\n")
        with pytest.raises(FormatError):
            parse_matroid("basis a\nnonbasisfoo b\nmatrix 1 1\n1\n")
