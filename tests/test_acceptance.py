"""Acceptance suite: thirteen numbered criteria, one printed verdict each.

Each test prints `acceptance N: PASS|FAIL <summary>` to the real stdout
(bypassing capture) so a `pytest -v` run shows one line per criterion.
"""

import io
import random
import sys
from itertools import combinations

import networkx as nx
import pytest

from pivotkit.cli import EXIT_OK, EXIT_VIOLATION, run_cli
from pivotkit.extremal import (format_instance, gen_c6_blowup_example,
                               gen_ktt_example, gen_random_instance)
from pivotkit.gf2 import format_matrix, parse_matrix
from pivotkit.graph import (Graph, degree_stats, find_complete_bipartite,
                            format_bigraph, format_graph, is_c4_free,
                            parse_bigraph, parse_graph, vertex_connectivity)
from pivotkit.matroid import (format_matroid, format_multigraph,
                              graphic_matroid, minor, parse_matroid,
                              parse_multigraph, circuits)
from pivotkit.pivot import canonical_form, pivot
from pivotkit.verify import (format_report, parse_report, replay_witness,
                             run_campaign)

from oracles import blow_up, multigraph_cycles, multigraph_minor


def verdict(number, summary):
    """Decorator printing one pass/fail line per criterion."""
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number}: FAIL {summary}", file=sys.__stdout__)
                raise
            print(f"acceptance {number}: PASS {summary}", file=sys.__stdout__)
        inner.__name__ = fn.__name__
        return inner
    return wrap


def cli(argv, stdin=""):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin)
    sys.stdout = io.StringIO()
    try:
        code = run_cli(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


def is_planar_multigraph(mg):
    h = nx.MultiGraph()
    h.add_nodes_from(range(mg.n))
    for label, u, v in mg.edges:
        h.add_edge(u, v, key=label)
    ok, _ = nx.check_planarity(h)
    return ok


@verdict(1, "tight K_{t-1,t-1} instance at t=5 matches the degree bound")
def test_criterion_01_ktt_instance():
    inst = gen_ktt_example(5)
    assert is_planar_multigraph(inst.multigraph)
    h = inst.fundamental
    g = graphic_matroid(inst.multigraph, inst.tree).element_graph()
    assert canonical_form(g) == canonical_form(
        Graph(8, [(a, 4 + b) for a in range(4) for b in range(4)]))
    assert degree_stats(h).min_degree == 4
    assert find_complete_bipartite(h, 2, 5) is None
    assert max(2 * 2 - 2, 5 - 1) == 4


@verdict(2, "tight blown-up 6-cycle instance at s=4 matches the degree bound")
def test_criterion_02_c6_blowup_instance():
    inst = gen_c6_blowup_example(4)
    assert is_planar_multigraph(inst.multigraph)
    h = inst.fundamental
    g = graphic_matroid(inst.multigraph, inst.tree).element_graph()
    assert g.n == 18
    assert all(g.degree(v) == 6 for v in range(g.n))
    assert canonical_form(g) == canonical_form(blow_up(Graph.cycle(6), 3))
    assert find_complete_bipartite(h, 4, 6) is None
    assert find_complete_bipartite(h, 4, 4) is None
    assert degree_stats(h).min_degree == 2 * 4 - 2


@verdict(3, "min-degree bound holds on 500 random instances for every s <= t in 1..4")
def test_criterion_03_fun_lemma_campaign():
    for s in range(1, 5):
        for t in range(s, 5):
            report = run_campaign("fun-lemma",
                                  {"s": s, "t": t, "trials": 500},
                                  seed=100 * s + t)
            assert report.passed, (s, t, report.violations)
            assert report.trials_run == 500
            assert report.vacuous < 500, (s, t)


@verdict(4, "bipartite-complement bound 5s-1 holds on 500 instances for s in 1..3")
def test_criterion_04_cofun_lemma_campaign():
    for s in (1, 2, 3):
        report = run_campaign("cofun-lemma", {"s": s, "trials": 500}, seed=s)
        assert report.passed, (s, report.violations)
        assert report.trials_run == 500


@verdict(5, "split_tree valid on every tree with <= 11 edges and every legal s")
def test_criterion_05_tree_lemma_exhaustive():
    report = run_campaign("tree-lemma", {"max_edges": 11})
    assert report.passed, report.violations
    assert report.trials_run > 500  # many (tree, s) pairs were exercised
    assert report.vacuous == 0


@verdict(6, "block partitions bounded by 2^rank and reconstruction is exact (200 matrices)")
def test_criterion_06_perturbation_partitions():
    report = run_campaign("pert-partition",
                          {"trials": 200, "size": 8, "max_rank": 4}, seed=2)
    assert report.passed, report.violations
    assert report.trials_run == 200
    assert report.vacuous == 0


@verdict(7, "pivot involution/symmetry/bipartiteness exhaustive on n <= 5")
def test_criterion_07_pivot_algebra_exhaustive():
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if (bits >> i) & 1])
            bip = nx.is_bipartite(nx.Graph(g.edge_list()))
            for u, v in g.edge_list():
                p = pivot(g, u, v)
                assert pivot(p, u, v) == g
                assert p == pivot(g, v, u)
                if bip:
                    assert nx.is_bipartite(nx.Graph(p.edge_list()))


@verdict(8, "basis exchange matches graph pivot and preserves circuits (200 matroids)")
def test_criterion_08_pivot_matroid_coherence():
    report = run_campaign("pivot-matroid",
                          {"trials": 200, "max_elements": 10}, seed=3)
    assert report.passed, report.violations
    assert report.trials_run == 200


@verdict(9, "matroid connectivity equals cut-rank on 100 matroids for all k <= 4")
def test_criterion_09_connectivity_equivalence():
    report = run_campaign("conn-equiv",
                          {"trials": 100, "max_elements": 10, "k_max": 4}, seed=4)
    assert report.passed, report.violations
    assert report.trials_run == 100
    assert report.vacuous == 0


@verdict(10, "10^4 sampled C4-free graphs (n <= 8) are (k+1)-rank-connected")
def test_criterion_10_rank_connectivity_sampled():
    rng = random.Random(10)
    checked = 0
    while checked < 10_000:
        n = rng.randint(4, 8)
        p = rng.uniform(0.1, 0.5)
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v)
        if not is_c4_free(g):
            continue
        k = vertex_connectivity(g)
        from pivotkit.cutrank import find_low_rank_separation
        assert find_low_rank_separation(g, k + 1) is None, format_graph(g)
        checked += 1


@verdict(11, "matroid circuits and minors match the multigraph oracle (200 multigraphs)")
def test_criterion_11_graphic_matroid_oracle():
    rng = random.Random(11)
    done = 0
    while done < 200:
        n = rng.randint(2, 6)
        edges = [(f"t{v - 1}", rng.randrange(v), v) for v in range(1, n)]
        tree = frozenset(lab for lab, _, _ in edges)
        for i in range(rng.randint(0, 9 - (n - 1))):
            u = rng.randrange(n)
            v = rng.randrange(n)
            edges.append((f"f{i}", u, v))
        if len(edges) > 9:
            continue
        from pivotkit.matroid import MultiGraph
        mg = MultiGraph(n, edges)
        m = graphic_matroid(mg, tree)
        assert circuits(m) == multigraph_cycles(mg)
        labels = [lab for lab, _, _ in edges]
        rng.shuffle(labels)
        dels, cons = set(labels[:1]), set(labels[1:2])
        got = circuits(minor(m, dels, cons))
        want = multigraph_cycles(multigraph_minor(mg, dels, cons))
        assert got == want
        done += 1


@verdict(12, "lowering the bound by one makes the campaign fail with replayable witnesses")
def test_criterion_12_harness_self_test():
    cases = [
        (["check", "fun-lemma", "--instance", "ktt:5",
          "--s", "2", "--t", "5", "--bound-offset", "-1"], 1),
        (["check", "fun-lemma", "--instance", "c6blowup:3",
          "--s", "3", "--t", "3", "--bound-offset", "-1"], 1),
    ]
    for argv, expected in cases:
        code, out = cli(argv)
        assert code == expected == EXIT_VIOLATION
        assert out.splitlines()[0] == "FAIL"
        parsed = parse_report(out)
        assert parsed["witnesses"], "FAIL report must carry a witness"
        assert all(replay_witness(w) for w in parsed["witnesses"])


@verdict(13, "every subcommand is byte-deterministic and all formats round-trip")
def test_criterion_13_cli_determinism_and_round_trips():
    _, mgdoc = cli(["gen", "random", "7", "4", "--seed", "5"])
    _, matdoc = cli(["matroid", "fromgraph", "-"], stdin=mgdoc)
    gdoc = format_graph(Graph.path(11))
    bgdoc = format_bigraph(gen_ktt_example(4).fundamental)
    mdoc = "matrix 3 3\n110\n011\n101\n"
    _, report = cli(["check", "fun-lemma", "--instance", "ktt:5",
                     "--s", "2", "--t", "5", "--bound-offset", "-1"])
    import tempfile
    import os
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, doc in [("mg", mgdoc), ("mat", matdoc), ("g", gdoc),
                          ("bg", bgdoc), ("m", mdoc), ("rep", report),
                          ("h", format_graph(Graph.path(3))),
                          ("g4", format_graph(Graph.path(4)))]:
            paths[name] = os.path.join(d, name)
            with open(paths[name], "w") as fh:
                fh.write(doc)
        invocations = [
            ["gen", "ktt", "5"],
            ["gen", "c6blowup", "3"],
            ["gen", "random", "7", "4", "--seed", "5"],
            ["fundgraph", paths["mg"]],
            ["pivot", paths["g"], "0", "1"],
            ["cutrank", paths["g"], "--set", "0,1,2"],
            ["rankconn", paths["g"], "2"],
            ["matroid", "fromgraph", paths["mg"]],
            ["matroid", "fromgraph", paths["mg"], "--cographic"],
            ["matroid", "circuits", paths["mat"]],
            ["matroid", "minor", paths["mat"], "--delete", "t0"],
            ["matroid", "lambda", paths["mat"], "--set", "t1,t2"],
            ["matroid", "connectivity", paths["mat"], "2"],
            ["splittree", paths["g"], "2"],
            ["partition", paths["m"]],
            ["partition", "--pair", paths["bg"], paths["bg"]],
            ["pivotminor", paths["h"], paths["g4"]],
            ["check", "struct-density", "--trials", "30", "--seed", "6"],
            ["check", "rankconn-lemma", "--trials", "50", "--seed", "6"],
            ["replay", paths["rep"]],
        ]
        for argv in invocations:
            c1, o1 = cli(argv)
            c2, o2 = cli(argv)
            assert (c1, o1) == (c2, o2), argv
    # serialization round-trips
    assert format_graph(parse_graph(gdoc)) == gdoc
    assert format_bigraph(parse_bigraph(bgdoc)) == bgdoc
    assert format_matrix(parse_matrix(mdoc)) == mdoc
    mg, tree = parse_multigraph(mgdoc)
    assert parse_multigraph(format_multigraph(mg, tree))[0].edges == mg.edges
    mat = parse_matroid(matdoc)
    assert parse_matroid(format_matroid(mat)) == mat
    rep = run_campaign("pivot-matroid", {"trials": 10}, seed=1)
    parsed = parse_report(format_report(rep))
    assert parsed["fields"]["name"] == "pivot-matroid"
