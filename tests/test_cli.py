import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pivotkit
import pivotkit.cli
from pivotkit.cli import (EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE,
                          EXIT_VIOLATION, run_cli)
from pivotkit.extremal import format_instance, gen_ktt_example
from pivotkit.gf2 import BitMatrix, parse_matrix
from pivotkit.graph import Graph, format_bigraph, format_graph, parse_bigraph, parse_graph
from pivotkit.matroid import BinaryMatroid, format_matroid, parse_matroid, parse_multigraph
from pivotkit.verify import (_CAMPAIGNS, _merge_params, campaign_names, format_report,
                             run_campaign)


_BIG = str(10 ** 20)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


def run(argv, stdin=""):
    """Run the CLI capturing stdout; returns (exit_code, output)."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin)
    sys.stdout = io.StringIO()
    try:
        code = run_cli(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


def _dense_matroid(count):
    """A matroid on count elements whose D is all ones."""
    labels = [f"e{i:02}" for i in range(count)]
    rank = count // 2
    return BinaryMatroid(labels[:rank], labels[rank:],
                         BitMatrix(rank, count - rank, [(1 << (count - rank)) - 1] * rank))


def _matching(edges):
    """The graph of `edges` disjoint edges."""
    return Graph(2 * edges, [(2 * i, 2 * i + 1) for i in range(edges)])


def _cotree_multigraph(count):
    """A multigraph file: one tree edge and `count` cotree edges parallel to it."""
    return "multigraph 2\n0 1 tree t\n" + "".join(f"0 1 cotree f{i}\n" for i in range(count))


class TestGen:
    def test_ktt(self):
        code, out = run(["gen", "ktt", "4"])
        assert code == EXIT_OK
        assert out == format_instance(gen_ktt_example(4))

    def test_random_deterministic(self):
        _, out1 = run(["gen", "random", "6", "3", "--seed", "9"])
        _, out2 = run(["gen", "random", "6", "3", "--seed", "9"])
        assert out1 == out2

    def test_bad_parameter(self):
        code, _ = run(["gen", "ktt", "1"])
        assert code == EXIT_USAGE


class TestPipelines:
    def test_gen_fundgraph_from_stdin(self):
        _, doc = run(["gen", "ktt", "3"])
        code, out = run(["fundgraph", "-"], stdin=doc)
        assert code == EXIT_OK
        assert parse_bigraph(out) == BitMatrix(2, 2, [0b11, 0b11])

    def test_gen_matroid_circuits(self):
        _, doc = run(["gen", "ktt", "3"])
        code, mat = run(["matroid", "fromgraph", "-"], stdin=doc)
        assert code == EXIT_OK
        code, out = run(["matroid", "circuits", "-"], stdin=mat)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert "f0 t0 t1" in lines and "f0 f1" in lines

    def test_matroid_minor_and_lambda(self):
        _, doc = run(["gen", "ktt", "3"])
        _, mat = run(["matroid", "fromgraph", "-"], stdin=doc)
        code, out = run(["matroid", "minor", "-", "--delete", "f1",
                         "--contract", "t0"], stdin=mat)
        assert (code, out) == (EXIT_OK, "basis t1\nnonbasis f0\nmatrix 1 1\n1\n")
        code, out = run(["matroid", "lambda", "-", "--set", "t0,t1"], stdin=mat)
        assert code == EXIT_OK and out.strip() == "1"

    # The matroid has a coloop c (zero row) and a loop f (zero column).
    @pytest.mark.parametrize("argv, expected", [
        (["--delete", "a"], "basis d b c\nnonbasis e f\nmatrix 3 2\n10\n10\n00\n"),
        (["--contract", "f"], "basis a b c\nnonbasis d e\nmatrix 3 2\n11\n10\n00\n"),
        (["--delete", "c"], "basis a b\nnonbasis d e f\nmatrix 2 3\n110\n100\n"),
        (["--delete", "a,c", "--contract", "f,d"], "basis b\nnonbasis e\nmatrix 1 1\n1\n"),
    ], ids=["delete-by-exchange", "contract-loop", "delete-coloop", "mixed"])
    def test_matroid_minor_bytes(self, argv, expected):
        mat = "basis a b c\nnonbasis d e f\nmatrix 3 3\n110\n100\n000\n"
        assert run(["matroid", "minor", "-", *argv], stdin=mat) == (EXIT_OK, expected)

    def test_pivot_round_trip(self):
        doc = format_graph(Graph.path(3))
        code, out = run(["pivot", "-", "0", "1"], stdin=doc)
        assert code == EXIT_OK
        g = parse_graph(out)
        assert sorted(g.edge_list()) == [(0, 1), (0, 2)]
        code2, out2 = run(["pivot", "-", "0", "1"], stdin=out)
        assert code2 == EXIT_OK and parse_graph(out2) == Graph.path(3)

    def test_cutrank(self):
        code, out = run(["cutrank", "-", "--set", "0,1"],
                        stdin=format_graph(Graph.cycle(4)))
        assert code == EXIT_OK and out.strip() == "2"

    def test_partition_matrix(self):
        code, out = run(["partition", "-"], stdin="matrix 2 2\n11\n11\n")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "blockpartition matrix 1 1"

    def test_partition_pair(self, tmp_path):
        f1 = tmp_path / "g1.txt"
        f2 = tmp_path / "g2.txt"
        f1.write_text("bigraph 2 2\n0 0\n1 1\n")
        f2.write_text("bigraph 2 2\n0 1\n1 0\n")
        code, out = run(["partition", "--pair", str(f1), str(f2)])
        assert code == EXIT_OK
        assert "graph-pair" in out.splitlines()[0]

    def test_partition_no_input(self):
        code, _ = run(["partition"])
        assert code == EXIT_USAGE

    def test_partition_file_and_pair_is_usage(self, tmp_path):
        f1 = tmp_path / "g1.txt"
        f1.write_text("bigraph 2 2\n0 0\n")
        code, out = run(["partition", "/nonexistent", "--pair", str(f1), str(f1)])
        assert (code, out) == (EXIT_USAGE, "")

    def test_splittree(self):
        code, out = run(["splittree", "-", "2"],
                        stdin=format_graph(Graph.path(11)))
        assert code == EXIT_OK
        assert out.splitlines()[0] == "split edge 7 8"

    def test_splittree_star_splits_at_its_centre(self):
        star = format_graph(Graph(7, [(0, leaf) for leaf in range(1, 7)]))
        assert run(["splittree", "-", "1"], stdin=star) == (
            EXIT_OK, "split vertex 0\ntree1 0-1\ntree2 0-2\ntree3 0-3 0-4 0-5 0-6\n")


class TestExitCodes:
    def test_rankconn_pass_and_fail(self):
        code, out = run(["rankconn", "-", "2"],
                        stdin=format_graph(Graph.cycle(5)))
        assert code == EXIT_OK and "2-rank-connected" in out
        code, out = run(["rankconn", "-", "2"],
                        stdin=format_graph(Graph(4, [(0, 1), (2, 3)])))
        assert code == EXIT_VIOLATION and out.startswith("separation ")

    def test_matroid_connectivity_fail(self):
        _, doc = run(["gen", "random", "6", "2", "--seed", "1"])
        _, mat = run(["matroid", "fromgraph", "-"], stdin=doc)
        code, out = run(["matroid", "connectivity", "-", "9"], stdin=mat)
        assert code in (EXIT_OK, EXIT_VIOLATION)
        if code == EXIT_VIOLATION:
            assert out.startswith("separation side=")

    def test_matroid_connectivity_pass(self):
        _, doc = run(["gen", "ktt", "4"])
        _, mat = run(["matroid", "fromgraph", "-"], stdin=doc)
        assert run(["matroid", "connectivity", "-", "2"], stdin=mat) == (EXIT_OK, "2-connected\n")

    @pytest.mark.parametrize("k", ["0", "-2", "x"])
    def test_rankconn_k_below_one_is_usage(self, k):
        code, out = run(["rankconn", "-", "--", k],
                        stdin=format_graph(Graph.cycle(5)))
        assert code == EXIT_USAGE and out == ""

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_matroid_connectivity_k_below_one_is_usage(self, k):
        _, doc = run(["gen", "ktt", "3"])
        _, mat = run(["matroid", "fromgraph", "-"], stdin=doc)
        code, out = run(["matroid", "connectivity", "-", "--", k], stdin=mat)
        assert code == EXIT_USAGE and out == ""

    def test_parse_error_is_usage(self):
        code, _ = run(["cutrank", "-", "--set", "0"], stdin="nonsense\n")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, doc, message", [
        (["partition", "-"], "matrix 2 2\n10\n", "expected 2 matrix rows, got 1"),
        (["partition", "-"], "matrix 2 2\n1x\n01\n", "bad matrix row: '1x'"),
        # The row count is reported before a bad row.
        (["partition", "-"], "matrix 2 2\n1x\n", "expected 2 matrix rows, got 1"),
        (["pivot", "-", "0", "1"], "# only a comment\n", "empty graph document"),
        (["pivot", "-", "0", "1"], "graph 3\n0 1 2\n", "bad edge line: '0 1 2'"),
        (["splittree", "-", "0"], "graph 7\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n",
         "s must be positive"),
    ], ids=["missing-row", "bad-row", "missing-and-bad-row", "no-header", "three-field-edge",
            "splittree-s0"])
    def test_bad_input_is_usage_naming_the_problem(self, argv, doc, message, capsys):
        assert run(argv, stdin=doc) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file_is_usage(self):
        code, _ = run(["pivot", "/nonexistent/file", "0", "1"])
        assert code == EXIT_USAGE

    def test_unreadable_file_is_usage(self, tmp_path, capsys):
        code, out = run(["pivot", str(tmp_path), "0", "1"])
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_subcommand_is_usage(self):
        code, _ = run(["frobnicate"])
        assert code == EXIT_USAGE

    def test_budget_exit(self):
        h = format_graph(Graph.cycle(3))
        g = format_graph(Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)]))
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            hp, gp = os.path.join(d, "h"), os.path.join(d, "g")
            with open(hp, "w") as fh:
                fh.write(h)
            with open(gp, "w") as fh:
                fh.write(g)
            code, _ = run(["pivotminor", hp, gp, "--budget", "2"])
            assert code == EXIT_BUDGET
            code, out = run(["pivotminor", hp, gp])
            assert code == EXIT_OK and out.strip() == "no"

    @pytest.mark.parametrize("budget", ["0", "-1", "-5"])
    def test_budget_below_one_is_usage(self, tmp_path, budget, capsys):
        gp = tmp_path / "g"
        gp.write_text(format_graph(Graph.path(4)))
        # H = G would answer "yes" before the search spends any budget.
        code, out = run(["pivotminor", str(gp), str(gp), "--budget", budget])
        assert code == EXIT_USAGE and out == ""
        assert "budget must be at least 1" in capsys.readouterr().err

    def test_budget_exit_reports_progress_on_stderr(self, tmp_path, capsys):
        hp, gp = tmp_path / "h", tmp_path / "g"
        hp.write_text(format_graph(Graph.cycle(3)))
        gp.write_text(format_graph(Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5),
                                             (2, 5), (2, 3)])))
        code, out = run(["pivotminor", str(hp), str(gp), "--budget", "2"])
        assert code == EXIT_BUDGET and out == ""
        err = capsys.readouterr().err
        assert "expanded=2 stored=7 depth=1" in err

    @pytest.mark.parametrize("budget, code, out, err", [
        ("3", EXIT_BUDGET, "",
         "budget exceeded: budget 3 exhausted: expanded=3 stored=19 depth=2\n"),
        ("40", EXIT_OK, "no\n", "")])
    def test_c5_in_c8_answers_within_40_expansions(self, tmp_path, capsys,
                                                    budget, code, out, err):
        """The 5-vertex states whose shape is not C5's are dropped, so the
        "no" takes 35 expansions where expanding them takes 46; the stop
        at 3 lies above that level and keeps its figures."""
        hp, gp = tmp_path / "h", tmp_path / "g"
        hp.write_text(format_graph(Graph.cycle(5)))
        gp.write_text(format_graph(Graph.cycle(8)))
        assert run(["pivotminor", str(hp), str(gp), "--budget", budget]) == (code, out)
        assert capsys.readouterr().err == err

    def test_pivotminor_host_over_the_subset_cap_is_budget(self, tmp_path, capsys):
        hp, gp = tmp_path / "h", tmp_path / "g"
        hp.write_text(format_graph(Graph.path(3)))
        gp.write_text(format_graph(Graph.path(40)))
        start = time.perf_counter()
        code, out = run(["pivotminor", str(hp), str(gp), "--budget", str(10 ** 12)])
        assert code == EXIT_BUDGET and out == ""
        assert time.perf_counter() - start < 1.0
        assert "40 vertices exceeds the cap 24" in capsys.readouterr().err

    def test_pivotminor_refute(self, tmp_path):
        hp = tmp_path / "h"
        gp = tmp_path / "g"
        hp.write_text(format_graph(Graph.path(3)))
        gp.write_text(format_graph(Graph.path(4)))
        code, out = run(["pivotminor", str(hp), str(gp)])
        assert code == EXIT_OK and out.startswith("yes")
        code, _ = run(["pivotminor", str(hp), str(gp), "--refute"])
        assert code == EXIT_VIOLATION

    def test_cap_exceeded_is_budget(self):
        code, _ = run(["check", "tree-lemma", "--max-edges", "13"])
        assert code == EXIT_BUDGET

    @pytest.mark.parametrize("argv", [
        ["rankconn-lemma", "--n-max", "11"],
        ["avg-exists", "--n-max", "13"],
        ["avg-exists", "--k", "2"],
        ["fun-lemma", "--s", "13"],
        ["fun-lemma", "--t", "13"],
        ["cofun-lemma", "--s", "13"],
        ["pert-partition", "--size", "1001"],
        ["pert-partition", "--max-rank", "1001"],
        ["struct-density", "--s", "13"],
    ])
    def test_campaign_parameter_above_cap_is_budget(self, argv):
        code, out = run(["check"] + argv)
        assert code == EXIT_BUDGET and out == ""

    def test_conn_equiv_over_subset_cap_exits_before_any_trial(self):
        start = time.perf_counter()
        for max_elements in ("25", "40"):
            code, out = run(["check", "conn-equiv", "--max-elements", max_elements,
                             "--trials", "1"])
            assert code == EXIT_BUDGET and out == ""
        assert time.perf_counter() - start < 1.0
        # The cap itself is legal; checking it runs no trial.
        params = _merge_params("conn-equiv", _CAMPAIGNS["conn-equiv"].params,
                               {"max_elements": 24})
        assert params["max_elements"] == 24

    def test_circuits_over_cap_is_budget(self, capsys):
        m = BinaryMatroid([f"b{i}" for i in range(9)], [f"c{j}" for j in range(8)],
                          BitMatrix(9, 8))
        code, out = run(["matroid", "circuits", "-"], stdin=format_matroid(m))
        assert (code, out) == (EXIT_BUDGET, "")
        assert "17 elements exceeds cap 16" in capsys.readouterr().err

    def test_pivot_matroid_over_circuit_cap_is_budget(self):
        code, out = run(["check", "pivot-matroid", "--trials", "50", "--max-elements", "20"])
        assert code == EXIT_BUDGET and out == ""
        code, _ = run(["check", "pivot-matroid", "--trials", "1", "--max-elements", "17"])
        assert code == EXIT_BUDGET
        code, _ = run(["check", "pivot-matroid", "--trials", "1", "--max-elements", "16"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("name, fields, data, code", [
        ("conn-equiv", "k_max=4", format_matroid(_dense_matroid(25)), EXIT_BUDGET),
        ("conn-equiv", "k_max=4", format_matroid(_dense_matroid(26)), EXIT_BUDGET),
        ("conn-equiv", "k_max=0", format_matroid(_dense_matroid(6)), EXIT_USAGE),
        ("avg-exists", "k=0", format_graph(_matching(10)), EXIT_USAGE),
        ("avg-exists", "k=1", format_graph(_matching(10)), EXIT_BUDGET),
        ("fun-lemma", "s=13 t=13 bound_offset=0", format_instance(gen_ktt_example(14)),
         EXIT_BUDGET),
        ("fun-lemma", "s=2 t=13 bound_offset=0", format_instance(gen_ktt_example(14)),
         EXIT_BUDGET),
        ("cofun-lemma", "s=13 bound_offset=0", format_instance(gen_ktt_example(14)),
         EXIT_BUDGET),
        ("pert-partition", "", "matrix 1000000000 0&matrix 1 1\n0", EXIT_BUDGET),
        ("pert-partition", "", "matrix 1 1\n0&matrix 100000000000000000000 0", EXIT_BUDGET),
        ("pivot-matroid", "x=a y=b", "basis a\nnonbasis\nmatrix 1000000000 0", EXIT_BUDGET),
        ("conn-equiv", "k_max=4", "basis a\nnonbasis\nmatrix 100000000000000000000 0",
         EXIT_BUDGET),
        ("fun-lemma", "s=2 t=3 bound_offset=0", _cotree_multigraph(1001), EXIT_BUDGET),
        ("rankconn-lemma", "k=2", format_graph(Graph.cycle(11)), EXIT_BUDGET),
        ("struct-density", "s=13 rows=0,1 cols=0,1",
         format_bigraph(BitMatrix(2, 2, [0b11, 0b11])), EXIT_BUDGET),
    ], ids=["conn-equiv-25", "conn-equiv-26", "conn-equiv-k0", "avg-exists-k0",
            "avg-exists-20-vertices", "fun-lemma-s13", "fun-lemma-t13", "cofun-lemma-s13",
            "pert-partition-1e9-rows", "pert-partition-1e20-rows", "pivot-matroid-1e9-rows",
            "conn-equiv-1e20-rows", "fun-lemma-1001-cotree", "rankconn-lemma-11-vertices",
            "struct-density-s13"])
    def test_replay_enforces_the_campaign_limits(self, tmp_path, monkeypatch, name, fields,
                                                 data, code):
        # A witness is held to the ranges and caps that `check` enforces,
        # before its check runs: without them the two conn-equiv witnesses
        # over the subset cap sweep 2^24 splits or more, the k=0
        # avg-exists witness walks 2^20 subgraphs, and a C4-free
        # rankconn-lemma graph is searched whatever its size.
        def refused(*args):
            raise AssertionError("a refused witness reached its search")

        for search in ("vertex_connectivity", "find_complete_bipartite"):
            monkeypatch.setattr(sys.modules["pivotkit.verify"], search, refused)
        blob = data.strip().replace("\n", ";")
        report = tmp_path / "report.txt"
        report.write_text(f"FAIL\nname={name}\nviolations=1\n"
                          f"witness name={name} {fields} data={blob}\n")
        start = time.perf_counter()
        assert run(["replay", str(report)]) == (code, "")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name, fields, data, message", [
        ("fun-lemma", "s=two t=3 bound_offset=-3", None, "s='two' is not an integer"),
        ("fun-lemma", "t=3 bound_offset=-3", None, "missing field s"),
        ("pivot-matroid", "y=b", "basis a;nonbasis b;matrix 1 1;1", "missing field x"),
        ("pivot-matroid", "x=a", "basis a;nonbasis b;matrix 1 1;1", "missing field y"),
        ("struct-density", "s=1 cols=0", "bigraph 1 1;0 0", "missing field rows"),
        ("struct-density", "s=1 rows=0", "bigraph 1 1;0 0", "missing field cols"),
        ("tree-lemma", "s=two", "graph 6;0 1;1 2;2 3;3 4;4 5", "s='two' is not an integer"),
        ("tree-lemma", "reason=RuntimeError", "graph 6;0 1;1 2;2 3;3 4;4 5", "missing field s"),
        (None, "s=1", "x", "missing field name"),
        ("pert-partition", "", "matrix 1 1;1", "data must hold two matrices joined by '&'"),
        ("pert-partition", "", "matrix 1 1;1&matrix 1 1;0&matrix 1 1;1",
         "data must hold two matrices joined by '&'"),
        ("struct-density", "s=1 rows=a cols=0", "bigraph 1 1;0 0",
         "rows='a' is not classes of comma-separated integers"),
    ], ids=["s-not-an-integer", "s-missing", "x-missing", "y-missing", "rows-missing",
            "cols-missing", "tree-s-not-an-integer", "tree-s-missing", "name-missing",
            "data-one-matrix", "data-three-matrices", "rows-not-integers"])
    def test_replay_names_a_malformed_witness_field(self, tmp_path, capsys, name, fields,
                                                    data, message):
        # The first witness is a real one; the second carries the bad field.
        good = run_campaign("fun-lemma", {"trials": 30, "bound_offset": -3}).violations[0]
        blob = good["data"]
        report = tmp_path / "report.txt"
        head = f"name={name} {fields}" if name else fields
        report.write_text("FAIL\nname=fun-lemma\nviolations=2\n"
                          f"witness name=fun-lemma s=2 t=3 bound_offset=-3 data={blob}\n"
                          f"witness {head} data={data or blob}\n")
        assert run(["replay", str(report)]) == (EXIT_USAGE, "")
        where = f"witness 1 ({name})" if name else "witness 1"
        assert capsys.readouterr().err == f"error: {where}: {message}\n"

    @pytest.mark.parametrize("argv", [["minor", "-", "--delete", "zz"],
                                      ["lambda", "-", "--set", "zz"]])
    def test_unknown_element_label_is_usage(self, argv, capsys):
        _, doc = run(["gen", "ktt", "3"])
        _, mat = run(["matroid", "fromgraph", "-"], stdin=doc)
        assert run(["matroid", *argv], stdin=mat) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == "error: unknown element 'zz'\n"

    @pytest.mark.parametrize("fields, message", [
        ("x=zz y=b", "'zz' is not a basis element"),
        ("x=a y=zz", "'zz' is not a non-basis element"),
    ], ids=["x", "y"])
    def test_replay_element_off_its_side_is_usage(self, tmp_path, capsys, fields, message):
        report = tmp_path / "report.txt"
        report.write_text("FAIL\nname=pivot-matroid\nviolations=1\nwitness name=pivot-matroid "
                          f"{fields} data=basis a;nonbasis b;matrix 1 1;1\n")
        assert run(["replay", str(report)]) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("s", [1, 2])
    def test_replay_struct_density_classes_off_the_bigraph_is_usage(self, tmp_path, capsys, s):
        # Row 5 is not a row of the 1 x 1 bigraph.  The classes are checked
        # before the K_{s,s} search, which finds the one edge when s = 1.
        report = tmp_path / "report.txt"
        report.write_text("FAIL\nname=struct-density\nviolations=1\nwitness name=struct-density "
                          f"s={s} rows=0,5 cols=0 data=bigraph 1 1;0 0\n")
        assert run(["replay", str(report)]) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == "error: row classes do not partition 0..0\n"

    def test_replay_unknown_campaign_names_the_witness(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        report.write_text("FAIL\nname=nope\nviolations=1\nwitness name=nope data=x\n")
        assert run(["replay", str(report)]) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == "error: witness 0: unknown campaign 'nope'\n"

    def test_cutrank_non_integer_vertex_is_usage(self, capsys):
        assert run(["cutrank", "-", "--set", "0,a"],
                   stdin=format_graph(Graph.cycle(4))) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.endswith("error: argument --set: vertices must be comma-separated "
                            "integers, got '0,a'\n")

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def broken(g, vertices):
            raise KeyError("internal")

        monkeypatch.setattr(pivotkit.cli, "cut_rank", broken)
        assert run(["cutrank", "-", "--set", "0"],
                   stdin=format_graph(Graph.cycle(4))) == (EXIT_INTERNAL, "")
        err = capsys.readouterr().err
        assert err.startswith("internal error:\nTraceback (most recent call last):\n")
        assert err.endswith("KeyError: 'internal'\n")

    @pytest.mark.parametrize("error", [IndexError, KeyError])
    @pytest.mark.parametrize("command", ["check", "replay", "pivotminor", "rankconn"])
    def test_internal_error_in_the_library_exits_4(self, tmp_path, monkeypatch, capsys,
                                                   command, error):
        # An exception that is neither a usage error nor a cap is a fault,
        # never an answer: not 0-3, and the traceback names it.
        def broken(*args, **kwargs):
            raise error("internal")

        c5, c8, p5 = tmp_path / "c5.txt", tmp_path / "c8.txt", tmp_path / "p5.txt"
        c5.write_text(format_graph(Graph.cycle(5)))
        c8.write_text(format_graph(Graph.cycle(8)))
        p5.write_text(format_graph(Graph.path(5)))
        report = tmp_path / "report.txt"
        report.write_text(format_report(run_campaign("fun-lemma", {"trials": 30,
                                                                   "bound_offset": -3})))
        module, name, argv = {
            "check": ("verify", "degree_stats", ["check", "fun-lemma"]),
            "replay": ("verify", "degree_stats", ["replay", str(report)]),
            "pivotminor": ("pivot", "canonical_form", ["pivotminor", str(c5), str(c8)]),
            "rankconn": ("cutrank", "Separation", ["rankconn", str(p5), "3"]),  # has a witness
        }[command]
        # By sys.modules: the package exports a function named pivot.
        monkeypatch.setattr(sys.modules[f"pivotkit.{module}"], name, broken)
        assert run(argv) == (EXIT_INTERNAL, "")
        err = capsys.readouterr().err
        assert err.startswith("internal error:\nTraceback (most recent call last):\n")
        assert err.endswith(f"{error.__name__}: {error('internal')}\n")

    @pytest.mark.parametrize("argv, doc, message", [
        (["pivot", "-", "0", "1"], "graph 1001\n", "1001 vertices"),
        (["partition", "--pair", "-", "-"], "bigraph 1001 2\n", "1001 vertices on one side"),
        (["partition", "--pair", "-", "-"], "bigraph 2 1001\n", "1001 vertices on one side"),
        (["fundgraph", "-"], "multigraph 1001\n", "1001 vertices"),
        (["partition", "-"], "matrix 1001 0\n", "1001 matrix rows"),
        (["partition", "-"], "matrix 1000000000 0\n", "1000000000 matrix rows"),
        (["partition", "-"], "matrix 100000000000000000000 0\n",
         "100000000000000000000 matrix rows"),
        (["partition", "-"], "matrix 2 1001\n", "1001 matrix columns"),
        (["partition", "-"], "matrix 1001 1\n" + "1\n" * 1001, "1001 matrix rows"),
        (["fundgraph", "-"], _cotree_multigraph(1001), "1001 cotree edges"),
        (["matroid", "fromgraph", "-"], _cotree_multigraph(1001), "1001 cotree edges"),
    ], ids=["graph", "bigraph", "bigraph-columns", "multigraph", "matrix-rows",
            "matrix-rows-1e9", "matrix-rows-1e20", "matrix-columns", "matrix-rows-written",
            "fundgraph-cotree", "fromgraph-cotree"])
    def test_header_over_the_cap_exits_3(self, argv, doc, message, capsys):
        assert run(argv, stdin=doc) == (EXIT_BUDGET, "")
        assert capsys.readouterr().err == f"budget exceeded: {message} exceeds the header cap 1000\n"

    @pytest.mark.parametrize("argv, kind, sizes", [
        (["pivot", "-", "0", "1"], "graph", 1),
        (["partition", "--pair", "-", "-"], "bigraph", 2),
        (["fundgraph", "-"], "multigraph", 1),
        (["partition", "-"], "matrix", 2),
    ], ids=["graph", "bigraph", "multigraph", "matrix"])
    @pytest.mark.parametrize("bad", ["x", "-1", "count"], ids=["non-integer", "negative", "count"])
    def test_bad_header_size_is_usage(self, argv, kind, sizes, bad, capsys):
        if bad == "count":
            head = f"{kind} " + " ".join(["1"] * (sizes + 1))
        else:
            head = f"{kind} " + " ".join(["1"] * (sizes - 1) + [bad])
        assert run(argv, stdin=head + "\n") == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: bad {kind} header: '{head}'\n"

    def test_edgeless_multigraph_with_a_huge_header_is_not_connected(self):
        # A file header over the cap exits 3, but the library takes any
        # vertex count: fewer edges than n - 1 answer NotConnected before
        # any per-vertex list.  Run in a child with a memory limit and a
        # timeout, since a walk over 10^20 vertices grows until it is stopped.
        src = Path(pivotkit.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = ("from pivotkit.matroid import MultiGraph, graphic_matroid\n"
                "graphic_matroid(MultiGraph(10 ** 20), frozenset())\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, preexec_fn=_limit_memory)
        assert proc.returncode == 1
        assert proc.stderr.endswith("NotConnected: multigraph is not connected\n")

    def test_files_written_at_the_instance_cap_parse(self):
        """gen writes at most 1,000 vertices; fundgraph of gen random 1000
        1000 is the widest bigraph, 999 by 1,000."""
        for gen in (["ktt", "1000"], ["c6blowup", "334"], ["random", "1000", "1000"]):
            code, doc = run(["gen", *gen])
            assert code == EXIT_OK and parse_multigraph(doc)[0].n == 1000
        code, fund = run(["fundgraph", "-"], stdin=doc)
        m = parse_bigraph(fund)
        assert code == EXIT_OK and (m.nrows, m.ncols) == (999, 1000)
        code, mat = run(["matroid", "fromgraph", "-"], stdin=doc)
        assert code == EXIT_OK and len(parse_matroid(mat).element_order()) == 1999
        # A hand-written multigraph at the cotree cap: 1 x 1,000 and 1,000 x 1.
        doc = _cotree_multigraph(1000)
        code, fund = run(["fundgraph", "-"], stdin=doc)
        assert code == EXIT_OK and parse_bigraph(fund).ncols == 1000
        for flags, shape in (([], (1, 1000)), (["--cographic"], (1000, 1))):
            code, mat = run(["matroid", "fromgraph", "-", *flags], stdin=doc)
            rep = parse_matroid(mat).rep
            assert code == EXIT_OK and (rep.nrows, rep.ncols) == shape

    @pytest.mark.parametrize("argv, message", [
        (["gen", "ktt", _BIG], f"{_BIG} vertices exceeds the instance cap 1000"),
        (["gen", "random", "2", _BIG], f"{_BIG} extra edges exceeds the instance cap 1000"),
        (["gen", "c6blowup", _BIG], "299999999999999999998 vertices exceeds the instance cap 1000"),
        (["check", "fun-lemma", "--instance", f"ktt:{_BIG}"],
         f"{_BIG} vertices exceeds the instance cap 1000"),
        (["check", "fun-lemma", "--max-tree-vertices", _BIG],
         f"fun-lemma caps max_tree_vertices at 1000, got {_BIG}"),
        (["check", "cofun-lemma", "--max-extra", _BIG],
         f"cofun-lemma caps max_extra at 1000, got {_BIG}"),
    ], ids=["gen-ktt", "gen-random", "gen-c6blowup", "instance", "max-tree-vertices",
            "max-extra"])
    def test_instance_size_past_the_cap_exits_3_before_allocation(self, argv, message):
        # Such sizes once built lists until memory ran out and ended in a
        # MemoryError traceback (exit 1), so each runs in a child with a
        # memory limit.
        src = Path(pivotkit.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-m", "pivotkit.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60,
                              preexec_fn=_limit_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_BUDGET, "", f"budget exceeded: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["conn-equiv", "--k-max", "0"],
        ["conn-equiv", "--k-max", "-3"],
        ["conn-equiv", "--max-elements", "0"],
        ["conn-equiv", "--max-elements", "1"],
        ["pivot-matroid", "--max-elements", "0"],
        ["pivot-matroid", "--max-elements", "1"],
        ["fun-lemma", "--trials", "0"],
        ["cofun-lemma", "--trials", "0"],
        ["struct-density", "--trials", "0"],
        ["rankconn-lemma", "--trials", "-2"],
        ["pert-partition", "--trials", "0"],
        ["pivot-matroid", "--trials", "0"],
        ["conn-equiv", "--trials", "-1"],
        ["avg-exists", "--trials", "0"],
        ["tree-lemma", "--max-edges", "4"],
        ["tree-lemma", "--max-edges", "0"],
        ["tree-lemma", "--max-edges", "-3"],
        ["rankconn-lemma", "--n-max", "2"],
        ["rankconn-lemma", "--n-max", "3"],
        ["avg-exists", "--n-max", "4"],
        ["avg-exists", "--k", "0"],
        ["struct-density", "--classes", "0"],
        ["struct-density", "--classes", "-1"],
        ["pert-partition", "--size", "0", "--trials", "3"],
        ["pert-partition", "--max-rank", "-1"],
        ["fun-lemma", "--max-tree-vertices", "1"],
        ["cofun-lemma", "--max-tree-vertices", "1"],
        ["fun-lemma", "--max-extra", "-1"],
        ["cofun-lemma", "--max-extra", "-1"],
        ["fun-lemma", "--s", "0"],
        ["fun-lemma", "--t", "0"],
        ["fun-lemma", "--instance", "ktt:4", "--t", "-1"],
        ["cofun-lemma", "--s", "0"],
        ["struct-density", "--s", "0"],
        ["avg-exists", "--n-max", "13", "--k", "0"],
    ])
    def test_campaign_parameter_out_of_range_is_usage(self, argv, capsys):
        code, out = run(["check"] + argv)
        assert code == EXIT_USAGE and out == ""
        assert "must be at least" in capsys.readouterr().err


class TestCheckAndReplay:
    def test_check_pass(self):
        code, out = run(["check", "pivot-matroid", "--trials", "20"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "PASS"

    def test_check_deterministic_output(self):
        argv = ["check", "struct-density", "--trials", "20", "--seed", "4"]
        _, out1 = run(argv)
        _, out2 = run(argv)
        assert out1 == out2

    def test_check_violation_and_replay(self, tmp_path):
        code, out = run(["check", "fun-lemma", "--instance", "ktt:5",
                         "--s", "2", "--t", "5", "--bound-offset", "-1"])
        assert code == EXIT_VIOLATION
        assert out.splitlines()[0] == "FAIL"
        report = tmp_path / "report.txt"
        report.write_text(out)
        code, out = run(["replay", str(report)])
        assert code == EXIT_VIOLATION
        assert "witness 0 CONFIRMED" in out

    @pytest.mark.parametrize("tree, s, reason", [
        (Graph.path(3), 1, "TreeTooSmall"),
        (Graph.path(7), 0, "ValueError"),
        (Graph.cycle(6), 1, "NotATree"),
    ])
    def test_tree_witness_outside_the_hypothesis_is_not_reproduced(self, tmp_path, tree, s,
                                                                   reason):
        data = format_graph(tree).strip().replace("\n", ";")
        report = tmp_path / "report.txt"
        report.write_text("FAIL\nname=tree-lemma\nviolations=1\n"
                          f"witness name=tree-lemma reason={reason} s={s} data={data}\n")
        code, out = run(["replay", str(report)])
        assert (code, out) == (EXIT_USAGE, "witness 0 NOT-REPRODUCED\n")

    def test_replay_no_witnesses(self, tmp_path):
        _, out = run(["check", "pivot-matroid", "--trials", "5"])
        report = tmp_path / "report.txt"
        report.write_text(out)
        code, out = run(["replay", str(report)])
        assert code == EXIT_OK and "no witnesses" in out

    def test_bad_instance_spec_is_usage_before_any_trial(self, monkeypatch, capsys):
        import pivotkit.verify
        calls = []
        real = pivotkit.verify.find_complete_bipartite

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pivotkit.verify, "find_complete_bipartite", counting)
        code, out = run(["check", "fun-lemma", "--instance", "ktt:5",
                         "--instance", "c6blowup:3", "--instance", "bogus"])
        assert (code, out, calls) == (EXIT_USAGE, "", [])
        assert "'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["ktt:x", "ktt:1", "c6blowup:", "random:5:x:1"])
    def test_bad_instance_spec_message_names_the_spec(self, spec, capsys):
        code, out = run(["check", "cofun-lemma", "--instance", spec])
        assert code == EXIT_USAGE and out == ""
        assert repr(spec) in capsys.readouterr().err

    def test_unknown_campaign_is_usage(self):
        code, _ = run(["check", "not-a-campaign"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("seeds, flags, k_max, trials", [
        (range(8), ["--k-max", "5", "--trials", "20"], 5, 20),
        (range(1), [], 4, 100),
        (range(1), ["--k-max", "2"], 2, 100),
    ])
    def test_conn_equiv_golden_output(self, seeds, flags, k_max, trials):
        # Captured from the submatrix-based connectivity function: every
        # one of these runs passes, with no vacuous trial.
        for seed in seeds:
            code, out = run(["check", "conn-equiv", "--seed", str(seed)] + flags)
            assert code == EXIT_OK
            assert out == (f"PASS\nname=conn-equiv\nseed={seed}\nparam.k_max={k_max}\n"
                           f"param.max_elements=10\nparam.trials={trials}\n"
                           f"trials_run={trials}\nvacuous=0\nviolations=0\n")

    def test_tree_lemma_golden_output(self):
        # Captured from the set-based split and its networkx tree source.
        for seed in range(3):
            code, out = run(["check", "tree-lemma", "--seed", str(seed)])
            assert code == EXIT_OK
            assert out == (f"PASS\nname=tree-lemma\nseed={seed}\nparam.max_edges=11\n"
                           "trials_run=1765\nvacuous=0\nviolations=0\n")

    @pytest.mark.parametrize("flags, digests", [
        ([], ["5c9849f36be3046f6cb8758706260a0225d90b8377696c7971d76132738785cf",
              "d92e4e9722f81e8f8acec8c228cdc083ad00cdda0917dbc9322b8d378aa08f54",
              "92958b69cccb9e83c994c86be0d4e3998a281eb089a72aa7fd415e2c1a27593c",
              "ad9f8ccd45a2a788000d6be40d87374d7a92b1247bb293888aeb84e6753bdbd5",
              "a144c33f59e75045dbfe9e1b49ab8d980bc699a5895d1ae58214b52066a89dc4",
              "060b783b3bfd4c4165017c89700b36d316a4dc234757a91874574fe3fab86c28",
              "155de985ddb108aa10e881c60755682ec4dde0afcf11f7f0d1174ff5afc1fb5d",
              "8c774ede5f69564dd323a170d1bd9bd61862dafaf4969300c9c919cb23461ae0"]),
        (["--size", "40", "--max-rank", "6", "--trials", "50"],
         ["45b76eb581b31df913af6e5745dd6a5674be15585d93455282dd8c770bd2ef2b",
          "489f0656b94ceb3246063ed30e9151d7b006eaf4c5a0bac58b21bdf93e5410e7",
          "eba1496c9baa154f7d43dcbd16d1d392ea2a2df8d609e3425865461d58babe9f",
          "7cae5fbe5ea04e84c8d1462f1f3c379160006144b77f7cca14fd3495b0c0482c",
          "3858b82cb98e0ebaf73e054f893bb652b5c482b85a0e5f779bd87085df1c27fc",
          "b2b4e97cdaed1097931b77b93530f1bc236487d3bd49d9a8a67d97f128039873",
          "1053a98077179d4071f4ab2bee53aff9f23fd987bcf56e5a6fbd4f44412a0344",
          "2cd5603572ce1ffe3e568ba2dd5d2b2851e03ee8fe6bd36fedeeffc9a1709cac"]),
    ])
    def test_pert_partition_golden_output(self, flags, digests):
        # sha256 of the reports on seeds 0-7.  The larger size and rank allow
        # up to 64 classes a side, where the defaults allow 8.
        for seed, digest in enumerate(digests):
            code, out = run(["check", "pert-partition", "--seed", str(seed)] + flags)
            assert (code, hashlib.sha256(out.encode("ascii")).hexdigest()) == (EXIT_OK, digest)

    @pytest.mark.parametrize("name", campaign_names())
    def test_every_parameter_is_reachable_from_the_cli(self, name):
        # Each integer parameter passed at its value through its flag
        # gives the bytes of a run that leaves the flag out.
        small = {} if name == "tree-lemma" else {"trials": 3}
        base = ["check", name, "--seed", "1"]
        for key, value in small.items():
            base += ["--" + key.replace("_", "-"), str(value)]
        expected = run(base)
        assert expected[0] == EXIT_OK
        for key, value in run_campaign(name, small, seed=1).params.items():
            if isinstance(value, int):
                assert run(base + ["--" + key.replace("_", "-"), str(value)]) == expected, key

    def test_pinned_campaign_output(self):
        # Every pinned campaign unit of the benchmark, read-only: each
        # campaign at its defaults on seeds 0-31.
        pins = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pins.json")
                          .read_text())["campaigns"]
        units = [(name, seed) for name in campaign_names() for seed in range(32)]
        assert sorted(f"{name}/seed{seed}" for name, seed in units) == sorted(pins)
        for name, seed in units:
            code, out = run(["check", name, "--seed", str(seed)])
            digest = hashlib.sha256(out.encode("ascii")).hexdigest()
            assert [code, digest] == pins[f"{name}/seed{seed}"], (name, seed)

    def test_smallest_legal_sizes_run(self):
        code, out = run(["check", "tree-lemma", "--max-edges", "5"])
        assert code == EXIT_OK and "trials_run=6\n" in out
        code, out = run(["check", "rankconn-lemma", "--n-max", "4", "--trials", "1"])
        assert code == EXIT_OK and "trials_run=1\n" in out


def test_module_entry_point_runs_the_cli():
    src = Path(pivotkit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "pivotkit.cli", "cutrank", "-",
                           "--set", "0,1"], input=format_graph(Graph.cycle(4)),
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK and proc.stdout.strip() == "2"


def test_cli_import_does_not_load_networkx():
    src = Path(pivotkit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, pivotkit.cli; print('networkx' in sys.modules)"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_cli_import_does_not_load_dataclasses():
    # Every result record is a NamedTuple; pytest itself loads dataclasses,
    # so the import is checked in a fresh interpreter.
    src = Path(pivotkit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", "import sys, pivotkit.cli; "
                           "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


def test_campaigns_do_not_load_networkx():
    # src/ uses only the standard library: every campaign at its defaults
    # runs without networkx ever being imported.
    src = Path(pivotkit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys; from pivotkit.verify import campaign_names, run_campaign; "
            "assert all(run_campaign(name).passed for name in campaign_names()); "
            "print('networkx' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


def test_successive_calls_share_no_parser_state():
    # The parser is built once per process; one call's options must not
    # reach the next.
    src = Path(pivotkit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["check", "fun-lemma", "--trials", "5"]
    fresh = subprocess.run([sys.executable, "-m", "pivotkit.cli", *argv],
                           capture_output=True, text=True, env=env)
    assert fresh.returncode == EXIT_OK and "param.instances=None\n" in fresh.stdout
    code, out = run(["check", "fun-lemma", "--instance", "ktt:3", "--instance", "ktt:4"])
    assert code == EXIT_OK and "param.instances=['ktt:3', 'ktt:4']\n" in out
    assert run(argv) == (EXIT_OK, fresh.stdout)
    assert run(["check", "fun-lemma", "--trials", "x"]) == (EXIT_USAGE, "")
    assert run(argv) == (EXIT_OK, fresh.stdout)


def test_every_subcommand_declares_its_handler():
    # A leaf subcommand without `run` would reach the handler call and
    # exit 4 instead of running.
    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, path + [name])

    found = list(leaves(pivotkit.cli._build_parser(), []))
    assert len(found) == 17
    for path, parser in found:
        assert callable(parser.get_default("run")), path


def test_tree_problem_message_is_independent_of_the_hash_seed():
    src = Path(pivotkit.__file__).resolve().parents[1]
    doc = "multigraph 3\n0 1 tree a\n1 2 tree b\n0 0 tree l\n1 1 tree m\n"
    lines = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run([sys.executable, "-m", "pivotkit.cli", "fundgraph", "-"],
                              input=doc, capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_USAGE
        lines.add(proc.stderr)
    assert lines == {"error: tree edge l is a loop\n"}


def test_unknown_label_message_is_independent_of_the_hash_seed():
    src = Path(pivotkit.__file__).resolve().parents[1]
    doc = "basis a\nnonbasis b\nmatrix 1 1\n1\n"
    for argv, label in [(["minor", "-", "--delete", "zz,yy,b", "--contract", "xx,ww"], "ww"),
                        (["lambda", "-", "--set", "zz,yy,xx"], "xx")]:
        lines = set()
        for seed in range(6):
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run([sys.executable, "-m", "pivotkit.cli", "matroid", *argv],
                                  input=doc, capture_output=True, text=True, env=env)
            assert proc.returncode == EXIT_USAGE
            lines.add(proc.stderr)
        assert lines == {f"error: unknown element '{label}'\n"}
