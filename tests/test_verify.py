import inspect
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import pivotkit
from pivotkit import cli, cutrank, matroid, structure, verify
from pivotkit.cutrank import find_low_rank_separation
from pivotkit.errors import CapExceeded, FormatError, UnknownCampaign
from pivotkit.gf2 import BitMatrix
from pivotkit.graph import DegreeStats
from pivotkit.matroid import (BinaryMatroid, connectivity_lambda, format_matroid,
                              is_k_connected)
from pivotkit.verify import (_random_graph, _random_matroid, campaign_names,
                             format_report, parse_report, replay_report,
                             replay_witness, run_campaign)

FAST_PARAMS = {
    "fun-lemma": {"trials": 40},
    "cofun-lemma": {"trials": 40},
    "tree-lemma": {"max_edges": 7},
    "struct-density": {"trials": 40},
    "rankconn-lemma": {"trials": 60, "n_max": 7},
    "pert-partition": {"trials": 40, "size": 6},
    "pivot-matroid": {"trials": 40, "max_elements": 8},
    "conn-equiv": {"trials": 20, "max_elements": 8},
    "avg-exists": {"trials": 5, "n_max": 8},
}


class TestRunCampaign:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_all_campaigns_pass_at_small_scale(self, name):
        report = run_campaign(name, FAST_PARAMS[name], seed=1)
        assert report.passed, report.violations
        assert report.trials_run > 0

    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_reports_are_byte_identical_per_seed(self, name):
        r1 = run_campaign(name, FAST_PARAMS[name], seed=7)
        r2 = run_campaign(name, FAST_PARAMS[name], seed=7)
        assert format_report(r1) == format_report(r2)

    def test_unknown_campaign(self):
        with pytest.raises(UnknownCampaign) as info:
            run_campaign("nope")
        assert str(info.value) == "unknown campaign 'nope'"

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            run_campaign("fun-lemma", {"bogus": 1})

    def test_caps_enforced(self):
        with pytest.raises(CapExceeded):
            run_campaign("tree-lemma", {"max_edges": 13})
        with pytest.raises(CapExceeded):
            run_campaign("rankconn-lemma", {"trials": 1, "n_max": 11})
        with pytest.raises(CapExceeded):
            run_campaign("avg-exists", {"trials": 1, "n_max": 13})

    def test_instance_params_run_at_the_instance_cap(self):
        report = run_campaign("fun-lemma", {"trials": 2, "max_tree_vertices": 1000,
                                            "max_extra": 1000}, seed=1)
        assert report.trials_run == 2

    @pytest.mark.parametrize("name, params, error", [
        ("avg-exists", {"n_max": 4}, ValueError),
        ("avg-exists", {"k": 0}, ValueError),
        ("avg-exists", {"k": 2}, CapExceeded),
        ("struct-density", {"classes": 0}, ValueError),
        ("struct-density", {"s": 0}, ValueError),
        ("pert-partition", {"size": 0, "trials": 3}, ValueError),
        ("pert-partition", {"max_rank": -1}, ValueError),
        ("fun-lemma", {"max_tree_vertices": 1}, ValueError),
        ("cofun-lemma", {"max_extra": -1}, ValueError),
        ("fun-lemma", {"instances": ["ktt:4"], "t": 0}, ValueError),
        ("cofun-lemma", {"s": 0}, ValueError),
        ("conn-equiv", {"k_max": 0, "max_elements": 40}, ValueError),
        ("conn-equiv", {"max_elements": 40}, CapExceeded),
        ("fun-lemma", {"max_tree_vertices": 1001}, CapExceeded),
        ("cofun-lemma", {"max_extra": 1001}, CapExceeded),
        ("pert-partition", {"size": 1001}, CapExceeded),
        ("pert-partition", {"max_rank": 1001}, CapExceeded),
        ("pert-partition", {"size": 0, "max_rank": 1001}, ValueError),
        ("fun-lemma", {"s": 13}, CapExceeded),
        ("fun-lemma", {"t": 13}, CapExceeded),
        ("cofun-lemma", {"s": 13}, CapExceeded),
    ])
    def test_ranges_are_checked_before_any_trial(self, name, params, error, monkeypatch):
        def no_trials(p, rng):
            raise AssertionError("a trial was generated")
        campaign = verify._CAMPAIGNS[name]._replace(generate=no_trials)
        monkeypatch.setitem(verify._CAMPAIGNS, name, campaign)
        with pytest.raises(error, match="must be at least" if error is ValueError else "caps"):
            run_campaign(name, params)

    @pytest.mark.parametrize("params", [{"size": 1000}, {"size": 1, "max_rank": 1000},
                                        {"size": 1000, "max_rank": 20}])
    def test_pert_partition_runs_at_its_caps(self, params):
        start = time.perf_counter()
        report = run_campaign("pert-partition", {"trials": 1, **params}, seed=1)
        assert report.passed and report.trials_run == 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name, params", [
        ("fun-lemma", {"s": 12, "t": 12}), ("fun-lemma", {"s": 1, "t": 12}),
        ("cofun-lemma", {"s": 12})])
    def test_biclique_sides_run_at_their_cap(self, name, params):
        start = time.perf_counter()
        report = run_campaign(name, {"instances": ["random:1000:1000:4"], **params})
        assert report.trials_run == 1
        assert time.perf_counter() - start < 1.0

    def test_struct_density_classes_cost_only_the_classes_drawn(self):
        start = time.perf_counter()
        report = run_campaign("struct-density", {"classes": 10 ** 8, "trials": 1}, seed=0)
        assert report.trials_run == 1
        assert time.perf_counter() - start < 1.0

    def test_random_partition_groups_by_ascending_class_id(self):
        for classes in (1, 2, 3, 5, 40):
            for seed in range(20):
                rng, again = random.Random(seed), random.Random(seed)
                got = verify._random_partition(rng, 9, classes)
                drawn = [again.randrange(classes) for _ in range(9)]
                assert got == tuple(tuple(i for i, a in enumerate(drawn) if a == c)
                                    for c in range(classes) if c in drawn)
                assert rng.random() == again.random()

    def test_tree_lemma_reports_every_invalid_split(self, monkeypatch):
        # split_tree's one validation pass is the campaign's only check.
        monkeypatch.setattr(structure, "_split_problem", lambda *args: "planted")
        report = run_campaign("tree-lemma", {"max_edges": 7})
        assert report.trials_run == 40  # the 6 + 11 + 23 trees with 5..7 edges, s = 1
        assert len(report.violations) == report.trials_run
        assert {w["reason"] for w in report.violations} == {"RuntimeError"}
        assert format_report(report).startswith("FAIL\n")
        assert replay_witness(report.violations[0])

    def test_campaign_names(self):
        assert set(FAST_PARAMS) == set(campaign_names())

    def test_avg_exists_is_all_vacuous_at_small_scale(self):
        # the hypothesis needs average degree >= 4 without 4-cycles, which
        # no graph on at most 12 vertices satisfies
        report = run_campaign("avg-exists", {"trials": 10, "n_max": 10}, seed=3)
        assert report.vacuous == report.trials_run
        assert report.vacuous_warning

    def test_explicit_instances_override_random(self):
        report = run_campaign("fun-lemma",
                              {"instances": ["ktt:4", "c6blowup:3"], "s": 2, "t": 4},
                              seed=0)
        assert report.trials_run == 2


class TestSelfTest:
    """Tightening the bound by one must produce violations on the tight
    generator instances; this exercises witness capture and replay."""

    def test_fun_lemma_detects_tight_instance(self):
        report = run_campaign(
            "fun-lemma",
            {"instances": ["ktt:5"], "s": 2, "t": 5, "bound_offset": -1},
            seed=0)
        assert not report.passed
        assert len(report.violations) == 1

    def test_violation_replays(self):
        report = run_campaign(
            "fun-lemma",
            {"instances": ["ktt:5"], "s": 2, "t": 5, "bound_offset": -1},
            seed=0)
        assert replay_witness(report.violations[0])

    def test_replay_report_round_trip(self):
        report = run_campaign(
            "fun-lemma",
            {"instances": ["ktt:5", "c6blowup:4"], "s": 2, "t": 5,
             "bound_offset": -1},
            seed=0)
        text = format_report(report)
        results = replay_report(text)
        assert len(results) == len(report.violations)
        assert all(confirmed for _, confirmed in results)

    def test_cofun_lemma_self_test(self):
        report = run_campaign(
            "cofun-lemma",
            {"instances": ["c6blowup:3"], "s": 3, "bound_offset": -15},
            seed=0)
        assert not report.passed
        assert all(replay_witness(w) for w in report.violations)


class TestReportFormat:
    def test_round_trip(self):
        report = run_campaign("pivot-matroid", {"trials": 10}, seed=5)
        parsed = parse_report(format_report(report))
        assert parsed["summary"] == "PASS"
        assert parsed["fields"]["name"] == "pivot-matroid"
        assert parsed["fields"]["seed"] == "5"
        assert parsed["fields"]["trials_run"] == str(report.trials_run)
        assert parsed["fields"]["vacuous"] == str(report.vacuous)
        assert parsed["fields"]["violations"] == "0"

    def test_witness_round_trip(self):
        report = run_campaign(
            "fun-lemma",
            {"instances": ["ktt:5"], "s": 2, "t": 5, "bound_offset": -1},
            seed=0)
        parsed = parse_report(format_report(report))
        assert parsed["summary"] == "FAIL"
        w = parsed["witnesses"][0]
        assert w["name"] == "fun-lemma"
        assert w["s"] == "2" and w["t"] == "5"
        assert "multigraph" in w["data"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_report("hello\n")
        with pytest.raises(FormatError):
            parse_report("FAIL\nwitness name=fun-lemma s=2\n")

    def test_replay_unknown_witness_name(self):
        with pytest.raises(UnknownCampaign):
            replay_witness({"name": "bogus", "data": ""})

    def test_replay_does_not_relabel_an_error_inside_the_check(self, monkeypatch):
        def failing(*args):
            raise ValueError("internal")

        campaign = verify._CAMPAIGNS["conn-equiv"]._replace(check=failing)
        monkeypatch.setitem(verify._CAMPAIGNS, "conn-equiv", campaign)
        data = verify._embed(format_matroid(BinaryMatroid(["a"], ["b"], BitMatrix(1, 1, [1]))))
        w = {"name": "conn-equiv", "k_max": "4", "data": data}
        with pytest.raises(ValueError) as info:
            replay_witness(w)
        assert type(info.value) is ValueError and str(info.value) == "internal"

    def test_different_seeds_differ_somewhere(self):
        texts = {format_report(run_campaign("struct-density",
                                            {"trials": 10}, seed=s))
                 for s in range(3)}
        # same params, different seeds: reports agree except possibly on
        # vacuous counts; at minimum the seed field differs
        assert len(texts) == 3


def test_one_search_at_k_max_answers_every_smaller_k():
    """conn-equiv searches once per side, at k_max: the least witness
    order l says the object is k-connected exactly for k <= l."""
    rng = random.Random(5)
    k_max = 5
    for _ in range(40):
        m = _random_matroid(rng, 10)
        _, witness = is_k_connected(m, k_max)
        m_order = k_max if witness is None else connectivity_lambda(m, witness) + 1
        g = _random_graph(rng, rng.randint(4, 10), rng.uniform(0.1, 0.6))
        sep = find_low_rank_separation(g, k_max)
        g_order = k_max if sep is None else sep.order
        for k in range(1, k_max + 1):
            assert is_k_connected(m, k)[0] == (k <= m_order)
            assert (find_low_rank_separation(g, k) is None) == (k <= g_order)


def _random_matroid_on(rng, n):
    """A random binary matroid on exactly n elements, with basis and
    non-basis labels interleaved in sorted order."""
    nr = rng.randint(0, n)
    labels = rng.sample([f"e{i:02}" for i in range(n)], n)
    rep = BitMatrix(nr, n - nr, [rng.randrange(1 << (n - nr)) for _ in range(nr)])
    return BinaryMatroid(labels[:nr], labels[nr:], rep)


@pytest.mark.parametrize("n", range(1, 11))
def test_conn_equiv_sweep_ranks_every_split_once(n, monkeypatch):
    """The sweep evaluates lambda on each of the 2^(n-1) element masks
    without the top element exactly once."""
    real = verify.connectivity_kernel
    seen = []

    def recording(m):
        lam = real(m)

        def record(x):
            seen.append(x)
            return lam(x)

        return record

    monkeypatch.setattr(verify, "connectivity_kernel", recording)
    rng = random.Random(n)
    for m in [_random_matroid_on(rng, n) for _ in range(3)]:
        seen.clear()
        assert verify._check_conn_equiv(m, 4) is None
        assert sorted(seen) == list(range(1 << (n - 1)))


def test_conn_equiv_sweep_catches_one_wrong_split(monkeypatch):
    """A kernel off by one on a single split fails every trial, and each
    witness replays under the same kernel."""
    real = verify.connectivity_kernel

    def off_by_one(m):
        lam = real(m)
        wrong = 0x555555 & ((1 << (len(m.ground()) - 1)) - 1)
        return lambda x: lam(x) + (x == wrong)

    monkeypatch.setattr(verify, "connectivity_kernel", off_by_one)
    report = run_campaign("conn-equiv", {"trials": 5, "max_elements": 12}, seed=3)
    assert not report.passed and len(report.violations) == report.trials_run == 5
    assert all(replay_witness(w) for w in parse_report(format_report(report))["witnesses"])


def test_conn_equiv_checks_the_separation_walk_against_the_sweep(monkeypatch):
    """A walk that finds no separation disagrees with the sweep's exhaustive
    order on every trial that has one (97 of the 100 at seed 0), and each
    witness replays under the same walk.  The fault goes into every
    namespace that binds the walk, so a second search driven by it would
    fail alike and hide it."""
    for module in (pivotkit, cli, cutrank, matroid, verify):
        monkeypatch.setattr(module, "find_low_rank_separation", lambda g, k: None)
    report = run_campaign("conn-equiv", None, 0)
    assert len(report.violations) == 97 and report.trials_run == 100
    assert all(replay_witness(w) for w in parse_report(format_report(report))["witnesses"])


def test_conn_equiv_sweep_memory_is_bounded():
    """The sweep keeps two half-size subset tables, not one list per split:
    on 14 elements its peak is about 18 KB, against about 1.5 MB with one
    table of all 2^13 member lists."""
    m = _random_matroid_on(random.Random(14), 14)
    verify._check_conn_equiv(m, 4)
    tracemalloc.start()
    try:
        assert verify._check_conn_equiv(m, 4) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def _stats(min_degree, average_degree=0):
    return lambda g: DegreeStats(min_degree, min_degree, Fraction(average_degree))


def _failing_split(tree, s):
    raise RuntimeError("planted")


class _Separation:
    order = 0  # below every λ order, so the two sides of conn-equiv disagree


# Per campaign: small parameters and the verify globals that plant a violation.
PLANTED = {
    "fun-lemma": ({"trials": 20}, {"degree_stats": _stats(99)}),
    "cofun-lemma": ({"trials": 20}, {"degree_stats": _stats(99)}),
    "tree-lemma": ({"max_edges": 6}, {"split_tree": _failing_split}),
    "struct-density": ({"trials": 20}, {"check_struct_density": lambda *args: False}),
    "rankconn-lemma": ({"trials": 20, "n_max": 6},
                       {"find_low_rank_separation": lambda g, k: _Separation()}),
    "pert-partition": ({"trials": 5, "size": 4},
                       {"reconstruct_from_partition": lambda g2, bp: None}),
    "pivot-matroid": ({"trials": 5, "max_elements": 6}, {"circuits": lambda m: object()}),
    "conn-equiv": ({"trials": 5, "max_elements": 6},
                   {"find_low_rank_separation": lambda g, k: _Separation()}),
    "avg-exists": ({"trials": 2, "n_max": 5},
                   {"is_c4_free": lambda g: True, "degree_stats": _stats(0, 99),
                    "find_low_rank_separation": lambda g, k: _Separation()}),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_violation_round_trips_through_the_report(name, monkeypatch):
    params, patches = PLANTED[name]
    for attr, fake in patches.items():
        monkeypatch.setattr(verify, attr, fake)
    report = run_campaign(name, params, seed=2)
    assert report.violations
    parsed = parse_report(format_report(report))
    assert len(parsed["witnesses"]) == len(report.violations)
    assert all(replay_witness(w) for w in parsed["witnesses"])
    # The fields decode to the check's exact arguments, not merely some
    # arguments that also violate, and encode back to the same witness.
    campaign = verify._CAMPAIGNS[name]
    for original, w in zip(report.violations, parsed["witnesses"]):
        args = [decode(w, key) for key, (_, decode) in campaign.fields]
        again = {"name": name, **campaign.check(*args)}
        for (key, (encode, _)), arg in zip(campaign.fields, args):
            again[key] = encode(arg)
        assert _fields(again) == _fields(original)


@pytest.mark.parametrize("name", campaign_names())
def test_fields_name_each_check_argument_once(name):
    campaign = verify._CAMPAIGNS[name]
    keys = [key for key, _ in campaign.fields]
    assert len(set(keys)) == len(keys) == len(inspect.signature(campaign.check).parameters)


def _fields(witness):
    # A replayed instance loses its "# gen ..." comment line and nothing else.
    out = {k: str(v) for k, v in witness.items()}
    out["data"] = ";".join(x for x in out["data"].split(";") if not x.startswith("#"))
    return out


@pytest.mark.parametrize("partition", ["constant_block_partition", "perturbation_partition"])
def test_pert_partition_that_drops_a_class_is_a_violation(partition, monkeypatch):
    """A partition missing its last row class fails the check in every
    trial; it is neither a PASS nor a usage error.  The check calls
    perturbation_partition, which calls constant_block_partition in its
    own module."""
    module = structure if partition == "constant_block_partition" else verify
    made = getattr(module, partition)

    def dropping(*args):
        bp = made(*args)
        blocks = BitMatrix(bp.blocks.nrows - 1, bp.blocks.ncols, bp.blocks.rows[:-1])
        return bp._replace(row_classes=bp.row_classes[:-1], blocks=blocks)

    monkeypatch.setattr(module, partition, dropping)
    report = run_campaign("pert-partition", {"trials": 5, "size": 4}, seed=2)
    assert len(report.violations) == report.trials_run == 5


def test_planted_campaigns_cover_every_campaign():
    assert sorted(PLANTED) == campaign_names()
