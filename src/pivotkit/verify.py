"""Property-testing campaigns against brute-force oracles.

Each campaign generates instances (random per seed, or exhaustive),
evaluates a hypothesis, and asserts the matching conclusion.  Trials
whose hypothesis fails are counted as vacuous rather than as passes.
Every violation is recorded with a fully serialized witness that can be
replayed independently of the original run.  Reports are bit-identical
across runs with the same (name, params, seed).

Each campaign is one ``Campaign`` record in ``_CAMPAIGNS``: its parameters
(``Param``: default, least legal value, cap), a generator of what each trial
draws (or VACUOUS), the check, and ``fields``, which encode a violation's
arguments into its witness and decode them back for a replay.
``run_campaign`` checks the merged parameters against the record once,
before any trial; ``replay_witness`` checks a witness's parameter fields
against the same record, then decodes the arguments and runs the check
(a missing or malformed field is a FormatError naming the witness and
the field); the CLI derives the ``check`` flags from the declared names.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from itertools import combinations
from typing import NamedTuple

from ._text import HEADER_CAP, content_lines
from .cutrank import SUBSET_CAP, find_low_rank_separation
from .errors import (CapExceeded, FormatError, NotATree, PartitionInvalid,
                     SubsetCapExceeded, TreeTooSmall, UnknownCampaign)
from .extremal import (Instance, _make_instance, format_instance, gen_c6_blowup_example,
                       gen_ktt_example, gen_random_instance)
from .gf2 import BitMatrix, format_matrix, parse_matrix, rank
from .graph import (Graph, _bits, bipartite_complement, degree_stats,
                    find_complete_bipartite, format_bigraph, format_graph,
                    is_c4_free, parse_bigraph, parse_graph, vertex_connectivity)
from .matroid import (CIRCUIT_ENUM_CAP, BinaryMatroid, change_basis, circuits,
                      connectivity_kernel, format_matroid, parse_matroid,
                      parse_multigraph)
from .pivot import pivot
from .structure import (_group_indices, check_struct_density,
                        free_trees, perturbation_partition, reconstruct_from_partition,
                        split_tree)

VACUOUS_WARN_FRACTION = 0.9
VACUOUS = "vacuous"
# The exhaustive subgraph search of _check_avg_exists visits all 2^n
# vertex subsets, so it is bounded at this many vertices.
_AVG_EXISTS_CAP = 12
# rankconn-lemma's graphs: the campaign draws at most this many vertices,
# and a replayed witness with more is refused before any search.
_RANKCONN_CAP = 10
# Measured on 2 vCPUs with CPython 3.11 (README gives the figures): one
# pert-partition trial at size = max_rank = HEADER_CAP takes about 0.6 s,
# and a K_{s,t} search with s <= t <= 12 on an instance at the cap at
# most 0.05 s.
_BICLIQUE_CAP = 12


class CampaignReport(NamedTuple):
    name: str
    params: dict
    seed: int
    trials_run: int
    vacuous: int
    violations: list  # list of witness dicts

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def vacuous_warning(self) -> bool:
        return self.trials_run > 0 and self.vacuous / self.trials_run > VACUOUS_WARN_FRACTION


def _embed(text: str) -> str:
    return text.strip().replace("\n", ";")


def _unembed(blob: str) -> str:
    return blob.replace(";", "\n") + "\n"


def format_report(report: CampaignReport) -> str:
    lines = ["PASS" if report.passed else "FAIL",
             f"name={report.name}",
             f"seed={report.seed}"]
    for key in sorted(report.params):
        lines.append(f"param.{key}={report.params[key]}")
    lines.append(f"trials_run={report.trials_run}")
    lines.append(f"vacuous={report.vacuous}")
    if report.vacuous_warning:
        lines.append("vacuous_warning=1")
    lines.append(f"violations={len(report.violations)}")
    for w in report.violations:
        parts = [f"witness name={w['name']}"]
        for key in sorted(w):
            if key in ("name", "data"):
                continue
            parts.append(f"{key}={w[key]}")
        parts.append(f"data={w['data']}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    lines = content_lines(text)
    summary = next(lines, None)
    if summary not in ("PASS", "FAIL"):
        raise FormatError("report must start with PASS or FAIL")
    out = {"summary": summary, "fields": {}, "witnesses": []}
    for line in lines:
        if line.startswith("witness "):
            body = line[len("witness "):]
            head, sep, data = body.partition(" data=")
            if not sep:
                raise FormatError(f"witness line without data: {line!r}")
            w = {"data": data}
            for token in head.split():
                key, _, value = token.partition("=")
                w[key] = value
            out["witnesses"].append(w)
        else:
            key, _, value = line.partition("=")
            out["fields"][key] = value
    return out


# --- per-campaign single-instance checks (shared by run and replay) ---

def _check_fun(inst: Instance, s: int, t: int, bound_offset: int):
    """VACUOUS, None (pass), or a violation's fields beyond its arguments."""
    h = inst.fundamental
    if find_complete_bipartite(h, s, t) is not None:
        return VACUOUS
    bound = max(2 * s - 2, t - 1) + bound_offset
    return {} if degree_stats(h).min_degree > bound else None


def _check_cofun(inst: Instance, s: int, bound_offset: int):
    h = bipartite_complement(inst.fundamental)
    if find_complete_bipartite(h, s, s) is not None:
        return VACUOUS
    bound = 5 * s - 1 + bound_offset
    return {} if degree_stats(h).min_degree > bound else None


def _check_tree(tree: Graph, s: int):
    # Outside the lemma's hypothesis (s < 1, not a tree, fewer than 5s
    # edges) is vacuous.  split_tree validates its own output and raises
    # when it is invalid.
    if s < 1:
        return VACUOUS
    try:
        split_tree(tree, s)
    except (NotATree, TreeTooSmall):
        return VACUOUS
    except Exception as exc:  # any other failure to split is a violation
        return {"reason": type(exc).__name__}
    return None


def _check_struct_density(h: BitMatrix, row_classes, col_classes, s: int):
    # check_struct_density validates the classes, so it runs before the search.
    holds = check_struct_density(h, row_classes, col_classes, s)
    if find_complete_bipartite(h, s, s) is not None:
        return VACUOUS
    return None if holds else {}


def _check_rankconn(g: Graph):
    if g.n > _RANKCONN_CAP:
        raise CapExceeded(f"rankconn-lemma caps a graph at {_RANKCONN_CAP} vertices, got {g.n}")
    if not is_c4_free(g):
        return VACUOUS
    k = vertex_connectivity(g)
    return None if find_low_rank_separation(g, k + 1) is None else {"k": k}


def _check_pert(matrices: tuple[BitMatrix, BitMatrix]):
    c, d1 = matrices
    p = rank(c)
    d2 = d1 ^ c
    bp = perturbation_partition(d1, d2)
    try:
        ok = (len(bp.row_classes) <= 2 ** p
              and len(bp.col_classes) <= 2 ** p
              and reconstruct_from_partition(d2, bp) == d1)
    except PartitionInvalid:  # a partition that drops or repeats a class
        ok = False
    return None if ok else {}


def _check_pivot_matroid(m: BinaryMatroid, x: str, y: str):
    # A basis exchange keeps the cycle space, so a `circuits` that skipped
    # the minimality test would agree with itself here; test_matroid's
    # oracles check `circuits` itself.
    m2 = change_basis(m, x, y)
    order = m.element_order()
    pos = {e: i for i, e in enumerate(order)}
    expected = pivot(m.element_graph(), pos[x], pos[y])
    ok = circuits(m) == circuits(m2) and m2.element_graph() == expected
    return None if ok else {}


def _check_conn_equiv(m: BinaryMatroid, k_max: int):
    n = len(m.basis) + len(m.nonbasis)
    if n > SUBSET_CAP:
        raise SubsetCapExceeded(f"{n} elements exceeds the subset cap {SUBSET_CAP}")
    # lambda(X) = lambda(E-X) (swap the two rank terms) and cut-rank(X) =
    # cut-rank(V-X) (transpose the symmetric adjacency), so the masks
    # without the top element cover every split once.  They are walked
    # depth first, a child x + v adding one vertex above x's highest.  A
    # frame holds an echelon of x's rows on the columns outside x, keyed
    # by lowest bit (bits in x are stale, masked off on use), so x's
    # cut-rank is its size; a child pops the row keyed at v and reduces it
    # and v's row into a copy.  Pending masks end in distinct vertices:
    # at most n - 1 echelons of at most n/2 rows.
    lam = connectivity_kernel(m)
    g = m.element_graph()
    adj = g.adj
    bits = max(n - 1, 0)
    # The least order of a separation, lambda(X) + 1 over the splits with
    # lambda(X) < |X|, |E-X|, taken as k_max when none is lower: the
    # object is k-connected exactly for k <= order.
    order = k_max
    stack = [(0, 0, {})]
    while stack:
        x, lo, rows = stack.pop()
        value = lam(x)
        if value != len(rows):
            return {}
        size = x.bit_count()
        if value < order - 1 and value < size and value < n - size:
            order = value + 1
        for v in range(lo, bits):
            bit = 1 << v
            keep = ~(x | bit)
            child = dict(rows)
            for row in (child.pop(bit, 0), adj[v]):
                row &= keep
                while row:
                    low = row & -row
                    if low not in child:
                        child[low] = row
                        break
                    row = (row ^ child[low]) & keep
            stack.append((x | bit, v + 1, child))
    # The pruned separation walk against the exhaustive sweep's answer.
    sep = find_low_rank_separation(g, k_max)
    return None if order == (k_max if sep is None else sep.order) else {}


def _check_avg_exists(g: Graph, k: int):
    if g.n > _AVG_EXISTS_CAP:
        raise CapExceeded(f"avg-exists caps a graph at {_AVG_EXISTS_CAP} vertices, got {g.n}")
    if not is_c4_free(g) or degree_stats(g).average_degree < 4 * k:
        return VACUOUS
    n = g.n
    for size in range(n, 0, -1):
        for keep in combinations(range(n), size):
            sub = g
            for v in sorted(set(range(n)) - set(keep), reverse=True):
                sub = sub.delete_vertex(v)
            if degree_stats(sub).average_degree < k + 1:
                continue
            if find_low_rank_separation(sub, k + 2) is None:
                return None
    return {}


# --- trial generators: each yields the arguments a trial draws, or VACUOUS ---

def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def _random_matroid(rng: random.Random, max_elements: int) -> BinaryMatroid:
    nr = rng.randint(1, max(1, min(5, max_elements - 1)))
    nc = rng.randint(1, max(1, max_elements - nr))
    rep = BitMatrix(nr, nc, [rng.randrange(1 << nc) for _ in range(nr)])
    labels = [f"e{i}" for i in range(nr + nc)]
    return BinaryMatroid(labels[:nr], labels[nr:], rep)


def _parse_instance_spec(spec: str) -> Instance:
    """Generator spec strings: ktt:<t>, c6blowup:<s>, random:<n>:<extra>:<seed>."""
    parts = spec.split(":")
    try:
        if parts[0] == "ktt" and len(parts) == 2:
            return gen_ktt_example(int(parts[1]))
        if parts[0] == "c6blowup" and len(parts) == 2:
            return gen_c6_blowup_example(int(parts[1]))
        if parts[0] == "random" and len(parts) == 4:
            return gen_random_instance(int(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise ValueError(f"bad instance spec {spec!r}: {exc}") from None
    raise ValueError(f"bad instance spec: {spec!r}")


def _gen_instance(p: dict, rng: random.Random):
    specs = p["instances"]
    if specs:
        # Every spec is parsed before the first trial runs.
        yield from [(_parse_instance_spec(spec),) for spec in specs]
        return
    for _ in range(p["trials"]):
        n = rng.randint(2, p["max_tree_vertices"])
        extra = rng.randint(0, p["max_extra"])
        yield (gen_random_instance(n, extra, rng.randrange(2 ** 32)),)


def _gen_tree(p: dict, rng: random.Random):
    # A legal s needs 5s <= edges, so trees start at 5 edges.
    for edges in range(5, p["max_edges"] + 1):
        for tree in free_trees(edges + 1):
            for s in range(1, edges // 5 + 1):
                yield tree, s


def _gen_struct_density(p: dict, rng: random.Random):
    for _ in range(p["trials"]):
        inst = gen_random_instance(rng.randint(3, 8), rng.randint(1, 6),
                                   rng.randrange(2 ** 32))
        h = inst.fundamental
        if rng.random() < 0.5:
            h = bipartite_complement(h)
        row_classes = _random_partition(rng, h.nrows, p["classes"])
        col_classes = _random_partition(rng, h.ncols, p["classes"])
        yield h, row_classes, col_classes


def _random_partition(rng: random.Random, size: int, classes: int):
    """Draw a class id for each of 0..size-1; the classes drawn, by id."""
    drawn = [rng.randrange(classes) for _ in range(size)]
    return tuple(sorted(_group_indices(drawn), key=lambda members: drawn[members[0]]))


def _gen_rankconn(p: dict, rng: random.Random):
    for _ in range(p["trials"]):
        n = rng.randint(4, p["n_max"])
        prob = rng.uniform(0.1, 0.45)
        for _ in range(50):  # rejection sampling for C4-freeness
            g = _random_graph(rng, n, prob)
            if is_c4_free(g):
                yield (g,)
                break
        else:
            yield VACUOUS


def _gen_pert(p: dict, rng: random.Random):
    size = p["size"]
    for _ in range(p["trials"]):
        target_rank = rng.randint(0, p["max_rank"])
        # c = left . right: each row of c XORs the rows of right its left row picks.
        left = [rng.randrange(1 << target_rank) if target_rank else 0 for _ in range(size)]
        right = [rng.randrange(1 << size) for _ in range(target_rank)]
        rows = []
        for picks in left:
            acc = 0
            for k in _bits(picks):
                acc ^= right[k]
            rows.append(acc)
        c = BitMatrix(size, size, rows)
        d1 = BitMatrix(size, size, [rng.randrange(1 << size) for _ in range(size)])
        yield ((c, d1),)


def _gen_pivot_matroid(p: dict, rng: random.Random):
    for _ in range(p["trials"]):
        m = _random_matroid(rng, p["max_elements"])
        ones = [(i, j) for i, row in enumerate(m.rep.rows) for j in _bits(row)]
        if not ones:
            yield VACUOUS
            continue
        i, j = ones[rng.randrange(len(ones))]
        yield m, m.basis[i], m.nonbasis[j]


def _gen_conn_equiv(p: dict, rng: random.Random):
    for _ in range(p["trials"]):
        yield (_random_matroid(rng, p["max_elements"]),)


def _gen_avg_exists(p: dict, rng: random.Random):
    for _ in range(p["trials"]):
        n = rng.randint(5, p["n_max"])
        yield (_random_graph(rng, n, rng.uniform(0.3, 0.7)),)


# --- witness codecs: (encode(value) -> field text, decode(witness, key) -> value) ---

def _field(w: dict, key: str) -> str:
    if key not in w:
        raise FormatError(f"missing field {key}")
    return w[key]


def _int(w: dict, key: str) -> int:
    value = _field(w, key)
    try:
        return int(value)
    except ValueError:
        raise FormatError(f"{key}={value!r} is not an integer") from None


def _text_codec(format_value: Callable, parse_text: Callable) -> tuple:
    """The codec of a value written as a text file, its lines joined by ';'."""
    return (lambda value: _embed(format_value(value)),
            lambda w, key: parse_text(_unembed(_field(w, key))))


def _decode_classes(w: dict, key: str) -> tuple:
    value = _field(w, key)
    try:
        return tuple(tuple(int(x) for x in c.split(",")) for c in value.split("|"))
    except ValueError:
        raise FormatError(f"{key}={value!r} is not classes of comma-separated integers") from None


def _decode_matrices(w: dict, key: str) -> tuple:
    blobs = _field(w, key).split("&")
    if len(blobs) != 2:
        raise FormatError(f"{key} must hold two matrices joined by '&'")
    return tuple(parse_matrix(_unembed(blob)) for blob in blobs)


_INT = (str, _int)
_STR = (str, _field)
_GRAPH = _text_codec(format_graph, parse_graph)
_BIGRAPH = _text_codec(format_bigraph, parse_bigraph)
_MATROID = _text_codec(format_matroid, parse_matroid)
_INSTANCE = _text_codec(format_instance,
                        lambda text: _make_instance(*parse_multigraph(text), "replayed"))
_CLASSES = (lambda classes: "|".join(",".join(map(str, c)) for c in classes), _decode_classes)
_MATRIX_PAIR = (lambda pair: "&".join(_embed(format_matrix(m)) for m in pair),
                _decode_matrices)


# --- the campaign records ---

class Param(NamedTuple):
    """A campaign parameter's default and legal range.

    A value below ``low`` is a usage error (ValueError).  A value above
    ``cap`` is more than the campaign can decide in bounded work
    (CapExceeded).  None leaves that side open.
    """
    default: object
    low: int | None = None
    cap: int | None = None


class Campaign(NamedTuple):
    """Everything one campaign declares.

    ``fields`` holds one (witness key, codec) pair per argument of
    ``check``, in order.  An argument whose key is a parameter's name is
    that parameter's value; ``generate(params, rng)`` yields the others,
    drawn for one trial, or VACUOUS for an instance that cannot meet the
    hypothesis.  ``check(*args)`` returns VACUOUS, None (pass), or a dict
    of the fields a violation's witness holds beyond its arguments.
    """
    params: dict
    generate: Callable
    check: Callable
    fields: tuple


_INSTANCE_PARAMS = {"trials": Param(500, 1), "max_tree_vertices": Param(10, 2, HEADER_CAP),
                    "max_extra": Param(6, 0, HEADER_CAP), "bound_offset": Param(0),
                    "instances": Param(None)}


_CAMPAIGNS = {
    "fun-lemma": Campaign(
        {"s": Param(2, 1, _BICLIQUE_CAP), "t": Param(3, 1, _BICLIQUE_CAP), **_INSTANCE_PARAMS},
        _gen_instance, _check_fun,
        (("data", _INSTANCE), ("s", _INT), ("t", _INT), ("bound_offset", _INT))),
    "cofun-lemma": Campaign(
        {"s": Param(2, 1, _BICLIQUE_CAP), **_INSTANCE_PARAMS}, _gen_instance, _check_cofun,
        (("data", _INSTANCE), ("s", _INT), ("bound_offset", _INT))),
    "tree-lemma": Campaign(
        {"max_edges": Param(11, 5, 12)}, _gen_tree, _check_tree,
        (("data", _GRAPH), ("s", _INT))),
    "struct-density": Campaign(
        {"s": Param(2, 1, _BICLIQUE_CAP), "classes": Param(2, 1), "trials": Param(200, 1)},
        _gen_struct_density, _check_struct_density,
        (("data", _BIGRAPH), ("rows", _CLASSES), ("cols", _CLASSES), ("s", _INT))),
    "rankconn-lemma": Campaign(
        {"trials": Param(1000, 1), "n_max": Param(8, 4, _RANKCONN_CAP)},
        _gen_rankconn, _check_rankconn, (("data", _GRAPH),)),
    "pert-partition": Campaign(
        {"trials": Param(200, 1), "size": Param(8, 1, HEADER_CAP),
         "max_rank": Param(4, 0, HEADER_CAP)},
        _gen_pert, _check_pert, (("data", _MATRIX_PAIR),)),
    "pivot-matroid": Campaign(
        {"trials": Param(200, 1), "max_elements": Param(10, 2, CIRCUIT_ENUM_CAP)},
        _gen_pivot_matroid, _check_pivot_matroid,
        (("data", _MATROID), ("x", _STR), ("y", _STR))),
    "conn-equiv": Campaign(
        {"trials": Param(100, 1), "max_elements": Param(10, 2, SUBSET_CAP),
         "k_max": Param(4, 1)}, _gen_conn_equiv, _check_conn_equiv,
        (("data", _MATROID), ("k_max", _INT))),
    # k = 1 and at most _AVG_EXISTS_CAP vertices keep the exhaustive
    # subgraph search of _check_avg_exists bounded.
    "avg-exists": Campaign(
        {"trials": Param(25, 1), "n_max": Param(12, 5, _AVG_EXISTS_CAP), "k": Param(1, 1, 1)},
        _gen_avg_exists, _check_avg_exists, (("data", _GRAPH), ("k", _INT))),
}


def campaign_names() -> list[str]:
    return sorted(_CAMPAIGNS)


def parameter_names() -> list[str]:
    """Every parameter any campaign declares, sorted."""
    return sorted({key for c in _CAMPAIGNS.values() for key in c.params})


def _merge_params(name: str, declared: dict, params: dict | None) -> dict:
    """Defaults overridden by ``params``, each checked against its range."""
    merged = {key: p.default for key, p in declared.items()}
    for key, value in (params or {}).items():
        if key not in declared:
            raise ValueError(f"unknown parameter {key!r} for campaign {name}")
        merged[key] = value
    # Usage errors (exit 2) are reported before caps (exit 3).
    for key, p in declared.items():
        if p.low is not None and merged[key] < p.low:
            raise ValueError(f"{name}: {key} must be at least {p.low}, got {merged[key]}")
    for key, p in declared.items():
        if p.cap is not None and merged[key] > p.cap:
            raise CapExceeded(f"{name} caps {key} at {p.cap}, got {merged[key]}")
    return merged


def run_campaign(name: str, params: dict | None = None, seed: int = 0) -> CampaignReport:
    """Run a named campaign; deterministic per (name, params, seed)."""
    if name not in _CAMPAIGNS:
        raise UnknownCampaign(f"unknown campaign {name!r}")
    campaign = _CAMPAIGNS[name]
    merged = _merge_params(name, campaign.params, params)
    trials = vacuous = 0
    violations = []
    for drawn in campaign.generate(merged, random.Random(seed)):
        trials += 1
        if drawn == VACUOUS:
            vacuous += 1
            continue
        values = iter(drawn)
        args = [merged[key] if key in merged else next(values) for key, _ in campaign.fields]
        outcome = campaign.check(*args)
        if outcome == VACUOUS:
            vacuous += 1
        elif outcome is not None:
            violations.append({"name": name, **{key: encode(arg) for (key, (encode, _)), arg
                                                 in zip(campaign.fields, args)}, **outcome})
    return CampaignReport(name, merged, seed, trials, vacuous, violations)


# --- replay ---

def _replay(w: dict, index: int) -> bool:
    try:
        name = _field(w, "name")
    except FormatError as exc:
        raise FormatError(f"witness {index}: {exc}") from None
    campaign = _CAMPAIGNS.get(name)
    if campaign is None:
        raise UnknownCampaign(f"witness {index}: unknown campaign {name!r}")
    try:
        params = {key: _int(w, key) for key in w if key in campaign.params}
    except FormatError as exc:
        raise FormatError(f"witness {index} ({name}): {exc}") from None
    _merge_params(name, campaign.params, params)
    try:
        args = [decode(w, key) for key, (_, decode) in campaign.fields]
    except ValueError as exc:
        raise FormatError(f"witness {index} ({name}): {exc}") from None
    return isinstance(campaign.check(*args), dict)


def replay_witness(w: dict) -> bool:
    """Re-run a serialized witness; True when the violation re-triggers.

    The witness's fields that name a campaign parameter are checked
    against that parameter's range first, as ``run_campaign`` checks
    them: ValueError below it, CapExceeded above it.  A field that is
    missing or does not parse is a FormatError naming the witness (by
    its position in a report) and the field; the check is not wrapped.
    """
    return _replay(w, 0)


def replay_report(text: str) -> list[tuple[dict, bool]]:
    return [(w, _replay(w, i)) for i, w in enumerate(parse_report(text)["witnesses"])]
