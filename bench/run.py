"""Benchmark pivotkit on one workload for one seed.

Run from the repository root:

    python3 bench/run.py --workload campaigns|certify|pivot-search \\
        --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the same checkout.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off:
it times pivotkit's import in fresh interpreters (``setup_s``), runs one
untimed warm-up unit, then runs the fixed number of rounds that take
about ``S`` seconds on the reference machine, in a closed loop.  Times
are reported in reference seconds (see ``CALIBRATIONS``).  With
``--trace 1`` it repeats the seed's first round in pairs of an untraced
and a traced pass and reports the per-layer metrics per traced pass;
the spans go to ``.bench_out/``.

Every unit's output is checked after timing against ``pins.json`` and
by an independent re-check of its witness.  Each metric is printed as
``metric <name> <value> <unit> n=<samples>``; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import permutations
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from tracing import FUNCTIONS, LAYERS, NESTED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINS = Path(__file__).resolve().parent / "pins.json"
SETUP_SAMPLES = 7
# Times are reported in reference seconds: wall time scaled by a
# calibration loop's median time on the reference machine over its time
# measured alongside.  This cancels much of a shared machine's speed
# swings (up to +-25% within a minute on the reference VM).
TAIL_BEYOND = 10  # the tail percentile leaves at least this many units above it


class UnitResult(NamedTuple):
    spec: tuple
    inputs: object
    raw: object
    error: str | None
    seconds: float


def arithmetic_loop() -> float:
    """Seconds for a fixed loop of integer arithmetic."""
    t = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    return perf_counter() - t


_ROWS = (0b011010, 0b100101, 0b100110, 0b011001, 0b110010, 0b001101)


def ordering_loop() -> float:
    """Seconds to find the least adjacency code of a fixed 6-vertex graph
    over all vertex orderings: the shape of ``canonical_form``'s work."""
    t = perf_counter()
    best = None
    for order in permutations(range(6)):
        code = 0
        for j in range(1, 6):
            row = _ROWS[order[j]]
            for i in range(j):
                code = (code << 1) | ((row >> order[i]) & 1)
        if best is None or code < best:
            best = code
    return perf_counter() - t


# Each loop with its median seconds on the reference machine.  Of the two,
# the ordering loop tracks pivot-search's slow spells best and the
# arithmetic loop those of the other workloads (measured over 25 s windows).
CALIBRATIONS = {"arithmetic": (arithmetic_loop, 0.0125),
                "orderings": (ordering_loop, 0.00244)}


def to_reference(reference_s: float, before: float, after: float) -> float:
    """Scale from wall to reference seconds, given the calibration samples
    taken just before and just after the timed work."""
    return 2 * reference_s / (before + after)


def measure_setup() -> list[float]:
    """Reference seconds for fresh interpreters to finish ``import pivotkit.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import pivotkit.cli"]
    subprocess.run(cmd, env=env, check=True)  # untimed: byte-compiles a fresh checkout
    calibration, reference_s = CALIBRATIONS["arithmetic"]
    times = []
    before = calibration()
    for _ in range(SETUP_SAMPLES):
        t = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        wall = perf_counter() - t
        after = calibration()
        times.append(wall * to_reference(reference_s, before, after))
        before = after
    return times


def run_unit(wl, spec, inputs) -> UnitResult:
    t = perf_counter()
    try:
        raw, error = wl.run(inputs), None
    except Exception:  # a unit that raises is a failed unit, not a failed run
        raw, error = None, traceback.format_exc()
    return UnitResult(spec, inputs, raw, error, perf_counter() - t)


def round_count(wl, seconds: float) -> int:
    """Rounds per run: about the work that takes `seconds` on the reference machine.

    Fixing the work, not the duration, gives every seed and every commit
    the same unit count and mix, so the tail percentile is the same one.
    """
    return max(1, round(seconds / wl.ROUND_S))


def timed_loop(wl, rng: random.Random, rounds: int):
    """Run `rounds` rounds with a calibration sample between units.

    Returns (units, each unit's scale from wall to reference seconds).
    """
    calibration, reference_s = CALIBRATIONS[wl.CALIBRATION]
    units, scales = [], []
    for _, specs in zip(range(rounds), wl.rounds(rng)):
        before = calibration()
        for spec in specs:
            units.append(run_unit(wl, spec, wl.prepare(spec)))
            after = calibration()
            scales.append(to_reference(reference_s, before, after))
            before = after
    return units, scales


def traced_loop(wl, rng: random.Random, pairs: int, tracer):
    """Pairs of an untraced and a traced pass over the seed's first round.

    Which pass goes first alternates from pair to pair, so a slower first pass (heap growth, cold
    caches) does not bias the overhead ratio.  Returns (units, untraced
    pass seconds, traced pass seconds, round size).
    """
    specs = next(wl.rounds(rng))
    inputs = [wl.prepare(spec) for spec in specs]
    units, plain, traced = [], [], []

    def one_pass(traced_pass: bool) -> float:
        if traced_pass:
            tracer.install()
        t = perf_counter()
        for i, (spec, inp) in enumerate(zip(specs, inputs)):
            tracer.unit = len(traced) * len(specs) + i
            units.append(run_unit(wl, spec, inp))
        elapsed = perf_counter() - t
        tracer.uninstall()
        return elapsed

    for pair in range(pairs):
        if pair % 2 == 0:
            plain.append(one_pass(False))
            traced.append(one_pass(True))
        else:
            t = one_pass(True)
            plain.append(one_pass(False))
            traced.append(t)
    return units, plain, traced, len(specs)


def check(wl, pins: dict, units) -> list[str]:
    """Compare each unit with its pinned output and re-check its witness."""
    failures = []
    for u in units:
        key = wl.key(u.spec)
        if u.error is not None:
            failures.append(f"{key}: raised\n{u.error}")
        elif key not in pins:
            failures.append(f"{key}: no pinned output")
        elif wl.record(u.raw) != pins[key]:
            failures.append(f"{key}: output {wl.record(u.raw)!r} != pinned {pins[key]!r}")
        else:
            problem = wl.recheck(u.inputs, u.raw)
            if problem is not None:
                failures.append(f"{key}: {problem}")
    return failures


def tail(durations: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND units above it.

    Nearest-rank: percentile q is the ceil(q * n / 100)-th smallest value.
    With too few units for any such percentile, the maximum (q = 100).
    """
    n = len(durations)
    ordered = sorted(durations)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    q = 100 * (n - TAIL_BEYOND) // n
    return q, ordered[max(1, math.ceil(q * n / 100)) - 1]


def end_to_end(wl, units, scales: list[float], rounds: int, setup_s: list[float]) -> dict:
    """Times in reference seconds.  Rates are per round, medianed over
    rounds, so a slow spell moves one round rather than the whole run."""
    durations = [u.seconds * scale for u, scale in zip(units, scales)]
    n = len(durations)
    size = n // rounds
    starts = range(0, n, size)
    round_s = [sum(durations[i:i + size]) for i in starts]
    trials = [sum(wl.trials(u.raw) for u in units[i:i + size] if u.error is None)
              for i in starts]
    q, tail_s = tail(durations)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "units_per_s": (statistics.median(size / s for s in round_s), "1/s",
                        f"{n} rounds={rounds}"),
        "trials_per_s": (statistics.median(t / s for t, s in zip(trials, round_s)), "1/s",
                         f"{sum(trials)} rounds={rounds}"),
        "unit_s.p50": (statistics.median(durations), "s", n),
        "unit_s.tail": (tail_s, "s", f"{n} p{q}"),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
    }


def per_layer(tracer, plain: list[float], traced: list[float], round_size: int) -> dict:
    calls, self_s, total_s = tracer.layer_times(round_size)
    passes = len(traced)
    out = {}
    for f, name in enumerate(FUNCTIONS):
        out[f"{name}.calls"] = (statistics.median_low(c[f] for c in calls), "count", passes)
        out[f"{name}.self_s"] = (statistics.median(s[f] for s in self_s), "s", passes)
        if name in NESTED:
            out[f"{name}.total_s"] = (statistics.median(s[f] for s in total_s), "s", passes)
    for mod, fns in LAYERS.items():
        ids = [FUNCTIONS.index(f"{mod}.{fn}") for fn in fns]
        out[f"{mod}.self_s"] = (statistics.median(sum(s[i] for i in ids) for s in self_s),
                                "s", passes)
    seps = FUNCTIONS.index("cutrank.find_low_rank_separation")
    sep_calls = sum(c[seps] for c in calls)
    out["cutrank.find_low_rank_separation.witness_ratio"] = (
        len(tracer.witness_spans) / sep_calls if sep_calls else 0.0, "ratio", sep_calls)
    trials = sum(t for t, _ in tracer.campaign_tallies)
    vacuous = sum(v for _, v in tracer.campaign_tallies)
    out["verify.vacuous_ratio"] = (vacuous / trials if trials else 0.0, "ratio", trials)
    out["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio",
                             passes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaigns", "certify", "pivot-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pivotkit" / "__init__.py").is_file() or not PINS.is_file():
        print(f"error: no pivotkit sources under {SRC} or no {PINS.name}", file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import pivotkit
    if Path(pivotkit.__file__).resolve().parent != SRC / "pivotkit":
        print(f"error: imported pivotkit from {pivotkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    pins = json.loads(PINS.read_text())[args.workload]
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine python={platform.python_version()} "
          f"implementation={platform.python_implementation()} nproc={os.cpu_count()} "
          f"platform={platform.platform()}")

    spec = wl.warmup()
    failures = check(wl, pins, [run_unit(wl, spec, wl.prepare(spec))])

    rng = random.Random(f"{args.workload}/{args.seed}")
    if args.trace:
        tracer = Tracer()
        pairs = max(2, round(args.seconds / (2 * wl.ROUND_S)))
        units, plain, traced, round_size = traced_loop(wl, rng, pairs, tracer)
        metrics = per_layer(tracer, plain, traced, round_size)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans)
        print(f"spans {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    else:
        rounds = round_count(wl, args.seconds)
        units, scales = timed_loop(wl, rng, rounds)
        metrics = end_to_end(wl, units, scales, rounds, setup)
        print(f"calibration loop={wl.CALIBRATION} "
              f"reference_s={CALIBRATIONS[wl.CALIBRATION][1]} unit scale "
              f"min={min(scales):.3f} median={statistics.median(scales):.3f} "
              f"max={max(scales):.3f}")

    unit_failures = check(wl, pins, units)
    for failure in failures + unit_failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"metric fail_ratio {len(unit_failures) / len(units)!r} ratio n={len(units)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} {value!r} {unit} n={samples}")
    print(json.dumps({
        "correct": not failures and not unit_failures,
        "attempted": len(units),
        "failed": len(unit_failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
