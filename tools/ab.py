"""Compare two revisions on the benchmark, run pairs alternating.

Run from the repository root:

    python3 tools/ab.py PARENT CHANGE --workload campaigns --seeds 801-810 \\
        --out BENCH_AB.json

PARENT and CHANGE are any git tree-ish.  To measure uncommitted work,
stage it and pass ``$(git write-tree)``.  Each seed is one pair: both
sides run ``bench/run.py`` with that seed for BENCHMARK.json's
``run_seconds``, the parent first on even pairs and the change first
on odd ones.  Every run gets a fresh ``git archive`` of its side in a
temporary directory and runs that side's own ``bench/run.py``, so a
side is measured exactly as its commit has it.  For each workload and metric the summary gives each
side's inclusive quartiles over its runs and the pairs the change won,
ties counting for neither side.  The JSON written to ``--out`` holds
the protocol, the machine, the summary and every run's result; if a
run fails, it holds the runs made before it and the failure instead of
the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """Seeds from a comma list of integers and inclusive ranges: 1,4-6."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


class RunFailed(Exception):
    """A bench run exited nonzero."""


def run_side(rev: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench run in a fresh copy of rev; its final JSON line."""
    work = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(work)], input=archive, check=True)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RunFailed(f"{rev} {workload} seed {seed} exited {proc.returncode}:\n"
                            f"{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work)


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles and the change's wins.

    better maps a metric's name to "higher" or "lower"; others are "lower"."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        out = {}
        for name in mine[0]["result"]["metrics"]:
            values = {side: [p[side][name]["value"] for p in pairs.values()] for side in SIDES}
            sign = 1 if better.get(name, "lower") == "higher" else -1
            out[name] = {side: dict(zip(("q1", "median", "q3"),
                                        statistics.quantiles(v, n=4, method="inclusive")))
                         for side, v in values.items()}
            out[name]["change_better_pairs"] = sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            out[name]["pairs"] = len(pairs)
        out["all_correct"] = all(r["result"]["correct"] for r in mine)
        summary[workload] = out
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("campaigns", "certify", "pivot-search"))
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    # A pair is keyed by its seed, so a repeat would overwrite a pair.
    if len(set(args.seeds)) < len(args.seeds):
        parser.error("a seed is given twice")
    if len(set(args.workload)) < len(args.workload):
        parser.error("a workload is given twice")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}

    revs = {}
    for side in SIDES:
        rev = getattr(args, side)
        revs[side] = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    about = (f"parent = {args.parent} ({revs['parent']}), change = "
             f"{args.change} ({revs['change']}). Each run used its own fresh git archive "
             f"of its side; one pair per seed, the side that runs first alternating by pair "
             f"('order'), `python3 bench/run.py --workload W --seed S --seconds "
             f"{seconds:g} --trace {args.trace}`. Quartiles are inclusive quartiles over "
             f"a side's runs; change_better_pairs counts the pairs the change won, ties "
             f"counting for neither. Machine: {os.cpu_count()} CPUs, "
             f"{platform.python_implementation()} {platform.python_version()}, "
             f"{platform.platform()}.")
    runs = []
    try:
        for workload in args.workload:
            for pair, seed in enumerate(args.seeds):
                for order, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                    result = run_side(revs[side], workload, seed, seconds, args.trace)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "order": order, "result": result})
                    print(f"{workload} seed={seed} {side} correct={result['correct']}",
                          file=sys.stderr)
    except RunFailed as failed:
        args.out.write_text(json.dumps({"about": about, "failure": str(failed), "runs": runs},
                                       indent=1) + "\n")
        raise SystemExit(str(failed))
    summary = summarize(runs, better)
    for workload, metrics in summary.items():
        print(f"{workload}  all_correct={metrics['all_correct']}")
        for name, m in metrics.items():
            if name == "all_correct":
                continue
            p, c = m["parent"], m["change"]
            print(f"  {name:24} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  x{c['median'] / p['median'] if p['median'] else float('nan'):.3f}"
                  f"  won {m['change_better_pairs']}/{m['pairs']}")
    args.out.write_text(json.dumps({"about": about, "summary": summary, "runs": runs},
                                   indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
