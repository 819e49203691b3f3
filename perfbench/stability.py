"""Repeat one workload and report each metric's spread against its bound.

    python3 perfbench/stability.py --workload fig6-cold --runs 10 [--save A.json]
    python3 perfbench/stability.py --compare A.json B.json

The first form runs ``run.py`` ``--runs`` times, each with another
``--seed``, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, against the
metric's bound in ``BENCHMARK.json``.  A spread under a third of its
bound is ``steady``; up to the bound, ``wide``; beyond it, ``UNSTEADY``.
It also shows whether every run passed its checks and failed the same
share of operations.

The second form compares two saved sets as a regression gate would:
each metric's second median may be worse than the first by at most the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from benchlib import BENCH_DIR, ROOT, median, metric_contract, quartiles


def _runs(workload: str, runs: int) -> List[Dict[str, Any]]:
    """Untraced runs of ``run_seconds`` each, with seeds 1..``runs``."""
    seconds = metric_contract()["run_seconds"]
    docs = []
    for seed in range(1, runs + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=str(ROOT), stdout=subprocess.PIPE, check=True,
        )
        doc = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
        docs.append(doc)
        line = "  ".join(f"{k}={v['value']:.6g}"
                         for k, v in doc["metrics"].items())
        print(f"seed {seed}: correct={doc['correct']} {line}", flush=True)
    return docs


def _report(docs: List[Dict[str, Any]]) -> int:
    contract = metric_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    worst = 0
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  verdict")
    for name in docs[0]["metrics"]:
        values = [d["metrics"][name]["value"] for d in docs]
        q1, mid, q3 = quartiles(values)
        spread = (q3 - q1) / mid if mid else float("inf")
        bound = bounds.get(name)
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict, worst = "wide", max(worst, 1)
        else:
            verdict, worst = "UNSTEADY", 2
        print(f"{name:32s} {mid:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3%} {bound:>6}  "
              f"{verdict}")
    shares = {d["failed"] / d["attempted"] for d in docs}
    print(f"all correct: {all(d['correct'] for d in docs)}; "
          f"failed shares: {sorted(shares)}")
    if len(shares) > 1 or not all(d["correct"] for d in docs):
        worst = 2
    return worst


def _compare(first: List[Dict[str, Any]], second: List[Dict[str, Any]]
             ) -> int:
    contract = metric_contract()
    bad = 0
    for m in contract["end_to_end"]:
        name = m["name"]
        a = median([d["metrics"][name]["value"] for d in first])
        b = median([d["metrics"][name]["value"] for d in second])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        ok = worse <= m["bound"]
        bad += not ok
        print(f"{name:32s} {a:12.6g} -> {b:12.6g}  worse by {worse:+8.3%} "
              f"(bound {m['bound']:.0%})  {'ok' if ok else 'REGRESSED'}")
    return 2 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", type=Path, default=None,
                        help="write the runs' result lines to this file")
    parser.add_argument("--compare", type=Path, nargs=2, default=None,
                        metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return _compare(first, second)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    docs = _runs(args.workload, args.runs)
    if args.save:
        args.save.write_text(json.dumps(docs) + "\n")
    return _report(docs)


if __name__ == "__main__":
    sys.exit(main())
