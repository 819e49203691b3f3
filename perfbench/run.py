"""The repo benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 25 --trace 0

Runs one workload for ``--seconds`` seconds in whole rounds, checks its
outputs, and prints a metric table followed, as the last line of
standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from spans recorded around calls into each layer, and the spans
are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.  A per-layer
metric whose layer the workload does not drive reads 0.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from benchlib import CPUS, OUT, ROOT, SRC, metric_contract

WORKLOADS = ("fig6-cold", "inject-forked", "service-overlap")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # The run stays on one CPU (children inherit the mask), except the
    # service workload's daemon, which gets a CPU of its own.  On a
    # virtual machine whose host is oversubscribed, work that migrates
    # between virtual CPUs waits on the host for every wake-up; that
    # wait swamped the service workload's latencies.
    os.sched_setaffinity(0, {CPUS[-1]})
    if args.workload == "fig6-cold":
        import fig6_cold as workload
    elif args.workload == "inject-forked":
        import inject_forked as workload
    else:
        import service_overlap as workload

    trace = bool(args.trace)
    out = workload.run(args.seed, args.seconds, trace)
    contract = metric_contract()
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    values = out["per_layer"] if trace else out["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    if trace:
        path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        out["spans"].write(path)
        print(f"trace: {len(out['spans'].records)} spans -> "
              f"{path.relative_to(ROOT)}")
    if out["failed"]:
        print(f"FAILED: {out['failed']} of {out['attempted']} operations")
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
