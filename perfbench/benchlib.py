"""Shared plumbing of the repo benchmark: paths, spans, child processes,
statistics and the metric contract read from ``BENCHMARK.json``.

Spans are the benchmark's only tracing mechanism.  They are recorded
from the benchmark's own files, around calls into each layer's public
functions (see :func:`install_layer_spans`), kept in memory and written
out once, at the end of a run.  Nothing here patches the program unless
a run asks for ``--trace 1``; untraced runs call the program exactly as
a user would.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: The CPUs this process may run on, read when ``run.py`` imports this
#: module, before it pins itself to the last of them.
CPUS = sorted(os.sched_getaffinity(0))
#: Scratch space of every run (caches, sockets, traces); git-ignored.
OUT = ROOT / ".perfbench"


def now() -> float:
    """System-wide monotonic seconds: comparable across the benchmark's
    own processes on one host (CLOCK_MONOTONIC on Linux)."""
    return time.monotonic()


def derive_seed(seed: int, index: int) -> int:
    """A non-negative per-round seed derived from the run's ``--seed``
    (the same run seed always yields the same round seeds)."""
    return (abs(int(seed)) * 7919 + index) % (2 ** 31)


def metric_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile as ``statistics.quantiles(values, n=100)``
    gives it (0.0 for no values)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100)[p - 1])


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]


# ----------------------------------------------------------------- spans --
class Spans:
    """In-memory span recorder: (id, parent, name, start, end, attrs).

    Parents come from a per-thread stack, so spans opened by concurrent
    client threads nest under their own thread's open span only.
    """

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[List[Any]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = [0, parent, name, now(), None, attrs]
        with self._lock:
            rec[0] = len(self.records)
            self.records.append(rec)
        stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = now()
            stack.pop()

    def adopt(self, records: Sequence[Sequence[Any]], parent: int) -> None:
        """Graft spans recorded by a child process under ``parent``."""
        with self._lock:
            base = len(self.records)
            for sid, sparent, name, start, end, attrs in records:
                self.records.append([
                    base + sid,
                    parent if sparent is None else base + sparent,
                    name, start, end, dict(attrs),
                ])

    def wrap(self, owner: Any, attr: str, name: str,
             keep: Optional[List[Any]] = None) -> None:
        """Replace ``owner.attr`` by a version timed as span ``name``;
        ``keep`` collects what each call returns."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                value = inner(*args, **kwargs)
            if keep is not None:
                keep.append(value)
            return value

        setattr(owner, attr, timed)

    # -- analysis ---------------------------------------------------------
    def self_seconds(self) -> Dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        child: Dict[int, float] = {}
        for sid, parent, _name, start, end, _attrs in self.records:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return {
            sid: max(0.0, (end - start) - child.get(sid, 0.0))
            for sid, _p, _n, start, end, _a in self.records
        }

    def under(self, root: int) -> List[List[Any]]:
        """Every span below ``root`` (its whole subtree, root excluded)."""
        kids: Dict[int, List[int]] = {}
        for rec in self.records:
            if rec[1] is not None:
                kids.setdefault(rec[1], []).append(rec[0])
        out: List[List[Any]] = []
        todo = list(kids.get(root, []))
        while todo:
            sid = todo.pop()
            out.append(self.records[sid])
            todo.extend(kids.get(sid, []))
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_seconds()
        t0 = min((r[3] for r in self.records), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.records:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_s": start - t0, "end_s": end - t0,
                    "self_s": selfs[sid], **attrs,
                }, sort_keys=True) + "\n")


def install_layer_spans(spans: Spans, goldens: Optional[List[Any]] = None):
    """Time the public entry points of each layer the child processes
    drive as spans, and return a phase profiler that records the
    program's own phases (compile, plan-build, simulate) as spans too;
    the caller activates it.  ``goldens`` collects every golden run the
    injection harness executes.  Called only in traced runs."""
    from repro.experiments import runner as runner_mod
    from repro.experiments.cache import ResultCache
    from repro.inject import harness
    from repro.obs.telemetry import profile
    from repro.sim.simulator import Simulator
    from repro.workloads.spec import WorkloadSpec

    spans.wrap(WorkloadSpec, "build_programs", "workloads.build_programs")
    spans.wrap(Simulator, "vector_certificates", "verify.absint.certify")
    spans.wrap(ResultCache, "store_payload", "experiments.cache.store")
    spans.wrap(ResultCache, "load_payload", "experiments.cache.load")
    spans.wrap(harness, "compile_program", "compiler.compile_program")
    spans.wrap(harness, "run_golden", "inject.run_golden", keep=goldens)
    spans.wrap(runner_mod, "run_trial", "inject.run_trial")

    class SpanProfiler(profile.PhaseProfiler):
        """The program's phase profiler, each phase entry also a span."""

        @contextmanager
        def phase(self, name: str) -> Iterator[None]:
            with spans.span("phase." + name), super().phase(name):
                yield

    return SpanProfiler()


def pipeline_layers(spans: Spans, root: int) -> Dict[str, float]:
    """The pipeline-stage figures of one timed operation: span totals
    below ``root`` (an operation's span) for build, certify, compile,
    plan build, stepping (simulate self time) and result-cache stores."""
    selfs = spans.self_seconds()
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    step = 0.0
    for sid, _parent, name, start, end, _attrs in spans.under(root):
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        if name == "phase.simulate":
            step += selfs[sid]
    stores = count.get("experiments.cache.store", 0)
    return {
        "workloads.build_s": total.get("workloads.build_programs", 0.0),
        "verify.absint.certify_s": total.get("verify.absint.certify", 0.0),
        "compiler.compile_s": total.get("phase.compile", 0.0)
        + total.get("compiler.compile_program", 0.0),
        "sim.vector.plan_build_s": total.get("phase.plan-build", 0.0),
        "sim.vector.plans_built": count.get("phase.plan-build", 0),
        "sim.step_s": step,
        "experiments.cache.store_ms": (
            1e3 * total["experiments.cache.store"] / stores if stores
            else 0.0),
    }


def median_layers(per_round: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric medians over rounds, so that a figure does not depend
    on how many rounds fit in a run."""
    return {name: median([r[name] for r in per_round])
            for name in per_round[0]}


# ------------------------------------------------------- child processes --
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class ChildFailed(RuntimeError):
    """A benchmark child process exited abnormally or printed no result."""


def run_child(mode: str, args: Dict[str, Any], timeout_s: float = 170.0
              ) -> Dict[str, Any]:
    """Run ``perfbench/child.py`` in a fresh interpreter and return the
    JSON document it prints last; raise :class:`ChildFailed` if it fails.
    ``launched`` is stamped immediately before the process is created,
    so the child can measure set-up from process launch to its first
    operation."""
    doc = dict(args, launched=now())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), mode,
             json.dumps(doc)],
            cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            timeout=timeout_s, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {mode} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {mode} exited with {proc.returncode}")
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise ChildFailed(f"child {mode} printed nothing")
    return json.loads(lines[-1])


def child_rounds(label: str, seconds: float, steps, spans: Spans):
    """Run whole rounds until ``seconds`` have passed (at least one
    round).  ``steps(index)`` lists a round's ``(mode, doc, ops)``
    triples, each run in a fresh ``child.py`` process that performs
    ``ops`` operations.  A child that fails ends its round: its
    operations and those of the round's later children count as failed.

    Returns the child documents of each complete round, the ids of their
    ``<label>.round`` spans (under which the children's own spans are
    grafted), and the operations attempted and failed."""
    start = now()
    rounds: List[List[Dict[str, Any]]] = []
    ids: List[int] = []
    attempted = failed = index = 0
    while not index or now() - start < seconds:
        todo = steps(index)
        attempted += sum(ops for _mode, _doc, ops in todo)
        with spans.span(f"{label}.round", round=index) as rec:
            outs = []
            for mode, doc, _ops in todo:
                try:
                    outs.append(run_child(mode, doc))
                except ChildFailed as exc:
                    print(f"FAILED: round {index}: {exc}", file=sys.stderr)
                    break
        index += 1
        if len(outs) < len(todo):
            failed += sum(ops for _m, _d, ops in todo[len(outs):])
            continue
        for out in outs:
            spans.adopt(out.pop("spans"), rec[0])
        rounds.append(outs)
        ids.append(rec[0])
    return rounds, ids, attempted, failed


def round_metrics(rounds: Sequence[Sequence[Dict[str, Any]]]
                  ) -> Dict[str, float]:
    """End-to-end figures of rounds made of one cold process followed by
    warm processes.  Each child document carries ``ops`` (operations of
    one timed regeneration), ``latencies`` (seconds of each timed
    regeneration: one in a cold process, many in a warm one, each over
    a fresh runner), ``setup_s`` and ``peak_rss_mb``."""
    colds = [r[0] for r in rounds]
    cold = [c["latencies"][0] for c in colds]
    warm = [lat for r in rounds for w in r[1:] for lat in w["latencies"]]
    return {
        "setup_s": median([p["setup_s"] for r in rounds for p in r]),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in colds]),
        "ops_per_s": (sum(c["ops"] for c in colds) / sum(cold)
                      if cold else 0.0),
        "cold_p50_ms": 1e3 * median(cold),
        "warm_p50_ms": 1e3 * median(warm),
        "warm_p90_ms": 1e3 * percentile(warm, 90),
    }
