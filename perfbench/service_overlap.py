"""Workload ``service-overlap``: two clients sharing one campaign daemon.

The ``acr-repro serve`` daemon (default shards and replicas) runs in its
own process; this process opens two client connections, one per thread,
and drives them in closed-loop rounds.  In each round both clients
submit overlapping sweeps at a fresh memory seed (*cold*: the daemon
simulates every key once and the other client waits on its lease), then
each resubmits sweeps of the seeds seen so far (*warm*: every key comes
from the store).  The two sweeps share 6 of their 12 keys, so a cold
round simulates 18.

Set-up is the daemon's launch until a ping shows every shard alive,
repeated ``SETUPS`` times per run (the last launch serves).  After the
timed region every report is compared with a solo in-process
:class:`~repro.experiments.runner.ExperimentRunner` over its own cache.
A traced run then drives the store, cache, protocol, report, journal
and registry classes in-process over the keys the workload produced.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchlib import (
    CPUS, OUT, ROOT, Spans, child_env, derive_seed, median, now, percentile,
)

#: The two clients' sweeps (12 canonical keys each, 6 shared).
SWEEPS = (
    {"workloads": ("cg", "is", "mg"),
     "configs": ("Ckpt_NE", "ReCkpt_NE", "ReCkpt_E")},
    {"workloads": ("is", "mg", "dc"),
     "configs": ("Ckpt_NE", "Ckpt_E", "ReCkpt_E")},
)
SHAPE = {"num_cores": 2, "region_scale": 0.1, "reps": 12}
#: Warm resubmissions per client per round: with two clients, every
#: round adds 100 warm samples, enough for a 90th percentile.
WARM = 50
#: Daemon launches per run; set-up is their median.
SETUPS = 5
#: The daemon and its shards run on a CPU of their own where there is a
#: second one; the clients keep the CPU ``run.py`` pinned itself to.
DAEMON_CPU = CPUS[-2] if len(CPUS) > 1 else CPUS[-1]


def _spec(sweep: int, memory_seed: int):
    from repro.service.campaigns import CampaignSpec

    return CampaignSpec(memory_seed=memory_seed, **SWEEPS[sweep], **SHAPE)


class _Daemon:
    """One ``acr-repro serve`` process and its readiness measurement."""

    def __init__(self, work, index: int) -> None:
        from repro.service.client import CampaignClient, ServiceError
        from repro.service.protocol import ProtocolError

        # A relative socket path: AF_UNIX caps paths near 100 bytes, and
        # the checkout may sit anywhere.
        self.socket = os.path.relpath(work / f"s{index}.sock", ROOT)
        self.cache_dir = work / f"cache{index}"
        self.log = (work / f"daemon{index}.log").open("wb")
        self.status: Dict[str, Any] = {"store": {"pids": []}}
        started = now()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket, "--cache-dir", str(self.cache_dir)],
            cwd=str(ROOT), env=child_env(), stdout=self.log,
            stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, {DAEMON_CPU}),
        )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited: see {self.log.name}")
            if now() - started > 60.0:
                self.stop()
                raise RuntimeError("daemon not ready within 60 s")
            try:
                with CampaignClient(self.socket, timeout_s=5.0) as client:
                    status = client.ping()
            except (ServiceError, ProtocolError, OSError):
                status = None
            if status and status["store"]["alive"] == status["store"][
                    "shards"]:
                break
            # Poll, do not spin: the CPU may be the daemon's too.
            time.sleep(0.005)
        self.setup_s = now() - started
        self.status = status

    def tree_peak_rss_mb(self) -> float:
        """Peak resident set of the daemon plus each of its shards."""
        total_kb = 0
        for pid in [self.proc.pid, *self.status["store"]["pids"]]:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        from repro.service.client import CampaignClient, ServiceError

        try:
            with CampaignClient(self.socket, timeout_s=10.0) as client:
                client.shutdown()
            self.proc.wait(timeout=30.0)
        except (ServiceError, OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
            for pid in self.status["store"]["pids"]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.log.close()


def _serve(daemon: _Daemon, seed: int, seconds: float, spans: Spans):
    """The timed closed loop.  Returns per-submission records (the
    report is None for a failed submission), the pool of distinct specs,
    simulation counts and the serving seconds."""
    from repro.service.client import CampaignClient, ServiceError
    from repro.service.protocol import ProtocolError

    clients = [CampaignClient(daemon.socket, timeout_s=170.0).connect()
               for _ in SWEEPS]
    pool: List[Any] = []
    subs: List[Tuple[str, float, Any, Optional[Dict[str, Any]]]] = []
    state = {"round": -1, "go": True, "sims": []}
    start = now()

    def next_round() -> None:
        state["round"] += 1
        state["go"] = state["round"] == 0 or now() - start < seconds
        if state["go"]:
            seed_r = derive_seed(seed, state["round"])
            pool.extend(_spec(i, seed_r) for i in range(len(SWEEPS)))

    def ping() -> None:
        state["sims"].append(clients[0].ping()["simulations"])

    bars = [threading.Barrier(len(SWEEPS), action=a)
            for a in (next_round, ping, ping)]
    lock = threading.Lock()

    def submit(c: int, kind: str, spec) -> None:
        with spans.span("service.submit", kind=kind):
            t = now()
            try:
                report = clients[c].submit(spec)
            except (ServiceError, ProtocolError, OSError) as exc:
                print(f"FAILED: {kind} submission: {exc}", file=sys.stderr)
                report = None
            latency = now() - t
        with lock:
            subs.append((kind, latency, spec, report))

    def client_loop(c: int) -> None:
        while True:
            bars[0].wait()
            if not state["go"]:
                return
            r = state["round"]
            submit(c, "cold", pool[len(SWEEPS) * r + c])
            bars[1].wait()
            for j in range(WARM):
                submit(c, "warm",
                       pool[(r * WARM * len(SWEEPS) + j * len(SWEEPS) + c)
                            % len(pool)])
            bars[2].wait()

    errors: List[BaseException] = []

    def guarded(c: int) -> None:
        try:
            client_loop(c)
        except BaseException as exc:
            errors.append(exc)
            for bar in bars:
                bar.abort()

    worker = threading.Thread(target=guarded, args=(1,), name="client-1")
    worker.start()
    guarded(0)
    worker.join()
    serving_s = now() - start
    status = clients[0].ping()
    for client in clients:
        client.close()
    if errors:
        raise errors[0]
    return subs, pool, state["sims"], serving_s, status


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.experiments.runner import ExperimentRunner
    from repro.service.campaigns import campaign_report

    work = OUT / f"service-{seed}-{now():.0f}"
    work.mkdir(parents=True, exist_ok=True)
    spans = Spans()
    try:
        setups = []
        for index in range(SETUPS):
            daemon = _Daemon(work, index)
            setups.append(daemon.setup_s)
            if index < SETUPS - 1:
                daemon.stop()
        try:
            subs, pool, sims, serving_s, status = _serve(
                daemon, seed, seconds, spans)
            rss = daemon.tree_peak_rss_mb()
        finally:
            daemon.stop()

        # -- checks, outside the timed region --------------------------
        keyer = ExperimentRunner(**SHAPE)
        cold_keys = {k for spec in pool for k in spec.keys(keyer)}
        bad: List[str] = []
        solo = ExperimentRunner(cache_dir=work / "solo", **SHAPE)
        expected = {
            spec: json.dumps(campaign_report(solo, spec), sort_keys=True)
            for spec in dict.fromkeys(pool)
        }
        done = [sub for sub in subs if sub[3] is not None]
        failed = len(subs) - len(done)
        wrong = sum(json.dumps(rep, sort_keys=True) != expected[spec]
                    for _k, _l, spec, rep in done)
        if wrong:
            bad.append(f"{wrong} reports differ from the solo runner's")
        # A failed submission may leave keys unsimulated: the counts of
        # the daemon are checked only when every submission completed.
        if not failed and status["simulations"] != len(cold_keys):
            bad.append(f"daemon simulated {status['simulations']} times "
                       f"for {len(cold_keys)} distinct cold keys")
        if not failed and any(sims[i] != sims[i + 1]
                              for i in range(0, len(sims), 2)):
            bad.append("a warm phase simulated")
        if status["wire_malformed"] or status["quarantined"]:
            bad.append("malformed wire lines or quarantined entries")

        cold = [lat for kind, lat, _s, _r in done if kind == "cold"]
        warm = [lat for kind, lat, _s, _r in done if kind == "warm"]
        layers: Dict[str, float] = {}
        if trace:
            requested = sum(len(spec.keys(keyer)) for _k, _l, spec, _r in done)
            layers = _layers(spans, work, daemon.cache_dir, sorted(cold_keys),
                             [rep for _k, _l, _s, rep in done],
                             list(dict.fromkeys(pool)))
            layers["service.simulations"] = status["simulations"]
            layers["service.hit_ratio"] = (
                1.0 - status["simulations"] / requested)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "problems": bad,
        "attempted": len(subs),
        "failed": failed,
        "end_to_end": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "ops_per_s": len(done) / serving_s,
            "cold_p50_ms": 1e3 * median(cold),
            "warm_p50_ms": 1e3 * median(warm),
            "warm_p90_ms": 1e3 * percentile(warm, 90),
        },
        "per_layer": layers,
        "spans": spans,
    }


def _each(spans: Spans, name: str, items, fn: Callable[[Any], Any],
          scale: float) -> float:
    """Median of ``fn(item)`` durations, each timed as span ``name``."""
    values = []
    for item in items:
        with spans.span(name) as rec:
            fn(item)
        values.append(scale * (rec[4] - rec[3]))
    return median(values)


def _layers(spans: Spans, work, cache_dir, keys: List[str],
            reports: List[Dict[str, Any]], specs: List[Any]
            ) -> Dict[str, float]:
    """Drive the service's layer classes in-process over the workload's
    own keys, reports and specs (the daemon is stopped by now)."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import ExperimentRunner
    from repro.resilience.journal import CompletionJournal, JournalRecord
    from repro.service.campaigns import campaign_report
    from repro.service.protocol import decode_frame, encode_frame
    from repro.service.registry import InFlightRegistry
    from repro.service.store import ReplicatedStore

    us, ms = 1e6, 1e3
    out: Dict[str, float] = {}
    cache = ResultCache(cache_dir)
    out["experiments.cache.load_us"] = _each(
        spans, "experiments.cache.load", keys, cache.load, us)
    store = ReplicatedStore(ResultCache(cache_dir))
    try:
        for key in keys:  # first reads repair every entry into the shards
            store.load(key)
        out["service.store.load_us"] = _each(
            spans, "service.store.load", keys, store.load, us)
    finally:
        store.close()
    frames = [{"op": "result", "report": rep} for rep in reports]
    lines = [encode_frame(f) for f in frames]
    out["service.protocol.encode_us"] = _each(
        spans, "service.protocol.encode", frames, encode_frame, us)
    out["service.protocol.decode_us"] = _each(
        spans, "service.protocol.decode", lines, decode_frame, us)
    out["service.campaigns.report_ms"] = _each(
        spans, "service.campaigns.report", specs,
        lambda spec: campaign_report(
            ExperimentRunner(cache=ResultCache(cache_dir), **SHAPE), spec),
        ms)
    results = {key: cache.load(key) for key in keys}
    fresh = ResultCache(work / "layer-cache")
    out["experiments.cache.store_us"] = _each(
        spans, "experiments.cache.store", keys,
        lambda key: fresh.store(key, results[key]), us)
    journal = CompletionJournal(work / "layer-journal.jsonl")
    out["resilience.journal.append_us"] = _each(
        spans, "resilience.journal.append", keys,
        lambda key: journal.append(JournalRecord(
            key=key, kind="run", label="bench", attempts=1, seconds=0.0)),
        us)
    registry = InFlightRegistry(ResultCache(work / "layer-registry"))
    out["service.registry.claim_us"] = _each(
        spans, "service.registry.claim", keys,
        lambda key: registry.claim([key]), us)
    out["service.registry.publish_us"] = _each(
        spans, "service.registry.publish", keys, registry.publish, us)
    return out
