"""Workload ``inject-forked``: a forked-snapshot injection campaign in a
fresh process.

Each round launches one interpreter that runs ``build_trials`` over
``dc``, ``cg``, ``ft`` and ``is`` — BER and ACR, all four injection
targets, interp engine — through
:meth:`~repro.experiments.runner.ExperimentRunner.run_trials` with
``snapshots=True`` into an empty result cache: the *cold* campaign
(golden passes, snapshot capture and fork, faulty tails, rollback,
Slice recompute, diff).  Three more fresh processes then regenerate the
campaign from that cache many times each, every time with a fresh
runner: the *warm* campaigns.

``dc`` is in the mix because its accumulating stores make recompute
load-bearing: without it, a recovery that skipped recompute would still
compare exact.  After the timed rounds a separate process re-runs a
sample of trials straight through (``snapshots=False``) and runs a
negative control with the ``skip-recompute`` defect seeded.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
from contextlib import nullcontext
from typing import Any, Dict, List

from benchlib import (
    OUT, ChildFailed, Spans, child_rounds, derive_seed, install_layer_spans,
    median, median_layers, now, pipeline_layers, round_metrics, run_child,
)

CAMPAIGN = {"workloads": ["dc", "cg", "ft", "is"], "trials": 32,
            "scale": 0.2, "reps": 24}
#: Warm processes per round, and the timed regenerations of the campaign
#: in each, every one with a fresh runner over the warm cache, as
#: re-rendering its report would.  Every round adds 120 warm samples,
#: enough for a 90th percentile.
WARM_PROCESSES = 3
WARM_REPEATS = 40
#: Rounds whose ACR ``dc`` trials form the negative control.
CONTROL_ROUNDS = 2


def _specs(doc: Dict[str, Any], **extra: Any):
    from repro.inject.campaign import build_trials

    return build_trials(
        doc["workloads"], doc["trials"], seed=doc["campaign_seed"],
        region_scale=doc["scale"], reps=doc["reps"], **extra,
    )


def _hash(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------- child-side rounds --
def campaign(doc: Dict[str, Any]) -> Dict[str, Any]:
    """One fresh process (``child.py inject``): the cold campaign into
    the result cache if ``doc["cold"]``, else ``doc["repeats"]`` timed
    regenerations of the campaign from that cache, each with a fresh
    runner."""
    from repro.experiments.runner import ExperimentRunner

    spans = Spans() if doc["trace"] else None
    goldens: List[Any] = []
    if spans:
        install_layer_spans(spans, goldens)
    specs = _specs(doc)
    name = "inject.cold_campaign" if doc["cold"] else "inject.warm_campaign"
    latencies: List[float] = []
    hashes = set()
    t0 = now()
    for _ in range(1 if doc["cold"] else doc["repeats"]):
        t = now()
        with spans.span(name) if spans else nullcontext():
            runner = ExperimentRunner(num_cores=2, cache_dir=doc["cache_dir"],
                                      snapshots=True)
            results = runner.run_trials(specs)
        latencies.append(now() - t)
        hashes.add(tuple(_hash(r) for r in results))
    out: Dict[str, Any] = {
        "ops": len(specs),
        "campaign_seed": doc["campaign_seed"],
        "latencies": latencies,
        "hashes": sorted(hashes),
        "setup_s": t0 - doc["launched"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": spans.records if spans else [],
    }
    if doc["cold"]:
        out.update(
            outcomes=[r.outcome for r in results],
            recomputed_values=sum(r.recomputed_values for r in results),
            restored_records=sum(r.restored_records for r in results),
            snapshot_bytes=sum(len(g.to_bytes()) for g in goldens),
        )
    return out


def check(doc: Dict[str, Any]) -> Dict[str, Any]:
    """``child.py inject-check``: the sampled trials straight through,
    and the negative control's outcomes."""
    from repro.inject.harness import run_trial

    specs = _specs(doc)
    straight = [_hash(run_trial(specs[i], snapshots=False))
                for i in doc["sample"]]
    control = []
    for seed in doc["control_seeds"]:
        control += [
            run_trial(s, snapshots=True).outcome
            for s in _specs(dict(doc, campaign_seed=seed), configs=("ACR",),
                            defect="skip-recompute")
            if s.workload == "dc"
        ]
    return {"straight": straight, "control": control}


def _sample(doc: Dict[str, Any]) -> List[int]:
    """The first trial of every (workload, config) pair."""
    trials, first = doc["trials"], {}
    workloads = doc["workloads"]
    for i in range(2 * trials):
        key = (workloads[(i % trials) % len(workloads)], i // trials)
        first.setdefault(key, i)
    return sorted(first.values())


# ----------------------------------------------------------------- run --
def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    work = OUT / f"inject-{seed}-{now():.0f}"
    spans = Spans()
    trials = 2 * CAMPAIGN["trials"]  # BER and ACR

    def round_doc(index: int) -> Dict[str, Any]:
        return dict(CAMPAIGN, campaign_seed=derive_seed(seed, index),
                    trace=trace, cache_dir=str(work / f"cache{index}"))

    def steps(index: int):
        doc = round_doc(index)
        return [("inject", dict(doc, cold=True), trials)] + [
            ("inject", dict(doc, cold=False, repeats=WARM_REPEATS),
             trials * WARM_REPEATS)] * WARM_PROCESSES

    bad: List[str] = []
    try:
        rounds, round_ids, attempted, failed = child_rounds(
            "inject", seconds, steps, spans)
        first = round_doc(0)
        sample = _sample(first)
        try:
            checked = run_child("inject-check", dict(
                first, sample=sample, control_seeds=[
                    derive_seed(seed, i) for i in range(CONTROL_ROUNDS)]))
        except ChildFailed as exc:
            checked = None
            bad.append(f"check process: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for index, (cold, *warms) in enumerate(rounds):
        wrong = len(cold["outcomes"]) - cold["outcomes"].count(
            "recovered-exact")
        if wrong:
            bad.append(f"round {index}: {wrong} trials not recovered-exact")
        if any(w["hashes"] != cold["hashes"] for w in warms):
            bad.append(f"round {index}: warm campaign differs from cold")
    if checked and rounds and rounds[0][0]["campaign_seed"] == first[
            "campaign_seed"]:
        if checked["straight"] != [rounds[0][0]["hashes"][0][i]
                                   for i in sample]:
            bad.append("forked trials differ from straight-through re-runs")
    if checked and "diverged" not in checked["control"]:
        bad.append("negative control: skip-recompute never diverged")

    return {
        "problems": bad,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": round_metrics(rounds),
        "per_layer": (_layers(spans, round_ids, [r[0] for r in rounds])
                      if trace and rounds else {}),
        "spans": spans,
    }


def _layers(spans: Spans, round_ids: List[int], rounds) -> Dict[str, float]:
    """The cold campaign's figures, per round (medians over rounds; the
    simulated counts are round 0's, so they never depend on how many
    rounds fit in the run)."""
    per_round, trial_ms = [], []
    for rid in round_ids:
        root = [s for s in spans.under(rid)
                if s[2] == "inject.cold_campaign"][0]
        cold = spans.under(root[0])
        gold = [s for s in cold if s[2] == "inject.run_golden"]
        with_golden = {s[1] for s in gold}
        trial_ms += [1e3 * (s[4] - s[3]) for s in cold
                     if s[2] == "inject.run_trial" and s[0] not in with_golden]
        per_round.append(dict(
            pipeline_layers(spans, root[0]),
            **{"inject.golden_s": sum(s[4] - s[3] for s in gold)}))
    return dict(
        median_layers(per_round), **{
            "inject.goldens": len([s for s in spans.under(round_ids[0])
                                   if s[2] == "inject.run_golden"]),
            "inject.trial_ms": median(trial_ms),
            "sim.snapshot.bytes": rounds[0]["snapshot_bytes"],
            "inject.recomputed_values": rounds[0]["recomputed_values"],
            "inject.restored_records": rounds[0]["restored_records"],
        })
