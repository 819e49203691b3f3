"""Regenerate ``perfbench/reference.json``: the digests of the
``fig6-cold`` timed sweep and check sweep on the interp engine.

    python3 perfbench/reference.py

The interp engine is an independent execution engine, so a vector-engine
sweep that matches these digests matches it bit for bit.  Simulated
timing quantities do not depend on the memory seed, so one digest, made
at memory seed 0, serves every ``--seed`` of the benchmark.
"""

from __future__ import annotations

import json
import sys

from benchlib import BENCH_DIR, SRC, now

sys.path.insert(0, str(SRC))

import fig6_cold  # noqa: E402


def main() -> int:
    ref = {}
    for name, shape in (("sweep", fig6_cold.SWEEP),
                        ("check", fig6_cold.CHECK)):
        doc = dict(shape, engine="interp", memory_seed=0, cold=True,
                   trace=False, launched=now())
        out = fig6_cold.sweep(doc)
        bad = fig6_cold.check_properties(out["runs"])
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        ref[name], = out["digests"]
        print(f"{name}: {ref[name]} ({out['latencies'][0]:.1f} s)")
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
