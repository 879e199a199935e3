#!/usr/bin/env python
"""Migration smoke: gate the live-migration plane in CI.

Runs the quick-mode reconfiguration storm — four Sobel tenants under
load while MM/FIR/histogram deployments force Algorithm 1 to reprogram
their boards — once with the paper's restart moves and once with the
``repro.live`` checkpoint/restore plane, and fails if any of the
acceptance invariants breaks:

* **zero-downtime** — the live arm dropping even one in-flight request
  (the restart arm must demonstrably drop some, or the storm was not
  hostile enough to prove anything);
* **tail latency** — the restart arm's observed p99 (drops land at the
  request timeout) not being at least 2x the live arm's;
* **data plane** — a live-arm tenant still reaching its board across
  nodes (its pod did not follow its session), or the live arm's median
  differing from the restart arm's steady state;
* **deadlock** — any client CL-event FSM left unresolved on either arm;
* **golden drift** — the seeded digest no longer matching
  ``tests/experiments/data/golden_migration.json`` (the run is
  bit-reproducible; any drift is a real behaviour change and the golden
  must be regenerated deliberately with ``--update``).

Usage: ``REPRO_QUICK=1 PYTHONPATH=src python scripts/migration_smoke.py``
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "experiments" / "data" / "golden_migration.json"
TAIL_FACTOR = 2.0


def main() -> int:
    os.environ["REPRO_QUICK"] = "1"
    os.environ.pop("REPRO_MIGRATION", None)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.migration import run_migration

    result = run_migration()
    digest = result.to_golden()
    print(json.dumps(digest, indent=2))

    live, restart = result.live, result.restart
    failures = []
    if live.dropped:
        failures.append(
            f"live migration dropped {live.dropped} in-flight request(s)"
        )
    if restart.dropped == 0:
        failures.append(
            "the restart arm dropped nothing: the storm no longer "
            "exercises the failure the live plane exists to prevent"
        )
    if live.live_migrations < 1 or live.live_fallbacks:
        failures.append(
            f"live arm did {live.live_migrations} live move(s) with "
            f"{live.live_fallbacks} fallback(s); expected >=1 and 0"
        )
    if restart.observed_p99_ms < TAIL_FACTOR * live.observed_p99_ms:
        failures.append(
            f"restart p99 {restart.observed_p99_ms:.1f} ms is not "
            f">= {TAIL_FACTOR}x live p99 {live.observed_p99_ms:.1f} ms"
        )
    if live.remote_sessions:
        failures.append(
            f"{live.remote_sessions} live-arm tenant(s) still cross nodes "
            "to their board: the pod did not move with its session"
        )
    if live.p50_ms != restart.p50_ms:
        failures.append(
            f"live p50 {live.p50_ms} ms != restart p50 {restart.p50_ms} ms"
        )
    hung = restart.hung_events + live.hung_events
    if hung:
        failures.append(
            f"deadlock: {hung} client event FSM(s) never resolved"
        )

    if "--update" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(digest, indent=2, sort_keys=True)
                          + "\n")
        print(f"golden rewritten: {GOLDEN}")
    elif GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())
        if digest != golden:
            drift = [
                f"{mode}.{key}"
                for mode in sorted(set(golden) | set(digest))
                for key in sorted(set(golden.get(mode, {}))
                                  | set(digest.get(mode, {})))
                if golden.get(mode, {}).get(key)
                != digest.get(mode, {}).get(key)
            ]
            failures.append(f"golden drift in {drift}; regenerate "
                            "deliberately with --update")
    else:
        failures.append(f"missing golden file {GOLDEN}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
