"""One round of one workload, in a fresh process (started by ``run.py``).

A round imports ``repro``, builds and deploys the workload (``setup_s``),
runs its load, checks the outcome and prints one JSON object as its last
line of output.  Running each round in its own process makes ``setup_s``
include the import and ``peak_rss_mb`` belong to this workload alone.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` right before it
started this process (the clock is system-wide), so interpreter start-up
counts towards ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402  (the imports below need src/ on the path)
from driver import window_stats  # noqa: E402
from repro.loadgen import percentile  # noqa: E402
from tracing import Tracer, device_metrics, join_requests  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest requests ``latency_tail_ms`` may average over, so that a single
#: stall moves it little.
TAIL_SAMPLES = 50


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB.

    ``VmHWM`` starts afresh at ``exec``; ``ru_maxrss`` would carry over the
    high-water mark of the parent that forked this process."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def simulated_metrics(workload, stack, run, probes) -> dict:
    """Simulated figures; the same seed gives the same values."""
    latencies = []
    completed = sent = 0
    for client in run.clients:
        stats = window_stats(client, run.begin, run.end)
        latencies += stats.latencies
        completed += stats.completed
        sent += stats.sent
    latencies.sort()
    tail = latencies[math.ceil(0.95 * len(latencies)):]
    served = sum(sample.ok for c in run.clients for sample in c.samples)
    return {
        "latency_mean_ms": 1e3 * math.fsum(latencies) / len(latencies),
        "latency_tail_ms": 1e3 * math.fsum(tail) / max(1, len(tail)),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p99_ms": 1e3 * percentile(latencies, 99),
        "goodput_rps": completed / workload.window,
        "window_sent": sent,
        "window_samples": len(latencies),
        "tail_samples": len(tail),
        "served": served,
        "registry.migrations": stack.registry.migrations,
        "live.drain_s": sum(m.drain_seconds
                            for m in stack.testbed.managers.values()),
        "live.fallbacks": stack.migrator.fallbacks if stack.migrator else 0,
        "fpga.reconfigure_s": probes.delta("reconfigure_seconds"),
        "rpc.bytes_copied_per_req": probes.delta("bytes_copied") / served,
        "serverless.retries": sum(f.retries + f.deploy_retries
                                  for f in stack.gateway.functions.values()),
    }


def run_checks(workload, stack, run, probes) -> list:
    errors = checks.check_common(workload, stack, run, probes)
    if workload.name == "sobel-contended":
        errors += checks.check_sobel_copies(stack, run, probes)
    elif workload.name == "alexnet-roundtrips":
        errors += checks.check_alexnet_counts(run, probes)
    elif workload.name == "reconfig-storm":
        errors += checks.check_storm(workload, stack, run)
    return errors


def traced_metrics(workload, stack, run, tracer, served: int) -> tuple:
    """Per-layer figures only the traced round measures, plus the
    per-request AlexNet check on the exact join."""
    pods_of = {name: list(function.pod_names)
               for name, function in stack.gateway.functions.items()}
    requests = {
        client.function: [(s.sent, s.done) for s in client.samples
                          if s.ok and run.begin <= s.sent < run.end
                          and s.done <= run.end]
        for client in run.clients}
    joined = join_requests(tracer, pods_of, requests)
    errors = []
    if workload.name == "alexnet-roundtrips":
        errors = checks.check_alexnet_joined(joined)
    events, messages = tracer.load_counts()
    metrics = device_metrics(joined)
    metrics["sim.events_per_req"] = events / served
    metrics["rpc.messages_per_req"] = messages / served
    return metrics, {"events": events,
                     "layer_seconds": tracer.layer_seconds()}, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    probes = checks.Probes()

    def before_deploy(stack):
        probes.attach(stack)
        if tracer is not None:
            tracer.attach(stack)

    stack = workload.setup(before_deploy)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probes.snapshot(stack, probes.before)
    run = workload.load(stack, args.seed,
                        phase=tracer.phase if tracer else None)
    probes.snapshot(stack, probes.after)

    sim = simulated_metrics(workload, stack, run, probes)
    errors = run_checks(workload, stack, run, probes)
    if sim["tail_samples"] < TAIL_SAMPLES:
        errors.append(f"only {sim['tail_samples']} samples in the slowest "
                      f"5 %, fewer than {TAIL_SAMPLES}")
    scraper, registry = stack.scraper, stack.registry
    result = {
        "setup_s": setup_s,
        "load_host_s": run.host_seconds,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": sum(len(c.samples) for c in run.clients),
        "failed": sum(not s.ok for c in run.clients for s in c.samples),
        "sim": sim,
        "scrape_host_ms": (1e3 * scraper.scrape_wall / scraper.scrape_count
                           if scraper and scraper.scrape_count else 0.0),
        "alloc_host_us": (1e6 * registry.alloc_wall / registry.allocations
                          if registry.allocations else 0.0),
        "errors": errors,
    }
    if tracer is not None:
        tracer.uninstall()
        metrics, raw, trace_errors = traced_metrics(
            workload, stack, run, tracer, sim["served"])
        result["traced"] = metrics
        result["raw"] = raw
        result["errors"] += trace_errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
