"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs an untimed functional check with real data, then whole rounds of the
workload, each in a fresh process (``worker.py``), for about ``S`` host
seconds, plus set-up-only rounds until ``setup_s`` has several samples.
With ``--trace 1`` one more round runs traced and the per-layer metrics
are printed instead of the end-to-end ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  A readable summary goes to
standard error.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("sobel-contended", "alexnet-roundtrips", "fleet-256",
             "reconfig-storm")

END_TO_END = {
    "setup_s": "s",
    "host_req_per_s": "req/s",
    "peak_rss_mb": "MiB",
    "latency_mean_ms": "ms",
    "latency_tail_ms": "ms",
    "goodput_rps": "req/s",
}

#: Layers whose profiled self time is reported per request.
HOST_LAYERS = ("sim", "device_manager", "remote_lib", "rpc", "ocl", "fpga",
               "kernels", "metrics", "registry", "serverless")

PER_LAYER = {
    "sim.events_per_req": "events",
    "sim.host_ns_per_event": "ns",
    "device_manager.tasks_per_req": "tasks",
    "device_manager.ops_per_req": "ops",
    "device_manager.queue_wait_ms": "ms",
    "remote_lib.overhead_ms": "ms",
    "rpc.messages_per_req": "messages",
    "rpc.bytes_copied_per_req": "bytes",
    "fpga.kernel_ms_per_req": "ms",
    "fpga.dma_ms_per_req": "ms",
    "fpga.reconfigure_s": "s",
    "metrics.scrape_host_ms": "ms",
    "registry.alloc_host_us": "us",
    "registry.migrations": "moves",
    "live.drain_s": "s",
    "live.fallbacks": "moves",
    "live.host_ms_per_move": "ms",
    "serverless.retries": "retries",
    "trace.overhead_x": "x",
    **{f"{layer}.host_us_per_req": "us" for layer in HOST_LAYERS},
}

#: Simulated figures every round of one seed must reproduce exactly.
DETERMINISTIC = ("latency_mean_ms", "latency_tail_ms", "latency_p50_ms",
                 "latency_p99_ms", "goodput_rps", "window_sent",
                 "window_samples", "served",
                 "registry.migrations", "live.drain_s", "live.fallbacks",
                 "fpga.reconfigure_s", "rpc.bytes_copied_per_req",
                 "serverless.retries")

#: Set-up samples per run; rounds that load also count.
MIN_SETUPS = 7
#: Host seconds one worker may take before it is killed.
WORKER_TIMEOUT = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not a failed correctness check)."""


def refuse_repro_environment() -> None:
    """``AcceleratorsRegistry`` lets ``REPRO_ALLOCATOR``, ``REPRO_MIGRATION``
    and ``REPRO_REGISTRY`` override its arguments and the experiments read
    ``REPRO_QUICK``; a stray variable would change what is measured."""
    stray = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if stray:
        raise BenchmarkError(f"unset {', '.join(stray)} before benchmarking")


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker round and return its JSON result."""
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--spawned-at", repr(time.monotonic()),
               *flags]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} round exceeded {WORKER_TIMEOUT} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} round failed "
                             f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float) -> list:
    """Whole rounds for about ``seconds``: another round starts only if
    it should end in time, judged by the previous round's length."""
    rounds = []
    started = time.monotonic()
    while True:
        round_started = time.monotonic()
        rounds.append(spawn(workload, seed))
        now = time.monotonic()
        if now - started + (now - round_started) > seconds:
            return rounds


def end_to_end(rounds: list, setups: list) -> dict:
    sim = rounds[0]["sim"]
    return {
        "setup_s": statistics.median(setups),
        "host_req_per_s": statistics.median(
            r["sim"]["served"] / r["load_host_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "latency_mean_ms": sim["latency_mean_ms"],
        "latency_tail_ms": sim["latency_tail_ms"],
        "goodput_rps": sim["goodput_rps"],
    }


def per_layer(rounds: list, traced: dict) -> dict:
    """Per-layer figures: counts and simulated times from the traced round,
    host times from the untraced rounds.  Profiled self time is split by
    layer and scaled to the untraced load time, so the layers' host times
    add up to what an untraced request costs."""
    sim = traced["sim"]
    served = sim["served"]
    host = statistics.median(r["load_host_s"] for r in rounds)
    layer_seconds = traced["raw"]["layer_seconds"]
    profiled = sum(layer_seconds.values())

    def host_share(layer: str) -> float:
        return layer_seconds.get(layer, 0.0) / profiled * host

    moves = sim["registry.migrations"]
    metrics = dict(traced["traced"])
    metrics.update({
        name: sim[name] for name in (
            "rpc.bytes_copied_per_req", "fpga.reconfigure_s",
            "registry.migrations", "live.drain_s", "live.fallbacks",
            "serverless.retries")})
    metrics.update({
        f"{layer}.host_us_per_req": 1e6 * host_share(layer) / served
        for layer in HOST_LAYERS})
    metrics.update({
        "sim.host_ns_per_event": 1e9 * host / traced["raw"]["events"],
        "metrics.scrape_host_ms": statistics.median(
            r["scrape_host_ms"] for r in rounds),
        "registry.alloc_host_us": statistics.median(
            r["alloc_host_us"] for r in rounds),
        "live.host_ms_per_move": (1e3 * host_share("live") / moves
                                  if moves else 0.0),
        "trace.overhead_x": traced["load_host_s"] / host,
    })
    return metrics


def determinism_errors(rounds: list) -> list:
    reference = {key: rounds[0]["sim"][key] for key in DETERMINISTIC}
    errors = []
    for index, result in enumerate(rounds[1:], start=1):
        differing = [key for key in DETERMINISTIC
                     if result["sim"][key] != reference[key]]
        if differing:
            errors.append(f"round {index} differs from round 0 in "
                          f"{', '.join(differing)}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulated FPGA service and its simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        refuse_repro_environment()
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchmarkError(f"no src/repro under {ROOT}")

        sys.path.insert(0, os.path.join(ROOT, "src"))
        from functional import run_functional

        errors = run_functional(args.seed)
        rounds = measure(args.workload, args.seed, args.seconds)
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < MIN_SETUPS:
            setups.append(
                spawn(args.workload, args.seed, "--setup-only")["setup_s"])
        every = list(rounds)
        if args.trace:
            traced = spawn(args.workload, args.seed, "--trace")
            every.append(traced)
            metrics = per_layer(rounds, traced)
            units = PER_LAYER
        else:
            metrics = end_to_end(rounds, setups)
            units = END_TO_END
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    for index, result in enumerate(every):
        errors += [f"round {index}: {e}" for e in result["errors"]]
    # The traced round must reproduce the untraced simulation exactly.
    errors += determinism_errors(every)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    sim = rounds[0]["sim"]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(setups)} set-ups, {sim['window_samples']} latency samples "
          f"(p50 {sim['latency_p50_ms']:.4f} ms, p99 "
          f"{sim['latency_p99_ms']:.4f} ms, {sim['tail_samples']} in the "
          f"slowest 5 %)",
          file=sys.stderr)
    for name in units:
        print(f"  {name:32s} {metrics[name]:14.6g} {units[name]}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
