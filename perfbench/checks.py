"""Correctness checks that derive what the program must have done from the
load the benchmark sent, not from the program's output of an earlier run.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.registry.registry import MANAGER_ENV
from repro.rpc import ShmTransport

from driver import JITTER, window_stats

#: Full-HD frame of 32-bit pixels, one bulk payload each way per request.
SOBEL_FRAME_BYTES = 1920 * 1080 * 4

# AlexNet's published structure (Krizhevsky et al. 2012): five convolution
# and three fully connected layers; max-pooling after conv1, conv2 and
# conv5; local response normalisation after conv1 and conv2.  PipeCNN runs
# each layer as mem_rd -> conv -> [pool] -> [lrn] -> mem_wr and waits for
# it, so one task per layer plus one for reading back the logits.
ALEXNET_LAYERS = 5 + 3
ALEXNET_POOLS = 3
ALEXNET_LRNS = 2
ALEXNET_KERNELS = 3 * ALEXNET_LAYERS + ALEXNET_POOLS + ALEXNET_LRNS
ALEXNET_TASKS = ALEXNET_LAYERS + 1


def _dm_ops(manager) -> Dict[str, float]:
    """Executed operations by type, read from the Device Manager's
    public ``ops_total`` counter without creating label children."""
    return {labels["type"]: value
            for _name, labels, value in manager.metrics.get(
                "ops_total").samples()}


@dataclass
class Probes:
    """Cheap observers attached to every round, traced or not."""

    busy: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    busy_sum: Dict[str, float] = field(default_factory=dict)
    reconfigure_seconds: float = 0.0
    before: Dict[str, object] = field(default_factory=dict)
    after: Dict[str, object] = field(default_factory=dict)

    def attach(self, stack) -> None:
        """Busy listener on every board, before the first deployment."""
        env = stack.env
        for board in stack.testbed.boards():
            intervals = self.busy.setdefault(board.name, [])
            self.busy_sum[board.name] = 0.0

            def on_busy(seconds, activity, intervals=intervals,
                        name=board.name):
                intervals.append((env.now - seconds, env.now))
                self.busy_sum[name] += seconds
                if activity == "reconfigure":
                    self.reconfigure_seconds += seconds

            board.add_busy_listener(on_busy)

    def snapshot(self, stack, into: Dict[str, object]) -> None:
        ops: Dict[str, float] = {}
        tasks = 0.0
        for manager in stack.testbed.managers.values():
            for kind, value in _dm_ops(manager).items():
                ops[kind] = ops.get(kind, 0.0) + value
            tasks += manager.metrics.get("tasks_total").value
        into["ops"] = ops
        into["tasks"] = tasks
        into["reconfigure_seconds"] = self.reconfigure_seconds
        into["copies"] = sum(c.transport.stats.copies
                             for c in stack.router.connections)
        into["bytes_copied"] = sum(c.transport.stats.bytes_copied
                                   for c in stack.router.connections)

    def delta(self, key: str):
        before, after = self.before[key], self.after[key]
        if isinstance(after, dict):
            return {k: v - before.get(k, 0.0) for k, v in after.items()}
        return after - before


def _requests(run) -> int:
    return sum(len(client.samples) for client in run.clients)


def check_common(workload, stack, run, probes: Probes) -> List[str]:
    """Checks every workload must pass."""
    errors: List[str] = []
    gateway = stack.gateway
    for client in run.clients:
        stats = window_stats(client, run.begin, run.end)
        if stats.sent != stats.completed + stats.failed + stats.inflight_at_end:
            errors.append(f"{client.function}: sent {stats.sent} != "
                          f"completed + failed + in flight")
        function = gateway.function(client.function)
        failed = sum(1 for sample in client.samples if not sample.ok)
        if function.invocations != len(client.samples):
            errors.append(f"{client.function}: gateway saw "
                          f"{function.invocations} invocations, the driver "
                          f"sent {len(client.samples)}")
        if function.failures != failed:
            errors.append(f"{client.function}: gateway counted "
                          f"{function.failures} failures, the driver saw "
                          f"{failed}")
        # Sends are at least (1 - JITTER)/rate apart, so a window of W
        # seconds holds at most floor(W * rate / (1 - JITTER)) + 1 sends.
        limit = math.floor(workload.window * client.rate / (1 - JITTER)) + 1
        if stats.completed > limit:
            errors.append(f"{client.function}: {stats.completed} completions "
                          f"in the window exceed the rate bound {limit}")

    hung = sum(connection.inflight for connection in stack.router.connections)
    if hung:
        errors.append(f"{hung} OpenCL event machines still in flight after "
                      f"the run settled")

    for board in stack.testbed.boards():
        intervals = probes.busy[board.name]
        if not math.isclose(probes.busy_sum[board.name], board.busy_seconds,
                            rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"{board.name}: busy listener sum "
                          f"{probes.busy_sum[board.name]} != busy_seconds "
                          f"{board.busy_seconds}")
        in_window = sum(max(0.0, min(end, run.end) - max(start, run.begin))
                        for start, end in intervals)
        if in_window > workload.window * (1 + 1e-9):
            errors.append(f"{board.name}: busy {in_window:.6f} s in a "
                          f"{workload.window} s window")
    return errors


def check_sobel_copies(stack, run, probes: Probes) -> List[str]:
    """Shared memory: one copy per full-HD payload, one payload each way
    per request the driver sent."""
    errors: List[str] = []
    for connection in stack.router.connections:
        if not isinstance(connection.transport, ShmTransport):
            errors.append(f"{connection.client_name} is not on shared "
                          f"memory ({type(connection.transport).__name__})")
    requests = _requests(run)
    copies = probes.delta("copies")
    copied = probes.delta("bytes_copied")
    if copies != 2 * requests:
        errors.append(f"{copies} shm copies for {requests} requests, "
                      f"expected {2 * requests}")
    if copied != 2 * requests * SOBEL_FRAME_BYTES:
        errors.append(f"{copied} bytes copied for {requests} requests, "
                      f"expected {2 * requests * SOBEL_FRAME_BYTES}")
    return errors


def check_alexnet_counts(run, probes: Probes) -> List[str]:
    """Every inference: 29 kernels in 9 tasks, one write, one read."""
    errors: List[str] = []
    requests = _requests(run)
    ops = probes.delta("ops")
    expected = {"kernel": ALEXNET_KERNELS * requests, "write": requests,
                "read": requests}
    for kind, count in expected.items():
        if ops.get(kind, 0.0) != count:
            errors.append(f"{ops.get(kind, 0.0):.0f} {kind} operations for "
                          f"{requests} inferences, expected {count}")
    tasks = probes.delta("tasks")
    if tasks != ALEXNET_TASKS * requests:
        errors.append(f"{tasks:.0f} tasks for {requests} inferences, "
                      f"expected {ALEXNET_TASKS * requests}")
    return errors


def check_alexnet_joined(joined) -> List[str]:
    """The per-request form of :func:`check_alexnet_counts` (traced run)."""
    errors: List[str] = []
    for index, (_latency, tasks, ops) in enumerate(joined):
        kernels = sum(1 for op in ops if op.kind == "kernel")
        writes = sum(1 for op in ops if op.kind == "write")
        reads = sum(1 for op in ops if op.kind == "read")
        if (len(tasks), kernels, writes, reads) != (
                ALEXNET_TASKS, ALEXNET_KERNELS, 1, 1):
            errors.append(f"request {index}: {len(tasks)} tasks, {kernels} "
                          f"kernels, {writes} writes, {reads} reads")
            break
    return errors


def check_storm(workload, stack, run) -> List[str]:
    """Live migration under a reconfiguration storm: nothing dropped, every
    function served from a board that holds its bitstream."""
    errors: List[str] = []
    failed = sum(1 for client in run.clients for sample in client.samples
                 if not sample.ok)
    if failed:
        errors.append(f"{failed} requests dropped during the storm")
    for wave in workload.storm:
        if wave.name not in run.storm_deployed:
            errors.append(f"{wave.name} was never deployed")
            continue
        served = [sample for client in run.clients
                  if client.function == wave.name
                  for sample in client.samples
                  if sample.ok and sample.sent >= run.storm_deployed[wave.name]]
        if not served:
            errors.append(f"{wave.name} served no request after its deploy")
    accelerators = {name: acc for name, _rate, acc in stack.plan}
    accelerators.update((wave.name, wave.accelerator)
                        for wave in workload.storm)
    for name, accelerator in accelerators.items():
        instances = stack.controller.live_instances(name)
        if len(instances) != 1:
            errors.append(f"{name} has {len(instances)} live instances")
        for instance in instances:
            manager = stack.testbed.managers[
                instance.pod.spec.env[MANAGER_ENV]]
            loaded = {slot.name for slot in manager.board.slots if slot}
            if accelerator not in loaded:
                errors.append(f"{instance.pod.name} runs on {manager.name} "
                              f"whose board holds {sorted(loaded)}")
    registry, migrator = stack.registry, stack.migrator
    if registry.live_migrations + migrator.fallbacks != registry.migrations:
        errors.append(f"live {registry.live_migrations} + fallbacks "
                      f"{migrator.fallbacks} != migrations "
                      f"{registry.migrations}")
    if registry.migrations == 0:
        errors.append("the storm displaced no tenant")
    return errors
