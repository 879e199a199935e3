"""The traced run: per-layer attribution of simulated and host time.

The program is observed only from outside:

* class-level wrappers count calls to public entry points
  (``Environment.schedule`` for DES events, ``Transport.deliver_to_server``
  and ``deliver_to_client`` for RPC messages).  Each wrapper returns what
  the wrapped call returns, so generators and the event order are
  untouched and the simulated results equal the untraced run's exactly;
* Device-Manager ``op_listeners`` and ``task_listeners`` record device
  spans;
* ``cProfile``, enabled only around the load phase, gives each function's
  self time, grouped by the ``repro.<layer>`` package it belongs to.

Device spans are joined to requests exactly without a request id: every
function has one closed-loop connection, so a task or operation of that
function's pod that lies inside request R's send-to-reply interval belongs
to R.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.device_manager.tasks import OpType
from repro.rpc import Transport
from repro.sim import Environment

#: The benchmark's own files (load driver, listeners) form layer "bench".
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _layer_of_file(filename: str, repro_dir: str):
    """``repro.<layer>`` of a source file (``core/*`` packages under their
    own name), "bench" for the benchmark, None for anything else."""
    if filename.startswith(BENCH_DIR + os.sep):
        return "bench"
    if not filename.startswith(repro_dir + os.sep):
        return None
    parts = filename[len(repro_dir):].lstrip(os.sep).split(os.sep)
    if parts[0] == "core" and len(parts) > 2:
        return parts[1]
    if len(parts) == 1:
        return "repro"
    return parts[0]


def layer_self_time(stats: pstats.Stats, repro_dir: str) -> Dict[str, float]:
    """Self seconds per layer.

    A function outside ``repro`` and the benchmark (a builtin such as
    ``heappush``, a stdlib helper) has its self time split over its callers
    in proportion to the time each call edge spent in it, and each caller
    passes its share on to its own layer.  Frames that no layer reaches
    count as ``other``.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    resolved: Dict[tuple, Dict[str, float]] = {}

    def distribution(func, visiting) -> Dict[str, float]:
        if func in resolved:
            return resolved[func]
        layer = _layer_of_file(func[0], repro_dir)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
            weights: Dict[str, float] = defaultdict(float)
            total = 0.0
            for caller, edge in callers.items():
                if caller in visiting:
                    continue
                edge_time = edge[2] if len(edge) > 2 else 0.0
                if edge_time <= 0:
                    continue
                total += edge_time
                for name, share in distribution(
                        caller, visiting | {func}).items():
                    weights[name] += edge_time * share
            result = ({name: w / total for name, w in weights.items()}
                      if total > 0 else {"other": 1.0})
        resolved[func] = result
        return result

    seconds: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        if tt <= 0:
            continue
        for name, share in distribution(func, frozenset()).items():
            seconds[name] += tt * share
    return dict(seconds)


@dataclass
class Span:
    """A device task or operation of one client (simulated seconds)."""

    start: float
    end: float
    #: Task: seconds queued before a worker took it.  Op: board seconds.
    seconds: float
    #: Op kind ("kernel", "write", ...); "task" for tasks.
    kind: str


class Tracer:
    """Instruments installed for one traced round."""

    def __init__(self):
        import repro

        self.repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
        self.events = 0
        self.messages = 0
        self.profile = cProfile.Profile()
        #: client (pod name) -> tasks / ops, in completion order.
        self.tasks: Dict[str, List[Span]] = defaultdict(list)
        self.ops: Dict[str, List[Span]] = defaultdict(list)
        self._marks: Dict[str, Tuple[int, int]] = {}
        self._restore: List[Tuple[type, str, object]] = []

    # -- wrappers (installed before the system is built) ------------------
    def install(self) -> None:
        tracer = self
        schedule = Environment.schedule

        def counted_schedule(env, *args, **kwargs):
            tracer.events += 1
            return schedule(env, *args, **kwargs)

        self._patch(Environment, "schedule", counted_schedule)
        for name in ("deliver_to_server", "deliver_to_client"):
            original = getattr(Transport, name)

            def counted(transport, endpoint, message, _original=original):
                tracer.messages += 1
                return _original(transport, endpoint, message)

            self._patch(Transport, name, counted)

    def _patch(self, cls: type, name: str, replacement) -> None:
        self._restore.append((cls, name, getattr(cls, name)))
        setattr(cls, name, replacement)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._restore):
            setattr(cls, name, original)
        self._restore.clear()

    # -- listeners (attached once the testbed exists) ---------------------
    def attach(self, stack) -> None:
        for manager in stack.testbed.managers.values():
            manager.task_listeners.append(self._on_task)
            manager.op_listeners.append(self._on_op)

    def _on_task(self, task) -> None:
        if task.submitted_at is None or task.started_at is None:
            return
        self.tasks[task.client].append(Span(
            task.submitted_at, task.finished_at,
            task.started_at - task.submitted_at, "task"))

    def _on_op(self, operation) -> None:
        self.ops[operation.client].append(Span(
            operation.started_at, operation.finished_at,
            operation.finished_at - operation.started_at,
            operation.type.value))

    # -- load-phase hook ----------------------------------------------------
    def phase(self, mark: str) -> None:
        """Called by the workload right before and after the timed load."""
        if mark == "start":
            self._marks["start"] = (self.events, self.messages)
            self.profile.enable()
        else:
            self.profile.disable()
            self._marks["stop"] = (self.events, self.messages)

    def load_counts(self) -> Tuple[int, int]:
        """DES events scheduled and RPC messages sent during the load."""
        start, stop = self._marks["start"], self._marks["stop"]
        return stop[0] - start[0], stop[1] - start[1]

    def layer_seconds(self) -> Dict[str, float]:
        return layer_self_time(pstats.Stats(self.profile), self.repro_dir)


def join_requests(tracer: Tracer, pods_of: Dict[str, List[str]],
                  requests: Dict[str, List[Tuple[float, float]]]):
    """Per in-window request of each function: its tasks and operations.

    ``requests[function]`` lists ``(sent, done)`` intervals, which never
    overlap for one function (one closed-loop connection).  Returns one
    ``(latency, tasks, ops)`` triple per request.
    """
    joined = []
    for function, intervals in requests.items():
        tasks = sorted((span for pod in pods_of.get(function, ())
                        for span in tracer.tasks.get(pod, ())),
                       key=lambda span: span.start)
        ops = sorted((span for pod in pods_of.get(function, ())
                      for span in tracer.ops.get(pod, ())),
                     key=lambda span: span.start)
        task_starts = [span.start for span in tasks]
        op_starts = [span.start for span in ops]
        for sent, done in intervals:
            mine_tasks = [
                span for span in tasks[bisect_left(task_starts, sent):
                                       bisect_right(task_starts, done)]
                if span.end <= done]
            mine_ops = [
                span for span in ops[bisect_left(op_starts, sent):
                                     bisect_right(op_starts, done)]
                if span.end <= done]
            joined.append((done - sent, mine_tasks, mine_ops))
    return joined


def device_metrics(joined) -> Dict[str, float]:
    """Simulated per-request device figures from the exact join."""
    if not joined:
        raise ValueError("no request to join device spans to")
    count = len(joined)
    tasks = ops = 0
    wait = kernel = dma = overhead = 0.0
    for latency, mine_tasks, mine_ops in joined:
        tasks += len(mine_tasks)
        ops += len(mine_ops)
        request_wait = sum(span.seconds for span in mine_tasks)
        request_kernel = sum(span.seconds for span in mine_ops
                             if span.kind == OpType.KERNEL.value)
        request_dma = sum(span.seconds for span in mine_ops
                          if span.kind in (OpType.WRITE.value,
                                           OpType.READ.value))
        wait += request_wait
        kernel += request_kernel
        dma += request_dma
        overhead += latency - request_wait - request_kernel - request_dma
    return {
        "device_manager.tasks_per_req": tasks / count,
        "device_manager.ops_per_req": ops / count,
        "device_manager.queue_wait_ms": 1e3 * wait / count,
        "fpga.kernel_ms_per_req": 1e3 * kernel / count,
        "fpga.dma_ms_per_req": 1e3 * dma / count,
        "remote_lib.overhead_ms": 1e3 * overhead / count,
    }
