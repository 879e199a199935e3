"""Seeded closed-loop load driver around ``Gateway.invoke``.

Each function gets one simulated connection, as ``hey -c 1 -q rate`` does in
the paper: the connection sends, waits for the reply, then waits for its
next send slot.  Slots are ``1/rate`` apart, stretched or shrunk by up to
±5 % per request, and the first slot is a phase inside the first interval.
Phase and jitter come from ``random.Random`` seeded with the workload name,
the benchmark seed and the function name, so a seed changes every
connection's schedule and the same seed repeats it exactly.  String seeds
are hashed with SHA-512 by ``random``, which ``PYTHONHASHSEED`` does not
affect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.serverless import Gateway, InvocationError

#: Largest relative stretch or shrink of one send spacing.
JITTER = 0.05


@dataclass
class Sample:
    """One request as the connection saw it (simulated seconds)."""

    sent: float
    done: float
    ok: bool


@dataclass
class Client:
    """One function's closed-loop connection and everything it observed."""

    function: str
    rate: float
    #: Simulated time of the connection's first possible send.
    start: float
    rng: random.Random
    samples: List[Sample] = field(default_factory=list)

    @property
    def interval(self) -> float:
        return 1.0 / self.rate

    def run(self, env, gateway: Gateway, end: float):
        """Process: send until ``end``; the request in flight at ``end``
        is still awaited, so every request sent gets an outcome."""
        yield env.timeout(self.start + self.rng.random() * self.interval
                          - env.now)
        next_slot = env.now
        while True:
            if env.now < next_slot:
                yield env.timeout(next_slot - env.now)
            if env.now >= end:
                return
            sent = env.now
            spacing = 1.0 + JITTER * (2.0 * self.rng.random() - 1.0)
            next_slot = sent + self.interval * spacing
            try:
                yield from gateway.invoke(self.function)
                ok = True
            except InvocationError:
                ok = False
            self.samples.append(Sample(sent, env.now, ok))


def make_client(workload: str, seed: int, function: str, rate: float,
                start: float) -> Client:
    """A connection whose phase and jitter are fixed by ``seed``."""
    if rate <= 0:
        raise ValueError(f"{function}: rate must be positive")
    rng = random.Random(f"{workload}/{seed}/{function}")
    return Client(function, float(rate), start, rng)


@dataclass
class WindowStats:
    """What one connection did inside the measurement window."""

    sent: int
    completed: int
    failed: int
    inflight_at_end: int
    latencies: List[float]


def window_stats(client: Client, begin: float, end: float) -> WindowStats:
    """Requests sent in ``[begin, end)``: completed by ``end``, failed by
    ``end``, or still in flight at ``end``."""
    sent = completed = failed = inflight = 0
    latencies: List[float] = []
    for sample in client.samples:
        if not begin <= sample.sent < end:
            continue
        sent += 1
        if sample.done > end:
            inflight += 1
        elif sample.ok:
            completed += 1
            latencies.append(sample.done - sample.sent)
        else:
            failed += 1
    return WindowStats(sent, completed, failed, inflight, latencies)
