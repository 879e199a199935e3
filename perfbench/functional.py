"""Untimed functional phase: real data through the same serving stack.

A Sobel and an MM function are deployed on the paper's testbed with boards
in functional mode.  Each request carries its own seeded operands in the
payload; the reply is the device's output, which is compared with a NumPy
reference written here, not with the library's own golden models.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cluster import build_testbed
from repro.serverless import MMApp, SobelApp
from repro.sim import Environment

from workloads import assemble, deploy_sequentially

FRAME = (96, 128)  # height, width
MM_N = 64
REQUESTS = 3


class FrameSobel(SobelApp):
    """Sobel taking its frame from the request and replying with the
    output frame."""

    def __init__(self):
        super().__init__(width=FRAME[1], height=FRAME[0], functional=True)

    def handle(self, request):
        self.queue.enqueue_write_buffer(self.in_buf, request.payload["frame"],
                                        nbytes=self.nbytes)
        self.queue.enqueue_kernel(self.kernel)
        data = yield from self.queue.read_buffer(self.out_buf)
        return bytes(data)


class OperandMM(MMApp):
    """MM taking both operands from the request and replying with C."""

    def __init__(self):
        super().__init__(n=MM_N, functional=True)

    def handle(self, request):
        yield from self.queue.write_buffer(self.a_buf, request.payload["a"],
                                           nbytes=self.nbytes)
        yield from self.queue.write_buffer(self.b_buf, request.payload["b"],
                                           nbytes=self.nbytes)
        self.queue.enqueue_kernel(self.kernel)
        data = yield from self.queue.read_buffer(self.c_buf)
        return bytes(data)


def sobel_l1(image: np.ndarray) -> np.ndarray:
    """|Gx| + |Gy| of the 3x3 Sobel operator, zero on the one-pixel border,
    saturated to uint32."""
    p = image.astype(np.int64)
    gx = ((p[:-2, 2:] + 2 * p[1:-1, 2:] + p[2:, 2:])
          - (p[:-2, :-2] + 2 * p[1:-1, :-2] + p[2:, :-2]))
    gy = ((p[2:, :-2] + 2 * p[2:, 1:-1] + p[2:, 2:])
          - (p[:-2, :-2] + 2 * p[:-2, 1:-1] + p[:-2, 2:]))
    out = np.zeros(p.shape, dtype=np.int64)
    out[1:-1, 1:-1] = np.abs(gx) + np.abs(gy)
    return np.minimum(out, np.iinfo(np.uint32).max).astype(np.uint32)


def run_functional(seed: int) -> List[str]:
    """Send a few requests with real data; returns failure messages."""
    env = Environment()
    testbed = build_testbed(env, functional=True)
    plan = [("sobel-check", 1.0, "sobel"), ("mm-check", 1.0, "mm")]
    stack = assemble(env, testbed, testbed.scraper, plan,
                      {"sobel": FrameSobel, "mm": OperandMM})
    deploy_sequentially(stack)
    rng = np.random.default_rng([seed, 0x5EED])
    errors: List[str] = []

    def client():
        for index in range(REQUESTS):
            frame = rng.integers(0, 1 << 16, size=FRAME, dtype=np.uint32)
            _latency, reply = yield from stack.gateway.invoke(
                "sobel-check", {"frame": frame.tobytes()})
            got = np.frombuffer(reply, dtype=np.uint32).reshape(FRAME)
            if not np.array_equal(got, sobel_l1(frame)):
                errors.append(f"sobel request {index}: output differs from "
                              f"the L1 Sobel reference")
            a = rng.standard_normal((MM_N, MM_N)).astype(np.float32)
            b = rng.standard_normal((MM_N, MM_N)).astype(np.float32)
            _latency, reply = yield from stack.gateway.invoke(
                "mm-check", {"a": a.tobytes(), "b": b.tobytes()})
            got = np.frombuffer(reply, dtype=np.float32).reshape(MM_N, MM_N)
            # float32 sums of MM_N products: allow a few ulps per term.
            if not np.allclose(got, np.matmul(a, b), rtol=1e-5,
                               atol=MM_N * 1e-6):
                errors.append(f"mm request {index}: output differs from "
                              f"numpy.matmul")

    env.run(until=env.process(client()))
    return errors
