"""A live move carries the pod along with its accelerator session.

Two worker nodes, one full-HD Sobel tenant on each board; deploying an MM
function makes Algorithm 1 reprogram one board and displace its tenant to
the other.  The tenant's pod follows its session (container
checkpoint/restore), so it reaches its new Device Manager over shared
memory again — unless the target's node is not ready, in which case the
session still moves and the pod stays behind on gRPC.
"""

import pytest

from repro.cluster import DeviceQuery, build_testbed
from repro.cluster.objects import WatchEventType
from repro.core.registry import AcceleratorsRegistry
from repro.core.registry.registry import MANAGER_ENV
from repro.core.remote_lib import ManagerAddress, PlatformRouter
from repro.fpga.bitstream import extended_library
from repro.fpga.hwspec import GiB, HOST_I7_6700, PCIE_GEN3_X8, NodeSpec
from repro.live import LiveMigrator, controller_instance_resolver
from repro.rpc import GrpcTransport, ShmTransport
from repro.serverless import (
    FunctionController,
    FunctionSpec,
    Gateway,
    MMApp,
    SobelApp,
)
from repro.sim import Environment

VICTIM = "sobel-0-i1"


class Stack:
    """Two-node cluster, live migration on, two Sobel tenants serving."""

    def __init__(self, durability="volatile"):
        env = self.env = Environment()
        specs = [NodeSpec(name=name, host=HOST_I7_6700, pcie=PCIE_GEN3_X8,
                          memory_bytes=32 * GiB, is_master=(name == "B"))
                 for name in ("B", "C")]
        testbed = self.testbed = build_testbed(
            env, node_specs=specs, library=extended_library(),
            functional=False, with_scraper=False)
        self.cluster = testbed.cluster
        self.registry = AcceleratorsRegistry(
            env, testbed.cluster, list(testbed.managers.values()),
            migration="live", durability=durability,
            snapshot_interval=None)
        router = PlatformRouter(env, testbed.network, testbed.library)
        router.add_managers(
            [ManagerAddress.of(m) for m in testbed.managers.values()])
        self.gateway = Gateway(env, testbed.cluster)
        self.controller = FunctionController(env, testbed.cluster,
                                             self.gateway, router)
        self.registry.migrator = self.controller.migrate
        self.migrator = LiveMigrator(
            env, self.registry, dict(testbed.managers),
            controller_instance_resolver(self.controller),
            network=testbed.network)
        self.registry.live_migrator = self.migrator
        self.run(self.deploy("sobel-0", SobelApp, "sobel"))
        self.run(self.deploy("sobel-1", SobelApp, "sobel"))
        assert self.instance.node.name == "B"

    def run(self, generator):
        return self.env.run(until=self.env.process(generator))

    def deploy(self, name, app, accelerator):
        yield from self.gateway.deploy(FunctionSpec(
            name=name, app_factory=app,
            device_query=DeviceQuery(vendor="Intel",
                                     accelerator=accelerator),
            runtime="blastfunction"))
        yield from self.controller.wait_ready(name)

    def storm(self):
        """Deploy MM (loaded nowhere) and let the displaced tenant land."""
        self.run(self.deploy("mm-storm", MMApp, "mm"))
        self.env.run(until=self.env.now + 1.0)
        assert self.migrator.log == [(VICTIM, "dm-B", "dm-C")]

    @property
    def instance(self):
        return self.controller.instances[VICTIM]


def test_cross_node_move_takes_the_pod_along():
    stack = Stack()
    events = []
    stack.cluster.watch(lambda event: events.append(event))
    stack.storm()

    instance = stack.instance
    pod = stack.cluster.pods[VICTIM]
    assert pod is instance.pod
    assert pod.node.name == pod.spec.node_name == "C"
    assert VICTIM in stack.cluster.node("C").pods
    assert VICTIM not in stack.cluster.node("B").pods
    assert pod.spec.env[MANAGER_ENV] == "dm-C"
    assert instance.node is stack.cluster.node("C")
    connection = instance.connection
    assert connection.client_host.name == "C"
    assert isinstance(connection.transport, ShmTransport)
    record = stack.registry.functions.instance(VICTIM)
    assert (record.node, record.device) == ("C", "dm-C")
    assert any(event.type is WatchEventType.MODIFIED
               and event.pod is pod and pod.node.name == "C"
               for event in events)
    assert stack.migrator.fallbacks == 0

    # The moved tenant serves at shared-memory cost on its new node.
    latency, _result = stack.run(stack.gateway.invoke("sobel-0"))
    assert latency < 0.1
    assert instance.requests_served == 1


def test_not_ready_target_moves_the_session_but_not_the_pod():
    stack = Stack()
    original = stack.migrator.migrate

    def migrate(source_name, moves):
        for _instance, target in moves:
            node = stack.testbed.managers[target].node.name
            stack.cluster.node(node).ready = False
        return original(source_name, moves)

    stack.migrator.migrate = migrate
    stack.storm()

    instance = stack.instance
    assert instance.pod.node.name == instance.pod.spec.node_name == "B"
    assert instance.node.name == "B"
    assert instance.pod.spec.env[MANAGER_ENV] == "dm-C"
    assert instance.connection.client_host.name == "B"
    assert isinstance(instance.connection.transport, GrpcTransport)
    record = stack.registry.functions.instance(VICTIM)
    assert (record.node, record.device) == ("B", "dm-C")
    assert stack.migrator.fallbacks == 0
    assert stack.registry.live_migrations == 1


def test_pod_image_travels_after_the_source_resumes():
    stack = Stack()
    env, network = stack.env, stack.testbed.network
    source = stack.testbed.managers["dm-B"]
    image = stack.instance.app.host_image_bytes
    assert image == 2 * 1920 * 1080 * 4
    resumed, images = [], []

    original_resume = source.resume

    def resume():
        resumed.append(env.now)
        original_resume()

    original_transfer = network.transfer

    def transfer(src, dst, nbytes):
        if nbytes == image:
            images.append((env.now, src.name, dst.name, source.migrating,
                           stack.instance.connection._paused))
        yield from original_transfer(src, dst, nbytes)

    source.resume = resume
    network.transfer = transfer
    stack.storm()

    assert len(resumed) == 1 and len(images) == 1
    started, src, dst, draining, paused = images[0]
    assert (src, dst) == ("B", "C")
    assert started >= resumed[0]
    assert not draining
    # Only the victim's own stream waits for its image.
    assert paused
    assert not stack.instance.connection._paused


def test_pod_is_evicted_when_its_node_fails_under_the_image():
    stack = Stack()
    network = stack.testbed.network
    image = stack.instance.app.host_image_bytes
    original_transfer = network.transfer

    def transfer(src, dst, nbytes):
        if nbytes == image:
            stack.cluster.fail_node(dst.name)
        yield from original_transfer(src, dst, nbytes)

    network.transfer = transfer
    stack.storm()

    # The pod landed on a failed node: evicted with it, like the pods
    # that were already there, and the Registry forgot it.
    assert VICTIM not in stack.cluster.pods
    assert VICTIM not in stack.cluster.node("C").pods
    assert VICTIM not in stack.controller.instances
    assert stack.registry.functions.instance(VICTIM) is None


@pytest.mark.parametrize("history", ["wal", "snapshot", "lost-tail"])
def test_durable_registry_keeps_the_moved_node(history):
    stack = Stack(durability="durable")
    stack.storm()
    registry, store = stack.registry, stack.registry.store
    moves = [r for r in store.wal if r.op == "move_instance"]
    assert [(r.args["instance"], r.args["device"], r.args["node"])
            for r in moves] == [(VICTIM, "dm-C", "C")]
    if history == "snapshot":
        store.take_snapshot(registry.snapshot_state())
    elif history == "lost-tail":
        # The move's record never reached the log: reconciliation must
        # read the new manager and node back from the pod.
        store.truncate(moves[0].seq - 1)

    registry.crash()
    stack.env.run(until=registry.restart())
    record = registry.functions.instance(VICTIM)
    assert (record.node, record.device) == ("C", "dm-C")
    assert VICTIM in registry.devices.get("dm-C").instances
    assert VICTIM not in registry.devices.get("dm-B").instances
    moved = registry.reconciliation["moved_instances"]
    assert moved == (1 if history == "lost-tail" else 0)


def test_reprogram_counts_each_reconfiguration_once():
    # The migrator prepares blank targets through the same public method
    # the manager's own BuildProgram path uses.
    env = Environment()
    testbed = build_testbed(env, library=extended_library(),
                            with_scraper=False)
    manager = testbed.managers["dm-B"]
    counter = manager.metrics.get("reconfigurations_total")
    slot = env.run(until=env.process(
        manager.reprogram(testbed.library.get("sobel"))))
    assert slot is None
    assert manager.configured_bitstream == "sobel"
    assert counter.value == 1
    assert manager.reconfiguration_seconds > 0
