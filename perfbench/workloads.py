"""The benchmark's four workloads, built only from the library's public API.

Each workload is a :class:`Workload`: ``setup()`` builds the testbed and
deploys every function until it serves (what ``setup_s`` times), and
``load()`` runs the closed-loop load of :mod:`perfbench.driver` over a
warm-up plus a measurement window, then lets the system settle so every
request sent has an outcome.  Rates are the paper's Table I values, copied
here so the benchmark does not move when experiment drivers change.

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import DeviceQuery, Testbed, build_testbed
from repro.core.registry import AcceleratorsRegistry
from repro.core.remote_lib import ManagerAddress, PlatformRouter
from repro.faults import GatewayPolicy, HealthPolicy
from repro.fpga.bitstream import extended_library
from repro.fpga.hwspec import GiB, HOST_I7_6700, PCIE_GEN3_X8, NodeSpec
from repro.live import LiveMigrator, controller_connection_resolver
from repro.metrics import Scraper
from repro.serverless import (
    AlexNetApp,
    FIRApp,
    FunctionController,
    FunctionSpec,
    Gateway,
    HistogramApp,
    MMApp,
    SobelApp,
)
from repro.sim import AllOf, Environment, TimerWheel

from driver import Client, make_client

#: Table I rates (rq/s) the workloads use.
SOBEL_HIGH = (60, 50, 35, 30, 15)
ALEXNET_HIGH = (9, 9, 6, 6, 3)
SOBEL_LOW = (20, 15, 10, 5, 5)
MM_LOW = (28, 21, 14, 7, 7)


@dataclass
class Stack:
    """One built system; ``Workload.deploy`` deploys its plan."""

    env: Environment
    testbed: Testbed
    gateway: Gateway
    registry: AcceleratorsRegistry
    router: PlatformRouter
    controller: FunctionController
    #: (function, Table I rate, accelerator) of every function served from
    #: the start of the load phase.
    plan: List[Tuple[str, float, str]]
    #: Accelerator -> app class, storm accelerators included.
    apps: Dict[str, type]
    migrator: Optional[LiveMigrator] = None
    scraper: Optional[Scraper] = None


@dataclass(frozen=True)
class StormWave:
    """A function deployed mid-run whose bitstream is loaded on no board."""

    name: str
    accelerator: str
    app: type
    #: Deploy time, seconds after the window opens.
    deploy_at: float


@dataclass
class LoadRun:
    """The load phase's outcome."""

    clients: List[Client]
    begin: float
    end: float
    #: Host seconds from the first send until every connection finished.
    host_seconds: float = 0.0
    #: Simulated time the storm functions were deployed (reconfig-storm).
    storm_deployed: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Builds the testbed and control plane; deploys nothing.
    build: Callable[[], Stack]
    #: Deploys ``stack.plan`` and returns once every function serves.
    deploy: Callable[[Stack], None]
    warmup: float
    window: float
    storm: Tuple[StormWave, ...] = ()
    storm_rate: float = 0.0
    #: Storm connections start this long after the window opens, past the
    #: last wave's reprogramming.
    storm_load_at: float = 0.0
    #: Simulated seconds after the last connection finished, so deferred
    #: builds, migrations and read-result transfers run to completion
    #: before the end-of-run checks.
    settle: float = 0.5

    def setup(self, before_deploy: Optional[Callable[[Stack], None]] = None
              ) -> Stack:
        """Build, let ``before_deploy`` attach observers, deploy."""
        stack = self.build()
        if before_deploy is not None:
            before_deploy(stack)
        self.deploy(stack)
        return stack

    def load(self, stack: Stack, seed: int,
             phase: Optional[Callable[[str], None]] = None) -> LoadRun:
        """Drive every function from ``env.now``; returns when settled.

        ``phase("start")`` and ``phase("stop")`` are called right around
        the timed part, which ends when every connection has finished."""
        env, gateway = stack.env, stack.gateway
        begin = env.now + self.warmup
        end = begin + self.window
        clients = [
            make_client(self.name, seed, name, rate, start=env.now)
            for name, rate, _accelerator in stack.plan
        ] + [
            make_client(self.name, seed, wave.name, self.storm_rate,
                        start=begin + self.storm_load_at)
            for wave in self.storm
        ]
        run = LoadRun(clients, begin, end)
        processes = [env.process(c.run(env, gateway, end)) for c in clients]
        if self.storm:
            processes.append(env.process(
                self._deploy_storm(stack, begin, run.storm_deployed)))
        if phase is not None:
            phase("start")
        started = time.perf_counter()
        env.run(until=AllOf(env, processes))
        run.host_seconds = time.perf_counter() - started
        if phase is not None:
            phase("stop")
        env.run(until=env.now + self.settle)
        return run

    def _deploy_storm(self, stack: Stack, begin: float,
                      deployed: Dict[str, float]):
        env = stack.env
        for wave in self.storm:
            yield env.timeout(begin + wave.deploy_at - env.now)
            yield from stack.gateway.deploy(
                _spec(stack, wave.name, wave.accelerator))
            deployed[wave.name] = env.now


def expect_registry(registry: AcceleratorsRegistry, allocator: str,
                    migration: str, durability: str) -> None:
    """Refuse a registry whose effective configuration differs from what
    the workload asked for (the registry lets ``REPRO_*`` variables
    override its constructor arguments)."""
    effective = (registry.allocator, registry.migration_mode,
                 registry.durability)
    if effective != (allocator, migration, durability):
        raise RuntimeError(
            f"registry runs {effective}, the workload asked for "
            f"{(allocator, migration, durability)}")


def _fleet_specs(boards: int) -> List[NodeSpec]:
    """A homogeneous fleet; node 0 doubles as the master."""
    return [
        NodeSpec(name=f"n{index:04d}", host=HOST_I7_6700, pcie=PCIE_GEN3_X8,
                 memory_bytes=32 * GiB, is_master=(index == 0))
        for index in range(boards)
    ]


def assemble(env: Environment, testbed: Testbed, scraper: Scraper,
              plan: List[Tuple[str, float, str]], apps: Dict[str, type],
              migration: str = "restart",
              policy: Optional[GatewayPolicy] = None) -> Stack:
    """Gateway, Registry, router and controller over a built testbed."""
    gateway = Gateway(env, testbed.cluster, policy=policy)
    registry = AcceleratorsRegistry(
        env, testbed.cluster, list(testbed.managers.values()),
        scraper=scraper, migration=migration)
    expect_registry(registry, "indexed", migration, "volatile")
    router = PlatformRouter(env, testbed.network, testbed.library)
    router.add_managers(
        [ManagerAddress.of(m) for m in testbed.managers.values()])
    controller = FunctionController(env, testbed.cluster, gateway, router)
    registry.migrator = controller.migrate
    return Stack(env, testbed, gateway, registry, router, controller, plan,
                 apps, scraper=scraper)


def deploy_sequentially(stack: Stack) -> None:
    """Deploy one function at a time so each admission sees the previous
    placement, then wait until all serve."""
    env, gateway, controller = stack.env, stack.gateway, stack.controller

    def deploy():
        for name, _rate, accelerator in stack.plan:
            yield from gateway.deploy(_spec(stack, name, accelerator))
        for name, _rate, _accelerator in stack.plan:
            yield from controller.wait_ready(name)

    env.run(until=env.process(deploy()))


def deploy_concurrently(stack: Stack) -> None:
    """Admit every function at once, as a fleet rollout, then wait until
    all serve."""
    env, gateway, controller = stack.env, stack.gateway, stack.controller

    def deploy(name: str, accelerator: str):
        yield from gateway.deploy(_spec(stack, name, accelerator))

    deploys = [env.process(deploy(name, accelerator))
               for name, _rate, accelerator in stack.plan]

    def ready():
        yield AllOf(env, deploys)
        for name, _rate, _accelerator in stack.plan:
            yield from controller.wait_ready(name)

    env.run(until=env.process(ready()))


def _spec(stack: Stack, name: str, accelerator: str) -> FunctionSpec:
    return FunctionSpec(
        name=name, app_factory=stack.apps[accelerator],
        device_query=DeviceQuery(vendor="Intel", accelerator=accelerator))


def _paper_testbed(accelerator: str, rates, app: type) -> Stack:
    """The paper's 3-board testbed with 5 functions of one accelerator on
    BlastFunction with shared memory."""
    env = Environment()
    testbed = build_testbed(env, functional=False, scrape_interval=1.0)
    plan = [(f"{accelerator}-{index}", float(rate), accelerator)
            for index, rate in enumerate(rates, start=1)]
    return assemble(env, testbed, testbed.scraper, plan, {accelerator: app})


def build_sobel_contended() -> Stack:
    return _paper_testbed("sobel", SOBEL_HIGH, SobelApp)


def build_alexnet_roundtrips() -> Stack:
    return _paper_testbed("pipecnn_alexnet", ALEXNET_HIGH, AlexNetApp)


FLEET_BOARDS = 256
#: The paper's density of 5 functions per 3 boards.
FLEET_FUNCTIONS = round(FLEET_BOARDS * 5 / 3)


def build_fleet() -> Stack:
    """256 boards, Sobel and MM interleaved at Table I "low" rates, indexed
    allocation, one timer wheel carrying the 1 s scrape and the coalesced
    0.5 s heartbeats."""
    env = Environment()
    testbed = build_testbed(env, node_specs=_fleet_specs(FLEET_BOARDS),
                            with_scraper=False)
    wheel = TimerWheel(env, tick=0.5)
    scraper = Scraper(env, interval=1.0, retention=60.0, wheel=wheel)
    testbed.scraper = scraper
    for manager in testbed.managers.values():
        scraper.add_target(manager.name, manager.metrics,
                           node=manager.node.name, device=manager.board.name)
    plan = []
    for index in range(FLEET_FUNCTIONS):
        accelerator, rates = (("sobel", SOBEL_LOW) if index % 2 == 0
                              else ("mm", MM_LOW))
        plan.append((f"{accelerator}-{index}",
                     float(rates[(index // 2) % len(rates)]), accelerator))
    stack = assemble(env, testbed, scraper, plan,
                      {"sobel": SobelApp, "mm": MMApp})
    stack.registry.enable_health(
        network=testbed.network,
        policy=HealthPolicy(heartbeat_interval=0.5, lease_timeout=2.0,
                            coalesce=True),
        wheel=wheel)
    return stack


STORM_BOARDS = 4
STORM_TENANT_RATE = 20.0
STORM_WAVES = (
    StormWave("mm-storm", "mm", MMApp, 1.0),
    StormWave("fir-storm", "fir", FIRApp, 2.5),
    StormWave("hist-storm", "histogram", HistogramApp, 4.0),
)


def build_reconfig_storm() -> Stack:
    """4 boards, one full-HD Sobel tenant each, live migration on.  A
    request that takes over 2 s fails, so no drop can hide as latency."""
    env = Environment()
    testbed = build_testbed(env, node_specs=_fleet_specs(STORM_BOARDS),
                            library=extended_library(), functional=False,
                            scrape_interval=1.0)
    plan = [(f"sobel-{index}", STORM_TENANT_RATE, "sobel")
            for index in range(STORM_BOARDS)]
    apps = {"sobel": SobelApp}
    apps.update((wave.accelerator, wave.app) for wave in STORM_WAVES)
    stack = assemble(
        env, testbed, testbed.scraper, plan, apps, migration="live",
        policy=GatewayPolicy(retry_budget=0, breaker_threshold=10 ** 9,
                             shed_when_unavailable=False,
                             request_timeout=2.0))
    stack.migrator = LiveMigrator(
        env, stack.registry, dict(testbed.managers),
        controller_connection_resolver(stack.controller),
        network=testbed.network)
    stack.registry.live_migrator = stack.migrator
    return stack


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("sobel-contended", build_sobel_contended,
                 deploy_sequentially, warmup=2.0, window=10.0),
        Workload("alexnet-roundtrips", build_alexnet_roundtrips,
                 deploy_sequentially, warmup=2.0, window=40.0),
        Workload("fleet-256", build_fleet, deploy_concurrently,
                 warmup=0.25, window=0.5),
        Workload("reconfig-storm", build_reconfig_storm, deploy_sequentially,
                 warmup=2.0, window=28.0, storm=STORM_WAVES,
                 storm_rate=5.0, storm_load_at=7.5, settle=3.0),
    )
}
