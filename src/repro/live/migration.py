"""The live-migration plane: drain → checkpoint → transfer → restore.

Orchestrates zero-downtime moves of function instances between Device
Managers when Algorithm 1's redistribution displaces them (the Registry's
``migration="live"`` mode).  Per batch of moves off one source board:

1. mark the victims as migrating and **drain** the source manager —
   workers quiesce at the next operation boundary, racing submits are
   rejected with ``CL_DEVICE_MIGRATING`` (the client connection replays
   them after the rebind);
2. per victim: **pause** the client's outbound stream, wait a settle
   window for in-flight WRITE payloads to land, **capture** the session
   into a :class:`~repro.live.checkpoint.SessionCheckpoint`;
3. pay the **state transfer** over the cluster network (buffer contents,
   staged payloads, metadata);
4. **rebind** the client connection to the target manager — from the
   target's node, since the pod follows its session there — and
   **restore** the session; outstanding OpenCL event machines resolve on
   the new manager because completions are routed by tag;
5. complete the Registry bookkeeping and **resume** the source manager;
6. per victim: **move the pod** — a container checkpoint/restore that
   keeps the pod's name and process — paying the host image its app
   holds over the network, then resume that victim's stream.  Only the
   victim waits for its image: the source board already serves again.

The pod stays on its node when the target's node is not ready; its
connection then reaches the target over gRPC.  Any victim that cannot
move live (no connection, incompatible or full target, target busy with
other tenants' bitstream) falls back to the paper's create-before-delete
restart migration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..cluster import SchedulingError
from ..core.device_manager.manager import DeviceManager
from ..rpc import Network
from ..sim import Environment
from .checkpoint import CheckpointError, capture_session, restore_session

#: Resolves an instance name to its running
#: :class:`~repro.serverless.instance.FunctionInstance` (or None).
InstanceResolver = Callable[[str], Optional[object]]


def controller_instance_resolver(controller) -> InstanceResolver:
    """Resolver over a serverless FunctionController's running instances."""
    return controller.instances.get


#: Earlier name of :func:`controller_instance_resolver`, still imported by
#: ``perfbench/workloads.py``.
controller_connection_resolver = controller_instance_resolver


class LiveMigrator:
    """Checkpoint/restore mover wired into the Accelerators Registry."""

    #: Seconds to wait after pausing a client's stream before capturing:
    #: write payloads already on the wire (up to ~25 MB at 10 GbE) land in
    #: the manager's pending-write table instead of being lost.
    SETTLE = 0.02

    def __init__(
        self,
        env: Environment,
        registry,
        managers: Dict[str, DeviceManager],
        instance_of: InstanceResolver,
        network: Optional[Network] = None,
    ):
        self.env = env
        self.registry = registry
        self.managers = dict(managers)
        self.instance_of = instance_of
        self.network = network
        #: Sessions moved live / moves that fell back to restart.
        self.migrated = 0
        self.fallbacks = 0
        #: (instance, source, target) tuples of completed live moves.
        self.log: List[Tuple[str, str, str]] = []

    # -- entry point (spawned by Registry._migrate) --------------------------
    def migrate(self, source_name: str, moves: List[Tuple[str, str]]):
        """Process: move every ``(instance, target)`` off ``source_name``."""
        source = self.managers.get(source_name)
        victims: List[Tuple[object, DeviceManager]] = []
        restart: List[str] = []
        for instance_name, target_name in moves:
            target = self.managers.get(target_name)
            instance = self.instance_of(instance_name)
            if (source is None or target is None or instance is None
                    or instance.connection is None
                    or not source.alive or not target.alive
                    or instance_name not in source.sessions):
                restart.append(instance_name)
                continue
            victims.append((instance, target))

        if victims and source is not None:
            for instance, _target in victims:
                source.migrating_clients.add(instance.pod.name)
            yield from source.drain()
            pod_moves: List[Tuple[object, object]] = []
            for instance, target in victims:
                moved = yield from self._migrate_one(source, instance,
                                                     target, pod_moves)
                if not moved:
                    restart.append(instance.pod.name)
            source.resume()
            # Pod images travel outside the drain window.
            for instance, node in pod_moves:
                self.env.process(self._move_pod(instance, node))

        for instance_name in restart:
            self.fallbacks += 1
            yield from self._restart(instance_name)

    # -- one victim ----------------------------------------------------------
    def _migrate_one(self, source: DeviceManager, instance,
                     target: DeviceManager, pod_moves: list):
        """Process: move one session; True on success.  A pod that follows
        its session is appended to ``pod_moves`` with its stream paused."""
        instance_name = instance.pod.name
        connection = instance.connection
        yield from connection.pause_stream()
        yield self.env.timeout(self.SETTLE)

        ready = yield from self._prepare_target(target, instance_name)
        if not ready:
            connection.resume_stream()
            return False

        try:
            checkpoint = capture_session(source, instance_name)
        except CheckpointError:
            connection.resume_stream()
            return False

        if self.network is not None and not self.network.is_local(
                source.node, target.node):
            yield from self.network.transfer(
                source.node, target.node, checkpoint.transfer_nbytes
            )

        node = self._pod_destination(instance, target)
        transport = connection.rebind(
            target.endpoint, target.node,
            client_host=node.host if node is not None else None,
        )
        try:
            restore_session(target, checkpoint, transport,
                            connection.completion_queue)
        except CheckpointError:
            # Target refused (e.g. out of memory): the session is gone on
            # both sides — the restart fallback recreates the instance.
            connection.resume_stream()
            return False

        self.registry.complete_live_migration(
            instance_name, source.name, target.name,
            node=node.name if node is not None else None,
        )
        self.migrated += 1
        self.log.append((instance_name, source.name, target.name))
        if node is None:
            connection.resume_stream()
        else:
            pod_moves.append((instance, node))
        return True

    def _pod_destination(self, instance, target: DeviceManager):
        """The cluster node the pod moves to with its session, or None when
        it stays: it already runs there, or that node is not ready."""
        node = self.registry.cluster.nodes.get(target.node.name)
        if node is None or node is instance.node or not node.ready:
            return None
        return node

    def _move_pod(self, instance, node):
        """Process: checkpoint/restore the pod's container onto ``node``.

        Pays the host image the app holds over the network, then re-homes
        the pod in the cluster; the victim's stream, paused since its
        capture, resumes once the image has landed.
        """
        if self.network is not None:
            yield from self.network.transfer(
                instance.node.host, node.host, instance.app.host_image_bytes
            )
        cluster = self.registry.cluster
        name = instance.pod.name
        if cluster.pods.get(name) is instance.pod:  # not deleted meanwhile
            try:
                cluster.rebind_pod(name, node.name)
            except SchedulingError:
                # The node failed while the image was in flight: the pod is
                # evicted with it, as Cluster.fail_node would have done.
                cluster.delete_pod(name)
            else:
                instance.node = node
        instance.connection.resume_stream()

    def _prepare_target(self, target: DeviceManager, instance_name: str):
        """Process: make sure the target board runs the victim's bitstream.

        Algorithm 1 already picked a compatible target; when the image is
        not loaded yet the board is reprogrammed — but only while no other
        tenant holds live buffers there (a full reprogram wipes DDR).
        Returns False when the move must fall back to a restart.
        """
        needed = self._required_bitstream(instance_name)
        if needed is None:
            return True
        live = [slot.name for slot in target.board.slots if slot is not None]
        if needed in live:
            return True
        try:
            bitstream = target.library.get(needed)
        except KeyError:
            return False
        if len(target.board.memory):
            return False  # another tenant holds live DDR; reprogram wipes it
        yield from target.reprogram(bitstream)
        return True

    def _required_bitstream(self, instance_name: str) -> Optional[str]:
        instance = self.registry.functions.instance(instance_name)
        if instance is None:
            return None
        query = self.registry.functions.get(instance.function).device_query
        return query.accelerator or None

    # -- restart fallback -----------------------------------------------------
    def _restart(self, instance_name: str):
        """Process: the paper's create-before-delete move for one victim."""
        registry = self.registry
        instance = registry.functions.instance(instance_name)
        if instance is None:
            return
        registry.migrations += 1
        registry._m_migrations.inc()
        yield from registry._evacuate(instance_name, instance.function)
