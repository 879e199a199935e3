"""Live-migration plane: checkpoint/restore of in-flight accelerated work.

See docs/live_migration.md for the state machine and drain invariants.
"""

from .checkpoint import (
    BoardCheckpoint,
    BufferCheckpoint,
    CheckpointError,
    OperationCheckpoint,
    SessionCheckpoint,
    TaskCheckpoint,
    capture_board,
    capture_session,
    restore_session,
)
from .migration import (
    LiveMigrator,
    controller_connection_resolver,
    controller_instance_resolver,
)

__all__ = [
    "BoardCheckpoint",
    "BufferCheckpoint",
    "CheckpointError",
    "LiveMigrator",
    "OperationCheckpoint",
    "SessionCheckpoint",
    "TaskCheckpoint",
    "capture_board",
    "capture_session",
    "controller_connection_resolver",
    "controller_instance_resolver",
    "restore_session",
]
