"""Migration experiment: golden regression + acceptance invariants.

``data/golden_migration.json`` pins the quick-mode digest of the
reconfiguration storm: four Sobel tenants under load while three storm
deployments (MM, FIR, histogram) force Algorithm 1 to reprogram boards
and displace the tenants — once with the paper's create-before-delete
restart moves, once with the checkpoint/restore plane of ``repro.live``.
Both arms are seed-deterministic, so any drift is a behaviour change in
the migration machinery, never noise.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import LoadTiming
from repro.experiments.migration import (
    MigrationSpec,
    run_migration,
    run_migration_mode,
)

GOLDEN = Path(__file__).parent / "data" / "golden_migration.json"


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


@pytest.fixture(scope="module")
def migration_result(monkeypatch_module):
    monkeypatch_module.setenv("REPRO_QUICK", "1")
    monkeypatch_module.delenv("REPRO_MIGRATION", raising=False)
    return run_migration()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenMigration:
    def test_digest_matches_golden(self, migration_result, golden):
        digest = migration_result.to_golden()
        drift = [
            f"{mode}.{key}"
            for mode in sorted(set(golden) | set(digest))
            for key in sorted(
                set(golden.get(mode, {})) | set(digest.get(mode, {}))
            )
            if golden.get(mode, {}).get(key) != digest.get(mode, {}).get(key)
        ]
        assert digest == golden, f"migration digest drifted in {drift}"

    def test_live_mode_drops_nothing(self, migration_result):
        # The acceptance criterion: zero dropped in-flight requests under
        # live migration, while the restart arm demonstrably drops some.
        assert migration_result.live.dropped == 0
        assert migration_result.restart.dropped > 0

    def test_live_tail_at_least_twice_better(self, migration_result):
        restart_p99 = migration_result.restart.observed_p99_ms
        live_p99 = migration_result.live.observed_p99_ms
        assert live_p99 > 0
        assert restart_p99 >= 2 * live_p99

    def test_no_hung_client_events(self, migration_result):
        # Every outstanding CL-event FSM resolved across the manager
        # change — nothing wedged on either arm.
        assert migration_result.restart.hung_events == 0
        assert migration_result.live.hung_events == 0

    def test_live_moves_actually_happened(self, migration_result):
        live = migration_result.live
        assert live.live_migrations >= 1
        assert live.rebinds == live.live_migrations
        assert live.live_fallbacks == 0
        assert live.drain_seconds > 0
        # The restart arm used only the paper's path.
        assert migration_result.restart.live_migrations == 0
        assert migration_result.restart.rebinds == 0

    def test_displaced_tenants_keep_shared_memory(self, migration_result):
        # Pods follow their sessions: no tenant ends on a cross-node gRPC
        # link, so the live arm's median is the restart arm's steady state.
        live, restart = migration_result.live, migration_result.restart
        assert live.remote_sessions == 0
        assert live.p50_ms == restart.p50_ms

    def test_storm_functions_only_fail_under_restart(self, migration_result):
        # Under restart moves the storm functions lose the build race
        # against the victims still on the board; live moves defer the
        # build past the drain, so every storm function comes up.
        assert migration_result.restart.storm_deploys_failed > 0
        assert migration_result.live.storm_deploys_failed == 0


def test_same_spec_same_digest(monkeypatch_module):
    """Bit-reproducibility: two identical runs, identical digests."""
    monkeypatch_module.setenv("REPRO_QUICK", "1")
    spec = MigrationSpec(timing=LoadTiming(warmup=0.5, duration=10.0))
    first = run_migration_mode("live", spec).to_golden()
    second = run_migration_mode("live", spec).to_golden()
    assert first == second
    assert first["live_migrations"] >= 1
