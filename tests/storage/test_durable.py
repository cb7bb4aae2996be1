"""DurableStore: WAL + snapshot durability, crash windows, versioning."""

import json

import pytest

from repro.errors import StorageError
from repro.oem.serialize import database_to_json
from repro.storage import DurableStore, StorageLayout
from repro.storage.durable import current_store_version
from repro.workloads import figure3_database


def canonical(db) -> str:
    return json.dumps(database_to_json(db, sort_oids=True), sort_keys=True)


@pytest.fixture
def root(tmp_path):
    return tmp_path / "repo"


class TestLifecycle:
    def test_ingest_close_open_round_trip(self, root):
        store = DurableStore.create(root, "db")
        records = store.ingest(figure3_database())
        assert records > 0
        assert store.version == records
        store.close()
        reopened = DurableStore.open(root)
        assert canonical(reopened.db) == canonical(figure3_database())
        assert reopened.version == records
        reopened.close()

    def test_version_stable_across_compact_and_reopen(self, root):
        store = DurableStore.create(root, "db")
        store.ingest(figure3_database())
        version = store.version
        store.compact()
        store.close()
        assert not StorageLayout(root).wal.exists()
        reopened = DurableStore.open(root)
        assert reopened.version == version
        assert canonical(reopened.db) == canonical(figure3_database())
        reopened.close()

    def test_mutations_after_reopen_append_to_wal(self, root):
        store = DurableStore.create(root, "db")
        store.ingest(figure3_database())
        store.compact()
        store.close()
        reopened = DurableStore.open(root)
        reopened.add_root(reopened.add_atomic("extra", "noise", 1))
        version = reopened.version
        reopened.close()
        again = DurableStore.open(root)
        assert again.version == version
        assert canonical(again.db) == canonical(reopened.db)
        again.close()

    def test_create_refuses_initialized_root_without_force(self, root):
        DurableStore.create(root, "db").close()
        with pytest.raises(StorageError):
            DurableStore.create(root, "db")
        DurableStore.create(root, "db", force=True).close()

    def test_open_requires_manifest(self, root):
        with pytest.raises(StorageError):
            DurableStore.open(root)

    def test_context_manager_flushes(self, root):
        with DurableStore.create(root, "db") as store:
            store.ingest(figure3_database())
            version = store.version
        assert DurableStore.open(root).version == version


class TestCrashWindows:
    def test_torn_final_wal_record_is_dropped(self, root):
        store = DurableStore.create(root, "db")
        store.ingest(figure3_database())
        version = store.version
        store.close()
        wal = StorageLayout(root).wal
        with open(wal, "a", encoding="utf-8") as handle:
            handle.write('{"op": "atomic", "oid": {"c"')  # torn append
        reopened = DurableStore.open(root)
        assert reopened.version == version
        reopened.close()

    def test_torn_middle_wal_record_raises(self, root):
        store = DurableStore.create(root, "db")
        store.ingest(figure3_database())
        store.close()
        wal = StorageLayout(root).wal
        lines = wal.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"op": "atomic", "oid"\n'
        wal.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(StorageError):
            DurableStore.open(root)

    def test_replay_onto_snapshot_already_containing_records(self, root):
        # The compact() crash window: snapshot written, WAL not yet
        # truncated.  Replay re-applies records the snapshot already
        # holds; every add_* is idempotent, so the image converges.
        store = DurableStore.create(root, "db")
        store.ingest(figure3_database())
        version = store.version
        store.close()
        layout = StorageLayout(root)
        wal_bytes = layout.wal.read_bytes()
        reopened = DurableStore.open(root)
        reopened.compact()
        reopened.close()
        layout.wal.write_bytes(wal_bytes)  # simulate the crash window
        converged = DurableStore.open(root)
        assert canonical(converged.db) == canonical(figure3_database())
        converged.close()

    def test_snapshot_for_wrong_database_name_refused(self, root):
        store = DurableStore.create(root, "db")
        store.ingest(figure3_database())
        store.compact()
        store.close()
        layout = StorageLayout(root)
        manifest = json.loads(layout.manifest.read_text())
        manifest["name"] = "other"
        layout.manifest.write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            DurableStore.open(root)


class TestKnobs:
    def test_autocompact_bounds_the_wal(self, root):
        store = DurableStore.create(root, "db", autocompact_ops=5)
        store.ingest(figure3_database())
        assert store.wal_records < 5
        assert StorageLayout(root).snapshot.exists()
        store.close()

    def test_autocompact_keeps_the_triggering_record(self, root):
        # The record that trips autocompaction must be in the snapshot:
        # compaction deletes the log it was appended to.
        store = DurableStore.create(root, autocompact_ops=3)
        for index in range(3):
            store.add_atomic(f"a{index}", "n", index)
        store.flush()
        assert store.wal_records == 0
        version = store.version
        store.close()
        reopened = DurableStore.open(root)
        assert reopened.version == version == 3
        for index in range(3):
            assert reopened.db.atomic_value(f"a{index}") == index
        assert canonical(reopened.db) == canonical(store.db)

    def test_autocompacted_ingest_survives_reopen(self, root):
        store = DurableStore.create(root, "db", autocompact_ops=5)
        store.ingest(figure3_database())
        store.close()
        reopened = DurableStore.open(root)
        assert canonical(reopened.db) == canonical(figure3_database())
        assert reopened.version == store.version

    def test_current_store_version_matches_open(self, root):
        layout = StorageLayout(root)
        store = DurableStore.create(root, "db")
        assert current_store_version(layout) == 0
        store.ingest(figure3_database())
        store.close()
        assert current_store_version(layout) \
            == DurableStore.open(root).version

    def test_stats_are_deterministic(self, root):
        store = DurableStore.create(root, "db")
        store.ingest(figure3_database())
        first = store.stats()
        assert first == store.stats()
        assert first["objects"] == 7
        assert first["wal_records"] == store.wal_records
        store.close()
