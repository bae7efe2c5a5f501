"""Tests for Runner memoization through the atlas: miss -> hit, zero
backend dispatch on hits, and byte-identical replay."""

import sqlite3

import pytest

from repro.scenarios import AtlasStore, Runner
from repro.scenarios import atlas as atlas_module
from repro.scenarios import store as store_module
from repro.scenarios.atlas import dump_payload_text
from repro.scenarios.store import ResultStore
from repro.telemetry import Telemetry


@pytest.fixture()
def db(tmp_path):
    return tmp_path / "atlas.sqlite"


class TestMemoization:
    def test_miss_then_hit(self, db):
        with AtlasStore(db) as atlas:
            runner = Runner(atlas=atlas)
            cold = runner.run("verify-small")
            assert cold.cached_payload is None
            warm = runner.run("verify-small")
            assert warm.cached_payload is not None
            assert warm.rows == cold.rows
            assert warm.spec_hash() == cold.spec_hash()

    def test_hit_payload_is_byte_identical(self, db, tmp_path):
        with AtlasStore(db) as atlas:
            runner = Runner(atlas=atlas)
            cold = runner.run("verify-small")
            warm = runner.run("verify-small")
        store = ResultStore(tmp_path / "out")
        cold_path = store.save(cold)
        cold_bytes = cold_path.read_bytes()
        warm_path = store.save(warm)
        assert warm_path.read_bytes() == cold_bytes
        assert dump_payload_text(warm.to_payload()).encode() == cold_bytes

    def test_cold_run_and_save_encode_and_validate_once(self, db, tmp_path,
                                                        monkeypatch):
        # `scenarios run --atlas --save`: the atlas row and the results
        # file are one text, from one encode and one validation.
        calls = {"dump_payload_text": 0, "validate_payload": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (store_module, atlas_module):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
        with AtlasStore(db) as atlas:
            result = Runner(atlas=atlas).run("delays-line")
            saved = ResultStore(tmp_path / "out").save(result)
        assert calls == {"dump_payload_text": 1, "validate_payload": 1}
        conn = sqlite3.connect(str(db))
        try:
            (stored,) = conn.execute(
                "SELECT payload FROM results WHERE name=?", (result.name,)
            ).fetchone()
        finally:
            conn.close()
        text = dump_payload_text(result.to_payload())
        assert stored.encode() == saved.read_bytes() == text.encode()

    def test_path_configured_atlas_opens_once(self, db):
        runner = Runner(atlas=db)
        cold = runner.run("verify-small")
        warm = runner.run("verify-small")
        assert cold.cached_payload is None
        assert warm.cached_payload is not None

    def test_run_level_atlas_override(self, db):
        runner = Runner()
        assert runner.run("verify-small", atlas=db).cached_payload is None
        with AtlasStore(db) as atlas:
            assert runner.run("verify-small", atlas=atlas).cached_payload is not None

    def test_no_atlas_means_no_memoization(self):
        runner = Runner()
        assert runner.run("verify-small").cached_payload is None
        assert runner.run("verify-small").cached_payload is None

    def test_hit_crosses_backend_hints(self, db):
        # spec_hash excludes the backend hint (backends are
        # outcome-equivalent), so a result computed under auto serves a
        # reference-pinned rerun without dispatching anything.
        with AtlasStore(db) as atlas:
            runner = Runner(atlas=atlas)
            cold = runner.run("delays-line")
            telem = Telemetry()
            warm = runner.run("delays-line", backend="reference",
                              telemetry=telem)
            assert warm.cached_payload is not None
            assert warm.backend == cold.backend
            counters = telem.snapshot()["counters"]
            assert not any(k.startswith("backend.dispatch.") for k in counters)


class TestTelemetry:
    def test_cold_run_records_miss_and_store(self, db):
        telem = Telemetry()
        with AtlasStore(db) as atlas:
            Runner(atlas=atlas).run("verify-small", telemetry=telem)
        snap = telem.snapshot()
        assert snap["events"].get("atlas.miss") == 1
        assert snap["events"].get("atlas.store") == 1
        assert "atlas.hit" not in snap["events"]
        assert "execute" in snap["phases"]

    def test_warm_run_records_hit_and_nothing_else(self, db):
        with AtlasStore(db) as atlas:
            runner = Runner(atlas=atlas)
            runner.run("delays-line")
            telem = Telemetry()
            runner.run("delays-line", telemetry=telem)
        snap = telem.snapshot()
        assert snap["events"].get("atlas.hit") == 1
        assert "atlas.miss" not in snap["events"]
        assert "execute" not in snap["phases"]  # the backend never ran
        assert not any(
            k.startswith("backend.") or k.startswith("kernel.")
            for k in snap["counters"]
        )

    def test_cold_payload_telemetry_excludes_store_event(self, db):
        # atlas.store fires after the snapshot is taken, so the persisted
        # payload's telemetry block shows the miss but not the store —
        # the stored document describes the run, not the storing.
        telem = Telemetry()
        with AtlasStore(db) as atlas:
            result = Runner(atlas=atlas).run("verify-small", telemetry=telem)
        events = result.to_payload()["telemetry"]["events"]
        assert "atlas.miss" in events
        assert "atlas.store" not in events
