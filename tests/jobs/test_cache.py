"""The shared cache discipline: hit / miss / stale / corrupt over the store."""

import json

from repro.jobs import load_ref_artifact, store_ref_artifact
from repro.store import RunArtifact, RunStore

SRC = "f" * 64


def _store(tmp_path):
    return RunStore(tmp_path / "store")


def _put(store, name, source_digest=SRC, kind="sweep_point"):
    artifact = RunArtifact(kind=kind, payload={"duration": 1.5})
    digest = store_ref_artifact(
        store, name, artifact, meta={"source_digest": source_digest}
    )
    return artifact, digest


def test_round_trip_is_a_hit(tmp_path):
    store = _store(tmp_path)
    artifact, digest = _put(store, "sweep/abc")
    loaded, status, loaded_digest = load_ref_artifact(
        store, "sweep/abc", SRC, kind="sweep_point"
    )
    assert status == "hit"
    assert loaded_digest == loaded.digest() == digest
    assert loaded.payload == {"duration": 1.5}


def test_store_ref_artifact_stamps_created_meta(tmp_path):
    store = _store(tmp_path)
    _put(store, "sweep/abc")
    entry = store.get_ref("sweep/abc")
    assert entry["meta"]["source_digest"] == SRC
    assert entry["meta"]["created"] > 0


def test_missing_ref_is_a_miss(tmp_path):
    assert load_ref_artifact(_store(tmp_path), "sweep/nope", SRC) == (None, "miss", None)


def test_none_source_digest_is_a_miss(tmp_path):
    store = _store(tmp_path)
    _put(store, "sweep/abc")
    assert load_ref_artifact(store, "sweep/abc", None) == (None, "miss", None)


def test_other_source_digest_is_stale(tmp_path):
    store = _store(tmp_path)
    _put(store, "sweep/abc", source_digest="0" * 64)
    assert load_ref_artifact(store, "sweep/abc", SRC) == (None, "stale", None)


def test_wrong_kind_is_corrupt(tmp_path):
    store = _store(tmp_path)
    _put(store, "sweep/abc", kind="trace")
    assert load_ref_artifact(
        store, "sweep/abc", SRC, kind="sweep_point"
    ) == (None, "corrupt", None)


def test_corrupt_object_is_never_served_and_reput_heals(tmp_path):
    store = _store(tmp_path)
    artifact, digest = _put(store, "sweep/abc")
    path = store.object_path(digest)
    doc = json.loads(path.read_text())
    doc["payload"]["duration"] = 99.0  # bytes no longer hash to the address
    path.write_text(json.dumps(doc))

    assert load_ref_artifact(store, "sweep/abc", SRC) == (None, "corrupt", None)

    # Re-putting the recomputed artifact heals the object in place.
    store_ref_artifact(store, "sweep/abc", artifact, meta={"source_digest": SRC})
    loaded, status, loaded_digest = load_ref_artifact(store, "sweep/abc", SRC)
    assert status == "hit" and loaded_digest == digest
    assert loaded.payload["duration"] == 1.5
    assert store.verify() == []


def test_deleted_object_is_a_miss(tmp_path):
    store = _store(tmp_path)
    _, digest = _put(store, "sweep/abc")
    store.object_path(digest).unlink()
    assert load_ref_artifact(store, "sweep/abc", SRC) == (None, "miss", None)
