"""Legacy stream campaign artifacts: they load, and torn ones refuse to.

Nothing writes the JSON Lines stream format any more; its reader stays
so that every stream artifact on disk keeps loading.  The test data is
``fixtures/campaign_stream_v1.jsonl``, the stream artifact of
``make_campaign().run()`` as the last stream writer wrote it.  A
finalized stream loads equal to a fresh run of the same study, and a
stream whose writing run died (no end trailer) refuses to load as a
campaign result.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignInterrupted, StorageError
from repro.io.resultstore import load_campaign, save_campaign
from repro.store import ArtifactStore
from repro.store.shardstore import read_shard_stream, shard_root
from repro.store.stream import load_campaign_stream_doc
from repro.telemetry import reset_telemetry

from tests.exec.conftest import assert_campaigns_identical

PARAMS = dict(device_count=3, months=4, measurements=60, temperature_walk_k=1.0)
SEED = 5
#: sha256 of the stream artifact of ``make_campaign().run()``.
STREAM_SHA256 = "1b352f1d5ed58220bbe33d73509dd134376712072bd6b4a352df23f78955fb26"
#: That stream artifact, kept as the reader's test data.
STREAM_FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "campaign_stream_v1.jsonl"
)


def make_campaign(max_workers: int = 1, **overrides) -> LongTermCampaign:
    params = dict(PARAMS)
    params.update(overrides)
    return LongTermCampaign(max_workers=max_workers, random_state=SEED, **params)


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def copy_fixture(tmp_path, name: str = "campaign.stream.json"):
    """A writable copy of the stream fixture under ``tmp_path``."""
    path = tmp_path / name
    shutil.copyfile(STREAM_FIXTURE, path)
    return path


@pytest.fixture(scope="module")
def result():
    reset_telemetry()
    return make_campaign().run()


class TestStreamRoundtrip:
    def test_stream_bytes_are_pinned(self):
        """The fixture is the stream artifact as first recorded."""
        assert hashlib.sha256(read_bytes(STREAM_FIXTURE)).hexdigest() == STREAM_SHA256

    def test_stream_loads_equal_to_legacy_artifact(self, result):
        assert_campaigns_identical(load_campaign(STREAM_FIXTURE), result)

    def test_folded_doc_matches_legacy_document(self, result, tmp_path):
        at_once = tmp_path / "campaign.json"
        save_campaign(result, str(at_once))
        with open(at_once, "r", encoding="utf-8") as fh:
            assert load_campaign_stream_doc(STREAM_FIXTURE) == json.load(fh)


class TestLiveStreaming:
    """A checkpointed run's shard stream."""

    def test_aborted_run_leaves_a_torn_stream(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(checkpoint_dir=ckpt, abort_after_month=2)
        # The shard stream stops at month 2: no artifact can be merged
        # from it until the campaign is resumed.
        _, _, rows = read_shard_stream(shard_root(ckpt, 0))
        assert sorted(rows) == [0, 1, 2]
        with pytest.raises(StorageError, match="resume the campaign"):
            load_campaign(ckpt)


class TestTornAndMalformedStreams:
    def test_missing_end_trailer_refuses_to_load(self, tmp_path):
        path = copy_fixture(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(StorageError, match="no end trailer"):
            load_campaign_stream_doc(str(path))
        with pytest.raises(StorageError, match="torn stream"):
            load_campaign(str(path))

    def test_snapshot_count_mismatch_rejected(self, tmp_path):
        path = copy_fixture(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-2] + lines[-1:]))  # drop one snapshot
        with pytest.raises(StorageError, match="promises"):
            load_campaign_stream_doc(str(path))

    def test_empty_stream_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with pytest.raises(StorageError, match="empty campaign stream"):
            load_campaign_stream_doc(str(path))

    def test_non_header_first_record_rejected(self, tmp_path):
        path = copy_fixture(tmp_path, "odd.json")
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[1:]))  # drop the header
        with pytest.raises(StorageError, match="not a stream header"):
            load_campaign_stream_doc(str(path))


class TestInspection:
    def test_inspect_classifies_stream_artifacts(self, result, tmp_path):
        copy_fixture(tmp_path)
        report = ArtifactStore(str(tmp_path)).integrity_report()
        entry = {e["name"]: e for e in report["files"]}["campaign.stream.json"]
        assert entry["kind"] == "campaign-stream"
        assert entry["status"] == "ok"
        assert entry["detail"] == f"{len(result.snapshots)} snapshots, finalized"

    def test_inspect_flags_torn_streams(self, tmp_path):
        path = copy_fixture(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        report = ArtifactStore(str(tmp_path)).integrity_report()
        entry = {e["name"]: e for e in report["files"]}["campaign.stream.json"]
        assert entry["status"] == "error"
        assert "torn stream" in entry["detail"]
        assert report["ok"] is False
