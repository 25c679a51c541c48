"""Streaming campaign artifacts: byte identity and torn-stream safety.

The format's contract: however a stream was produced — at once from a
finished result, merged back from a checkpoint directory, or saved by a
resumed run — the bytes on disk are identical, and a stream whose
writing run died (no end trailer) refuses to load as a campaign result.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignInterrupted, StorageError
from repro.io.resultstore import load_campaign, save_campaign
from repro.store import ArtifactStore
from repro.store.shardstore import (
    merge_sharded_campaign,
    read_shard_stream,
    shard_root,
)
from repro.store.stream import (
    is_stream_header,
    load_campaign_stream_doc,
    write_campaign_stream,
)
from repro.telemetry import reset_telemetry

from tests.exec.conftest import assert_campaigns_identical

PARAMS = dict(device_count=3, months=4, measurements=60, temperature_walk_k=1.0)
SEED = 5
#: sha256 of the stream artifact of ``make_campaign().run()``.
STREAM_SHA256 = "1b352f1d5ed58220bbe33d73509dd134376712072bd6b4a352df23f78955fb26"


def make_campaign(max_workers: int = 1, **overrides) -> LongTermCampaign:
    params = dict(PARAMS)
    params.update(overrides)
    return LongTermCampaign(max_workers=max_workers, random_state=SEED, **params)


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def result():
    reset_telemetry()
    return make_campaign().run()


class TestStreamRoundtrip:
    def test_stream_loads_equal_to_legacy_artifact(self, result, tmp_path):
        legacy = tmp_path / "campaign.json"
        streamed = tmp_path / "campaign.stream.json"
        save_campaign(result, str(legacy))
        write_campaign_stream(result, str(streamed))
        assert_campaigns_identical(load_campaign(str(legacy)), load_campaign(str(streamed)))

    def test_save_campaign_stream_flag_writes_the_stream_format(self, result, tmp_path):
        via_flag = tmp_path / "via_flag.json"
        via_writer = tmp_path / "via_writer.json"
        save_campaign(result, str(via_flag), stream=True)
        write_campaign_stream(result, str(via_writer))
        assert read_bytes(via_flag) == read_bytes(via_writer)
        with open(via_flag, "r", encoding="utf-8") as fh:
            assert is_stream_header(json.loads(fh.readline()))

    def test_stream_bytes_are_pinned(self, result, tmp_path):
        """The stream bytes of the small study, as first recorded.

        Every other stream test compares one writer route with another;
        this one catches a change that moves all of them together.
        """
        path = tmp_path / "campaign.stream.json"
        write_campaign_stream(result, str(path))
        assert hashlib.sha256(read_bytes(path)).hexdigest() == STREAM_SHA256

    def test_folded_doc_matches_legacy_document(self, result, tmp_path):
        legacy = tmp_path / "campaign.json"
        streamed = tmp_path / "campaign.stream.json"
        save_campaign(result, str(legacy))
        write_campaign_stream(result, str(streamed))
        with open(legacy, "r", encoding="utf-8") as fh:
            assert load_campaign_stream_doc(str(streamed)) == json.load(fh)


class TestLiveStreaming:
    """A checkpointed run's stream forms: saved, merged, resumed."""

    def test_campaign_run_streams_byte_identical_to_at_once(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        result = make_campaign().run(checkpoint_dir=ckpt)
        saved = tmp_path / "saved.json"
        save_campaign(result, str(saved), stream=True)
        merged = tmp_path / "merged.json"
        write_campaign_stream(merge_sharded_campaign(ckpt), str(merged))
        reset_telemetry()
        at_once = tmp_path / "at_once.json"
        write_campaign_stream(make_campaign().run(), str(at_once))
        assert read_bytes(saved) == read_bytes(at_once)
        assert read_bytes(merged) == read_bytes(at_once)

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

    def test_resumed_stream_bytes_match_straight_run(self, tmp_path):
        straight = tmp_path / "straight.json"
        save_campaign(
            make_campaign().run(checkpoint_dir=str(tmp_path / "ckpt-straight")),
            str(straight),
            stream=True,
        )
        ckpt = str(tmp_path / "ckpt")
        reset_telemetry()
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(checkpoint_dir=ckpt, abort_after_month=2)
        reset_telemetry()
        resumed = tmp_path / "resumed.json"
        save_campaign(LongTermCampaign.resume(ckpt), str(resumed), stream=True)
        merged = tmp_path / "merged.json"
        write_campaign_stream(load_campaign(ckpt), str(merged))
        assert read_bytes(resumed) == read_bytes(straight)
        assert read_bytes(merged) == read_bytes(straight)


class TestTornAndMalformedStreams:
    def _streamed(self, result, tmp_path):
        path = tmp_path / "campaign.stream.json"
        write_campaign_stream(result, str(path))
        return path

    def test_missing_end_trailer_refuses_to_load(self, result, tmp_path):
        path = self._streamed(result, tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(StorageError, match="no end trailer"):
            load_campaign_stream_doc(str(path))

    def test_snapshot_count_mismatch_rejected(self, result, tmp_path):
        path = self._streamed(result, tmp_path)
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
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "snapshot"}) + "\n")
        with pytest.raises(StorageError, match="not a stream header"):
            load_campaign_stream_doc(str(path))


class TestInspection:
    def test_inspect_classifies_stream_artifacts(self, result, tmp_path):
        write_campaign_stream(result, str(tmp_path / "campaign.stream.json"))
        report = ArtifactStore(str(tmp_path)).integrity_report()
        entry = {e["name"]: e for e in report["files"]}["campaign.stream.json"]
        assert entry["kind"] == "campaign-stream"
        assert entry["status"] == "ok"
        assert entry["detail"] == f"{len(result.snapshots)} snapshots, finalized"

    def test_inspect_flags_torn_streams(self, result, tmp_path):
        path = tmp_path / "campaign.stream.json"
        write_campaign_stream(result, str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        report = ArtifactStore(str(tmp_path)).integrity_report()
        entry = {e["name"]: e for e in report["files"]}["campaign.stream.json"]
        assert entry["status"] == "error"
        assert "torn stream" in entry["detail"]
        assert report["ok"] is False
