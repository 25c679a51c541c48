"""Sharded persistence: layout, merge-on-read and resume byte-identity.

The tentpole contract of :mod:`repro.store.shardstore`: a campaign
whose window workers persist per-shard streams and keyframe chains
produces — after ``merge_sharded_campaign`` — exactly the bytes the
single-writer monolithic path saves, and resumes from its shard
chains (including torn and compacted ones) byte-identically to an
uninterrupted run.  The hypothesis suite at the bottom drives shard
counts {1, 2, 3, 7} through kill-and-resume mid-keyframe-interval
with a single torn shard.
"""

from __future__ import annotations

import glob
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignInterrupted, ConfigurationError, StorageError
from repro.exec.windows import clear_window_cache
from repro.io.resultstore import load_campaign, save_campaign
from repro.sram.profiles import ATMEGA32U4
from repro.store.artifact import ArtifactStore
from repro.store.checkpoint import (
    build_shard_keyframe_doc,
    load_latest_shard_keyframe,
    parse_checkpoint_doc,
    parse_shard_checkpoint_doc,
)
from repro.store.shardstore import (
    PARENT_LOG_NAME,
    SHARD_MANIFEST_NAME,
    SHARD_STREAM_NAME,
    is_sharded_checkpoint,
    load_shard_manifest,
    merge_sharded_campaign,
    read_shard_stream,
    shard_root,
)
from repro.telemetry import reset_telemetry

from tests.exec.conftest import InlineWindowPool, assert_campaigns_identical

#: Small statistical campaign; fast enough to run many times per test.
SMALL = dict(device_count=4, months=3, measurements=80)
SEED = 11


def make_campaign(shard_store: bool = True, **overrides) -> LongTermCampaign:
    params = dict(SMALL)
    params.update(overrides)
    return LongTermCampaign(shard_store=shard_store, random_state=SEED, **params)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class TestShardedLayout:
    def test_fresh_run_writes_manifest_log_and_shard_dirs(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        make_campaign().run(
            checkpoint_dir=ckpt, executor=InlineWindowPool(2)
        )
        assert is_sharded_checkpoint(ckpt)
        assert os.path.isfile(os.path.join(ckpt, PARENT_LOG_NAME))
        manifest = load_shard_manifest(ckpt)
        assert manifest.board_ids == [0, 1, 2, 3]
        assert len(manifest.shard_boards) == 2
        for index in range(2):
            shard_dir = shard_root(ckpt, index)
            assert os.path.isfile(os.path.join(shard_dir, SHARD_STREAM_NAME))
            # chain: months 0..3, one file each
            chain = sorted(glob.glob(os.path.join(shard_dir, "month-*.json")))
            assert len(chain) == SMALL["months"] + 1
            header, references, rows = read_shard_stream(shard_dir)
            assert sorted(references) == list(manifest.shard_boards[index])
            assert sorted(rows) == list(range(SMALL["months"] + 1))
        # the monolithic chain is absent: no month files at the root
        assert glob.glob(os.path.join(ckpt, "month-*.json")) == []

    def test_shard_store_requires_checkpoint_dir(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            make_campaign().run()

    def test_fresh_sharded_run_clears_monolithic_residue(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        make_campaign(shard_store=False).run(checkpoint_dir=ckpt)
        assert glob.glob(os.path.join(ckpt, "month-*.json"))
        make_campaign().run(checkpoint_dir=ckpt, executor=InlineWindowPool(2))
        assert glob.glob(os.path.join(ckpt, "month-*.json")) == []
        assert is_sharded_checkpoint(ckpt)

    def test_fresh_monolithic_run_clears_sharded_residue(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        make_campaign().run(checkpoint_dir=ckpt, executor=InlineWindowPool(2))
        make_campaign(shard_store=False).run(checkpoint_dir=ckpt)
        assert not is_sharded_checkpoint(ckpt)
        assert not os.path.isdir(os.path.join(ckpt, "shards"))


class TestMergeOnRead:
    def test_merge_matches_monolithic_artifact_bytes(self, tmp_path):
        baseline = make_campaign(shard_store=False).run()
        reset_telemetry()
        ckpt = str(tmp_path / "ckpt")
        sharded = make_campaign().run(
            checkpoint_dir=ckpt, executor=InlineWindowPool(2)
        )
        assert_campaigns_identical(baseline, sharded)
        merged = merge_sharded_campaign(ckpt)
        assert_campaigns_identical(baseline, merged)
        save_campaign(baseline, str(tmp_path / "mono.json"))
        save_campaign(merged, str(tmp_path / "merged.json"))
        assert read_bytes(str(tmp_path / "mono.json")) == read_bytes(
            str(tmp_path / "merged.json")
        )

    def test_load_campaign_reads_sharded_directory(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        result = make_campaign().run(
            checkpoint_dir=ckpt, executor=InlineWindowPool(3)
        )
        assert_campaigns_identical(result, load_campaign(ckpt))

    def test_load_campaign_rejects_plain_directory(self, tmp_path):
        with pytest.raises(StorageError, match="without a campaign manifest"):
            load_campaign(str(tmp_path))

    def test_merge_of_incomplete_campaign_refused(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(
                checkpoint_dir=ckpt,
                executor=InlineWindowPool(2),
                abort_after_month=1,
            )
        with pytest.raises(StorageError, match="resume the campaign"):
            merge_sharded_campaign(ckpt)


class TestShardedResume:
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        baseline = make_campaign(shard_store=False).run()
        reset_telemetry()
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(
                checkpoint_dir=ckpt,
                executor=InlineWindowPool(2),
                abort_after_month=1,
            )
        clear_window_cache()  # cold path: restore from shard keyframes
        resumed = LongTermCampaign.resume(ckpt, executor=InlineWindowPool(2))
        assert_campaigns_identical(baseline, resumed)
        assert_campaigns_identical(baseline, merge_sharded_campaign(ckpt))

    def test_resume_of_complete_campaign_is_a_no_op_replay(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        result = make_campaign().run(
            checkpoint_dir=ckpt, executor=InlineWindowPool(2)
        )
        clear_window_cache()
        resumed = LongTermCampaign.resume(ckpt, executor=InlineWindowPool(2))
        assert_campaigns_identical(result, resumed)

    def test_resume_after_compaction(self, tmp_path):
        """The chain scan honours compacted chains (keyframe + tail only)."""
        from repro.store.checkpoint import compact_checkpoints

        baseline = make_campaign(shard_store=False, months=5).run()
        reset_telemetry()
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            make_campaign(months=5, keyframe_every=2).run(
                checkpoint_dir=ckpt,
                executor=InlineWindowPool(2),
                abort_after_month=3,
            )
        for index in range(2):
            removed = compact_checkpoints(shard_root(ckpt, index))
            assert removed  # months before the kept keyframe pruned
        clear_window_cache()
        resumed = LongTermCampaign.resume(ckpt, executor=InlineWindowPool(2))
        assert_campaigns_identical(baseline, resumed)


class TestShardCheckpointDocs:
    STATE = {
        "rng_state": {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}},
        "skew_b64": "AAAA",
        "age_seconds": 0.0,
        "power_up_count": 3,
    }

    def test_keyframe_doc_round_trip(self):
        doc = build_shard_keyframe_doc(2, 5, {7: self.STATE, 9: self.STATE})
        state = parse_shard_checkpoint_doc(doc, source="test")
        assert state.shard_index == 2
        assert state.completed_month == 5
        assert state.board_ids == [7, 9]

    def test_campaign_parser_rejects_shard_scope(self):
        doc = build_shard_keyframe_doc(0, 1, {0: self.STATE})
        with pytest.raises(StorageError, match="scope"):
            parse_checkpoint_doc(doc, source="test")

    def test_load_latest_shard_keyframe_honours_max_month(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for month in (0, 2, 4):
            store.write_json(
                f"month-{month:04d}.json",
                build_shard_keyframe_doc(0, month, {0: self.STATE}),
                sort_keys=True,
            )
        assert load_latest_shard_keyframe(str(tmp_path)).completed_month == 4
        assert (
            load_latest_shard_keyframe(str(tmp_path), max_month=3).completed_month
            == 2
        )


class TestShardIntegrity:
    def test_integrity_report_rolls_up_per_shard(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        make_campaign().run(checkpoint_dir=ckpt, executor=InlineWindowPool(2))
        store = ArtifactStore(ckpt, create=False)
        report = store.integrity_report()
        assert report["ok"]
        shard_dirs = [entry["dir"] for entry in report["shards"]]
        assert shard_dirs == [
            os.path.join("shards", "shard-0000"),
            os.path.join("shards", "shard-0001"),
        ]
        assert all(entry["ok"] for entry in report["shards"])
        kinds = {entry["kind"] for entry in report["files"]}
        assert "shard-stream" in kinds and "shard-manifest" in kinds

    def test_stray_tmp_in_shard_dir_flagged_and_swept(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        make_campaign().run(checkpoint_dir=ckpt, executor=InlineWindowPool(2))
        stray = os.path.join(shard_root(ckpt, 1), "month-0009.json.tmp")
        with open(stray, "w", encoding="utf-8") as handle:
            handle.write("{")
        store = ArtifactStore(ckpt, create=False)
        report = store.integrity_report()
        assert not report["ok"]
        flagged = {entry["dir"]: entry for entry in report["shards"]}
        assert not flagged[os.path.join("shards", "shard-0001")]["ok"]
        assert flagged[os.path.join("shards", "shard-0000")]["ok"]
        removed = store.clean_stray_tmp_files()
        assert removed == [
            os.path.join("shards", "shard-0001", "month-0009.json.tmp")
        ]
        assert store.integrity_report()["ok"]


def _tear_shard(checkpoint_dir: str, shard_index: int) -> None:
    """Simulate a crash inside one shard: torn stream + lost chain tail."""
    shard_dir = shard_root(checkpoint_dir, shard_index)
    stream = os.path.join(shard_dir, SHARD_STREAM_NAME)
    payload = read_bytes(stream)
    with open(stream, "wb") as handle:
        handle.write(payload[: max(0, len(payload) - 25)])
    chain = sorted(glob.glob(os.path.join(shard_dir, "month-*.json")))
    if len(chain) > 1:
        os.remove(chain[-1])


#: One randomized sharding scenario for the property suite.
shard_scenarios = st.fixed_dictionaries(
    {
        "workers": st.sampled_from((1, 2, 3, 7)),
        "boards": st.integers(6, 8),
        "months": st.integers(4, 6),
        "keyframe_every": st.sampled_from((2, 3)),
        "abort_after": st.integers(1, 3),
        "torn_shard": st.integers(0, 6),
        "seed": st.integers(0, 2**32 - 1),
    }
)

#: Tiny device so each drawn campaign takes milliseconds, not seconds.
PROP_PROFILE = ATMEGA32U4.with_overrides(
    name="atmega32u4-shardprop", sram_bytes=16, read_bytes=8
)


class TestShardStoreProperties:
    @settings(max_examples=10, deadline=None)
    @given(shard_scenarios)
    def test_merge_and_torn_resume_byte_identity(self, cfg):
        """Sharded-run, merged and torn-resumed artifacts are one artifact.

        Every drawn scenario runs the study three ways — monolithic
        baseline, sharded straight through, sharded killed
        mid-keyframe-interval with one shard additionally torn and then
        resumed — and demands the exact same campaign result (and
        stream contents via merge) from all of them.
        """
        params = dict(
            device_count=cfg["boards"],
            months=cfg["months"],
            measurements=30,
            profile=PROP_PROFILE,
            keyframe_every=cfg["keyframe_every"],
        )
        reset_telemetry()
        clear_window_cache()
        baseline = LongTermCampaign(random_state=cfg["seed"], **params).run()
        with tempfile.TemporaryDirectory(prefix="shardprop-") as workdir:
            pool = InlineWindowPool(cfg["workers"])
            straight_dir = os.path.join(workdir, "straight")
            reset_telemetry()
            straight = LongTermCampaign(
                random_state=cfg["seed"], shard_store=True, **params
            ).run(checkpoint_dir=straight_dir, executor=pool)
            assert_campaigns_identical(baseline, straight)
            assert_campaigns_identical(
                baseline, merge_sharded_campaign(straight_dir)
            )

            resumed_dir = os.path.join(workdir, "resumed")
            reset_telemetry()
            with pytest.raises(CampaignInterrupted):
                LongTermCampaign(
                    random_state=cfg["seed"], shard_store=True, **params
                ).run(
                    checkpoint_dir=resumed_dir,
                    executor=pool,
                    abort_after_month=cfg["abort_after"],
                )
            shard_count = len(load_shard_manifest(resumed_dir).shard_boards)
            _tear_shard(resumed_dir, cfg["torn_shard"] % shard_count)
            clear_window_cache()  # a real crash loses the workers' resident slots
            reset_telemetry()
            resumed = LongTermCampaign.resume(resumed_dir, executor=pool)
            assert_campaigns_identical(baseline, resumed)
            assert_campaigns_identical(
                baseline, merge_sharded_campaign(resumed_dir)
            )
            # The re-executed chains and streams hold the same bytes as
            # the never-interrupted sharded run's.
            for index in range(shard_count):
                left = shard_root(straight_dir, index)
                right = shard_root(resumed_dir, index)
                assert read_bytes(
                    os.path.join(left, SHARD_STREAM_NAME)
                ) == read_bytes(os.path.join(right, SHARD_STREAM_NAME))
