"""Tests for checkpoint documents, the checkpointer and delta recording.

Legacy (campaign-scoped) directories come from the committed fixtures
under ``fixtures/``: nothing writes that layout any more.
"""

import os

import numpy as np
import pytest

from repro.errors import StorageError
from repro.sram.chip import SRAMChip
from repro.sram.profiles import ATMEGA32U4
from repro.store.artifact import ArtifactStore
from repro.store.checkpoint import (
    CampaignCheckpointer,
    CounterDeltaRecorder,
    board_state_doc,
    checkpoint_name,
    fold_counter_deltas,
    list_checkpoints,
    restore_chip,
)
from repro.store.legacy import load_latest_checkpoint
from repro.store.shardstore import (
    is_sharded_checkpoint,
    load_shard_manifest,
    read_parent_log,
)
from repro.telemetry import get_metrics


class TestCheckpointName:
    def test_zero_padded(self):
        assert checkpoint_name(0) == "month-0000.json"
        assert checkpoint_name(23) == "month-0023.json"

    def test_range_enforced(self):
        with pytest.raises(StorageError):
            checkpoint_name(-1)
        with pytest.raises(StorageError):
            checkpoint_name(10000)


class TestBoardState:
    def test_restored_chip_draws_identically(self):
        chip = SRAMChip(3, ATMEGA32U4, random_state=11)
        chip.read_startup(count=5)  # advance off the fresh state
        doc = board_state_doc(chip)
        expected = chip.read_startup(count=4)

        clone = restore_chip(3, ATMEGA32U4, doc)
        np.testing.assert_array_equal(clone.read_startup(count=4), expected)

    def test_state_doc_is_json_native(self):
        import json

        chip = SRAMChip(0, ATMEGA32U4, random_state=1)
        doc = json.loads(json.dumps(board_state_doc(chip)))
        clone = restore_chip(0, ATMEGA32U4, doc)
        np.testing.assert_array_equal(
            clone.read_startup(count=2), chip.read_startup(count=2)
        )

    def test_missing_field_raises(self):
        chip = SRAMChip(0, ATMEGA32U4, random_state=1)
        doc = board_state_doc(chip)
        del doc["skew_b64"]
        with pytest.raises(StorageError, match="missing field"):
            restore_chip(0, ATMEGA32U4, doc)


class TestCounterDeltaRecorder:
    def test_records_deltas_since_baseline(self):
        metrics = get_metrics()
        metrics.counter("campaign.powerups").inc(5)
        recorder = CounterDeltaRecorder(metrics)
        metrics.counter("campaign.powerups").inc(3)
        assert recorder.take() == {"campaign.powerups": 3}

    def test_zero_deltas_omitted(self):
        metrics = get_metrics()
        metrics.counter("campaign.powerups").inc()
        recorder = CounterDeltaRecorder(metrics)
        assert recorder.take() == {}

    def test_monitor_counters_excluded(self):
        metrics = get_metrics()
        recorder = CounterDeltaRecorder(metrics)
        metrics.counter("monitor.alerts").inc(4)
        metrics.counter("campaign.powerups").inc(1)
        assert recorder.take() == {"campaign.powerups": 1}

    def test_take_advances_baseline(self):
        metrics = get_metrics()
        recorder = CounterDeltaRecorder(metrics)
        metrics.counter("c").inc(2)
        assert recorder.take() == {"c": 2}
        assert recorder.take() == {}

    def test_fold_reapplies_deltas(self):
        metrics = get_metrics()
        fold_counter_deltas(metrics, {"campaign.powerups": 7, "campaign.aging": 2})
        assert metrics.counter("campaign.powerups").value == 7
        assert metrics.counter("campaign.aging").value == 2


def _checkpointer(checkpoint_dir):
    return CampaignCheckpointer(
        checkpoint_dir,
        {"root_seed": 1, "months": 3, "keyframe_every": 2},
        ATMEGA32U4.name,
        [(0, 1), (2,)],
    )


def _keep_only(checkpoint_dir, months):
    """Delete every legacy month file whose month is not in ``months``."""
    for month, name in list_checkpoints(str(checkpoint_dir)):
        if month not in months:
            os.remove(os.path.join(str(checkpoint_dir), name))


class TestCheckpointerRoundtrip:
    def test_save_then_load(self, tmp_path):
        """reset writes the manifest; every save appends one month record."""
        checkpoint_dir = str(tmp_path / "ckpt")
        checkpointer = _checkpointer(checkpoint_dir)
        checkpointer.reset()
        for month in range(2):
            checkpointer.save(
                month,
                temperature=298.15,
                temp_rng_state=None,
                counter_delta={"campaign.powerups": 20},
                pending_deltas={"campaign.aging_steps": 2},
            )
        manifest = load_shard_manifest(checkpoint_dir)
        assert manifest.config["months"] == 3
        assert manifest.keyframe_every == 2
        assert manifest.shard_boards == ((0, 1), (2,))
        records = read_parent_log(checkpoint_dir)
        assert [record["month"] for record in records] == [0, 1]
        assert records[-1]["counter_delta"] == {"campaign.powerups": 20}
        assert records[-1]["pending_deltas"] == {"campaign.aging_steps": 2}

    def test_legacy_keyframe_loads(self, legacy_dir):
        state = load_latest_checkpoint(str(legacy_dir()))
        assert state.completed_month == 6
        assert state.config["months"] == 6
        assert sorted(state.references) == list(range(16))
        assert sorted(state.boards) == list(range(16))
        assert len(state.snapshots) == 7
        assert state.source == "month-0006.json"

    def test_list_checkpoints_ascending(self, legacy_dir):
        months = [month for month, _ in list_checkpoints(str(legacy_dir()))]
        assert months == list(range(7))

    def test_reset_removes_checkpoints(self, legacy_dir):
        """A fresh run's reset leaves no month of a previous run behind."""
        checkpoint_dir = str(legacy_dir())
        _checkpointer(checkpoint_dir).reset()
        assert list_checkpoints(checkpoint_dir) == []
        assert is_sharded_checkpoint(checkpoint_dir)
        assert read_parent_log(checkpoint_dir) == []

    def test_empty_dir_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StorageError, match="no checkpoints"):
            load_latest_checkpoint(str(tmp_path / "empty"))


class TestTruncatedCheckpointFallback:
    """A torn newest legacy keyframe falls back to the previous one."""

    def test_truncated_newest_falls_back_to_previous(self, legacy_dir, caplog):
        checkpoint_dir = legacy_dir()
        store = ArtifactStore(str(checkpoint_dir))
        # The residue of a kill mid-write of month 6: half a document.
        complete = store.read_text("month-0006.json")
        with open(store.path("month-0006.json"), "w") as handle:
            handle.write(complete[: len(complete) // 2])

        import logging

        with caplog.at_level(logging.WARNING, logger="repro.store.legacy"):
            state = load_latest_checkpoint(str(checkpoint_dir))
        # Month 5 is a delta, so the previous keyframe is month 4.
        assert state.completed_month == 4
        assert any("month-0006.json" in record.message for record in caplog.records)

    def test_all_corrupt_raises_with_clear_error(self, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        store = ArtifactStore(checkpoint_dir)
        store.write_text("month-0000.json", "{torn")
        with pytest.raises(StorageError, match="no usable checkpoint"):
            load_latest_checkpoint(checkpoint_dir)

    def test_filename_month_mismatch_skipped(self, legacy_dir):
        checkpoint_dir = legacy_dir()
        _keep_only(checkpoint_dir, {0})
        store = ArtifactStore(str(checkpoint_dir))
        doc = store.read_json("month-0000.json")
        store.write_json("month-0005.json", doc, sort_keys=True)  # lies about month
        state = load_latest_checkpoint(str(checkpoint_dir))
        assert state.completed_month == 0
        assert state.source == "month-0000.json"

    def test_incomplete_snapshot_list_rejected(self, legacy_dir):
        checkpoint_dir = legacy_dir()
        _keep_only(checkpoint_dir, {0})
        store = ArtifactStore(str(checkpoint_dir))
        doc = store.read_json("month-0000.json")
        doc["snapshots"] = []
        store.write_json("month-0000.json", doc, sort_keys=True)
        with pytest.raises(StorageError, match="expected 1"):
            load_latest_checkpoint(str(checkpoint_dir))
