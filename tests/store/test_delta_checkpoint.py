"""Delta checkpoints: keyframe cadence, chain integrity and compaction.

The headline gates of the keyframe/delta chain:

* a keyframe every ``keyframe_every`` months, payload-free deltas in
  between, with the directory shrinking accordingly;
* kill-and-resume byte identity preserved — resume restores the newest
  keyframe and deterministically re-executes the delta months,
  re-writing byte-identical files;
* ``compact_checkpoints`` prunes only months that resume can
  reconstruct;
* legacy campaign-scoped chains (schema v1/v2, the committed
  ``fixtures/ckpt_prepopulation`` directory) still parse, validate,
  compact and resume through the schema migration.

Checkpointed runs here use one worker, so the chain under test is the
single shard's ``shards/shard-0000/``.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.cli import main
from repro.core.config import StudyConfig
from repro.errors import CampaignInterrupted, ConfigurationError, StorageError
from repro.io.resultstore import save_campaign
from repro.store.artifact import ArtifactStore
from repro.store.checkpoint import (
    DEFAULT_KEYFRAME_EVERY,
    checkpoint_chain_report,
    checkpoint_name,
    compact_checkpoints,
    keyframe_due,
    list_checkpoints,
)
from repro.store.legacy import load_latest_checkpoint, parse_checkpoint_doc, parse_delta_doc
from repro.store.shardstore import PARENT_LOG_NAME, shard_root
from repro.telemetry import reset_telemetry

from tests.exec.conftest import assert_campaigns_identical, worker_counts

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Small walk-enabled campaign spanning several keyframe intervals.
PARAMS = dict(
    device_count=3, months=8, measurements=60, temperature_walk_k=1.0,
    keyframe_every=3,
)
SEED = 11

with open(os.path.join(FIXTURES, "prepopulation_hashes.json")) as _handle:
    LEGACY_ARTIFACT_SHA = json.load(_handle)["artifact_sha256"]


def make_campaign(max_workers: int = 1, **overrides) -> LongTermCampaign:
    params = dict(PARAMS)
    params.update(overrides)
    return LongTermCampaign(max_workers=max_workers, random_state=SEED, **params)


def chain(checkpoint_dir) -> str:
    """The keyframe/delta chain of a one-worker run's only shard."""
    return shard_root(str(checkpoint_dir), 0)


def read_doc(directory, name: str) -> dict:
    with open(os.path.join(str(directory), name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def kinds_on_disk(directory) -> dict:
    return {
        month: read_doc(directory, name)["kind"]
        for month, name in list_checkpoints(str(directory))
    }


def remove_keyframes(directory) -> None:
    for _, name in list_checkpoints(str(directory)):
        if read_doc(directory, name)["kind"] == "keyframe":
            os.remove(os.path.join(str(directory), name))


def tree_bytes(root) -> dict:
    root = str(root)
    return {
        os.path.relpath(os.path.join(dirpath, name), root): open(
            os.path.join(dirpath, name), "rb"
        ).read()
        for dirpath, _, names in os.walk(root)
        for name in names
    }


def artifact_sha(result, path) -> str:
    save_campaign(result, str(path))
    with open(str(path), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestKeyframeCadence:
    def test_keyframes_every_k_months_deltas_between(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign(keyframe_every=2, months=5).run(checkpoint_dir=str(ckpt))
        assert kinds_on_disk(chain(ckpt)) == {
            0: "keyframe", 1: "delta", 2: "keyframe",
            3: "delta", 4: "keyframe", 5: "delta",
        }

    def test_keyframe_every_one_writes_only_keyframes(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign(keyframe_every=1, months=3).run(checkpoint_dir=str(ckpt))
        assert set(kinds_on_disk(chain(ckpt)).values()) == {"keyframe"}

    def test_directory_shrinks_at_least_3x_with_default_cadence(self, tmp_path):
        sizes = {}
        for cadence in (1, DEFAULT_KEYFRAME_EVERY):
            reset_telemetry()
            ckpt = tmp_path / f"k{cadence}"
            make_campaign(
                device_count=2, months=12, measurements=40,
                keyframe_every=cadence,
            ).run(checkpoint_dir=str(ckpt))
            sizes[cadence] = sum(
                os.path.getsize(os.path.join(chain(ckpt), name))
                for _, name in list_checkpoints(chain(ckpt))
            )
        assert sizes[1] / sizes[DEFAULT_KEYFRAME_EVERY] >= 3.0

    def test_standalone_save_without_base_is_a_keyframe(self, tmp_path):
        # A month-1 file with no month-0 beside it must be a keyframe,
        # or it could never be resumed from.
        straight = tmp_path / "straight"
        make_campaign(keyframe_every=5, months=2).run(checkpoint_dir=str(straight))
        assert read_doc(chain(straight), checkpoint_name(1))["kind"] == "delta"
        assert not keyframe_due(ArtifactStore(chain(straight)), 1, 5)
        # The same month in an empty directory flips to a keyframe.
        assert keyframe_due(ArtifactStore(str(tmp_path / "empty")), 1, 5)

    def test_invalid_keyframe_every_rejected(self):
        # One rule, applied where a campaign or study is configured: a
        # cadence that is not a positive int never reaches persistence.
        for keyframe_every in (0, -1, "6", 2.5, True):
            with pytest.raises(ConfigurationError, match="keyframe_every"):
                make_campaign(keyframe_every=keyframe_every)
            with pytest.raises(ConfigurationError, match="keyframe_every"):
                StudyConfig(keyframe_every=keyframe_every)


class TestDeltaDocuments:
    """The legacy campaign-scoped delta document (fixture month 1)."""

    def _delta_doc(self):
        return read_doc(
            os.path.join(FIXTURES, "ckpt_prepopulation"), checkpoint_name(1)
        )

    def test_parse_checkpoint_doc_rejects_deltas(self):
        with pytest.raises(StorageError, match="cannot restore a campaign by itself"):
            parse_checkpoint_doc(self._delta_doc(), source="month-0001.json")

    def test_parse_delta_doc_roundtrip(self):
        record = parse_delta_doc(self._delta_doc(), source="month-0001.json")
        assert record.completed_month == 1
        assert record.base_month == 0
        assert record.snapshot.month == 1

    def test_delta_with_wrong_base_month_rejected(self):
        doc = self._delta_doc()
        doc["base_month"] = 5
        with pytest.raises(StorageError, match="bases on month 5"):
            parse_delta_doc(doc)

    def test_delta_with_wrong_snapshot_month_rejected(self):
        doc = self._delta_doc()
        doc["snapshot"]["month"] = 2
        with pytest.raises(StorageError, match="month-2 snapshot"):
            parse_delta_doc(doc)

    def test_unknown_kind_rejected(self):
        doc = self._delta_doc()
        doc["kind"] = "mystery"
        with pytest.raises(StorageError, match="unknown kind"):
            parse_checkpoint_doc(doc)


class TestLoadLatestWithDeltas:
    def test_resume_point_is_newest_keyframe(self, legacy_dir):
        ckpt = legacy_dir()
        # Keyframes at 0, 2, 4, 6: without month 6, the month-5 delta
        # is skipped in favour of the month-4 keyframe.
        os.remove(ckpt / checkpoint_name(6))
        state = load_latest_checkpoint(str(ckpt))
        assert state.completed_month == 4
        assert state.source == checkpoint_name(4)

    def test_directory_of_only_deltas_raises(self, legacy_dir):
        ckpt = legacy_dir()
        remove_keyframes(ckpt)
        with pytest.raises(StorageError, match="no keyframe"):
            load_latest_checkpoint(str(ckpt))


class TestKillAndResumeUnderDeltas:
    def test_resume_mid_keyframe_interval_matches_straight(self, tmp_path):
        # Abort after month 4 — a delta month (K=3: keyframes 0, 3, 6)
        # — so resume must rewind to the month-3 keyframe and re-run
        # months 4.. deterministically.
        baseline = make_campaign().run()
        straight_dir = tmp_path / "straight"
        reset_telemetry()
        make_campaign().run(checkpoint_dir=str(straight_dir))
        for workers in worker_counts():
            ckpt = tmp_path / f"broken-{workers}"
            reset_telemetry()
            with pytest.raises(CampaignInterrupted):
                make_campaign().run(
                    checkpoint_dir=str(ckpt), abort_after_month=4
                )
            assert kinds_on_disk(chain(ckpt))[4] == "delta"
            reset_telemetry()
            resumed = LongTermCampaign.resume(str(ckpt), max_workers=workers)
            assert_campaigns_identical(baseline, resumed)
            # Every file — the re-executed delta months included — is
            # byte-identical to the uninterrupted run's: resume follows
            # the manifest's shard map at any worker count.
            assert tree_bytes(ckpt) == tree_bytes(straight_dir)

    def test_resume_right_after_keyframe(self, tmp_path):
        baseline = make_campaign().run()
        ckpt = tmp_path / "ckpt"
        reset_telemetry()
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(checkpoint_dir=str(ckpt), abort_after_month=3)
        assert kinds_on_disk(chain(ckpt))[3] == "keyframe"
        reset_telemetry()
        resumed = LongTermCampaign.resume(str(ckpt))
        assert_campaigns_identical(baseline, resumed)


class TestCompaction:
    def test_compact_prunes_reconstructible_months(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign().run(checkpoint_dir=str(ckpt))
        removed = compact_checkpoints(chain(ckpt), keep_keyframes=1)
        # Newest keyframe is month 6; everything before it goes.
        assert removed == [checkpoint_name(m) for m in range(6)]
        assert [m for m, _ in list_checkpoints(chain(ckpt))] == [6, 7, 8]

    def test_resume_after_compaction_matches_baseline(self, tmp_path):
        baseline = make_campaign().run()
        ckpt = tmp_path / "ckpt"
        reset_telemetry()
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(checkpoint_dir=str(ckpt), abort_after_month=7)
        compact_checkpoints(chain(ckpt))
        reset_telemetry()
        resumed = LongTermCampaign.resume(str(ckpt))
        assert_campaigns_identical(baseline, resumed)

    def test_keep_keyframes_retains_older_keyframes(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign().run(checkpoint_dir=str(ckpt))
        removed = compact_checkpoints(chain(ckpt), keep_keyframes=2)
        # Oldest kept keyframe is month 3; months 0-2 go.
        assert removed == [checkpoint_name(m) for m in range(3)]

    def test_compact_refuses_directory_without_keyframe(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign().run(checkpoint_dir=str(ckpt))
        remove_keyframes(chain(ckpt))
        with pytest.raises(StorageError, match="no parseable keyframe"):
            compact_checkpoints(chain(ckpt))

    def test_keep_keyframes_must_be_positive(self, tmp_path):
        with pytest.raises(StorageError, match="keep_keyframes"):
            compact_checkpoints(str(tmp_path), keep_keyframes=0)

    def test_compacted_legacy_directory_still_resumes(self, legacy_dir, tmp_path):
        ckpt = legacy_dir()
        removed = compact_checkpoints(str(ckpt))
        assert removed == [checkpoint_name(m) for m in range(6)]
        resumed = LongTermCampaign.resume(str(ckpt))
        assert artifact_sha(resumed, tmp_path / "a.json") == LEGACY_ARTIFACT_SHA


def drop_last_parent_record(checkpoint_dir) -> None:
    """Undo the parent's newest month record, keeping the shards' files."""
    path = os.path.join(str(checkpoint_dir), PARENT_LOG_NAME)
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "wb") as handle:
        handle.writelines(lines[:-1])


class TestLaggingParentLog:
    """A kill between a shard's chain write and the parent's month record.

    The shards then hold a month (here keyframe 3) that the parent log
    does not, so resume restarts after month 2 — restored from the
    month-0 keyframe.
    """

    def _lagging_directory(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(checkpoint_dir=str(ckpt), abort_after_month=3)
        drop_last_parent_record(ckpt)
        return ckpt

    def test_compaction_keeps_the_keyframe_resume_restores_from(
        self, tmp_path, capsys
    ):
        baseline = make_campaign().run()
        reset_telemetry()
        ckpt = self._lagging_directory(tmp_path)
        assert main(["store", "compact", str(ckpt)]) == 0
        assert [m for m, _ in list_checkpoints(chain(ckpt))] == [0, 1, 2, 3]
        reset_telemetry()
        resumed = LongTermCampaign.resume(str(ckpt))
        assert_campaigns_identical(baseline, resumed)

    def test_inspect_deep_reports_the_fleet_resume_month(self, tmp_path, capsys):
        ckpt = self._lagging_directory(tmp_path)
        assert main(["store", "inspect", str(ckpt), "--deep"]) == 0
        out = capsys.readouterr().out
        assert "resume point: keyframe month 0" in out
        assert "resume point: month 2 (fleet-wide)" in out

    def test_inspect_deep_flags_a_shard_that_cannot_restore(
        self, tmp_path, capsys
    ):
        ckpt = self._lagging_directory(tmp_path)
        for month in range(3):
            os.remove(os.path.join(chain(ckpt), checkpoint_name(month)))
        assert main(["store", "inspect", str(ckpt), "--deep"]) == 1
        out = capsys.readouterr().out
        assert "resume point: NONE\n" in out
        assert "resume point: NONE (fleet-wide)" in out
        assert "PROBLEMS FOUND" in out
        with pytest.raises(StorageError, match="no resumable sharded state"):
            LongTermCampaign.resume(str(ckpt))


class TestChainReport:
    def test_healthy_directory_reports_ok(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign().run(checkpoint_dir=str(ckpt))
        report = checkpoint_chain_report(chain(ckpt))
        assert report["ok"] is True
        assert report["resume_month"] == 6
        kinds = {e["month"]: e["kind"] for e in report["entries"]}
        assert kinds == kinds_on_disk(chain(ckpt))
        assert all(e["status"] == "ok" for e in report["entries"])

    def test_healthy_legacy_directory_reports_ok(self, legacy_dir):
        report = checkpoint_chain_report(str(legacy_dir()))
        assert report["ok"] is True
        assert report["resume_month"] == 6
        kinds = {e["month"]: e["kind"] for e in report["entries"]}
        assert kinds == {m: "keyframe" if m % 2 == 0 else "delta" for m in range(7)}

    def test_broken_chain_is_flagged(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign().run(checkpoint_dir=str(ckpt))
        os.remove(os.path.join(chain(ckpt), checkpoint_name(3)))  # month 4 bases on it
        report = checkpoint_chain_report(chain(ckpt))
        assert report["ok"] is False
        broken = {e["month"]: e for e in report["entries"]}[4]
        assert broken["status"] == "error"
        assert "broken chain" in broken["detail"]

    def test_corrupt_rng_state_is_flagged(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign(months=2).run(checkpoint_dir=str(ckpt))
        doc = read_doc(chain(ckpt), checkpoint_name(0))
        first_board = next(iter(doc["boards"]))
        doc["boards"][first_board]["rng_state"] = {"not": "a bit generator"}
        with open(os.path.join(chain(ckpt), checkpoint_name(0)), "w") as handle:
            handle.write(json.dumps(doc, sort_keys=True))
        report = checkpoint_chain_report(chain(ckpt))
        assert report["ok"] is False
        entry = {e["month"]: e for e in report["entries"]}[0]
        assert "rng_state" in entry["detail"]


    def test_non_object_file_is_flagged(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        make_campaign(months=2).run(checkpoint_dir=str(ckpt))
        with open(os.path.join(chain(ckpt), checkpoint_name(2)), "w") as handle:
            handle.write("[]")
        report = checkpoint_chain_report(chain(ckpt))
        assert report["ok"] is False
        assert report["resume_month"] == 0
        entry = {e["month"]: e for e in report["entries"]}[2]
        assert "JSON object" in entry["detail"]


class TestV1Migration:
    """Pre-delta v1 directories: cumulative keyframes, no ``kind``."""

    def _downgrade_to_v1(self, ckpt) -> None:
        """Keep the fixture's keyframes, rewritten as v1 cumulative files."""
        for _, name in list_checkpoints(str(ckpt)):
            doc = read_doc(ckpt, name)
            if doc["kind"] != "keyframe":
                os.remove(ckpt / name)
                continue
            del doc["kind"]
            doc["checkpoint_version"] = 1
            doc["config"].pop("keyframe_every", None)
            (ckpt / name).write_text(json.dumps(doc, sort_keys=True))

    def test_v1_directory_resumes_transparently(self, legacy_dir, tmp_path):
        ckpt = legacy_dir()
        self._downgrade_to_v1(ckpt)
        os.remove(ckpt / checkpoint_name(6))  # resume re-runs months 5-6
        resumed = LongTermCampaign.resume(str(ckpt))
        assert artifact_sha(resumed, tmp_path / "a.json") == LEGACY_ARTIFACT_SHA

    def test_v1_files_load_as_keyframes(self, legacy_dir):
        ckpt = legacy_dir()
        self._downgrade_to_v1(ckpt)
        state = load_latest_checkpoint(str(ckpt))
        assert state.completed_month == 6
        report = checkpoint_chain_report(str(ckpt))
        assert report["ok"] is True
