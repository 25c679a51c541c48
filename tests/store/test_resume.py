"""Kill-and-resume equivalence: the checkpoint layer's headline gate.

Every test here demands *byte* identity, not statistical closeness:
a campaign interrupted after any month and resumed — in the serial
path or under the sharded executor at any worker count — must produce
the same CampaignResult, the same saved artifact, the same alert log
and the same telemetry snapshot as the run that was never interrupted.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignInterrupted, ConfigurationError, StorageError
from repro.io.resultstore import load_campaign, save_campaign
from repro.monitor.defaults import default_ruleset
from repro.monitor.hub import MonitorHub
from repro.store.artifact import ArtifactStore
from repro.store.checkpoint import list_checkpoints
from repro.store.shardstore import read_parent_log, shard_root
from repro.telemetry import get_metrics, reset_telemetry

from tests.exec.conftest import assert_campaigns_identical, worker_counts

#: Small statistical campaign with the temperature walk exercised.
SMALL = dict(device_count=4, months=3, measurements=120, temperature_walk_k=1.5)
SEED = 7

#: The accelerated fleet that deterministically trips one alert.
MONITORED = dict(device_count=16, months=6, measurements=150, aging_acceleration=14.0)
MONITOR_SEED = 0


def make_campaign(max_workers: int = 1, **overrides) -> LongTermCampaign:
    params = dict(SMALL)
    params.update(overrides)
    return LongTermCampaign(max_workers=max_workers, random_state=SEED, **params)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def chain_months(checkpoint_dir) -> list:
    """Months of a one-worker run's shard chain, ascending."""
    return [month for month, _ in list_checkpoints(shard_root(str(checkpoint_dir), 0))]


def tree_bytes(root) -> dict:
    root = str(root)
    return {
        os.path.relpath(os.path.join(dirpath, name), root): read_bytes(
            os.path.join(dirpath, name)
        )
        for dirpath, _, names in os.walk(root)
        for name in names
    }


class TestCheckpointedRun:
    def test_fresh_checkpointed_run_matches_plain_run(self, tmp_path):
        baseline = make_campaign().run()
        baseline_metrics = get_metrics().snapshot()
        reset_telemetry()
        checkpointed = make_campaign().run(checkpoint_dir=str(tmp_path / "ckpt"))
        assert_campaigns_identical(baseline, checkpointed)
        assert get_metrics().snapshot() == baseline_metrics

    def test_writes_one_checkpoint_per_snapshot(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        make_campaign().run(checkpoint_dir=str(checkpoint_dir))
        months = list(range(SMALL["months"] + 1))
        assert chain_months(checkpoint_dir) == months
        assert [record["month"] for record in read_parent_log(str(checkpoint_dir))] == months

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        make_campaign(months=5).run(checkpoint_dir=str(checkpoint_dir))
        reset_telemetry()
        make_campaign().run(checkpoint_dir=str(checkpoint_dir))
        assert chain_months(checkpoint_dir) == list(range(SMALL["months"] + 1))

    def test_abort_raises_campaign_interrupted(self, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted) as excinfo:
            make_campaign().run(checkpoint_dir=checkpoint_dir, abort_after_month=1)
        assert excinfo.value.month == 1
        assert excinfo.value.checkpoint_dir == checkpoint_dir
        # Months 0 and 1 were checkpointed before the interrupt fired.
        assert chain_months(checkpoint_dir) == [0, 1]
        assert len(read_parent_log(checkpoint_dir)) == 2

    def test_abort_requires_checkpoint_dir(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            make_campaign().run(abort_after_month=1)

    def test_checkpoint_dir_incompatible_with_prebuilt_chips(self):
        from repro.sram.chip import SRAMChip

        chips = [SRAMChip(i, random_state=1) for i in range(SMALL["device_count"])]
        with pytest.raises(ConfigurationError):
            make_campaign().run(chips=chips, checkpoint_dir="/tmp/nope")


class TestKillAndResume:
    def test_resume_matches_uninterrupted_at_every_worker_count(self, tmp_path):
        baseline = make_campaign().run()
        baseline_metrics = get_metrics().snapshot()
        for workers in worker_counts():
            reset_telemetry()
            checkpoint_dir = str(tmp_path / f"ckpt-w{workers}")
            with pytest.raises(CampaignInterrupted):
                make_campaign(max_workers=workers).run(
                    checkpoint_dir=checkpoint_dir, abort_after_month=1
                )
            reset_telemetry()
            resumed = LongTermCampaign.resume(checkpoint_dir, max_workers=workers)
            assert_campaigns_identical(baseline, resumed)
            assert get_metrics().snapshot() == baseline_metrics, f"workers={workers}"

    def test_saved_artifacts_byte_identical_after_resume(self, tmp_path):
        baseline = make_campaign().run()
        straight = str(tmp_path / "straight.json")
        save_campaign(baseline, straight)

        reset_telemetry()
        checkpoint_dir = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(checkpoint_dir=checkpoint_dir, abort_after_month=0)
        reset_telemetry()
        resumed_path = str(tmp_path / "resumed.json")
        save_campaign(LongTermCampaign.resume(checkpoint_dir), resumed_path)
        assert read_bytes(straight) == read_bytes(resumed_path)

    def test_checkpoint_tree_is_deterministic_at_every_worker_count(self, tmp_path):
        """Same worker count, same tree; the merged artifact never moves.

        The tree holds one shard per worker, so it differs between
        worker counts — the artifact merged back from it does not.
        """
        merged = set()
        for workers in worker_counts():
            trees = []
            for attempt in range(2):
                reset_telemetry()
                checkpoint_dir = tmp_path / f"ckpt-w{workers}-{attempt}"
                make_campaign(max_workers=workers).run(
                    checkpoint_dir=str(checkpoint_dir)
                )
                trees.append(tree_bytes(checkpoint_dir))
            assert trees[0], "run produced no checkpoint files"
            assert trees[0] == trees[1], f"workers={workers}"
            artifact = str(tmp_path / f"merged-w{workers}.json")
            save_campaign(load_campaign(str(checkpoint_dir)), artifact)
            merged.add(read_bytes(artifact))
        assert len(merged) == 1

    def test_resumed_checkpoints_byte_identical_to_straight_run(self, tmp_path):
        straight_dir = tmp_path / "straight"
        make_campaign().run(checkpoint_dir=str(straight_dir))
        reset_telemetry()
        resumed_dir = tmp_path / "resumed"
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(checkpoint_dir=str(resumed_dir), abort_after_month=1)
        reset_telemetry()
        LongTermCampaign.resume(str(resumed_dir))
        assert tree_bytes(resumed_dir) == tree_bytes(straight_dir)

    def test_resume_falls_back_past_truncated_checkpoint(self, tmp_path):
        """A kill *during* the checkpoint write resumes one month back."""
        baseline = make_campaign().run()
        reset_telemetry()
        checkpoint_dir = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(checkpoint_dir=checkpoint_dir, abort_after_month=2)
        store = ArtifactStore(shard_root(checkpoint_dir, 0))
        torn = store.read_bytes("month-0002.json")[:128]
        with open(store.path("month-0002.json"), "wb") as handle:
            handle.write(torn)

        reset_telemetry()
        resumed = LongTermCampaign.resume(checkpoint_dir)
        assert_campaigns_identical(baseline, resumed)

    def test_resume_with_no_usable_checkpoint_raises(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        checkpoint_dir.mkdir()
        (checkpoint_dir / "month-0000.json").write_text("{torn")
        with pytest.raises(StorageError, match="no usable checkpoint"):
            LongTermCampaign.resume(str(checkpoint_dir))

    def test_resume_missing_dir_raises(self, tmp_path):
        with pytest.raises(StorageError):
            LongTermCampaign.resume(str(tmp_path / "never-created"))


class TestMonitoredResume:
    def _campaign(self, max_workers: int = 1) -> LongTermCampaign:
        return LongTermCampaign(
            max_workers=max_workers, random_state=MONITOR_SEED, **MONITORED
        )

    def test_alert_log_and_artifact_byte_identical(self, tmp_path):
        """Serial kill at month 2, resume under the sharded executor."""
        straight_log = str(tmp_path / "straight.alerts.jsonl")
        hub = MonitorHub(default_ruleset(), alert_log=straight_log)
        result = self._campaign().run(monitor=hub)
        assert hub.alert_count > 0, "scenario must actually alert"
        straight_metrics = get_metrics().snapshot()
        straight_artifact = str(tmp_path / "straight.json")
        save_campaign(result, straight_artifact, alerts=hub.alerts)

        reset_telemetry()
        resumed_log = str(tmp_path / "resumed.alerts.jsonl")
        checkpoint_dir = str(tmp_path / "ckpt")
        hub = MonitorHub(default_ruleset(), alert_log=resumed_log)
        with pytest.raises(CampaignInterrupted):
            self._campaign().run(
                monitor=hub, checkpoint_dir=checkpoint_dir, abort_after_month=2
            )

        reset_telemetry()
        hub = MonitorHub(default_ruleset(), alert_log=resumed_log)
        resumed = LongTermCampaign.resume(
            checkpoint_dir, monitor=hub, max_workers=2
        )
        resumed_artifact = str(tmp_path / "resumed.json")
        save_campaign(resumed, resumed_artifact, alerts=hub.alerts)

        assert read_bytes(resumed_log) == read_bytes(straight_log)
        assert read_bytes(resumed_artifact) == read_bytes(straight_artifact)
        assert get_metrics().snapshot() == straight_metrics


class TestAssessmentResume:
    def test_assessment_api_roundtrip(self, tmp_path):
        from repro.core.assessment import LongTermAssessment
        from repro.core.config import StudyConfig

        config = StudyConfig(
            device_count=3, months=2, measurements=80, seed=SEED
        )
        baseline = LongTermAssessment(config).run()
        reset_telemetry()
        checkpoint_dir = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            LongTermAssessment(config).run(
                checkpoint_dir=checkpoint_dir, abort_after_month=0
            )
        reset_telemetry()
        resumed = LongTermAssessment(config).run(
            checkpoint_dir=checkpoint_dir, resume=True
        )
        assert_campaigns_identical(baseline.campaign, resumed.campaign)
        assert resumed.table.summaries.keys() == baseline.table.summaries.keys()

    def test_resume_without_checkpoint_dir_rejected(self):
        from repro.core.assessment import LongTermAssessment
        from repro.core.config import StudyConfig

        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            LongTermAssessment(StudyConfig(device_count=2, months=1)).run(resume=True)
