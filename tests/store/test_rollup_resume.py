"""Kill-and-resume byte identity with hierarchical rollups enabled.

The rollup layer rides the monitored checkpoint pipeline: summaries
are rebuilt during replay from the stored per-board results rather
than restored from counter deltas (``rollup.*`` counters are excluded
from checkpoints, like ``monitor.*``).  These tests prove the split is
airtight — a killed-and-resumed monitored campaign with rollups and
hierarchical rules on produces byte-identical artifacts, alert logs,
rollup documents and metric snapshots to the uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignInterrupted
from repro.io.resultstore import save_campaign
from repro.monitor.defaults import default_ruleset, hierarchical_ruleset
from repro.monitor.hub import MonitorHub
from repro.store.checkpoint import EXCLUDED_COUNTER_PREFIXES
from repro.telemetry import get_metrics, get_rollups, reset_telemetry

from tests.exec.conftest import assert_campaigns_identical

#: Small monitored campaign; 2 rollup shards over 4 boards.
CONFIG = dict(
    device_count=4,
    months=3,
    measurements=120,
    temperature_walk_k=1.5,
    rollup_shards=2,
)
SEED = 7


def make_campaign(max_workers: int = 1) -> LongTermCampaign:
    return LongTermCampaign(max_workers=max_workers, random_state=SEED, **CONFIG)


def make_hub(log_path: str) -> MonitorHub:
    return MonitorHub(
        default_ruleset() + hierarchical_ruleset(), alert_log=log_path
    )


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def rollup_docs() -> dict:
    rollups = get_rollups()
    return {
        name: rollups.get(name).to_doc()
        for name in rollups.names()
        if not name.startswith("rollup.worker")
    }


def metric_snapshot() -> dict:
    return {
        name: doc
        for name, doc in get_metrics().snapshot().items()
        if not name.startswith("rollup.worker")
    }


class TestRollupResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_and_resume_is_byte_identical(self, tmp_path, workers):
        straight_log = str(tmp_path / "straight.alerts.jsonl")
        baseline = make_campaign().run(monitor=make_hub(straight_log))
        baseline_docs = rollup_docs()
        baseline_metrics = metric_snapshot()
        straight_path = str(tmp_path / "straight.json")
        save_campaign(baseline, straight_path)

        reset_telemetry()
        checkpoint_dir = str(tmp_path / f"ckpt-w{workers}")
        killed_log = str(tmp_path / f"killed-w{workers}.alerts.jsonl")
        with pytest.raises(CampaignInterrupted):
            make_campaign(max_workers=workers).run(
                monitor=make_hub(killed_log),
                checkpoint_dir=checkpoint_dir,
                abort_after_month=1,
            )

        reset_telemetry()
        resumed_log = str(tmp_path / f"resumed-w{workers}.alerts.jsonl")
        resumed = LongTermCampaign.resume(
            checkpoint_dir,
            monitor=make_hub(resumed_log),
            max_workers=workers,
        )
        assert_campaigns_identical(baseline, resumed)
        assert rollup_docs() == baseline_docs, "rollup rebuild diverged"
        assert metric_snapshot() == baseline_metrics

        resumed_path = str(tmp_path / f"resumed-w{workers}.json")
        save_campaign(resumed, resumed_path)
        assert read_bytes(straight_path) == read_bytes(resumed_path)
        assert read_bytes(straight_log) == read_bytes(resumed_log)

    def test_rollup_counters_stay_out_of_checkpoints(self, tmp_path):
        assert "rollup." in EXCLUDED_COUNTER_PREFIXES
        assert "monitor." in EXCLUDED_COUNTER_PREFIXES
        checkpoint_dir = str(tmp_path / "ckpt")
        make_campaign().run(
            monitor=make_hub(str(tmp_path / "alerts.jsonl")),
            checkpoint_dir=checkpoint_dir,
        )
        from repro.store.shardstore import read_parent_log

        records = read_parent_log(checkpoint_dir)
        assert len(records) == CONFIG["months"] + 1
        assert all(record["counter_delta"] for record in records)
        for record in records:
            for deltas in (record["counter_delta"], record["pending_deltas"]):
                for name in deltas:
                    assert not name.startswith("rollup."), name
                    assert not name.startswith("monitor."), name

    def test_labeled_powerups_survive_resume(self, tmp_path):
        """Per-shard labeled counters restore exactly from deltas."""
        make_campaign().run(monitor=make_hub(str(tmp_path / "a.jsonl")))
        baseline = {
            name: doc
            for name, doc in get_metrics().snapshot().items()
            if name.startswith("campaign.powerups{")
        }
        assert baseline, "expected labeled per-shard powerup counters"

        reset_telemetry()
        checkpoint_dir = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            make_campaign().run(
                monitor=make_hub(str(tmp_path / "b.jsonl")),
                checkpoint_dir=checkpoint_dir,
                abort_after_month=1,
            )
        reset_telemetry()
        LongTermCampaign.resume(
            checkpoint_dir, monitor=make_hub(str(tmp_path / "c.jsonl"))
        )
        resumed = {
            name: doc
            for name, doc in get_metrics().snapshot().items()
            if name.startswith("campaign.powerups{")
        }
        assert resumed == baseline
