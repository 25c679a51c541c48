"""Replaying saved campaigns through the hub, and the alert timeline."""

import numpy as np
import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.io.resultstore import load_campaign, save_campaign
from repro.monitor.alerts import Alert, AlertRule, alert_log_path_for, load_alert_log
from repro.monitor.detectors import StaticThresholdDetector
from repro.monitor.hub import MonitorHub
from repro.monitor.replay import render_alert_timeline, replay_campaign
from repro.sram.chip import SRAMChip
from repro.sram.profiles import ATMEGA32U4
from repro.telemetry import reset_telemetry


@pytest.fixture(autouse=True)
def clean_registry():
    reset_telemetry()
    yield
    reset_telemetry()


@pytest.fixture(scope="module")
def small_campaign():
    return LongTermCampaign(
        device_count=3, months=3, measurements=100, random_state=3
    ).run()


class TestReplay:
    def test_replay_matches_online_monitoring(self, small_campaign):
        def build_hub():
            return MonitorHub(
                [
                    AlertRule(
                        name="hw-ceiling",
                        metric="fhw.mean",
                        # Deliberately inside the healthy range so the
                        # rule fires on every snapshot.
                        detector_factory=lambda: StaticThresholdDetector(upper=0.5),
                    )
                ]
            )

        replayed = replay_campaign(small_campaign, build_hub())
        online_hub = build_hub()
        for snapshot in small_campaign.snapshots:
            online_hub.observe_evaluation(snapshot)
        assert replayed == online_hub.alerts
        assert [a.index for a in replayed] == [0, 1, 2, 3]

    def test_round_trip_through_resultstore(self, small_campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(small_campaign, path)
        hub = MonitorHub(
            [
                AlertRule(
                    name="hw-ceiling",
                    metric="fhw.mean",
                    detector_factory=lambda: StaticThresholdDetector(upper=0.5),
                )
            ]
        )
        alerts = replay_campaign(load_campaign(path), hub)
        assert len(alerts) == len(small_campaign.snapshots)

    def test_injected_fleet_rollups_replay_by_fleet_position(self):
        """Board ids 3 and 7 are fleet positions 0 and 1, live and replayed."""

        def build_hub():
            tripwire = AlertRule(
                name="shard-wchd-tripwire",
                metric="rollup:wchd.p99@shard",
                detector_factory=lambda: StaticThresholdDetector(upper=0.0),
                hysteresis=1,
            )
            return MonitorHub([tripwire])

        tiny = ATMEGA32U4.with_overrides(sram_bytes=64, read_bytes=32)
        chips = [SRAMChip(i, tiny, random_state=4) for i in (3, 7)]
        live_hub = build_hub()
        result = LongTermCampaign(
            device_count=2, months=2, measurements=50, profile=tiny
        ).run(chips=chips, monitor=live_hub)
        assert result.board_ids == [3, 7]
        reset_telemetry()
        replayed = replay_campaign(result, build_hub())
        assert replayed
        assert replayed == live_hub.alerts

    def test_save_campaign_writes_alert_log(self, small_campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        alerts = [Alert("r", "wchd.mean", "warning", 2, 0.04, detail="x")]
        save_campaign(small_campaign, path, alerts=alerts)
        assert load_alert_log(alert_log_path_for(path)) == alerts

    def test_save_campaign_empty_alert_log(self, small_campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(small_campaign, path, alerts=[])
        assert load_alert_log(alert_log_path_for(path)) == []


class TestTimeline:
    def test_empty_timeline(self):
        rendered = render_alert_timeline([], months=24)
        assert "(no alerts)" in rendered
        assert "0..24" in rendered

    def test_rows_sorted_by_month(self):
        alerts = [
            Alert("b-rule", "m", "critical", 5, 2.0, detail="late"),
            Alert("a-rule", "m", "warning", 1, 1.0, detail="early"),
        ]
        rendered = render_alert_timeline(alerts)
        assert rendered.index("early") < rendered.index("late")
        assert "critical" in rendered and "warning" in rendered
