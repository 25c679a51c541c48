"""The serial≡parallel equivalence gate.

The executor's contract is absolute: for the same seed, a campaign
sharded over any number of workers produces **byte-identical** output
to the serial loop — every snapshot array, the day-0 references, the
saved JSON artifact, the Table I summaries and the alert log.  These
tests are the contract's enforcement; if any of them fails, the
parallel path is wrong, no matter how fast it is.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.core.assessment import LongTermAssessment
from repro.core.config import StudyConfig
from repro.exec import ParallelExecutor, SerialExecutor, executor_for
from repro.io.resultstore import save_campaign
from repro.monitor.defaults import default_ruleset
from repro.monitor.hub import MonitorHub
from repro.telemetry import get_metrics, reset_telemetry

from tests.exec.conftest import assert_campaigns_identical, worker_counts

#: Paper-shaped but fast: a fleet with an ambient temperature walk so
#: the shared ``ambient-temperature`` stream is exercised too.
STATISTICAL = dict(
    device_count=5, months=3, measurements=120, temperature_walk_k=1.5
)
#: Full measurement-level fidelity on a smaller block.
FULL_SIM = dict(device_count=4, months=2, measurements=40, statistical=False)

SEED = 7


def _run(config: dict, workers: int):
    """One campaign run at the given worker count, metrics isolated."""
    reset_telemetry()
    campaign = LongTermCampaign(random_state=SEED, max_workers=workers, **config)
    result = campaign.run()
    counters = {
        name: doc["value"]
        for name, doc in get_metrics().snapshot().items()
        if doc["type"] == "counter"
    }
    return result, counters


class TestCampaignEquivalence:
    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    @pytest.mark.parametrize(
        "config", [STATISTICAL, FULL_SIM], ids=["statistical", "full-sim"]
    )
    def test_parallel_matches_serial_bit_for_bit(self, config, workers):
        serial, serial_counters = _run(config, workers=1)
        parallel, parallel_counters = _run(config, workers=workers)
        assert_campaigns_identical(serial, parallel)
        assert serial_counters == parallel_counters

    def test_in_process_sharded_path_matches_serial(self):
        """SerialExecutor exercises the shard/merge machinery alone."""
        serial, _ = _run(STATISTICAL, workers=1)
        reset_telemetry()
        sharded = LongTermCampaign(random_state=SEED, **STATISTICAL).run(
            executor=SerialExecutor()
        )
        assert_campaigns_identical(serial, sharded)

    def test_more_workers_than_boards(self):
        """Oversized pools must degrade to one board per shard, not break."""
        config = dict(device_count=2, months=2, measurements=50)
        serial, _ = _run(config, workers=1)
        reset_telemetry()
        parallel = LongTermCampaign(random_state=SEED, **config).run(
            executor=ParallelExecutor(8)
        )
        assert_campaigns_identical(serial, parallel)

    def test_saved_artifacts_are_byte_identical(self, tmp_path):
        serial, _ = _run(STATISTICAL, workers=1)
        parallel, _ = _run(STATISTICAL, workers=2)
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        save_campaign(serial, str(serial_path))
        save_campaign(parallel, str(parallel_path))
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_progress_callback_covers_every_snapshot(self):
        calls = []
        reset_telemetry()
        LongTermCampaign(random_state=SEED, **STATISTICAL).run(
            progress=lambda done, total: calls.append((done, total)),
            executor=executor_for(2),
        )
        total = STATISTICAL["months"] + 1
        assert calls == [(i + 1, total) for i in range(total)]


class TestAssessmentEquivalence:
    def test_summaries_and_manifest_match_serial(self):
        config = StudyConfig(device_count=5, months=3, measurements=120, seed=3)
        reset_telemetry()
        serial = LongTermAssessment(config).run()
        serial_metrics = get_metrics().snapshot()

        parallel_config = StudyConfig(
            device_count=5, months=3, measurements=120, seed=3, max_workers=4
        )
        reset_telemetry()
        parallel = LongTermAssessment(parallel_config).run()
        parallel_metrics = get_metrics().snapshot()

        assert_campaigns_identical(serial.campaign, parallel.campaign)
        assert serial.manifest.summaries == parallel.manifest.summaries
        # The whole instrument catalogue — names, types and values —
        # must be indistinguishable between the two runs.
        assert serial_metrics == parallel_metrics
        # Manifests differ only where they must: the worker knob.
        assert serial.manifest.config.pop("max_workers") == 1
        assert parallel.manifest.config.pop("max_workers") == 4
        assert serial.manifest.config == parallel.manifest.config


def _accelerated_monitored_run(workers: int, alert_log: str):
    """A stressed fleet whose drift trips the default ruleset."""
    reset_telemetry()
    config = StudyConfig(
        device_count=16,
        months=6,
        measurements=150,
        seed=0,
        aging_acceleration=14.0,
        max_workers=workers,
    )
    hub = MonitorHub(default_ruleset(), alert_log=alert_log)
    LongTermAssessment(config).run(monitor=hub)
    return hub


class TestAlertEquivalence:
    def test_alert_log_byte_identical_and_sequence_preserved(self, tmp_path):
        serial_log = tmp_path / "serial.alerts.jsonl"
        parallel_log = tmp_path / "parallel.alerts.jsonl"
        serial_hub = _accelerated_monitored_run(1, str(serial_log))
        parallel_hub = _accelerated_monitored_run(4, str(parallel_log))

        # The stressed run must actually alert, otherwise this test
        # would pass vacuously on two empty logs.
        assert serial_hub.alert_count > 0
        assert serial_log.read_bytes() == parallel_log.read_bytes()

        serial_alerts = [
            (a.rule, a.metric, a.severity, a.index, a.value)
            for a in serial_hub.alerts
        ]
        parallel_alerts = [
            (a.rule, a.metric, a.severity, a.index, a.value)
            for a in parallel_hub.alerts
        ]
        assert serial_alerts == parallel_alerts
        # And the log is real JSONL naming the drift rule.
        lines = [
            json.loads(line)
            for line in serial_log.read_text().splitlines()
            if line.strip()
        ]
        assert any(doc["rule"] == "wchd-drift" for doc in lines)
