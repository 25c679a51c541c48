"""Tests that the pipeline actually feeds the telemetry layer."""

import numpy as np
import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.telemetry import get_metrics, get_tracer, reset_telemetry, set_tracing


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Zero global telemetry around each test (tracing back off after)."""
    reset_telemetry()
    yield
    set_tracing(False)
    reset_telemetry()


class TestCampaignInstrumentation:
    def test_powerup_accounting(self):
        devices, months, measurements = 2, 2, 60
        before = get_metrics().counter("campaign.powerups").value
        LongTermCampaign(
            device_count=devices,
            months=months,
            measurements=measurements,
            random_state=1,
        ).run()
        counted = get_metrics().counter("campaign.powerups").value - before
        # day-0 references + one block per snapshot per device
        assert counted == devices + (months + 1) * measurements * devices

    def test_progress_callback(self):
        seen = []
        LongTermCampaign(
            device_count=2, months=2, measurements=40, random_state=1
        ).run(progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_span_tree_shape(self):
        set_tracing(True)
        LongTermCampaign(
            device_count=2, months=1, measurements=40, random_state=1
        ).run()
        roots = get_tracer().roots
        campaign_span = roots[-1]
        assert campaign_span.name == "campaign.run"
        months = [s for s in campaign_span.children if s.name == "campaign.month"]
        assert [s.attributes["month"] for s in months] == [0, 1]
        for month in months:
            # One grafted worker.board tree per board, in board order.
            assert [c.name for c in month.children] == ["worker.board"] * 2
            assert [c.attributes["board"] for c in month.children] == [0, 1]
        assert [c.name for c in months[0].children[0].children] == [
            "board.measure",
            "board.age",
        ]
        # The last snapshot has no aging step after it.
        assert [c.name for c in months[-1].children[0].children] == ["board.measure"]

    def test_tracing_does_not_change_results(self):
        def run():
            return LongTermCampaign(
                device_count=2, months=2, measurements=50, random_state=9
            ).run()

        set_tracing(False)
        untraced = run()
        set_tracing(True)
        traced = run()
        for a, b in zip(untraced.snapshots, traced.snapshots):
            np.testing.assert_array_equal(a.wchd, b.wchd)
            np.testing.assert_array_equal(a.fhw, b.fhw)
            np.testing.assert_array_equal(a.bchd_pairs, b.bchd_pairs)


class TestHardwareInstrumentation:
    def test_scheduler_and_testbed_counters(self):
        from repro.hardware.testbed import Testbed

        events_before = get_metrics().counter("scheduler.events").value
        cycles_before = get_metrics().counter("testbed.cycles").value
        readouts_before = get_metrics().counter("testbed.readouts").value

        bed = Testbed(device_count=4, random_state=3)
        bed.run_cycles(2)

        assert get_metrics().counter("scheduler.events").value > events_before
        cycles = get_metrics().counter("testbed.cycles").value - cycles_before
        assert cycles >= 4  # both layers completed >= 2 cycles each
        readouts = get_metrics().counter("testbed.readouts").value - readouts_before
        assert readouts == len(bed.database)


class TestKeygenInstrumentation:
    def test_enroll_reconstruct_counters(self):
        from repro.keygen.keygen import SRAMKeyGenerator
        from repro.sram.chip import SRAMChip

        generator = SRAMKeyGenerator(SRAMChip(0, random_state=2))
        before_enroll = get_metrics().counter("keygen.enrollments").value
        before_rec = get_metrics().counter("keygen.reconstructions").value
        key, record = generator.enroll(random_state=2)
        rebuilt = generator.reconstruct(record)
        assert np.array_equal(key, rebuilt)
        assert get_metrics().counter("keygen.enrollments").value == before_enroll + 1
        assert get_metrics().counter("keygen.reconstructions").value == before_rec + 1
        # registered even though nothing failed
        assert "keygen.decode_failures" in get_metrics()


class TestTrngInstrumentation:
    def test_generate_counts_bits_and_checks(self):
        from repro.sram.chip import SRAMChip
        from repro.trng.trng import SRAMTRNG

        bits_before = get_metrics().counter("trng.output_bits").value
        checks_before = get_metrics().counter("trng.health_checks").value
        trng = SRAMTRNG(SRAMChip(1, random_state=4))
        trng.generate(128)
        assert get_metrics().counter("trng.output_bits").value == bits_before + 128
        assert get_metrics().counter("trng.health_checks").value == checks_before + 1
        assert get_metrics().counter("trng.powerups").value > 0
