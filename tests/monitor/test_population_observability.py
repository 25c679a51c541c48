"""Per-profile rollup scopes: pinned rules, cohort rulesets, status rows."""

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import ConfigurationError
from repro.monitor.defaults import population_ruleset
from repro.monitor.hub import MonitorHub, parse_rollup_metric, rollup_scope_selector
from repro.sram.population import PopulationMember, PopulationSpec
from repro.telemetry import get_rollups, reset_telemetry
from repro.telemetry.rollup import evaluation_profile_docs, profile_rollup_doc_name

MIXED = PopulationSpec(
    name="obs-mix",
    members=(
        PopulationMember("ATmega32u4", weight=2.0),
        PopulationMember("dff-puf"),
    ),
)


@pytest.fixture(autouse=True)
def clean_registry():
    reset_telemetry()
    yield
    reset_telemetry()


def run_mixed_campaign():
    campaign = LongTermCampaign(
        device_count=8,
        months=2,
        measurements=20,
        population=MIXED,
        random_state=7,
    )
    return campaign.run()


class TestPinnedScopeGrammar:
    def test_pinned_scope_parses(self):
        assert parse_rollup_metric("rollup:wchd.p99@profile=ATmega32u4") == (
            "wchd",
            "p99",
            "profile=ATmega32u4",
        )

    @pytest.mark.parametrize(
        "metric",
        [
            "rollup:wchd.p99@profile=",  # pin without a value
            "rollup:wchd.p99@=ATmega32u4",  # value without a scope
        ],
    )
    def test_malformed_pins_rejected(self, metric):
        with pytest.raises(ConfigurationError, match="malformed scope"):
            parse_rollup_metric(metric)

    def test_selector_for_bare_scope(self):
        assert rollup_scope_selector("shard") == {"scope": "shard"}

    def test_selector_for_pinned_scope(self):
        assert rollup_scope_selector("profile=dff-puf") == {
            "scope": "profile",
            "profile": "dff-puf",
        }


class TestProfileRollupDocs:
    def test_doc_names_carry_profile_labels(self):
        assert (
            profile_rollup_doc_name("wchd", "ATmega32u4")
            == "rollup.wchd{profile=ATmega32u4,scope=profile}"
        )

    def test_mixed_campaign_registers_profile_series(self):
        run_mixed_campaign()
        rollups = get_rollups()
        for profile in MIXED.profile_names:
            series = rollups.select(
                "rollup.wchd", scope="profile", profile=profile
            )
            assert len(series) == 1
            name, summary = series[0]
            # One observation per cohort board per month snapshot.
            assert summary.count > 0
        fleet = rollups.select("rollup.wchd", scope="fleet")
        (_, fleet_summary), = fleet
        cohort_total = sum(
            summary.count
            for profile in MIXED.profile_names
            for _, summary in rollups.select(
                "rollup.wchd", scope="profile", profile=profile
            )
        )
        assert cohort_total == fleet_summary.count

    def test_homogeneous_campaign_registers_no_profile_series(self):
        campaign = LongTermCampaign(
            device_count=4, months=1, measurements=10, random_state=1
        )
        campaign.run()
        assert get_rollups().select("rollup.wchd", scope="profile") == []

    def test_evaluation_profile_docs_split_by_cohort(self):
        result = run_mixed_campaign()
        labels = MIXED.member_labels(7, range(8))
        docs = evaluation_profile_docs(
            result.snapshots[0], lambda board: labels[board]
        )
        for profile in set(labels):
            key = profile_rollup_doc_name("wchd", profile)
            assert docs[key].count == labels.count(profile)


class TestPopulationRuleset:
    def test_two_rules_per_distinct_profile(self):
        rules = population_ruleset(MIXED)
        names = {rule.name for rule in rules}
        assert names == {
            "profile-wchd-p99-ATmega32u4",
            "profile-stable-ratio-min-ATmega32u4",
            "profile-wchd-p99-dff-puf",
            "profile-stable-ratio-min-dff-puf",
        }
        metrics = {rule.metric for rule in rules}
        assert "rollup:wchd.p99@profile=dff-puf" in metrics

    def test_noisier_profiles_get_looser_envelopes(self):
        # dff-puf's noise/mismatch ratio exceeds the ATmega reference,
        # so its WCHD ceiling must sit strictly higher: a value that
        # trips the ATmega rule stays quiet for the dff cohort.
        rules = {rule.name: rule for rule in population_ruleset(MIXED)}
        atmega = rules["profile-wchd-p99-ATmega32u4"].detector_factory()
        dff = rules["profile-wchd-p99-dff-puf"].detector_factory()
        probe = 0.05  # above ATmega's scaled ceiling, below dff's
        assert atmega.update(probe).triggered
        assert not dff.update(probe).triggered

    def test_pinned_rules_attribute_alerts_to_the_cohort(self):
        from repro.monitor.alerts import AlertRule
        from repro.monitor.detectors import StaticThresholdDetector

        run_mixed_campaign()
        # A ceiling of -1 breaches on any real observation, so the
        # test exercises the pin -> series -> drill-down wiring rather
        # than the calibrated thresholds.
        hub = MonitorHub(
            [
                AlertRule(
                    name="cohort-probe",
                    metric="rollup:wchd.p99@profile=dff-puf",
                    detector_factory=lambda: StaticThresholdDetector(upper=-1.0),
                )
            ]
        )
        alerts = hub.observe_rollups(index=2)
        assert len(alerts) == 1
        assert alerts[0].path == "profile=dff-puf/wchd.p99"


class TestStatusDashboard:
    def test_profile_rows_render_after_shard_rows(self):
        from repro.monitor.status import CampaignStatus, render_status

        stats = {"count": 4, "mean": 0.02, "p50": 0.02, "p99": 0.03, "max": 0.03}
        heartbeat = {
            "completed": 3,
            "total": 3,
            "month": 2,
            "wall_s": 1.0,
            "rollups": {
                "rollup.wchd{scope=fleet}": stats,
                "rollup.wchd{scope=shard,shard=0}": stats,
                "rollup.wchd{profile=dff-puf,scope=profile}": stats,
                "rollup.wchd{profile=ATmega32u4,scope=profile}": stats,
            },
        }
        text = render_status(
            CampaignStatus(target="a.json", heartbeat=heartbeat)
        )
        lines = [line.strip() for line in text.splitlines()]
        fleet = next(i for i, l in enumerate(lines) if l.startswith("fleet"))
        shard = next(i for i, l in enumerate(lines) if l.startswith("shard=0"))
        atmega = next(
            i for i, l in enumerate(lines) if l.startswith("profile=ATmega32u4")
        )
        dff = next(
            i for i, l in enumerate(lines) if l.startswith("profile=dff-puf")
        )
        assert fleet < shard < atmega < dff
