"""Tests for run manifests and their persistence."""

import pytest

import repro
from repro.core.config import StudyConfig
from repro.errors import StorageError
from repro.io.jsonstore import load_manifest, save_manifest
from repro.telemetry import RunManifest, manifest_path_for, run_id_for_config


class TestRunManifest:
    def test_defaults_fill_environment(self):
        manifest = RunManifest()
        assert manifest.package_version == repro.__version__
        assert manifest.run_id
        assert manifest.created_at.endswith("Z")
        assert manifest.python_version

    def test_for_config_flattens_study_config(self):
        config = StudyConfig(device_count=4, months=6, seed=7)
        manifest = RunManifest.for_config(config, command="test")
        assert manifest.seed == 7
        assert manifest.config["device_count"] == 4
        assert manifest.config["months"] == 6
        # The profile dataclass flattens to its name.
        assert manifest.config["profile"] == "ATmega32u4"
        assert manifest.command == "test"

    def test_run_id_is_the_same_serial_or_parallel(self):
        serial = StudyConfig(device_count=8, months=3, seed=2)
        parallel = StudyConfig(device_count=8, months=3, seed=2, max_workers=2)
        assert run_id_for_config(parallel) == run_id_for_config(serial)
        manifest = RunManifest.for_config(parallel)
        assert manifest.run_id == run_id_for_config(serial)
        # The recorded config still says how the run executed.
        assert manifest.config["max_workers"] == 2
        assert run_id_for_config(StudyConfig(seed=3)) != run_id_for_config(serial)

    def test_record_phase(self):
        manifest = RunManifest()
        manifest.record_phase("campaign", 1.25)
        assert manifest.phases == {"campaign": 1.25}

    def test_json_round_trip(self):
        manifest = RunManifest.for_config(StudyConfig(seed=3))
        manifest.record_phase("campaign", 0.5)
        manifest.metrics = {"campaign.powerups": {"type": "counter", "value": 10}}
        manifest.summaries = {"WCHD": {"start_avg": 0.025}}
        clone = RunManifest.from_json_dict(manifest.to_json_dict())
        assert clone.to_json_dict() == manifest.to_json_dict()

    def test_version_mismatch_rejected(self):
        doc = RunManifest().to_json_dict()
        doc["manifest_version"] = 999
        with pytest.raises(StorageError):
            RunManifest.from_json_dict(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(StorageError):
            RunManifest.from_json_dict({"manifest_version": 1})


class TestManifestStore:
    def test_round_trip_through_jsonstore(self, tmp_path):
        manifest = RunManifest.for_config(StudyConfig(seed=11), command="round-trip")
        manifest.record_phase("campaign", 2.0)
        path = str(tmp_path / "run.manifest.json")
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.to_json_dict() == manifest.to_json_dict()

    def test_load_missing_file_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            load_manifest(str(tmp_path / "absent.json"))


class TestManifestPath:
    def test_json_suffix_replaced(self):
        assert manifest_path_for("campaign.json") == "campaign.manifest.json"

    def test_other_suffix_appended(self):
        assert manifest_path_for("campaign.dat") == "campaign.dat.manifest.json"


class TestAssessmentManifest:
    def test_assessment_result_carries_manifest(self):
        from repro import LongTermAssessment

        config = StudyConfig(device_count=2, months=1, measurements=50, seed=5)
        result = LongTermAssessment(config).run()
        manifest = result.manifest
        assert manifest is not None
        assert manifest.seed == 5
        assert set(manifest.phases) == {"campaign", "report"}
        assert all(wall >= 0.0 for wall in manifest.phases.values())
        assert manifest.metrics["campaign.powerups"]["value"] > 0
        assert "WCHD" in manifest.summaries

    def test_save_campaign_writes_manifest_sibling(self, tmp_path):
        from repro import LongTermAssessment
        from repro.io.resultstore import load_campaign, save_campaign

        config = StudyConfig(device_count=2, months=1, measurements=50, seed=5)
        result = LongTermAssessment(config).run()
        path = str(tmp_path / "campaign.json")
        save_campaign(result.campaign, path, manifest=result.manifest)
        assert load_campaign(path).months == 1
        loaded = load_manifest(manifest_path_for(path))
        assert loaded.run_id == result.manifest.run_id
