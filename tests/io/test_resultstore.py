"""Tests for campaign result persistence."""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import StorageError
from repro.io.resultstore import (
    campaign_from_dict,
    campaign_to_dict,
    load_campaign,
    save_campaign,
)
from repro.sram.profiles import ATMEGA32U4


@pytest.fixture(scope="module")
def result():
    return LongTermCampaign(
        device_count=3, months=2, measurements=100, random_state=44
    ).run()


class TestRoundtrip:
    def test_dict_roundtrip(self, result):
        restored = campaign_from_dict(campaign_to_dict(result))
        assert restored.profile_name == result.profile_name
        assert restored.months == result.months
        assert restored.board_ids == result.board_ids

    def test_references_preserved(self, result):
        restored = campaign_from_dict(campaign_to_dict(result))
        for board in result.board_ids:
            np.testing.assert_array_equal(
                restored.references[board], result.references[board]
            )

    def test_snapshots_preserved(self, result):
        restored = campaign_from_dict(campaign_to_dict(result))
        for original, loaded in zip(result.snapshots, restored.snapshots):
            assert loaded.month == original.month
            np.testing.assert_allclose(loaded.wchd, original.wchd)
            np.testing.assert_allclose(loaded.noise_entropy, original.noise_entropy)
            np.testing.assert_allclose(loaded.bchd_pairs, original.bchd_pairs)
            assert loaded.puf_entropy == pytest.approx(original.puf_entropy)

    def test_file_roundtrip(self, result, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(result, path)
        restored = load_campaign(path)
        assert restored.months == result.months
        np.testing.assert_allclose(restored.end.wchd, result.end.wchd)

    def test_report_rebuilds_from_loaded_result(self, result, tmp_path):
        """A loaded campaign supports the full analysis pipeline."""
        from repro.core.report import build_quality_report

        path = str(tmp_path / "campaign.json")
        save_campaign(result, path)
        report = build_quality_report(load_campaign(path))
        original = build_quality_report(result)
        assert report["WCHD"].start_avg == pytest.approx(original["WCHD"].start_avg)


class TestErrorHandling:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_campaign(str(tmp_path / "nope.json"))

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StorageError):
            load_campaign(str(path))

    def test_wrong_version_rejected(self, result):
        doc = campaign_to_dict(result)
        doc["format_version"] = 99
        with pytest.raises(StorageError):
            campaign_from_dict(doc)

    def test_missing_field_rejected(self, result):
        doc = campaign_to_dict(result)
        del doc["references"]
        with pytest.raises(StorageError):
            campaign_from_dict(doc)


def fleet_result():
    """A 64-board result on small boards: 2,016 pairs per snapshot."""
    profile = dataclasses.replace(
        ATMEGA32U4, name="ATmega32u4-small", sram_bytes=128, read_bytes=64
    )
    return LongTermCampaign(
        device_count=64, months=2, measurements=40, profile=profile, random_state=3
    ).run()


def nan_entropy_result(result):
    """``result`` with a NaN PUF entropy, signed zeros and a NaN array value."""
    first = result.snapshots[0]
    wchd = first.wchd.copy()
    wchd[:3] = (-0.0, 0.0, np.nan)
    snapshots = [dataclasses.replace(first, wchd=wchd, puf_entropy=float("nan"))]
    return dataclasses.replace(result, snapshots=snapshots + result.snapshots[1:])


class TestArtifactBytes:
    """The artifact equals ``json.dumps`` of the public document."""

    @pytest.fixture(scope="class", params=["fleet-64", "nan-entropy"])
    def encoded(self, request):
        base = fleet_result()
        return base if request.param == "fleet-64" else nan_entropy_result(base)

    def test_at_once_artifact_equals_json_dumps(self, encoded, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(encoded, str(path))
        assert path.read_bytes() == json.dumps(campaign_to_dict(encoded)).encode()

    def test_nan_entropy_is_null(self, tmp_path):
        result = nan_entropy_result(fleet_result())
        path = tmp_path / "campaign.json"
        save_campaign(result, str(path))
        doc = json.loads(path.read_bytes())
        assert doc["snapshots"][0]["puf_entropy"] is None
        assert str(doc["snapshots"][0]["wchd"][:2]) == "[-0.0, 0.0]"

    def test_unserialisable_value_raises_storage_error(self, result, tmp_path):
        broken = dataclasses.replace(result, profile_name=object())
        with pytest.raises(StorageError, match="serialisable"):
            save_campaign(broken, str(tmp_path / "campaign.json"))
        assert not list(tmp_path.iterdir())
