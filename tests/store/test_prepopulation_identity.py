"""The ``population=None`` escape hatch is byte-identical to pre-refactor.

``tests/store/fixtures/prepopulation_hashes.json`` pins the artifact
bytes, checkpoint bytes and deterministic run ids of the golden
16-board study as produced *before* the population layer existed;
``fixtures/ckpt_prepopulation/`` holds the actual pre-refactor (schema
v2) checkpoint files.  A homogeneous campaign must keep reproducing
those exact bytes — across worker counts, when
checkpointing (downlevel v2 writes), and when resuming from the old
files through the v2 -> v3 migration.
"""

import glob
import hashlib
import json
import os
import shutil

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.core.config import StudyConfig
from repro.io.resultstore import save_campaign
from repro.telemetry.manifest import run_id_for_config

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CHECKPOINT_FIXTURE = os.path.join(FIXTURES, "ckpt_prepopulation")

with open(os.path.join(FIXTURES, "prepopulation_hashes.json")) as _handle:
    GOLDEN = json.load(_handle)

#: The golden study: ``repro run`` defaults at 16 boards, 6 months,
#: 60 measurements, seed 1 (see the fixture manifest's note).
GOLDEN_KWARGS = dict(device_count=16, months=6, measurements=60, random_state=1)


def sha256_of(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def artifact_sha(result, directory) -> str:
    path = os.path.join(str(directory), "artifact.json")
    save_campaign(result, path)
    return sha256_of(path)


def checkpoint_shas(directory: str):
    return {
        os.path.basename(path): sha256_of(path)
        for path in sorted(glob.glob(os.path.join(directory, "month-*.json")))
    }


class TestGoldenArtifact:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_population_none_matches_prerefactor_bytes(self, workers, tmp_path):
        campaign = LongTermCampaign(max_workers=workers, **GOLDEN_KWARGS)
        result = campaign.run()
        assert artifact_sha(result, tmp_path) == GOLDEN["artifact_sha256"]

    def test_run_ids_unchanged(self):
        assert (
            run_id_for_config(StudyConfig()) == GOLDEN["run_id_default_config"]
        )
        assert (
            run_id_for_config(
                StudyConfig(device_count=16, months=6, measurements=60, seed=1)
            )
            == GOLDEN["run_id_16x6x60_seed1"]
        )


class TestGoldenCheckpoints:
    def test_homogeneous_checkpoints_stay_v2_bytes(self, tmp_path):
        campaign = LongTermCampaign(keyframe_every=2, **GOLDEN_KWARGS)
        result = campaign.run(checkpoint_dir=str(tmp_path))
        assert checkpoint_shas(str(tmp_path)) == GOLDEN["checkpoint_sha256"]
        assert (
            artifact_sha(result, tmp_path / "out") == GOLDEN["artifact_sha256"]
        )

    def test_fixture_files_are_schema_v2(self):
        for path in sorted(glob.glob(os.path.join(CHECKPOINT_FIXTURE, "*.json"))):
            with open(path) as handle:
                doc = json.load(handle)
            assert doc["checkpoint_version"] == 2
            assert "population" not in doc.get("config", {})

    def test_resume_from_prerefactor_checkpoint(self, tmp_path):
        """Old v2 files resume through the migration, bytes unchanged."""
        workdir = str(tmp_path / "ck")
        shutil.copytree(CHECKPOINT_FIXTURE, workdir)
        # Drop the tail so the resume actually re-simulates months 5-6
        # (month-0004 is a keyframe at keyframe_every=2).
        os.remove(os.path.join(workdir, "month-0005.json"))
        os.remove(os.path.join(workdir, "month-0006.json"))
        result = LongTermCampaign.resume(workdir)
        assert checkpoint_shas(workdir) == GOLDEN["checkpoint_sha256"]
        assert (
            artifact_sha(result, tmp_path / "out") == GOLDEN["artifact_sha256"]
        )
