"""Pinned bytes: the golden study's artifact, checkpoint tree and legacy dirs.

``tests/store/fixtures/prepopulation_hashes.json`` pins the artifact
bytes and deterministic run ids of the golden 16-board study as
produced *before* the population layer existed;
``fixtures/ckpt_prepopulation/`` holds the actual pre-refactor (schema
v2) campaign-scoped checkpoint files, and ``fixtures/ckpt_population_v3/``
a schema-v3 (population) one with its own pinned artifact
(``population_v3_hashes.json``).  ``sharded_tree_hashes.json`` pins
every file a checkpointed run of the golden study writes, per worker
count.

A homogeneous campaign must keep reproducing those exact bytes across
worker counts; a checkpointed run must write exactly the pinned tree;
and both legacy directories must resume — through the schema
migrations — to their pinned artifacts without a byte of the
directory changing.
"""

import glob
import hashlib
import json
import os
import shutil

import logging

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.cli import main
from repro.core.config import StudyConfig
from repro.io.resultstore import save_campaign
from repro.telemetry.manifest import run_id_for_config

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CHECKPOINT_FIXTURE = os.path.join(FIXTURES, "ckpt_prepopulation")

with open(os.path.join(FIXTURES, "prepopulation_hashes.json")) as _handle:
    GOLDEN = json.load(_handle)
with open(os.path.join(FIXTURES, "population_v3_hashes.json")) as _handle:
    GOLDEN_V3 = json.load(_handle)
with open(os.path.join(FIXTURES, "sharded_tree_hashes.json")) as _handle:
    GOLDEN_TREES = json.load(_handle)["workers"]

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


def tree_shas(root: str):
    """sha256 of every file under ``root``, keyed by POSIX relative path."""
    return {
        os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/"): sha256_of(
            os.path.join(dirpath, name)
        )
        for dirpath, _, names in os.walk(root)
        for name in names
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
    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_checkpointed_run_writes_pinned_tree(self, workers, tmp_path):
        """Manifest, month log and every shard file, byte for byte."""
        checkpoint_dir = str(tmp_path / "ckpt")
        campaign = LongTermCampaign(
            keyframe_every=2, max_workers=workers, **GOLDEN_KWARGS
        )
        result = campaign.run(checkpoint_dir=checkpoint_dir)
        assert tree_shas(checkpoint_dir) == GOLDEN_TREES[str(workers)]
        assert (
            artifact_sha(result, tmp_path / "out") == GOLDEN["artifact_sha256"]
        )

    def test_fixture_files_are_schema_v2(self):
        for path in sorted(glob.glob(os.path.join(CHECKPOINT_FIXTURE, "*.json"))):
            with open(path) as handle:
                doc = json.load(handle)
            assert doc["checkpoint_version"] == 2
            assert "population" not in doc.get("config", {})

    def test_resume_from_prerefactor_checkpoint(self, tmp_path, caplog):
        """Old v2 files resume through the migration; nothing is written."""
        workdir = str(tmp_path / "ck")
        shutil.copytree(CHECKPOINT_FIXTURE, workdir)
        # Drop the tail so the resume actually re-simulates months 5-6
        # (month-0004 is a keyframe at keyframe_every=2).
        os.remove(os.path.join(workdir, "month-0005.json"))
        os.remove(os.path.join(workdir, "month-0006.json"))
        kept = {
            name: sha for name, sha in GOLDEN["checkpoint_sha256"].items()
            if name <= "month-0004.json"
        }
        with caplog.at_level(logging.INFO, logger="repro.analysis.campaign"):
            result = LongTermCampaign.resume(workdir)
        assert tree_shas(workdir) == kept
        assert any("nothing is written" in r.message for r in caplog.records)
        assert (
            artifact_sha(result, tmp_path / "out") == GOLDEN["artifact_sha256"]
        )


class TestLegacyPopulationCheckpoints:
    """The schema-v3 (population) campaign-scoped fixture."""

    FIXTURE = os.path.join(FIXTURES, "ckpt_population_v3")

    def test_fixture_files_are_schema_v3_with_population(self):
        assert tree_shas(self.FIXTURE) == GOLDEN_V3["checkpoint_sha256"]
        for path in sorted(glob.glob(os.path.join(self.FIXTURE, "*.json"))):
            with open(path) as handle:
                doc = json.load(handle)
            assert doc["checkpoint_version"] == 3
            if doc["kind"] == "keyframe":
                assert doc["config"]["population"] == GOLDEN_V3["population"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_gives_pinned_artifact_and_leaves_files(self, workers, tmp_path):
        """Month 3 is a delta: resume re-simulates it from keyframe 2."""
        workdir = str(tmp_path / "ck")
        shutil.copytree(self.FIXTURE, workdir)
        result = LongTermCampaign.resume(workdir, max_workers=workers)
        assert tree_shas(workdir) == GOLDEN_V3["checkpoint_sha256"]
        assert (
            artifact_sha(result, tmp_path / "out") == GOLDEN_V3["artifact_sha256"]
        )


class TestLegacyStoreCommands:
    """``store inspect --deep`` and ``store compact`` read legacy dirs."""

    @pytest.mark.parametrize("fixture", ["ckpt_prepopulation", "ckpt_population_v3"])
    def test_inspect_deep_and_compact(self, fixture, tmp_path, capsys):
        workdir = str(tmp_path / fixture)
        shutil.copytree(os.path.join(FIXTURES, fixture), workdir)
        assert main(["store", "inspect", workdir, "--deep"]) == 0
        out = capsys.readouterr().out
        assert "integrity: ok" in out
        assert "resume point: keyframe month" in out
        assert main(["store", "compact", workdir]) == 0
        assert "checkpoint(s) removed" in capsys.readouterr().out
        assert main(["store", "inspect", workdir, "--deep"]) == 0
