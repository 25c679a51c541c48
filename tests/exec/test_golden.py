"""Golden statistical snapshot of the paper-scale campaign.

``golden_table1.json`` pins every Table I cell of the seed-1,
16-board, 24-month reference run.  The test re-runs that campaign —
serially and at the top of the worker ladder — and demands the same
numbers to within floating-point noise.  Any change to the RNG
topology, the metric pipeline, the aging model or the shard/merge
machinery moves these numbers and fails here first.

Regenerate the golden file only for an *intentional* model change::

    PYTHONPATH=src python -m tests.exec.test_golden --regenerate
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.core.assessment import AssessmentResult, LongTermAssessment
from repro.core.config import StudyConfig
from repro.io.resultstore import save_campaign
from repro.telemetry import reset_telemetry

from tests.exec.conftest import worker_counts

GOLDEN_PATH = Path(__file__).with_name("golden_table1.json")

#: Pure float round-trip tolerance; the simulation itself is exact.
RTOL = 1e-9


def _golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _run_reference(
    max_workers: int = 1,
    checkpoint_dir: str = None,
) -> AssessmentResult:
    golden_config = _golden()["config"]
    reset_telemetry()
    return LongTermAssessment(
        StudyConfig(max_workers=max_workers, **golden_config)
    ).run(checkpoint_dir=checkpoint_dir)


def _summaries(result: AssessmentResult) -> dict:
    return {
        name: {
            "start_avg": s.start_avg,
            "end_avg": s.end_avg,
            "start_worst": s.start_worst,
            "end_worst": s.end_worst,
        }
        for name, s in result.table.summaries.items()
    }


def assert_matches_golden(result: AssessmentResult) -> None:
    expected = _golden()["summaries"]
    measured = _summaries(result)
    assert sorted(measured) == sorted(expected)
    for metric, cells in expected.items():
        for cell, want in cells.items():
            got = measured[metric][cell]
            assert math.isclose(got, want, rel_tol=RTOL), (
                f"{metric}.{cell}: golden {want!r}, measured {got!r}"
            )


def _tree_bytes(root: Path) -> dict:
    """Every file under ``root`` as ``{relative path: bytes}``."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestGoldenSnapshot:
    @pytest.fixture(scope="class")
    def reference(self) -> AssessmentResult:
        return _run_reference()

    def test_serial_run_matches_golden(self, reference):
        assert_matches_golden(reference)

    def test_parallel_run_matches_golden(self):
        assert_matches_golden(_run_reference(max_workers=max(worker_counts())))

    def test_headline_numbers_sit_in_the_paper_envelope(self, reference):
        """Sanity net under the golden file itself.

        The paper reports WCHD degrading from 2.49 % to 3.01 % over
        two years with most cells stable; if a regenerated golden file
        ever drifts outside these envelopes, the model is wrong, not
        just different.
        """
        wchd = reference.table["WCHD"]
        assert 0.020 < wchd.start_avg < 0.030
        assert wchd.start_avg < wchd.end_avg < 0.040
        stable = reference.table["Ratio of Stable Cells"]
        assert 0.80 < stable.end_avg < stable.start_avg < 0.95

    def test_artifact_and_checkpoint_chain_byte_identical(self, reference, tmp_path):
        """Checkpointed runs at workers 1 and N: one artifact, one month log.

        Both equal the in-memory serial run's artifact byte for byte —
        saved from the live result and merged back from the checkpoint
        tree alike — and both write the same parent month log.  The
        shard files themselves follow the shard count (one per worker).
        """
        from repro.io.resultstore import load_campaign
        from repro.store.shardstore import PARENT_LOG_NAME

        in_memory = tmp_path / "in-memory.json"
        save_campaign(reference.campaign, str(in_memory))
        chains = {}
        for workers in sorted({1, max(worker_counts())}):
            checkpoint_dir = tmp_path / f"w{workers}" / "checkpoints"
            result = _run_reference(
                max_workers=workers, checkpoint_dir=str(checkpoint_dir)
            )
            artifact = tmp_path / f"w{workers}" / "campaign.json"
            save_campaign(result.campaign, str(artifact))
            assert artifact.read_bytes() == in_memory.read_bytes()
            merged = tmp_path / f"w{workers}" / "merged.json"
            save_campaign(load_campaign(str(checkpoint_dir)), str(merged))
            assert merged.read_bytes() == in_memory.read_bytes()
            chains[workers] = _tree_bytes(checkpoint_dir)
        serial_chain = chains.pop(1)
        assert serial_chain, "checkpointed run wrote no checkpoint files"
        for chain in chains.values():
            assert chain[PARENT_LOG_NAME] == serial_chain[PARENT_LOG_NAME]


def main() -> None:  # pragma: no cover - maintenance helper
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regenerate", action="store_true")
    if not parser.parse_args().regenerate:
        parser.error("pass --regenerate to rewrite the golden file")
    doc = {"config": _golden()["config"], "summaries": _summaries(_run_reference())}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"rewrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
