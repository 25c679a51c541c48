"""Shared fixtures for the artifact-store suite."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.telemetry import reset_telemetry

#: Committed checkpoint directories and their pinned hashes.
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(autouse=True)
def clean_registry():
    """Isolate every test's metrics so counter assertions are exact."""
    reset_telemetry()
    yield
    reset_telemetry()


@pytest.fixture
def legacy_dir(tmp_path):
    """Copy a committed legacy (campaign-scoped) checkpoint directory.

    ``legacy_dir()`` copies ``fixtures/ckpt_prepopulation`` (schema v2,
    the golden 16-board study at ``keyframe_every=2``: keyframes at
    months 0, 2, 4, 6, deltas between); ``legacy_dir(name)`` copies
    another fixture directory.  Returns the copy's path.
    """

    def copy(name: str = "ckpt_prepopulation"):
        target = tmp_path / "legacy" / name
        shutil.copytree(os.path.join(FIXTURES, name), target)
        return target

    return copy
