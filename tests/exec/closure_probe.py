"""What a window worker has imported, for the worker-closure guard.

Kept apart from the test modules on purpose: a lane unpickles
:func:`probe` by importing this module, and a test module's own
imports (the campaign driver, pytest) would land in the worker and
hide what the windows themselves loaded.  This module imports no
``repro`` module either, so :func:`preloaded` sees only what the lane
held before its first task.
"""

import os
import sys
from dataclasses import dataclass, field
from typing import Tuple

#: Modules no month window uses.  Each was in every worker's closure
#: while the package ``__init__``s imported all their submodules.
HEAVY_MODULES = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.spatial",
    "scipy.interpolate",
    "repro.analysis.campaign",
    "repro.analysis.reliability",
    "repro.analysis.trends",
    "repro.io.jsonstore",
    "repro.io.resultstore",
    "repro.io.records",
    "repro.keygen",
    "repro.trng",
    "repro.store.bench",
    "repro.store.legacy",
)


@dataclass(frozen=True)
class ProbeSpec:
    """Minimal work order for a pool lane (pool dispatch needs these)."""

    shard_index: int
    board_ids: Tuple[int, ...] = field(default=())


def probe(spec: ProbeSpec):
    """``(pid, imported HEAVY_MODULES)`` of the lane that ran ``spec``."""
    return os.getpid(), sorted(name for name in HEAVY_MODULES if name in sys.modules)


def preloaded(spec: ProbeSpec):
    """``(pid, whether the lane holds repro.exec.windows)`` for ``spec``."""
    return os.getpid(), "repro.exec.windows" in sys.modules
