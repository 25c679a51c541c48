"""Lazy package exports (PEP 562), shared by the ``repro`` packages.

Importing ``repro.<package>.<module>`` runs the package ``__init__``
first, so an ``__init__`` that imported every submodule would load
the whole package and whatever those siblings import.  A spawned
window worker needs only the kernel, the monthly metrics, the store
and telemetry; the campaign driver, reliability and trend modules
next to ``repro.analysis.monthly`` import scipy.stats, optimize and
spatial, which cost a lane more than everything it does need.  A
campaign's parent pays the same way: ``repro.core`` would import the
calibration solver (scipy.stats and optimize) for every run.  So
``repro``, ``repro.analysis``, ``repro.core``, ``repro.io``,
``repro.metrics``, ``repro.monitor``, ``repro.sram`` and
``repro.store`` export lazily::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "repro.analysis.campaign": ("CampaignResult", "LongTermCampaign"),
        ...
    })

A name's defining module is imported on first access.  Nothing is
cached in the package: every lookup reads the defining module's
current binding, so a function rebound there (a tracing wrapper, a
test double) is what the package hands out too.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of a lazy package.

    ``exports`` maps each defining module to the public names it
    provides, in the order ``__all__`` lists them.
    """
    where: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    public = list(where)

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
