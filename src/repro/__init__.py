"""repro — reproduction of Wang et al., "Long-term Continuous Assessment
of SRAM PUF and Source of Random Numbers" (DATE 2020).

The library simulates the paper's two-year, 16-board nominal-condition
aging study end to end — device physics, testbed, measurement database,
quality metrics, key generation and TRNG — and regenerates every table
and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import LongTermAssessment, StudyConfig
>>> assessment = LongTermAssessment(StudyConfig(device_count=4, months=6))
>>> result = assessment.run()
>>> 0.0 < result.table["WCHD"].start_avg < 0.05
True

See ``examples/quickstart.py`` for a narrated tour and DESIGN.md for
the system inventory.

Top-level names are loaded lazily (PEP 562) so that ``import repro``
stays cheap and subpackages can be imported independently.
"""

import logging as _logging
from typing import TYPE_CHECKING

from repro import _lazy

__version__ = "1.0.0"

# Library silence by default (PEP 282 convention): applications opt in
# to output, e.g. via repro.telemetry.init_logging or the CLI's -v.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

#: Each defining module and the top-level names it provides.
__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "repro.core.assessment": ("AssessmentResult", "LongTermAssessment"),
        "repro.core.config": ("StudyConfig",),
        "repro.errors": ("CampaignExecutionError",),
        "repro.exec.executor": ("ParallelExecutor", "SerialExecutor"),
        "repro.core.paper": ("PAPER",),
        "repro.sram.profiles": ("ATMEGA32U4", "TESTCHIP_65NM", "DeviceProfile"),
        "repro.sram.chip": ("SRAMChip",),
        "repro.sram.array": ("SRAMArray",),
        "repro.keygen.keygen": ("SRAMKeyGenerator",),
        "repro.trng.trng": ("SRAMTRNG",),
        "repro.rng": ("SeedHierarchy",),
    },
)
__all__ = sorted(__all__) + ["__version__"]

if TYPE_CHECKING:  # pragma: no cover - import-time typing aid only
    from repro.core.assessment import AssessmentResult, LongTermAssessment
    from repro.core.config import StudyConfig
    from repro.core.paper import PAPER
    from repro.errors import CampaignExecutionError
    from repro.exec.executor import ParallelExecutor, SerialExecutor
    from repro.keygen.keygen import SRAMKeyGenerator
    from repro.rng import SeedHierarchy
    from repro.sram.array import SRAMArray
    from repro.sram.chip import SRAMChip
    from repro.sram.profiles import ATMEGA32U4, TESTCHIP_65NM, DeviceProfile
    from repro.trng.trng import SRAMTRNG

