"""SRAM PUF substrate: cells, arrays, chips and their aging.

The simulator follows the probabilistic PUF model of Maes (CHES 2013),
which also underlies the paper's analysis: every cell has a static
*skew* voltage (the threshold imbalance of its two inverter halves,
frozen at manufacturing) and each power-up adds independent Gaussian
noise, so the cell's one-probability is
``p = Phi(skew / sigma_noise)``.

Aging (NBTI) drifts the skew toward balance along a power-law clock;
see :mod:`repro.sram.aging`.

Two fidelities are offered (see DESIGN.md §2):

* measurement level — :meth:`SRAMArray.power_up` returns actual bit
  vectors;
* statistical — :meth:`SRAMArray.sample_ones_counts` returns the
  Binomial sufficient statistic of ``n`` power-ups per cell, exact in
  distribution for every metric the paper evaluates and ~1000x faster.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "repro.sram.aging": ("AgingSimulator", "DataPolicy"),
        "repro.sram.array": ("SRAMArray",),
        "repro.sram.cell": ("SixTransistorCell",),
        "repro.sram.chip": ("SRAMChip",),
        "repro.sram.powerup": (
            "PowerUpSample",
            "binomial_ones_counts",
            "measure_power_ups",
            "sample_measurement_block",
        ),
        "repro.sram.profiles": (
            "ATMEGA32U4",
            "BUSKEEPER_PUF",
            "DFF_PUF",
            "TESTCHIP_65NM",
            "DeviceProfile",
            "NOISE_SIGMA_V",
            "REGISTRY",
            "profile_by_name",
            "register_profile",
        ),
        "repro.sram.population": (
            "PopulationMember",
            "PopulationSpec",
            "load_population",
            "single_profile_population",
        ),
        "repro.sram.ramp": ("VoltageRamp", "read_startup_with_ramp"),
    },
)
