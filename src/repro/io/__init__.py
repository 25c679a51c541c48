"""Data plumbing: bit packing and the measurement database.

* :mod:`repro.io.bitutil` — conversions between bit vectors, bytes and
  hex strings, plus popcount helpers.
* :mod:`repro.io.records` — the measurement record schema (board id,
  sequence number, timestamp, payload).
* :mod:`repro.io.jsonstore` — a JSON-lines measurement database
  mirroring the paper's Raspberry-Pi-fed JSON store.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "repro.io.bitutil": (
            "bits_from_bytes",
            "bits_from_hex",
            "bits_to_bytes",
            "bits_to_hex",
            "ensure_bits",
            "hamming_weight",
            "pack_bits",
            "random_bits",
            "unpack_bits",
        ),
        "repro.io.jsonstore": ("MeasurementDatabase",),
        "repro.io.records": ("MeasurementRecord",),
        "repro.io.resultstore": ("load_campaign", "save_campaign"),
    },
)
