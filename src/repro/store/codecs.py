"""The store's codec layer: one canonical encoding per payload shape.

Every artifact the reproduction persists is one of a small number of
shapes, and each shape has exactly one canonical byte encoding:

``json`` (:class:`JsonCodec`)
    Whole-document metadata — campaign results, manifests, checkpoints.
    Encoding options (indent, key sorting) are fixed per document kind
    so the same document always produces the same bytes; the
    byte-identity guarantees in ``docs/storage.md`` rest on that.
``jsonl`` (:class:`JsonLinesCodec`)
    Streams — alert logs, heartbeats, metric snapshots, measurement
    records.  One JSON object per line; the line is the atomicity unit.
``bitpack``
    Bit vectors (references, read-outs) as MSB-first packed bytes
    rendered lowercase hex — 8192 bits become 2048 hex characters
    instead of a 16k-entry JSON array.
``float64``
    Float arrays (per-cell skew state) as base64 of the little-endian
    IEEE-754 bytes: exact round-trip by construction, no repr games.
JSON number arrays (:func:`encode_json_array`)
    The per-board and per-pair metric arrays of campaign snapshots, as
    the exact text ``json.dumps(values.tolist())`` gives, produced
    through a table of the array's distinct values (a month's pairwise
    FHDs take at most ``read_bits + 1`` of them).

RNG state travels as the :attr:`numpy.random.BitGenerator.state` dict
(:func:`rng_state_doc` / :func:`restore_rng_state`): plain ints and
strings, JSON-native, and restorable to the exact draw position.

The bit packing is implemented here rather than imported from
:mod:`repro.io.bitutil` on purpose: ``repro.store`` sits *below*
``repro.io`` in the layering (io persists through the store), and
importing any ``repro.io`` submodule would execute the ``repro.io``
package init and drag the upper layers in.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict, Iterator, Mapping, NamedTuple, Optional

import numpy as np

from repro.errors import StorageError


class JsonText(NamedTuple):
    """Already-encoded compact JSON, embedded verbatim.

    :func:`encode_json_object` inserts a ``JsonText`` value as it is,
    so a document can be assembled from separately encoded parts
    without encoding or copying them again.
    """

    text: str


class JsonCodec:
    """Whole-document JSON with pinned formatting options.

    Parameters
    ----------
    indent:
        ``json.dumps`` indent (``None`` = compact single line, the
        campaign-artifact format; 2 = the manifest/trace format).
    sort_keys:
        Canonical key order; on for documents that must be
        byte-comparable across producers (checkpoints).
    """

    name = "json"

    def __init__(self, indent: Optional[int] = None, sort_keys: bool = False):
        self._indent = indent
        self._sort_keys = sort_keys

    def encode(self, document: Any) -> bytes:
        """Serialise ``document`` to canonical UTF-8 JSON bytes."""
        try:
            text = json.dumps(document, indent=self._indent, sort_keys=self._sort_keys)
        except (TypeError, ValueError) as exc:
            raise StorageError(f"document is not JSON-serialisable: {exc}") from exc
        return text.encode("utf-8")

    def decode(self, data: bytes) -> Any:
        """Parse JSON bytes back into a document."""
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"invalid JSON document: {exc}") from exc


class JsonLinesCodec:
    """JSON Lines: one object per line, lines independently decodable."""

    name = "jsonl"

    def __init__(self, sort_keys: bool = False):
        self._sort_keys = sort_keys

    def encode_line(self, document: Any) -> str:
        """One record as a single line (no trailing newline)."""
        try:
            text = json.dumps(document, sort_keys=self._sort_keys)
        except (TypeError, ValueError) as exc:
            raise StorageError(f"record is not JSON-serialisable: {exc}") from exc
        if "\n" in text:
            raise StorageError("a JSONL record cannot span lines")
        return text

    def encode(self, documents) -> bytes:
        """A whole stream: every record's line, newline-terminated."""
        return "".join(
            self.encode_line(doc) + "\n" for doc in documents
        ).encode("utf-8")

    def decode_lines(self, data: bytes, source: str = "<stream>") -> Iterator[Any]:
        """Yield records; blank lines skipped, bad lines are errors."""
        for line_number, line in enumerate(
            data.decode("utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise StorageError(
                    f"{source}:{line_number}: invalid JSON: {exc}"
                ) from exc


# JSON number arrays and flat objects ---------------------------------------

def encode_json_array(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())`` of a 1-D numeric array, byte for byte.

    Every distinct value is encoded once: the array's distinct bit
    patterns (an unsigned-integer view, so ``-0.0`` and ``0.0`` and
    NaN payloads stay apart) go through one ``json.dumps`` call, whose
    ``", "``-separated items are then gathered by the inverse index
    and joined.  A month's pairwise FHDs are ``k / read_bits`` for an
    integer ``k``, so their 130,816 values at 512 boards need at most
    513 float reprs instead of one per pair.
    """
    arr = np.ascontiguousarray(values)
    if arr.ndim != 1:
        raise StorageError(f"JSON number array must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf" or arr.dtype.itemsize > 8:
        raise StorageError(f"cannot encode a {arr.dtype} array as JSON numbers")
    if arr.size == 0:
        return "[]"
    patterns, inverse = np.unique(
        arr.view(f"u{arr.dtype.itemsize}"), return_inverse=True
    )
    table = json.dumps(patterns.view(arr.dtype).tolist())
    texts = np.array(table[1:-1].split(", "), dtype=object)
    return "[" + ", ".join(texts[inverse].tolist()) + "]"


def encode_json_object(fields: Mapping[str, Any]) -> str:
    """``json.dumps(fields)`` of a string-keyed object.

    NumPy array values are encoded by :func:`encode_json_array` (the
    bytes ``json.dumps`` gives for their ``tolist()``), :class:`JsonText`
    values are inserted as they are, and everything else goes through
    ``json.dumps``; a value it cannot encode raises
    :class:`~repro.errors.StorageError`.
    """
    pieces = ["{"]
    for key in fields:
        value = fields[key]
        if isinstance(value, JsonText):
            text = value.text
        elif isinstance(value, np.ndarray):
            text = encode_json_array(value)
        else:
            try:
                text = json.dumps(value)
            except (TypeError, ValueError) as exc:
                raise StorageError(
                    f"field {key!r} is not JSON-serialisable: {exc}"
                ) from exc
        if len(pieces) > 1:
            pieces.append(", ")
        pieces += (json.dumps(key), ": ", text)
    pieces.append("}")
    return "".join(pieces)


# Bit-vector codec -----------------------------------------------------------

def pack_bits_hex(bits: np.ndarray) -> str:
    """Pack a byte-aligned 0/1 vector as lowercase hex, MSB first.

    Byte-compatible with :func:`repro.io.bitutil.bits_to_hex`, so
    references look the same in campaign artifacts and checkpoints.
    """
    arr = np.ascontiguousarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise StorageError(f"bit vector must be 1-D, got shape {arr.shape}")
    if arr.size % 8 != 0:
        raise StorageError(f"bit count must be a multiple of 8, got {arr.size}")
    if arr.size and arr.max() > 1:
        raise StorageError("bit vector may only contain 0 and 1")
    return np.packbits(arr).tobytes().hex()


def unpack_bits_hex(text: str, bit_count: int) -> np.ndarray:
    """Parse :func:`pack_bits_hex` output back into a uint8 bit vector."""
    try:
        data = bytes.fromhex(text)
    except ValueError as exc:
        raise StorageError(f"invalid hex bit payload: {exc}") from exc
    arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bit_count > arr.size:
        raise StorageError(f"requested {bit_count} bits from {arr.size} available")
    return arr[:bit_count]


# Float-array codec ----------------------------------------------------------

def encode_float64_array(values: np.ndarray) -> str:
    """Base64 of the array's little-endian float64 bytes (exact)."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim != 1:
        raise StorageError(f"float array must be 1-D, got shape {arr.shape}")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def decode_float64_array(text: str) -> np.ndarray:
    """Inverse of :func:`encode_float64_array`."""
    try:
        data = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise StorageError(f"invalid base64 float payload: {exc}") from exc
    if len(data) % 8 != 0:
        raise StorageError(f"float64 payload length {len(data)} not a multiple of 8")
    return np.frombuffer(data, dtype="<f8").copy()


# RNG-state codec ------------------------------------------------------------

def rng_state_doc(generator: np.random.Generator) -> Dict[str, Any]:
    """The generator's exact draw position as a JSON-native document.

    numpy's bit-generator state is already a dict of ints and strings
    (PCG64: the 128-bit state and increment); JSON carries arbitrary
    ints, so the round-trip is exact.
    """
    return generator.bit_generator.state


def restore_rng_state(generator: np.random.Generator, doc: Dict[str, Any]) -> None:
    """Set ``generator`` to the exact position captured in ``doc``."""
    try:
        generator.bit_generator.state = doc
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed RNG state document: {exc}") from exc


#: Shared codec instances for the store's standard formats.
COMPACT_JSON = JsonCodec()
PRETTY_JSON = JsonCodec(indent=2)
CANONICAL_JSON = JsonCodec(sort_keys=True)
PLAIN_JSONL = JsonLinesCodec()
CANONICAL_JSONL = JsonLinesCodec(sort_keys=True)
