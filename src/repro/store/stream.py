"""Reader of legacy campaign artifacts in the JSON Lines *stream* format.

Older versions of this library could save a campaign artifact as JSON
Lines, one record per line.  Nothing writes the format any more — the
single-document artifact of :func:`repro.io.resultstore.save_campaign`
is the one campaign artifact format — but every stream artifact on
disk keeps loading.  Its records, in file order:

``{"kind": "header", "stream_version": 1, ...}``
    Campaign identity: profile name, configured months, measurements
    per month, board ids.
``{"kind": "references", ...}``
    Day-0 reference read-outs (hex + bit counts), exactly as the legacy
    document stores them.
``{"kind": "snapshot", "snapshot": {...}}``
    One record per month.
``{"kind": "end", "snapshots": N}``
    Trailer.  A stream without it is torn and refuses to load as a
    campaign result (the snapshot records are still inspectable by
    hand).

Every record is canonical sorted-key JSON.
``tests/store/fixtures/campaign_stream_v1.jsonl`` is one such artifact,
kept as the reader's test data.

:func:`load_campaign_stream_doc` folds a finalized stream back into
the legacy single-document shape, which is how
:func:`repro.io.resultstore.load_campaign` serves both formats from
one entry point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import StorageError
from repro.store.artifact import ArtifactStore
from repro.store.schema import current_version, migrate

#: Record kinds of a campaign stream, in file order.
STREAM_RECORD_KINDS = ("header", "references", "snapshot", "end")


def is_stream_header(record: Any) -> bool:
    """Whether a decoded first line marks a campaign stream artifact."""
    return isinstance(record, dict) and record.get("kind") == "header"


def load_campaign_stream_doc(path: str) -> Dict[str, Any]:
    """Fold a finalized stream into the legacy campaign document shape.

    The returned dict is exactly what
    :func:`repro.io.resultstore.campaign_to_dict` produces, so the
    legacy reader pipeline (schema migration included) consumes streams
    with no second code path.  Raises
    :class:`~repro.errors.StorageError` on a torn stream (no ``end``
    trailer), a snapshot-count mismatch, or any out-of-order record.
    """
    store, name = ArtifactStore.locate(path)
    records = store.read_jsonl(name)
    if not records:
        raise StorageError(f"{path}: empty campaign stream")
    header = records[0]
    if not is_stream_header(header):
        raise StorageError(f"{path}: first record is not a stream header")
    header = migrate("campaign-stream", header)
    if len(records) < 2 or records[1].get("kind") != "references":
        raise StorageError(f"{path}: stream header not followed by references record")
    refs = records[1]
    end: Optional[Dict[str, Any]] = None
    snapshots: List[Dict[str, Any]] = []
    for index, record in enumerate(records[2:], start=2):
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == "snapshot":
            if end is not None:
                raise StorageError(f"{path}: snapshot record after end trailer")
            snapshots.append(record["snapshot"])
        elif kind == "end":
            if end is not None:
                raise StorageError(f"{path}: duplicate end trailer")
            end = record
        else:
            raise StorageError(
                f"{path}: unexpected record kind {kind!r} at line {index + 1}"
            )
    if end is None:
        raise StorageError(
            f"{path}: campaign stream has no end trailer — the writing run "
            "did not finish (torn stream)"
        )
    if int(end.get("snapshots", -1)) != len(snapshots):
        raise StorageError(
            f"{path}: end trailer promises {end.get('snapshots')} snapshots, "
            f"stream carries {len(snapshots)}"
        )
    try:
        return {
            "format_version": current_version("campaign"),
            "profile_name": header["profile_name"],
            "months": header["months"],
            "measurements": header["measurements"],
            "board_ids": header["board_ids"],
            "references": refs["references"],
            "reference_bits": refs["reference_bits"],
            "snapshots": snapshots,
        }
    except KeyError as exc:
        raise StorageError(f"{path}: stream record missing field {exc}") from exc
