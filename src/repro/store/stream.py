"""Incremental (streaming) campaign artifacts.

The legacy campaign artifact is one JSON document rewritten whole at
the end of the run — fine for a finished campaign, wasteful for a
long-running one: the windowed driver holds every snapshot in memory
anyway, but a crash loses the artifact entirely and progress is
invisible on disk.  The *stream* format is the same data as JSON Lines,
appended month by month through the store's fsync'd append path:

``{"kind": "header", "stream_version": 1, ...}``
    Campaign identity: profile name, configured months, measurements
    per month, board ids.
``{"kind": "references", ...}``
    Day-0 reference read-outs (hex + bit counts), exactly as the legacy
    document stores them.
``{"kind": "snapshot", "snapshot": {...}}``
    One record per completed month, appended as the month finishes.
``{"kind": "end", "snapshots": N}``
    Finalize trailer.  A stream without it is torn — the run died —
    and refuses to load as a campaign result (the snapshot records are
    still inspectable by hand).

Every record is canonical sorted-key JSON and both writers — the
incremental one driven by the month loop and the at-once
:func:`write_campaign_stream` — go through the same encoding path, so
a streamed artifact's bytes are identical however it was produced, and
a resumed run (which rewinds the stream to its checkpoint and replays)
re-creates byte-for-byte what the uninterrupted run writes.

:func:`load_campaign_stream_doc` folds a finalized stream back into
the legacy single-document shape, which is how
:func:`repro.io.resultstore.load_campaign` serves both formats from
one entry point.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import StorageError
from repro.store.artifact import ArtifactStore
from repro.store.codecs import JsonText, encode_json_object
from repro.store.schema import current_version, migrate

logger = logging.getLogger(__name__)

#: Record kinds of a campaign stream, in file order.
STREAM_RECORD_KINDS = ("header", "references", "snapshot", "end")


def is_stream_header(record: Any) -> bool:
    """Whether a decoded first line marks a campaign stream artifact."""
    return isinstance(record, dict) and record.get("kind") == "header"


class CampaignStreamWriter:
    """Appends a campaign result to disk as the months complete.

    One writer per artifact path.  :meth:`begin` (re)starts the stream
    — truncating any previous content, so resume can rewind to its
    checkpoint and replay — :meth:`append_snapshot` adds one month, and
    :meth:`finalize` seals the stream with the end trailer.  All
    records go through :class:`~repro.store.ArtifactStore`'s fsync'd
    line-append path.
    """

    def __init__(self, path: str):
        self._store, self._name = ArtifactStore.locate(path)
        self.path = self._store.path(self._name)
        self._snapshots = 0
        self._begun = False
        self._finalized = False

    def begin(
        self,
        profile_name: str,
        months: int,
        measurements: int,
        board_ids: Sequence[int],
        references: Dict[int, np.ndarray],
    ) -> None:
        """Truncate the stream and write the header + references records."""
        from repro.io.bitutil import bits_to_hex

        self._store.truncate(self._name)
        self._snapshots = 0
        self._finalized = False
        header = {
            "kind": "header",
            "stream_version": current_version("campaign-stream"),
            "profile_name": str(profile_name),
            "months": int(months),
            "measurements": int(measurements),
            "board_ids": [int(board) for board in board_ids],
        }
        refs = {
            "kind": "references",
            "references": {
                str(board): bits_to_hex(bits) for board, bits in references.items()
            },
            "reference_bits": {
                str(board): int(np.asarray(bits).size)
                for board, bits in references.items()
            },
        }
        self._store.append_jsonl_batch(self._name, [header, refs], sort_keys=True)
        self._begun = True

    def append_snapshot(self, snapshot: Any) -> None:
        """Append one completed month's evaluation snapshot."""
        from repro.io.resultstore import encode_snapshot

        if not self._begun:
            raise StorageError("stream writer used before begin()")
        if self._finalized:
            raise StorageError("stream writer used after finalize()")
        record = {
            "kind": "snapshot",
            "snapshot": JsonText(encode_snapshot(snapshot, sort_keys=True)),
        }
        self._store.append_jsonl(
            self._name, JsonText(encode_json_object(record, sort_keys=True))
        )
        self._snapshots += 1

    def finalize(self) -> str:
        """Seal the stream with the end trailer; returns the path."""
        if not self._begun:
            raise StorageError("stream writer finalized before begin()")
        if self._finalized:
            raise StorageError("stream already finalized")
        self._store.append_jsonl(
            self._name, {"kind": "end", "snapshots": self._snapshots}, sort_keys=True
        )
        self._finalized = True
        logger.debug(
            "campaign stream finalized: %s (%d snapshots)", self.path, self._snapshots
        )
        return self.path

    def __repr__(self) -> str:
        state = (
            "finalized" if self._finalized else "open" if self._begun else "unstarted"
        )
        return f"CampaignStreamWriter({self.path!r}, {state}, {self._snapshots} snapshots)"


def write_campaign_stream(result, path: str) -> str:
    """Write a finished campaign result in the stream format, at once.

    Drives the exact record path the incremental writer uses, so the
    bytes are identical to a stream grown month by month.
    """
    writer = CampaignStreamWriter(path)
    writer.begin(
        result.profile_name,
        result.months,
        result.measurements,
        result.board_ids,
        result.references,
    )
    for snapshot in result.snapshots:
        writer.append_snapshot(snapshot)
    return writer.finalize()


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
