"""Read-only parsers of legacy campaign-scoped checkpoint directories.

Before the sharded layout (:mod:`repro.store.shardstore`) became the
only writer, the parent wrote one campaign-scoped file per month at
the top of the checkpoint directory (schema v1–v3, no manifest): full
keyframes — config, references, every snapshot, counter polls, device
state — with results-only deltas in between.  Such a directory is
read, never extended.  No live module imports this one at module
scope: :func:`repro.store.checkpoint.scan_chain` imports it on meeting
a legacy file, and resume only for a directory without a manifest.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import StorageError
from repro.store.checkpoint import CheckpointState, check_board_state_docs, scan_chain
from repro.store.codecs import unpack_bits_hex
from repro.store.schema import migrate

logger = logging.getLogger(__name__)


@dataclass
class DeltaRecord:
    """A parsed per-month delta checkpoint (results only, no state)."""

    completed_month: int
    base_month: int
    temperature: float
    temp_rng_state: Optional[Dict[str, Any]]
    snapshot: Any = field(repr=False)
    counter_delta: Dict[str, int] = field(repr=False)
    pending_deltas: Dict[str, int] = field(repr=False)
    source: str = ""


def parse_delta_doc(doc: Dict[str, Any], source: str = "<delta>") -> DeltaRecord:
    """Validate and decode a per-month delta document."""
    from repro.io.resultstore import _snapshot_from_dict

    doc = migrate("checkpoint", doc)
    if doc.get("scope", "campaign") != "campaign":
        raise StorageError(
            f"{source}: shard-scoped delta; shard chains are read via "
            "repro.store.shardstore (docs/storage.md)"
        )
    if doc.get("kind") != "delta":
        raise StorageError(f"{source}: not a delta checkpoint")
    try:
        completed_month = int(doc["completed_month"])
        base_month = int(doc["base_month"])
        temperature = float(doc["temperature"])
        temp_rng_state = doc["temp_rng_state"]
        snapshot = _snapshot_from_dict(doc["snapshot"])
        counter_delta = {str(k): int(v) for k, v in doc["counter_delta"].items()}
        pending_deltas = {str(k): int(v) for k, v in doc["pending_deltas"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StorageError(f"{source}: malformed delta checkpoint: {exc}") from exc
    if completed_month < 1:
        raise StorageError(f"{source}: delta for month {completed_month} is impossible")
    if base_month != completed_month - 1:
        raise StorageError(
            f"{source}: delta for month {completed_month} bases on month "
            f"{base_month}, expected {completed_month - 1}"
        )
    if snapshot.month != completed_month:
        raise StorageError(
            f"{source}: delta for month {completed_month} carries the month-"
            f"{snapshot.month} snapshot"
        )
    return DeltaRecord(
        completed_month=completed_month,
        base_month=base_month,
        temperature=temperature,
        temp_rng_state=temp_rng_state,
        snapshot=snapshot,
        counter_delta=counter_delta,
        pending_deltas=pending_deltas,
        source=source,
    )


def parse_checkpoint_doc(
    doc: Dict[str, Any], source: str = "<checkpoint>"
) -> CheckpointState:
    """Validate and decode a full-state (keyframe) checkpoint document.

    Raises :class:`~repro.errors.StorageError` on any structural
    problem — a truncated or half-migrated checkpoint must never be
    silently resumed from.  Delta documents are rejected here: they
    carry no device state, so resume must go through
    :func:`load_latest_checkpoint`, which resolves the newest keyframe.
    """
    from repro.io.resultstore import _snapshot_from_dict

    doc = migrate("checkpoint", doc)
    if doc.get("scope", "campaign") != "campaign":
        raise StorageError(
            f"{source}: shard-scoped checkpoint cannot restore a campaign by "
            "itself; shard chains are read via repro.store.shardstore "
            "(docs/storage.md)"
        )
    if doc.get("kind") == "delta":
        raise StorageError(
            f"{source}: delta checkpoint cannot restore a campaign by itself; "
            "resume resolves the latest keyframe (docs/storage.md)"
        )
    if doc.get("kind") != "keyframe":
        raise StorageError(
            f"{source}: checkpoint document has unknown kind {doc.get('kind')!r}"
        )
    try:
        completed_month = int(doc["completed_month"])
        config = dict(doc["config"])
        temperature = float(doc["temperature"])
        temp_rng_state = doc["temp_rng_state"]
        reference_docs = doc["references"]
        board_docs = doc["boards"]
        snapshot_docs = doc["snapshots"]
        counter_deltas = doc["counter_deltas"]
        pending_deltas = dict(doc["pending_deltas"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"{source}: malformed checkpoint: {exc}") from exc
    if completed_month < 0:
        raise StorageError(f"{source}: negative completed_month")
    if len(snapshot_docs) != completed_month + 1:
        raise StorageError(
            f"{source}: checkpoint for month {completed_month} has "
            f"{len(snapshot_docs)} snapshots, expected {completed_month + 1}"
        )
    if len(counter_deltas) != completed_month + 1:
        raise StorageError(
            f"{source}: checkpoint for month {completed_month} has "
            f"{len(counter_deltas)} counter-delta polls, expected {completed_month + 1}"
        )
    if set(reference_docs) != set(board_docs):
        raise StorageError(f"{source}: reference and board-state keys disagree")
    try:
        references = {
            int(board): unpack_bits_hex(entry["hex"], int(entry["bits"]))
            for board, entry in reference_docs.items()
        }
        boards = {int(board): dict(state) for board, state in board_docs.items()}
        snapshots = [_snapshot_from_dict(snapshot) for snapshot in snapshot_docs]
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"{source}: malformed checkpoint payload: {exc}") from exc
    check_board_state_docs(boards, source)
    return CheckpointState(
        completed_month=completed_month,
        config=config,
        temperature=temperature,
        temp_rng_state=temp_rng_state,
        references=references,
        snapshots=snapshots,
        counter_deltas=[dict(poll) for poll in counter_deltas],
        pending_deltas=pending_deltas,
        source=source,
        boards=boards,
    )


def load_latest_checkpoint(checkpoint_dir: str) -> CheckpointState:
    """Parse the newest resumable keyframe of a legacy campaign-scoped chain.

    Walks newest-first past delta files (their months are re-executed
    in memory) and past corrupt or truncated files — the classic
    kill-during-write residue, logged — to the newest keyframe that
    parses; raises :class:`~repro.errors.StorageError` when none does.
    """
    failures: List[str] = []
    deltas = 0
    for entry in scan_chain(checkpoint_dir, scope="campaign", newest_first=True):
        if entry.usable_keyframe:
            return entry.parsed
        if entry.error:
            logger.warning(
                "checkpoint %s is unusable (%s); falling back to the previous month",
                entry.name,
                entry.error,
            )
            failures.append(f"{entry.name}: {entry.error}")
        else:
            deltas += 1
    if deltas and not failures:
        failures.append(f"{deltas} delta checkpoint(s) but no keyframe to base them on")
    raise StorageError(
        f"no usable checkpoint in {checkpoint_dir}: "
        + ("; ".join(failures) or "no checkpoints found")
    )
