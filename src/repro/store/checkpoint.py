"""Campaign checkpoint documents, the parent checkpointer and the readers.

A checkpointed campaign writes one layout (``docs/storage.md``): the
parent keeps a campaign manifest and an O(counters) month log, and
every shard keeps its own chain of ``month-NNNN.json`` files plus a
results stream (:mod:`repro.store.shardstore`).  This module holds the
chain documents and their rules:

*keyframes*
    Full device state of the shard's boards (per-board RNG draw
    position, aged per-cell skew, age, power-up count — see
    :func:`board_state_doc`).  Written every ``keyframe_every`` months
    (default :data:`DEFAULT_KEYFRAME_EVERY`), at month 0, and whenever
    the preceding month's file is absent (:func:`keyframe_due`).

*deltas*
    Payload-free markers between keyframes.  Per-cell skew is a dense
    float64 array whose month-over-month difference is exactly as large
    as the state itself, so "state deltas" would save nothing; resume
    instead restores the newest keyframe and deterministically
    re-executes the (at most ``keyframe_every - 1``) months after it.

:class:`CampaignCheckpointer` is the parent side of the layout: it
clears the directory and writes the manifest at the start of a fresh
run, then appends one month record per completed month.

*Legacy directories.*  Before the sharded layout became the only
writer, the parent wrote one campaign-scoped file per month — full
keyframes (config, references, every snapshot, counter polls, device
state) with results-only deltas in between, schema v1–v3.  Those
directories are read, never extended: :func:`load_latest_checkpoint`
parses the newest keyframe (through the v1→v4 migration chain) and
resume finishes the campaign without writing back;
:func:`checkpoint_chain_report` (``store inspect --deep``) and
:func:`compact_checkpoints` still read and prune them.

Monitor counters (``monitor.*``) and rollup counters (``rollup.*``)
are deliberately excluded from the stored counter polls: the resume
path replays every stored snapshot through the hub (observation +
poll, in order) and re-folds each month's rollup documents, which
regenerates them — and the full alert sequence — exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import StorageError
from repro.store.artifact import CHECKPOINT_FILE_RE, ArtifactStore
from repro.store.codecs import (
    decode_float64_array,
    encode_float64_array,
    unpack_bits_hex,
)
from repro.store.schema import current_version, migrate

logger = logging.getLogger(__name__)

#: Counter namespaces excluded from stored deltas (regenerated by replay).
#: ``monitor.*`` counters advance when the hub re-observes replayed
#: snapshots; ``rollup.*`` counters advance when the driver re-folds
#: each replayed month's rollup documents — storing either would
#: double-count on resume.
EXCLUDED_COUNTER_PREFIXES = ("monitor.", "rollup.")

#: Full-state keyframe cadence: one keyframe every this many months.
DEFAULT_KEYFRAME_EVERY = 6

#: Valid ``kind`` values of a v2 checkpoint document.
CHECKPOINT_KINDS = ("keyframe", "delta")

#: Valid ``scope`` values of a v4 checkpoint document: ``"campaign"``
#: (the legacy single-writer chain) or ``"shard"`` (one
#: chain per worker shard under ``shards/<shard-dir>/``).
CHECKPOINT_SCOPES = ("campaign", "shard")


def checkpoint_name(month: int) -> str:
    """Filename of the checkpoint written after completing ``month``."""
    if month < 0 or month > 9999:
        raise StorageError(f"checkpoint month out of range: {month}")
    return f"month-{month:04d}.json"


# Board state ----------------------------------------------------------------

def board_state_doc(chip) -> Dict[str, Any]:
    """One board's complete device state as a JSON-native document.

    The RNG state travels as numpy's bit-generator state dict (plain
    ints, exact); the aged skew as base64 of its float64 bytes (exact);
    age and power-up count as scalars.  Restoring via
    :func:`restore_chip` reproduces the board's future draws bit for
    bit.
    """
    return board_state_to_doc(chip.array.export_state())


def board_state_to_doc(state: Dict[str, Any]) -> Dict[str, Any]:
    """Serialize a raw device state (``SRAMArray.export_state`` form).

    Shared by both device models — :func:`board_state_doc` passes a
    chip's exported array state, the campaign a
    :meth:`~repro.sram.fleetkernel.FleetKernel.export_states` entry —
    so a chip and its kernel row serialize to the same bytes.
    """
    return {
        "rng_state": state["rng_state"],
        "skew_b64": encode_float64_array(state["skew_v"]),
        "age_seconds": state["age_seconds"],
        "power_up_count": state["power_up_count"],
    }


def board_state_from_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`board_state_to_doc`: document → raw state."""
    try:
        return {
            "rng_state": doc["rng_state"],
            "skew_v": decode_float64_array(doc["skew_b64"]),
            "age_seconds": doc["age_seconds"],
            "power_up_count": doc["power_up_count"],
        }
    except KeyError as exc:
        raise StorageError(f"board state document missing field {exc}") from exc


def restore_chip(board_id: int, profile, doc: Dict[str, Any]):
    """Rebuild a chip from :func:`board_state_doc` output.

    The chip is constructed with a throwaway seed — every draw-relevant
    field is then overwritten from the document.
    """
    from repro.sram.chip import SRAMChip

    state = board_state_from_doc(doc)
    chip = SRAMChip(board_id, profile, random_state=0)
    try:
        chip.array.restore_state(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"cannot restore board {board_id} state: {exc}"
        ) from exc
    return chip


# Checkpoint document ---------------------------------------------------------

@dataclass
class CheckpointState:
    """A parsed, validated checkpoint — the month loop's resume input."""

    completed_month: int
    config: Dict[str, Any]
    temperature: float
    temp_rng_state: Optional[Dict[str, Any]]
    references: Dict[int, np.ndarray] = field(repr=False)
    boards: Dict[int, Dict[str, Any]] = field(repr=False)
    snapshots: List[Any] = field(repr=False)
    counter_deltas: List[Dict[str, int]] = field(repr=False)
    pending_deltas: Dict[str, int] = field(repr=False)
    source: str = ""


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


def checkpoint_kind(doc: Dict[str, Any]) -> str:
    """``"keyframe"`` or ``"delta"`` of a (migrated) checkpoint document."""
    migrated = migrate("checkpoint", doc)
    kind = migrated.get("kind")
    if kind not in CHECKPOINT_KINDS:
        raise StorageError(f"checkpoint document has unknown kind {kind!r}")
    return kind


def checkpoint_scope(doc: Dict[str, Any]) -> str:
    """``"campaign"`` or ``"shard"`` of a (migrated) checkpoint document.

    Pre-v4 documents carry no scope field; they are campaign-scoped by
    definition, which is what the v3→v4 migration stamps.
    """
    migrated = migrate("checkpoint", doc)
    scope = migrated.get("scope", "campaign")
    if scope not in CHECKPOINT_SCOPES:
        raise StorageError(f"checkpoint document has unknown scope {scope!r}")
    return scope


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


def parse_checkpoint_doc(doc: Dict[str, Any], source: str = "<checkpoint>") -> CheckpointState:
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
    return CheckpointState(
        completed_month=completed_month,
        config=config,
        temperature=temperature,
        temp_rng_state=temp_rng_state,
        references=references,
        boards=boards,
        snapshots=snapshots,
        counter_deltas=[dict(poll) for poll in counter_deltas],
        pending_deltas=pending_deltas,
        source=source,
    )


# Shard-scoped chain documents (v4) ------------------------------------------

@dataclass
class ShardCheckpointState:
    """A parsed shard keyframe — one worker shard's device state."""

    completed_month: int
    shard_index: int
    board_ids: List[int]
    boards: Dict[int, Dict[str, Any]] = field(repr=False)
    source: str = ""


def build_shard_keyframe_doc(
    shard_index: int,
    completed_month: int,
    boards: Dict[int, Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble a shard-scoped full-state *keyframe* document.

    Shard chains carry only their boards' device state — the campaign
    config, snapshots, references and counter polls live in the parent
    manifest, shard streams and parent month log
    (:mod:`repro.store.shardstore`), which is what makes the per-month
    write O(boards/shard) instead of O(fleet).
    """
    return {
        "checkpoint_version": current_version("checkpoint"),
        "kind": "keyframe",
        "scope": "shard",
        "shard_index": int(shard_index),
        "completed_month": int(completed_month),
        "board_ids": [int(board) for board in boards],
        "boards": {str(board): doc for board, doc in boards.items()},
    }


def build_shard_delta_doc(shard_index: int, completed_month: int) -> Dict[str, Any]:
    """Assemble a shard-scoped per-month *delta* marker.

    A shard delta carries no payload at all: the month's metric rows
    went to the shard stream, the counter poll to the parent log.  The
    file exists so the shard chain attests — contiguously from month
    0 — which months this shard has fully persisted, and so the
    keyframe-cadence decision (``month % keyframe_every == 0 or the
    previous file is absent``) stays deterministic across resumes.
    """
    if completed_month < 1:
        raise StorageError(
            f"delta checkpoints need a preceding month, got month {completed_month}"
        )
    return {
        "checkpoint_version": current_version("checkpoint"),
        "kind": "delta",
        "scope": "shard",
        "shard_index": int(shard_index),
        "completed_month": int(completed_month),
        "base_month": int(completed_month) - 1,
    }


def parse_shard_checkpoint_doc(
    doc: Dict[str, Any], source: str = "<shard-checkpoint>"
) -> ShardCheckpointState:
    """Validate and decode a shard-scoped keyframe document."""
    doc = migrate("checkpoint", doc)
    if doc.get("scope", "campaign") != "shard":
        raise StorageError(f"{source}: not a shard-scoped checkpoint")
    if doc.get("kind") != "keyframe":
        raise StorageError(
            f"{source}: shard delta carries no device state; resume resolves "
            "the newest shard keyframe"
        )
    try:
        completed_month = int(doc["completed_month"])
        shard_index = int(doc["shard_index"])
        board_ids = [int(board) for board in doc["board_ids"]]
        boards = {int(board): dict(state) for board, state in doc["boards"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"{source}: malformed shard checkpoint: {exc}") from exc
    if completed_month < 0:
        raise StorageError(f"{source}: negative completed_month")
    if set(board_ids) != set(boards):
        raise StorageError(f"{source}: board_ids and board-state keys disagree")
    for board, state in boards.items():
        if "rng_state" not in state or "skew_b64" not in state:
            raise StorageError(
                f"{source}: board {board} state is not a board_state_doc document"
            )
    return ShardCheckpointState(
        completed_month=completed_month,
        shard_index=shard_index,
        board_ids=board_ids,
        boards=boards,
        source=source,
    )


def parse_shard_delta_doc(
    doc: Dict[str, Any], source: str = "<shard-delta>"
) -> Dict[str, Any]:
    """Validate a shard-scoped delta marker; returns the migrated doc."""
    doc = migrate("checkpoint", doc)
    if doc.get("scope", "campaign") != "shard":
        raise StorageError(f"{source}: not a shard-scoped delta")
    if doc.get("kind") != "delta":
        raise StorageError(f"{source}: not a delta checkpoint")
    try:
        completed_month = int(doc["completed_month"])
        base_month = int(doc["base_month"])
        int(doc["shard_index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"{source}: malformed shard delta: {exc}") from exc
    if base_month != completed_month - 1:
        raise StorageError(
            f"{source}: shard delta for month {completed_month} bases on "
            f"month {base_month}, expected {completed_month - 1}"
        )
    return doc


def load_latest_shard_keyframe(
    shard_dir: str, max_month: Optional[int] = None
) -> ShardCheckpointState:
    """Parse the newest usable shard keyframe at or below ``max_month``.

    The shard-chain counterpart of :func:`load_latest_checkpoint`:
    deltas and corrupt files are skipped newest-first; the caller
    (a window worker cold-restoring its shard, or the sharded resume
    scan) then deterministically replays the skipped months.
    ``max_month`` caps the search so a resume rolled back below a
    shard's newest files never restores state from the future.
    """
    store = ArtifactStore(shard_dir, create=False)
    candidates = sorted(list_checkpoints(shard_dir), reverse=True)
    failures: List[str] = []
    for month, name in candidates:
        if max_month is not None and month > max_month:
            continue
        try:
            doc = store.read_json(name)
            if checkpoint_kind(doc) == "delta":
                continue
            state = parse_shard_checkpoint_doc(doc, source=name)
        except StorageError as exc:
            failures.append(f"{name}: {exc}")
            continue
        if state.completed_month != month:
            failures.append(f"{name}: filename/month mismatch")
            continue
        return state
    raise StorageError(
        f"no usable shard keyframe in {shard_dir}"
        + (f" at or below month {max_month}" if max_month is not None else "")
        + (": " + "; ".join(failures) if failures else "")
    )


# Checkpointer / legacy loader -----------------------------------------------

def keyframe_due(store: ArtifactStore, month: int, keyframe_every: int) -> bool:
    """Whether month ``month``'s chain file in ``store`` is a full keyframe.

    The keyframe rule of every chain: month ``m`` is a keyframe iff
    ``m % keyframe_every == 0`` *or* the month-``m-1`` file is absent.
    The second clause keeps standalone saves resumable and is
    deterministic across straight and resumed runs —
    resume re-executes from a keyframe, so the preceding file always
    exists for exactly the months where it existed in the
    uninterrupted run.
    """
    return month % keyframe_every == 0 or not store.exists(checkpoint_name(month - 1))


class CampaignCheckpointer:
    """The parent side of a checkpointed campaign.

    The shard workers persist device state and metric rows themselves
    (:func:`repro.store.shardstore.persist_shard_window`); the parent
    writes only the campaign manifest — :meth:`reset`, once per fresh
    run — and one O(counters) month record per completed month
    (:meth:`save`).  ``shard_boards`` is the shard map the manifest
    records; resume follows it whatever the worker count.
    """

    def __init__(
        self,
        checkpoint_dir: str,
        config: Dict[str, Any],
        profile_name: str,
        shard_boards,
    ):
        keyframe_every = config.get("keyframe_every", DEFAULT_KEYFRAME_EVERY)
        if not isinstance(keyframe_every, int) or isinstance(keyframe_every, bool) or keyframe_every < 1:
            raise StorageError(
                f"keyframe_every must be a positive integer, got {keyframe_every!r}"
            )
        self.keyframe_every = keyframe_every
        self._dir = checkpoint_dir
        self._config = dict(config)
        self._profile_name = profile_name
        self._shard_boards = shard_boards

    def reset(self) -> None:
        """Clear the directory of any previous run, then write the manifest.

        A fresh run must not leave a stale run's files behind — resume
        reads whatever it finds.
        """
        from repro.store.shardstore import reset_sharded_layout, write_shard_manifest

        reset_sharded_layout(self._dir)
        write_shard_manifest(
            self._dir,
            self._config,
            self._profile_name,
            self.keyframe_every,
            self._shard_boards,
        )

    def save(
        self,
        completed_month: int,
        temperature: float,
        temp_rng_state: Optional[Dict[str, Any]],
        counter_delta: Dict[str, int],
        pending_deltas: Dict[str, int],
    ) -> None:
        """Append the parent record of ``completed_month`` to the month log.

        The month's device state and rows are already on disk, written
        by the shards; the record adds the walk position, the month's
        counter poll and the aging deltas still pending at the poll.
        """
        from repro.store.shardstore import (
            append_parent_month_record,
            build_parent_month_record,
        )

        append_parent_month_record(
            self._dir,
            build_parent_month_record(
                completed_month,
                temperature,
                temp_rng_state,
                counter_delta,
                pending_deltas,
            ),
        )
        logger.debug("checkpoint saved: month %d", completed_month)


def list_checkpoints(checkpoint_dir: str) -> List[Tuple[int, str]]:
    """``(month, filename)`` of every checkpoint present, month-ascending."""
    store = ArtifactStore(checkpoint_dir, create=False)
    found = []
    for name in store.entries():
        match = CHECKPOINT_FILE_RE.match(name)
        if match:
            found.append((int(match.group(1)), name))
    return sorted(found)


def load_latest_checkpoint(checkpoint_dir: str) -> CheckpointState:
    """Parse the newest resumable keyframe of a legacy campaign-scoped chain.

    Only keyframes carry the device state resume needs, so the search
    walks newest-first past any delta files to the newest keyframe; the
    campaign driver then deterministically re-executes the skipped
    months in memory (a legacy directory is never written to).  A
    corrupt or truncated newest file (the classic kill-during-write
    residue) is logged and skipped in favour of the previous month;
    only when no keyframe parses does this raise
    :class:`~repro.errors.StorageError`.
    """
    store = ArtifactStore(checkpoint_dir, create=False)
    candidates = sorted(list_checkpoints(checkpoint_dir), reverse=True)
    if not candidates:
        raise StorageError(f"no checkpoints found in {checkpoint_dir}")
    failures: List[str] = []
    skipped_deltas = 0
    for month, name in candidates:
        try:
            doc = store.read_json(name)
            if checkpoint_kind(doc) == "delta":
                skipped_deltas += 1
                logger.debug(
                    "checkpoint %s is a delta; continuing to the newest keyframe",
                    name,
                )
                continue
            state = parse_checkpoint_doc(doc, source=name)
        except StorageError as exc:
            logger.warning(
                "checkpoint %s is unusable (%s); falling back to the previous month",
                name,
                exc,
            )
            failures.append(f"{name}: {exc}")
            continue
        if state.completed_month != month:
            logger.warning(
                "checkpoint %s claims month %d; skipping", name, state.completed_month
            )
            failures.append(f"{name}: filename/month mismatch")
            continue
        if skipped_deltas:
            logger.info(
                "resuming from keyframe %s; %d newer delta month(s) will be "
                "re-executed deterministically",
                name,
                skipped_deltas,
            )
        return state
    if skipped_deltas and not failures:
        failures.append(
            f"{skipped_deltas} delta checkpoint(s) but no keyframe to base them on"
        )
    raise StorageError(
        f"no usable checkpoint in {checkpoint_dir}: " + "; ".join(failures)
    )


def compact_checkpoints(checkpoint_dir: str, keep_keyframes: int = 1) -> List[str]:
    """Prune checkpoint months no longer needed for resume.

    Keeps the newest ``keep_keyframes`` *parseable* keyframes and every
    file from the oldest kept keyframe onward (those deltas are what
    resume re-executes); everything older is removed.  Returns the
    removed filenames, month-ascending.  Refuses to touch a directory
    with no parseable keyframe — compaction must never destroy the last
    resumable state.
    """
    if keep_keyframes < 1:
        raise StorageError(f"keep_keyframes must be >= 1, got {keep_keyframes}")
    store = ArtifactStore(checkpoint_dir, create=False)
    entries = list_checkpoints(checkpoint_dir)
    if not entries:
        raise StorageError(f"no checkpoints found in {checkpoint_dir}")
    keyframe_months: List[int] = []
    for month, name in entries:
        try:
            doc = store.read_json(name)
            if checkpoint_kind(doc) == "keyframe":
                if checkpoint_scope(doc) == "shard":
                    parse_shard_checkpoint_doc(doc, source=name)
                else:
                    parse_checkpoint_doc(doc, source=name)
                keyframe_months.append(month)
        except StorageError:
            continue
    if not keyframe_months:
        raise StorageError(
            f"cannot compact {checkpoint_dir}: no parseable keyframe — "
            "compaction would leave nothing to resume from"
        )
    cutoff = sorted(keyframe_months)[-keep_keyframes:][0]
    removed = [name for month, name in entries if month < cutoff]
    for name in removed:
        store.remove(name)
    logger.info(
        "compacted %s: removed %d checkpoint(s) below keyframe month %d",
        checkpoint_dir,
        len(removed),
        cutoff,
    )
    return removed


def checkpoint_chain_report(checkpoint_dir: str) -> Dict[str, Any]:
    """Deep validation of a checkpoint directory's keyframe/delta chain.

    Backs the CLI's ``store inspect --deep``.  Every month file is
    parsed at full strictness (snapshot counts, counter-poll counts,
    reference/board agreement); keyframes additionally get their
    per-board RNG state shape checked, deltas their base-file chain
    link.  Returns::

        {"ok": bool, "resume_month": int | None, "entries": [
            {"name", "month", "kind", "status", "detail"}, ...]}

    where ``resume_month`` is the newest parseable keyframe's month —
    what :func:`load_latest_checkpoint` would resume from.
    """
    store = ArtifactStore(checkpoint_dir, create=False)
    entries_out: List[Dict[str, Any]] = []
    months_present = {month for month, _ in list_checkpoints(checkpoint_dir)}
    resume_month: Optional[int] = None
    ok = True
    for month, name in list_checkpoints(checkpoint_dir):
        entry: Dict[str, Any] = {"name": name, "month": month, "kind": None}
        try:
            doc = store.read_json(name)
            kind = checkpoint_kind(doc)
            entry["kind"] = kind
            sharded = checkpoint_scope(doc) == "shard"
            if kind == "keyframe" and sharded:
                shard_state = parse_shard_checkpoint_doc(doc, source=name)
                if shard_state.completed_month != month:
                    raise StorageError(
                        f"claims month {shard_state.completed_month}, "
                        f"filename says {month}"
                    )
                for board, board_doc in shard_state.boards.items():
                    rng_state = board_doc.get("rng_state")
                    if (
                        not isinstance(rng_state, dict)
                        or "bit_generator" not in rng_state
                        or "state" not in rng_state
                    ):
                        raise StorageError(
                            f"board {board} rng_state is not a bit-generator "
                            "state document"
                        )
                entry["detail"] = (
                    f"shard {shard_state.shard_index}: "
                    f"{len(shard_state.boards)} boards"
                )
                resume_month = month if resume_month is None else max(resume_month, month)
            elif kind == "keyframe":
                state = parse_checkpoint_doc(doc, source=name)
                if state.completed_month != month:
                    raise StorageError(
                        f"claims month {state.completed_month}, filename says {month}"
                    )
                for board, board_doc in state.boards.items():
                    rng_state = board_doc.get("rng_state")
                    if (
                        not isinstance(rng_state, dict)
                        or "bit_generator" not in rng_state
                        or "state" not in rng_state
                    ):
                        raise StorageError(
                            f"board {board} rng_state is not a bit-generator "
                            "state document"
                        )
                entry["detail"] = (
                    f"{len(state.boards)} boards, {len(state.snapshots)} snapshots"
                )
                resume_month = month if resume_month is None else max(resume_month, month)
            elif sharded:
                delta = parse_shard_delta_doc(doc, source=name)
                if delta["completed_month"] != month:
                    raise StorageError(
                        f"claims month {delta['completed_month']}, "
                        f"filename says {month}"
                    )
                if delta["base_month"] not in months_present:
                    raise StorageError(
                        f"base month {delta['base_month']} is missing from the "
                        "directory (broken chain)"
                    )
                entry["detail"] = f"shard delta on month {delta['base_month']}"
            else:
                record = parse_delta_doc(doc, source=name)
                if record.completed_month != month:
                    raise StorageError(
                        f"claims month {record.completed_month}, filename says {month}"
                    )
                if record.base_month not in months_present:
                    raise StorageError(
                        f"base month {record.base_month} is missing from the "
                        "directory (broken chain)"
                    )
                entry["detail"] = f"delta on month {record.base_month}"
        except StorageError as exc:
            entry["status"] = "error"
            entry["detail"] = str(exc)
            ok = False
        else:
            entry["status"] = "ok"
        entries_out.append(entry)
    if resume_month is None:
        ok = False
    return {"ok": ok, "resume_month": resume_month, "entries": entries_out}


# Counter-delta recording -----------------------------------------------------

class CounterDeltaRecorder:
    """Per-poll deltas of a registry's counters (monitor.* excluded).

    The windowed campaign driver records, at every monthly poll, how
    much each telemetry counter advanced since the previous poll; the
    stored sequence lets a resumed process replay its registry to the
    exact per-poll values the interrupted process saw — which is what
    keeps ``rate:`` alert rules and exported metrics byte-identical
    across an interruption.
    """

    def __init__(self, registry, exclude_prefixes=EXCLUDED_COUNTER_PREFIXES):
        self._registry = registry
        self._exclude = tuple(exclude_prefixes)
        self._baseline: Dict[str, int] = {}
        self.rebase()

    def _counter_values(self) -> Dict[str, int]:
        return {
            name: int(doc["value"])
            for name, doc in self._registry.snapshot().items()
            if doc["type"] == "counter" and not name.startswith(self._exclude)
        }

    def rebase(self) -> None:
        """Make the current counter values the new comparison baseline."""
        self._baseline = self._counter_values()

    def take(self) -> Dict[str, int]:
        """Deltas since the last ``take``/``rebase`` (zero deltas omitted)."""
        values = self._counter_values()
        deltas = {
            name: value - self._baseline.get(name, 0)
            for name, value in values.items()
            if value - self._baseline.get(name, 0)
        }
        self._baseline = values
        return deltas


def fold_counter_deltas(registry, deltas: Dict[str, int]) -> None:
    """Add recorded deltas into a registry's counters (sorted order)."""
    for name in sorted(deltas):
        registry.counter(name).inc(deltas[name])
