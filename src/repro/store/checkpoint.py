"""Checkpoint chain documents, the chain scan and the parent checkpointer.

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

:func:`scan_chain` is the one reader of a chain directory: the worker's
cold restore, the resume scan, :func:`compact_checkpoints` and
:func:`checkpoint_chain_report` all classify month files through it.
:class:`CampaignCheckpointer` is the parent side of the layout: it
clears the directory and writes the manifest at the start of a fresh
run, then appends one month record per completed month.

*Legacy directories.*  Before the sharded layout became the only
writer, the parent wrote one campaign-scoped file per month, schema
v1–v3.  Their parsers and ``load_latest_checkpoint`` live in
:mod:`repro.store.legacy`, imported only when a legacy file is met.

Monitor counters (``monitor.*``) and rollup counters (``rollup.*``)
are deliberately excluded from the stored counter polls: the resume
path replays every stored snapshot through the hub (observation +
poll, in order) and re-folds each month's rollup documents, which
regenerates them — and the full alert sequence — exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, StorageError
from repro.store.artifact import CHECKPOINT_FILE_RE, ArtifactStore
from repro.store.codecs import decode_float64_array, encode_float64_array
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


# Resume state ---------------------------------------------------------------

@dataclass
class CheckpointState:
    """A parsed, validated resume point — the month loop's resume input.

    One type for both layouts.  A legacy campaign-scoped keyframe
    (:mod:`repro.store.legacy`) carries the fleet's board states in
    ``boards``; a sharded resume leaves ``boards`` ``None`` (each
    worker restores its own shard) and carries the manifest's shard map
    and the parent log's month temperatures instead.
    """

    completed_month: int
    config: Dict[str, Any]
    temperature: float
    temp_rng_state: Optional[Dict[str, Any]]
    references: Dict[int, np.ndarray] = field(repr=False)
    snapshots: List[Any] = field(repr=False)
    counter_deltas: List[Dict[str, int]] = field(repr=False)
    pending_deltas: Dict[str, int] = field(repr=False)
    source: str = ""
    boards: Optional[Dict[int, Dict[str, Any]]] = field(default=None, repr=False)
    shard_boards: Tuple[Tuple[int, ...], ...] = ()
    temperatures: Tuple[float, ...] = ()


#: The sharded layout's name for :class:`CheckpointState`.
ShardedCheckpointState = CheckpointState


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


def check_board_state_docs(boards: Dict[int, Dict[str, Any]], source: str) -> None:
    """Reject keyframe board states that :func:`restore_chip` cannot restore."""
    for board, state in boards.items():
        rng_state = state.get("rng_state")
        if not (
            "skew_b64" in state
            and isinstance(rng_state, dict)
            and {"bit_generator", "state"} <= set(rng_state)
        ):
            raise StorageError(
                f"{source}: board {board} state (rng_state, skew_b64) is not "
                "a board_state_doc document"
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
    check_board_state_docs(boards, source)
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


# The chain scan -------------------------------------------------------------

@dataclass(frozen=True)
class ChainFile:
    """One month file of a chain directory, read and classified once.

    ``error`` is empty when the file is usable; ``parsed`` then holds
    its parsed document (keyframe state or delta).
    """

    month: int
    name: str
    kind: Optional[str] = None
    parsed: Any = field(default=None, repr=False)
    error: str = ""

    @property
    def usable_keyframe(self) -> bool:
        return self.kind == "keyframe" and not self.error


def scan_chain(
    chain_dir: str,
    scope: Optional[str] = None,
    newest_first: bool = False,
    max_month: Optional[int] = None,
) -> Iterator[ChainFile]:
    """Read and classify the month files of a chain directory.

    The one reader of ``month-NNNN.json`` files: each one at or below
    ``max_month`` is read once, migrated once and parsed by its scope's
    parser (legacy campaign-scoped files by :mod:`repro.store.legacy`).
    A file that does not parse, is not of ``scope`` (when given) or
    whose ``completed_month`` disagrees with its name is unusable.
    Lazy, so a ``newest_first`` caller stops reading where it likes.
    """
    store = ArtifactStore(chain_dir, create=False)
    listing = list_checkpoints(chain_dir)
    for month, name in reversed(listing) if newest_first else listing:
        if max_month is not None and month > max_month:
            continue
        kind = None
        try:
            doc = store.read_json(name)
            if not isinstance(doc, dict):
                raise StorageError("checkpoint file does not hold a JSON object")
            doc = migrate("checkpoint", doc)
            kind = doc.get("kind")
            if kind not in CHECKPOINT_KINDS:
                raise StorageError(f"checkpoint document has unknown kind {kind!r}")
            doc_scope = doc.get("scope", "campaign")
            if doc_scope not in CHECKPOINT_SCOPES:
                raise StorageError(f"unknown checkpoint scope {doc_scope!r}")
            if scope is not None and doc_scope != scope:
                raise StorageError(f"{doc_scope}-scoped file in a {scope} chain")
            if doc_scope == "shard":
                parsers = (parse_shard_checkpoint_doc, parse_shard_delta_doc)
            else:
                from repro.store import legacy

                parsers = (legacy.parse_checkpoint_doc, legacy.parse_delta_doc)
            parsed = parsers[kind == "delta"](doc, source=name)
            if int(doc["completed_month"]) != month:
                raise StorageError(
                    f"claims month {doc['completed_month']}, filename says {month}"
                )
        except StorageError as exc:
            yield ChainFile(month, name, kind, error=str(exc))
        else:
            yield ChainFile(month, name, kind, parsed)


def restore_points(entries: Iterable[ChainFile]) -> Dict[int, int]:
    """Each restorable month of a chain → the keyframe it restores from.

    Month ``M`` is restorable when a usable keyframe ``K <= M`` has
    usable deltas at every month ``K+1..M``; it restores from the newest
    such ``K``.  ``entries`` are month-ascending, as :func:`scan_chain`
    yields them by default.
    """
    points: Dict[int, int] = {}
    for entry in entries:
        if entry.usable_keyframe:
            points[entry.month] = entry.month
        elif not entry.error and entry.month - 1 in points:
            points[entry.month] = points[entry.month - 1]
    return points


def load_latest_shard_keyframe(
    shard_dir: str, max_month: Optional[int] = None
) -> ShardCheckpointState:
    """Parse the newest usable shard keyframe at or below ``max_month``.

    The worker's cold restore: it then deterministically replays the
    months after the keyframe.  ``max_month`` caps the search so a
    resume rolled back below a shard's newest files never restores
    state from the future.
    """
    failures: List[str] = []
    for entry in scan_chain(
        shard_dir, scope="shard", newest_first=True, max_month=max_month
    ):
        if entry.usable_keyframe:
            return entry.parsed
        if entry.error:
            failures.append(f"{entry.name}: {entry.error}")
    raise StorageError(
        f"no usable shard keyframe in {shard_dir}"
        + (f" at or below month {max_month}" if max_month is not None else "")
        + (": " + "; ".join(failures) if failures else "")
    )


# Checkpointer ---------------------------------------------------------------

def check_keyframe_every(keyframe_every: Any) -> int:
    """The keyframe-cadence rule: a positive ``int`` (``bool`` is not one)."""
    if (
        not isinstance(keyframe_every, int)
        or isinstance(keyframe_every, bool)
        or keyframe_every < 1
    ):
        raise ConfigurationError(
            f"keyframe_every must be a positive integer, got {keyframe_every!r}"
        )
    return keyframe_every


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
    records; resume follows it whatever the worker count.  The
    campaign validated ``config["keyframe_every"]``.
    """

    def __init__(
        self,
        checkpoint_dir: str,
        config: Dict[str, Any],
        profile_name: str,
        shard_boards,
    ):
        self.keyframe_every = config.get("keyframe_every", DEFAULT_KEYFRAME_EVERY)
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


# Chain maintenance ----------------------------------------------------------

def list_checkpoints(checkpoint_dir: str) -> List[Tuple[int, str]]:
    """``(month, filename)`` of every checkpoint present, month-ascending."""
    store = ArtifactStore(checkpoint_dir, create=False)
    found = []
    for name in store.entries():
        match = CHECKPOINT_FILE_RE.match(name)
        if match:
            found.append((int(match.group(1)), name))
    return sorted(found)


def compact_checkpoints(
    checkpoint_dir: str,
    keep_keyframes: int = 1,
    restore_month: Optional[int] = None,
) -> List[str]:
    """Prune checkpoint months no longer needed for resume.

    Keeps the newest ``keep_keyframes`` usable keyframes, the keyframe
    ``restore_month`` (a sharded resume's month) restores from, and
    every file from the oldest kept keyframe on; removes the rest and
    returns their names, month-ascending.  Refuses a chain with no
    usable keyframe or one that cannot restore ``restore_month`` —
    compaction must never destroy the last resumable state.
    """
    if keep_keyframes < 1:
        raise StorageError(f"keep_keyframes must be >= 1, got {keep_keyframes}")
    entries = list(scan_chain(checkpoint_dir))
    if not entries:
        raise StorageError(f"no checkpoints found in {checkpoint_dir}")
    keyframes = [entry.month for entry in entries if entry.usable_keyframe]
    if not keyframes:
        raise StorageError(
            f"cannot compact {checkpoint_dir}: no parseable keyframe — "
            "compaction would leave nothing to resume from"
        )
    cutoff = keyframes[-keep_keyframes:][0]
    if restore_month is not None:
        anchor = restore_points(entries).get(restore_month)
        if anchor is None:
            raise StorageError(
                f"cannot compact {checkpoint_dir}: it cannot restore month "
                f"{restore_month}, where resume restarts"
            )
        cutoff = min(cutoff, anchor)
    store = ArtifactStore(checkpoint_dir, create=False)
    removed = [entry.name for entry in entries if entry.month < cutoff]
    for name in removed:
        store.remove(name)
    logger.info(
        "compacted %s: removed %d checkpoint(s) below keyframe month %d",
        checkpoint_dir,
        len(removed),
        cutoff,
    )
    return removed


def checkpoint_chain_report(
    checkpoint_dir: str, restore_month: Optional[int] = None
) -> Dict[str, Any]:
    """Deep validation of a checkpoint directory's keyframe/delta chain.

    Backs the CLI's ``store inspect --deep``: every month file as
    :func:`scan_chain` parses it, plus each delta's base-file link.
    Returns::

        {"ok": bool, "resume_month": int | None, "entries": [
            {"name", "month", "kind", "status", "detail"}, ...]}

    where ``resume_month`` is the keyframe that ``restore_month`` —
    by default the chain's newest restorable month — restores from
    (``None``, and not ``ok``, when it cannot be restored).
    """
    entries = list(scan_chain(checkpoint_dir))
    present = {entry.month for entry in entries}
    entries_out: List[Dict[str, Any]] = []
    for entry in entries:
        error = entry.error
        if not error and entry.kind == "delta" and entry.month - 1 not in present:
            error = f"base month {entry.month - 1} is missing (broken chain)"
        if error:
            detail = error
        elif entry.kind == "keyframe":
            detail = f"{len(entry.parsed.boards)} boards"
        else:
            detail = f"delta on month {entry.month - 1}"
        entries_out.append(
            {
                "name": entry.name,
                "month": entry.month,
                "kind": entry.kind,
                "status": "error" if error else "ok",
                "detail": detail,
            }
        )
    points = restore_points(entries)
    if restore_month is None:
        restore_month = max(points, default=None)
    resume_month = points.get(restore_month)
    ok = resume_month is not None and all(
        entry["status"] == "ok" for entry in entries_out
    )
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


def __getattr__(name: str) -> Any:
    # The legacy loader lives in repro.store.legacy; the benchmark's
    # layer tracer (perfbench/layers.py) looks it up on this module.
    if name == "load_latest_checkpoint":
        from repro.store.legacy import load_latest_checkpoint

        return load_latest_checkpoint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
