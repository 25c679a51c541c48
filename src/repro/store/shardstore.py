"""Sharded campaign persistence: per-shard stores + merge-on-read.

The monolithic checkpoint chain writes the *whole fleet's* device
state from the parent process every month — O(fleet) serialized in one
writer, the last serial bottleneck at 100k boards.  The sharded layout
moves persistence into the workers: each month-window worker owns an
:class:`~repro.store.artifact.ArtifactStore` rooted at its shard
directory and writes its own keyframed checkpoint chain (v4
shard-scoped documents, :mod:`repro.store.checkpoint`) plus a
streaming JSONL results file, so the per-month write cost is
O(boards/shard) per worker and the parent persists only O(counters)::

    <checkpoint_dir>/
      campaign-manifest.json      # config, shard map, profile name
      campaign-log.jsonl          # one parent record per month:
                                  #   temperature, walk RNG, counter poll
      shards/
        shard-0000/
          stream.jsonl            # header, references, one rows record/month
          month-0000.json         # v4 shard keyframe (board state docs)
          month-0001.json         # v4 shard delta (marker)
          ...
        shard-0001/
          ...

Nothing fleet-shaped is ever written centrally; the monolithic
artifact is reassembled **on read**: :func:`merge_sharded_campaign`
folds the shard streams back together in fleet order and recomputes
the cross-board statistics (BCHD, PUF entropy) from the stored
first read-outs — pure deterministic functions — so the merged bytes
are identical to the single-writer artifact of the same campaign
(``store merge`` / ``load_campaign`` both route through it).

Resume is per-shard: each worker cold-restores from its *own* newest
keyframe and silently replays the at most ``keyframe_every - 1``
months in between (no counters touched — those months were already
counted).  :func:`load_sharded_checkpoint` picks the resume month
``R`` as the newest month that **every** shard and the parent log have
fully persisted, so a torn shard (kill mid-write) independently lowers
``R`` while intact shards just re-execute a few months, overwriting
their stale files byte-identically.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import StorageError
from repro.store.artifact import ArtifactStore
from repro.store.checkpoint import (
    ShardCheckpointState,
    build_shard_delta_doc,
    build_shard_keyframe_doc,
    checkpoint_kind,
    checkpoint_name,
    checkpoint_scope,
    CheckpointState,
    keyframe_due,
    list_checkpoints,
    load_latest_shard_keyframe,
    parse_shard_checkpoint_doc,
    parse_shard_delta_doc,
)
from repro.store.codecs import pack_bits_hex, unpack_bits_hex
from repro.store.schema import current_version, migrate

logger = logging.getLogger(__name__)

#: Fixed file names of the sharded layout.
SHARD_MANIFEST_NAME = "campaign-manifest.json"
PARENT_LOG_NAME = "campaign-log.jsonl"
SHARDS_DIR = "shards"
SHARD_STREAM_NAME = "stream.jsonl"


def shard_dir_name(shard_index: int) -> str:
    """Directory name of one shard, under ``shards/``."""
    if shard_index < 0 or shard_index > 9999:
        raise StorageError(f"shard index out of range: {shard_index}")
    return f"shard-{shard_index:04d}"


def shard_root(checkpoint_dir: str, shard_index: int) -> str:
    """Filesystem root of one shard's private store."""
    return os.path.join(checkpoint_dir, SHARDS_DIR, shard_dir_name(shard_index))


@dataclass(frozen=True)
class ShardStoreSpec:
    """One worker's persistence order, carried inside a WindowSpec.

    Plain picklable value (crosses the ``spawn`` boundary).  The
    ``temperatures`` tuple, sent with the first window after a resume,
    holds the snapshot temperature of every month before the window's
    — the restoring worker replays the months between its newest
    keyframe and the window with exactly these block temperatures,
    which keeps every board's draw sequence bit-identical to the
    uninterrupted run.
    """

    root: str
    shard_index: int
    keyframe_every: int
    months: int
    temperatures: Tuple[Optional[float], ...] = ()


@dataclass(frozen=True)
class ShardManifest:
    """The parsed campaign manifest of a sharded checkpoint directory."""

    config: Dict[str, Any] = field(repr=False)
    profile_name: str = ""
    keyframe_every: int = 6
    shard_boards: Tuple[Tuple[int, ...], ...] = ()

    @property
    def board_ids(self) -> List[int]:
        """The fleet's boards in fleet order."""
        return sorted(b for boards in self.shard_boards for b in boards)


def build_shard_manifest_doc(
    config: Dict[str, Any],
    profile_name: str,
    keyframe_every: int,
    shard_boards,
) -> Dict[str, Any]:
    """Assemble the canonical campaign manifest document."""
    return {
        "shard_manifest_version": current_version("shard-manifest"),
        "kind": "shard-manifest",
        "config": config,
        "profile_name": str(profile_name),
        "keyframe_every": int(keyframe_every),
        "shards": [
            {
                "index": index,
                "dir": f"{SHARDS_DIR}/{shard_dir_name(index)}",
                "board_ids": [int(board) for board in boards],
            }
            for index, boards in enumerate(shard_boards)
        ],
    }


def write_shard_manifest(
    checkpoint_dir: str,
    config: Dict[str, Any],
    profile_name: str,
    keyframe_every: int,
    shard_boards,
) -> str:
    """Atomically write the campaign manifest; returns its path."""
    store = ArtifactStore(checkpoint_dir)
    doc = build_shard_manifest_doc(config, profile_name, keyframe_every, shard_boards)
    return store.write_json(SHARD_MANIFEST_NAME, doc, sort_keys=True)


def load_shard_manifest(checkpoint_dir: str) -> ShardManifest:
    """Parse and validate the campaign manifest of a sharded directory."""
    store = ArtifactStore(checkpoint_dir, create=False)
    source = os.path.join(checkpoint_dir, SHARD_MANIFEST_NAME)
    doc = migrate("shard-manifest", store.read_json(SHARD_MANIFEST_NAME))
    try:
        config = dict(doc["config"])
        profile_name = str(doc["profile_name"])
        keyframe_every = int(doc["keyframe_every"])
        shards = doc["shards"]
        shard_boards = []
        for index, shard in enumerate(shards):
            if int(shard["index"]) != index:
                raise ValueError(f"shard {index} claims index {shard['index']}")
            shard_boards.append(tuple(int(board) for board in shard["board_ids"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"{source}: malformed shard manifest: {exc}") from exc
    seen: set = set()
    for boards in shard_boards:
        if seen & set(boards):
            raise StorageError(f"{source}: shard map assigns a board twice")
        seen |= set(boards)
    return ShardManifest(
        config=config,
        profile_name=profile_name,
        keyframe_every=keyframe_every,
        shard_boards=tuple(shard_boards),
    )


def is_sharded_checkpoint(checkpoint_dir: str) -> bool:
    """Whether a checkpoint directory uses the sharded layout."""
    return os.path.isfile(os.path.join(checkpoint_dir, SHARD_MANIFEST_NAME))


def reset_sharded_layout(checkpoint_dir: str) -> None:
    """Drop any previous sharded run's files from the directory.

    A fresh run must not leave a stale manifest, parent log or shard
    tree behind — resume auto-detects the layout from the manifest, so
    leftovers would shadow a later monolithic run in the same
    directory.
    """
    store = ArtifactStore(checkpoint_dir)
    for name in (SHARD_MANIFEST_NAME, PARENT_LOG_NAME):
        if store.exists(name):
            store.remove(name)
    shards_path = os.path.join(checkpoint_dir, SHARDS_DIR)
    if os.path.isdir(shards_path):
        shutil.rmtree(shards_path)


# Shard streams ---------------------------------------------------------------

def board_row_doc(row) -> Dict[str, Any]:
    """One board's monthly metric row as a JSON-native document.

    Floats round-trip exactly through JSON (shortest-repr encoding);
    the block's first read-out travels as hex + bit count like the
    reference read-outs, so the merged artifact's cross-board
    statistics are recomputed from bit-exact inputs.
    """
    return {
        "board": int(row.board_id),
        "wchd": float(row.wchd),
        "fhw": float(row.fhw),
        "stable_ratio": float(row.stable_ratio),
        "noise_entropy": float(row.noise_entropy),
        "first_hex": pack_bits_hex(row.first_readout),
        "first_bits": int(np.asarray(row.first_readout).size),
    }


def board_row_from_doc(doc: Dict[str, Any]):
    """Inverse of :func:`board_row_doc` — document → BoardMonthMetrics."""
    from repro.analysis.monthly import BoardMonthMetrics

    try:
        return BoardMonthMetrics(
            board_id=int(doc["board"]),
            wchd=float(doc["wchd"]),
            fhw=float(doc["fhw"]),
            stable_ratio=float(doc["stable_ratio"]),
            noise_entropy=float(doc["noise_entropy"]),
            first_readout=unpack_bits_hex(doc["first_hex"], int(doc["first_bits"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed board row document: {exc}") from exc


def persist_shard_window(
    spec: ShardStoreSpec,
    month: int,
    rows: Dict[int, Any],
    states: Dict[int, Dict[str, Any]],
    references: Dict[int, np.ndarray],
) -> None:
    """Persist one completed month of one shard, worker-side.

    Month 0 (re)starts the shard stream with its header and reference
    records.  Every month appends the metric rows record first and
    writes the chain file second — the chain file is the commit mark,
    so a crash between the two leaves a month the resume scan ignores.
    The chain file is a full keyframe iff
    :func:`~repro.store.checkpoint.keyframe_due` (the monolithic
    checkpointer's rule); ``states`` needs to cover the shard's boards
    only in those months.
    """
    store = ArtifactStore(spec.root)
    board_ids = sorted(rows)
    if month == 0:
        store.truncate(SHARD_STREAM_NAME)
        header = {
            "kind": "header",
            "shard_stream_version": current_version("shard-stream"),
            "shard_index": int(spec.shard_index),
            "months": int(spec.months),
            "board_ids": [int(board) for board in board_ids],
        }
        refs = {
            "kind": "references",
            "references": {
                str(board): pack_bits_hex(references[board]) for board in board_ids
            },
            "reference_bits": {
                str(board): int(np.asarray(references[board]).size)
                for board in board_ids
            },
        }
        store.append_jsonl_batch(SHARD_STREAM_NAME, [header, refs], sort_keys=True)
    store.append_jsonl(
        SHARD_STREAM_NAME,
        {
            "kind": "rows",
            "month": int(month),
            "rows": [board_row_doc(rows[board]) for board in board_ids],
        },
        sort_keys=True,
    )
    if keyframe_due(store, month, spec.keyframe_every):
        doc = build_shard_keyframe_doc(spec.shard_index, month, states)
    else:
        doc = build_shard_delta_doc(spec.shard_index, month)
    store.write_json(checkpoint_name(month), doc, sort_keys=True)
    logger.debug(
        "shard %d persisted month %d (%s)", spec.shard_index, month, doc["kind"]
    )


def _read_jsonl_tolerant(store: ArtifactStore, name: str) -> List[Dict[str, Any]]:
    """Parse a JSONL file up to (excluding) the first unreadable line.

    The classic kill-during-append residue is one torn final line;
    everything before it is intact, which is exactly what the resume
    scan wants to recover.
    """
    if not store.exists(name):
        return []
    records: List[Dict[str, Any]] = []
    for line in store.read_text(name).splitlines():
        if not line.strip():
            break
        try:
            record = json.loads(line)
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        records.append(record)
    return records


def read_shard_stream(
    shard_dir: str, strict: bool = True
) -> Tuple[Dict[str, Any], Dict[int, np.ndarray], Dict[int, Dict[int, Dict[str, Any]]]]:
    """Read one shard stream: ``(header, references, rows_by_month)``.

    ``rows_by_month[m][board]`` is the board's raw row document of
    month ``m``; months are contiguous from 0 (an out-of-order record
    ends the readable prefix).  ``strict`` raises on any torn or
    malformed tail; tolerant mode (the resume scan) keeps the intact
    prefix.
    """
    store = ArtifactStore(shard_dir, create=False)
    source = os.path.join(shard_dir, SHARD_STREAM_NAME)
    if strict:
        records = [
            record
            for record in store.read_jsonl(SHARD_STREAM_NAME)
            if isinstance(record, dict)
        ]
    else:
        records = _read_jsonl_tolerant(store, SHARD_STREAM_NAME)
    if not records:
        if strict:
            raise StorageError(f"{source}: empty shard stream")
        return {}, {}, {}
    header = records[0]
    if header.get("kind") != "header":
        raise StorageError(f"{source}: first record is not a shard stream header")
    header = migrate("shard-stream", header)
    if len(records) < 2 or records[1].get("kind") != "references":
        if strict:
            raise StorageError(f"{source}: header not followed by references record")
        return header, {}, {}
    try:
        refs = records[1]
        references = {
            int(board): unpack_bits_hex(
                payload, int(refs["reference_bits"][board])
            )
            for board, payload in refs["references"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"{source}: malformed references record: {exc}") from exc
    board_set = {int(board) for board in header.get("board_ids", [])}
    if board_set and set(references) != board_set:
        raise StorageError(f"{source}: references do not cover the shard's boards")
    rows_by_month: Dict[int, Dict[int, Dict[str, Any]]] = {}
    for index, record in enumerate(records[2:]):
        ok = record.get("kind") == "rows" and record.get("month") == index
        if ok:
            try:
                month_rows = {
                    int(doc["board"]): doc for doc in record["rows"]
                }
            except (KeyError, TypeError) as exc:
                if strict:
                    raise StorageError(
                        f"{source}: malformed rows record for month {index}: {exc}"
                    ) from exc
                break
            if board_set and set(month_rows) != board_set:
                if strict:
                    raise StorageError(
                        f"{source}: month {index} rows do not cover the shard"
                    )
                break
            rows_by_month[index] = month_rows
        elif strict:
            raise StorageError(
                f"{source}: unexpected record at position {index + 2} "
                f"(kind {record.get('kind')!r}, month {record.get('month')!r})"
            )
        else:
            break
    return header, references, rows_by_month


def truncate_shard_stream(shard_dir: str, through_month: int) -> None:
    """Rewrite a shard stream keeping only months ``0..through_month``.

    Records are re-encoded through the canonical writer path, so the
    kept prefix is byte-identical to what the original run wrote —
    the sharded counterpart of the monolithic stream rewind on resume.
    """
    store = ArtifactStore(shard_dir, create=False)
    records = _read_jsonl_tolerant(store, SHARD_STREAM_NAME)
    kept: List[Dict[str, Any]] = []
    for record in records:
        if record.get("kind") == "rows" and int(record.get("month", -1)) > through_month:
            break
        kept.append(record)
    store.truncate(SHARD_STREAM_NAME)
    if kept:
        store.append_jsonl_batch(SHARD_STREAM_NAME, kept, sort_keys=True)


# Parent month log ------------------------------------------------------------

def build_parent_month_record(
    month: int,
    temperature: float,
    temp_rng_state: Optional[Dict[str, Any]],
    counter_delta: Dict[str, int],
    pending_deltas: Dict[str, int],
) -> Dict[str, Any]:
    """The parent's per-month record — everything fleet-agnostic.

    O(counters), not O(fleet): the walk position, the month's counter
    poll, and the aging deltas still pending at the poll.  Device
    state lives in the shard keyframes, metric rows in the shard
    streams.
    """
    return {
        "kind": "month",
        "month": int(month),
        "temperature": float(temperature),
        "temp_rng_state": temp_rng_state,
        "counter_delta": dict(counter_delta),
        "pending_deltas": dict(pending_deltas),
    }


def append_parent_month_record(checkpoint_dir: str, record: Dict[str, Any]) -> None:
    """Append one month record to the parent log (fsync'd)."""
    store = ArtifactStore(checkpoint_dir)
    store.append_jsonl(PARENT_LOG_NAME, record, sort_keys=True)


def read_parent_log(checkpoint_dir: str) -> List[Dict[str, Any]]:
    """The parent log's contiguous month records, tolerant of torn tails."""
    store = ArtifactStore(checkpoint_dir, create=False)
    records = _read_jsonl_tolerant(store, PARENT_LOG_NAME)
    months: List[Dict[str, Any]] = []
    for index, record in enumerate(records):
        if record.get("kind") != "month" or record.get("month") != index:
            break
        if not isinstance(record.get("counter_delta"), dict):
            break
        if not isinstance(record.get("pending_deltas"), dict):
            break
        months.append(record)
    return months


def truncate_parent_log(checkpoint_dir: str, through_month: int) -> None:
    """Rewrite the parent log keeping only months ``0..through_month``."""
    store = ArtifactStore(checkpoint_dir, create=False)
    kept = read_parent_log(checkpoint_dir)[: through_month + 1]
    store.truncate(PARENT_LOG_NAME)
    if kept:
        store.append_jsonl_batch(PARENT_LOG_NAME, kept, sort_keys=True)


# Resume scan -----------------------------------------------------------------

@dataclass
class ShardedCheckpointState(CheckpointState):
    """Resume input of a sharded campaign.

    A :class:`~repro.store.checkpoint.CheckpointState` whose ``boards``
    values are all ``None`` — device state stays in the shard
    keyframes, each worker restores its own — plus the manifest's
    shard map and the temperature history the workers need for
    cold-restore replay.
    """

    shard_boards: Tuple[Tuple[int, ...], ...] = ()
    temperatures: Tuple[Optional[float], ...] = ()


def _shard_chain_end(shard_dir: str) -> int:
    """Newest month restorable from the shard's keyframe/delta chain.

    Mirrors the monolithic resume rule: month ``M`` is restorable when
    a parseable keyframe exists at some ``K <= M`` with parseable
    deltas at every month ``K+1..M``.  A compacted chain — months
    before the kept keyframe pruned by ``store compact`` — therefore
    still resumes from that keyframe forward.  Returns ``-1`` when no
    month is restorable.
    """
    store = ArtifactStore(shard_dir, create=False)
    present = dict(list_checkpoints(shard_dir))
    kinds: Dict[int, Optional[str]] = {}
    for month, name in present.items():
        try:
            doc = store.read_json(name)
            if checkpoint_scope(doc) != "shard":
                raise StorageError("campaign-scoped file in a shard chain")
            kind = checkpoint_kind(doc)
            if kind == "keyframe":
                state = parse_shard_checkpoint_doc(doc, source=name)
                if state.completed_month != month:
                    raise StorageError("filename/month mismatch")
            else:
                delta = parse_shard_delta_doc(doc, source=name)
                if delta["completed_month"] != month:
                    raise StorageError("filename/month mismatch")
            kinds[month] = kind
        except StorageError as exc:
            logger.warning(
                "shard chain %s: unusable month %d (%s)", shard_dir, month, exc
            )
            kinds[month] = None
    for month in sorted(present, reverse=True):
        cursor = month
        while kinds.get(cursor) == "delta":
            cursor -= 1
        if kinds.get(cursor) == "keyframe":
            return month
    return -1


def load_sharded_checkpoint(checkpoint_dir: str) -> ShardedCheckpointState:
    """Scan a sharded directory and build its resume state.

    The resume month ``R`` is the newest month that the parent log
    *and every shard* (chain file + stream rows) have fully,
    parseably persisted — a torn shard independently lowers ``R``;
    the others simply re-execute the difference, overwriting their
    stale files with byte-identical content.  Snapshots ``0..R`` are
    reassembled from the shard streams in fleet order (the cross-board
    statistics are recomputed deterministically), so the monitor
    replay — and with it the alert log — matches the uninterrupted
    run's.
    """
    from repro.analysis.monthly import assemble_evaluation

    manifest = load_shard_manifest(checkpoint_dir)
    config = manifest.config
    board_ids = manifest.board_ids
    try:
        months = int(config["months"])
        measurements = int(config["measurements"])
        walk = float(config["temperature_walk_k"]) > 0.0
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"{checkpoint_dir}: shard manifest has an unusable config: {exc}"
        ) from exc
    expected = set(range(len(board_ids)))
    if set(board_ids) != expected:
        raise StorageError(
            f"{checkpoint_dir}: shard map covers boards {board_ids}, "
            f"expected {sorted(expected)}"
        )

    parent_records = read_parent_log(checkpoint_dir)
    resume_month = len(parent_records) - 1

    references: Dict[int, np.ndarray] = {}
    rows_by_month: Dict[int, Dict[int, Dict[str, Any]]] = {}
    for index, shard_ids in enumerate(manifest.shard_boards):
        shard_dir = shard_root(checkpoint_dir, index)
        try:
            chain_end = _shard_chain_end(shard_dir)
            _header, shard_refs, shard_rows = read_shard_stream(
                shard_dir, strict=False
            )
        except StorageError as exc:
            # A shard directory that never materialized (or whose
            # stream opens with garbage) is just a shard with nothing
            # persisted — it lowers the resume month, nothing more.
            logger.warning("shard %d unreadable (%s)", index, exc)
            chain_end, shard_refs, shard_rows = -1, {}, {}
        if set(shard_refs) != set(shard_ids):
            chain_end = -1
        stream_end = -1
        while stream_end + 1 in shard_rows:
            stream_end += 1
        shard_end = min(chain_end, stream_end)
        if shard_end < resume_month:
            logger.info(
                "shard %d usable through month %d; lowering resume month",
                index,
                shard_end,
            )
            resume_month = shard_end
        references.update(shard_refs)
        for month, month_rows in shard_rows.items():
            rows_by_month.setdefault(month, {}).update(month_rows)

    if resume_month < 0:
        raise StorageError(
            f"no resumable sharded state in {checkpoint_dir}: the parent log "
            "or a shard has no complete month 0"
        )
    if resume_month > months:
        raise StorageError(
            f"{checkpoint_dir}: sharded state claims month {resume_month} of a "
            f"{months}-month campaign"
        )

    snapshots = []
    for month in range(resume_month + 1):
        month_rows = rows_by_month.get(month, {})
        if set(month_rows) != set(board_ids):
            raise StorageError(
                f"{checkpoint_dir}: month {month} rows do not cover the fleet"
            )
        snapshots.append(
            assemble_evaluation(
                month,
                measurements,
                [board_row_from_doc(month_rows[board]) for board in board_ids],
            )
        )

    record = parent_records[resume_month]
    temperatures = tuple(
        (float(parent_records[m]["temperature"]) if walk else None)
        for m in range(resume_month + 1)
    )
    return ShardedCheckpointState(
        completed_month=resume_month,
        config=config,
        temperature=float(record["temperature"]),
        temp_rng_state=record["temp_rng_state"],
        references={board: references[board] for board in board_ids},
        boards={board: None for board in board_ids},
        snapshots=snapshots,
        counter_deltas=[
            {str(k): int(v) for k, v in parent_records[m]["counter_delta"].items()}
            for m in range(resume_month + 1)
        ],
        pending_deltas={
            str(k): int(v) for k, v in record["pending_deltas"].items()
        },
        source=os.path.join(checkpoint_dir, SHARD_MANIFEST_NAME),
        shard_boards=manifest.shard_boards,
        temperatures=temperatures,
    )


def prepare_shard_resume(checkpoint_dir: str, state: ShardedCheckpointState) -> None:
    """Roll the on-disk sharded layout back to the resume month.

    Truncates the parent log and every shard stream to ``R`` so the
    re-executed months append exactly as the uninterrupted run would
    have — stale chain files beyond ``R`` are left in place and simply
    overwritten (byte-identically) as those months re-run.
    """
    truncate_parent_log(checkpoint_dir, state.completed_month)
    for index in range(len(state.shard_boards)):
        truncate_shard_stream(
            shard_root(checkpoint_dir, index), state.completed_month
        )


# Merge-on-read ---------------------------------------------------------------

def merge_sharded_campaign(checkpoint_dir: str):
    """Reassemble the monolithic campaign result from shard streams.

    Reads every shard's stream strictly (all months 0..months must be
    present — an unfinished campaign refuses to merge; resume it
    first), orders the per-board rows in fleet order, and recomputes
    the cross-board statistics exactly as the live driver does.  The
    returned :class:`~repro.analysis.campaign.CampaignResult`
    serializes byte-identically to the single-writer artifact
    (``save_campaign`` plain or stream) — the acceptance gate the
    property suite and the CI ``shard-store-smoke`` job pin.
    """
    from repro.analysis.campaign import CampaignResult
    from repro.analysis.monthly import assemble_evaluation

    manifest = load_shard_manifest(checkpoint_dir)
    config = manifest.config
    board_ids = manifest.board_ids
    try:
        months = int(config["months"])
        measurements = int(config["measurements"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"{checkpoint_dir}: shard manifest has an unusable config: {exc}"
        ) from exc

    references: Dict[int, np.ndarray] = {}
    rows_by_month: Dict[int, Dict[int, Dict[str, Any]]] = {}
    for index, shard_ids in enumerate(manifest.shard_boards):
        shard_dir = shard_root(checkpoint_dir, index)
        _header, shard_refs, shard_rows = read_shard_stream(shard_dir, strict=True)
        if set(shard_refs) != set(shard_ids):
            raise StorageError(
                f"{shard_dir}: stream covers boards {sorted(shard_refs)}, "
                f"manifest assigns {sorted(shard_ids)}"
            )
        missing = [m for m in range(months + 1) if m not in shard_rows]
        if missing:
            raise StorageError(
                f"{shard_dir}: incomplete shard stream (months {missing} "
                "missing) — resume the campaign before merging"
            )
        references.update(shard_refs)
        for month, month_rows in shard_rows.items():
            rows_by_month.setdefault(month, {}).update(month_rows)

    snapshots = [
        assemble_evaluation(
            month,
            measurements,
            [board_row_from_doc(rows_by_month[month][board]) for board in board_ids],
        )
        for month in range(months + 1)
    ]
    logger.info(
        "merged %d shards, %d boards, %d snapshots from %s",
        len(manifest.shard_boards),
        len(board_ids),
        len(snapshots),
        checkpoint_dir,
    )
    return CampaignResult(
        profile_name=manifest.profile_name,
        months=months,
        measurements=measurements,
        board_ids=list(board_ids),
        references={board: references[board] for board in board_ids},
        snapshots=snapshots,
    )
