"""The checkpoint layout: per-shard stores + merge-on-read.

Every checkpointed campaign persists through the workers: each
month-window worker owns an :class:`~repro.store.artifact.ArtifactStore`
rooted at its shard directory and writes its own keyframed checkpoint
chain (v4 shard-scoped documents, :mod:`repro.store.checkpoint`) plus a
streaming JSONL results file, so the per-month write cost is
O(boards/shard) per worker and the parent persists only O(counters).
A serial run is the one-shard case::

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

Nothing fleet-shaped is ever written centrally; the campaign
artifact is reassembled **on read**: :func:`merge_sharded_campaign`
folds the shard streams back together in fleet order and recomputes
the cross-board statistics (BCHD, PUF entropy) from the stored
first read-outs — pure deterministic functions — so the merged bytes
are identical to the artifact saved from the live result
(``store merge`` / ``load_campaign`` both route through it).  Merge
and resume share one gather step, :func:`read_shard_tree` (strict for
merge, tolerant for resume).

Resume is per-shard: each worker cold-restores from its *own* newest
keyframe and silently replays the at most ``keyframe_every - 1``
months in between (no counters touched — those months were already
counted).  :func:`load_sharded_checkpoint` picks the resume month
``R`` as the newest month that **every** shard and the parent log have
fully persisted and every shard chain can restore, so a torn shard
(kill mid-write) independently lowers ``R`` while intact shards just
re-execute a few months, overwriting their stale files
byte-identically.  ``store compact`` (:func:`compact_sharded_checkpoint`)
and ``store inspect --deep`` start from the same ``R``.
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
from repro.store.artifact import CHECKPOINT_FILE_RE, ArtifactStore
from repro.store.checkpoint import (
    DEFAULT_KEYFRAME_EVERY,
    CheckpointState,
    build_shard_delta_doc,
    build_shard_keyframe_doc,
    checkpoint_name,
    compact_checkpoints,
    keyframe_due,
    restore_points,
    scan_chain,
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
    keyframe_every: int = DEFAULT_KEYFRAME_EVERY
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
    """Drop any previous run's files from the directory.

    Removes the manifest, the parent log, the shard tree, a legacy
    campaign-scoped chain and stray temporary files.  A fresh run must
    not leave a stale run behind: resume tells the layouts apart by the
    manifest and reads whatever months it finds.
    """
    store = ArtifactStore(checkpoint_dir)
    for name in store.entries():
        if name in (SHARD_MANIFEST_NAME, PARENT_LOG_NAME) or CHECKPOINT_FILE_RE.match(name):
            store.remove(name)
    store.clean_stray_tmp_files()
    shards_path = os.path.join(checkpoint_dir, SHARDS_DIR)
    if os.path.isdir(shards_path):
        shutil.rmtree(shards_path)


# Shard streams ---------------------------------------------------------------

def rows_record_doc(month: int, rows) -> Dict[str, Any]:
    """One shard-month's metric rows record, one document per board.

    ``rows`` is the shard's :class:`~repro.analysis.monthly.FleetMonthMetrics`
    in board order.  Floats round-trip exactly through JSON
    (shortest-repr encoding); each board's first read-out travels as
    hex + bit count like the reference read-outs, so the merged
    artifact's cross-board statistics are recomputed from bit-exact
    inputs.  The matrix is checked and packed once for all boards.
    """
    first = np.ascontiguousarray(rows.first_readouts, dtype=np.uint8)
    bits = first.shape[1]
    if bits % 8 != 0:
        raise StorageError(f"bit count must be a multiple of 8, got {bits}")
    if first.size and first.max() > 1:
        raise StorageError("bit vector may only contain 0 and 1")
    text = np.packbits(first, axis=1).tobytes().hex()
    width = bits // 4
    return {
        "kind": "rows",
        "month": int(month),
        "rows": [
            {
                "board": int(board),
                "wchd": wchd,
                "fhw": fhw,
                "stable_ratio": stable_ratio,
                "noise_entropy": noise_entropy,
                "first_hex": text[index * width : (index + 1) * width],
                "first_bits": bits,
            }
            for index, (board, wchd, fhw, stable_ratio, noise_entropy) in enumerate(
                zip(
                    rows.board_ids,
                    rows.wchd.tolist(),
                    rows.fhw.tolist(),
                    rows.stable_ratio.tolist(),
                    rows.noise_entropy.tolist(),
                )
            )
        ],
    }


def rows_from_docs(docs: List[Dict[str, Any]]):
    """Inverse of :func:`rows_record_doc`'s ``rows`` — one record for all boards.

    Raises :class:`~repro.errors.StorageError` on a malformed document
    or read-outs of different lengths.
    """
    from repro.analysis.monthly import FleetMonthMetrics

    try:
        bits = {int(doc["first_bits"]) for doc in docs}
        if len(bits) > 1:
            raise ValueError(f"read-outs of different lengths {sorted(bits)}")
        bit_count = bits.pop() if bits else 0
        width = -(-bit_count // 8)
        hexes = [doc["first_hex"] for doc in docs]
        if any(len(payload) != 2 * width for payload in hexes):
            raise ValueError(f"a read-out payload is not {width} bytes of hex")
        packed = np.frombuffer(bytes.fromhex("".join(hexes)), dtype=np.uint8)
        return FleetMonthMetrics(
            board_ids=tuple(int(doc["board"]) for doc in docs),
            wchd=np.array([doc["wchd"] for doc in docs], dtype=np.float64),
            fhw=np.array([doc["fhw"] for doc in docs], dtype=np.float64),
            stable_ratio=np.array(
                [doc["stable_ratio"] for doc in docs], dtype=np.float64
            ),
            noise_entropy=np.array(
                [doc["noise_entropy"] for doc in docs], dtype=np.float64
            ),
            first_readouts=np.unpackbits(
                packed.reshape(len(docs), width), axis=1, count=bit_count
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed board row document: {exc}") from exc


def persist_shard_window(
    spec: ShardStoreSpec,
    month: int,
    rows,
    states: Dict[int, Dict[str, Any]],
    references: Dict[int, np.ndarray],
) -> None:
    """Persist one completed month of one shard, worker-side.

    ``rows`` is the shard's month as one
    :class:`~repro.analysis.monthly.FleetMonthMetrics`; the stream
    keeps its boards in ascending id order.  Month 0 (re)starts the
    shard stream with its header and reference records
    (``references`` is only read then).  Every month appends the metric
    rows record first and writes the chain file second — the chain
    file is the commit mark, so a crash between the two leaves a month
    the resume scan ignores.  The chain file is a full keyframe iff
    :func:`~repro.store.checkpoint.keyframe_due`; ``states`` needs to
    cover the shard's boards only in those months.
    """
    store = ArtifactStore(spec.root)
    board_ids = sorted(rows.board_ids)
    if list(rows.board_ids) != board_ids:
        rows = rows.take(np.argsort(rows.board_ids, kind="stable"))
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
    store.append_jsonl(SHARD_STREAM_NAME, rows_record_doc(month, rows), sort_keys=True)
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

    ``rows_by_month[m]`` is the shard's month ``m`` as one
    :class:`~repro.analysis.monthly.FleetMonthMetrics`, decoded straight
    into arrays (:func:`rows_from_docs`); months are contiguous from 0
    (an out-of-order record ends the readable prefix).  ``strict`` raises on any torn or
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
    rows_by_month: Dict[int, Any] = {}
    for index, record in enumerate(records[2:]):
        try:
            if record.get("kind") != "rows" or record.get("month") != index:
                raise StorageError(
                    f"unexpected record at position {index + 2} (kind "
                    f"{record.get('kind')!r}, month {record.get('month')!r})"
                )
            month_rows = rows_from_docs(record["rows"])
            if board_set and set(month_rows.board_ids) != board_set:
                raise StorageError(f"month {index} rows do not cover the shard")
        except (KeyError, TypeError, ValueError, StorageError) as exc:
            if strict:
                raise StorageError(
                    f"{source}: bad month-{index} record: {exc}"
                ) from exc
            break
        rows_by_month[index] = month_rows
    return header, references, rows_by_month


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


def _truncate_month_records(directory: str, name: str, through_month: int) -> None:
    """Rewrite a JSONL file keeping its records up to ``through_month``.

    Records without a month (a stream's header and references) are
    kept.  The kept prefix is re-encoded through the canonical writer
    path, so it is byte-identical to what the original run wrote.
    """
    store = ArtifactStore(directory, create=False)
    kept: List[Dict[str, Any]] = []
    for record in _read_jsonl_tolerant(store, name):
        month = record.get("month", -1)
        if not isinstance(month, int) or month > through_month:
            break
        kept.append(record)
    store.truncate(name)
    if kept:
        store.append_jsonl_batch(name, kept, sort_keys=True)


# Reading the shard tree ------------------------------------------------------

@dataclass
class ShardTree:
    """A sharded directory's manifest and shard streams, read once.

    ``rows_by_month[m]`` lists the month-``m`` records
    (:class:`~repro.analysis.monthly.FleetMonthMetrics`) of the shards
    that hold it, in shard order; ``stream_ends[i]`` is the newest
    month shard ``i``'s stream holds contiguously from month 0 (-1:
    none).
    """

    checkpoint_dir: str
    manifest: ShardManifest
    months: int
    measurements: int
    references: Dict[int, np.ndarray] = field(repr=False)
    rows_by_month: Dict[int, List[Any]] = field(repr=False)
    stream_ends: List[int]

    def snapshots(self, through_month: int) -> List[Any]:
        """The evaluations of months ``0..through_month``, in fleet order.

        The shards' records are concatenated as they are when that is
        already ascending board order (shards are contiguous runs of
        the fleet), and reordered once otherwise.
        """
        from repro.analysis.monthly import FleetMonthMetrics, assemble_evaluation

        board_ids = self.manifest.board_ids
        snapshots = []
        for month in range(through_month + 1):
            parts = self.rows_by_month.get(month, [])
            ids = [board for part in parts for board in part.board_ids]
            if ids != board_ids:
                if sorted(ids) != board_ids:
                    raise StorageError(
                        f"{self.checkpoint_dir}: month {month} rows do not cover the fleet"
                    )
                parts = [FleetMonthMetrics.concat(parts).take(np.argsort(ids))]
            snapshots.append(assemble_evaluation(month, self.measurements, parts))
        return snapshots


def read_shard_tree(checkpoint_dir: str, strict: bool = True) -> ShardTree:
    """Read the manifest and every shard stream of a sharded directory.

    The one gather step of merge (``strict``: a missing, torn or short
    stream raises) and of the resume scan (tolerant: such a shard just
    contributes less).
    """
    manifest = load_shard_manifest(checkpoint_dir)
    try:
        months = int(manifest.config["months"])
        measurements = int(manifest.config["measurements"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"{checkpoint_dir}: shard manifest has an unusable config: {exc}"
        ) from exc
    references: Dict[int, np.ndarray] = {}
    rows_by_month: Dict[int, List[Any]] = {}
    stream_ends: List[int] = []
    for index, shard_ids in enumerate(manifest.shard_boards):
        shard_dir = shard_root(checkpoint_dir, index)
        try:
            _header, shard_refs, shard_rows = read_shard_stream(shard_dir, strict)
            if set(shard_refs) != set(shard_ids):
                raise StorageError(
                    f"{shard_dir}: stream covers boards {sorted(shard_refs)}, "
                    f"manifest assigns {sorted(shard_ids)}"
                )
        except StorageError as exc:
            if strict:
                raise
            # A shard that never materialized, or whose stream opens
            # with garbage, lowers the resume month, nothing more.
            logger.warning("shard %d unreadable (%s)", index, exc)
            shard_refs, shard_rows = {}, {}
        end = len(shard_rows) - 1  # stream months are contiguous from 0
        if strict and end < months:
            raise StorageError(
                f"{shard_dir}: incomplete shard stream (months "
                f"{list(range(end + 1, months + 1))} missing) — resume the "
                "campaign before merging"
            )
        stream_ends.append(end)
        references.update(shard_refs)
        for month, month_rows in shard_rows.items():
            rows_by_month.setdefault(month, []).append(month_rows)
    return ShardTree(
        checkpoint_dir=checkpoint_dir,
        manifest=manifest,
        months=months,
        measurements=measurements,
        references=references,
        rows_by_month=rows_by_month,
        stream_ends=stream_ends,
    )


# Resume scan -----------------------------------------------------------------

def _resume_scan(checkpoint_dir: str) -> Tuple[ShardTree, List[Dict[str, Any]], int]:
    """The shard tree, the parent log and the fleet-wide resume month.

    The resume month ``R`` is the newest month that the parent log and
    every shard stream hold and that every shard chain can restore
    (:func:`~repro.store.checkpoint.restore_points`) — -1 when there is
    none.  A torn shard (kill mid-write) independently lowers ``R``; a
    compacted chain restores only from its kept keyframe forward.
    """
    tree = read_shard_tree(checkpoint_dir, strict=False)
    parent_records = read_parent_log(checkpoint_dir)
    candidates = set(range(min([len(parent_records) - 1, *tree.stream_ends]) + 1))
    for index in range(len(tree.stream_ends)):
        shard_dir = shard_root(checkpoint_dir, index)
        try:
            entries = list(scan_chain(shard_dir, scope="shard"))
        except StorageError as exc:
            logger.warning("shard %d chain unreadable (%s)", index, exc)
            entries = []
        for entry in entries:
            if entry.error:
                logger.warning(
                    "shard chain %s: unusable month %d (%s)",
                    shard_dir,
                    entry.month,
                    entry.error,
                )
        restorable = candidates & set(restore_points(entries))
        if max(restorable, default=-1) < max(candidates, default=-1):
            logger.info(
                "shard %d usable through month %d; lowering resume month",
                index,
                max(restorable, default=-1),
            )
        candidates = restorable
    return tree, parent_records, max(candidates, default=-1)


def sharded_resume_month(checkpoint_dir: str) -> int:
    """The month a resume restarts after (-1: none) — the resume scan's."""
    return _resume_scan(checkpoint_dir)[2]


def load_sharded_checkpoint(checkpoint_dir: str) -> CheckpointState:
    """Scan a sharded directory and build its resume state.

    The resume month ``R`` is the newest month that the parent log
    *and every shard* (chain file + stream rows) have fully,
    parseably persisted and that every shard chain can restore — a
    torn shard independently lowers ``R``; the others simply re-execute
    the difference, overwriting their stale files with byte-identical
    content.  Snapshots ``0..R`` are reassembled from the shard streams
    in fleet order (the cross-board statistics are recomputed
    deterministically), so the monitor replay — and with it the alert
    log — matches the uninterrupted run's.
    """
    tree, parent_records, resume_month = _resume_scan(checkpoint_dir)
    if resume_month < 0:
        raise StorageError(
            f"no resumable sharded state in {checkpoint_dir}: the parent log "
            "and every shard share no complete, restorable month"
        )
    board_ids = tree.manifest.board_ids
    record = parent_records[resume_month]
    return CheckpointState(
        completed_month=resume_month,
        config=tree.manifest.config,
        temperature=float(record["temperature"]),
        temp_rng_state=record["temp_rng_state"],
        references={board: tree.references[board] for board in board_ids},
        snapshots=tree.snapshots(resume_month),
        counter_deltas=[
            {str(k): int(v) for k, v in parent_records[m]["counter_delta"].items()}
            for m in range(resume_month + 1)
        ],
        pending_deltas={
            str(k): int(v) for k, v in record["pending_deltas"].items()
        },
        source=os.path.join(checkpoint_dir, SHARD_MANIFEST_NAME),
        shard_boards=tree.manifest.shard_boards,
        temperatures=tuple(
            float(parent_records[m]["temperature"]) for m in range(resume_month + 1)
        ),
    )


def prepare_shard_resume(checkpoint_dir: str, state: CheckpointState) -> None:
    """Roll the on-disk sharded layout back to the resume month.

    Truncates the parent log and every shard stream to ``R`` so the
    re-executed months append exactly as the uninterrupted run would
    have — stale chain files beyond ``R`` are left in place and simply
    overwritten (byte-identically) as those months re-run.
    """
    month = state.completed_month
    _truncate_month_records(checkpoint_dir, PARENT_LOG_NAME, month)
    for index in range(len(state.shard_boards)):
        shard_dir = shard_root(checkpoint_dir, index)
        _truncate_month_records(shard_dir, SHARD_STREAM_NAME, month)


def compact_sharded_checkpoint(
    checkpoint_dir: str, keep_keyframes: int = 1
) -> List[str]:
    """Compact every shard chain of a sharded directory (``store compact``).

    Each chain also keeps the keyframe it restores the fleet-wide resume
    month from, which lies below the shard's newest files whenever the
    parent log lags the shards — the normal crash window.  Returns the
    removed files relative to ``checkpoint_dir``.
    """
    resume_month = sharded_resume_month(checkpoint_dir)
    if resume_month < 0:
        raise StorageError(f"cannot compact {checkpoint_dir}: it has no resume month")
    removed: List[str] = []
    for index in range(len(load_shard_manifest(checkpoint_dir).shard_boards)):
        relative = os.path.join(SHARDS_DIR, shard_dir_name(index))
        removed += [
            os.path.join(relative, name)
            for name in compact_checkpoints(
                os.path.join(checkpoint_dir, relative),
                keep_keyframes=keep_keyframes,
                restore_month=resume_month,
            )
        ]
    return removed


# Merge-on-read ---------------------------------------------------------------

def merge_sharded_campaign(checkpoint_dir: str):
    """Reassemble the campaign result from shard streams.

    Reads every shard's stream strictly (all months 0..months must be
    present — an unfinished campaign refuses to merge; resume it
    first), orders the per-board rows in fleet order, and recomputes
    the cross-board statistics exactly as the live driver does.  The
    returned :class:`~repro.analysis.campaign.CampaignResult`
    serializes byte-identically to the artifact of the live result
    (``save_campaign`` plain or stream) — the acceptance gate the
    property suite and the CI ``shard-store-smoke`` job pin.
    """
    from repro.analysis.campaign import CampaignResult

    tree = read_shard_tree(checkpoint_dir, strict=True)
    board_ids = tree.manifest.board_ids
    snapshots = tree.snapshots(tree.months)
    logger.info(
        "merged %d shards, %d boards, %d snapshots from %s",
        len(tree.manifest.shard_boards),
        len(board_ids),
        len(snapshots),
        checkpoint_dir,
    )
    return CampaignResult(
        profile_name=tree.manifest.profile_name,
        months=tree.months,
        measurements=tree.measurements,
        board_ids=list(board_ids),
        references={board: tree.references[board] for board in board_ids},
        snapshots=snapshots,
    )
